//! The model registry: one forward-only SHL model per compression method,
//! partitioned into N-way shards.
//!
//! Entries are hashed by model name across [`ModelRegistry::shard_count`]
//! partitions. Name resolution is an O(1) per-shard map lookup instead of a
//! linear scan of every registered model, and the server gives each shard
//! its own admission-lane lock, so a fleet of thousands of models — or a
//! hot model hammered from many threads — contends on one partition, not on
//! a registry-wide structure. Registration order stays observable:
//! [`ModelRegistry::entries`] and [`ModelRegistry::index_of`] behave exactly
//! as the pre-sharding flat registry did.

use crate::cache::hash_bytes;
use bfly_core::{build_shl_inference, shl_param_count, Method, PixelflyError};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{Layer, Sequential};
use bfly_tensor::{derived_rng, Matrix, Scratch};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Number of registry partitions: model entries and their admission lanes
/// hash by name across this many shards.
pub const DEFAULT_REGISTRY_SHARDS: usize = 8;

/// Predicted device time for one batch of a model's forward trace.
///
/// `None` means the trace could not be priced on that device (e.g. the
/// compiled graph does not fit — the paper's Fig 6 memory-limit situation).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceEstimate {
    /// Predicted IPU (GC200) microseconds for the whole batch.
    pub ipu_us: Option<f64>,
    /// Predicted GPU (A30) microseconds for the whole batch.
    pub gpu_us: Option<f64>,
}

/// Floor on the per-batch cost a router reserves, µs. A zero-cost batch
/// would look free to occupancy-based policies (p2c/jsq would pile every
/// such batch onto one clock), so routing always reserves at least this.
pub const MIN_ROUTED_US: f64 = 1.0;

impl DeviceEstimate {
    /// The cost the pod router should reserve for this batch, µs: the IPU
    /// estimate when the trace priced there, else the GPU estimate as a
    /// stand-in, floored at [`MIN_ROUTED_US`] so an unpriced (or degenerate
    /// zero) estimate never routes as free.
    pub fn routed_us(&self) -> f64 {
        self.ipu_us
            .or(self.gpu_us)
            .filter(|us| us.is_finite() && *us > 0.0)
            .unwrap_or(MIN_ROUTED_US)
            .max(MIN_ROUTED_US)
    }
}

/// What to register: a named model built from one compression method,
/// owned by a tenant. Many models can share a method while keeping
/// distinct names, weights (seeded per registration index) and tenants.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry key; must be unique across the fleet.
    pub name: String,
    /// Compression method the model is built from.
    pub method: Method,
    /// Owning tenant (residency quotas group by this; see
    /// [`crate::ResidencyConfig`]).
    pub tenant: String,
}

impl ModelSpec {
    /// A spec under the `"default"` tenant with the method's lowercased
    /// Table 4 label as its name — what [`ModelRegistry::build`] registers.
    pub fn of_method(method: Method) -> Self {
        Self { name: method.label().to_ascii_lowercase(), method, tenant: "default".to_string() }
    }

    /// Same spec under an explicit name and tenant.
    pub fn named(name: &str, method: Method, tenant: &str) -> Self {
        Self { name: name.to_string(), method, tenant: tenant.to_string() }
    }
}

/// A model carrying its *own trained weights* into the registry — the
/// deployment path of the offline-compression pipeline, where the stack was
/// fitted against an existing dense model rather than derived from the
/// fleet seed.
///
/// The stack is frozen (forward-only) at registration; its parameter count
/// — and therefore its residency [`ModelEntry::weight_bytes`] — comes from
/// the stack itself, so a butterfly-compressed model is priced at its
/// actual O(n log n) footprint.
pub struct PrebuiltModel {
    /// Registry key; must be unique across the fleet.
    pub name: String,
    /// Method label used for routing/attribution (e.g. [`Method::Butterfly`]
    /// for a compressed stack, [`Method::Baseline`] for its dense original).
    pub method: Method,
    /// Owning tenant.
    pub tenant: String,
    /// The stack to serve. Must accept `dim`-column inputs and produce
    /// `classes`-column logits.
    pub model: Sequential,
}

impl PrebuiltModel {
    /// Wraps a stack under a name, method label and the `"default"` tenant.
    pub fn new(name: &str, method: Method, model: Sequential) -> Self {
        Self { name: name.to_string(), method, tenant: "default".to_string(), model }
    }
}

/// One entry of the list [`ModelRegistry::build`] (and
/// [`crate::Server::start`]) takes: a seed-derived model or a prebuilt
/// stack. A `&Method` converts to the spec [`ModelSpec::of_method`]
/// returns.
pub enum ModelSource {
    /// Built from a compression method, weights derived from the registry
    /// seed and the model's registration index.
    Seeded(ModelSpec),
    /// Served with its own weights.
    Prebuilt(PrebuiltModel),
}

// Only `&Method` converts: with a by-value impl too, clippy would flag the
// borrow in the idiomatic `Server::start(config, &[method])` as needless.
impl From<&Method> for ModelSource {
    fn from(method: &Method) -> Self {
        ModelSource::Seeded(ModelSpec::of_method(*method))
    }
}

impl From<ModelSpec> for ModelSource {
    fn from(spec: ModelSpec) -> Self {
        ModelSource::Seeded(spec)
    }
}

impl From<PrebuiltModel> for ModelSource {
    fn from(model: PrebuiltModel) -> Self {
        ModelSource::Prebuilt(model)
    }
}

/// Why [`ModelRegistry::build`] refused a model list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The list held no model.
    Empty,
    /// Two models share this name.
    DuplicateName(String),
    /// A prebuilt stack's logit count differs from the registry's classes.
    LogitShape {
        /// The prebuilt model's name.
        model: String,
        /// Logits the stack produces.
        got: usize,
        /// Classes the registry serves.
        want: usize,
    },
    /// A seeded method cannot be built at the registry's dimension.
    Pixelfly(PixelflyError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Empty => f.write_str("registry needs at least one model"),
            RegistryError::DuplicateName(name) => write!(f, "duplicate model name {name:?}"),
            RegistryError::LogitShape { model, got, want } => {
                write!(f, "prebuilt model {model:?} produces {got} logits, registry serves {want}")
            }
            RegistryError::Pixelfly(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One served model: a frozen (forward-only) SHL network.
///
/// The model is immutable after construction, so the request hot path runs
/// with no lock at all: workers share the entry through an `Arc` and call
/// [`ModelEntry::forward`] concurrently, each with its own [`Scratch`].
pub struct ModelEntry {
    name: String,
    method: Method,
    tenant: String,
    dim: usize,
    classes: usize,
    param_count: usize,
    model: Sequential,
    /// Per-batch-size device estimates; the trace (and its pricing) depends
    /// only on (model, batch), so each size is priced exactly once.
    estimates: RwLock<HashMap<usize, DeviceEstimate>>,
}

impl ModelEntry {
    /// Registry key (the lowercased Table 4 label, e.g. `"butterfly"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compression method behind this model.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Scalar parameter count (forward-only: one f32 each, no grad/momentum).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Owning tenant (what residency quotas group by).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The model's resident weight footprint in bytes — forward-only f32
    /// weights, so `4 * param_count`. The one source of truth residency,
    /// routing and the benches all share: butterfly's O(n log n) parameters
    /// vs dense's ~n² shows up directly as tenant density per device.
    pub fn weight_bytes(&self) -> u64 {
        4 * self.param_count as u64
    }

    /// Runs one forward batch (one sample per row), lock-free: the frozen
    /// model is read through `&self` and all mutable state lives in the
    /// caller-owned scratch arena.
    pub fn forward(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        self.model.forward_inference(x, scratch)
    }

    /// Predicted IPU/GPU time for a batch of the given size, memoized per
    /// batch size.
    ///
    /// The server attributes *every* batch it executes, but the trace — and
    /// therefore its pricing — depends only on (model, batch size), so each
    /// size is priced once and served from the memo afterwards.
    pub fn device_estimate(
        &self,
        batch: usize,
        ipu: &IpuDevice,
        gpu: &GpuDevice,
        tensor_cores: bool,
    ) -> DeviceEstimate {
        if let Some(hit) = self.estimates.read().get(&batch) {
            return *hit;
        }
        let trace = self.model.trace(batch);
        let estimate = DeviceEstimate {
            ipu_us: ipu.run(&trace).ok().map(|r| r.seconds(ipu.spec()) * 1e6),
            gpu_us: gpu.run(&trace, tensor_cores).ok().map(|r| r.seconds() * 1e6),
        };
        self.estimates.write().insert(batch, estimate);
        estimate
    }

    /// Number of batch sizes currently held in the estimate memo.
    pub fn memoized_estimates(&self) -> usize {
        self.estimates.read().len()
    }
}

/// Where a model lives: its registration-order index plus its shard
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelLocation {
    /// Registration-order index (what [`ModelRegistry::index_of`] returns).
    pub index: usize,
    /// Which registry shard holds the entry.
    pub shard: usize,
    /// Position within that shard's member list.
    pub within: usize,
}

struct RegistryShard {
    /// Registration-order indices of the models in this shard, in
    /// within-shard order.
    members: Vec<usize>,
    by_name: HashMap<String, ModelLocation>,
}

/// All models a server instance can answer for, keyed by method label and
/// partitioned by name hash.
pub struct ModelRegistry {
    shards: Vec<RegistryShard>,
    /// Registration order, for iteration and stable indices.
    flat: Vec<Arc<ModelEntry>>,
    /// Registration-order index -> shard coordinates.
    locations: Vec<ModelLocation>,
}

impl ModelRegistry {
    /// Builds one forward-only entry per model, in the given order, with
    /// [`DEFAULT_REGISTRY_SHARDS`] partitions.
    ///
    /// A [`ModelSource::Seeded`] model derives its weights from `seed` and
    /// its registration index, so two registries built with the same
    /// arguments are weight-identical. A [`ModelSource::Prebuilt`] stack is
    /// frozen here and must produce `classes` logits for `dim`-column
    /// inputs. Names must be unique and the list non-empty.
    pub fn build(
        dim: usize,
        classes: usize,
        seed: u64,
        models: impl IntoIterator<Item = impl Into<ModelSource>>,
    ) -> Result<Self, RegistryError> {
        let mut flat: Vec<Arc<ModelEntry>> = Vec::new();
        for (i, source) in models.into_iter().enumerate() {
            let (name, method, tenant, model, param_count) = match source.into() {
                ModelSource::Seeded(spec) => {
                    let mut rng = derived_rng(seed, i as u64);
                    let model = build_shl_inference(spec.method, dim, classes, &mut rng)
                        .map_err(RegistryError::Pixelfly)?;
                    let params = shl_param_count(spec.method, dim, classes);
                    (spec.name, spec.method, spec.tenant, model, params)
                }
                ModelSource::Prebuilt(built) => {
                    let mut model = built.model;
                    model.freeze();
                    let logits =
                        model.forward_inference(&Matrix::zeros(1, dim), &mut Scratch::new());
                    if logits.cols() != classes {
                        return Err(RegistryError::LogitShape {
                            model: built.name,
                            got: logits.cols(),
                            want: classes,
                        });
                    }
                    let params = model.param_count();
                    (built.name, built.method, built.tenant, model, params)
                }
            };
            if flat.iter().any(|e| e.name == name) {
                return Err(RegistryError::DuplicateName(name));
            }
            flat.push(Arc::new(ModelEntry {
                name,
                method,
                tenant,
                dim,
                classes,
                param_count,
                model,
                estimates: RwLock::new(HashMap::new()),
            }));
        }
        if flat.is_empty() {
            return Err(RegistryError::Empty);
        }
        Ok(Self::assemble(flat, DEFAULT_REGISTRY_SHARDS))
    }

    /// Partitions registered entries into name-hashed shards.
    fn assemble(flat: Vec<Arc<ModelEntry>>, shard_count: usize) -> Self {
        assert!(shard_count > 0, "registry needs at least one shard");
        let mut shards: Vec<RegistryShard> = (0..shard_count)
            .map(|_| RegistryShard { members: Vec::new(), by_name: HashMap::new() })
            .collect();
        let mut locations = Vec::with_capacity(flat.len());
        for (index, entry) in flat.iter().enumerate() {
            let shard = shard_of_name(entry.name(), shard_count);
            let within = shards[shard].members.len();
            let location = ModelLocation { index, shard, within };
            shards[shard].members.push(index);
            shards[shard].by_name.insert(entry.name().to_string(), location);
            locations.push(location);
        }
        Self { shards, flat, locations }
    }

    /// The registered models, in registration order.
    pub fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.flat
    }

    /// O(1) name resolution to the model's shard coordinates.
    pub fn locate(&self, name: &str) -> Option<ModelLocation> {
        let shard = shard_of_name(name, self.shards.len());
        self.shards[shard].by_name.get(name).copied()
    }

    /// Registration-order index of the model with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.locate(name).map(|l| l.index)
    }

    /// Shard coordinates of the model at the given registration-order index.
    pub fn location(&self, index: usize) -> ModelLocation {
        self.locations[index]
    }

    /// Number of registry partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a model name routes to (whether or not it is registered).
    pub fn shard_of(&self, name: &str) -> usize {
        shard_of_name(name, self.shards.len())
    }

    /// Registration-order indices of the models in the given shard, in
    /// within-shard order.
    pub fn shard_members(&self, shard: usize) -> &[usize] {
        &self.shards[shard].members
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Always false: [`ModelRegistry::build`] rejects an empty model list.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }
}

fn shard_of_name(name: &str, shard_count: usize) -> usize {
    (hash_bytes(name.as_bytes()) as usize) % shard_count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_all_table4_methods() {
        let methods = Method::table4_all();
        let reg = ModelRegistry::build(1024, 10, 7, &methods).expect("1024 fits all methods");
        assert_eq!(reg.len(), methods.len());
        assert_eq!(reg.index_of("baseline"), Some(0));
        assert!(reg.index_of("butterfly").is_some());
        assert!(reg.index_of("nope").is_none());
    }

    #[test]
    fn same_seed_gives_identical_outputs() {
        let methods = [Method::Butterfly];
        let a = ModelRegistry::build(64, 10, 3, &methods).expect("valid");
        let b = ModelRegistry::build(64, 10, 3, &methods).expect("valid");
        let x = Matrix::filled(2, 64, 0.25);
        let mut scratch = Scratch::new();
        let ya = a.entries()[0].forward(&x, &mut scratch);
        let yb = b.entries()[0].forward(&x, &mut scratch);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn device_estimates_are_positive_and_deterministic() {
        let reg = ModelRegistry::build(256, 10, 5, &[Method::Butterfly]).expect("valid");
        let ipu = IpuDevice::gc200();
        let gpu = GpuDevice::a30();
        let e = reg.entries()[0].device_estimate(8, &ipu, &gpu, false);
        assert!(e.ipu_us.expect("prices on IPU") > 0.0);
        assert!(e.gpu_us.expect("prices on GPU") > 0.0);
        let again = reg.entries()[0].device_estimate(8, &ipu, &gpu, false);
        assert_eq!(e.ipu_us, again.ipu_us);
        assert_eq!(e.gpu_us, again.gpu_us);
    }

    #[test]
    fn routed_cost_falls_back_and_never_hits_zero() {
        let ipu_priced = DeviceEstimate { ipu_us: Some(42.0), gpu_us: Some(7.0) };
        assert_eq!(ipu_priced.routed_us(), 42.0, "IPU estimate wins when present");
        let gpu_only = DeviceEstimate { ipu_us: None, gpu_us: Some(7.0) };
        assert_eq!(gpu_only.routed_us(), 7.0, "GPU estimate stands in");
        let unpriced = DeviceEstimate { ipu_us: None, gpu_us: None };
        assert_eq!(unpriced.routed_us(), MIN_ROUTED_US, "unpriced batches still cost something");
        let degenerate = DeviceEstimate { ipu_us: Some(0.0), gpu_us: Some(0.0) };
        assert_eq!(degenerate.routed_us(), MIN_ROUTED_US, "zero estimates are floored");
        let tiny = DeviceEstimate { ipu_us: Some(0.25), gpu_us: None };
        assert_eq!(tiny.routed_us(), MIN_ROUTED_US, "sub-floor estimates are floored");
    }

    #[test]
    fn device_estimates_are_memoized_per_batch_size() {
        let reg = ModelRegistry::build(256, 10, 5, &[Method::Butterfly]).expect("valid");
        let ipu = IpuDevice::gc200();
        let gpu = GpuDevice::a30();
        let entry = &reg.entries()[0];
        assert_eq!(entry.memoized_estimates(), 0);
        let _ = entry.device_estimate(8, &ipu, &gpu, false);
        let _ = entry.device_estimate(8, &ipu, &gpu, false);
        assert_eq!(entry.memoized_estimates(), 1, "repeat sizes must hit the memo");
        let _ = entry.device_estimate(32, &ipu, &gpu, false);
        assert_eq!(entry.memoized_estimates(), 2);
    }

    #[test]
    fn concurrent_lock_free_forwards_match_single_threaded() {
        let reg = ModelRegistry::build(256, 10, 9, &Method::table4_all()).expect("valid");
        for entry in reg.entries() {
            let x = Matrix::filled(4, 256, 0.125);
            let mut scratch = Scratch::new();
            let want = entry.forward(&x, &mut scratch);
            let got: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let entry = Arc::clone(entry);
                        let x = x.clone();
                        s.spawn(move || {
                            let mut scratch = Scratch::new();
                            entry.forward(&x, &mut scratch)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            for y in got {
                assert_eq!(y.as_slice(), want.as_slice(), "{} diverged", entry.name());
            }
        }
    }

    #[test]
    fn mixed_fleet_serves_prebuilt_weights_verbatim() {
        use bfly_nn::{build_dense_mlp, Layer as _};
        use bfly_tensor::seeded_rng;
        let mut rng = seeded_rng(41);
        let mut stack = build_dense_mlp(32, &[16], 10, &mut rng);
        let x = Matrix::random_uniform(3, 32, 1.0, &mut rng);
        let want = stack.forward(&x, false);
        let expected_params = stack.param_count();
        let seeded = || ModelSpec::named("seeded", Method::Butterfly, "default");
        let reg = ModelRegistry::build(
            32,
            10,
            7,
            [
                seeded().into(),
                ModelSource::from(PrebuiltModel::new("mine", Method::Baseline, stack)),
            ],
        )
        .expect("valid fleet");
        assert_eq!(reg.len(), 2);
        let entry = &reg.entries()[reg.index_of("mine").expect("registered")];
        assert_eq!(entry.param_count(), expected_params);
        assert_eq!(entry.weight_bytes(), 4 * expected_params as u64);
        let mut scratch = Scratch::new();
        let got = entry.forward(&x, &mut scratch);
        assert_eq!(got.as_slice(), want.as_slice(), "prebuilt weights must serve verbatim");
        // Spec-derived entries are unaffected by the prebuilt additions.
        let spec_only = ModelRegistry::build(32, 10, 7, [seeded()]).expect("valid");
        let ya = reg.entries()[0].forward(&x, &mut scratch);
        let yb = spec_only.entries()[0].forward(&x, &mut scratch);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn mixed_fleet_rejects_duplicate_prebuilt_names() {
        use bfly_nn::build_dense_mlp;
        use bfly_tensor::seeded_rng;
        let mut rng = seeded_rng(42);
        let stack = build_dense_mlp(8, &[], 10, &mut rng);
        let result = ModelRegistry::build(
            8,
            10,
            1,
            [
                ModelSpec::named("clash", Method::Butterfly, "default").into(),
                ModelSource::from(PrebuiltModel::new("clash", Method::Baseline, stack)),
            ],
        );
        assert_eq!(result.err(), Some(RegistryError::DuplicateName("clash".to_string())));
    }

    #[test]
    fn mixed_fleet_rejects_class_mismatch() {
        use bfly_nn::build_dense_mlp;
        use bfly_tensor::seeded_rng;
        let mut rng = seeded_rng(43);
        // 5-logit stack registered into a 10-class fleet.
        let stack = build_dense_mlp(8, &[], 5, &mut rng);
        let result =
            ModelRegistry::build(8, 10, 1, [PrebuiltModel::new("wrong", Method::Baseline, stack)]);
        let want = RegistryError::LogitShape { model: "wrong".to_string(), got: 5, want: 10 };
        assert_eq!(result.err(), Some(want));
    }

    #[test]
    fn empty_model_list_is_rejected() {
        let result = ModelRegistry::build(8, 10, 1, Vec::<ModelSpec>::new());
        assert_eq!(result.err(), Some(RegistryError::Empty));
    }

    #[test]
    fn registry_reports_pixelfly_dim_error() {
        let config = bfly_core::PixelflyConfig::paper_default();
        let result = ModelRegistry::build(784, 10, 1, &[Method::Pixelfly(config)]);
        assert!(
            matches!(result.err(), Some(RegistryError::Pixelfly(_))),
            "pixelfly must reject dim=784"
        );
    }

    /// The registry over `methods` re-partitioned into `shard_count` shards.
    fn sharded(dim: usize, seed: u64, methods: &[Method], shard_count: usize) -> ModelRegistry {
        let built = ModelRegistry::build(dim, 10, seed, methods).expect("valid");
        ModelRegistry::assemble(built.flat, shard_count)
    }

    #[test]
    fn every_model_resolves_to_exactly_one_shard() {
        for shard_count in [1, 2, 3, 8, 17] {
            let reg = sharded(1024, 7, &Method::table4_all(), shard_count);
            assert_eq!(reg.shard_count(), shard_count);
            // Shard membership partitions the registration-order index set.
            let mut seen = vec![0usize; reg.len()];
            for shard in 0..shard_count {
                for &index in reg.shard_members(shard) {
                    seen[index] += 1;
                    assert_eq!(reg.location(index).shard, shard);
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "each model in exactly one shard");
            // locate() agrees with shard_of() and round-trips the name.
            for (index, entry) in reg.entries().iter().enumerate() {
                let loc = reg.locate(entry.name()).expect("registered");
                assert_eq!(loc.index, index);
                assert_eq!(loc.shard, reg.shard_of(entry.name()));
                assert_eq!(reg.shard_members(loc.shard)[loc.within], index);
            }
        }
    }

    #[test]
    fn sharding_preserves_flat_registry_semantics_for_table4_set() {
        let methods = Method::table4_all();
        let flat_order: Vec<String> =
            methods.iter().map(|m| m.label().to_ascii_lowercase()).collect();
        for shard_count in [1, 4, 16] {
            let reg = sharded(1024, 7, &methods, shard_count);
            let names: Vec<String> = reg.entries().iter().map(|e| e.name().to_string()).collect();
            assert_eq!(names, flat_order, "entries() keeps registration order");
            for (i, name) in flat_order.iter().enumerate() {
                assert_eq!(reg.index_of(name), Some(i), "index_of unchanged by sharding");
            }
            assert_eq!(reg.index_of("nope"), None);
        }
    }

    #[test]
    fn concurrent_lookups_across_shards_smoke() {
        let reg = std::sync::Arc::new(sharded(256, 3, &Method::table4_all(), 4));
        let names: Vec<String> = reg.entries().iter().map(|e| e.name().to_string()).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let reg = std::sync::Arc::clone(&reg);
                let names = names.clone();
                s.spawn(move || {
                    for round in 0..500 {
                        let name = &names[(t + round) % names.len()];
                        let loc = reg.locate(name).expect("registered");
                        assert_eq!(reg.entries()[loc.index].name(), name);
                        assert!(reg.locate("missing-model").is_none());
                    }
                });
            }
        });
    }
}
