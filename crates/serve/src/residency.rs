//! Weight-residency manager: per-replica SRAM budgets as a cache over
//! streaming memory.
//!
//! The paper's §6 future-work direction — streaming memory combined with
//! sparse methods — is modeled in `bfly_ipu::streaming` (64 GB of remote
//! memory behind a 20 GB/s link on the M2000). This module puts the serving
//! stack on top of it: each pod replica's SRAM is a *budgeted cache* of
//! model weights, and the manager owns everything the old inline
//! `resident: Vec<bool>` in [`crate::replica`] conflated:
//!
//! - **Footprints.** Every model's resident cost is its `weight_bytes()`
//!   from the registry — butterfly O(n log n) vs dense ~n²·4 bytes — so
//!   *tenant density* (how many models fit resident per GC200) restates the
//!   paper's compression argument operationally.
//! - **Paging costs.** A replica's *first-ever* load of a model streams the
//!   weights over an IPU-Link (`weight_load_seconds`: inter-chip bandwidth
//!   plus one collective launch) — the PR-5 cold-load semantics, unchanged.
//!   A *re*-load after eviction pages the weights back from streaming
//!   memory at [`StreamingSpec::bytes_per_sec`] (20 GB/s, far slower than
//!   the 320 GB/s IPU-Link) plus the same collective launch. A crash wipes
//!   SRAM *and* the first-load history: the replacement chip re-pays the
//!   IPU-Link warm-up, exactly as before.
//! - **Eviction.** When a miss would overflow the budget, resident models
//!   are evicted under a pluggable [`ResidencyPolicy`]: LRU by default, or
//!   cost-aware (evict the fewest bytes-to-reload first, so cheap butterfly
//!   models page while expensive dense models stay pinned).
//! - **Tenant quotas.** Per-tenant resident-byte caps give fair admission
//!   when hundreds of registered models contend: a tenant at its quota
//!   evicts *its own* least-valuable model first and can never push another
//!   tenant's weights out of SRAM.
//! - **Stream-through.** A model that can never fit (its footprint exceeds
//!   the budget or its tenant's quota) is not resident-able at all: it pays
//!   the streaming page-in on *every* touch — the hit-rate/p99 cliff the
//!   multitenant bench measures when dense working sets outgrow SRAM.
//!
//! With [`ResidencyConfig::default`] (no budget, no quotas) the manager
//! reproduces the pre-residency runtime bit-exactly: every first touch is
//! an IPU-Link cold load, nothing is ever evicted or paged, and replica 0
//! starts warm for every model. A property test pins this.
//!
//! The manager is plain data owned by the pod's one mutex (see
//! [`crate::replica`]): touch/evict/wipe are atomic with the occupancy
//! clocks and the device-time ledgers, so snapshots can never observe the
//! byte ledger and the time ledger out of step.

use bfly_ipu::{weight_load_seconds, PodSpec, StreamingSpec};

/// Eviction policy of the per-replica SRAM weight cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidencyPolicy {
    /// Evict the least-recently-touched model. The default.
    #[default]
    Lru,
    /// Evict the model that is cheapest to reload (fewest weight bytes),
    /// breaking ties by recency: compressed butterfly models page in and
    /// out almost for free, so they yield SRAM before dense models do.
    CostAware,
}

impl ResidencyPolicy {
    /// Short label used in bench output and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ResidencyPolicy::Lru => "lru",
            ResidencyPolicy::CostAware => "cost-aware",
        }
    }
}

/// A per-tenant resident-byte cap, applied per replica.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// Tenant name (matches [`crate::registry::ModelSpec::tenant`]).
    pub tenant: String,
    /// Largest number of weight bytes this tenant may hold resident on any
    /// one replica.
    pub resident_bytes: u64,
}

/// Residency configuration threaded through [`crate::ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyConfig {
    /// Per-replica SRAM budget for model weights, bytes. `None` (the
    /// default) means unbounded — the pre-residency runtime, bit-exactly.
    pub sram_budget_bytes: Option<u64>,
    /// Eviction policy under budget pressure.
    pub policy: ResidencyPolicy,
    /// Per-tenant resident-byte caps (tenants not listed are uncapped).
    pub tenant_quotas: Vec<TenantQuota>,
    /// The streaming-memory link evicted weights page back through.
    pub streaming: StreamingSpec,
}

impl Default for ResidencyConfig {
    fn default() -> Self {
        Self {
            sram_budget_bytes: None,
            policy: ResidencyPolicy::default(),
            tenant_quotas: Vec::new(),
            streaming: StreamingSpec::m2000(),
        }
    }
}

impl ResidencyConfig {
    /// The explicit no-limit configuration (identical to `default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// An LRU cache of `bytes` per replica over the M2000 streaming link.
    pub fn with_budget(bytes: u64) -> Self {
        Self { sram_budget_bytes: Some(bytes), ..Self::default() }
    }

    /// Adds a per-tenant resident-byte quota (builder style).
    pub fn quota(mut self, tenant: &str, resident_bytes: u64) -> Self {
        self.tenant_quotas.push(TenantQuota { tenant: tenant.to_string(), resident_bytes });
        self
    }

    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        if let Some(budget) = self.sram_budget_bytes {
            assert!(budget > 0, "sram budget must be positive when set");
        }
        for quota in &self.tenant_quotas {
            assert!(!quota.tenant.is_empty(), "tenant quota needs a tenant name");
            assert!(quota.resident_bytes > 0, "tenant quota must be positive");
        }
        for (i, a) in self.tenant_quotas.iter().enumerate() {
            for b in &self.tenant_quotas[i + 1..] {
                assert!(a.tenant != b.tenant, "duplicate tenant quota for {:?}", a.tenant);
            }
        }
        self.streaming.validate().unwrap_or_else(|e| panic!("residency streaming spec: {e}"));
    }
}

/// The residency-relevant profile of one registered model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelProfile {
    /// Resident weight footprint, bytes (from the registry's one source of
    /// truth, [`crate::registry::ModelEntry::weight_bytes`]).
    pub weight_bytes: u64,
    /// Interned tenant id (index into the manager's tenant table).
    pub tenant: usize,
}

/// What one touch charged: the simulated weight-transfer time reserved on
/// the replica's clock, and — when the transfer was a streaming page-in
/// rather than a first-time IPU-Link load — the bytes it paged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Charge {
    /// Simulated ns of weight transfer (0 on a residency hit).
    pub weight_ns: u64,
    /// Bytes paged over the streaming link; 0 for hits and for first-time
    /// IPU-Link cold loads. Used to refund the paging ledger when a crash
    /// strands the batch that paid this charge.
    pub paged_bytes: u64,
}

/// Per-replica residency counters, exported through
/// [`crate::metrics::ReplicaStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplicaResidency {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub cold_loads: u64,
    pub paged_in_bytes: u64,
    /// Simulated ns of streaming page-ins (subset of `load_ns`).
    pub paging_ns: u64,
    /// Simulated ns of all weight transfers charged to this replica's clock
    /// (IPU-Link cold loads plus streaming page-ins), net of refunds.
    pub load_ns: u64,
    pub resident_bytes: u64,
    pub resident_models: usize,
}

/// Per-model residency counters, summed across replicas.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ModelResidency {
    pub hits: u64,
    pub misses: u64,
    pub paged_in_bytes: u64,
}

/// Per-replica residency ledger: what is in SRAM, what has ever been
/// warm-loaded, and the byte/time accounting.
struct ReplicaLedger {
    resident: Vec<bool>,
    /// Model has been IPU-Link-loaded onto this chip at least once since
    /// the last crash; a miss on an `ever_loaded` model is a streaming
    /// page-in, not a cold load.
    ever_loaded: Vec<bool>,
    /// Monotonic touch tick per model (LRU order).
    last_touch: Vec<u64>,
    resident_bytes: u64,
    /// Resident bytes per tenant id (quota accounting).
    tenant_bytes: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    cold_loads: u64,
    paged_in_bytes: u64,
    paging_ns: u64,
    load_ns: u64,
}

impl ReplicaLedger {
    fn new(models: usize, tenants: usize) -> Self {
        Self {
            resident: vec![false; models],
            ever_loaded: vec![false; models],
            last_touch: vec![0; models],
            resident_bytes: 0,
            tenant_bytes: vec![0; tenants],
            hits: 0,
            misses: 0,
            evictions: 0,
            cold_loads: 0,
            paged_in_bytes: 0,
            paging_ns: 0,
            load_ns: 0,
        }
    }
}

fn seconds_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// The residency manager. Owned by the pod's mutex; every method is called
/// under that lock, so no interior synchronisation is needed.
pub(crate) struct ResidencyManager {
    budget: Option<u64>,
    policy: ResidencyPolicy,
    profiles: Vec<ModelProfile>,
    /// Per-replica quota by tenant id (`None` = uncapped).
    quotas: Vec<Option<u64>>,
    /// Precomputed simulated ns of a first-time IPU-Link load, per model.
    link_ns: Vec<u64>,
    /// Precomputed simulated ns of a streaming page-in, per model.
    page_ns: Vec<u64>,
    replicas: Vec<ReplicaLedger>,
    /// Monotonic touch counter driving LRU order.
    tick: u64,
    model_hits: Vec<u64>,
    model_misses: Vec<u64>,
    model_paged_bytes: Vec<u64>,
}

impl ResidencyManager {
    /// Builds the manager for a pod of `replicas` devices serving the given
    /// model profiles. `tenants` is the interned tenant-name table the
    /// profiles index into; quotas are matched to it by name (a quota for a
    /// tenant with no registered model is inert).
    ///
    /// Replica 0 is pre-warmed in registration order with every model that
    /// fits under the budget and its tenant's quota — with no budget that
    /// is *all* of them, the pre-residency warm-start exactly.
    pub fn new(
        config: &ResidencyConfig,
        pod: &PodSpec,
        replicas: usize,
        profiles: Vec<ModelProfile>,
        tenants: Vec<String>,
    ) -> Self {
        config.validate();
        let quotas: Vec<Option<u64>> = tenants
            .iter()
            .map(|name| {
                config.tenant_quotas.iter().find(|q| &q.tenant == name).map(|q| q.resident_bytes)
            })
            .collect();
        let link_ns: Vec<u64> = profiles
            .iter()
            .map(|p| seconds_to_ns(weight_load_seconds(pod, p.weight_bytes)))
            .collect();
        let page_ns: Vec<u64> = profiles
            .iter()
            .map(|p| {
                seconds_to_ns(
                    p.weight_bytes as f64 / config.streaming.bytes_per_sec
                        + pod.collective_latency_seconds,
                )
            })
            .collect();
        let models = profiles.len();
        let mut manager = Self {
            budget: config.sram_budget_bytes,
            policy: config.policy,
            profiles,
            quotas,
            link_ns,
            page_ns,
            replicas: (0..replicas).map(|_| ReplicaLedger::new(models, tenants.len())).collect(),
            tick: 0,
            model_hits: vec![0; models],
            model_misses: vec![0; models],
            model_paged_bytes: vec![0; models],
        };
        // Pre-warm replica 0 (first-fit in registration order, no
        // evictions): the device the pre-pod runtime priced everything on,
        // weights already in SRAM at no simulated cost.
        if !manager.replicas.is_empty() {
            for model in 0..models {
                if manager.fits(0, model) {
                    manager.make_resident(0, model);
                    manager.replicas[0].ever_loaded[model] = true;
                }
            }
        }
        manager
    }

    fn budget_of(&self, tenant: usize) -> (Option<u64>, Option<u64>) {
        (self.budget, self.quotas[tenant])
    }

    /// Whether `model` fits on `replica` *right now*, without evicting.
    fn fits(&self, replica: usize, model: usize) -> bool {
        let bytes = self.profiles[model].weight_bytes;
        let tenant = self.profiles[model].tenant;
        let led = &self.replicas[replica];
        let (budget, quota) = self.budget_of(tenant);
        budget.is_none_or(|b| led.resident_bytes + bytes <= b)
            && quota.is_none_or(|q| led.tenant_bytes[tenant] + bytes <= q)
    }

    /// Whether `model` could *ever* be resident on a replica (its footprint
    /// alone fits the budget and its tenant's quota). False means the model
    /// streams through on every touch.
    fn admissible(&self, model: usize) -> bool {
        let bytes = self.profiles[model].weight_bytes;
        let (budget, quota) = self.budget_of(self.profiles[model].tenant);
        budget.is_none_or(|b| bytes <= b) && quota.is_none_or(|q| bytes <= q)
    }

    /// Eviction rank (lower evicts first): LRU orders purely by recency;
    /// cost-aware puts the fewest bytes-to-reload first so cheap butterfly
    /// models yield SRAM before expensive dense ones. The model index is
    /// the deterministic tie-break.
    fn victim_key(&self, replica: usize, model: usize) -> (u64, u64, usize) {
        let touch = self.replicas[replica].last_touch[model];
        match self.policy {
            ResidencyPolicy::Lru => (touch, 0, model),
            ResidencyPolicy::CostAware => (self.profiles[model].weight_bytes, touch, model),
        }
    }

    /// The resident model on `replica` the policy evicts next, optionally
    /// restricted to one tenant's models (quota pressure evicts only the
    /// over-quota tenant's own weights — fair admission).
    fn victim(&self, replica: usize, tenant: Option<usize>) -> Option<usize> {
        (0..self.profiles.len())
            .filter(|&m| self.replicas[replica].resident[m])
            .filter(|&m| tenant.is_none_or(|t| self.profiles[m].tenant == t))
            .min_by_key(|&m| self.victim_key(replica, m))
    }

    fn evict(&mut self, replica: usize, model: usize) {
        let bytes = self.profiles[model].weight_bytes;
        let tenant = self.profiles[model].tenant;
        let led = &mut self.replicas[replica];
        debug_assert!(led.resident[model]);
        led.resident[model] = false;
        led.resident_bytes -= bytes;
        led.tenant_bytes[tenant] -= bytes;
        led.evictions += 1;
    }

    fn make_resident(&mut self, replica: usize, model: usize) {
        let bytes = self.profiles[model].weight_bytes;
        let tenant = self.profiles[model].tenant;
        let led = &mut self.replicas[replica];
        led.resident[model] = true;
        led.resident_bytes += bytes;
        led.tenant_bytes[tenant] += bytes;
        led.last_touch[model] = self.tick;
    }

    /// Makes room for `model` on `replica` and marks it resident, evicting
    /// under the policy: first the model's own tenant pays its quota debt,
    /// then the global budget evicts across tenants. Returns false when the
    /// model can never fit (stream-through).
    fn admit(&mut self, replica: usize, model: usize) -> bool {
        if !self.admissible(model) {
            return false;
        }
        let bytes = self.profiles[model].weight_bytes;
        let tenant = self.profiles[model].tenant;
        if let Some(quota) = self.quotas[tenant] {
            while self.replicas[replica].tenant_bytes[tenant] + bytes > quota {
                let victim = self
                    .victim(replica, Some(tenant))
                    .expect("over-quota tenant has resident models to evict");
                self.evict(replica, victim);
            }
        }
        if let Some(budget) = self.budget {
            while self.replicas[replica].resident_bytes + bytes > budget {
                let victim = self
                    .victim(replica, None)
                    .expect("over-budget replica has resident models to evict");
                self.evict(replica, victim);
            }
        }
        self.make_resident(replica, model);
        true
    }

    /// One batch of `model` routed to `replica`: a residency hit costs
    /// nothing; a miss charges the weight transfer — IPU-Link for the
    /// first-ever load on this chip (a *cold load*), the streaming link for
    /// a reload after eviction (a *page-in*) — and admits the model,
    /// evicting under the policy when the budget or the tenant's quota
    /// requires it. Inadmissible models stream through: they pay the
    /// page-in on every touch and never become resident.
    pub fn touch(&mut self, replica: usize, model: usize) -> Charge {
        self.tick += 1;
        if self.replicas[replica].resident[model] {
            self.replicas[replica].last_touch[model] = self.tick;
            self.replicas[replica].hits += 1;
            self.model_hits[model] += 1;
            return Charge::default();
        }
        self.replicas[replica].misses += 1;
        self.model_misses[model] += 1;
        let first_load = !self.replicas[replica].ever_loaded[model];
        self.replicas[replica].ever_loaded[model] = true;
        let bytes = self.profiles[model].weight_bytes;
        let (weight_ns, paged_bytes) = if first_load {
            self.replicas[replica].cold_loads += 1;
            (self.link_ns[model], 0)
        } else {
            let ns = self.page_ns[model];
            self.replicas[replica].paging_ns += ns;
            self.replicas[replica].paged_in_bytes += bytes;
            self.model_paged_bytes[model] += bytes;
            (ns, bytes)
        };
        self.replicas[replica].load_ns += weight_ns;
        self.admit(replica, model);
        Charge { weight_ns, paged_bytes }
    }

    /// Refunds a charge whose batch was stranded by a crash: the weight
    /// transfer never completed on a chip that still exists, so both the
    /// time ledger and — for page-ins — the byte ledger give it back.
    /// (`cold_loads`/`misses` stay, matching the pre-residency counters:
    /// they tally attempts, not retained work.)
    pub fn refund(&mut self, replica: usize, model: usize, charge: &Charge) {
        let led = &mut self.replicas[replica];
        led.load_ns = led.load_ns.saturating_sub(charge.weight_ns);
        if charge.paged_bytes > 0 {
            led.paging_ns = led.paging_ns.saturating_sub(charge.weight_ns);
            led.paged_in_bytes = led.paged_in_bytes.saturating_sub(charge.paged_bytes);
            self.model_paged_bytes[model] =
                self.model_paged_bytes[model].saturating_sub(charge.paged_bytes);
        }
    }

    /// Crash: the chip's SRAM is gone. Residency *and* the first-load
    /// history are wiped — the replacement chip re-pays the IPU-Link
    /// warm-up per model, exactly the PR-5 recovery semantics. Historical
    /// counters (hits, misses, evictions, paging) survive as history.
    pub fn wipe(&mut self, replica: usize) {
        let led = &mut self.replicas[replica];
        led.resident.iter_mut().for_each(|m| *m = false);
        led.ever_loaded.iter_mut().for_each(|m| *m = false);
        led.resident_bytes = 0;
        led.tenant_bytes.iter_mut().for_each(|b| *b = 0);
    }

    /// Point-in-time residency counters for one replica.
    pub fn replica_residency(&self, replica: usize) -> ReplicaResidency {
        let led = &self.replicas[replica];
        ReplicaResidency {
            hits: led.hits,
            misses: led.misses,
            evictions: led.evictions,
            cold_loads: led.cold_loads,
            paged_in_bytes: led.paged_in_bytes,
            paging_ns: led.paging_ns,
            load_ns: led.load_ns,
            resident_bytes: led.resident_bytes,
            resident_models: led.resident.iter().filter(|&&r| r).count(),
        }
    }

    /// Point-in-time residency counters for one model, across all replicas.
    pub fn model_residency(&self, model: usize) -> ModelResidency {
        ModelResidency {
            hits: self.model_hits[model],
            misses: self.model_misses[model],
            paged_in_bytes: self.model_paged_bytes[model],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(
        config: &ResidencyConfig,
        replicas: usize,
        profiles: &[(u64, usize)],
        tenants: &[&str],
    ) -> ResidencyManager {
        ResidencyManager::new(
            config,
            &PodSpec::with_ipus(replicas.max(1)),
            replicas,
            profiles
                .iter()
                .map(|&(weight_bytes, tenant)| ModelProfile { weight_bytes, tenant })
                .collect(),
            tenants.iter().map(|t| t.to_string()).collect(),
        )
    }

    #[test]
    fn policy_defaults_to_lru_and_labels() {
        assert_eq!(ResidencyPolicy::default(), ResidencyPolicy::Lru);
        assert_eq!(ResidencyPolicy::Lru.label(), "lru");
        assert_eq!(ResidencyPolicy::CostAware.label(), "cost-aware");
    }

    #[test]
    #[should_panic(expected = "sram budget must be positive")]
    fn zero_budget_is_rejected() {
        ResidencyConfig::with_budget(0).validate();
    }

    #[test]
    #[should_panic(expected = "duplicate tenant quota")]
    fn duplicate_tenant_quotas_are_rejected() {
        ResidencyConfig::default().quota("a", 10).quota("a", 20).validate();
    }

    #[test]
    fn unlimited_config_prewarms_replica_zero_with_everything() {
        let m = manager(&ResidencyConfig::default(), 2, &[(100, 0), (200, 0)], &["t"]);
        let r0 = m.replica_residency(0);
        assert_eq!((r0.resident_models, r0.resident_bytes), (2, 300));
        let r1 = m.replica_residency(1);
        assert_eq!((r1.resident_models, r1.resident_bytes), (0, 0));
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_model() {
        // Budget 200 holds two of three 100-byte models; after touching 0
        // then 1, admitting 2 must evict 0 (the stalest).
        let cfg = ResidencyConfig::with_budget(200);
        let mut m = manager(&cfg, 1, &[(100, 0), (100, 0), (100, 0)], &["t"]);
        assert_eq!(m.touch(0, 0), Charge::default(), "prewarmed hit");
        assert_eq!(m.touch(0, 1), Charge::default(), "prewarmed hit");
        let c2 = m.touch(0, 2);
        assert!(c2.weight_ns > 0, "first-ever load is charged");
        assert_eq!(c2.paged_bytes, 0, "first-ever load is IPU-Link, not paging");
        assert_eq!(m.touch(0, 1), Charge::default(), "model 1 survived the eviction");
        let c0 = m.touch(0, 0);
        assert_eq!(c0.paged_bytes, 100, "model 0 was evicted and pages back in");
        assert_eq!(m.replica_residency(0).evictions, 2);
    }

    #[test]
    fn cost_aware_evicts_the_cheapest_reload_first() {
        // A 300-byte "dense" model and a 100-byte "butterfly" model fill a
        // 400-byte budget; admitting another 100-byte model must evict the
        // cheap one even though the dense model is staler.
        let cfg = ResidencyConfig {
            policy: ResidencyPolicy::CostAware,
            ..ResidencyConfig::with_budget(400)
        };
        let mut m = manager(&cfg, 1, &[(300, 0), (100, 0), (100, 0)], &["t"]);
        assert_eq!(m.touch(0, 1), Charge::default(), "touch the cheap model most recently");
        let c2 = m.touch(0, 2);
        assert!(c2.weight_ns > 0);
        assert_eq!(m.touch(0, 0), Charge::default(), "the expensive dense model stayed pinned");
        assert!(m.touch(0, 1).paged_bytes > 0, "the cheap model was the victim");
    }

    #[test]
    fn tenant_quotas_evict_within_the_tenant_not_across() {
        // Tenant "a" is capped at 100 resident bytes; admitting its second
        // model evicts its first, never tenant "b"'s model.
        let cfg = ResidencyConfig::default().quota("a", 100);
        let mut m = manager(&cfg, 1, &[(100, 0), (100, 0), (100, 1)], &["a", "b"]);
        // Prewarm admitted m0 (quota full) and m2; m1 did not fit.
        assert_eq!(m.replica_residency(0).resident_models, 2);
        let c1 = m.touch(0, 1);
        assert!(c1.weight_ns > 0, "m1 was never loaded before");
        assert_eq!(m.touch(0, 2), Charge::default(), "tenant b's model was untouchable");
        assert!(m.touch(0, 0).paged_bytes > 0, "tenant a evicted its own model");
        assert_eq!(m.replica_residency(0).evictions, 2);
    }

    #[test]
    fn oversized_models_stream_through_on_every_touch() {
        let cfg = ResidencyConfig::with_budget(500);
        let mut m = manager(&cfg, 1, &[(1_000, 0)], &["t"]);
        let first = m.touch(0, 0);
        assert!(first.weight_ns > 0);
        assert_eq!(first.paged_bytes, 0, "the first-ever load is still the IPU-Link path");
        for _ in 0..3 {
            let again = m.touch(0, 0);
            assert_eq!(again.paged_bytes, 1_000, "never resident: pays the page-in every time");
        }
        let r = m.replica_residency(0);
        assert_eq!((r.resident_models, r.resident_bytes), (0, 0));
        assert_eq!(r.evictions, 0, "nothing resident, nothing to evict");
        assert_eq!(r.misses, 4);
    }

    #[test]
    fn paging_is_slower_than_the_ipu_link_for_the_same_bytes() {
        // The whole point of the SRAM cache: a streaming page-in (20 GB/s)
        // costs more simulated time than the IPU-Link warm-up (320 GB/s).
        let cfg = ResidencyConfig::with_budget(600);
        let mut m = manager(&cfg, 1, &[(600, 0), (600, 0)], &["t"]);
        let cold = m.touch(0, 1);
        let paged = m.touch(0, 0);
        assert!(paged.paged_bytes > 0);
        assert!(
            paged.weight_ns > cold.weight_ns,
            "page-in {} ns must exceed link load {} ns",
            paged.weight_ns,
            cold.weight_ns
        );
    }

    #[test]
    fn wipe_clears_residency_but_keeps_history() {
        let cfg = ResidencyConfig::with_budget(200);
        let mut m = manager(&cfg, 1, &[(100, 0), (100, 0)], &["t"]);
        m.touch(0, 0);
        m.touch(0, 1);
        let before = m.replica_residency(0);
        assert_eq!(before.resident_models, 2);
        m.wipe(0);
        let after = m.replica_residency(0);
        assert_eq!((after.resident_models, after.resident_bytes), (0, 0));
        assert_eq!(after.hits, before.hits, "history survives the crash");
        // The replacement chip re-pays the IPU-Link warm-up, not a page-in.
        let reload = m.touch(0, 0);
        assert!(reload.weight_ns > 0);
        assert_eq!(reload.paged_bytes, 0, "post-crash reload is a cold load again");
    }
}
