//! # bfly-serve — dynamic-batching inference serving for compressed SHL models
//!
//! The paper compresses the SHL benchmark's hidden layer with butterfly
//! factorizations to fit IPU SRAM; this crate answers the operational
//! question that follows: *what does serving such a model look like?* It is
//! a thread-based serving runtime (no async runtime) that:
//!
//! - registers forward-only models in an N-way *sharded* registry
//!   ([`ModelRegistry`]): each [`ModelSource`] is either a compression
//!   method built on `bfly_core::build_shl_inference` (so no gradient or
//!   momentum memory is ever allocated) or a [`PrebuiltModel`] carrying its
//!   own trained weights; model names hash to shards, and each shard owns
//!   the admission lanes of its models so submit-side lock traffic spreads;
//! - answers repeated inputs from a content-addressed response cache and
//!   coalesces concurrent identical requests onto one in-flight forward
//!   ([`CacheConfig`], [`crate::cache`]) — a frozen model is a pure
//!   function of its input bits, so cache hits are byte-identical to
//!   computed responses and report an honest 0 device-µs ([`ServedFrom`]);
//! - admits cache misses through a bounded queue with immediate load
//!   shedding ([`SubmitError::Overloaded`]) when the queue is full;
//! - coalesces single-sample requests into micro-batches (up to
//!   `max_batch`, held at most `max_wait`) — the dynamic-batching win the
//!   `serve_throughput` bench quantifies;
//! - routes each micro-batch across a simulated multi-IPU pod
//!   ([`crate::replica`]): `replicas` simulated devices with per-replica
//!   occupancy clocks, bounded replica queues, and a [`Routing`] policy
//!   (round-robin, power-of-two-choices or join-shortest-queue);
//! - manages weight residency as a cache over streaming memory
//!   ([`crate::residency`]): per-replica SRAM budgets, IPU-Link cold loads
//!   vs. streaming page-ins, pluggable eviction (LRU / cost-aware), and
//!   per-tenant resident-byte quotas ([`ResidencyConfig`]) — butterfly
//!   models' O(n log n) footprints let several tenants stay resident where
//!   one dense baseline would monopolise the budget;
//! - executes batches on a worker pool running the repository's real Rust
//!   kernels, and prices each batch's op trace on the IPU and GPU
//!   simulators so every response carries predicted device time next to
//!   measured wall time ([`Timing`]), attributed to the replica that
//!   served it;
//! - tracks latency percentiles, throughput, shed rate, queue depth and
//!   batch-size distribution, exportable as JSON ([`ServeSnapshot`]);
//! - survives injected replica faults ([`FaultPlan`], [`crate::fault`]):
//!   deterministic crash/recover/slow-down schedules replayed against the
//!   pod's simulated clock, health-aware routing, crash-stranded batches
//!   refunded and retried on a survivor, per-request deadlines answered
//!   [`ServedFrom::DeadlineExceeded`], and a fast-failing
//!   [`SubmitError::PodDown`] once no replica can ever return;
//! - scales the pod elastically ([`AutoscaleConfig`], [`crate::autoscale`]):
//!   a controller thread watches windowed metric deltas
//!   ([`ServeSnapshot::delta_since`]) and grows standbys into the routable
//!   set (cold, unless the warm pool pre-paid their weight load — the
//!   grown replica's `weight_load_us` is the pod's time-to-healthy) or
//!   gracefully drains them back out, with trace-driven traffic generators
//!   in `bfly-data` to exercise flash crowds and diurnal load;
//! - shuts down gracefully: every admitted request is answered before
//!   [`Server::shutdown`] returns.
//!
//! There is one way to build a server — [`Server::start`] over a config and
//! a list of models — and one load driver, [`LoadPlan::run`], covering
//! Poisson, replayed-trace and closed-loop arrivals ([`Arrivals`]).
//!
//! ```no_run
//! use bfly_core::Method;
//! use bfly_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default(), &[Method::Butterfly]).unwrap();
//! let handle = server.submit("butterfly", 0, 0, vec![0.0; 1024]).unwrap();
//! let response = handle.wait().unwrap();
//! println!("scores: {:?}, batch {}", response.output, response.timing.batch_size);
//! let final_metrics = server.shutdown();
//! println!("{}", final_metrics.to_json());
//! ```

pub mod autoscale;
pub mod cache;
pub mod config;
pub mod fault;
pub mod ingress;
pub mod loadgen;
pub mod metrics;
pub mod payload;
pub mod registry;
pub mod replica;
pub mod request;
pub mod residency;
pub mod server;

pub use autoscale::{AutoscaleEvent, AutoscaleReport, ScaleDecision, ScalePolicy, ScaleSignals};
pub use cache::{hash_bytes, input_key, payload_key};
pub use config::{AutoscaleConfig, CacheConfig, IngressConfig, QosConfig, RateLimit, ServeConfig};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use loadgen::{input_pool, Arrivals, LoadPlan, LoadReport, ZipfSampler};
pub use metrics::{
    CacheStats, Histogram, IngressMetrics, IngressStats, MethodDeviceStats, ModelDelta,
    ModelMetrics, ModelStats, RegistryShardStats, ReplicaDelta, ReplicaStats, ResidencySummary,
    ServeSnapshot, SnapshotDelta, TenantIngressStats,
};
pub use payload::Payload;
pub use registry::{
    DeviceEstimate, ModelEntry, ModelLocation, ModelRegistry, ModelSource, ModelSpec,
    PrebuiltModel, RegistryError, DEFAULT_REGISTRY_SHARDS,
};
pub use replica::Routing;
pub use request::{InferResponse, ResponseHandle, ServedFrom, SubmitError, Timing};
pub use residency::{ResidencyConfig, ResidencyPolicy, TenantQuota};
pub use server::Server;
