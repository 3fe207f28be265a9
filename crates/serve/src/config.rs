//! Server configuration.

use crate::fault::FaultPlan;
use crate::replica::Routing;
use crate::residency::ResidencyConfig;
use std::time::Duration;

/// Tunables of the content-addressed response cache and in-flight dedup
/// (see [`crate::cache`]).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch. Off: every request goes through the batcher, exactly
    /// the pre-cache behaviour.
    pub enabled: bool,
    /// Total memoized entries across all cache shards. `0` keeps in-flight
    /// dedup (concurrent identical requests still coalesce onto one
    /// forward) but memoizes nothing.
    pub capacity: usize,
    /// Lock-striped shards of the cache; each shard has one mutex guarding
    /// its LRU slice and its in-flight table.
    pub shards: usize,
    /// Entries older than this are treated as misses and evicted lazily on
    /// lookup. `None` keeps entries until LRU eviction.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { enabled: true, capacity: 4096, shards: 8, ttl: None }
    }
}

impl CacheConfig {
    /// The off switch: every request computes, nothing coalesces.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }

    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        assert!(self.shards > 0, "cache shards must be positive");
        if let Some(ttl) = self.ttl {
            assert!(ttl > Duration::ZERO, "cache ttl must be positive when set");
        }
    }
}

/// A per-tenant token-bucket rate limit of the ingress front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, requests per second. `0.0` means the
    /// bucket never refills: exactly `burst` requests are ever admitted
    /// (useful for deterministic tests).
    pub rate_per_s: f64,
    /// Bucket depth: how many requests may arrive back-to-back before the
    /// tenant is throttled. Must be at least 1.
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `rate_per_s` sustained with a burst of `burst`.
    pub fn per_second(rate_per_s: f64, burst: f64) -> Self {
        Self { rate_per_s, burst }
    }
}

/// Per-tenant QoS of the ingress front door: weighted-fair scheduling
/// across the interactive/batch deadline classes plus token-bucket rate
/// limits (see `crate::ingress::qos`).
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Deficit-round-robin quantum of the interactive class: how many
    /// interactive requests dispatch per scheduling round when both classes
    /// are backlogged. With `batch_weight` this sets the service ratio
    /// (default 8:1 interactive:batch).
    pub interactive_weight: u32,
    /// Deficit-round-robin quantum of the batch class.
    pub batch_weight: u32,
    /// Capacity of each class queue; a full queue throttles (the request is
    /// answered [`crate::ServedFrom::Throttled`], never silently dropped).
    pub class_queue_capacity: usize,
    /// Token-bucket limit applied to tenants without an explicit entry in
    /// `tenant_rates`. `None` leaves them unlimited.
    pub default_rate: Option<RateLimit>,
    /// Per-tenant token-bucket overrides, `(tenant, limit)` pairs.
    pub tenant_rates: Vec<(String, RateLimit)>,
    /// Deadline attached to interactive frames that carry none of their
    /// own. `None` never expires.
    pub interactive_deadline: Option<Duration>,
    /// Deadline attached to batch frames that carry none of their own.
    pub batch_deadline: Option<Duration>,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            interactive_weight: 8,
            batch_weight: 1,
            class_queue_capacity: 4096,
            default_rate: None,
            tenant_rates: Vec::new(),
            interactive_deadline: None,
            batch_deadline: None,
        }
    }
}

impl QosConfig {
    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        assert!(self.interactive_weight > 0, "interactive_weight must be positive");
        assert!(self.batch_weight > 0, "batch_weight must be positive");
        assert!(self.class_queue_capacity > 0, "class_queue_capacity must be positive");
        let check = |limit: &RateLimit| {
            assert!(
                limit.rate_per_s.is_finite() && limit.rate_per_s >= 0.0,
                "rate_per_s must be finite and non-negative"
            );
            assert!(limit.burst.is_finite() && limit.burst >= 1.0, "burst must be at least 1");
        };
        if let Some(limit) = &self.default_rate {
            check(limit);
        }
        for (_, limit) in &self.tenant_rates {
            check(limit);
        }
    }
}

/// Tunables of the framed-ingress front door (`crate::ingress`). Disabled
/// by default: the in-process `submit` path is then the only entrance and
/// the runtime is bit-identical to the pre-ingress server.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Master switch. The server never starts ingress threads itself —
    /// `IngressServer::start` does, and asserts this flag so a disabled
    /// config cannot be attached by accident.
    pub enabled: bool,
    /// Largest accepted frame body, bytes; a frame declaring more is
    /// rejected as oversized before any buffering beyond the header.
    pub max_frame_bytes: usize,
    /// Read granularity of byte-stream transports (TCP): each read pulls up
    /// to this many bytes into one shared segment that decoded payloads
    /// reference zero-copy.
    pub read_chunk_bytes: usize,
    /// Per-tenant rate limits and class scheduling weights.
    pub qos: QosConfig,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            max_frame_bytes: 1 << 20,
            read_chunk_bytes: 64 << 10,
            qos: QosConfig::default(),
        }
    }
}

impl IngressConfig {
    /// The default configuration with the master switch on.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        // The fixed frame prelude plus the request body's fixed fields must
        // fit, or no frame can ever decode.
        assert!(self.max_frame_bytes >= 64, "max_frame_bytes must be at least 64");
        assert!(self.read_chunk_bytes > 0, "read_chunk_bytes must be positive");
        self.qos.validate();
    }
}

/// Tunables of the elastic autoscaler (`crate::autoscale`). Disabled by
/// default: the pod is then built with every replica enrolled and the
/// runtime is bit-identical to the fixed-pod server.
///
/// When enabled, the pod is built with `max_replicas` devices of which
/// `ServeConfig::replicas` are initially enrolled; the controller thread
/// samples windowed deltas of the metrics snapshot every `interval` and
/// grows the pod (enrolling a standby, cold unless pre-warmed) when replica
/// queues back up or deadline misses spike, or drains it (gracefully, with
/// stranded batches refunded and re-routed) when occupancy falls.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Master switch. Off: no controller thread, no standbys — the
    /// fixed-pod runtime bit-exactly.
    pub enabled: bool,
    /// Largest pod size the controller may grow to; the pod is built with
    /// this many devices (standbys beyond the initial enrollment are idle
    /// until grown). Must be at least `ServeConfig::replicas`.
    pub max_replicas: usize,
    /// Smallest enrolled set the controller may drain to (at least 1).
    pub min_replicas: usize,
    /// Standby replicas whose weight loads are pre-paid at startup (the
    /// warm pool): growth into a warm standby has zero cold-load cost.
    /// Clamped to the available standbys.
    pub warm_pool: usize,
    /// Controller sampling period (wall clock).
    pub interval: Duration,
    /// Scale up when mean routed-but-unsettled batches per enrolled
    /// replica exceeds this over the last window.
    pub scale_up_queue_depth: f64,
    /// Scale up when the windowed deadline-miss rate (misses over
    /// completions) exceeds this.
    pub scale_up_miss_rate: f64,
    /// Scale down when mean queue depth per enrolled replica stays below
    /// this over the last window (and the miss rate is clean).
    pub scale_down_queue_depth: f64,
    /// Windows the controller holds its fire after any scale action —
    /// hysteresis against flapping on a noisy signal.
    pub cooldown_windows: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            max_replicas: 1,
            min_replicas: 1,
            warm_pool: 0,
            interval: Duration::from_millis(2),
            scale_up_queue_depth: 2.0,
            scale_up_miss_rate: 0.01,
            scale_down_queue_depth: 0.25,
            cooldown_windows: 3,
        }
    }
}

impl AutoscaleConfig {
    /// An enabled autoscaler bounded to `min..=max` enrolled replicas, with
    /// the default thresholds.
    pub fn bounded(min: usize, max: usize) -> Self {
        Self { enabled: true, min_replicas: min, max_replicas: max, ..Self::default() }
    }

    /// Panics unless the configuration is usable. `initial` is
    /// [`ServeConfig::replicas`], the initially enrolled count.
    pub fn validate(&self, initial: usize) {
        if !self.enabled {
            return;
        }
        assert!(self.min_replicas >= 1, "min_replicas must be at least 1");
        assert!(
            self.min_replicas <= self.max_replicas,
            "min_replicas must not exceed max_replicas"
        );
        assert!(
            (self.min_replicas..=self.max_replicas).contains(&initial),
            "initial replicas must lie in min_replicas..=max_replicas"
        );
        assert!(self.interval > Duration::ZERO, "autoscale interval must be positive");
        let finite_nonneg = |v: f64, name: &str| {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and non-negative");
        };
        finite_nonneg(self.scale_up_queue_depth, "scale_up_queue_depth");
        finite_nonneg(self.scale_up_miss_rate, "scale_up_miss_rate");
        finite_nonneg(self.scale_down_queue_depth, "scale_down_queue_depth");
        assert!(
            self.scale_down_queue_depth < self.scale_up_queue_depth,
            "scale_down_queue_depth must sit below scale_up_queue_depth (hysteresis band)"
        );
    }
}

/// Tunables of a [`crate::Server`].
///
/// The defaults serve the paper's SHL benchmark shape (1024-dimensional
/// inputs, 10 classes) with moderate batching; benches sweep `max_batch`
/// and `max_wait` to show the batching win.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Input dimensionality every registered model accepts.
    pub dim: usize,
    /// Output classes of every registered model.
    pub classes: usize,
    /// RNG seed for model initialisation (same seed => same weights).
    pub seed: u64,
    /// Largest micro-batch the batcher will form. `1` disables coalescing
    /// (every request is its own batch) — the baseline the bench compares
    /// against.
    pub max_batch: usize,
    /// How long the batcher holds an under-full batch open waiting for more
    /// requests before dispatching it anyway.
    pub max_wait: Duration,
    /// Admission-queue capacity per model; a full queue sheds load with
    /// [`crate::SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads executing batches (shared across all models).
    pub workers: usize,
    /// Whether the GPU time attribution uses the TF32 tensor-core path.
    pub tensor_cores: bool,
    /// Response cache + in-flight dedup configuration.
    pub cache: CacheConfig,
    /// Simulated pod size: device replicas batches are routed across, each
    /// with its own occupancy clock and weight residency. `1` reproduces
    /// the pre-pod single-GC200 serving path exactly.
    pub replicas: usize,
    /// Batch-routing policy over the replica occupancy clocks (see
    /// [`crate::replica`]).
    pub routing: Routing,
    /// Bound on batches routed to one replica but not yet retired; when
    /// every replica is at the bound the router blocks, which backs up the
    /// admission queues and sheds load.
    pub replica_queue: usize,
    /// Default per-request deadline, measured from submission: a request
    /// whose batch has not been dispatched by then is answered
    /// [`crate::ServedFrom::DeadlineExceeded`] instead of computed. `None`
    /// never expires. Overridable per submit via
    /// [`crate::Server::submit_with_deadline`].
    pub default_deadline: Option<Duration>,
    /// Deterministic schedule of simulated replica faults replayed against
    /// the pod's simulated clock. [`FaultPlan::none`] (the default)
    /// reproduces the fault-free runtime bit-exactly.
    pub fault_plan: FaultPlan,
    /// Per-replica SRAM budget, eviction policy and tenant quotas for model
    /// weights (see [`crate::residency`]). The default (no budget) keeps
    /// every registered model resident forever — the pre-residency runtime
    /// bit-exactly.
    pub residency: ResidencyConfig,
    /// Framed-ingress front door: wire codec limits and per-tenant QoS.
    /// Disabled by default — the pre-ingress runtime bit-exactly; attach
    /// one with `IngressServer::start`.
    pub ingress: IngressConfig,
    /// Elastic autoscaler: warm-pool standbys and the control loop that
    /// grows/drains the enrolled replica set at runtime. Disabled by
    /// default — the fixed-pod runtime bit-exactly.
    pub autoscale: AutoscaleConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            dim: 1024,
            classes: 10,
            seed: 0xB1F7,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
            workers: std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(2),
            tensor_cores: false,
            cache: CacheConfig::default(),
            replicas: 1,
            routing: Routing::default(),
            replica_queue: 256,
            default_deadline: None,
            fault_plan: FaultPlan::none(),
            residency: ResidencyConfig::default(),
            ingress: IngressConfig::default(),
            autoscale: AutoscaleConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.classes > 0, "classes must be positive");
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.workers > 0, "workers must be positive");
        assert!(self.replicas > 0, "replicas must be positive");
        assert!(self.replica_queue > 0, "replica_queue must be positive");
        self.cache.validate();
        self.fault_plan.validate();
        self.residency.validate();
        self.ingress.validate();
        self.autoscale.validate(self.replicas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        ServeConfig { max_batch: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "cache shards")]
    fn zero_cache_shards_rejected() {
        let cache = CacheConfig { shards: 0, ..Default::default() };
        ServeConfig { cache, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn zero_replicas_rejected() {
        ServeConfig { replicas: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "replica_queue")]
    fn zero_replica_queue_rejected() {
        ServeConfig { replica_queue: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "sram budget")]
    fn zero_residency_budget_rejected() {
        let residency = ResidencyConfig::with_budget(0);
        ServeConfig { residency, ..Default::default() }.validate();
    }

    #[test]
    fn residency_budget_and_quotas_are_valid() {
        let residency = ResidencyConfig::with_budget(1 << 20).quota("a", 1 << 18);
        assert!(ServeConfig::default().residency.sram_budget_bytes.is_none());
        ServeConfig { residency, ..Default::default() }.validate();
    }

    #[test]
    fn pod_defaults_are_single_replica_p2c() {
        let c = ServeConfig::default();
        assert_eq!(c.replicas, 1);
        assert_eq!(c.routing, Routing::PowerOfTwoChoices);
        ServeConfig { replicas: 8, routing: Routing::JoinShortestQueue, ..c }.validate();
    }

    #[test]
    fn default_has_no_faults_and_no_deadline() {
        let c = ServeConfig::default();
        assert!(c.fault_plan.is_empty());
        assert!(c.default_deadline.is_none());
        ServeConfig {
            fault_plan: FaultPlan::seeded(1, 4, 10_000.0, 3),
            default_deadline: Some(Duration::from_millis(5)),
            replicas: 4,
            ..c
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "slow factor")]
    fn invalid_fault_plan_rejected() {
        ServeConfig { fault_plan: FaultPlan::none().slow_from(1.0, 0, -1.0), ..Default::default() }
            .validate();
    }

    #[test]
    fn ingress_defaults_to_disabled_and_validates() {
        let c = ServeConfig::default();
        assert!(!c.ingress.enabled, "framed ingress must be opt-in");
        c.validate();
        let qos = QosConfig {
            default_rate: Some(RateLimit::per_second(100.0, 16.0)),
            tenant_rates: vec![("batchco".to_string(), RateLimit::per_second(10.0, 4.0))],
            ..QosConfig::default()
        };
        let ingress = IngressConfig { qos, ..IngressConfig::enabled() };
        assert!(ingress.enabled);
        ServeConfig { ingress, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "interactive_weight")]
    fn zero_interactive_weight_rejected() {
        let qos = QosConfig { interactive_weight: 0, ..QosConfig::default() };
        ServeConfig {
            ingress: IngressConfig { qos, ..IngressConfig::default() },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "burst")]
    fn sub_one_burst_rejected() {
        let qos = QosConfig {
            default_rate: Some(RateLimit::per_second(1.0, 0.5)),
            ..QosConfig::default()
        };
        ServeConfig {
            ingress: IngressConfig { qos, ..IngressConfig::default() },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn disabled_cache_is_valid() {
        let cache = CacheConfig::disabled();
        assert!(!cache.enabled);
        ServeConfig { cache, ..Default::default() }.validate();
    }

    #[test]
    fn autoscale_defaults_to_disabled_and_validates() {
        let c = ServeConfig::default();
        assert!(!c.autoscale.enabled, "autoscaling must be opt-in");
        c.validate();
        let autoscale = AutoscaleConfig { warm_pool: 2, ..AutoscaleConfig::bounded(1, 4) };
        assert!(autoscale.enabled);
        ServeConfig { autoscale, replicas: 2, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "min_replicas..=max_replicas")]
    fn initial_replicas_outside_autoscale_bounds_rejected() {
        let autoscale = AutoscaleConfig::bounded(2, 4);
        ServeConfig { autoscale, replicas: 1, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn overlapping_autoscale_thresholds_rejected() {
        let autoscale = AutoscaleConfig {
            scale_down_queue_depth: 5.0,
            scale_up_queue_depth: 2.0,
            ..AutoscaleConfig::bounded(1, 4)
        };
        ServeConfig { autoscale, ..Default::default() }.validate();
    }

    #[test]
    fn disabled_autoscale_skips_bound_checks() {
        // A disabled block is inert whatever its bounds — exactly like the
        // ingress master switch.
        let autoscale = AutoscaleConfig { max_replicas: 0, ..AutoscaleConfig::default() };
        ServeConfig { autoscale, ..Default::default() }.validate();
    }
}
