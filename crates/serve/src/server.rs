//! The serving runtime: bounded admission behind a content-addressed
//! response cache, per-model micro-batchers over a sharded registry, a
//! shared worker pool, and graceful drain on shutdown.
//!
//! Thread topology (all `std::thread`, no async runtime):
//!
//! ```text
//!            cache hit ──────────────────────────────► reply (0 device-µs)
//! submit() ──┤ coalesce ──► parked on in-flight entry ─► woken by leader
//!            └─miss──► [admission queue, model i] ──► batcher i ──┐
//!                        (queues live in per-shard lanes)         ├─► route to pod replica ─► [batch queue] ─► worker pool
//!                                  ...                  ──────────┘    (occupancy clocks,        (N threads, shared;
//!                                                                       weight residency)         retire replica clock)
//! ```
//!
//! The submit path resolves the model through the N-way sharded registry
//! (O(1) name lookup, per-shard admission-lane lock), then runs the cache's
//! lookup → coalesce → admit critical section: repeated inputs return the
//! memoized response without touching the batcher, concurrent identical
//! requests coalesce onto one pending forward, and only genuine misses
//! enter the admission queue. Each batcher owns one model's admission queue
//! and coalesces requests into micro-batches of up to `max_batch`. Sealing
//! is work-conserving: once the admission queue is empty, an under-full
//! batch seals at once if a worker would take it now; while every worker is
//! busy it keeps gathering, for at most `max_wait`. Workers execute whole
//! batches lock-free — the frozen models are shared immutably through
//! `Arc`, each worker owns a private scratch arena — then publish the
//! result to the cache, wake the key's coalesced waiters, and fan responses
//! out through each request's private reply channel. Cache hits and
//! coalesced followers report 0 device-µs (the one forward's device time is
//! attributed to the computing request alone), so summing device time over
//! responses remains honest.
//!
//! Fault tolerance rides the same topology: the batcher checks per-request
//! deadlines when it seals a batch (expired requests are answered
//! [`ServedFrom::DeadlineExceeded`], never computed), routing only ever
//! considers healthy replicas, and a batch stranded by a crash — discovered
//! by the worker when it settles — is refunded from the dead clock and
//! re-routed to a survivor. When no replica is healthy a batch's requests
//! are answered [`ServedFrom::PodDown`]; once the pod can never recover,
//! `submit` itself fails fast with [`SubmitError::PodDown`]. Every response
//! still flows through the worker in batch order, so per-client FIFO holds
//! through crashes, deadlines, and retries alike.

use crate::autoscale::{AutoscaleEvent, AutoscaleReport, ScaleDecision, ScalePolicy, ScaleSignals};
use crate::cache::{payload_key, AdmitOutcome, ResponseCache, Waiter};
use crate::config::ServeConfig;
use crate::metrics::{
    CacheStats, IngressMetrics, IngressStats, ModelMetrics, RegistryShardStats, ResidencySummary,
    ServeSnapshot,
};
use crate::payload::Payload;
use crate::registry::{DeviceEstimate, ModelRegistry, ModelSource, RegistryError};
use crate::replica::{Pod, RouteDecision, Settle};
use crate::request::{
    InferRequest, InferResponse, ResponseHandle, ServedFrom, SubmitError, Timing,
};
use crate::residency::ModelProfile;
use bfly_gpu::GpuDevice;
use bfly_ipu::{IpuDevice, PodSpec};
use bfly_tensor::{Matrix, Scratch};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One coalesced unit of work travelling batcher -> worker. Requests stay
/// in arrival order whatever their fate — computed, expired, or failed —
/// and the worker answers them in that order, which is what keeps
/// per-client FIFO intact across deadlines and faults (the batcher itself
/// never replies: it runs ahead of the workers, so a batcher-side reply
/// could overtake an earlier batch still in the worker queue).
struct Batch {
    model: usize,
    requests: Vec<InferRequest>,
    /// `expired[i]` — `requests[i]` passed its deadline at batch formation;
    /// it is answered `DeadlineExceeded` and excluded from the forward.
    expired: Vec<bool>,
    /// What the batcher decided for the live (non-expired) requests.
    dispatch: Dispatch,
}

/// Routing outcome for a batch's live requests.
enum Dispatch {
    /// Routed to a pod replica with the simulated cost reserved on its
    /// occupancy clock.
    Routed {
        decision: RouteDecision,
        /// Per-batch IPU/GPU pricing, resolved at routing time from the memo.
        estimate: DeviceEstimate,
    },
    /// Every request in the batch expired; nothing was priced or routed.
    AllExpired,
    /// No replica was healthy at routing time: live requests are answered
    /// `PodDown` and cache leaders release their waiters with the same.
    PodDown,
}

/// Admission lane of one registry shard: the submit senders of the shard's
/// models, in within-shard order. `None` once shutdown begins; dropping the
/// senders disconnects the admission queues, which is what lets the
/// batchers drain and exit.
struct ShardLane {
    submit: RwLock<Option<Vec<Sender<InferRequest>>>>,
}

/// Shared state of the autoscale controller thread: a shutdown latch the
/// server flips at drain time (so the controller exits promptly instead of
/// sleeping out its interval) and the action log the report reads.
struct AutoscaleState {
    /// `(flag, condvar)`: `stop_and_join` sets the flag and notifies.
    shutdown: Mutex<bool>,
    wake: Condvar,
    events: Mutex<Vec<AutoscaleEvent>>,
    samples: AtomicU64,
}

struct Inner {
    config: ServeConfig,
    registry: ModelRegistry,
    metrics: Vec<Arc<ModelMetrics>>,
    lanes: Vec<ShardLane>,
    /// `None` when the cache is disabled: every request goes to the batcher.
    cache: Option<ResponseCache>,
    /// The simulated multi-IPU pod: replica occupancy clocks, weight
    /// residency, and the routing policy.
    pod: Pod,
    /// Counters of the framed-ingress front door, registered by
    /// [`crate::ingress::IngressServer::start`]; `None` until (unless) an
    /// ingress is attached, in which case the snapshot reports ingress as
    /// disabled.
    ingress: RwLock<Option<Arc<IngressMetrics>>>,
    /// Present iff `config.autoscale.enabled`: the controller thread's
    /// shutdown latch and action log.
    autoscale: Option<AutoscaleState>,
    completion_counter: AtomicU64,
    /// Workers executing a batch right now. The batchers read it to seal an
    /// under-full batch at once when a worker would take it. Counting busy
    /// rather than idle workers makes a worker thread that has not started
    /// yet count as free. It publishes no other data (batches travel
    /// through the batch channel), so `Relaxed` suffices: a stale read only
    /// seals one batch a little early, or waits as a busy pool would.
    busy_workers: AtomicUsize,
    ipu: IpuDevice,
    gpu: GpuDevice,
    started: Instant,
}

/// A running inference server.
///
/// `submit` is callable from any number of threads through a shared
/// reference. Dropping the server performs a full graceful shutdown (prefer
/// [`Server::shutdown`] to also get the final metrics snapshot).
pub struct Server {
    inner: Arc<Inner>,
    batchers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    autoscaler: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the sharded registry from `config` and starts batcher and
    /// worker threads, routing batches across the configured pod with
    /// `config.routing`.
    ///
    /// `models` lists what to serve, in registration order: a [`Method`]
    /// (borrowed, as in `&[Method::Butterfly]`) registers one model named
    /// after its label under the `"default"` tenant, a [`ModelSpec`] gives a multi-tenant fleet its
    /// explicit names and owners (residency quotas group resident bytes by
    /// tenant — see [`crate::ResidencyConfig`]), and a [`PrebuiltModel`]
    /// serves an externally trained (e.g. compressed) stack with its exact
    /// weights over the same pod, residency and routing machinery.
    ///
    /// [`Method`]: bfly_core::Method
    /// [`ModelSpec`]: crate::ModelSpec
    /// [`PrebuiltModel`]: crate::PrebuiltModel
    pub fn start(
        config: ServeConfig,
        models: impl IntoIterator<Item = impl Into<ModelSource>>,
    ) -> Result<Self, RegistryError> {
        config.validate();
        let registry = ModelRegistry::build(config.dim, config.classes, config.seed, models)?;
        let metrics: Vec<Arc<ModelMetrics>> =
            registry.entries().iter().map(|_| Arc::new(ModelMetrics::default())).collect();

        // Per-shard admission lanes; batcher receivers keep their global
        // (registration-order) model index.
        let mut lanes = Vec::with_capacity(registry.shard_count());
        let mut batcher_rxs: Vec<(usize, Receiver<InferRequest>)> =
            Vec::with_capacity(registry.len());
        for shard in 0..registry.shard_count() {
            let mut senders = Vec::with_capacity(registry.shard_members(shard).len());
            for &index in registry.shard_members(shard) {
                let (tx, rx) = channel::bounded::<InferRequest>(config.queue_capacity);
                senders.push(tx);
                batcher_rxs.push((index, rx));
            }
            lanes.push(ShardLane { submit: RwLock::new(Some(senders)) });
        }
        // Shallow batch queue: keeps workers fed while exerting backpressure
        // on batchers (a blocked batcher fills its admission queue, which is
        // what triggers shedding).
        let (batch_tx, batch_rx) = channel::bounded::<Batch>(2 * config.workers);

        let cache = config.cache.enabled.then(|| ResponseCache::new(&config.cache));
        // Intern tenant names to dense ids and size every model's weight
        // footprint for the residency manager (butterfly models are
        // O(n log n) bytes, dense baselines ~n²·4 — the asymmetry the
        // multi-tenant bench measures).
        let mut tenants: Vec<String> = Vec::new();
        let profiles: Vec<ModelProfile> = registry
            .entries()
            .iter()
            .map(|entry| {
                let tenant = match tenants.iter().position(|t| t == entry.tenant()) {
                    Some(id) => id,
                    None => {
                        tenants.push(entry.tenant().to_string());
                        tenants.len() - 1
                    }
                };
                ModelProfile { weight_bytes: entry.weight_bytes(), tenant }
            })
            .collect();
        // With autoscaling enabled the pod is built at its ceiling but only
        // `config.replicas` are enrolled; the rest are standbys the
        // controller (or planned Grow events) can enroll later. Disabled,
        // the pod is exactly the fixed-size one — same size, all enrolled.
        let pod_size =
            if config.autoscale.enabled { config.autoscale.max_replicas } else { config.replicas };
        let pod = Pod::new(
            PodSpec::with_ipus(pod_size),
            config.replicas,
            config.routing,
            config.replica_queue,
            profiles,
            tenants,
            &config.residency,
            &config.fault_plan,
        );
        if config.autoscale.enabled && config.autoscale.warm_pool > 0 {
            pod.prewarm_standby(config.autoscale.warm_pool);
        }
        let autoscale = config.autoscale.enabled.then(|| AutoscaleState {
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
            events: Mutex::new(Vec::new()),
            samples: AtomicU64::new(0),
        });
        let inner = Arc::new(Inner {
            config: config.clone(),
            registry,
            metrics,
            lanes,
            cache,
            pod,
            ingress: RwLock::new(None),
            autoscale,
            completion_counter: AtomicU64::new(0),
            busy_workers: AtomicUsize::new(0),
            ipu: IpuDevice::gc200(),
            gpu: GpuDevice::a30(),
            started: Instant::now(),
        });

        let batchers = batcher_rxs
            .into_iter()
            .map(|(idx, rx)| {
                let inner = Arc::clone(&inner);
                let tx = batch_tx.clone();
                std::thread::Builder::new()
                    .name(format!("serve-batcher-{}", inner.registry.entries()[idx].name()))
                    .spawn(move || batcher_loop(&inner, idx, rx, tx))
                    .expect("spawn batcher")
            })
            .collect();
        drop(batch_tx); // workers exit once every batcher is gone

        let workers = (0..config.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                let rx = batch_rx.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, rx))
                    .expect("spawn worker")
            })
            .collect();
        drop(batch_rx);

        let autoscaler = inner.autoscale.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-autoscaler".to_string())
                .spawn(move || autoscaler_loop(&inner))
                .expect("spawn autoscaler")
        });

        Ok(Self { inner, batchers, workers, autoscaler })
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Names of the registered models, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.inner.registry.entries().iter().map(|e| e.name().to_string()).collect()
    }

    /// Registers the framed-ingress front door's counter block so it shows
    /// up in [`Server::snapshot`]. Called by
    /// [`crate::ingress::IngressServer::start`]; idempotent per ingress.
    pub(crate) fn register_ingress_metrics(&self, metrics: Arc<IngressMetrics>) {
        *self.inner.ingress.write() = Some(metrics);
    }

    /// Submits one inference request under the configured
    /// [`ServeConfig::default_deadline`] (none by default).
    ///
    /// The fast path never touches the batcher: a repeated input returns
    /// the memoized response immediately, and a request identical to one
    /// already in flight coalesces onto it (one forward regardless of
    /// fan-in). Admission control for genuine misses is non-blocking: a
    /// full queue immediately returns [`SubmitError::Overloaded`] rather
    /// than stalling the caller — the load-shedding contract of the
    /// runtime.
    ///
    /// [`ServeConfig::default_deadline`]: crate::ServeConfig::default_deadline
    pub fn submit(
        &self,
        model: &str,
        client: u64,
        seq: u64,
        input: impl Into<Payload>,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_with_deadline(model, client, seq, input, self.inner.config.default_deadline)
    }

    /// [`Server::submit`] with an explicit per-request deadline overriding
    /// the configured default: if the request's batch has not been
    /// dispatched within `deadline` of submission it is answered
    /// [`ServedFrom::DeadlineExceeded`] instead of computed (a coalesced
    /// request rides its leader's deadline — if the leader expires, its
    /// waiters share the answer). `None` never expires, and neither does a
    /// deadline too long to represent as an instant.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        client: u64,
        seq: u64,
        input: impl Into<Payload>,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, SubmitError> {
        let (reply, handle) = ResponseHandle::channel();
        self.submit_to(model, client, seq, input.into(), deadline, reply)?;
        Ok(handle)
    }

    /// The whole submit path against a caller-owned reply channel — what
    /// the framed-ingress demux uses so one connection's responses funnel
    /// into one writer instead of a handle per request. Exactly
    /// [`Server::submit_with_deadline`] otherwise: the payload is shared
    /// (refcount bumps) through cache admission, coalescing and shedding.
    pub(crate) fn submit_to(
        &self,
        model: &str,
        client: u64,
        seq: u64,
        input: Payload,
        deadline: Option<Duration>,
        reply: Sender<InferResponse>,
    ) -> Result<(), SubmitError> {
        let loc = self.inner.registry.locate(model).ok_or(SubmitError::UnknownModel)?;
        let entry = &self.inner.registry.entries()[loc.index];
        let expected = entry.dim();
        if input.len() != expected {
            return Err(SubmitError::WrongInputLen { expected, got: input.len() });
        }
        if self.inner.pod.is_dead() {
            // Every replica is down and no recovery is scheduled: queued
            // batches only drain as PodDown answers, so fail at the door.
            // (A *temporary* outage keeps admitting — traffic must keep
            // flowing for the simulated clock to reach the recovery event.)
            return Err(SubmitError::PodDown);
        }
        let metrics = &self.inner.metrics[loc.index];
        let guard = self.inner.lanes[loc.shard].submit.read();
        let senders = guard.as_ref().ok_or(SubmitError::ShuttingDown)?;
        let sender = &senders[loc.within];
        let submitted = Instant::now();
        // A deadline past every representable instant never expires.
        let deadline = deadline.and_then(|d| submitted.checked_add(d));

        let Some(cache) = &self.inner.cache else {
            // Cache off: the pre-cache admission path, verbatim.
            let request =
                InferRequest { client, seq, input, submitted, deadline, reply, cache_tag: None };
            return match sender.try_send(request) {
                Ok(()) => {
                    metrics.admitted.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                Err(TrySendError::Full(_)) => {
                    metrics.shed.fetch_add(1, Ordering::Relaxed);
                    Err(SubmitError::Overloaded)
                }
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
            };
        };

        let key = payload_key(loc.index, &input);
        let outcome = cache.admit(
            key,
            &input,
            || Waiter { client, seq, submitted, reply: reply.clone() },
            |tag| {
                let request = InferRequest {
                    client,
                    seq,
                    input: input.clone(),
                    submitted,
                    deadline,
                    reply: reply.clone(),
                    cache_tag: Some(tag),
                };
                match sender.try_send(request) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(_)) => Err(SubmitError::Overloaded),
                    Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
                }
            },
        );
        drop(guard);
        match outcome {
            AdmitOutcome::Hit(output) => {
                let timing = Timing {
                    queue_us: 0,
                    service_us: 0,
                    total_us: submitted.elapsed().as_micros() as u64,
                    batch_size: 1,
                    // A hit consumed no device time at all — priced at an
                    // explicit 0 so device-time sums stay honest.
                    ipu_batch_us: Some(0.0),
                    gpu_batch_us: Some(0.0),
                    sim_batch_us: Some(0.0),
                    source: ServedFrom::CacheHit,
                    // A hit never touches the pod at all.
                    replica: None,
                };
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                metrics.record_response(&timing);
                let response = InferResponse {
                    client,
                    seq,
                    output,
                    completed_index: self.inner.completion_counter.fetch_add(1, Ordering::Relaxed),
                    timing,
                };
                let _ = reply.send(response);
                Ok(())
            }
            AdmitOutcome::Coalesced => {
                metrics.cache_coalesced.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            AdmitOutcome::Admitted => {
                metrics.admitted.fetch_add(1, Ordering::Relaxed);
                metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            AdmitOutcome::NotAdmitted(e) => {
                if e == SubmitError::Overloaded {
                    metrics.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// A point-in-time metrics snapshot (exportable as JSON).
    pub fn snapshot(&self) -> ServeSnapshot {
        snapshot_of(&self.inner)
    }

    /// The autoscale controller's action log: every grow/drain it applied,
    /// with the signals that triggered it. Empty (with `enabled: false`)
    /// when autoscaling is off.
    pub fn autoscale_report(&self) -> AutoscaleReport {
        match &self.inner.autoscale {
            Some(state) => AutoscaleReport {
                enabled: true,
                samples: state.samples.load(Ordering::Relaxed),
                events: state.events.lock().clone(),
            },
            None => AutoscaleReport::disabled(),
        }
    }

    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// request through the batchers and workers (waking every coalesced
    /// waiter parked on an in-flight leader), joins all threads, and
    /// returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop_and_join();
        self.snapshot()
    }

    fn stop_and_join(&mut self) {
        // The controller goes first: a scale action firing mid-drain would
        // race the final snapshot for no benefit.
        if let Some(handle) = self.autoscaler.take() {
            if let Some(state) = &self.inner.autoscale {
                *state.shutdown.lock() = true;
                state.wake.notify_all();
            }
            let _ = handle.join();
        }
        for lane in &self.inner.lanes {
            *lane.submit.write() = None;
        }
        for handle in self.batchers.drain(..) {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The snapshot builder, shared by [`Server::snapshot`] and the autoscale
/// controller thread (which holds only the `Inner`).
fn snapshot_of(inner: &Inner) -> ServeSnapshot {
    let elapsed_s = inner.started.elapsed().as_secs_f64();
    let registry = &inner.registry;
    let mut model_depths = vec![0usize; registry.len()];
    let mut shards = Vec::with_capacity(registry.shard_count());
    for shard in 0..registry.shard_count() {
        let guard = inner.lanes[shard].submit.read();
        let mut queue_depth = 0;
        for (within, &index) in registry.shard_members(shard).iter().enumerate() {
            let depth = guard.as_ref().map_or(0, |senders| senders[within].len());
            model_depths[index] = depth;
            queue_depth += depth;
        }
        shards.push(RegistryShardStats {
            shard,
            models: registry.shard_members(shard).len(),
            queue_depth,
        });
    }
    // One lock acquisition yields both accountings of simulated device
    // time — per replica (retirement clocks) and per model (settlement
    // tallies) — so no batch can settle between the two reads and the
    // snapshot's cross-check holds even mid-flight.
    let pod_stats = inner.pod.stats();
    let models: Vec<crate::metrics::ModelStats> = registry
        .entries()
        .iter()
        .zip(&inner.metrics)
        .enumerate()
        .map(|(i, (entry, metrics))| {
            let res = &pod_stats.model_residency[i];
            metrics.snapshot(
                entry.name(),
                entry.tenant(),
                entry.method().label(),
                entry.weight_bytes(),
                elapsed_s,
                model_depths[i],
                entry.memoized_estimates(),
                pod_stats.model_device_ns[i],
                (res.hits, res.misses, res.paged_in_bytes),
            )
        })
        .collect();
    let cache = match &inner.cache {
        Some(cache) => cache.stats(),
        None => CacheStats::disabled(),
    };
    let ingress = match inner.ingress.read().as_ref() {
        Some(metrics) => metrics.stats(),
        None => IngressStats::disabled(),
    };
    let rc = &inner.config.residency;
    let residency = ResidencySummary::from_replicas(
        rc.sram_budget_bytes,
        rc.policy.label(),
        rc.tenant_quotas.iter().map(|q| (q.tenant.clone(), q.resident_bytes)).collect(),
        &pod_stats.replicas,
    );
    let total_device_us = models.iter().map(|m| m.device_us).sum();
    let methods = crate::metrics::MethodDeviceStats::rollup(&models);
    ServeSnapshot {
        elapsed_s,
        models,
        methods,
        shards,
        replicas: pod_stats.replicas,
        total_device_us,
        pod_makespan_us: pod_stats.makespan_us,
        cache,
        ingress,
        residency,
    }
}

/// The elastic control loop (see [`crate::autoscale`]): every
/// `config.autoscale.interval` it diffs the metrics snapshot against the
/// previous sample, condenses the window into [`ScaleSignals`], asks the
/// [`ScalePolicy`] for a decision, and applies it through `Pod::grow` /
/// `Pod::drain` — logging every action for [`Server::autoscale_report`].
/// Exits promptly when `stop_and_join` flips the shutdown latch.
fn autoscaler_loop(inner: &Inner) {
    let state = inner.autoscale.as_ref().expect("autoscaler started without state");
    let config = &inner.config.autoscale;
    let mut policy = ScalePolicy::new(config.clone());
    let mut prev = snapshot_of(inner);
    loop {
        {
            let mut stopped = state.shutdown.lock();
            if !*stopped {
                state.wake.wait_for(&mut stopped, config.interval);
            }
            if *stopped {
                return;
            }
        }
        let snap = snapshot_of(inner);
        let delta = snap.delta_since(&prev);
        let enrolled = inner.pod.active_replicas();
        let signals = ScaleSignals {
            backlog_per_replica: (delta.queue_depth + delta.inflight_batches) as f64
                / enrolled.max(1) as f64,
            miss_rate: delta.deadline_miss_rate,
            enrolled,
        };
        state.samples.fetch_add(1, Ordering::Relaxed);
        let decision = policy.decide(signals);
        let applied = match decision {
            ScaleDecision::Grow => inner.pod.grow(),
            ScaleDecision::Drain => inner.pod.drain(config.min_replicas),
            ScaleDecision::Hold => None,
        };
        if let Some(replica) = applied {
            state.events.lock().push(AutoscaleEvent {
                at_s: inner.started.elapsed().as_secs_f64(),
                decision,
                replica,
                enrolled_after: inner.pod.active_replicas(),
                backlog_per_replica: signals.backlog_per_replica,
                miss_rate: signals.miss_rate,
            });
        }
        prev = snap;
    }
}

/// Coalesces one model's admitted requests into micro-batches and routes
/// each batch to a pod replica before handing it to the worker pool.
///
/// Batch sealing is work-conserving: once the admission queue is empty, an
/// under-full batch seals at once if a worker would take it now (fewer
/// workers busy or spoken for by queued batches than the pool holds).
/// Otherwise the batcher keeps gathering up to `max_batch`, for at most
/// `max_wait` after the first request.
fn batcher_loop(inner: &Inner, model: usize, rx: Receiver<InferRequest>, tx: Sender<Batch>) {
    let max_batch = inner.config.max_batch;
    let workers = inner.config.workers;
    let entry = &inner.registry.entries()[model];
    loop {
        // Block for the batch's first request; a disconnected, empty queue
        // means shutdown and nothing left to drain.
        let first = match rx.recv() {
            Ok(request) => request,
            Err(_) => break,
        };
        // No representable instant (a `Duration::MAX` wait) means no bound.
        let wait_until = Instant::now().checked_add(inner.config.max_wait);
        let mut requests = vec![first];
        while requests.len() < max_batch {
            // Whatever is already queued joins the batch, so a backlog
            // drains in full batches; only an *empty* queue can seal early.
            let next = match rx.try_recv() {
                Ok(request) => Some(request),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty)
                    if inner.busy_workers.load(Ordering::Relaxed) + tx.len() < workers =>
                {
                    None
                }
                Err(TryRecvError::Empty) => match wait_until {
                    Some(deadline) => rx.recv_deadline(deadline).ok(),
                    None => rx.recv().ok(),
                },
            };
            let Some(request) = next else { break };
            requests.push(request);
        }
        inner.metrics[model].record_batch(requests.len());
        // Deadlines are checked exactly here, when the batch seals: a
        // request that waited past its deadline is masked out of the
        // forward and will be answered DeadlineExceeded — by the worker,
        // in arrival order, because an early batcher-side reply could
        // overtake an earlier batch still queued for a worker.
        let now = Instant::now();
        let expired: Vec<bool> =
            requests.iter().map(|r| r.deadline.is_some_and(|d| now >= d)).collect();
        let live = expired.iter().filter(|&&e| !e).count();
        let dispatch = if live == 0 {
            Dispatch::AllExpired
        } else {
            // Price the live rows (memoized per size) and reserve the
            // simulated cost on a healthy replica's occupancy clock.
            // Routing here — not in the worker — keeps the policy's
            // occupancy view ahead of execution, and blocks for queue
            // space when the whole pod is saturated (but never when no
            // replica is up: that returns PodDown instead of deadlocking).
            let estimate =
                entry.device_estimate(live, &inner.ipu, &inner.gpu, inner.config.tensor_cores);
            match inner.pod.route(model, estimate.routed_us()) {
                Ok(decision) => Dispatch::Routed { decision, estimate },
                Err(_) => Dispatch::PodDown,
            }
        };
        let batch = Batch { model, requests, expired, dispatch };
        if tx.send(batch).is_err() {
            break;
        }
    }
}

/// Executes batches until every batcher is gone and the batch queue is dry.
/// Each worker owns one scratch arena, reused across every batch it runs.
fn worker_loop(inner: &Inner, rx: Receiver<Batch>) {
    let mut scratch = Scratch::new();
    while let Ok(batch) = rx.recv() {
        inner.busy_workers.fetch_add(1, Ordering::Relaxed);
        execute_batch(inner, batch, &mut scratch);
        inner.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answers one request with a failure `source` — no output, an explicit 0
/// device-µs — and wakes any coalesced waiters parked on it with the same
/// answer (a failed leader must not leave its followers parked forever).
/// Failures still draw completion indices and count as completed, but
/// [`ModelMetrics::record_response`] keeps them out of the latency
/// histograms.
fn fail_request(inner: &Inner, metrics: &ModelMetrics, request: InferRequest, source: ServedFrom) {
    let now = Instant::now();
    let failure_timing = |submitted: Instant| Timing {
        queue_us: now.saturating_duration_since(submitted).as_micros() as u64,
        service_us: 0,
        total_us: submitted.elapsed().as_micros() as u64,
        batch_size: 1,
        ipu_batch_us: Some(0.0),
        gpu_batch_us: Some(0.0),
        // A failure never reserved simulated pod time (a stranded batch's
        // reservation was refunded), so there is no sim latency to report.
        sim_batch_us: None,
        source,
        replica: None,
    };
    let timing = failure_timing(request.submitted);
    metrics.record_response(&timing);
    let completed_index = inner.completion_counter.fetch_add(1, Ordering::Relaxed);
    let woken = match (&inner.cache, request.cache_tag) {
        (Some(cache), Some(tag)) => {
            cache.fail(tag, || inner.completion_counter.fetch_add(1, Ordering::Relaxed))
        }
        _ => Vec::new(),
    };
    let _ = request.reply.send(InferResponse {
        client: request.client,
        seq: request.seq,
        output: Vec::new(),
        completed_index,
        timing,
    });
    for (waiter, completed_index) in woken {
        let timing = failure_timing(waiter.submitted);
        metrics.record_response(&timing);
        let _ = waiter.reply.send(InferResponse {
            client: waiter.client,
            seq: waiter.seq,
            output: Vec::new(),
            completed_index,
            timing,
        });
    }
}

/// One batch: single lock-free forward pass over the live rows, single
/// (memoized) simulator pricing — then per-request response fan-out in
/// arrival order, failures interleaved where their requests sat. A request
/// that leads a cached computation additionally publishes its result and
/// wakes the key's coalesced waiters, immediately after its own response so
/// a client's same-key stream completes in submission order. A batch
/// stranded by a replica crash (settle sees a bumped epoch) is re-routed to
/// a survivor; only when no survivor exists do its requests fail `PodDown`.
fn execute_batch(inner: &Inner, batch: Batch, scratch: &mut Scratch) {
    let entry = &inner.registry.entries()[batch.model];
    let metrics = &inner.metrics[batch.model];
    let dim = entry.dim();

    let (decision, estimate) = match batch.dispatch {
        Dispatch::Routed { decision, estimate } => (decision, estimate),
        Dispatch::AllExpired => {
            for request in batch.requests {
                fail_request(inner, metrics, request, ServedFrom::DeadlineExceeded);
            }
            return;
        }
        Dispatch::PodDown => {
            for (request, expired) in batch.requests.into_iter().zip(batch.expired) {
                let source =
                    if expired { ServedFrom::DeadlineExceeded } else { ServedFrom::PodDown };
                fail_request(inner, metrics, request, source);
            }
            return;
        }
    };

    let live = batch.expired.iter().filter(|&&e| !e).count();
    let mut data = Vec::with_capacity(live * dim);
    for (request, &expired) in batch.requests.iter().zip(&batch.expired) {
        if !expired {
            request.input.extend_into(&mut data);
        }
    }
    let x = Matrix::from_vec(live, dim, data);

    let forward_start = Instant::now();
    let y = entry.forward(&x, scratch);
    let service_us = forward_start.elapsed().as_micros() as u64;
    // Settle the batch against its replica's occupancy clock (which also
    // tallies the cost on the model's device counter, in the same critical
    // section — the two accountings the snapshot cross-checks). A crash
    // since routing already refunded the reserved cost from the dead clock;
    // settle reports the batch stranded and the retry re-prices it on the
    // least-busy survivor.
    let routed = match inner.pod.settle(batch.model, &decision, live) {
        Settle::Retired => Some((decision.replica, decision.cost_ns)),
        Settle::Stranded => inner
            .pod
            .reroute(batch.model, estimate.routed_us(), live)
            .map(|r| (r.replica, r.cost_ns)),
    };

    let mut row = 0usize;
    for (request, expired) in batch.requests.into_iter().zip(batch.expired) {
        if expired {
            fail_request(inner, metrics, request, ServedFrom::DeadlineExceeded);
            continue;
        }
        let i = row;
        row += 1;
        let Some((replica, sim_ns)) = routed else {
            // Stranded and no survivor to retry on: the forward's result
            // has no simulated device to be attributed to.
            fail_request(inner, metrics, request, ServedFrom::PodDown);
            continue;
        };
        let timing = Timing {
            queue_us: forward_start.saturating_duration_since(request.submitted).as_micros() as u64,
            service_us,
            total_us: request.submitted.elapsed().as_micros() as u64,
            batch_size: live,
            ipu_batch_us: estimate.ipu_us,
            gpu_batch_us: estimate.gpu_us,
            // What the batch reserved on the replica clock: routed compute
            // (degradation-scaled) plus any weight transfer the residency
            // manager charged (cold load or streaming page-in).
            sim_batch_us: Some(sim_ns as f64 / 1e3),
            source: ServedFrom::Compute,
            replica: Some(replica),
        };
        metrics.record_response(&timing);
        // The leader's completion index is drawn before the cache-side
        // wake-up, so it always precedes its waiters'.
        let completed_index = inner.completion_counter.fetch_add(1, Ordering::Relaxed);
        let woken = match (&inner.cache, request.cache_tag) {
            (Some(cache), Some(tag)) => cache.complete(tag, request.input, y.row(i), || {
                inner.completion_counter.fetch_add(1, Ordering::Relaxed)
            }),
            _ => Vec::new(),
        };
        let response = InferResponse {
            client: request.client,
            seq: request.seq,
            output: y.row(i).to_vec(),
            completed_index,
            timing,
        };
        // A caller that dropped its handle forfeits the response; the
        // request still counts as completed.
        let _ = request.reply.send(response);
        for (waiter, completed_index) in woken {
            let timing = Timing {
                queue_us: forward_start.saturating_duration_since(waiter.submitted).as_micros()
                    as u64,
                service_us,
                total_us: waiter.submitted.elapsed().as_micros() as u64,
                batch_size: live,
                // The forward's device time is attributed to the leader;
                // riding along costs 0 device-µs.
                ipu_batch_us: Some(0.0),
                gpu_batch_us: Some(0.0),
                sim_batch_us: Some(0.0),
                source: ServedFrom::Coalesced,
                replica: Some(replica),
            };
            metrics.record_response(&timing);
            let _ = waiter.reply.send(InferResponse {
                client: waiter.client,
                seq: waiter.seq,
                output: y.row(i).to_vec(),
                completed_index,
                timing,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use bfly_core::Method;
    use std::time::Duration;

    fn small_config() -> ServeConfig {
        ServeConfig {
            dim: 64,
            classes: 10,
            seed: 11,
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            queue_capacity: 32,
            workers: 2,
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip_single_request() {
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        let handle = server.submit("butterfly", 1, 0, vec![0.1; 64]).expect("admitted");
        let response = handle.wait().expect("served");
        assert_eq!(response.client, 1);
        assert_eq!(response.seq, 0);
        assert_eq!(response.output.len(), 10);
        assert!(response.timing.batch_size >= 1);
        assert_eq!(response.timing.source, ServedFrom::Compute);
        assert!(response.timing.ipu_batch_us.expect("IPU pricing") > 0.0);
        assert!(response.timing.gpu_batch_us.expect("GPU pricing") > 0.0);
        server.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_dim_are_rejected() {
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        assert_eq!(
            server.submit("nope", 0, 0, vec![0.0; 64]).err(),
            Some(SubmitError::UnknownModel)
        );
        assert_eq!(
            server.submit("butterfly", 0, 0, vec![0.0; 3]).err(),
            Some(SubmitError::WrongInputLen { expected: 64, got: 3 })
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_all_admitted_requests() {
        // All 20 requests share one input: with the cache on this exercises
        // the cache-aware drain — one leader computes, every coalesced
        // waiter and cache hit still gets its response before shutdown
        // returns.
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..20)
            .map(|i| server.submit("butterfly", 7, i, vec![0.01; 64]).expect("admitted"))
            .collect();
        let snapshot = server.shutdown();
        let mut seen = 0;
        for handle in handles {
            let response = handle.wait().expect("drained before shutdown returned");
            assert_eq!(response.client, 7);
            seen += 1;
        }
        assert_eq!(seen, 20);
        assert_eq!(snapshot.models[0].completed, 20);
        assert_eq!(snapshot.models[0].shed, 0);
        assert_eq!(
            snapshot.models[0].cache_misses
                + snapshot.models[0].cache_hits
                + snapshot.models[0].cache_coalesced,
            20,
            "every lookup accounted for"
        );
    }

    #[test]
    fn submit_after_shutdown_would_fail() {
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        for lane in &server.inner.lanes {
            *lane.submit.write() = None;
        }
        assert_eq!(
            server.submit("butterfly", 0, 0, vec![0.0; 64]).err(),
            Some(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn full_queue_sheds_load() {
        // One worker, deep batches, tiny queue: flood it and expect sheds.
        // Cache off: with it on, 200 identical requests would coalesce into
        // one forward and nothing would ever queue.
        let config = ServeConfig {
            queue_capacity: 4,
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_millis(5),
            cache: CacheConfig::disabled(),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Baseline]).expect("valid");
        let mut admitted = Vec::new();
        let mut shed = 0u64;
        for i in 0..200 {
            match server.submit("baseline", 0, i, vec![0.5; 64]) {
                Ok(handle) => admitted.push(handle),
                Err(SubmitError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "a 4-deep queue must shed under a 200-request flood");
        for handle in admitted {
            assert!(handle.wait().is_some(), "admitted requests are never dropped");
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].shed, shed);
        assert_eq!(snapshot.models[0].completed + shed, 200);
    }

    #[test]
    fn batcher_coalesces_a_backlog() {
        // Stuff the queue while no worker can run (single worker blocked on
        // the first batch is not guaranteed, so instead check mean batch > 1
        // after a burst submitted faster than service). Cache off: the burst
        // reuses one input, which would otherwise dedup to a single batch.
        let config = ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            workers: 1,
            cache: CacheConfig::disabled(),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Baseline]).expect("valid");
        let handles: Vec<_> = (0..64)
            .map(|i| server.submit("baseline", 1, i, vec![0.2; 64]).expect("admitted"))
            .collect();
        let sizes: Vec<usize> =
            handles.into_iter().map(|h| h.wait().expect("served").timing.batch_size).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 1.5, "burst of 64 should coalesce, mean batch {mean}");
        server.shutdown();
    }

    #[test]
    fn idle_server_seals_a_lone_request_at_once() {
        // Work-conserving sealing: the only worker is idle and nothing else
        // is queued, so the batch seals at once instead of holding the lone
        // request for `max_wait`.
        let config = ServeConfig {
            max_wait: Duration::from_secs(10),
            workers: 1,
            cache: CacheConfig::disabled(),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let handle = server.submit("butterfly", 0, 0, vec![0.3; 64]).expect("admitted");
        let response = handle
            .wait_timeout(Duration::from_secs(2))
            .expect("sealed without waiting out max_wait");
        assert_eq!(response.timing.source, ServedFrom::Compute);
        assert_eq!(response.timing.batch_size, 1);
        server.shutdown();
    }

    #[test]
    fn unbounded_wait_and_deadline_serve_requests() {
        // `Duration::MAX` lies past every representable instant: as a wait
        // or a deadline it means no bound, not a panic in the batcher or in
        // the submitting thread.
        let config = ServeConfig {
            max_wait: Duration::MAX,
            default_deadline: Some(Duration::MAX),
            workers: 1,
            cache: CacheConfig::disabled(),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let first = server.submit("butterfly", 0, 0, vec![0.4; 64]).expect("admitted");
        let response = first.wait_timeout(Duration::from_secs(2)).expect("answered");
        assert_eq!(response.timing.source, ServedFrom::Compute);
        // A burst behind the busy worker may wait without a bound for more
        // arrivals; shutdown seals and drains whatever is still gathering.
        let handles: Vec<_> = (1..17)
            .map(|i| server.submit("butterfly", 0, i, vec![i as f32; 64]).expect("admitted"))
            .collect();
        let snapshot = server.shutdown();
        for handle in handles {
            assert_eq!(handle.wait().expect("drained").timing.source, ServedFrom::Compute);
        }
        assert_eq!(snapshot.models[0].completed, 17);
        assert_eq!(snapshot.models[0].deadline_exceeded, 0);
    }

    #[test]
    fn unbounded_response_wait_returns_the_response() {
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        let handle = server.submit("butterfly", 0, 0, vec![0.4; 64]).expect("admitted");
        let response = handle.wait_timeout(Duration::MAX).expect("answered");
        assert_eq!(response.timing.source, ServedFrom::Compute);
        server.shutdown();
    }

    #[test]
    fn multi_model_server_routes_by_name() {
        let server =
            Server::start(small_config(), &[Method::Baseline, Method::Butterfly]).expect("valid");
        assert_eq!(server.model_names(), vec!["baseline", "butterfly"]);
        let a = server.submit("baseline", 0, 0, vec![0.3; 64]).expect("admitted");
        let b = server.submit("butterfly", 0, 0, vec![0.3; 64]).expect("admitted");
        let ra = a.wait().expect("served");
        let rb = b.wait().expect("served");
        assert_ne!(ra.output, rb.output, "different models must differ");
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models.len(), 2);
        assert_eq!(snapshot.models[0].completed, 1);
        assert_eq!(snapshot.models[1].completed, 1);
        assert_eq!(snapshot.shards.iter().map(|s| s.models).sum::<usize>(), 2);
    }

    #[test]
    fn cache_hit_reports_zero_device_time() {
        let server = Server::start(small_config(), &[Method::Butterfly]).expect("valid");
        let input = vec![0.25f32; 64];
        let first =
            server.submit("butterfly", 0, 0, input.clone()).expect("admitted").wait().expect("ok");
        assert_eq!(first.timing.source, ServedFrom::Compute);
        assert!(first.timing.ipu_batch_us.expect("priced") > 0.0);
        let second =
            server.submit("butterfly", 0, 1, input.clone()).expect("served").wait().expect("ok");
        assert_eq!(second.timing.source, ServedFrom::CacheHit);
        assert_eq!(second.output, first.output, "hit is bit-identical to the computed response");
        assert_eq!(first.timing.replica, Some(0), "computed on the pod's only replica");
        assert_eq!(second.timing.replica, None, "a hit never touches the pod");
        assert_eq!(second.timing.ipu_batch_us, Some(0.0), "hits cost 0 device-µs");
        assert_eq!(second.timing.gpu_batch_us, Some(0.0));
        assert_eq!(second.timing.service_us, 0);
        assert_eq!(second.timing.queue_us, 0);
        assert!(second.completed_index > first.completed_index);
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].cache_hits, 1);
        assert_eq!(snapshot.models[0].cache_misses, 1);
        assert_eq!(snapshot.cache.entries, 1);
        assert!(snapshot.cache.enabled);
    }

    #[test]
    fn single_replica_pod_matches_the_pre_pod_accounting() {
        // replicas = 1 (the default) must reproduce the pre-pod serving
        // path: every computed response is attributed to replica 0, and the
        // one replica's device time IS the global total.
        let config = ServeConfig { cache: CacheConfig::disabled(), ..small_config() };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..24)
            .map(|i| server.submit("butterfly", 0, i, vec![i as f32 / 24.0; 64]).expect("ok"))
            .collect();
        for handle in handles {
            let r = handle.wait().expect("served");
            assert_eq!(r.timing.replica, Some(0));
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.replicas.len(), 1);
        let r0 = &snapshot.replicas[0];
        assert_eq!(r0.requests, 24);
        assert_eq!(r0.cold_loads, 0, "replica 0 starts warm for every model");
        assert_eq!(r0.weight_load_us, 0.0);
        assert!((r0.device_us - snapshot.total_device_us).abs() < 1e-6);
        assert!((r0.device_us - snapshot.pod_makespan_us).abs() < 1e-9);
        assert!((r0.utilization - 1.0).abs() < 1e-9, "the only replica defines the makespan");
    }

    #[test]
    fn per_replica_device_time_sums_to_the_model_tally() {
        // The snapshot carries two independent accountings of simulated
        // device time — per model (worker-side tally) and per replica
        // (pod-side retirement). They must agree to the nanosecond, modulo
        // the µs float conversion.
        let config = ServeConfig {
            replicas: 4,
            routing: crate::replica::Routing::JoinShortestQueue,
            cache: CacheConfig::disabled(),
            queue_capacity: 256,
            ..small_config()
        };
        let server = Server::start(config, &[Method::Baseline, Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..96)
            .map(|i| {
                let model = if i % 2 == 0 { "baseline" } else { "butterfly" };
                server.submit(model, i % 7, i, vec![(i as f32).sin(); 64]).expect("admitted")
            })
            .collect();
        for handle in handles {
            let r = handle.wait().expect("served");
            assert!(r.timing.replica.expect("computed => attributed") < 4);
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.replicas.len(), 4);
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        let model_sum: f64 = snapshot.models.iter().map(|m| m.device_us).sum();
        assert!(
            (replica_sum - snapshot.total_device_us).abs() < 1e-6,
            "replica tally {replica_sum} vs global {}",
            snapshot.total_device_us
        );
        assert!((model_sum - snapshot.total_device_us).abs() < 1e-9);
        assert_eq!(snapshot.replicas.iter().map(|r| r.requests).sum::<u64>(), 96);
        let makespan = snapshot.replicas.iter().map(|r| r.device_us).fold(0.0f64, f64::max);
        assert!((makespan - snapshot.pod_makespan_us).abs() < 1e-9);
        for r in &snapshot.replicas {
            assert_eq!(r.queue_depth, 0, "shutdown retired every routed batch");
            assert!(r.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn multi_replica_routing_spreads_batches_and_charges_cold_loads() {
        // Round-robin across 3 replicas: every replica serves batches, and
        // the two cold replicas each pay exactly one weight load for the one
        // registered model.
        let config = ServeConfig {
            replicas: 3,
            routing: crate::replica::Routing::RoundRobin,
            max_batch: 1,
            cache: CacheConfig::disabled(),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..30)
            .map(|i| server.submit("butterfly", 0, i, vec![i as f32; 64]).expect("admitted"))
            .collect();
        let mut seen = [false; 3];
        for handle in handles {
            let r = handle.wait().expect("served");
            seen[r.timing.replica.expect("computed")] = true;
        }
        assert_eq!(seen, [true; 3], "round-robin reaches every replica");
        let snapshot = server.shutdown();
        assert_eq!(snapshot.replicas[0].cold_loads, 0);
        for r in &snapshot.replicas[1..] {
            assert_eq!(r.cold_loads, 1, "one load per model per cold replica");
            assert!(r.weight_load_us > 0.0);
            assert!(r.batches > 0);
        }
    }

    #[test]
    fn hot_key_costs_one_forward_regardless_of_fan_in() {
        let config = ServeConfig { workers: 1, ..small_config() };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let input = vec![0.5f32; 64];
        let handles: Vec<_> = (0..10)
            .map(|i| server.submit("butterfly", 3, i, input.clone()).expect("accepted"))
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.wait().expect("answered")).collect();
        let computed = responses.iter().filter(|r| r.timing.source == ServedFrom::Compute).count();
        assert_eq!(computed, 1, "exactly one forward for a hot key");
        for r in &responses {
            assert_eq!(r.output, responses[0].output, "identical bytes for identical input");
            if r.timing.source != ServedFrom::Compute {
                assert_eq!(r.timing.ipu_batch_us, Some(0.0));
                assert_eq!(r.timing.gpu_batch_us, Some(0.0));
            }
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].cache_misses, 1);
        assert_eq!(
            snapshot.models[0].cache_hits + snapshot.models[0].cache_coalesced,
            9,
            "the other nine were hits or coalesced"
        );
    }

    #[test]
    fn snapshot_tallies_agree_even_mid_flight() {
        // Regression for the snapshot accounting race: replica retirement
        // and the per-model device tally used to be updated by two separate
        // calls, so a snapshot between them could observe a batch on one
        // ledger but not the other. Both now move in one pod critical
        // section and the snapshot reads both under one lock acquisition —
        // so hammering snapshots *while* batches settle must never catch
        // the ledgers apart.
        let config = ServeConfig {
            replicas: 3,
            routing: crate::replica::Routing::JoinShortestQueue,
            cache: CacheConfig::disabled(),
            queue_capacity: 512,
            max_batch: 4,
            ..small_config()
        };
        let server = Server::start(config, &[Method::Baseline, Method::Butterfly]).expect("valid");
        std::thread::scope(|s| {
            let snapshots = s.spawn(|| {
                for _ in 0..200 {
                    let snap = server.snapshot();
                    let replica_sum: f64 = snap.replicas.iter().map(|r| r.device_us).sum();
                    let model_sum: f64 = snap.models.iter().map(|m| m.device_us).sum();
                    assert!(
                        (replica_sum - model_sum).abs() < 1e-6,
                        "mid-flight snapshot caught the ledgers apart: \
                         replicas {replica_sum} vs models {model_sum}"
                    );
                    std::thread::yield_now();
                }
            });
            let mut handles = Vec::new();
            for i in 0..120u64 {
                let model = if i % 2 == 0 { "baseline" } else { "butterfly" };
                handles.push(
                    server.submit(model, i % 5, i, vec![(i as f32).cos(); 64]).expect("admitted"),
                );
            }
            for handle in handles {
                handle.wait().expect("served");
            }
            snapshots.join().expect("snapshot thread clean");
        });
        let snapshot = server.shutdown();
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        assert!((replica_sum - snapshot.total_device_us).abs() < 1e-6);
    }

    #[test]
    fn zero_deadline_expires_every_request() {
        // A deadline of zero is already past when the batcher seals the
        // batch, so every request must come back DeadlineExceeded — empty
        // output, zero device time — and none may be lost.
        let config = ServeConfig {
            cache: CacheConfig::disabled(),
            default_deadline: Some(Duration::ZERO),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..16)
            .map(|i| server.submit("butterfly", 2, i, vec![i as f32; 64]).expect("admitted"))
            .collect();
        for handle in handles {
            let r = handle.wait().expect("answered, not dropped");
            assert_eq!(r.timing.source, ServedFrom::DeadlineExceeded);
            assert!(r.timing.source.is_failure());
            assert!(r.output.is_empty());
            assert_eq!(r.timing.ipu_batch_us, Some(0.0));
            assert_eq!(r.timing.replica, None);
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].deadline_exceeded, 16);
        assert_eq!(snapshot.models[0].completed, 16, "failures still resolve");
        assert_eq!(snapshot.models[0].device_us, 0.0, "expired batches are never priced");
        assert_eq!(snapshot.replicas[0].batches, 0);
    }

    #[test]
    fn per_submit_deadline_overrides_the_default() {
        // No default deadline; one request opts into an already-expired
        // deadline while its neighbours compute normally.
        let config = ServeConfig { cache: CacheConfig::disabled(), ..small_config() };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let doomed = server
            .submit_with_deadline("butterfly", 0, 0, vec![0.5; 64], Some(Duration::ZERO))
            .expect("admitted");
        let fine = server.submit("butterfly", 0, 1, vec![0.5; 64]).expect("admitted");
        assert_eq!(doomed.wait().expect("answered").timing.source, ServedFrom::DeadlineExceeded);
        assert_eq!(fine.wait().expect("answered").timing.source, ServedFrom::Compute);
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].deadline_exceeded, 1);
    }

    #[test]
    fn expired_leader_fails_its_coalesced_waiters() {
        // With the cache ON every admitted request is a leader, so if
        // leaders were exempt from deadlines the feature would be a no-op
        // in the default configuration. Instead an expired leader fails,
        // and the waiters coalesced onto it are released with the same
        // DeadlineExceeded answer rather than parking forever.
        let config =
            ServeConfig { default_deadline: Some(Duration::ZERO), workers: 1, ..small_config() };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let input = vec![0.75f32; 64];
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit("butterfly", 4, i, input.clone()).expect("accepted"))
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.wait().expect("released")).collect();
        for r in &responses {
            assert_eq!(r.timing.source, ServedFrom::DeadlineExceeded);
            assert!(r.output.is_empty());
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.models[0].deadline_exceeded, 8);
        assert_eq!(snapshot.cache.entries, 0, "a failed leader memoizes nothing");
    }

    #[test]
    fn unrecoverable_pod_fails_requests_then_submits() {
        // One replica crashed at clock 0 with no recovery scheduled: the
        // first admitted batch routes into the outage and is answered
        // PodDown; once the pod is marked dead, submit itself fails fast.
        let config = ServeConfig {
            cache: CacheConfig::disabled(),
            fault_plan: crate::fault::FaultPlan::none().crash_at(0.0, 0),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let first = server.submit("butterfly", 0, 0, vec![0.1; 64]).expect("admitted before dead");
        let r = first.wait().expect("answered, not dropped");
        assert_eq!(r.timing.source, ServedFrom::PodDown);
        assert!(r.output.is_empty());
        // The batcher marked the pod dead while routing; later submits are
        // refused at the door.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.submit("butterfly", 0, 1, vec![0.2; 64]) {
                Err(SubmitError::PodDown) => break,
                Ok(handle) => {
                    assert_eq!(handle.wait().expect("answered").timing.source, ServedFrom::PodDown);
                }
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(Instant::now() < deadline, "pod never went dead");
            std::thread::yield_now();
        }
        let snapshot = server.shutdown();
        assert!(snapshot.models[0].pod_down >= 1);
        assert_eq!(snapshot.replicas[0].crashes, 1);
        assert!(!snapshot.replicas[0].up);
        assert_eq!(snapshot.models[0].device_us, 0.0, "nothing settled on a dead pod");
    }

    #[test]
    fn crash_and_recovery_reroute_without_losing_requests() {
        // Crash replica 0 mid-run and recover it later; whatever the
        // interleaving, every admitted request resolves (Compute on any
        // replica, or a failure) and the device ledgers agree after the
        // refunds.
        let config = ServeConfig {
            replicas: 2,
            routing: crate::replica::Routing::RoundRobin,
            cache: CacheConfig::disabled(),
            max_batch: 2,
            queue_capacity: 512,
            // Each routed batch presents at least MIN_ROUTED_US (1 µs) of
            // simulated compute, so 40 batches push the clock well past
            // both events whatever the real kernel timings are.
            fault_plan: crate::fault::FaultPlan::none().crash_at(10.0, 0).recover_at(30.0, 0),
            ..small_config()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let handles: Vec<_> = (0..80)
            .map(|i| server.submit("butterfly", i % 3, i, vec![(i as f32).sin(); 64]).expect("ok"))
            .collect();
        let mut computed = 0u64;
        for handle in handles {
            let r = handle.wait().expect("resolved");
            match r.timing.source {
                ServedFrom::Compute => {
                    computed += 1;
                    assert!(r.timing.replica.expect("attributed") < 2);
                }
                ServedFrom::PodDown => assert!(r.output.is_empty()),
                other => panic!("unexpected source {other:?}"),
            }
        }
        assert!(computed > 0, "survivor keeps serving through the outage");
        let snapshot = server.shutdown();
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        assert!(
            (replica_sum - snapshot.total_device_us).abs() < 1e-6,
            "refunded strands must keep the ledgers equal"
        );
        assert_eq!(snapshot.replicas[0].crashes, 1);
        assert_eq!(snapshot.replicas[0].recoveries, 1);
    }
}
