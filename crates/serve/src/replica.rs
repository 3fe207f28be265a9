//! Replica scheduler: routes micro-batches across a simulated multi-IPU pod.
//!
//! The host worker pool keeps executing the real kernels exactly as before —
//! replicas are *simulated devices* (one GC200 each, joined by IPU-Links per
//! [`PodSpec`]), and what is scheduled is simulated device time: every batch
//! the batcher forms is routed to one replica, reserving the batch's
//! predicted device cost on that replica's occupancy clock (a busy-until
//! timestamp in simulated nanoseconds), and the worker that executes the
//! batch settles the same cost against the clock. Aggregate pod capacity is
//! therefore measured, not asserted: the pod's simulated makespan is the
//! maximum occupancy clock, and throughput in device time scales with how
//! evenly the router spreads batches.
//!
//! The [`Routing`] policy is one of join-shortest-queue (scan every clock,
//! pick the least busy), power-of-two-choices (sample two replicas, pick
//! the less busy — the cheap default), and round-robin (the baseline).
//! Each replica also has
//! a bounded queue of outstanding (routed but unsettled) batches: a policy
//! pick that lands on a full replica falls back to the least-busy replica
//! with space, and when every healthy queue is full the router blocks until
//! a worker settles a batch — backpressure that eventually fills the
//! admission queues and sheds load, exactly like the pre-pod batch queue did.
//!
//! Model weights are tracked per replica by the [`crate::residency`]
//! manager, which owns each replica's SRAM as a budgeted cache over
//! streaming memory: replica 0 starts warm (it is the device the pre-pod
//! runtime priced everything on, first-fit under the budget), a replica's
//! first-ever load of a model pays the IPU-Link transfer
//! (`PodSpec::inter_chip_bytes_per_sec` plus one collective launch), and a
//! reload after a budget/quota eviction pays the slower streaming page-in.
//! Butterfly models replicate almost for free; dense models pay ~n²·4
//! bytes per new replica. With no budget configured the manager degenerates
//! to the original always-resident behaviour, bit-exactly.
//!
//! # Faults
//!
//! The pod replays a [`FaultPlan`] against its *simulated clock*: the clock
//! advances by the presented compute cost of every batch offered for
//! routing (time is work — fault timing is independent of host wall-clock
//! speed), and any events whose timestamp the clock has passed are applied
//! before a routing decision is made. Routing policies only ever see the
//! healthy subset of replicas; when every replica is down, `route` returns
//! [`PodDown`] instead of blocking forever. A crash bumps the replica's
//! *epoch* and wipes its weight residency; a worker settling a batch whose
//! routing epoch no longer matches learns the batch was *stranded*: the
//! reservation is refunded from the dead clock and the batch is re-priced
//! and re-routed to a survivor via [`Pod::reroute`]. A recovered replica is
//! cold — it re-pays the one-time weight load per model. The per-model
//! device-time tally lives in the same critical section as the per-replica
//! clocks, so a snapshot can never observe one ahead of the other.
//!
//! # Elasticity
//!
//! The pod can be built with more replicas than it initially *enrolls*:
//! replicas beyond the active set are healthy standbys that routing never
//! sees. [`Pod::grow`] enrolls a standby at runtime (elastic scale-up) —
//! the grown replica is cold, so its first batch per model pays the priced
//! weight load through the residency manager, which is exactly the pod's
//! *time-to-healthy* and lands in `ReplicaStats::weight_load_us`.
//! [`Pod::drain`] gracefully removes the most recently enrolled replica
//! (scale-down): it reuses the crash machinery — epoch bump, stranded
//! batches refunded and re-routed to survivors, SRAM released — without
//! counting a crash, so the replica can be grown again later. A warm pool
//! ([`Pod::prewarm_standby`]) pre-pays standby weight loads at startup so
//! later growth is instant. Deterministic tests drive the same transitions
//! from the fault plan (`FaultKind::Grow` / `FaultKind::Drain`); the live
//! autoscaler (`crate::autoscale`) calls `grow`/`drain` reactively. With
//! every replica enrolled at construction — the default — none of this is
//! reachable and the pod behaves exactly as the fixed-size one did.

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::metrics::ReplicaStats;
use crate::residency::{Charge, ModelProfile, ModelResidency, ResidencyConfig, ResidencyManager};
use bfly_ipu::PodSpec;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};

/// Config-level routing policy selector (see [`crate::ServeConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Cycle replicas in order, ignoring occupancy — the baseline.
    RoundRobin,
    /// Sample two replicas, route to the less occupied: near-JSQ balance at
    /// O(1) cost. The default.
    #[default]
    PowerOfTwoChoices,
    /// Scan every replica's occupancy clock and route to the least busy.
    JoinShortestQueue,
}

impl Routing {
    /// Short label used in bench output and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Routing::RoundRobin => "rr",
            Routing::PowerOfTwoChoices => "p2c",
            Routing::JoinShortestQueue => "jsq",
        }
    }

    /// Picks the position in `occupancy` — the healthy, enrolled
    /// replicas, never empty — for the next batch. Round-robin and
    /// power-of-two-choices draw from `cursor`; a single-replica p2c pick
    /// short-circuits without advancing it.
    fn choose(self, cursor: &mut u64, occupancy: &[ReplicaOccupancy]) -> usize {
        let n = occupancy.len();
        match self {
            Routing::RoundRobin => {
                let pick = (*cursor % n as u64) as usize;
                *cursor = cursor.wrapping_add(1);
                pick
            }
            Routing::PowerOfTwoChoices => {
                if n == 1 {
                    return 0;
                }
                let r = splitmix64(*cursor);
                *cursor = cursor.wrapping_add(1);
                let a = (r % n as u64) as usize;
                let mut b = ((r >> 32) % n as u64) as usize;
                if b == a {
                    b = (a + 1) % n;
                }
                if busyness(&occupancy[a]) < busyness(&occupancy[b]) {
                    a
                } else {
                    b
                }
            }
            Routing::JoinShortestQueue => {
                (0..n).min_by_key(|&i| busyness(&occupancy[i])).unwrap_or(0)
            }
        }
    }
}

impl std::str::FromStr for Routing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(Routing::RoundRobin),
            "p2c" | "power-of-two" => Ok(Routing::PowerOfTwoChoices),
            "jsq" | "join-shortest-queue" => Ok(Routing::JoinShortestQueue),
            other => Err(format!("unknown routing policy {other:?} (rr | p2c | jsq)")),
        }
    }
}

/// One replica's occupancy as seen by the routing policy.
#[derive(Debug, Clone, Copy)]
struct ReplicaOccupancy {
    /// Replica index in the pod.
    replica: usize,
    /// Busy-until timestamp in simulated device nanoseconds: the cumulative
    /// device cost committed to this replica at routing time.
    busy_until_ns: u64,
    /// Batches routed to this replica and not yet settled by a worker.
    outstanding: usize,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Occupancy rank, least busy first: less committed work, then fewer
/// outstanding batches, then the lower index (deterministic tie-break).
fn busyness(o: &ReplicaOccupancy) -> (u64, usize, usize) {
    (o.busy_until_ns, o.outstanding, o.replica)
}

/// Per-replica scheduling state, all under the pod's one mutex (routing and
/// settling are per-*batch* operations — a few per millisecond — so one
/// short critical section beats per-replica locks that JSQ would have to
/// take all of anyway).
struct ReplicaState {
    /// Simulated ns committed at routing time (the busy-until clock).
    committed_ns: u64,
    /// Simulated ns settled by workers; equals `committed_ns` when idle.
    retired_ns: u64,
    /// Batches routed but not yet settled (bounded by the pod's capacity).
    outstanding: usize,
    /// Batches settled (including batches adopted through `reroute`).
    batches: u64,
    /// Requests inside settled batches.
    requests: u64,
    /// Healthy and eligible for routing.
    up: bool,
    /// Member of the routable set. Standby replicas (built but never grown,
    /// or drained by scale-down) are healthy yet invisible to routing.
    enrolled: bool,
    /// Elastic scale-ups applied to this replica.
    scale_ups: u64,
    /// Elastic drains applied to this replica.
    drains: u64,
    /// Bumped on every crash; a batch whose routing epoch no longer matches
    /// at settle time was stranded and must be refunded + re-routed.
    epoch: u64,
    /// Compute-cost multiplier from `Slow` faults (1.0 = full speed).
    slow_factor: f64,
    /// Crash faults applied.
    crashes: u64,
    /// Recovery faults applied.
    recoveries: u64,
    /// Stranded batches this replica adopted from crashed peers.
    retried: u64,
}

/// What the router decided for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteDecision {
    /// Chosen replica.
    pub replica: usize,
    /// Total simulated ns reserved on the replica's clock (compute plus
    /// any weight transfer the residency manager charged) — what the
    /// worker settles after executing the batch.
    pub cost_ns: u64,
    /// Portion of `cost_ns` that was weight transfer (IPU-Link cold load
    /// or streaming page-in).
    pub weight_ns: u64,
    /// Bytes the residency manager paged over the streaming link for this
    /// batch (0 for hits and first-time cold loads) — refunded alongside
    /// `weight_ns` when a crash strands the batch.
    pub paged_bytes: u64,
    /// The replica's crash epoch at routing time.
    pub epoch: u64,
}

/// Outcome of settling an executed batch against its routed replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settle {
    /// The replica survived: cost retired, model tally charged.
    Retired,
    /// The replica crashed after routing: the reservation was refunded from
    /// the dead clock and the batch must be re-routed via [`Pod::reroute`].
    Stranded,
}

/// Returned by [`Pod::route`] when no replica is healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PodDown;

/// What `reroute` charged the adopting survivor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RerouteDecision {
    /// The survivor that adopted the batch.
    pub replica: usize,
    /// Simulated ns charged (and immediately settled) on its clock —
    /// reported to the client as the retried batch's `sim_batch_us`.
    pub cost_ns: u64,
}

/// Everything the pod mutex guards: replica clocks, the per-model device
/// tally, the simulated clock, and the fault-plan cursor. Keeping the model
/// tally here (rather than in [`crate::metrics`]) makes settle atomic with
/// respect to snapshots — the replica and model tallies can never be
/// observed out of step.
struct PodState {
    replicas: Vec<ReplicaState>,
    /// SRAM residency: what is warm where, and what a miss costs.
    residency: ResidencyManager,
    /// Per-model settled device ns (registry order).
    model_device_ns: Vec<u64>,
    /// Simulated pod time: cumulative presented compute ns across all
    /// batches offered for routing. Drives the fault plan.
    clock_ns: u64,
    /// The fault schedule, sorted by `at_ns`; `next_event` is the cursor.
    events: Vec<FaultEvent>,
    next_event: usize,
    /// Draw counter of the round-robin and power-of-two-choices policies.
    route_cursor: u64,
}

/// Point-in-time pod statistics: per-replica stats, the simulated makespan
/// (µs), and the per-model settled device tally — all read under one lock
/// acquisition so they agree exactly.
pub(crate) struct PodStats {
    pub replicas: Vec<ReplicaStats>,
    pub makespan_us: f64,
    pub model_device_ns: Vec<u64>,
    /// Per-model residency counters (hits/misses/paged bytes), summed
    /// across replicas, read under the same lock as everything else.
    pub model_residency: Vec<ModelResidency>,
}

/// The simulated pod: replica occupancy clocks, weight residency, fault
/// replay, and the routing policy, shared by every batcher and worker.
pub(crate) struct Pod {
    routing: Routing,
    /// Per-replica bound on outstanding batches.
    capacity: usize,
    state: Mutex<PodState>,
    /// Signalled on every settle and on fault transitions; `route` waits on
    /// it when all healthy queues are full.
    freed: Condvar,
    /// True once every replica is down with no recovery left in the plan —
    /// `submit` fails fast instead of feeding batches to a pod that can
    /// never answer them.
    dead: AtomicBool,
}

fn us_to_ns(us: f64) -> u64 {
    (us * 1_000.0).round().max(0.0) as u64
}

impl Pod {
    /// Builds the pod over a residency manager. Replica 0 is pre-warmed
    /// with every model that fits the budget (with the default unlimited
    /// config that is all of them — the pre-pod runtime priced all batches
    /// on that one device, weights already in SRAM); the other replicas are
    /// cold. Plan events that target a replica outside the pod are ignored.
    ///
    /// `active` is the number of replicas initially enrolled for routing;
    /// replicas `active..spec.ipus` are standbys the elastic machinery
    /// ([`Pod::grow`] or planned `FaultKind::Grow` events) can enroll
    /// later. `active == spec.ipus` — the fixed-pod case — leaves no
    /// standby and reproduces the pre-elastic runtime exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: PodSpec,
        active: usize,
        routing: Routing,
        capacity: usize,
        profiles: Vec<ModelProfile>,
        tenants: Vec<String>,
        residency: &ResidencyConfig,
        plan: &FaultPlan,
    ) -> Self {
        assert!(spec.ipus >= 1, "pod needs at least one replica");
        assert!((1..=spec.ipus).contains(&active), "active replicas must be in 1..=pod size");
        assert!(capacity >= 1, "replica queue capacity must be positive");
        plan.validate();
        let models = profiles.len();
        let manager = ResidencyManager::new(residency, &spec, spec.ipus, profiles, tenants);
        let replicas = (0..spec.ipus)
            .map(|i| ReplicaState {
                committed_ns: 0,
                retired_ns: 0,
                outstanding: 0,
                batches: 0,
                requests: 0,
                up: true,
                enrolled: i < active,
                scale_ups: 0,
                drains: 0,
                epoch: 0,
                slow_factor: 1.0,
                crashes: 0,
                recoveries: 0,
                retried: 0,
            })
            .collect();
        let events: Vec<FaultEvent> =
            plan.events().iter().filter(|e| e.kind.replica() < spec.ipus).copied().collect();
        let state = PodState {
            replicas,
            residency: manager,
            model_device_ns: vec![0; models],
            clock_ns: 0,
            events,
            next_event: 0,
            route_cursor: 0,
        };
        Self {
            routing,
            capacity,
            state: Mutex::new(state),
            freed: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// True once every replica is down and the plan holds no more
    /// recoveries: the pod can never answer another request.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Applies every fault event the simulated clock has passed. Returns
    /// true when the healthy set changed (callers holding the lock should
    /// notify `freed` so blocked routers re-evaluate).
    fn apply_due_events(&self, state: &mut PodState) -> bool {
        let mut changed = false;
        while state.next_event < state.events.len()
            && state.events[state.next_event].at_ns <= state.clock_ns
        {
            let event = state.events[state.next_event];
            state.next_event += 1;
            changed |= Self::apply_kind(state, event.kind);
        }
        if changed {
            self.refresh_dead(state);
        }
        changed
    }

    /// Applies one fault. Returns true when the healthy set changed.
    fn apply_kind(state: &mut PodState, kind: FaultKind) -> bool {
        match kind {
            FaultKind::Crash { replica } => {
                let r = &mut state.replicas[replica];
                if !r.up {
                    return false;
                }
                r.up = false;
                r.epoch += 1;
                r.crashes += 1;
                // Device SRAM is gone: every model is cold again, and any
                // degradation no longer applies to the fresh chip that
                // replaces this one on recovery.
                r.slow_factor = 1.0;
                state.residency.wipe(replica);
                true
            }
            FaultKind::Recover { replica } => {
                let r = &mut state.replicas[replica];
                if r.up {
                    return false;
                }
                r.up = true;
                r.recoveries += 1;
                true
            }
            FaultKind::Slow { replica, factor } => {
                let r = &mut state.replicas[replica];
                if r.up {
                    r.slow_factor = factor;
                }
                false
            }
            FaultKind::Grow { replica } => Self::enroll(state, replica),
            FaultKind::Drain { replica } => Self::unenroll(state, replica),
        }
    }

    /// Enrolls a standby replica into the routable set. Returns true when
    /// the routable set changed (no-op for already-enrolled or crashed
    /// replicas).
    fn enroll(state: &mut PodState, replica: usize) -> bool {
        let r = &mut state.replicas[replica];
        if r.enrolled || !r.up {
            return false;
        }
        r.enrolled = true;
        r.scale_ups += 1;
        true
    }

    /// Gracefully removes a replica from the routable set: the epoch bump
    /// strands its outstanding batches exactly like a crash (refund +
    /// re-route at settle time) and its SRAM is released with the device —
    /// but no crash is counted and the replica stays healthy, ready to be
    /// grown again. Returns true when the routable set changed.
    fn unenroll(state: &mut PodState, replica: usize) -> bool {
        let r = &mut state.replicas[replica];
        if !r.enrolled {
            return false;
        }
        r.enrolled = false;
        r.drains += 1;
        r.epoch += 1;
        r.slow_factor = 1.0;
        state.residency.wipe(replica);
        true
    }

    /// Recomputes the dead flag: no routable replica, no healthy standby
    /// the elastic machinery could enroll, and no recovery or growth left
    /// in the plan.
    fn refresh_dead(&self, state: &PodState) {
        let any_routable = state.replicas.iter().any(|r| r.up && r.enrolled);
        let any_standby = state.replicas.iter().any(|r| r.up && !r.enrolled);
        let revival_pending = state.events[state.next_event..]
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Recover { .. } | FaultKind::Grow { .. }));
        self.dead.store(!any_routable && !any_standby && !revival_pending, Ordering::Release);
    }

    /// Routes one batch: the policy picks a replica from a consistent
    /// occupancy snapshot of the *healthy* replicas; a full pick falls back
    /// to the least-busy healthy replica with queue space, and when every
    /// healthy replica is at capacity the call blocks until a worker
    /// settles a batch. The batch's simulated cost (IPU compute estimate,
    /// scaled by the replica's degradation factor, plus whatever weight
    /// transfer the residency manager charges for a miss — IPU-Link cold
    /// load or streaming page-in) is reserved on the chosen clock before
    /// the call returns, so concurrent routers see it.
    ///
    /// Offering a batch advances the simulated clock by its presented
    /// compute cost (whether or not the batch lands), which is what drives
    /// the fault plan; returns [`PodDown`] when no replica is healthy.
    pub fn route(&self, model: usize, compute_us: f64) -> Result<RouteDecision, PodDown> {
        let mut guard = self.state.lock();
        guard.clock_ns += us_to_ns(compute_us);
        loop {
            if self.apply_due_events(&mut guard) {
                self.freed.notify_all();
            }
            let occupancy: Vec<ReplicaOccupancy> = guard
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.up && r.enrolled)
                .map(|(i, r)| ReplicaOccupancy {
                    replica: i,
                    busy_until_ns: r.committed_ns,
                    outstanding: r.outstanding,
                })
                .collect();
            if occupancy.is_empty() {
                return Err(PodDown);
            }
            let pos = self.routing.choose(&mut guard.route_cursor, &occupancy);
            let mut pick = occupancy[pos].replica;
            if guard.replicas[pick].outstanding >= self.capacity {
                let fallback = occupancy
                    .iter()
                    .filter(|o| o.outstanding < self.capacity)
                    .min_by_key(|o| busyness(o));
                match fallback {
                    Some(o) => pick = o.replica,
                    None => {
                        self.freed.wait(&mut guard);
                        continue;
                    }
                }
            }
            let state = &mut *guard;
            let slow = state.replicas[pick].slow_factor;
            let charge = state.residency.touch(pick, model);
            let cost_ns = us_to_ns(compute_us * slow) + charge.weight_ns;
            let replica = &mut state.replicas[pick];
            replica.committed_ns += cost_ns;
            replica.outstanding += 1;
            return Ok(RouteDecision {
                replica: pick,
                cost_ns,
                weight_ns: charge.weight_ns,
                paged_bytes: charge.paged_bytes,
                epoch: replica.epoch,
            });
        }
    }

    /// Settles one executed batch (called by the worker after the forward
    /// pass). If the routed replica's epoch still matches, the cost is
    /// retired against its clock *and* charged to the model's device tally
    /// in the same critical section — a concurrent snapshot can never see
    /// the two out of step. If the replica crashed since routing (even if
    /// it has already recovered), the reservation is refunded from the dead
    /// clock — including any in-flight weight transfer, whose time and
    /// paged-byte charges the residency manager gives back — and
    /// [`Settle::Stranded`] tells the worker to re-route the batch. Wakes
    /// any router waiting for queue space either way.
    pub fn settle(&self, model: usize, decision: &RouteDecision, requests: usize) -> Settle {
        let outcome = {
            let mut guard = self.state.lock();
            if self.apply_due_events(&mut guard) {
                self.freed.notify_all();
            }
            let guard = &mut *guard;
            let r = &mut guard.replicas[decision.replica];
            r.outstanding -= 1;
            if r.epoch != decision.epoch {
                r.committed_ns -= decision.cost_ns;
                guard.residency.refund(
                    decision.replica,
                    model,
                    &Charge { weight_ns: decision.weight_ns, paged_bytes: decision.paged_bytes },
                );
                Settle::Stranded
            } else {
                r.retired_ns += decision.cost_ns;
                r.batches += 1;
                r.requests += requests as u64;
                guard.model_device_ns[model] += decision.cost_ns;
                Settle::Retired
            }
        };
        self.freed.notify_all();
        outcome
    }

    /// Re-homes a stranded batch onto the least-busy healthy replica,
    /// ignoring queue capacity (the forward pass already ran on the host —
    /// the survivor is charged the simulated re-execution and the cost
    /// settles immediately). The adopting replica pays its own weight
    /// transfer if the model is not resident there — a cold load on a chip
    /// that has never served it, a streaming page-in after an eviction.
    /// Returns `None` when no replica is healthy — the batch's requests are
    /// answered with the pod down error instead.
    pub fn reroute(
        &self,
        model: usize,
        compute_us: f64,
        requests: usize,
    ) -> Option<RerouteDecision> {
        let mut guard = self.state.lock();
        if self.apply_due_events(&mut guard) {
            self.freed.notify_all();
        }
        let pick = guard
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.up && r.enrolled)
            .map(|(i, r)| ReplicaOccupancy {
                replica: i,
                busy_until_ns: r.committed_ns,
                outstanding: r.outstanding,
            })
            .min_by_key(busyness)?
            .replica;
        let state = &mut *guard;
        let slow = state.replicas[pick].slow_factor;
        let charge = state.residency.touch(pick, model);
        let cost_ns = us_to_ns(compute_us * slow) + charge.weight_ns;
        let replica = &mut state.replicas[pick];
        replica.committed_ns += cost_ns;
        replica.retired_ns += cost_ns;
        replica.batches += 1;
        replica.requests += requests as u64;
        replica.retried += 1;
        state.model_device_ns[model] += cost_ns;
        Some(RerouteDecision { replica: pick, cost_ns })
    }

    /// Elastic scale-up: enrolls the lowest-indexed healthy standby into
    /// the routable set and returns its index, or `None` when no standby is
    /// available. The grown replica serves cold unless it was pre-warmed —
    /// its first batch per model pays the priced weight load, which is the
    /// pod's time-to-healthy. Warm-pool replicas are the lowest-indexed
    /// standbys, so they are preferred automatically.
    pub fn grow(&self) -> Option<usize> {
        let mut guard = self.state.lock();
        let idx = guard.replicas.iter().position(|r| r.up && !r.enrolled)?;
        let changed = Self::enroll(&mut guard, idx);
        if changed {
            self.refresh_dead(&guard);
        }
        drop(guard);
        self.freed.notify_all();
        changed.then_some(idx)
    }

    /// Elastic scale-down: gracefully drains the highest-indexed enrolled
    /// replica back to standby and returns its index. Refuses (returns
    /// `None`) when the enrolled count is at or below `min_enrolled` (at
    /// least 1) — the pod never drains itself to zero. Outstanding batches
    /// on the drained replica strand and are refunded + re-routed to
    /// survivors by the workers that settle them.
    pub fn drain(&self, min_enrolled: usize) -> Option<usize> {
        let floor = min_enrolled.max(1);
        let mut guard = self.state.lock();
        if guard.replicas.iter().filter(|r| r.enrolled).count() <= floor {
            return None;
        }
        let idx = guard.replicas.iter().rposition(|r| r.enrolled)?;
        let changed = Self::unenroll(&mut guard, idx);
        if changed {
            self.refresh_dead(&guard);
        }
        drop(guard);
        self.freed.notify_all();
        changed.then_some(idx)
    }

    /// Pre-pays the weight load of every model on up to `count` healthy
    /// standby replicas (the warm pool), so a later [`Pod::grow`] routes
    /// with zero cold-load cost. The load is charged honestly: it lands on
    /// the standby's occupancy clock (committed and retired — the device
    /// genuinely spent that simulated time) and in the per-model device
    /// tally, keeping the replica-vs-model ledgers balanced. Returns the
    /// total simulated ns charged.
    pub fn prewarm_standby(&self, count: usize) -> u64 {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let models = state.model_device_ns.len();
        let mut charged = 0u64;
        let mut warmed = 0usize;
        for idx in 0..state.replicas.len() {
            if warmed >= count {
                break;
            }
            if !state.replicas[idx].up || state.replicas[idx].enrolled {
                continue;
            }
            warmed += 1;
            for model in 0..models {
                let charge = state.residency.touch(idx, model);
                if charge.weight_ns > 0 {
                    let r = &mut state.replicas[idx];
                    r.committed_ns += charge.weight_ns;
                    r.retired_ns += charge.weight_ns;
                    state.model_device_ns[model] += charge.weight_ns;
                    charged += charge.weight_ns;
                }
            }
        }
        charged
    }

    /// Number of replicas currently enrolled for routing (healthy or not).
    pub fn active_replicas(&self) -> usize {
        self.state.lock().replicas.iter().filter(|r| r.enrolled).count()
    }

    /// Applies one fault immediately, outside the plan (tests only).
    #[cfg(test)]
    pub fn inject(&self, kind: FaultKind) {
        let mut guard = self.state.lock();
        if Self::apply_kind(&mut guard, kind) {
            self.refresh_dead(&guard);
        }
        drop(guard);
        self.freed.notify_all();
    }

    /// Point-in-time statistics: per-replica stats, the pod's simulated
    /// makespan (the maximum settled occupancy clock, µs — utilization is
    /// each replica's settled device time over that makespan), and the
    /// per-model device tally, all read under one lock acquisition.
    pub fn stats(&self) -> PodStats {
        let guard = self.state.lock();
        let makespan_us =
            guard.replicas.iter().map(|r| r.retired_ns).max().unwrap_or(0) as f64 / 1e3;
        let replicas = guard
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let device_us = r.retired_ns as f64 / 1e3;
                let res = guard.residency.replica_residency(i);
                ReplicaStats {
                    replica: i,
                    batches: r.batches,
                    requests: r.requests,
                    queue_depth: r.outstanding,
                    device_us,
                    weight_load_us: res.load_ns as f64 / 1e3,
                    cold_loads: res.cold_loads,
                    residency_hits: res.hits,
                    residency_misses: res.misses,
                    evictions: res.evictions,
                    paged_in_bytes: res.paged_in_bytes,
                    paging_us: res.paging_ns as f64 / 1e3,
                    resident_bytes: res.resident_bytes,
                    resident_models: res.resident_models,
                    utilization: if makespan_us > 0.0 { device_us / makespan_us } else { 0.0 },
                    crashes: r.crashes,
                    recoveries: r.recoveries,
                    retried_batches: r.retried,
                    up: r.up,
                    enrolled: r.enrolled,
                    scale_ups: r.scale_ups,
                    drains: r.drains,
                }
            })
            .collect();
        let model_residency =
            (0..guard.model_device_ns.len()).map(|m| guard.residency.model_residency(m)).collect();
        PodStats {
            replicas,
            makespan_us,
            model_device_ns: guard.model_device_ns.clone(),
            model_residency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_ipu::weight_load_seconds;
    use std::sync::Arc;
    use std::time::Duration;

    fn profiles(bytes: &[u64]) -> Vec<ModelProfile> {
        bytes.iter().map(|&b| ModelProfile { weight_bytes: b, tenant: 0 }).collect()
    }

    fn pod_with(
        replicas: usize,
        policy: Routing,
        capacity: usize,
        bytes: &[u64],
        residency: &ResidencyConfig,
        plan: &FaultPlan,
    ) -> Pod {
        Pod::new(
            PodSpec::with_ipus(replicas),
            replicas,
            policy,
            capacity,
            profiles(bytes),
            vec!["default".to_string()],
            residency,
            plan,
        )
    }

    /// A pod with standbys: `active` of `replicas` enrolled at start.
    fn elastic_pod(replicas: usize, active: usize, bytes: &[u64], plan: &FaultPlan) -> Pod {
        Pod::new(
            PodSpec::with_ipus(replicas),
            active,
            Routing::RoundRobin,
            64,
            profiles(bytes),
            vec!["default".to_string()],
            &ResidencyConfig::default(),
            plan,
        )
    }

    fn pod(replicas: usize, policy: Routing, capacity: usize, models: usize) -> Pod {
        pod_with(
            replicas,
            policy,
            capacity,
            &vec![0u64; models],
            &ResidencyConfig::default(),
            &FaultPlan::none(),
        )
    }

    fn occupancy(busy: &[u64]) -> Vec<ReplicaOccupancy> {
        busy.iter()
            .enumerate()
            .map(|(i, &b)| ReplicaOccupancy { replica: i, busy_until_ns: b, outstanding: 0 })
            .collect()
    }

    #[test]
    fn round_robin_cycles_every_replica() {
        let mut cursor = 0;
        let occ = occupancy(&[5, 0, 9, 2]);
        let picks: Vec<usize> =
            (0..8).map(|_| Routing::RoundRobin.choose(&mut cursor, &occ)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn jsq_picks_the_least_busy_clock() {
        let jsq = |occ: &[ReplicaOccupancy]| Routing::JoinShortestQueue.choose(&mut 0, occ);
        assert_eq!(jsq(&occupancy(&[50, 10, 30])), 1);
        assert_eq!(jsq(&occupancy(&[10, 10, 30])), 0, "ties break to the lower index");
        let mut occ = occupancy(&[10, 10]);
        occ[0].outstanding = 3;
        assert_eq!(jsq(&occ), 1, "equal clocks break on outstanding batches");
    }

    #[test]
    fn p2c_always_prefers_the_less_busy_of_its_pair() {
        let mut cursor = 0;
        // One replica is far busier than the rest: p2c must never pick it
        // (whenever it is sampled, its partner is less busy).
        let occ = occupancy(&[1_000_000, 3, 7, 5]);
        for _ in 0..64 {
            assert_ne!(Routing::PowerOfTwoChoices.choose(&mut cursor, &occ), 0);
        }
        assert_eq!(cursor, 64);
        assert_eq!(
            Routing::PowerOfTwoChoices.choose(&mut cursor, &occupancy(&[42])),
            0,
            "single replica short-circuits"
        );
        assert_eq!(cursor, 64, "the short-circuit draws nothing");
    }

    #[test]
    fn zero_cost_batches_pile_up_but_the_floor_spreads_them() {
        // Regression for the zero-cost routing skew: a batch whose IPU
        // estimate was missing used to route at 0 µs, so a
        // settle-as-you-go JSQ loop never advanced any clock and parked
        // every batch on replica 0. The server now always routes at
        // `DeviceEstimate::routed_us()`, which is floored at MIN_ROUTED_US.
        let skewed = pod(3, Routing::JoinShortestQueue, 64, 1);
        for _ in 0..9 {
            let d = skewed.route(0, 0.0).unwrap();
            assert_eq!(d.replica, 0, "zero-cost batches never leave replica 0");
            skewed.settle(0, &d, 1);
        }
        let floored = pod(3, Routing::JoinShortestQueue, 64, 1);
        let mut seen = [0u64; 3];
        for _ in 0..9 {
            let d = floored.route(0, crate::registry::MIN_ROUTED_US).unwrap();
            seen[d.replica] += 1;
            floored.settle(0, &d, 1);
        }
        // An exact even split is not expected — cold replicas also pay the
        // one-time load launch — but every replica must serve.
        assert!(seen.iter().all(|&n| n > 0), "floored batches reach every replica: {seen:?}");
    }

    #[test]
    fn route_balances_and_settle_retires_the_clocks() {
        let p = pod(4, Routing::JoinShortestQueue, 64, 1);
        for _ in 0..16 {
            let d = p.route(0, 100.0).expect("healthy pod routes");
            assert_eq!(p.settle(0, &d, 2), Settle::Retired);
        }
        let stats = p.stats();
        assert_eq!(stats.replicas.iter().map(|r| r.batches).sum::<u64>(), 16);
        assert_eq!(stats.replicas.iter().map(|r| r.requests).sum::<u64>(), 32);
        for r in &stats.replicas {
            assert_eq!(r.batches, 4, "jsq with equal costs is perfectly balanced");
            assert_eq!(r.queue_depth, 0);
            // Replicas 1..3 were cold for the model (zero bytes, but one
            // collective launch = 5 µs each); compute time is even.
            assert!((r.device_us - r.weight_load_us - 400.0).abs() < 1e-9);
            assert!(r.utilization > 0.98 && r.utilization <= 1.0 + 1e-9);
            assert!(r.up);
            assert_eq!((r.crashes, r.recoveries, r.retried_batches), (0, 0, 0));
        }
        assert!((stats.makespan_us - 405.0).abs() < 1e-9, "makespan {}", stats.makespan_us);
        let settled: u64 = stats.model_device_ns.iter().sum();
        let per_replica: f64 = stats.replicas.iter().map(|r| r.device_us).sum();
        assert!((settled as f64 / 1e3 - per_replica).abs() < 1e-9, "tallies agree");
    }

    #[test]
    fn replica_zero_is_warm_and_cold_replicas_pay_the_load_once() {
        let p = pod_with(
            2,
            Routing::RoundRobin,
            64,
            &[4_000_000, 1_000],
            &ResidencyConfig::default(),
            &FaultPlan::none(),
        );
        // Round-robin: batch 0 -> replica 0 (warm), batch 1 -> replica 1 (cold).
        let compute_ns = us_to_ns(10.0);
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        assert_eq!((d0.replica, d1.replica), (0, 1));
        assert_eq!(d0.cost_ns, compute_ns, "replica 0 held the weights at startup");
        let load_ns = us_to_ns(weight_load_seconds(&PodSpec::with_ipus(2), 4_000_000) * 1e6);
        assert!(load_ns > 0);
        assert_eq!(d1.cost_ns, compute_ns + load_ns, "the cold replica pays the link transfer");
        assert_eq!(d1.weight_ns, load_ns);
        // Same model on the now-warm replica 1: no second load.
        p.settle(0, &d0, 1);
        p.settle(0, &d1, 1);
        let d2 = p.route(0, 10.0).unwrap();
        let d3 = p.route(0, 10.0).unwrap();
        assert_eq!(d2.cost_ns, compute_ns);
        assert_eq!(d3.cost_ns, compute_ns);
        // A different model is cold on replica 1 independently.
        p.settle(0, &d2, 1);
        p.settle(0, &d3, 1);
        let d4 = p.route(1, 10.0).unwrap();
        let d5 = p.route(1, 10.0).unwrap();
        assert_eq!(
            [d4, d5].iter().filter(|d| d.cost_ns > compute_ns).count(),
            1,
            "exactly the cold replica pays for model 1"
        );
        let stats = p.stats();
        assert_eq!(stats.replicas[0].cold_loads, 0);
        assert_eq!(stats.replicas[1].cold_loads, 2);
        assert!(stats.replicas[1].weight_load_us > 0.0);
    }

    #[test]
    fn full_pick_falls_back_to_a_replica_with_space() {
        let p = pod(2, Routing::RoundRobin, 1, 1);
        let a = p.route(0, 5.0).unwrap();
        assert_eq!(a.replica, 0);
        // Round-robin would pick 1, which has space.
        let b = p.route(0, 5.0).unwrap();
        assert_eq!(b.replica, 1);
        // Both full now: round-robin picks 0 again — no space anywhere, so
        // this would block; settling from another thread unblocks it.
        let p = Arc::new(p);
        let router = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.route(0, 5.0).unwrap().replica)
        };
        std::thread::sleep(Duration::from_millis(20));
        p.settle(0, &b, 1);
        let picked = router.join().expect("router thread");
        assert_eq!(picked, 1, "the freed replica takes the blocked batch");
        p.settle(0, &a, 1);
    }

    #[test]
    fn routing_parses_from_labels() {
        assert_eq!("rr".parse::<Routing>().unwrap(), Routing::RoundRobin);
        assert_eq!("p2c".parse::<Routing>().unwrap(), Routing::PowerOfTwoChoices);
        assert_eq!("join-shortest-queue".parse::<Routing>().unwrap(), Routing::JoinShortestQueue);
        assert!("nope".parse::<Routing>().is_err());
        assert_eq!(Routing::default(), Routing::PowerOfTwoChoices);
        for r in [Routing::RoundRobin, Routing::PowerOfTwoChoices, Routing::JoinShortestQueue] {
            assert_eq!(r.label().parse::<Routing>(), Ok(r));
        }
    }

    #[test]
    fn crashed_replicas_are_never_routed_to() {
        let p = pod(3, Routing::RoundRobin, 64, 1);
        p.inject(FaultKind::Crash { replica: 1 });
        for _ in 0..12 {
            let d = p.route(0, 5.0).unwrap();
            assert_ne!(d.replica, 1, "round-robin skips the downed replica");
            p.settle(0, &d, 1);
        }
        let stats = p.stats();
        assert!(!stats.replicas[1].up);
        assert_eq!(stats.replicas[1].crashes, 1);
        assert_eq!(stats.replicas[1].batches, 0);
    }

    #[test]
    fn all_replicas_down_returns_pod_down_not_deadlock() {
        let p = pod(2, Routing::PowerOfTwoChoices, 4, 1);
        p.inject(FaultKind::Crash { replica: 0 });
        p.inject(FaultKind::Crash { replica: 1 });
        assert_eq!(p.route(0, 5.0), Err(PodDown));
        assert!(p.is_dead(), "no recovery pending anywhere");
        p.inject(FaultKind::Recover { replica: 1 });
        assert!(!p.is_dead());
        let d = p.route(0, 5.0).unwrap();
        assert_eq!(d.replica, 1);
        p.settle(0, &d, 1);
    }

    #[test]
    fn stranded_batches_are_refunded_and_rerouted() {
        let p = pod_with(
            2,
            Routing::RoundRobin,
            64,
            &[4_000_000],
            &ResidencyConfig::default(),
            &FaultPlan::none(),
        );
        let d0 = p.route(0, 10.0).unwrap();
        assert_eq!(d0.replica, 0);
        p.inject(FaultKind::Crash { replica: 0 });
        // The worker executes the batch, then discovers the crash.
        assert_eq!(p.settle(0, &d0, 3), Settle::Stranded);
        let r = p.reroute(0, 10.0, 3).expect("replica 1 survives");
        assert_eq!(r.replica, 1);
        assert!(r.cost_ns > us_to_ns(10.0), "the survivor pays its own cold load");
        let stats = p.stats();
        assert_eq!(stats.replicas[0].batches, 0, "nothing retired on the dead clock");
        assert!(
            (stats.replicas[0].device_us, stats.replicas[0].weight_load_us) == (0.0, 0.0),
            "the refund drained the reservation"
        );
        assert_eq!(stats.replicas[1].retried_batches, 1);
        assert_eq!(stats.replicas[1].requests, 3);
        let settled: u64 = stats.model_device_ns.iter().sum();
        assert_eq!(settled, r.cost_ns, "model tally only holds the survivor's charge");
    }

    #[test]
    fn recovery_resets_residency_so_cold_load_is_paid_again() {
        let p = pod_with(
            2,
            Routing::RoundRobin,
            64,
            &[4_000_000],
            &ResidencyConfig::default(),
            &FaultPlan::none(),
        );
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        p.settle(0, &d0, 1);
        p.settle(0, &d1, 1);
        assert_eq!(p.stats().replicas[1].cold_loads, 1, "first visit was cold");
        p.inject(FaultKind::Crash { replica: 1 });
        p.inject(FaultKind::Recover { replica: 1 });
        // Warm-up batch on replica 0, then round-robin lands on replica 1,
        // which must re-pay the load it lost with its SRAM.
        let d2 = p.route(0, 10.0).unwrap();
        let d3 = p.route(0, 10.0).unwrap();
        assert_eq!((d2.replica, d3.replica), (0, 1));
        assert!(d3.weight_ns > 0, "recovered replica is cold again");
        p.settle(0, &d2, 1);
        p.settle(0, &d3, 1);
        let stats = p.stats();
        assert_eq!(stats.replicas[1].cold_loads, 2);
        assert_eq!(stats.replicas[1].recoveries, 1);
    }

    #[test]
    fn slow_factor_scales_compute_and_resets_on_crash() {
        let p = pod(2, Routing::RoundRobin, 64, 1);
        p.inject(FaultKind::Slow { replica: 0, factor: 3.0 });
        let d0 = p.route(0, 10.0).unwrap();
        assert_eq!(d0.replica, 0);
        assert_eq!(d0.cost_ns, us_to_ns(30.0), "degraded replica is 3x slower");
        p.settle(0, &d0, 1);
        p.inject(FaultKind::Crash { replica: 0 });
        p.inject(FaultKind::Recover { replica: 0 });
        let d1 = p.route(0, 10.0).unwrap();
        let d2 = p.route(0, 10.0).unwrap();
        let on_zero = if d1.replica == 0 { d1 } else { d2 };
        // Compute portion only: the recovered chip also re-pays the cold
        // weight-load launch, which is deliberate and covered elsewhere.
        assert_eq!(
            on_zero.cost_ns - on_zero.weight_ns,
            us_to_ns(10.0),
            "the replacement chip runs at full speed"
        );
        p.settle(0, &d1, 1);
        p.settle(0, &d2, 1);
    }

    #[test]
    fn planned_crash_fires_when_the_simulated_clock_passes_it() {
        let plan = FaultPlan::none().crash_at(25.0, 1);
        let p = pod_with(2, Routing::RoundRobin, 64, &[0], &ResidencyConfig::default(), &plan);
        // 10 µs presented: clock 10 000 ns < 25 000 ns, replica 1 still up.
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        assert_eq!((d0.replica, d1.replica), (0, 1));
        // Third batch pushes the clock to 30 µs: the crash fires before
        // routing, so round-robin's pick is drawn from {0} only.
        let d2 = p.route(0, 10.0).unwrap();
        assert_eq!(d2.replica, 0);
        assert!(!p.stats().replicas[1].up);
        for d in [d0, d2] {
            p.settle(0, &d, 1);
        }
        assert_eq!(p.settle(0, &d1, 1), Settle::Stranded, "outstanding batch was stranded");
    }

    #[test]
    fn blocked_route_survives_a_crash_without_deadlock() {
        // Capacity 1, both replicas full, then replica 0 crashes while a
        // third route is blocked: the blocked call must complete (on the
        // survivor) once the stranded batch refunds its slot.
        let p = Arc::new(pod(2, Routing::RoundRobin, 1, 1));
        let a = p.route(0, 5.0).unwrap();
        let b = p.route(0, 5.0).unwrap();
        assert_eq!((a.replica, b.replica), (0, 1));
        let router = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.route(0, 5.0))
        };
        std::thread::sleep(Duration::from_millis(20));
        p.inject(FaultKind::Crash { replica: 0 });
        // The worker discovers the strand; the refund frees no *healthy*
        // slot, so the router keeps waiting until replica 1 settles.
        assert_eq!(p.settle(0, &a, 1), Settle::Stranded);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.settle(0, &b, 1), Settle::Retired);
        let d = router.join().expect("router thread").expect("survivor routes");
        assert_eq!(d.replica, 1, "the blocked batch lands on the survivor");
        p.settle(0, &d, 1);
    }

    #[test]
    fn blocked_route_returns_pod_down_when_the_last_replica_dies() {
        let p = Arc::new(pod(1, Routing::RoundRobin, 1, 1));
        let a = p.route(0, 5.0).unwrap();
        let router = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.route(0, 5.0))
        };
        std::thread::sleep(Duration::from_millis(20));
        p.inject(FaultKind::Crash { replica: 0 });
        assert_eq!(router.join().expect("router thread"), Err(PodDown));
        assert_eq!(p.settle(0, &a, 1), Settle::Stranded);
        assert!(p.reroute(0, 5.0, 1).is_none(), "no survivor to adopt the batch");
        assert!(p.is_dead());
    }

    #[test]
    fn utilization_is_zero_when_nothing_has_settled() {
        let p = pod(3, Routing::JoinShortestQueue, 64, 1);
        let stats = p.stats();
        assert_eq!(stats.makespan_us, 0.0);
        for r in &stats.replicas {
            assert_eq!(r.utilization, 0.0, "no division by a zero makespan");
        }
        // Routed but unsettled work still shows a zero makespan (it is
        // committed, not settled) — utilization stays finite.
        let d = p.route(0, 50.0).unwrap();
        let stats = p.stats();
        assert_eq!(stats.makespan_us, 0.0);
        assert!(stats.replicas.iter().all(|r| r.utilization == 0.0));
        p.settle(0, &d, 1);
    }

    #[test]
    fn finite_budget_evicts_and_pages_instead_of_free_reloads() {
        // Two 1 KB models under a 1 KB budget on one replica: only one can
        // be resident, so alternating touches page through streaming memory.
        let p = pod_with(
            1,
            Routing::RoundRobin,
            64,
            &[1_000, 1_000],
            &ResidencyConfig::with_budget(1_000),
            &FaultPlan::none(),
        );
        // Prewarm fit model 0 only; model 1's first touch is an IPU-Link
        // cold load that evicts model 0.
        let d1 = p.route(1, 10.0).unwrap();
        assert!(d1.weight_ns > 0, "first-ever load pays the link transfer");
        assert_eq!(d1.paged_bytes, 0, "a cold load is not a page-in");
        p.settle(1, &d1, 1);
        // Model 0 was loaded at prewarm, so its return is a streaming
        // page-in, not a second cold load.
        let d0 = p.route(0, 10.0).unwrap();
        assert_eq!(d0.paged_bytes, 1_000, "reload after eviction pages from streaming memory");
        assert!(d0.weight_ns > 0);
        p.settle(0, &d0, 1);
        let stats = p.stats();
        let r = &stats.replicas[0];
        assert_eq!(r.cold_loads, 1, "only model 1's first load was cold");
        assert_eq!(r.evictions, 2, "each admission under pressure evicted the other model");
        assert_eq!(r.paged_in_bytes, 1_000);
        assert!(r.paging_us > 0.0);
        assert_eq!(r.resident_bytes, 1_000, "exactly one model fits");
        assert_eq!(r.resident_models, 1);
        assert_eq!(stats.model_residency[0].paged_in_bytes, 1_000);
        assert_eq!(stats.model_residency[1].paged_in_bytes, 0);
    }

    #[test]
    fn crash_during_page_in_refunds_the_paging_ledger() {
        // A crash strands a batch whose charge was a streaming page-in: the
        // refund must give back both the simulated time and the paged
        // bytes, leaving the byte ledger consistent.
        let p = pod_with(
            1,
            Routing::RoundRobin,
            64,
            &[600, 600],
            &ResidencyConfig::with_budget(600),
            &FaultPlan::none(),
        );
        let d1 = p.route(1, 10.0).unwrap();
        assert_eq!(p.settle(1, &d1, 1), Settle::Retired);
        let link_us = p.stats().replicas[0].weight_load_us;
        assert!(link_us > 0.0, "model 1's cold load retired normally");
        // Model 0 pages back in (it was prewarmed, then evicted) — and the
        // replica crashes before the batch settles.
        let d0 = p.route(0, 10.0).unwrap();
        assert_eq!(d0.paged_bytes, 600);
        p.inject(FaultKind::Crash { replica: 0 });
        assert_eq!(p.settle(0, &d0, 1), Settle::Stranded);
        let stats = p.stats();
        let r = &stats.replicas[0];
        assert_eq!(r.paged_in_bytes, 0, "the stranded page-in was refunded");
        assert_eq!(r.paging_us, 0.0);
        assert!(
            (r.weight_load_us - link_us).abs() < 1e-9,
            "only the retired cold load remains on the weight ledger"
        );
        assert_eq!(stats.model_residency[0].paged_in_bytes, 0);
        assert_eq!(r.resident_bytes, 0, "the crash wiped SRAM");
        assert_eq!(r.resident_models, 0);
    }

    #[test]
    fn unlimited_residency_matches_the_pre_residency_costs() {
        // With the default (no budget) config nothing is ever evicted or
        // paged: every miss is a one-time IPU-Link cold load, replica 0 is
        // fully warm — the original pod behaviour.
        let p = pod_with(
            2,
            Routing::RoundRobin,
            64,
            &[4_000_000, 1_000],
            &ResidencyConfig::default(),
            &FaultPlan::none(),
        );
        for model in 0..2 {
            // Four round-robin routes land each model on both replicas.
            for _ in 0..4 {
                let d = p.route(model, 10.0).unwrap();
                assert_eq!(d.paged_bytes, 0, "nothing pages without a budget");
                p.settle(model, &d, 1);
            }
        }
        let stats = p.stats();
        assert_eq!(stats.replicas[0].cold_loads, 0);
        assert_eq!(stats.replicas[1].cold_loads, 2, "one cold load per model, ever");
        assert!(stats.replicas.iter().all(|r| r.evictions == 0 && r.paged_in_bytes == 0));
        assert_eq!(stats.replicas[0].resident_models, 2);
    }

    #[test]
    fn standby_replicas_are_invisible_until_grown() {
        let p = elastic_pod(3, 1, &[0], &FaultPlan::none());
        assert_eq!(p.active_replicas(), 1);
        for _ in 0..6 {
            let d = p.route(0, 5.0).unwrap();
            assert_eq!(d.replica, 0, "standbys never routed to");
            p.settle(0, &d, 1);
        }
        assert_eq!(p.grow(), Some(1), "lowest-indexed standby enrolls first");
        assert_eq!(p.active_replicas(), 2);
        let mut seen = [0u64; 3];
        for _ in 0..6 {
            let d = p.route(0, 5.0).unwrap();
            seen[d.replica] += 1;
            p.settle(0, &d, 1);
        }
        assert_eq!(seen[2], 0, "replica 2 is still a standby");
        assert!(seen[1] > 0, "the grown replica serves");
        let stats = p.stats();
        assert!(stats.replicas[1].enrolled && stats.replicas[1].scale_ups == 1);
        assert!(!stats.replicas[2].enrolled);
    }

    #[test]
    fn grow_pays_the_cold_load_as_time_to_healthy() {
        let p = elastic_pod(2, 1, &[4_000_000], &FaultPlan::none());
        let warm = p.route(0, 10.0).unwrap();
        assert_eq!((warm.replica, warm.weight_ns), (0, 0), "replica 0 starts warm");
        p.settle(0, &warm, 1);
        assert_eq!(p.grow(), Some(1));
        // Round-robin over {0, 1}: one of the next two routes lands on the
        // grown replica, whose first batch carries the full weight load.
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        let grown = if d0.replica == 1 { d0 } else { d1 };
        assert_eq!([d0.replica, d1.replica].iter().filter(|&&r| r == 1).count(), 1);
        let load_ns = us_to_ns(weight_load_seconds(&PodSpec::with_ipus(2), 4_000_000) * 1e6);
        assert_eq!(grown.weight_ns, load_ns, "the grown replica serves cold");
        p.settle(0, &d0, 1);
        p.settle(0, &d1, 1);
        let stats = p.stats();
        assert!((stats.replicas[1].weight_load_us - load_ns as f64 / 1e3).abs() < 1e-9);
        assert_eq!(stats.replicas[1].cold_loads, 1);
    }

    #[test]
    fn drain_strands_outstanding_batches_without_counting_a_crash() {
        let p = elastic_pod(2, 2, &[0], &FaultPlan::none());
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        assert_eq!((d0.replica, d1.replica), (0, 1));
        assert_eq!(p.drain(1), Some(1), "highest-indexed enrolled replica drains");
        assert_eq!(p.drain(1), None, "the floor refuses a second drain");
        // The worker executing the drained replica's batch discovers the
        // strand at settle time, exactly like a crash.
        assert_eq!(p.settle(0, &d1, 2), Settle::Stranded);
        let r = p.reroute(0, 10.0, 2).expect("replica 0 survives");
        assert_eq!(r.replica, 0);
        assert_eq!(p.settle(0, &d0, 1), Settle::Retired);
        let stats = p.stats();
        assert_eq!(stats.replicas[1].crashes, 0, "a drain is not a crash");
        assert_eq!(stats.replicas[1].drains, 1);
        assert!(stats.replicas[1].up && !stats.replicas[1].enrolled);
        assert_eq!(stats.replicas[1].device_us, 0.0, "the refund drained the reservation");
        assert_eq!(stats.replicas[0].retried_batches, 1);
        // The drained replica can come back — cold, since its SRAM was
        // released with the device.
        assert_eq!(p.grow(), Some(1));
        assert_eq!(p.stats().replicas[1].scale_ups, 1);
    }

    #[test]
    fn prewarm_standby_prepays_the_load_so_growth_is_instant() {
        let p = elastic_pod(3, 1, &[4_000_000], &FaultPlan::none());
        let charged = p.prewarm_standby(1);
        let load_ns = us_to_ns(weight_load_seconds(&PodSpec::with_ipus(3), 4_000_000) * 1e6);
        assert_eq!(charged, load_ns, "one standby, one model, one cold load");
        assert_eq!(p.prewarm_standby(1), 0, "already warm: nothing more to pay");
        assert_eq!(p.grow(), Some(1));
        let d0 = p.route(0, 10.0).unwrap();
        let d1 = p.route(0, 10.0).unwrap();
        assert_eq!((d0.replica, d1.replica), (0, 1));
        assert_eq!(d1.weight_ns, 0, "the warm-pool replica serves with zero cold load");
        p.settle(0, &d0, 1);
        p.settle(0, &d1, 1);
        let stats = p.stats();
        // The pre-paid load sits honestly on the standby's clock and in the
        // model tally, so the two ledgers still agree.
        assert!((stats.replicas[1].weight_load_us - load_ns as f64 / 1e3).abs() < 1e-9);
        let settled: u64 = stats.model_device_ns.iter().sum();
        let per_replica: f64 = stats.replicas.iter().map(|r| r.device_us).sum();
        assert!((settled as f64 / 1e3 - per_replica).abs() < 1e-9, "tallies agree after prewarm");
    }

    #[test]
    fn planned_scale_events_fire_on_the_simulated_clock() {
        let plan = FaultPlan::none().grow_at(25.0, 1).drain_at(55.0, 1);
        let p = elastic_pod(2, 1, &[0], &plan);
        // Clock 10 µs: growth has not fired, only replica 0 routes.
        let d0 = p.route(0, 10.0).unwrap();
        assert_eq!(d0.replica, 0);
        p.settle(0, &d0, 1);
        // Clock 30 µs: the grow fires before routing; round-robin now
        // alternates over {0, 1}.
        let d1 = p.route(0, 20.0).unwrap();
        let d2 = p.route(0, 20.0).unwrap();
        assert_eq!([d1.replica, d2.replica].iter().filter(|&&r| r == 1).count(), 1);
        p.settle(0, &d1, 1);
        p.settle(0, &d2, 1);
        // Clock 70 µs: the drain fires; replica 1 is a standby again.
        let d3 = p.route(0, 20.0).unwrap();
        let d4 = p.route(0, 20.0).unwrap();
        assert_eq!((d3.replica, d4.replica), (0, 0));
        p.settle(0, &d3, 1);
        p.settle(0, &d4, 1);
        let stats = p.stats();
        assert_eq!((stats.replicas[1].scale_ups, stats.replicas[1].drains), (1, 1));
        assert!(!stats.replicas[1].enrolled);
    }

    #[test]
    fn pod_with_only_standbys_left_is_not_dead() {
        let p = elastic_pod(2, 1, &[0], &FaultPlan::none());
        p.inject(FaultKind::Crash { replica: 0 });
        assert_eq!(p.route(0, 5.0), Err(PodDown), "no enrolled replica to route to");
        assert!(!p.is_dead(), "a healthy standby keeps the pod revivable");
        assert_eq!(p.grow(), Some(1));
        let d = p.route(0, 5.0).unwrap();
        assert_eq!(d.replica, 1);
        p.settle(0, &d, 1);
        p.inject(FaultKind::Crash { replica: 1 });
        assert!(p.is_dead(), "every replica down, nothing left to enroll");
    }

    #[test]
    fn grow_skips_crashed_standbys_and_drain_respects_the_floor() {
        let p = elastic_pod(3, 1, &[0], &FaultPlan::none());
        p.inject(FaultKind::Crash { replica: 1 });
        assert_eq!(p.grow(), Some(2), "the crashed standby is skipped");
        assert_eq!(p.grow(), None, "no healthy standby left");
        assert_eq!(p.drain(2), None, "floor above enrolled count refuses");
        assert_eq!(p.drain(0), Some(2), "floor clamps to at least one enrolled replica");
        assert_eq!(p.drain(0), None, "never drains the last enrolled replica");
    }
}
