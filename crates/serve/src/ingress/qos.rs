//! Per-tenant QoS between frame decode and admission: token-bucket rate
//! limiting plus deficit-round-robin (DRR) weighted-fair scheduling across
//! the interactive/batch classes.
//!
//! Decoded requests land in one of two bounded class queues. A single
//! scheduler thread drains them in DRR order — `interactive_weight`
//! requests per `batch_weight` when both classes are backlogged — so a
//! flooding batch tenant cannot starve interactive traffic: the
//! interactive class keeps its configured share of admission slots no
//! matter how deep the batch queue grows. Tenants over their token-bucket
//! rate are *answered* [`crate::ServedFrom::Throttled`], never silently
//! dropped; a full class queue throttles the same way.

use crate::config::{QosConfig, RateLimit};
use crate::payload::Payload;
use crate::request::InferResponse;
use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

pub use super::codec::QosClass;

/// A classic token bucket: `rate` tokens per second refill up to a depth
/// of `burst`; each admission takes one token. A `rate` of 0.0 never
/// refills, so exactly `burst` requests are ever admitted — which makes
/// throttle behaviour deterministic for tests regardless of timing.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket as of `now`.
    pub fn new(limit: RateLimit, now: Instant) -> Self {
        Self { tokens: limit.burst, rate: limit.rate_per_s, burst: limit.burst, last: now }
    }

    /// Takes one token if available, refilling for the time since the last
    /// call first.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Deficit round robin over the two classes with unit request cost.
///
/// Each class accrues its quantum (= configured weight) when the scheduler
/// rotates onto it and spends one deficit per dispatched request; an empty
/// class forfeits its deficit, so a previously idle class cannot burst
/// beyond its weight when it returns. With both classes backlogged the
/// dispatch ratio converges to `quantum[0] : quantum[1]` exactly.
#[derive(Debug)]
pub(crate) struct Drr {
    quantum: [u32; 2],
    deficit: [u32; 2],
    current: usize,
}

impl Drr {
    pub(crate) fn new(interactive_weight: u32, batch_weight: u32) -> Self {
        assert!(interactive_weight > 0 && batch_weight > 0, "DRR weights must be positive");
        Self { quantum: [interactive_weight, batch_weight], deficit: [0, 0], current: 0 }
    }

    /// Picks the class to serve next given which classes have work.
    /// Deterministic; at most three rotations per call (each rotation adds
    /// a positive quantum, so a nonempty class is always reachable).
    pub(crate) fn pick(&mut self, nonempty: [bool; 2]) -> Option<usize> {
        if !nonempty[0] && !nonempty[1] {
            return None;
        }
        loop {
            let c = self.current;
            if nonempty[c] {
                if self.deficit[c] >= 1 {
                    self.deficit[c] -= 1;
                    return Some(c);
                }
            } else {
                self.deficit[c] = 0;
            }
            self.current = 1 - c;
            self.deficit[self.current] =
                self.deficit[self.current].saturating_add(self.quantum[self.current]);
        }
    }
}

/// A decoded, rate-admitted request waiting for an admission slot.
pub struct Job {
    /// Scheduling class the frame declared.
    pub class: QosClass,
    /// Target model.
    pub model: String,
    /// Tenant billed for the request.
    pub tenant: String,
    /// Echoed client id.
    pub client: u64,
    /// Echoed sequence number.
    pub seq: u64,
    /// Effective deadline (frame deadline, else class default, else the
    /// server default applied at submit).
    pub deadline: Option<Duration>,
    /// Shared input payload — still referencing the transport read segment.
    pub payload: Payload,
    /// Where the response goes: the per-request slot the connection's
    /// writer drains in arrival order.
    pub reply: Sender<InferResponse>,
}

/// Outcome of [`QosQueue::enqueue`].
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted; `waited_behind` requests were queued ahead of it.
    Queued {
        /// Depth of both class queues at admission.
        waited_behind: usize,
    },
    /// The tenant's token bucket was empty.
    Throttled,
    /// The class queue is at capacity.
    Full,
    /// The queue has been stopped; nothing is accepted any more.
    Stopped,
}

/// Outcome of [`QosQueue::dequeue`].
pub enum Dequeued {
    /// The next job in DRR order.
    Job(Job),
    /// No work arrived within the timeout.
    TimedOut,
    /// Stopped *and* drained: the scheduler can exit.
    Stopped,
}

struct QosState {
    queues: [VecDeque<Job>; 2],
    buckets: HashMap<String, TokenBucket>,
    drr: Drr,
    stopped: bool,
}

impl QosState {
    fn take_token(
        &mut self,
        tenant: &str,
        rates: &HashMap<String, RateLimit>,
        default_rate: Option<RateLimit>,
        now: Instant,
    ) -> bool {
        let Some(limit) = rates.get(tenant).copied().or(default_rate) else {
            return true;
        };
        self.buckets
            .entry(tenant.to_string())
            .or_insert_with(|| TokenBucket::new(limit, now))
            .try_take(now)
    }
}

/// The two class queues plus their scheduler state, shared between the
/// per-connection reader threads (producers) and the one scheduler thread
/// (consumer).
pub struct QosQueue {
    state: Mutex<QosState>,
    cond: Condvar,
    capacity: usize,
    rates: HashMap<String, RateLimit>,
    default_rate: Option<RateLimit>,
}

impl QosQueue {
    /// Builds the queue from a validated config.
    pub fn new(config: &QosConfig) -> Self {
        Self {
            state: Mutex::new(QosState {
                queues: [VecDeque::new(), VecDeque::new()],
                buckets: HashMap::new(),
                drr: Drr::new(config.interactive_weight, config.batch_weight),
                stopped: false,
            }),
            cond: Condvar::new(),
            capacity: config.class_queue_capacity,
            rates: config.tenant_rates.iter().cloned().collect(),
            default_rate: config.default_rate,
        }
    }

    /// Rate-checks and queues one job.
    pub fn enqueue(&self, job: Job, now: Instant) -> EnqueueOutcome {
        let mut state = self.state.lock();
        if state.stopped {
            return EnqueueOutcome::Stopped;
        }
        if !state.take_token(&job.tenant, &self.rates, self.default_rate, now) {
            return EnqueueOutcome::Throttled;
        }
        let class = job.class.index();
        if state.queues[class].len() >= self.capacity {
            return EnqueueOutcome::Full;
        }
        let waited_behind = state.queues[0].len() + state.queues[1].len();
        state.queues[class].push_back(job);
        self.cond.notify_one();
        EnqueueOutcome::Queued { waited_behind }
    }

    /// Takes the next job in DRR order, waiting up to `timeout`. After
    /// [`QosQueue::stop`], keeps returning queued jobs until both queues
    /// drain, then reports [`Dequeued::Stopped`].
    pub fn dequeue(&self, timeout: Duration) -> Dequeued {
        // No representable instant (a `Duration::MAX` timeout) means no bound.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.state.lock();
        loop {
            let nonempty = [!state.queues[0].is_empty(), !state.queues[1].is_empty()];
            if let Some(class) = state.drr.pick(nonempty) {
                let job = state.queues[class].pop_front().expect("picked class has work");
                return Dequeued::Job(job);
            }
            if state.stopped {
                return Dequeued::Stopped;
            }
            match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Dequeued::TimedOut;
                    }
                    self.cond.wait_for(&mut state, deadline - now);
                }
                None => self.cond.wait(&mut state),
            }
        }
    }

    /// Puts a job back at the *front* of its class queue — the retry path
    /// when the server sheds an admission attempt. The single scheduler
    /// thread is the only caller, so FIFO order within the class holds.
    pub fn requeue_front(&self, job: Job) {
        let mut state = self.state.lock();
        let class = job.class.index();
        state.queues[class].push_front(job);
        self.cond.notify_one();
    }

    /// Current depth of each class queue.
    pub fn depths(&self) -> [usize; 2] {
        let state = self.state.lock();
        [state.queues[0].len(), state.queues[1].len()]
    }

    /// Stops the queue: new enqueues are refused, and `dequeue` drains what
    /// remains before reporting [`Dequeued::Stopped`].
    pub fn stop(&self) {
        self.state.lock().stopped = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    fn job(class: QosClass, tenant: &str, seq: u64) -> Job {
        let (reply, _rx) = channel::unbounded();
        // The receiver is dropped: these tests exercise scheduling, not
        // response delivery.
        Job {
            class,
            model: "butterfly".to_string(),
            tenant: tenant.to_string(),
            client: 0,
            seq,
            deadline: None,
            payload: Payload::empty(),
            reply,
        }
    }

    #[test]
    fn drr_ratio_matches_weights_when_backlogged() {
        let mut drr = Drr::new(8, 1);
        let mut picks = [0u32; 2];
        for _ in 0..900 {
            picks[drr.pick([true, true]).expect("work available")] += 1;
        }
        assert_eq!(picks[0], 800, "interactive share under 8:1");
        assert_eq!(picks[1], 100, "batch share under 8:1");
    }

    #[test]
    fn drr_serves_the_only_nonempty_class() {
        let mut drr = Drr::new(8, 1);
        for _ in 0..50 {
            assert_eq!(drr.pick([false, true]), Some(1));
        }
        assert_eq!(drr.pick([false, false]), None);
    }

    #[test]
    fn idle_class_cannot_bank_deficit_for_a_burst() {
        let mut drr = Drr::new(2, 2);
        // Batch runs alone for a while; interactive deficit must be forfeit.
        for _ in 0..40 {
            assert_eq!(drr.pick([false, true]), Some(1));
        }
        // When interactive returns, the split reverts to the 1:1 weights
        // rather than interactive burning banked credit.
        let mut picks = [0u32; 2];
        for _ in 0..100 {
            picks[drr.pick([true, true]).expect("work")] += 1;
        }
        assert!(picks[0] <= 52, "no banked burst: {picks:?}");
    }

    #[test]
    fn queue_is_fifo_within_a_class() {
        let q = QosQueue::new(&QosConfig::default());
        let now = Instant::now();
        for seq in 0..5 {
            let outcome = q.enqueue(job(QosClass::Interactive, "t", seq), now);
            assert!(matches!(outcome, EnqueueOutcome::Queued { .. }));
        }
        for expect in 0..5 {
            let Dequeued::Job(j) = q.dequeue(Duration::from_millis(10)) else {
                panic!("queued job available")
            };
            assert_eq!(j.seq, expect);
        }
    }

    #[test]
    fn zero_rate_bucket_admits_exactly_burst() {
        let config = QosConfig {
            default_rate: Some(RateLimit::per_second(0.0, 3.0)),
            ..QosConfig::default()
        };
        let q = QosQueue::new(&config);
        let now = Instant::now();
        let mut admitted = 0;
        let mut throttled = 0;
        for seq in 0..10 {
            match q.enqueue(job(QosClass::Batch, "flooder", seq), now) {
                EnqueueOutcome::Queued { .. } => admitted += 1,
                EnqueueOutcome::Throttled => throttled += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(admitted, 3, "a never-refilling bucket admits its burst");
        assert_eq!(throttled, 7);
    }

    #[test]
    fn tenant_override_beats_default_rate() {
        let config = QosConfig {
            default_rate: Some(RateLimit::per_second(0.0, 1.0)),
            tenant_rates: vec![("vip".to_string(), RateLimit::per_second(0.0, 5.0))],
            ..QosConfig::default()
        };
        let q = QosQueue::new(&config);
        let now = Instant::now();
        let vip_admitted = (0..8)
            .filter(|&s| {
                matches!(
                    q.enqueue(job(QosClass::Interactive, "vip", s), now),
                    EnqueueOutcome::Queued { .. }
                )
            })
            .count();
        assert_eq!(vip_admitted, 5);
    }

    #[test]
    fn full_class_queue_reports_full_not_drop() {
        let config = QosConfig { class_queue_capacity: 2, ..QosConfig::default() };
        let q = QosQueue::new(&config);
        let now = Instant::now();
        assert!(matches!(
            q.enqueue(job(QosClass::Batch, "t", 0), now),
            EnqueueOutcome::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(job(QosClass::Batch, "t", 1), now),
            EnqueueOutcome::Queued { .. }
        ));
        assert_eq!(q.enqueue(job(QosClass::Batch, "t", 2), now), EnqueueOutcome::Full);
        // The other class has its own capacity.
        assert!(matches!(
            q.enqueue(job(QosClass::Interactive, "t", 3), now),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn stop_drains_then_reports_stopped() {
        let q = QosQueue::new(&QosConfig::default());
        let now = Instant::now();
        q.enqueue(job(QosClass::Interactive, "t", 0), now);
        q.enqueue(job(QosClass::Batch, "t", 1), now);
        q.stop();
        assert!(matches!(
            q.enqueue(job(QosClass::Interactive, "t", 2), now),
            EnqueueOutcome::Stopped
        ));
        assert!(matches!(q.dequeue(Duration::from_millis(10)), Dequeued::Job(_)));
        // A timeout past every representable instant means no bound.
        assert!(matches!(q.dequeue(Duration::MAX), Dequeued::Job(_)));
        assert!(matches!(q.dequeue(Duration::MAX), Dequeued::Stopped));
    }

    #[test]
    fn requeue_front_preserves_retry_order() {
        let q = QosQueue::new(&QosConfig::default());
        let now = Instant::now();
        q.enqueue(job(QosClass::Batch, "t", 0), now);
        q.enqueue(job(QosClass::Batch, "t", 1), now);
        let Dequeued::Job(first) = q.dequeue(Duration::from_millis(10)) else { panic!("job") };
        assert_eq!(first.seq, 0);
        q.requeue_front(first);
        let Dequeued::Job(again) = q.dequeue(Duration::from_millis(10)) else { panic!("job") };
        assert_eq!(again.seq, 0, "a shed retry goes back to the head, not the tail");
    }
}
