//! The one runner behind every serving experiment in this crate.
//!
//! [`serve`] is one run: it starts a [`Server`], offers it a [`LoadPlan`],
//! shuts it down and returns a [`Run`]. The run's [`Wall`] section holds
//! what the host measured and its [`Sim`] section what the simulated pod
//! priced; no field or ratio mixes the two. [`rotate`] repeats every arm of
//! an experiment, rotating which arm goes first, and [`summary`] records an
//! arm as the median and quartiles of each metric over its trials, by
//! [`crate::stats::quartiles`]. [`ratio`] compares two arms only at equal
//! acceptance: when every trial of both served every request it meant to
//! send. Otherwise it records how much of its load each arm served, and no
//! ratio.

use crate::stats;
use bfly_serve::{
    Arrivals, AutoscaleReport, LoadPlan, LoadReport, ModelSource, ReplicaStats, ServeConfig,
    ServeSnapshot, Server,
};
use serde::Serialize;
use serde_json::Value;
use std::fmt;

/// Trials per arm in a full run. Most serving runs last milliseconds to a
/// few seconds, so eleven cost little.
pub const TRIALS: usize = 11;

/// Trials per arm: [`TRIALS`], or one in a smoke run.
pub fn trials(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        TRIALS
    }
}

/// What the host measured in one run, read from its [`LoadReport`].
#[derive(Debug, Clone, Serialize)]
pub struct Wall {
    /// Requests the plan meant to send.
    pub intended: u64,
    /// Submissions, including a closed loop's retries of shed requests.
    pub offered: u64,
    /// Submissions the server admitted.
    pub admitted: u64,
    /// Submissions shed at admission.
    pub shed: u64,
    /// Requests answered successfully.
    pub succeeded: u64,
    /// Requests that failed: past their deadline, or with the pod down.
    pub failed: u64,
    /// `succeeded` over `intended`: 1 when the run served its whole load.
    pub success_rate: f64,
    /// Successful responses per wall-clock second.
    pub throughput_rps: f64,
    /// Latency quantiles of the successful responses, microseconds.
    pub latency_p50_us: u64,
    /// 95th percentile.
    pub latency_p95_us: u64,
    /// 99th percentile.
    pub latency_p99_us: u64,
    /// Mean micro-batch size the successful responses were served in.
    pub mean_batch: f64,
}

/// What the simulated pod priced in one run.
#[derive(Debug, Clone, Serialize)]
pub struct Sim {
    /// The busiest replica's occupancy clock, µs.
    pub makespan_us: f64,
    /// Device µs retired across the pod, weight loads included.
    pub device_us: f64,
    /// The part of `device_us` spent loading weights.
    pub weight_load_us: f64,
    /// Cold weight loads, re-warms after a recovery included.
    pub cold_loads: u64,
    /// Replica crashes.
    pub crashes: u64,
    /// Replica recoveries.
    pub recoveries: u64,
    /// Batches stranded by a crash and re-run on a survivor.
    pub retried_batches: u64,
    /// Standbys enrolled by elastic scale-up.
    pub scale_ups: u64,
    /// Replicas drained back to standby.
    pub drains: u64,
    /// Successful responses per simulated second of makespan. It moves
    /// with the run's batch sizes: every batch pays the IPU's fixed
    /// per-batch cost.
    pub throughput_rps: f64,
    /// `device_us` over `makespan_us`: the mean number of busy replicas,
    /// at most the pod size.
    pub scaling: f64,
    /// The least busy replica's device µs over the makespan.
    pub min_utilization: f64,
    /// Median simulated per-batch latency of the successful responses, µs.
    pub batch_p50_us: f64,
    /// 99th percentile.
    pub batch_p99_us: f64,
    /// Successful responses whose simulated batch latency exceeded the
    /// plan's SLO.
    pub slo_misses: u64,
}

/// One run's result: wall-clock and simulated quantities apart.
#[derive(Debug, Clone, Serialize)]
pub struct Run {
    /// Host wall-clock measurements.
    pub wall: Wall,
    /// Simulated pod quantities.
    pub sim: Sim,
}

/// Requests a plan means to send.
fn intended(arrivals: &Arrivals) -> u64 {
    match arrivals {
        Arrivals::Poisson { total, .. } => *total,
        Arrivals::Trace(offsets) => offsets.len() as u64,
        Arrivals::Closed { clients, per_client } => clients * per_client,
    }
}

impl Run {
    fn new(intended: u64, load: &LoadReport, snapshot: &ServeSnapshot) -> Self {
        let replicas = &snapshot.replicas;
        let count = |f: fn(&ReplicaStats) -> u64| replicas.iter().map(f).sum();
        let makespan_us = snapshot.pod_makespan_us;
        let per_makespan_us = |x: f64| if makespan_us > 0.0 { x / makespan_us } else { 0.0 };
        let wall = Wall {
            intended,
            offered: load.offered,
            admitted: load.accepted,
            shed: load.shed,
            succeeded: load.succeeded,
            failed: load.deadline_exceeded + load.pod_down,
            success_rate: if intended > 0 { load.succeeded as f64 / intended as f64 } else { 1.0 },
            throughput_rps: load.throughput_rps,
            latency_p50_us: load.latency_p50_us,
            latency_p95_us: load.latency_p95_us,
            latency_p99_us: load.latency_p99_us,
            mean_batch: load.mean_batch,
        };
        let sim = Sim {
            makespan_us,
            device_us: snapshot.total_device_us,
            weight_load_us: replicas.iter().map(|r| r.weight_load_us).sum(),
            cold_loads: count(|r| r.cold_loads),
            crashes: count(|r| r.crashes),
            recoveries: count(|r| r.recoveries),
            retried_batches: count(|r| r.retried_batches),
            scale_ups: count(|r| r.scale_ups),
            drains: count(|r| r.drains),
            throughput_rps: per_makespan_us(load.succeeded as f64 * 1e6),
            scaling: per_makespan_us(snapshot.total_device_us),
            min_utilization: replicas.iter().map(|r| r.utilization).fold(f64::INFINITY, f64::min),
            batch_p50_us: load.sim_p50_us,
            batch_p99_us: load.sim_p99_us,
            slo_misses: load.sim_slo_misses,
        };
        Self { wall, sim }
    }
}

/// One served run, with the server's final state for what a bin reads
/// beyond the [`Run`].
pub struct Served {
    /// The run's wall and sim sections.
    pub run: Run,
    /// The snapshot [`Server::shutdown`] returned.
    pub snapshot: ServeSnapshot,
    /// The autoscale controller's actions (disabled unless configured).
    pub autoscale: AutoscaleReport,
}

/// Starts a server over `config` and `models`, offers it `plan`, shuts it
/// down and returns the run.
///
/// # Panics
/// Panics when the server refuses the config or the models: an experiment
/// sets both as constants.
pub fn serve(
    config: ServeConfig,
    models: impl IntoIterator<Item = impl Into<ModelSource>>,
    plan: &LoadPlan,
) -> Served {
    let server = Server::start(config, models).expect("an experiment's models fit its config");
    let load = plan.run(&server);
    let autoscale = server.autoscale_report();
    let snapshot = server.shutdown();
    Served { run: Run::new(intended(&plan.arrivals), &load, &snapshot), snapshot, autoscale }
}

/// Runs each of `arms` arms `trials` times and returns every arm's results
/// in trial order.
///
/// Trial `i` starts with arm `i mod arms` and runs the others after it in
/// order, wrapping round, so every arm goes first equally often and slow
/// drift on a shared host (a noisy neighbour, a frequency governor) hits
/// all arms alike.
pub fn rotate<T>(trials: usize, arms: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    assert!(trials > 0 && arms > 0, "{trials} trials of {arms} arms");
    let mut results: Vec<Vec<T>> = (0..arms).map(|_| Vec::with_capacity(trials)).collect();
    for trial in 0..trials {
        for k in 0..arms {
            let arm = (trial + k) % arms;
            results[arm].push(run(arm));
        }
    }
    results
}

/// One trial's result, as far as [`ratio`] needs it.
pub trait Trial {
    /// The share of the requests the trial meant to send that were
    /// admitted and answered successfully: 1 when it served them all.
    fn success_rate(&self) -> f64;
}

impl Trial for Run {
    fn success_rate(&self) -> f64 {
        self.wall.success_rate
    }
}

/// Median and quartiles of one metric over an arm's trials, in the
/// metric's own unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarises a non-empty sample by [`stats::quartiles`].
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let [q1, median, q3] = stats::quartiles(&values.into_iter().collect::<Vec<_>>());
        Self { median, q1, q3 }
    }
}

impl fmt::Display for Spread {
    /// `median [q1, q3]`, each at the formatter's precision (default 0).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(0);
        write!(f, "{:.p$} [{:.p$}, {:.p$}]", self.median, self.q1, self.q3)
    }
}

/// A comparison of two arms on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Ratio {
    /// The numerator arm's median over the denominator arm's; `None`
    /// unless every trial of both arms served every request it meant to
    /// send, since arms that served different shares of their load
    /// measured different things.
    pub value: Option<f64>,
    /// The lowest success rate among the numerator arm's trials.
    pub num_success_rate: f64,
    /// The lowest success rate among the denominator arm's trials.
    pub den_success_rate: f64,
}

/// Compares `metric` between two arms at equal acceptance (see [`Ratio`]).
pub fn ratio<T: Trial>(num: &[T], den: &[T], metric: impl Fn(&T) -> f64) -> Ratio {
    let worst = |arm: &[T]| arm.iter().map(T::success_rate).fold(f64::INFINITY, f64::min);
    let (num_success_rate, den_success_rate) = (worst(num), worst(den));
    let median = |arm: &[T]| Spread::of(arm.iter().map(&metric)).median;
    let value =
        (num_success_rate == 1.0 && den_success_rate == 1.0).then(|| median(num) / median(den));
    Ratio { value, num_success_rate, den_success_rate }
}

impl fmt::Display for Ratio {
    /// `1.94x`, or both arms' lowest success rates when there is no ratio.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(v) => write!(f, "{v:.2}x"),
            None => write!(
                f,
                "null ({:.1}% vs {:.1}% served)",
                100.0 * self.num_success_rate,
                100.0 * self.den_success_rate
            ),
        }
    }
}

/// An arm's record for a BENCH file: its trial count, then its trials'
/// fields in the shape of one trial, each numeric field replaced by its
/// [`Spread`] over the trials. Any other field keeps its value where every
/// trial agrees on it and is `null` where they differ.
///
/// # Panics
/// Panics on an empty arm, or when a trial does not serialize to a JSON
/// object.
pub fn summary<T: Serialize>(trials: &[T]) -> Value {
    assert!(!trials.is_empty(), "an arm needs at least one trial");
    let values: Vec<Value> = trials.iter().map(serde_json::to_value).collect();
    let Value::Object(fields) = summarise(&values) else {
        panic!("a trial must serialize to a JSON object");
    };
    let mut record = vec![("trials".to_string(), Value::UInt(trials.len() as u64))];
    record.extend(fields);
    Value::Object(record)
}

/// Summarises one field across the trials (see [`summary`]).
fn summarise(column: &[Value]) -> Value {
    let number = |v: &Value| match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(x) => Some(x),
        _ => None,
    };
    if let Some(values) = column.iter().map(number).collect::<Option<Vec<f64>>>() {
        return serde_json::to_value(&Spread::of(values));
    }
    match &column[0] {
        Value::Object(first) => Value::Object(
            first
                .iter()
                .enumerate()
                .map(|(i, (key, _))| {
                    let field: Vec<Value> = column
                        .iter()
                        .map(|trial| match trial {
                            Value::Object(fields) => fields[i].1.clone(),
                            _ => Value::Null,
                        })
                        .collect();
                    (key.clone(), summarise(&field))
                })
                .collect(),
        ),
        first if column.iter().all(|v| v == first) => first.clone(),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_core::Method;
    use bfly_serve::{CacheConfig, FaultPlan};
    use std::cell::RefCell;
    use std::time::Duration;

    #[derive(Serialize)]
    struct Probe {
        label: String,
        rps: f64,
        served: u64,
        intended: u64,
    }

    impl Trial for Probe {
        fn success_rate(&self) -> f64 {
            self.served as f64 / self.intended as f64
        }
    }

    fn probe(rps: f64, served: u64) -> Probe {
        Probe { label: "arm".to_string(), rps, served, intended: 10 }
    }

    #[test]
    fn each_trial_starts_with_the_next_arm() {
        let calls = RefCell::new(Vec::new());
        let results = rotate(4, 3, |arm| {
            calls.borrow_mut().push(arm);
            calls.borrow().len() - 1
        });
        // Trial i runs arm i mod 3 first, then the others in order.
        assert_eq!(calls.into_inner(), [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        // Each arm's results (here, the call index) come back in trial order.
        assert_eq!(results, [[0, 5, 7, 9], [1, 3, 8, 10], [2, 4, 6, 11]]);
    }

    #[test]
    fn a_ratio_is_the_ratio_of_the_medians_when_both_arms_served_everything() {
        let a = [probe(30.0, 10), probe(10.0, 10), probe(20.0, 10)];
        let b = [probe(4.0, 10), probe(5.0, 10), probe(100.0, 10)];
        let r = ratio(&a, &b, |p| p.rps);
        assert_eq!(
            r,
            Ratio { value: Some(20.0 / 5.0), num_success_rate: 1.0, den_success_rate: 1.0 }
        );
        assert_eq!(r.to_string(), "4.00x");
    }

    #[test]
    fn a_ratio_is_null_when_any_trial_of_either_arm_fell_short() {
        let full = [probe(30.0, 10), probe(20.0, 10)];
        let short = [probe(30.0, 10), probe(20.0, 9)];
        for (num, den) in [(&full, &short), (&short, &full)] {
            let r = ratio(num, den, |p| p.rps);
            assert_eq!(r.value, None, "{r:?}");
            assert_eq!(r.num_success_rate.min(r.den_success_rate), 0.9);
        }
        let r = ratio(&full, &short, |p| p.rps);
        assert_eq!(r.to_string(), "null (100.0% vs 90.0% served)");
    }

    #[test]
    fn a_run_that_dropped_refused_or_failed_a_request_has_no_ratio() {
        let config = ServeConfig {
            dim: 64,
            workers: 1,
            cache: CacheConfig::disabled(),
            ..Default::default()
        };
        let run = |config: ServeConfig, arrivals: Arrivals| {
            let models = vec!["butterfly".to_string()];
            let plan = LoadPlan { models, arrivals, seed: 1, pool: 8, slo_sim_us: None };
            serve(config, &[Method::Butterfly], &plan).run
        };
        let closed = Arrivals::Closed { clients: 2, per_client: 10 };
        let clean = run(config.clone(), closed.clone());
        // Dropped: an open-loop flood into a four-deep queue sheds.
        let flood = ServeConfig {
            queue_capacity: 4,
            max_batch: 2,
            max_wait: Duration::from_millis(5),
            ..config.clone()
        };
        let dropped = run(flood, Arrivals::Poisson { rate_hz: 1e7, total: 1_000 });
        // Failed: every request is past its zero deadline.
        let late = ServeConfig { default_deadline: Some(Duration::ZERO), ..config.clone() };
        let failed = run(late, closed.clone());
        // Refused: the only replica crashes for good at once.
        let dead = ServeConfig { fault_plan: FaultPlan::none().crash_at(0.0, 0), ..config };
        let refused = run(dead, closed);

        let rps = |r: &Run| r.wall.throughput_rps;
        assert_eq!(clean.wall.success_rate, 1.0, "{:?}", clean.wall);
        let one = std::slice::from_ref(&clean);
        assert_eq!(ratio(one, one, rps).value, Some(1.0));
        for short in [dropped, failed, refused] {
            assert!(short.wall.success_rate < 1.0, "{:?}", short.wall);
            let r = ratio(&[clean.clone(), clean.clone()], &[clean.clone(), short], rps);
            assert_eq!(r.value, None, "{r:?}");
        }
    }

    #[test]
    fn a_summary_holds_the_quartiles_of_every_numeric_field() {
        let trials = [probe(9.0, 10), probe(1.0, 7), probe(4.0, 10), probe(7.0, 9), probe(3.0, 10)];
        let Value::Object(fields) = summary(&trials) else { panic!("a summary is an object") };
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).expect(key).1.clone();
        assert_eq!(field("trials"), Value::UInt(5));
        assert_eq!(field("label"), Value::Str("arm".to_string()), "agreeing fields are kept");
        let spread = |values: &[f64]| {
            let [q1, median, q3] = stats::quartiles(values);
            serde_json::to_value(&Spread { median, q1, q3 })
        };
        assert_eq!(field("rps"), spread(&[9.0, 1.0, 4.0, 7.0, 3.0]));
        assert_eq!(field("served"), spread(&[10.0, 7.0, 10.0, 9.0, 10.0]));
        assert_eq!(field("intended"), spread(&[10.0; 5]));
    }

    #[test]
    fn a_summary_recurses_into_sections_and_nulls_disagreeing_labels() {
        #[derive(Serialize)]
        struct Nested {
            name: String,
            inner: Spread,
        }
        let trials = ["a", "b"].map(|name| Nested {
            name: name.to_string(),
            inner: Spread { median: 2.0, q1: 1.0, q3: 3.0 },
        });
        let Value::Object(fields) = summary(&trials) else { panic!("a summary is an object") };
        assert_eq!(fields[1], ("name".to_string(), Value::Null));
        let Value::Object(inner) = &fields[2].1 else { panic!("sections stay objects") };
        assert_eq!(inner[0].1, serde_json::to_value(&Spread { median: 2.0, q1: 2.0, q3: 2.0 }));
    }

    #[test]
    fn spreads_print_at_the_asked_precision() {
        let s = Spread { median: 2.0, q1: 1.25, q3: 3.5 };
        assert_eq!(s.to_string(), "2 [1, 4]");
        assert_eq!(format!("{s:.2}"), "2.00 [1.25, 3.50]");
    }
}
