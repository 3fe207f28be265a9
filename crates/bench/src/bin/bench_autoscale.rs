//! bench_autoscale — elastic scale-up under a calibrated flash-crowd trace
//! (`bfly-serve`'s autoscale controller + `bfly-data`'s traffic traces).
//!
//! A calibration run first measures each method's steady-state serving
//! capacity on a single-replica pod (closed loop, cache off). One shared
//! flash-crowd trace is then built against those measurements — quiet at
//! half the *slower* method's capacity, spiking to a multiple of the
//! *faster* method's — and the identical seeded arrival schedule is
//! replayed against every run, so butterfly and the dense baseline face
//! equal offered load. For each method the trace runs in two modes: pinned
//! at the initial pod size (autoscaling disabled) and elastic (the
//! controller may grow the pod to `max` replicas and drain it back). The
//! four (method, mode) pairs are the arms of one `bfly_bench::serving`
//! experiment (rotated trials, median and quartiles of every metric).
//!
//! Scale-up is recovery of a cold replica: the grown standby pays the
//! priced weight load before it can serve, so the run's *time-to-healthy*
//! is read straight off the grown replica's `weight_load_us`. A butterfly
//! replica becomes healthy after an O(n log n)-byte transfer where the
//! dense baseline moves ~n²·4 bytes — the paper's compression argument
//! restated one more time, now as *elasticity under a flash crowd*. It is
//! priced, not measured, so it compares across methods whatever share of
//! the trace each arm served. Elastic over fixed simulated throughput, a
//! measured quantity, is a ratio only where both arms served every arrival.
//! Every run is also scored against a simulated-latency SLO set with equal
//! headroom per method — `slo_mult` times that method's own clean p99 — so
//! steady-state batches always fit and misses isolate the scale-up
//! transient: the cold weight load a grown replica's first batch carries
//! breaches dense's SLO but hides inside butterfly's headroom.
//!
//! The calibration load runs 32 clients x 50 requests: enough concurrent
//! clients to fill a batch, so the clean p99 prices *full* batches like the
//! ones the flash crowd forms.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Run, Spread, Trial};
use bfly_bench::{format_table, host_cores, smoke_run};
use bfly_core::Method;
use bfly_data::TrafficTrace;
use bfly_serve::{Arrivals, AutoscaleConfig, CacheConfig, LoadPlan, ScaleDecision, ServeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use serde_json::Value;
use std::time::Duration;

/// Distinct inputs the load cycles through.
const POOL: usize = 64;
const QUEUE_CAPACITY: usize = 512;
const INITIAL_REPLICAS: usize = 1;
/// Pod ceiling of the elastic runs.
const MAX_REPLICAS: usize = 4;
const COOLDOWN_WINDOWS: u32 = 2;
/// Peak rate as a multiple of the faster method's capacity.
const SPIKE: f64 = 3.0;
/// Per-method SLO as a multiple of its clean sim p99.
const SLO_MULT: f64 = 1.2;
const TRACE_SEED: u64 = 17;
const METHODS: [Method; 2] = [Method::Butterfly, Method::Baseline];
const MODES: [&str; 2] = ["fixed", "elastic"];

#[derive(Serialize)]
struct Calibration {
    method: String,
    /// Single-replica closed-loop run: its wall throughput is the method's
    /// capacity, its clean sim p99 the base of the method's SLO.
    run: Run,
}

#[derive(Serialize)]
struct ScaleRun {
    run: Run,
    /// Simulated µs the first replica the controller grew spent loading
    /// weights before it could serve — the time-to-healthy. `None` when
    /// nothing grew.
    time_to_healthy_us: Option<f64>,
}

impl Trial for ScaleRun {
    fn success_rate(&self) -> f64 {
        self.run.success_rate()
    }
}

#[derive(Serialize)]
struct ArmResult {
    method: String,
    /// `fixed` (autoscaling disabled, pinned at the initial pod size) or
    /// `elastic` (the controller may grow to `max_replicas`).
    mode: String,
    /// The simulated-latency SLO the arm was scored against, µs.
    slo_sim_us: f64,
    arm: Value,
}

#[derive(Serialize)]
struct Headline {
    /// Median grown-replica time-to-healthy over the elastic trials, µs.
    butterfly_time_to_healthy_us: Option<f64>,
    baseline_time_to_healthy_us: Option<f64>,
    /// Butterfly over baseline; the acceptance bar is <= 0.25.
    time_to_healthy_ratio: Option<f64>,
    /// Elastic over fixed median simulated throughput, per method.
    butterfly_elastic_over_fixed: Ratio,
    baseline_elastic_over_fixed: Ratio,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    input_pool: usize,
    queue_capacity: usize,
    initial_replicas: usize,
    max_replicas: usize,
    spike_multiple: f64,
    slo_mult: f64,
    trace_seed: u64,
    autoscale_interval_ms: u64,
    cooldown_windows: u32,
    calibration: Vec<Calibration>,
    /// The shared trace both methods replay, after any size-cap rescale.
    trace: TraceBlock,
    results: Vec<ArmResult>,
    headline: Headline,
}

#[derive(Serialize)]
struct TraceBlock {
    duration_s: f64,
    base_rps: f64,
    peak_rps: f64,
    arrivals: usize,
}

/// The part of the workload `--smoke` shrinks.
struct Workload {
    dim: usize,
    workers: usize,
    /// Calibration load.
    clients: u64,
    per_client: u64,
    /// Autoscale controller sampling interval.
    interval: Duration,
}

fn run_arm(w: &Workload, method: Method, elastic: bool, plan: &LoadPlan) -> ScaleRun {
    let autoscale = if elastic {
        AutoscaleConfig {
            interval: w.interval,
            cooldown_windows: COOLDOWN_WINDOWS,
            ..AutoscaleConfig::bounded(INITIAL_REPLICAS, MAX_REPLICAS)
        }
    } else {
        AutoscaleConfig::default()
    };
    let config = ServeConfig {
        dim: w.dim,
        seed: 0xB0D5,
        queue_capacity: QUEUE_CAPACITY,
        workers: w.workers,
        // Cache off: every request must compute, so backlog and simulated
        // latency reflect real work and the scale signals are honest.
        cache: CacheConfig::disabled(),
        replicas: INITIAL_REPLICAS,
        autoscale,
        ..Default::default()
    };
    let served = serving::serve(config, &[method], plan);
    // The first grown replica's priced weight load, per cold load so a
    // drain/regrow cycle does not double it.
    let grown = served.autoscale.events.iter().find(|e| e.decision == ScaleDecision::Grow);
    let time_to_healthy_us = grown.map(|e| {
        let r = &served.snapshot.replicas[e.replica];
        if r.cold_loads > 0 {
            r.weight_load_us / r.cold_loads as f64
        } else {
            0.0 // warm pool pre-paid the load
        }
    });
    ScaleRun { run: served.run, time_to_healthy_us }
}

fn plan(method: Method, arrivals: Arrivals, slo_sim_us: Option<f64>) -> LoadPlan {
    let models = vec![method.label().to_lowercase()];
    LoadPlan { models, arrivals, seed: 0xBEE5, pool: POOL, slo_sim_us }
}

/// Median time-to-healthy over the trials in which the pod grew.
fn time_to_healthy(arm: &[ScaleRun]) -> Option<f64> {
    let grown: Vec<f64> = arm.iter().filter_map(|t| t.time_to_healthy_us).collect();
    (!grown.is_empty()).then(|| Spread::of(grown).median)
}

fn main() {
    let smoke = smoke_run();
    let w = if smoke {
        Workload {
            dim: 512,
            workers: 1,
            clients: 8,
            per_client: 15,
            interval: Duration::from_millis(15),
        }
    } else {
        Workload {
            dim: 2048,
            workers: 2,
            clients: 32,
            per_client: 50,
            interval: Duration::from_millis(40),
        }
    };
    // Trace size cap.
    let max_arrivals: usize = if smoke { 2_500 } else { 60_000 };
    let trials = serving::trials(smoke);

    println!(
        "bench_autoscale: dim {}, {} workers, pod {INITIAL_REPLICAS}->{MAX_REPLICAS}, spike \
         {SPIKE}x, host cores {}, {trials} trial(s) per arm, median [q1, q3]{}\n",
        w.dim,
        w.workers,
        host_cores(),
        if smoke { " [smoke]" } else { "" }
    );

    // Calibration: steady single-replica capacity per method. The slower
    // method anchors the quiet rate (both idle comfortably), the faster
    // one anchors the spike (both are overwhelmed during the flash and
    // must grow). Each method's clean p99 anchors its own SLO.
    let closed = Arrivals::Closed { clients: w.clients, per_client: w.per_client };
    let calibration: Vec<Calibration> = METHODS
        .iter()
        .map(|&m| Calibration {
            method: m.label().to_lowercase(),
            run: run_arm(&w, m, false, &plan(m, closed.clone(), None)).run,
        })
        .collect();
    let rows: Vec<Vec<String>> = calibration
        .iter()
        .map(|c| {
            vec![
                c.method.clone(),
                format!("{:.0}", c.run.wall.throughput_rps),
                format!("{:.1}", c.run.sim.batch_p50_us),
                format!("{:.1}", c.run.sim.batch_p99_us),
            ]
        })
        .collect();
    let headers = ["calibrated", "wall rps", "sim p50 us", "sim p99 us"];
    println!("{}", format_table(&headers, &rows));
    let capacities = calibration.iter().map(|c| c.run.wall.throughput_rps);
    let slow_cap = capacities.clone().fold(f64::INFINITY, f64::min);
    let fast_cap = capacities.fold(0.0, f64::max);

    // One shared flash-crowd trace: quiet at half the slow method's
    // capacity, spiking to `SPIKE` x the fast method's. Capped in size so
    // a fast host cannot explode the arrival count; the cap rescales both
    // phases together, preserving the quiet:spike ratio.
    let base = (slow_cap * 0.5).max(1.0);
    let peak = (fast_cap * SPIKE).max(base * 2.0);
    let (spike_at, hold, duration) = if smoke { (0.25, 0.5, 1.5) } else { (0.75, 1.25, 3.5) };
    let mut trace = TrafficTrace::flash_crowd(base, peak / base, duration, spike_at, hold);
    let expected = trace.expected_requests();
    if expected > max_arrivals as f64 {
        trace = trace.scaled(max_arrivals as f64 / expected);
        println!(
            "trace rescaled x{:.3} to fit {max_arrivals} arrivals",
            max_arrivals as f64 / expected
        );
    }
    let arrivals = trace.arrivals(&mut ChaCha8Rng::seed_from_u64(TRACE_SEED));
    println!(
        "trace: {:.2} s, base {:.0} rps, peak {:.0} rps, {} arrivals, slo {SLO_MULT}x clean p99\n",
        trace.duration_s(),
        trace.rate_at(0.0),
        trace.peak_rps(),
        arrivals.len(),
    );

    // Arm `2 * m + e` serves method `m` fixed (`e = 0`) or elastic.
    let slos: Vec<f64> = calibration.iter().map(|c| c.run.sim.batch_p99_us * SLO_MULT).collect();
    let plans: Vec<LoadPlan> = METHODS
        .iter()
        .zip(&slos)
        .map(|(&m, &slo)| plan(m, Arrivals::Trace(arrivals.clone()), Some(slo)))
        .collect();
    let arms =
        rotate(trials, 4, |arm| run_arm(&w, METHODS[arm / 2], arm % 2 == 1, &plans[arm / 2]));

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (i, arm) in arms.iter().enumerate() {
        let (method, mode) = (METHODS[i / 2], MODES[i % 2]);
        let median = |metric: fn(&ScaleRun) -> f64| Spread::of(arm.iter().map(metric)).median;
        rows.push(vec![
            method.label().to_string(),
            mode.to_string(),
            format!("{:.1}%", 100.0 * median(|t| t.run.wall.success_rate)),
            format!("{:.0}", median(|t| t.run.wall.shed as f64)),
            format!("{:.0}", median(|t| t.run.sim.slo_misses as f64)),
            format!("{:.0}", median(|t| t.run.sim.scale_ups as f64)),
            format!("{:.0}", median(|t| t.run.sim.drains as f64)),
            time_to_healthy(arm).map_or("-".to_string(), |v| format!("{v:.1}")),
            Spread::of(arm.iter().map(|t| t.run.sim.throughput_rps)).to_string(),
            Spread::of(arm.iter().map(|t| t.run.wall.throughput_rps)).to_string(),
        ]);
        results.push(ArmResult {
            method: method.label().to_lowercase(),
            mode: mode.to_string(),
            slo_sim_us: slos[i / 2],
            arm: summary(arm),
        });
    }
    let headers = [
        "method",
        "mode",
        "served",
        "shed",
        "misses",
        "grows",
        "drains",
        "healthy us",
        "sim rps",
        "wall rps",
    ];
    println!("{}", format_table(&headers, &rows));

    let elastic_over_fixed =
        |m: usize| ratio(&arms[2 * m + 1], &arms[2 * m], |t| t.run.sim.throughput_rps);
    let (bfly, dense) = (time_to_healthy(&arms[1]), time_to_healthy(&arms[3]));
    let headline = Headline {
        butterfly_time_to_healthy_us: bfly,
        baseline_time_to_healthy_us: dense,
        time_to_healthy_ratio: match (bfly, dense) {
            (Some(b), Some(d)) if d > 0.0 => Some(b / d),
            _ => None,
        },
        butterfly_elastic_over_fixed: elastic_over_fixed(0),
        baseline_elastic_over_fixed: elastic_over_fixed(1),
    };
    match headline.time_to_healthy_ratio {
        Some(r) => println!(
            "time-to-healthy: butterfly {:.1} us vs dense {:.1} us ({r:.3}x); \
             elastic over fixed sim rps: butterfly {}, dense {}",
            bfly.unwrap_or(0.0),
            dense.unwrap_or(0.0),
            headline.butterfly_elastic_over_fixed,
            headline.baseline_elastic_over_fixed,
        ),
        None => println!("no scale-up fired for at least one method (trace too gentle?)"),
    }

    let output = BenchOutput {
        dim: w.dim,
        workers: w.workers,
        input_pool: POOL,
        queue_capacity: QUEUE_CAPACITY,
        initial_replicas: INITIAL_REPLICAS,
        max_replicas: MAX_REPLICAS,
        spike_multiple: SPIKE,
        slo_mult: SLO_MULT,
        trace_seed: TRACE_SEED,
        autoscale_interval_ms: w.interval.as_millis() as u64,
        cooldown_windows: COOLDOWN_WINDOWS,
        calibration,
        trace: TraceBlock {
            duration_s: trace.duration_s(),
            base_rps: trace.rate_at(0.0),
            peak_rps: trace.peak_rps(),
            arrivals: arrivals.len(),
        },
        results,
        headline,
    };
    write_bench_json("autoscale", &output, smoke);
}
