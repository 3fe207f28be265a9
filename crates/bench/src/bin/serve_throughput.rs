//! serve_throughput — quantifies the dynamic-batching win of `bfly-serve`.
//!
//! For each registry (dense baseline, butterfly, pixelfly) the harness
//! floods a server with the same offered load in two arms: batching
//! disabled (`max_batch = 1`) and the micro-batcher on (`max_batch = 32`).
//! Each arm runs `TRIALS` times, the two arms alternating which goes first,
//! and reports the median and quartiles of its throughput and p50 latency
//! by `bfly_bench::stats::quartiles`; the speedup is the ratio of the
//! median throughputs. Compressed models are dispatch-bound — their forward
//! pass is tiny, so per-request wakeups, locks and allocations dominate —
//! which is exactly what coalescing amortises. Results (every trial's
//! throughput, latency percentiles, mean batch size and shed rate, plus the
//! summaries) are printed as a table and written to `BENCH_serve.json` so
//! later runs can track serving performance.
//!
//! The serving dimension is 256 (an embedding-sized model, the
//! dispatch-bound regime where batching matters); the repository
//! benchmark's dim-1024 `serve_*` workloads serve the Table 4 shape.
//!
//! `--smoke` offers a few hundred requests once per arm for CI and skips
//! the JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{smoke_run, stats};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, LoadReport, ServeConfig, Server};
use serde::Serialize;
use std::time::Duration;

const DIM: usize = 256;
const CLASSES: usize = 10;
/// Offered requests/s: far above capacity, i.e. a burst.
const RATE: f64 = 1e6;
/// `max_batch` of the batched run (the other run uses 1).
const MAX_BATCH: usize = 32;
const WORKERS: usize = 2;
/// Runs per arm of a full run (a smoke run makes one). Each run lasts
/// milliseconds, so the trials cost little.
const TRIALS: usize = 11;

/// Median and quartiles of one quantity over an arm's trials.
#[derive(Serialize)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let [q1, median, q3] = stats::quartiles(&values.into_iter().collect::<Vec<_>>());
        Self { median, q1, q3 }
    }
}

#[derive(Serialize)]
struct RunStats {
    max_batch: usize,
    throughput_rps: f64,
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_p99_us: u64,
    mean_batch: f64,
    shed_rate: f64,
    completed: u64,
    shed: u64,
}

impl RunStats {
    fn from_report(max_batch: usize, r: &LoadReport) -> Self {
        Self {
            max_batch,
            throughput_rps: r.throughput_rps,
            latency_p50_us: r.latency_p50_us,
            latency_p95_us: r.latency_p95_us,
            latency_p99_us: r.latency_p99_us,
            mean_batch: r.mean_batch,
            shed_rate: if r.offered == 0 { 0.0 } else { r.shed as f64 / r.offered as f64 },
            completed: r.completed,
            shed: r.shed,
        }
    }
}

/// One arm's trials and their summaries.
#[derive(Serialize)]
struct ArmStats {
    max_batch: usize,
    throughput_rps: Spread,
    latency_p50_us: Spread,
    trials: Vec<RunStats>,
}

impl ArmStats {
    fn new(max_batch: usize, reports: &[LoadReport]) -> Self {
        Self {
            max_batch,
            throughput_rps: Spread::of(reports.iter().map(|r| r.throughput_rps)),
            latency_p50_us: Spread::of(reports.iter().map(|r| r.latency_p50_us as f64)),
            trials: reports.iter().map(|r| RunStats::from_report(max_batch, r)).collect(),
        }
    }
}

#[derive(Serialize)]
struct MethodResult {
    model: String,
    offered_requests: u64,
    batch1: ArmStats,
    batched: ArmStats,
    /// Median batched throughput over median batch-1 throughput, at equal
    /// offered load.
    speedup: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    classes: usize,
    workers: usize,
    offered_rate_rps: f64,
    trials: usize,
    results: Vec<MethodResult>,
}

fn run_once(method: Method, max_batch: usize, requests: u64) -> LoadReport {
    let config = ServeConfig {
        dim: DIM,
        classes: CLASSES,
        seed: 0x5E127E,
        max_batch,
        max_wait: Duration::from_micros(200),
        queue_capacity: 512,
        workers: WORKERS,
        tensor_cores: false,
        // This bench isolates the *batching* win; the response cache would
        // dedupe the pooled inputs and measure the cache instead (that
        // comparison lives in `bench_cache`).
        cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let server = Server::start(config, &[method]).expect("DIM fits every method");
    let models = server.model_names();
    let arrivals = Arrivals::Poisson { rate_hz: RATE, total: requests };
    let report =
        LoadPlan { models, arrivals, seed: 0xBEE5, pool: 32, slo_sim_us: None }.run(&server);
    server.shutdown();
    report
}

fn main() {
    let smoke = smoke_run();
    let requests: u64 = if smoke { 400 } else { 4000 };
    let trials = if smoke { 1 } else { TRIALS };

    let methods =
        [Method::Baseline, Method::Butterfly, Method::Pixelfly(PixelflyConfig::paper_default())];

    println!(
        "serve_throughput: dim {DIM}, {requests} requests offered at {RATE:.0} rps, \
         batch-1 vs batch-{MAX_BATCH} ({WORKERS} workers), {trials} trial(s) per arm, \
         median [q1, q3]{}\n",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<10} {:>24} {:>24} {:>8} {:>20} {:>8}",
        "model", "b1 rps", "b32 rps", "speedup", "b32 p50 us", "mbatch"
    );

    let mut results = Vec::new();
    for method in methods {
        let mut batch1 = Vec::with_capacity(trials);
        let mut batched = Vec::with_capacity(trials);
        for trial in 0..trials {
            // Alternate which arm runs first, so drift on a shared host
            // hits both arms alike.
            if trial % 2 == 0 {
                batch1.push(run_once(method, 1, requests));
                batched.push(run_once(method, MAX_BATCH, requests));
            } else {
                batched.push(run_once(method, MAX_BATCH, requests));
                batch1.push(run_once(method, 1, requests));
            }
        }
        let (batch1, batched) = (ArmStats::new(1, &batch1), ArmStats::new(MAX_BATCH, &batched));
        let (b1, bb) = (&batch1.throughput_rps, &batched.throughput_rps);
        let speedup = if b1.median > 0.0 { bb.median / b1.median } else { 0.0 };
        let p50 = &batched.latency_p50_us;
        let mean_batch =
            stats::median(&batched.trials.iter().map(|t| t.mean_batch).collect::<Vec<_>>());
        println!(
            "{:<10} {:>8.0} [{:>6.0}, {:>6.0}] {:>8.0} [{:>6.0}, {:>6.0}] {:>7.2}x {:>6.0} [{:>5.0}, {:>5.0}] {:>8.1}",
            method.label(),
            b1.median,
            b1.q1,
            b1.q3,
            bb.median,
            bb.q1,
            bb.q3,
            speedup,
            p50.median,
            p50.q1,
            p50.q3,
            mean_batch,
        );
        results.push(MethodResult {
            model: method.label().to_ascii_lowercase(),
            offered_requests: requests,
            batch1,
            batched,
            speedup,
        });
    }

    let output = BenchOutput {
        dim: DIM,
        classes: CLASSES,
        workers: WORKERS,
        offered_rate_rps: RATE,
        trials,
        results,
    };
    println!();
    write_bench_json("serve", &output, smoke);
}
