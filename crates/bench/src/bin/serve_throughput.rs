//! serve_throughput — quantifies the dynamic-batching win of `bfly-serve`.
//!
//! For each registry (dense baseline, butterfly, pixelfly) the harness
//! floods a server with the same offered load twice: once with batching
//! disabled (`max_batch = 1`) and once with the micro-batcher on
//! (`max_batch = 32`). Compressed models are dispatch-bound — their forward
//! pass is tiny, so per-request wakeups, locks and allocations dominate —
//! which is exactly what coalescing amortises; the dense baseline is
//! compute-bound and gains far less. Results (throughput, latency
//! percentiles, mean batch size, shed rate) are printed as a table and
//! written to `BENCH_serve.json` so later runs can track serving
//! performance.
//!
//! The serving dimension is 256 (an embedding-sized model, the
//! dispatch-bound regime where batching matters); the repository
//! benchmark's dim-1024 `serve_*` workloads serve the Table 4 shape.
//!
//! `--smoke` offers a few hundred requests for CI and skips the JSON write
//! so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::smoke_run;
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

#[derive(Serialize)]
struct MethodResult {
    model: String,
    offered_requests: u64,
    batch1: RunStats,
    batched: RunStats,
    /// batched throughput over batch-1 throughput at equal offered load.
    speedup: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    classes: usize,
    workers: usize,
    offered_rate_rps: f64,
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

    let methods =
        [Method::Baseline, Method::Butterfly, Method::Pixelfly(PixelflyConfig::paper_default())];

    println!(
        "serve_throughput: dim {DIM}, {requests} requests offered at {RATE:.0} rps, \
         batch-1 vs batch-{MAX_BATCH} ({WORKERS} workers){}\n",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "model", "b1 rps", "b32 rps", "speedup", "p50 us", "p95 us", "p99 us", "mbatch"
    );

    let mut results = Vec::new();
    for method in methods {
        let r1 = run_once(method, 1, requests);
        let rb = run_once(method, MAX_BATCH, requests);
        let speedup =
            if r1.throughput_rps > 0.0 { rb.throughput_rps / r1.throughput_rps } else { 0.0 };
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>7.2}x {:>10} {:>10} {:>10} {:>8.1}",
            method.label(),
            r1.throughput_rps,
            rb.throughput_rps,
            speedup,
            rb.latency_p50_us,
            rb.latency_p95_us,
            rb.latency_p99_us,
            rb.mean_batch,
        );
        results.push(MethodResult {
            model: method.label().to_ascii_lowercase(),
            offered_requests: requests,
            batch1: RunStats::from_report(1, &r1),
            batched: RunStats::from_report(MAX_BATCH, &rb),
            speedup,
        });
    }

    let output = BenchOutput {
        dim: DIM,
        classes: CLASSES,
        workers: WORKERS,
        offered_rate_rps: RATE,
        results,
    };
    println!();
    write_bench_json("serve", &output, smoke);
}
