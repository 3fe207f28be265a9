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
//! The default serving dimension is 256 (an embedding-sized model, the
//! dispatch-bound regime where batching matters); BFLY_SERVE_DIM=1024 runs
//! the Table 4 shape, where the compressed forward pass itself is large
//! enough that the batching win shrinks.
//!
//! Environment knobs: BFLY_SERVE_DIM (default 256), BFLY_SERVE_REQUESTS
//! (default 4000), BFLY_SERVE_RATE (offered requests/s, default 1e6 ~
//! burst), BFLY_SERVE_BATCH (default 32), BFLY_SERVE_WORKERS (default 2).

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_f64, env_usize, host_cores};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, LoadReport, ServeConfig, Server};
use serde::Serialize;
use std::time::Duration;

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
    host_cores: usize,
    dim: usize,
    classes: usize,
    workers: usize,
    offered_rate_rps: f64,
    results: Vec<MethodResult>,
}

fn run_once(
    method: Method,
    dim: usize,
    max_batch: usize,
    workers: usize,
    requests: u64,
    rate: f64,
) -> LoadReport {
    let config = ServeConfig {
        dim,
        classes: 10,
        seed: 0x5E127E,
        max_batch,
        max_wait: Duration::from_micros(200),
        queue_capacity: 512,
        workers,
        tensor_cores: false,
        // This bench isolates the *batching* win; the response cache would
        // dedupe the pooled inputs and measure the cache instead (that
        // comparison lives in `bench_cache`).
        cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let server = Server::start(config, &[method]).expect("BFLY_SERVE_DIM must fit every method");
    let models = server.model_names();
    let arrivals = Arrivals::Poisson { rate_hz: rate, total: requests };
    let report =
        LoadPlan { models, arrivals, seed: 0xBEE5, pool: 32, slo_sim_us: None }.run(&server);
    server.shutdown();
    report
}

fn main() {
    let dim = env_usize("BFLY_SERVE_DIM", 256);
    let requests = env_usize("BFLY_SERVE_REQUESTS", 4000) as u64;
    let rate = env_f64("BFLY_SERVE_RATE", 1e6);
    let max_batch = env_usize("BFLY_SERVE_BATCH", 32);
    let workers = env_usize("BFLY_SERVE_WORKERS", 2);

    let methods =
        [Method::Baseline, Method::Butterfly, Method::Pixelfly(PixelflyConfig::paper_default())];

    println!(
        "serve_throughput: dim {dim}, {requests} requests offered at {rate:.0} rps, \
         batch-1 vs batch-{max_batch} ({workers} workers)\n"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "model", "b1 rps", "b32 rps", "speedup", "p50 us", "p95 us", "p99 us", "mbatch"
    );

    let mut results = Vec::new();
    for method in methods {
        let r1 = run_once(method, dim, 1, workers, requests, rate);
        let rb = run_once(method, dim, max_batch, workers, requests, rate);
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
            batched: RunStats::from_report(max_batch, &rb),
            speedup,
        });
    }

    let output = BenchOutput {
        host_cores: host_cores(),
        dim,
        classes: 10,
        workers,
        offered_rate_rps: rate,
        results,
    };
    println!();
    write_bench_json("serve", &output, false);
}
