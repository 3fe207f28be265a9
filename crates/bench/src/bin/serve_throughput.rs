//! serve_throughput — quantifies the dynamic-batching win of `bfly-serve`.
//!
//! For each registry (dense baseline, butterfly, pixelfly) the harness
//! offers a server the same burst in two arms: batching disabled
//! (`max_batch = 1`) and the micro-batcher on (`max_batch = 32`). The
//! admission queue holds the whole burst, so neither arm sheds and both
//! serve every request: the speedup is the ratio of the two arms' median
//! drain rates at equal acceptance. Compressed models are dispatch-bound —
//! their forward pass is tiny, so per-request wakeups, locks and
//! allocations dominate — which is exactly what coalescing amortises. Each
//! arm runs through `bfly_bench::serving` (rotated trials, median and
//! quartiles of every metric); results are printed as a table and written
//! to `BENCH_serve.json`.
//!
//! The serving dimension is 256 (an embedding-sized model, the
//! dispatch-bound regime where batching matters); the repository
//! benchmark's dim-1024 `serve_*` workloads serve the Table 4 shape.
//!
//! `--smoke` offers a few hundred requests once per arm for CI and skips
//! the JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Run, Spread};
use bfly_bench::{format_table, smoke_run};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, ServeConfig};
use serde::Serialize;
use serde_json::Value;

const DIM: usize = 256;
/// Offered requests/s: far above capacity, i.e. a burst.
const RATE: f64 = 1e6;
/// `max_batch` of the batched arm (the other arm uses 1).
const MAX_BATCH: usize = 32;
const WORKERS: usize = 2;

#[derive(Serialize)]
struct MethodResult {
    model: String,
    batch1: Value,
    batched: Value,
    /// Batched over batch-1 median wall throughput.
    speedup: Ratio,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    requests: u64,
    offered_rate_rps: f64,
    results: Vec<MethodResult>,
}

fn run_arm(method: Method, max_batch: usize, requests: u64) -> Run {
    let config = ServeConfig {
        dim: DIM,
        seed: 0x5E127E,
        max_batch,
        // The whole burst fits, so both arms serve all of it.
        queue_capacity: requests as usize,
        workers: WORKERS,
        // This bench isolates the *batching* win; the response cache would
        // dedupe the pooled inputs and measure the cache instead (that
        // comparison lives in `bench_cache`).
        cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let arrivals = Arrivals::Poisson { rate_hz: RATE, total: requests };
    let models = vec![method.label().to_lowercase()];
    let plan = LoadPlan { models, arrivals, seed: 0xBEE5, pool: 32, slo_sim_us: None };
    serving::serve(config, &[method], &plan).run
}

fn main() {
    let smoke = smoke_run();
    let requests: u64 = if smoke { 400 } else { 4000 };
    let trials = serving::trials(smoke);

    println!(
        "serve_throughput: dim {DIM}, {requests} requests offered at {RATE:.0} rps, \
         batch-1 vs batch-{MAX_BATCH} ({WORKERS} workers), {trials} trial(s) per arm, \
         median [q1, q3]{}\n",
        if smoke { " [smoke]" } else { "" }
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for method in
        [Method::Baseline, Method::Butterfly, Method::Pixelfly(PixelflyConfig::paper_default())]
    {
        let arms = rotate(trials, 2, |arm| run_arm(method, [1, MAX_BATCH][arm], requests));
        let (batch1, batched) = (&arms[0], &arms[1]);
        let speedup = ratio(batched, batch1, |r| r.wall.throughput_rps);
        rows.push(vec![
            method.label().to_string(),
            Spread::of(batch1.iter().map(|r| r.wall.throughput_rps)).to_string(),
            Spread::of(batched.iter().map(|r| r.wall.throughput_rps)).to_string(),
            speedup.to_string(),
            Spread::of(batched.iter().map(|r| r.wall.latency_p50_us as f64)).to_string(),
            format!("{:.1}", Spread::of(batched.iter().map(|r| r.wall.mean_batch)).median),
        ]);
        results.push(MethodResult {
            model: method.label().to_lowercase(),
            batch1: summary(batch1),
            batched: summary(batched),
            speedup,
        });
    }
    let headers = ["model", "b1 rps", "b32 rps", "speedup", "b32 p50 us", "mbatch"];
    println!("{}", format_table(&headers, &rows));

    let output =
        BenchOutput { dim: DIM, workers: WORKERS, requests, offered_rate_rps: RATE, results };
    write_bench_json("serve", &output, smoke);
}
