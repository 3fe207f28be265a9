//! bench_pod — pod-parallel serving scaling across a simulated multi-IPU
//! pod (`bfly-serve`'s replica scheduler).
//!
//! For each pod size the closed-loop generator offers an identical seeded
//! saturating workload (cache off, so every request computes), and the
//! server routes micro-batches across the pod's replica occupancy clocks.
//! Host execution is unchanged — what scales is *simulated device time*.
//! The `scaling` column is the parallelism of that time: the simulated
//! device µs retired across the pod over the pod's simulated makespan (the
//! maximum replica clock). A perfectly balanced router keeps every replica
//! busy until the last one finishes, so `scaling` approaches the pod size;
//! imbalance eats into it. One-time weight loads count as busy time and are
//! reported apart. `scaling` reads one run alone, so it does not depend on
//! the batch sizes each run happened to form (the batcher seals smaller
//! batches while a worker sits idle, and every batch pays the IPU's fixed
//! per-batch cost, so simulated throughput moves with them).
//!
//! Butterfly and dense baseline models are swept side by side: a butterfly
//! model's weights replicate across the pod's IPU-Links almost for free,
//! while the dense baseline pays ~n²·4 bytes per cold replica — the paper's
//! compression argument restated as deployment elasticity. Pixelfly (fused
//! block-sparse + low-rank) rides the same sweep. Each method's pod sizes
//! are the arms of one `bfly_bench::serving` experiment (rotated trials,
//! median and quartiles of every metric).
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, rotate, summary, Run, Spread};
use bfly_bench::{format_table, host_cores, smoke_run};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, ServeConfig};
use serde::Serialize;
use serde_json::Value;

const DIM: usize = 256;
const WORKERS: usize = 2;
/// Distinct inputs the closed-loop clients cycle through.
const POOL: usize = 64;

#[derive(Serialize)]
struct PodResult {
    method: String,
    replicas: usize,
    run: Value,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    clients: u64,
    per_client: u64,
    input_pool: usize,
    results: Vec<PodResult>,
}

fn run_arm(arrivals: &Arrivals, method: Method, replicas: usize) -> Run {
    let config = ServeConfig {
        dim: DIM,
        seed: 0xB0D5,
        workers: WORKERS,
        // Cache off: every request must compute, so completed requests map
        // 1:1 onto simulated device work.
        cache: CacheConfig::disabled(),
        replicas,
        ..Default::default()
    };
    let models = vec![method.label().to_lowercase()];
    let plan =
        LoadPlan { models, arrivals: arrivals.clone(), seed: 0xBEE5, pool: POOL, slo_sim_us: None };
    serving::serve(config, &[method], &plan).run
}

fn main() {
    let smoke = smoke_run();
    let (clients, per_client) = if smoke { (4, 25) } else { (16, 250) };
    let arrivals = Arrivals::Closed { clients, per_client };
    let pod_sizes: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let trials = serving::trials(smoke);

    println!(
        "bench_pod: dim {DIM}, {clients} clients x {per_client} requests, {WORKERS} workers, \
         host cores {}, {trials} trial(s) per arm, median [q1, q3]{}\n\
         wall rps: host wall clock; sim makespan (us), sim rps, scaling, load us: simulated pod \
         time\n",
        host_cores(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for method in
        [Method::Butterfly, Method::Baseline, Method::Pixelfly(PixelflyConfig::paper_default())]
    {
        let arms =
            rotate(trials, pod_sizes.len(), |arm| run_arm(&arrivals, method, pod_sizes[arm]));
        for (&replicas, arm) in pod_sizes.iter().zip(&arms) {
            let spread = |metric: fn(&Run) -> f64| Spread::of(arm.iter().map(metric));
            rows.push(vec![
                method.label().to_string(),
                replicas.to_string(),
                spread(|r| r.wall.throughput_rps).to_string(),
                format!("{:.1}", spread(|r| r.wall.mean_batch).median),
                format!("{:.0}", spread(|r| r.sim.makespan_us).median),
                spread(|r| r.sim.throughput_rps).to_string(),
                format!("{:.2}", spread(|r| r.sim.scaling)),
                format!("{:.1}", spread(|r| r.sim.weight_load_us).median),
                format!("{:.3}", spread(|r| r.sim.min_utilization).median),
            ]);
            results.push(PodResult {
                method: method.label().to_lowercase(),
                replicas,
                run: summary(arm),
            });
        }
    }
    let headers = [
        "method",
        "pod",
        "wall rps",
        "mbatch",
        "sim makespan",
        "sim rps",
        "scaling",
        "load us",
        "min util",
    ];
    println!("{}", format_table(&headers, &rows));

    let output =
        BenchOutput { dim: DIM, workers: WORKERS, clients, per_client, input_pool: POOL, results };
    write_bench_json("pod", &output, smoke);
}
