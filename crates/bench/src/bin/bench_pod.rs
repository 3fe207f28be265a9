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
//! block-sparse + low-rank) rides the same sweep now that its serve path
//! is allocation-free.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{host_cores, smoke_run};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, ReplicaStats, Routing, ServeConfig, Server};
use serde::Serialize;
use std::time::Duration;

const DIM: usize = 256;
const CLASSES: usize = 10;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 32;
/// Distinct inputs the closed-loop clients cycle through.
const POOL: usize = 64;
const ROUTING: Routing = Routing::PowerOfTwoChoices;

#[derive(Serialize)]
struct RunStats {
    method: String,
    replicas: usize,
    /// Completed compute requests (cache is off: every request computes).
    completed: u64,
    /// Simulated pod makespan: the maximum replica occupancy clock, µs.
    pod_makespan_us: f64,
    /// Total simulated device time retired across the pod, µs.
    total_device_us: f64,
    /// Completed requests per simulated device second: completed /
    /// (makespan µs / 1e6). Moves with the run's batch sizes, since every
    /// batch pays the IPU's per-batch overhead.
    sim_throughput_rps: f64,
    /// Parallelism of simulated busy time: `total_device_us` over
    /// `pod_makespan_us`. At most the pod size.
    scaling: f64,
    /// Host-side wall-clock throughput (unchanged by the pod: replicas are
    /// simulated devices, the worker pool is the same).
    wall_throughput_rps: f64,
    latency_p99_us: u64,
    mean_batch: f64,
    /// One-time simulated weight-load µs paid across all cold replicas.
    weight_load_us: f64,
    cold_loads: u64,
    replicas_detail: Vec<ReplicaStats>,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    classes: usize,
    workers: usize,
    clients: u64,
    per_client: u64,
    max_batch: usize,
    input_pool: usize,
    routing: String,
    pod_sizes: Vec<usize>,
    results: Vec<RunStats>,
}

/// The closed-loop load, the part of the workload `--smoke` shrinks.
struct Load {
    clients: u64,
    per_client: u64,
}

fn run_once(load: &Load, method: Method, replicas: usize) -> RunStats {
    let config = ServeConfig {
        dim: DIM,
        classes: CLASSES,
        seed: 0xB0D5,
        max_batch: MAX_BATCH,
        max_wait: Duration::from_micros(200),
        // Deep enough that the closed loop never spins on sheds.
        queue_capacity: (load.clients as usize * 4).max(256),
        workers: WORKERS,
        tensor_cores: false,
        // Cache off: every request must compute, so completed requests map
        // 1:1 onto simulated device work.
        cache: CacheConfig::disabled(),
        replicas,
        routing: ROUTING,
        ..Default::default()
    };
    let name = method.label().to_lowercase();
    let server = Server::start(config, &[method]).expect("dim must fit the method");
    let arrivals = Arrivals::Closed { clients: load.clients, per_client: load.per_client };
    let models = vec![name.clone()];
    let report =
        LoadPlan { models, arrivals, seed: 0xBEE5, pool: POOL, slo_sim_us: None }.run(&server);
    let snapshot = server.shutdown();
    let makespan_us = snapshot.pod_makespan_us;
    let (sim_throughput, scaling) = if makespan_us > 0.0 {
        (report.completed as f64 / (makespan_us / 1e6), snapshot.total_device_us / makespan_us)
    } else {
        (0.0, 0.0)
    };
    RunStats {
        method: name,
        replicas,
        completed: report.completed,
        pod_makespan_us: makespan_us,
        total_device_us: snapshot.total_device_us,
        sim_throughput_rps: sim_throughput,
        scaling,
        wall_throughput_rps: report.throughput_rps,
        latency_p99_us: report.latency_p99_us,
        mean_batch: report.mean_batch,
        weight_load_us: snapshot.replicas.iter().map(|r| r.weight_load_us).sum(),
        cold_loads: snapshot.replicas.iter().map(|r| r.cold_loads).sum(),
        replicas_detail: snapshot.replicas,
    }
}

fn main() {
    let smoke = smoke_run();
    let load = if smoke {
        Load { clients: 4, per_client: 25 }
    } else {
        Load { clients: 16, per_client: 250 }
    };
    let pod_sizes: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };

    println!(
        "bench_pod: dim {DIM}, {} clients x {} requests, batch {MAX_BATCH}, {WORKERS} workers, \
         routing {}, host cores {}{}\n\
         wall rps: host wall clock; sim makespan (us), sim rps, scaling, load us: simulated pod \
         time\n",
        load.clients,
        load.per_client,
        ROUTING.label(),
        host_cores(),
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>10} {:>4} {:>9} {:>10} {:>9} {:>14} {:>14} {:>8} {:>12} {:>10} {:>6}",
        "method",
        "pod",
        "requests",
        "wall rps",
        "mbatch",
        "sim makespan",
        "sim rps",
        "scaling",
        "load us",
        "min util",
        "cold"
    );

    let mut results = Vec::new();
    let methods =
        [Method::Butterfly, Method::Baseline, Method::Pixelfly(PixelflyConfig::paper_default())];
    for &method in &methods {
        for &replicas in &pod_sizes {
            let stats = run_once(&load, method, replicas);
            let min_util =
                stats.replicas_detail.iter().map(|r| r.utilization).fold(f64::INFINITY, f64::min);
            println!(
                "{:>10} {:>4} {:>9} {:>10.0} {:>9.1} {:>14.0} {:>14.0} {:>7.2}x {:>12.1} {:>10.3} {:>6}",
                stats.method,
                replicas,
                stats.completed,
                stats.wall_throughput_rps,
                stats.mean_batch,
                stats.pod_makespan_us,
                stats.sim_throughput_rps,
                stats.scaling,
                stats.weight_load_us,
                min_util,
                stats.cold_loads,
            );
            results.push(stats);
        }
    }

    println!();
    let output = BenchOutput {
        dim: DIM,
        classes: CLASSES,
        workers: WORKERS,
        clients: load.clients,
        per_client: load.per_client,
        max_batch: MAX_BATCH,
        input_pool: POOL,
        routing: ROUTING.label().to_string(),
        pod_sizes,
        results,
    };
    write_bench_json("pod", &output, smoke);
}
