//! bench_chaos — serving throughput under injected replica faults
//! (`bfly-serve`'s deterministic fault plans).
//!
//! A calibration run first measures the fault-free simulated device work of
//! the workload on the pod; seeded crash/recovery schedules are then placed
//! at fractions of that horizon so the faults land *inside* the run
//! whatever the host machine's speed. Each crash count is one arm of a
//! `bfly_bench::serving` experiment (rotated trials, median and quartiles
//! of every metric): the same seeded closed-loop workload replays, and the
//! sweep records what degraded serving costs: failed requests, batches
//! stranded by crashes and retried on survivors, the cold weight loads
//! recovered replicas re-pay, and simulated throughput relative to the
//! fault-free arm — a ratio only where both arms served every request.
//! Butterfly and dense baseline models are swept side by side — a
//! recovered butterfly replica re-warms its factorized weights orders of
//! magnitude cheaper than the dense baseline's ~n²·4-byte reload, so
//! compression shows up again as *recovery* elasticity, not just capacity.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Run, Spread};
use bfly_bench::{format_table, host_cores, smoke_run};
use bfly_core::Method;
use bfly_serve::{Arrivals, CacheConfig, FaultPlan, LoadPlan, ServeConfig};
use serde::Serialize;
use serde_json::Value;

const DIM: usize = 256;
const WORKERS: usize = 2;
/// Distinct inputs the closed-loop clients cycle through.
const POOL: usize = 64;
/// Seed of the crash/recovery schedules.
const FAULT_SEED: u64 = 7;

#[derive(Serialize)]
struct ChaosResult {
    method: String,
    /// Crash/recovery pairs injected.
    faults: usize,
    run: Value,
    /// Median simulated throughput over the same method's fault-free arm:
    /// what the injected faults cost.
    vs_fault_free: Ratio,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    clients: u64,
    per_client: u64,
    input_pool: usize,
    replicas: usize,
    fault_seed: u64,
    /// Fault-free simulated compute the schedules were calibrated against,
    /// µs per method.
    calibration_horizon_us: Vec<(String, f64)>,
    results: Vec<ChaosResult>,
}

fn run_arm(arrivals: &Arrivals, method: Method, replicas: usize, fault_plan: FaultPlan) -> Run {
    let config = ServeConfig {
        dim: DIM,
        seed: 0xB0D5,
        workers: WORKERS,
        // Cache off: every request must compute, so completed requests map
        // 1:1 onto simulated device work and the degradation is honest.
        cache: CacheConfig::disabled(),
        replicas,
        fault_plan,
        ..Default::default()
    };
    let models = vec![method.label().to_lowercase()];
    let plan =
        LoadPlan { models, arrivals: arrivals.clone(), seed: 0xBEE5, pool: POOL, slo_sim_us: None };
    serving::serve(config, &[method], &plan).run
}

fn main() {
    let smoke = smoke_run();
    let (clients, per_client, replicas) = if smoke { (4, 25, 2) } else { (16, 250, 4) };
    let arrivals = Arrivals::Closed { clients, per_client };
    let fault_counts: &[usize] = if smoke { &[0, 2] } else { &[0, 2, 4, 8] };
    let trials = serving::trials(smoke);

    println!(
        "bench_chaos: dim {DIM}, {clients} clients x {per_client} requests, {WORKERS} workers, \
         pod {replicas}, fault seed {FAULT_SEED}, host cores {}, {trials} trial(s) per arm, \
         median [q1, q3]{}\n",
        host_cores(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut calibration = Vec::new();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for method in [Method::Butterfly, Method::Baseline] {
        // The simulated compute a fault-free run presents to the pod: what
        // the fault plan's clock counts, i.e. device work net of weight
        // loads. Crashes land at fractions of it, so they fire mid-run on
        // any host.
        let clean = run_arm(&arrivals, method, replicas, FaultPlan::none()).sim;
        let horizon_us = (clean.device_us - clean.weight_load_us).max(0.0);
        calibration.push((method.label().to_lowercase(), horizon_us));
        let plans: Vec<FaultPlan> = fault_counts
            .iter()
            .map(|&faults| FaultPlan::seeded(FAULT_SEED, replicas, horizon_us * 0.8, faults))
            .collect();
        let arms = rotate(trials, plans.len(), |arm| {
            run_arm(&arrivals, method, replicas, plans[arm].clone())
        });
        for (&faults, arm) in fault_counts.iter().zip(&arms) {
            let vs_fault_free = ratio(arm, &arms[0], |r| r.sim.throughput_rps);
            let median = |metric: fn(&Run) -> f64| Spread::of(arm.iter().map(metric)).median;
            rows.push(vec![
                method.label().to_string(),
                faults.to_string(),
                format!("{:.0}", median(|r| r.wall.succeeded as f64)),
                format!("{:.0}", median(|r| r.wall.failed as f64)),
                format!("{:.0}", median(|r| r.sim.retried_batches as f64)),
                format!("{:.0}", median(|r| r.sim.crashes as f64)),
                format!("{:.0}", median(|r| r.sim.cold_loads as f64)),
                format!("{:.1}", median(|r| r.sim.weight_load_us)),
                Spread::of(arm.iter().map(|r| r.sim.throughput_rps)).to_string(),
                vs_fault_free.to_string(),
            ]);
            results.push(ChaosResult {
                method: method.label().to_lowercase(),
                faults,
                run: summary(arm),
                vs_fault_free,
            });
        }
    }
    let headers = [
        "method", "faults", "served", "failed", "retried", "crashes", "cold", "load us", "sim rps",
        "vs clean",
    ];
    println!("{}", format_table(&headers, &rows));

    let output = BenchOutput {
        dim: DIM,
        workers: WORKERS,
        clients,
        per_client,
        input_pool: POOL,
        replicas,
        fault_seed: FAULT_SEED,
        calibration_horizon_us: calibration,
        results,
    };
    write_bench_json("chaos", &output, smoke);
}
