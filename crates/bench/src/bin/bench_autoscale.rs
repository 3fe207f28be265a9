//! bench_autoscale — elastic scale-up under a calibrated flash-crowd trace
//! (`bfly-serve`'s autoscale controller + `bfly-data`'s traffic traces).
//!
//! A calibration run first measures each method's steady-state serving
//! capacity on a single-replica pod (closed loop, cache off). One shared
//! flash-crowd trace is then built against those measurements — quiet at
//! half the *slower* method's capacity, spiking to a multiple of the
//! *faster* method's — and the identical seeded arrival schedule is
//! replayed against every run, so butterfly and the dense baseline face
//! equal offered load. For each method the sweep runs the trace twice:
//! once pinned at the initial pod size (autoscaling disabled) and once
//! elastic (the controller may grow the pod to `max` replicas and drain it
//! back). Scale-up is recovery of a cold replica: the grown standby pays
//! the priced weight load before it can serve, so the run's
//! *time-to-healthy* is read straight off the grown replica's
//! `weight_load_us`. A butterfly replica becomes healthy after an
//! O(n log n)-byte transfer where the dense baseline moves ~n²·4 bytes —
//! the paper's compression argument restated one more time, now as
//! *elasticity under a flash crowd*. Every run is also scored against a
//! simulated-latency SLO set with equal headroom per method — `slo_mult`
//! times that method's own clean p99 — so steady-state batches always fit
//! and misses isolate the scale-up transient: the cold weight load a
//! grown replica's first batch carries breaches dense's SLO but hides
//! inside butterfly's headroom.
//!
//! Environment knobs: BFLY_AUTOSCALE_DIM (default 2048), BFLY_AUTOSCALE_
//! WORKERS (default 2), BFLY_AUTOSCALE_BATCH (default 32),
//! BFLY_AUTOSCALE_POOL (default 64), BFLY_AUTOSCALE_QUEUE (default 512),
//! BFLY_AUTOSCALE_MAX (pod ceiling, default 4), BFLY_AUTOSCALE_CLIENTS /
//! BFLY_AUTOSCALE_PER_CLIENT (calibration load, defaults 32 x 50 — enough
//! concurrent clients to fill max_batch, so the clean p99 prices *full*
//! batches like the ones the flash crowd forms),
//! BFLY_AUTOSCALE_SPIKE (peak rate as a multiple of the fast method's
//! capacity, default 3.0), BFLY_AUTOSCALE_SLO_MULT (per-method SLO as a
//! multiple of its clean sim p99, default 1.2), BFLY_AUTOSCALE_MAX_ARRIVALS
//! (trace size cap, default 60000), BFLY_AUTOSCALE_SEED (trace seed,
//! default 17).
//!
//! `--smoke` (or BFLY_BENCH_SMOKE=1) runs a tiny sweep for CI and skips
//! the JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_f64, env_u64, env_usize, host_cores, smoke_run};
use bfly_core::Method;
use bfly_data::TrafficTrace;
use bfly_serve::{
    Arrivals, AutoscaleConfig, AutoscaleReport, CacheConfig, LoadPlan, ReplicaStats, ScaleDecision,
    ServeConfig, Server,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Calibration {
    method: String,
    /// Steady-state wall throughput of a single-replica pod, requests/s.
    capacity_rps: f64,
    /// Clean (fault-free, fully warm after the first batch) simulated
    /// per-batch latency percentiles, µs.
    sim_p50_us: f64,
    sim_p99_us: f64,
}

#[derive(Serialize)]
struct RunStats {
    method: String,
    /// `fixed` (autoscaling disabled, pinned at the initial pod size) or
    /// `elastic` (the controller may grow to `max_replicas`).
    mode: String,
    offered: u64,
    completed: u64,
    shed: u64,
    /// Requests whose simulated batch latency breached the method's SLO.
    sim_slo_misses: u64,
    /// The simulated-latency SLO the run was scored against, µs
    /// (`slo_mult` x this method's clean sim p99).
    slo_sim_us: f64,
    /// Standbys the controller enrolled / drained over the run.
    scale_ups: u64,
    drains: u64,
    /// Simulated µs a newly grown replica spent loading weights before it
    /// could serve — the time-to-healthy. `None` when nothing grew.
    time_to_healthy_us: Option<f64>,
    /// Simulated pod makespan: the maximum replica occupancy clock, µs.
    pod_makespan_us: f64,
    /// Completed requests per simulated device second.
    sim_throughput_rps: f64,
    wall_throughput_rps: f64,
    /// Cold weight loads paid across the pod, and their simulated cost.
    cold_loads: u64,
    weight_load_us: f64,
    autoscale: AutoscaleReport,
    replicas_detail: Vec<ReplicaStats>,
}

#[derive(Serialize)]
struct Headline {
    /// Grown-replica time-to-healthy, µs (elastic runs).
    butterfly_time_to_healthy_us: Option<f64>,
    baseline_time_to_healthy_us: Option<f64>,
    /// butterfly / baseline; the acceptance bar is <= 0.25.
    time_to_healthy_ratio: Option<f64>,
    /// SLO misses at equal offered load (elastic runs).
    butterfly_slo_misses: u64,
    baseline_slo_misses: u64,
}

#[derive(Serialize)]
struct BenchOutput {
    config: ConfigBlock,
    host_cores: usize,
    calibration: Vec<Calibration>,
    /// The shared trace both methods replay: rate segments after any
    /// size-cap rescale, plus the arrival count actually offered.
    trace: TraceBlock,
    results: Vec<RunStats>,
    headline: Headline,
}

#[derive(Serialize)]
struct ConfigBlock {
    dim: usize,
    classes: usize,
    workers: usize,
    max_batch: usize,
    input_pool: usize,
    queue_capacity: usize,
    initial_replicas: usize,
    max_replicas: usize,
    spike_multiple: f64,
    slo_mult: f64,
    trace_seed: u64,
    autoscale_interval_ms: u64,
    cooldown_windows: u32,
}

#[derive(Serialize)]
struct TraceBlock {
    duration_s: f64,
    base_rps: f64,
    peak_rps: f64,
    arrivals: usize,
}

struct Workload {
    dim: usize,
    workers: usize,
    max_batch: usize,
    pool: usize,
    queue: usize,
    initial: usize,
    max: usize,
    clients: u64,
    per_client: u64,
    interval: Duration,
    cooldown: u32,
}

fn serve_config(w: &Workload, autoscale: AutoscaleConfig) -> ServeConfig {
    ServeConfig {
        dim: w.dim,
        classes: 10,
        seed: 0xB0D5,
        max_batch: w.max_batch,
        max_wait: Duration::from_micros(200),
        queue_capacity: w.queue,
        workers: w.workers,
        tensor_cores: false,
        // Cache off: every request must compute, so backlog and simulated
        // latency reflect real work and the scale signals are honest.
        cache: CacheConfig::disabled(),
        replicas: w.initial,
        autoscale,
        ..Default::default()
    }
}

fn elastic_config(w: &Workload) -> AutoscaleConfig {
    AutoscaleConfig {
        interval: w.interval,
        cooldown_windows: w.cooldown,
        ..AutoscaleConfig::bounded(w.initial, w.max)
    }
}

/// Measures one method's steady-state capacity on a single-replica pod.
fn calibrate(w: &Workload, method: Method) -> Calibration {
    let name = method.label().to_lowercase();
    let server =
        Server::start(serve_config(w, AutoscaleConfig::default()), &[method]).expect("dim fits");
    let arrivals = Arrivals::Closed { clients: w.clients, per_client: w.per_client };
    let models = vec![name.clone()];
    let report =
        LoadPlan { models, arrivals, seed: 0xBEE5, pool: w.pool, slo_sim_us: None }.run(&server);
    server.shutdown();
    Calibration {
        method: name,
        capacity_rps: report.throughput_rps,
        sim_p50_us: report.sim_p50_us,
        sim_p99_us: report.sim_p99_us,
    }
}

/// Time-to-healthy of the first replica the controller grew: its priced
/// weight load, per cold load so a drain/regrow cycle does not double it.
fn time_to_healthy_us(report: &AutoscaleReport, replicas: &[ReplicaStats]) -> Option<f64> {
    report.events.iter().find(|e| e.decision == ScaleDecision::Grow).map(|e| {
        let r = &replicas[e.replica];
        if r.cold_loads > 0 {
            r.weight_load_us / r.cold_loads as f64
        } else {
            0.0 // warm pool pre-paid the load
        }
    })
}

fn run_once(
    w: &Workload,
    method: Method,
    mode: &str,
    autoscale: AutoscaleConfig,
    arrivals: &[f64],
    slo_sim_us: f64,
) -> RunStats {
    let name = method.label().to_lowercase();
    let server = Server::start(serve_config(w, autoscale), &[method]).expect("dim fits");
    let plan = LoadPlan {
        models: vec![name.clone()],
        arrivals: Arrivals::Trace(arrivals.to_vec()),
        seed: 0xBEE5,
        pool: w.pool,
        slo_sim_us: Some(slo_sim_us),
    };
    let report = plan.run(&server);
    let autoscale_report = server.autoscale_report();
    let snapshot = server.shutdown();
    let makespan_us = snapshot.pod_makespan_us;
    let sim_throughput =
        if makespan_us > 0.0 { report.completed as f64 / (makespan_us / 1e6) } else { 0.0 };
    RunStats {
        method: name,
        mode: mode.to_string(),
        offered: report.offered,
        completed: report.completed,
        shed: report.shed,
        sim_slo_misses: report.sim_slo_misses,
        slo_sim_us,
        scale_ups: snapshot.replicas.iter().map(|r| r.scale_ups).sum(),
        drains: snapshot.replicas.iter().map(|r| r.drains).sum(),
        time_to_healthy_us: time_to_healthy_us(&autoscale_report, &snapshot.replicas),
        pod_makespan_us: makespan_us,
        sim_throughput_rps: sim_throughput,
        wall_throughput_rps: report.throughput_rps,
        cold_loads: snapshot.replicas.iter().map(|r| r.cold_loads).sum(),
        weight_load_us: snapshot.replicas.iter().map(|r| r.weight_load_us).sum(),
        autoscale: autoscale_report,
        replicas_detail: snapshot.replicas,
    }
}

fn main() {
    let smoke = smoke_run();
    let workload = Workload {
        dim: env_usize("BFLY_AUTOSCALE_DIM", if smoke { 512 } else { 2048 }),
        workers: env_usize("BFLY_AUTOSCALE_WORKERS", if smoke { 1 } else { 2 }),
        max_batch: env_usize("BFLY_AUTOSCALE_BATCH", 32),
        pool: env_usize("BFLY_AUTOSCALE_POOL", 64),
        queue: env_usize("BFLY_AUTOSCALE_QUEUE", 512),
        initial: 1,
        max: env_usize("BFLY_AUTOSCALE_MAX", 4),
        clients: env_u64("BFLY_AUTOSCALE_CLIENTS", if smoke { 8 } else { 32 }),
        per_client: env_u64("BFLY_AUTOSCALE_PER_CLIENT", if smoke { 15 } else { 50 }),
        interval: Duration::from_millis(if smoke { 15 } else { 40 }),
        cooldown: 2,
    };
    let spike = env_f64("BFLY_AUTOSCALE_SPIKE", 3.0);
    let slo_mult = env_f64("BFLY_AUTOSCALE_SLO_MULT", 1.2);
    let max_arrivals = env_usize("BFLY_AUTOSCALE_MAX_ARRIVALS", if smoke { 2_500 } else { 60_000 });
    let trace_seed = env_u64("BFLY_AUTOSCALE_SEED", 17);
    let host_cores = host_cores();

    println!(
        "bench_autoscale: dim {}, {} workers, batch {}, pod 1->{}, spike {spike}x, \
         host cores {host_cores}{}\n",
        workload.dim,
        workload.workers,
        workload.max_batch,
        workload.max,
        if smoke { " [smoke]" } else { "" }
    );

    // Calibration: steady single-replica capacity per method. The slower
    // method anchors the quiet rate (both idle comfortably), the faster
    // one anchors the spike (both are overwhelmed during the flash and
    // must grow). Each method's clean p99 anchors its own SLO.
    let methods = [Method::Butterfly, Method::Baseline];
    let calibration: Vec<Calibration> = methods.iter().map(|&m| calibrate(&workload, m)).collect();
    for c in &calibration {
        println!(
            "calibrated {:>10}: {:>8.0} rps steady, sim p50 {:.1} us, p99 {:.1} us",
            c.method, c.capacity_rps, c.sim_p50_us, c.sim_p99_us
        );
    }
    let slow_cap = calibration.iter().map(|c| c.capacity_rps).fold(f64::INFINITY, f64::min);
    let fast_cap = calibration.iter().map(|c| c.capacity_rps).fold(0.0, f64::max);

    // One shared flash-crowd trace: quiet at half the slow method's
    // capacity, spiking to `spike` x the fast method's. Capped in size so
    // a fast host cannot explode the arrival count; the cap rescales both
    // phases together, preserving the quiet:spike ratio.
    let base = (slow_cap * 0.5).max(1.0);
    let peak = (fast_cap * spike).max(base * 2.0);
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
    let arrivals = trace.arrivals(&mut ChaCha8Rng::seed_from_u64(trace_seed));
    println!(
        "trace: {:.2} s, base {:.0} rps, peak {:.0} rps, {} arrivals, slo {slo_mult}x clean p99\n",
        trace.duration_s(),
        trace.rate_at(0.0),
        trace.peak_rps(),
        arrivals.len(),
    );

    println!(
        "{:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>12} {:>14}",
        "method",
        "mode",
        "offered",
        "completed",
        "shed",
        "misses",
        "grows",
        "drains",
        "healthy us",
        "sim rps"
    );
    let mut results = Vec::new();
    for (&method, calib) in methods.iter().zip(&calibration) {
        let slo_sim_us = calib.sim_p99_us * slo_mult;
        for (mode, autoscale) in
            [("fixed", AutoscaleConfig::default()), ("elastic", elastic_config(&workload))]
        {
            let stats = run_once(&workload, method, mode, autoscale, &arrivals, slo_sim_us);
            println!(
                "{:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>12} {:>14.0}",
                stats.method,
                stats.mode,
                stats.offered,
                stats.completed,
                stats.shed,
                stats.sim_slo_misses,
                stats.scale_ups,
                stats.drains,
                stats.time_to_healthy_us.map_or("-".to_string(), |v| format!("{v:.1}")),
                stats.sim_throughput_rps,
            );
            results.push(stats);
        }
    }

    let elastic = |m: &str| results.iter().find(|r| r.method == m && r.mode == "elastic");
    let bfly = elastic("butterfly").expect("butterfly elastic run");
    let dense = elastic("baseline").expect("baseline elastic run");
    let headline = Headline {
        butterfly_time_to_healthy_us: bfly.time_to_healthy_us,
        baseline_time_to_healthy_us: dense.time_to_healthy_us,
        time_to_healthy_ratio: match (bfly.time_to_healthy_us, dense.time_to_healthy_us) {
            (Some(b), Some(d)) if d > 0.0 => Some(b / d),
            _ => None,
        },
        butterfly_slo_misses: bfly.sim_slo_misses,
        baseline_slo_misses: dense.sim_slo_misses,
    };
    match headline.time_to_healthy_ratio {
        Some(ratio) => println!(
            "\ntime-to-healthy: butterfly {:.1} us vs dense {:.1} us ({:.3}x); \
             slo misses {} vs {}",
            headline.butterfly_time_to_healthy_us.unwrap_or(0.0),
            headline.baseline_time_to_healthy_us.unwrap_or(0.0),
            ratio,
            headline.butterfly_slo_misses,
            headline.baseline_slo_misses,
        ),
        None => println!("\nno scale-up fired for at least one method (trace too gentle?)"),
    }

    let output = BenchOutput {
        config: ConfigBlock {
            dim: workload.dim,
            classes: 10,
            workers: workload.workers,
            max_batch: workload.max_batch,
            input_pool: workload.pool,
            queue_capacity: workload.queue,
            initial_replicas: workload.initial,
            max_replicas: workload.max,
            spike_multiple: spike,
            slo_mult,
            trace_seed,
            autoscale_interval_ms: workload.interval.as_millis() as u64,
            cooldown_windows: workload.cooldown,
        },
        host_cores,
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
