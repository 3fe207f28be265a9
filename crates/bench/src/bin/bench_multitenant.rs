//! bench_multitenant — multi-tenant weight residency under an SRAM budget.
//!
//! The paper's butterfly factorization shrinks a model's weight footprint
//! from ~n²·4 bytes to O(n log n); this bench restates that as *tenant
//! density*: how many models stay resident in one replica's SRAM budget,
//! and what happens to the simulated tail when a fleet outgrows it. For
//! each fleet size the same seeded Zipf-skewed trace (a few hot models, a
//! long cold tail, spread over `tenants` tenants round-robin) is offered
//! to a butterfly fleet and a dense-baseline fleet at the *same* budget,
//! the two arms of one `bfly_bench::serving` experiment (rotated trials,
//! median and quartiles of every metric):
//!
//! - the butterfly fleet keeps many times more models resident, so the
//!   residency hit rate stays high and `sim p99` stays near pure compute;
//! - the dense fleet thrashes once the working set exceeds the budget —
//!   every touch becomes a streaming page-in (bytes / streaming bandwidth
//!   plus the collective launch), and the hit-rate and p99 fall off a
//!   cliff together.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Run, Spread, Trial};
use bfly_bench::{format_table, smoke_run};
use bfly_core::Method;
use bfly_serve::{
    Arrivals, CacheConfig, LoadPlan, ModelSpec, ResidencyConfig, ResidencyPolicy, ResidencySummary,
    ServeConfig, ZipfSampler,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use serde_json::Value;

const DIM: usize = 256;
/// Per-replica SRAM budget, bytes.
const BUDGET: u64 = 1024 * 1024;
const POLICY: ResidencyPolicy = ResidencyPolicy::Lru;
const TENANTS: usize = 4;
/// Zipf popularity exponent of the model trace.
const ZIPF: f64 = 1.0;
/// Length of the pre-sampled model trace.
const TRACE_LEN: usize = 512;

#[derive(Serialize)]
struct FleetRun {
    run: Run,
    /// Per-model weight footprint, bytes (all models in a run share one
    /// method, so one number describes the fleet).
    weight_bytes_per_model: u64,
    /// The replica's residency ledger at the end of the run:
    /// `resident_models` is the tenant density the factorization buys.
    residency: ResidencySummary,
}

impl Trial for FleetRun {
    fn success_rate(&self) -> f64 {
        self.run.success_rate()
    }
}

#[derive(Serialize)]
struct FleetResult {
    /// Registered fleet size (models, spread round-robin over tenants).
    models: usize,
    butterfly: Value,
    baseline: Value,
    /// Butterfly over baseline median resident models.
    density: Ratio,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    sram_budget_bytes: u64,
    policy: String,
    tenants: usize,
    zipf_exponent: f64,
    clients: u64,
    per_client: u64,
    trace_len: usize,
    results: Vec<FleetResult>,
}

/// One fleet at one budget: `models` instances of `method`, tenants
/// assigned round-robin, loaded with the pre-sampled model trace.
fn run_arm(arrivals: &Arrivals, models: usize, trace: &[String], method: Method) -> FleetRun {
    let specs = (0..models)
        .map(|i| ModelSpec::named(&format!("m{i:03}"), method, &format!("tenant{}", i % TENANTS)));
    let config = ServeConfig {
        dim: DIM,
        seed: 0x7E4A,
        max_batch: 4,
        workers: 2,
        // Cache off: every request computes and touches the residency
        // manager, so hit rates and paged bytes reflect the weight working
        // set, not response memoization.
        cache: CacheConfig::disabled(),
        // One replica (the default): density and thrash are
        // per-SRAM-budget phenomena; more replicas would just replicate
        // the same curve.
        residency: ResidencyConfig { policy: POLICY, ..ResidencyConfig::with_budget(BUDGET) },
        ..Default::default()
    };
    let plan = LoadPlan {
        models: trace.to_vec(),
        arrivals: arrivals.clone(),
        seed: 0xFEED,
        pool: 64,
        slo_sim_us: None,
    };
    let served = serving::serve(config, specs, &plan);
    FleetRun {
        run: served.run,
        weight_bytes_per_model: served.snapshot.models.first().map_or(0, |m| m.weight_bytes),
        residency: served.snapshot.residency,
    }
}

fn main() {
    let smoke = smoke_run();
    let (clients, per_client) = if smoke { (4, 20) } else { (8, 150) };
    let arrivals = Arrivals::Closed { clients, per_client };
    let fleet_sizes: &[usize] = if smoke { &[4, 8] } else { &[8, 32, 96] };
    let trials = serving::trials(smoke);

    println!(
        "bench_multitenant: dim {DIM}, budget {} KiB, policy {}, {TENANTS} tenants, zipf {ZIPF}, \
         {clients} clients x {per_client} requests, {trials} trial(s) per arm, \
         median [q1, q3]{}\n",
        BUDGET / 1024,
        POLICY.label(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &models in fleet_sizes {
        // Pre-sample the Zipf-skewed model trace once, seeded, so butterfly
        // and dense fleets of the same size see the *identical* popularity
        // pattern.
        let sampler = ZipfSampler::new(models, ZIPF);
        let mut rng = ChaCha8Rng::seed_from_u64(0x21F5);
        let trace: Vec<String> =
            (0..TRACE_LEN).map(|_| format!("m{:03}", sampler.sample(&mut rng))).collect();
        let methods = [Method::Butterfly, Method::Baseline];
        let arms = rotate(trials, 2, |arm| run_arm(&arrivals, models, &trace, methods[arm]));
        for (method, arm) in methods.iter().zip(&arms) {
            let median = |metric: fn(&FleetRun) -> f64| Spread::of(arm.iter().map(metric)).median;
            rows.push(vec![
                method.label().to_string(),
                models.to_string(),
                arm[0].weight_bytes_per_model.to_string(),
                format!("{:.0}", median(|t| t.residency.resident_models as f64)),
                format!("{:.3}", median(|t| t.residency.hit_rate)),
                format!("{:.0}", median(|t| t.residency.evictions as f64)),
                format!("{:.0}", median(|t| t.residency.paged_in_bytes as f64 / 1024.0)),
                format!("{:.1}", Spread::of(arm.iter().map(|t| t.run.sim.batch_p50_us))),
                format!("{:.1}", Spread::of(arm.iter().map(|t| t.run.sim.batch_p99_us))),
            ]);
        }
        results.push(FleetResult {
            models,
            density: ratio(&arms[0], &arms[1], |t| t.residency.resident_models as f64),
            butterfly: summary(&arms[0]),
            baseline: summary(&arms[1]),
        });
    }
    let headers = [
        "method",
        "fleet",
        "bytes/mdl",
        "resident",
        "hit rate",
        "evictions",
        "paged KiB",
        "sim p50 us",
        "sim p99 us",
    ];
    println!("{}", format_table(&headers, &rows));

    let output = BenchOutput {
        dim: DIM,
        sram_budget_bytes: BUDGET,
        policy: POLICY.label().to_string(),
        tenants: TENANTS,
        zipf_exponent: ZIPF,
        clients,
        per_client,
        trace_len: TRACE_LEN,
        results,
    };
    write_bench_json("multitenant", &output, smoke);
}
