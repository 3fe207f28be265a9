//! bench_cache — quantifies the content-addressed response cache of
//! `bfly-serve`.
//!
//! The generator offers the identical seeded workload twice — once with the
//! cache disabled, once enabled — at each point of an input-reuse sweep:
//! the open-loop driver cycles through a pool of `p` distinct inputs across
//! `n` requests, so the fraction `1 - p/n` of the offered load is repeated
//! content. With the cache off every request computes; with it on, repeats
//! are served from the memo (or coalesce onto an in-flight forward) without
//! touching the batcher. Queues hold the whole burst, so both arms serve
//! the same `n` requests and their ratios compare at equal acceptance; the
//! cache's win shows up as wall-clock throughput and tail latency. Each
//! arm runs through `bfly_bench::serving` (rotated trials, median and
//! quartiles of every metric); results are printed as a table and written
//! to `BENCH_cache.json`.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Run, Spread, Trial};
use bfly_bench::{format_table, smoke_run};
use bfly_core::Method;
use bfly_serve::{Arrivals, CacheConfig, CacheStats, LoadPlan, ServeConfig};
use serde::Serialize;
use serde_json::Value;

const DIM: usize = 256;
/// Offered requests/s: far above capacity, i.e. a burst.
const RATE: f64 = 1e6;
const WORKERS: usize = 2;

#[derive(Serialize)]
struct CacheRun {
    run: Run,
    /// Fraction of lookups served without a dedicated forward (memo hits
    /// plus coalesced riders) — the share of offered load the cache
    /// absorbed. Under a burst most repeats coalesce onto the in-flight
    /// leader rather than hit the memo, so this is the honest "cached"
    /// number.
    served_rate: f64,
    /// Server-side cache accounting (all zero when disabled).
    cache: CacheStats,
}

impl Trial for CacheRun {
    fn success_rate(&self) -> f64 {
        self.run.success_rate()
    }
}

#[derive(Serialize)]
struct SweepPoint {
    /// Distinct inputs the generator cycled through.
    pool_size: usize,
    /// Fraction of offered requests whose input was a repeat: `1 - p/n`.
    reuse_frac: f64,
    cache_off: Value,
    cache_on: Value,
    /// Cache-on over cache-off median wall throughput.
    throughput_speedup: Ratio,
    /// Cache-off over cache-on median p99 (above 1: the cache cut the tail).
    p99_reduction: Ratio,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    requests: u64,
    offered_rate_rps: f64,
    cache_capacity: usize,
    cache_shards: usize,
    results: Vec<SweepPoint>,
}

fn run_arm(requests: u64, pool: usize, cache: CacheConfig) -> CacheRun {
    let config = ServeConfig {
        dim: DIM,
        seed: 0xCACE,
        // The whole burst fits, so both arms serve all of it.
        queue_capacity: requests as usize,
        workers: WORKERS,
        cache,
        ..Default::default()
    };
    let arrivals = Arrivals::Poisson { rate_hz: RATE, total: requests };
    let models = vec!["butterfly".to_string()];
    let plan = LoadPlan { models, arrivals, seed: 0xBEE5, pool, slo_sim_us: None };
    let served = serving::serve(config, &[Method::Butterfly], &plan);
    let cache = served.snapshot.cache;
    let lookups = cache.hits + cache.coalesced + cache.misses;
    CacheRun {
        run: served.run,
        served_rate: if lookups == 0 {
            0.0
        } else {
            (cache.hits + cache.coalesced) as f64 / lookups as f64
        },
        cache,
    }
}

fn main() {
    let smoke = smoke_run();
    let requests: u64 = if smoke { 300 } else { 4000 };
    let trials = serving::trials(smoke);
    let cache_config = CacheConfig::default();

    // Reuse sweep: pool of n distinct inputs = 0% repeats, down to a pool
    // of n/100 = 99% repeats.
    let divisors: &[(u64, &str)] = if smoke {
        &[(1, "0%"), (2, "50%"), (10, "90%")]
    } else {
        &[(1, "0%"), (4, "75%"), (2, "50%"), (10, "90%"), (100, "99%")]
    };

    println!(
        "bench_cache: dim {DIM}, {requests} requests offered at {RATE:.0} rps, \
         {WORKERS} workers, cache capacity {} x {} shards, {trials} trial(s) per arm, \
         median [q1, q3]{}\n",
        cache_config.capacity,
        cache_config.shards,
        if smoke { " [smoke]" } else { "" }
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &(divisor, label) in divisors {
        let pool_size = ((requests / divisor).max(1)) as usize;
        let configs = [CacheConfig::disabled(), cache_config.clone()];
        let arms = rotate(trials, 2, |arm| run_arm(requests, pool_size, configs[arm].clone()));
        let (off, on) = (&arms[0], &arms[1]);
        let throughput_speedup = ratio(on, off, |t| t.run.wall.throughput_rps);
        let p99_reduction = ratio(off, on, |t| t.run.wall.latency_p99_us as f64);
        let rps = |arm: &[CacheRun]| Spread::of(arm.iter().map(|t| t.run.wall.throughput_rps));
        let p99 =
            |arm: &[CacheRun]| Spread::of(arm.iter().map(|t| t.run.wall.latency_p99_us as f64));
        rows.push(vec![
            label.to_string(),
            pool_size.to_string(),
            rps(off).to_string(),
            rps(on).to_string(),
            throughput_speedup.to_string(),
            p99(off).to_string(),
            p99(on).to_string(),
            p99_reduction.to_string(),
            format!("{:.1}%", 100.0 * Spread::of(on.iter().map(|t| t.served_rate)).median),
        ]);
        results.push(SweepPoint {
            pool_size,
            reuse_frac: 1.0 - pool_size as f64 / requests as f64,
            cache_off: summary(off),
            cache_on: summary(on),
            throughput_speedup,
            p99_reduction,
        });
    }
    let headers = [
        "reuse",
        "pool",
        "off rps",
        "on rps",
        "speedup",
        "off p99 us",
        "on p99 us",
        "p99 cut",
        "cached",
    ];
    println!("{}", format_table(&headers, &rows));

    let output = BenchOutput {
        dim: DIM,
        workers: WORKERS,
        requests,
        offered_rate_rps: RATE,
        cache_capacity: cache_config.capacity,
        cache_shards: cache_config.shards,
        results,
    };
    write_bench_json("cache", &output, smoke);
}
