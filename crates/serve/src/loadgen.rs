//! Load generation: one seeded [`LoadPlan`] that drives a server open-loop
//! (Poisson or replayed-trace arrivals) or closed-loop (fixed concurrency),
//! with client-side latency accounting.

use crate::payload::Payload;
use crate::request::{ResponseHandle, ServedFrom, SubmitError};
use crate::server::Server;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Client-side result of one load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests the generator attempted to submit.
    pub offered: u64,
    /// Requests admitted by the server.
    pub accepted: u64,
    /// Requests shed at admission ([`SubmitError::Overloaded`]).
    pub shed: u64,
    /// Responses received (successes and failures alike).
    pub completed: u64,
    /// Successful responses: computed, or served from the response cache.
    pub succeeded: u64,
    /// Responses answered [`ServedFrom::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests refused ([`SubmitError::PodDown`]) or answered
    /// [`ServedFrom::PodDown`] because no replica was healthy.
    pub pod_down: u64,
    /// Seconds from first submission to last response.
    pub elapsed_s: f64,
    /// Offered request rate over the submission window.
    pub offered_rps: f64,
    /// Successful responses per second over the whole run; failed
    /// responses (deadline misses, `PodDown`, refusals) do not count.
    pub throughput_rps: f64,
    /// Median end-to-end latency, microseconds (server-attributed).
    pub latency_p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub latency_p99_us: u64,
    /// Mean latency, microseconds.
    pub latency_mean_us: f64,
    /// Mean micro-batch size the responses were served in.
    pub mean_batch: f64,
    /// Median *simulated* per-batch latency, microseconds: what each
    /// response's batch reserved on its replica's occupancy clock (routed
    /// compute plus any residency weight transfer). Cache hits and
    /// coalesced followers contribute their honest 0.
    pub sim_p50_us: f64,
    /// 95th-percentile simulated per-batch latency, microseconds.
    pub sim_p95_us: f64,
    /// 99th-percentile simulated per-batch latency, microseconds — the
    /// tail that collapses when a working set outgrows the SRAM budget and
    /// every touch becomes a streaming page-in.
    pub sim_p99_us: f64,
    /// Mean simulated per-batch latency, microseconds.
    pub sim_mean_us: f64,
    /// Simulated-latency SLO the run was scored against, microseconds
    /// (0.0 when the plan set none).
    pub slo_sim_us: f64,
    /// Successful responses whose simulated batch latency exceeded
    /// `slo_sim_us` — the SLO-miss count of the autoscale bench, measured
    /// in the simulated domain where weight loads and queueing live.
    pub sim_slo_misses: u64,
}

fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seeded Zipf(s) sampler over `n` items: item `i` is drawn with
/// probability proportional to `1 / (i + 1)^s`. The skewed-popularity
/// workload of the multi-tenant bench — a handful of hot models plus a
/// long cold tail is exactly the traffic shape that makes an SRAM budget
/// either hold (butterfly working set fits) or thrash (dense does not).
///
/// The CDF is precomputed at construction; sampling is one uniform draw
/// plus a binary search, so the generator's submit path stays cheap.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cdf[n - 1] == 1.0`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler. `exponent` 0.0 is the uniform distribution;
    /// larger exponents concentrate mass on the low ranks (classic web
    /// traffic is near 1.0).
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one item");
        assert!(exponent >= 0.0, "zipf exponent must be non-negative");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        cdf[n - 1] = 1.0;
        Self { cdf }
    }

    /// Number of items the sampler draws from.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false: construction rejects an empty item set, so a sampler
    /// holds at least one item.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one item index in `0..len()`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        // First index whose cumulative probability covers the draw.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Classified client-side outcomes of one generator run: failure responses
/// are tallied but kept out of the latency and batch-size samples (a
/// deadline miss answered in ~0 µs would otherwise *improve* the reported
/// tail).
#[derive(Default)]
struct Outcomes {
    deadline_exceeded: u64,
    pod_down: u64,
    /// Ingress-only failure verdicts ([`ServedFrom::Throttled`] /
    /// [`ServedFrom::Rejected`]): the in-process generators never receive
    /// them, but a driver replaying responses from the framed front door
    /// must not let their ~0 µs answers fake a fast tail.
    refused: u64,
    latencies: Vec<u64>,
    batch_sizes: Vec<usize>,
    /// Simulated per-batch µs of successful responses ([`Timing::sim_batch_us`]).
    sim_latencies: Vec<f64>,
}

impl Outcomes {
    fn absorb(&mut self, response: &crate::request::InferResponse) {
        match response.timing.source {
            ServedFrom::DeadlineExceeded => self.deadline_exceeded += 1,
            ServedFrom::PodDown => self.pod_down += 1,
            ServedFrom::Throttled | ServedFrom::Rejected => self.refused += 1,
            _ => {
                self.latencies.push(response.timing.total_us);
                self.batch_sizes.push(response.timing.batch_size);
                if let Some(sim_us) = response.timing.sim_batch_us {
                    self.sim_latencies.push(sim_us);
                }
            }
        }
    }

    fn completed(&self) -> u64 {
        self.deadline_exceeded + self.pod_down + self.refused + self.latencies.len() as u64
    }
}

#[allow(clippy::too_many_arguments)]
fn report(
    offered: u64,
    accepted: u64,
    shed: u64,
    refused_pod_down: u64,
    outcomes: Outcomes,
    elapsed_s: f64,
    submit_window_s: f64,
    slo_sim_us: Option<f64>,
) -> LoadReport {
    let completed = outcomes.completed();
    let succeeded = outcomes.latencies.len() as u64;
    let Outcomes {
        deadline_exceeded,
        pod_down,
        refused: _,
        mut latencies,
        batch_sizes,
        mut sim_latencies,
    } = outcomes;
    let pod_down = pod_down + refused_pod_down;
    latencies.sort_unstable();
    sim_latencies.sort_unstable_by(f64::total_cmp);
    let sim_mean = if sim_latencies.is_empty() {
        0.0
    } else {
        sim_latencies.iter().sum::<f64>() / sim_latencies.len() as f64
    };
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let mean_batch = if batch_sizes.is_empty() {
        0.0
    } else {
        batch_sizes.iter().sum::<usize>() as f64 / batch_sizes.len() as f64
    };
    LoadReport {
        offered,
        accepted,
        shed,
        completed,
        succeeded,
        deadline_exceeded,
        pod_down,
        elapsed_s,
        offered_rps: if submit_window_s > 0.0 { offered as f64 / submit_window_s } else { 0.0 },
        throughput_rps: if elapsed_s > 0.0 { succeeded as f64 / elapsed_s } else { 0.0 },
        latency_p50_us: quantile(&latencies, 0.50),
        latency_p95_us: quantile(&latencies, 0.95),
        latency_p99_us: quantile(&latencies, 0.99),
        latency_mean_us: mean,
        mean_batch,
        sim_p50_us: quantile(&sim_latencies, 0.50),
        sim_p95_us: quantile(&sim_latencies, 0.95),
        sim_p99_us: quantile(&sim_latencies, 0.99),
        sim_mean_us: sim_mean,
        slo_sim_us: slo_sim_us.unwrap_or(0.0),
        sim_slo_misses: match slo_sim_us {
            Some(slo) => sim_latencies.iter().filter(|&&v| v > slo).count() as u64,
            None => 0,
        },
    }
}

/// Pre-generates `pool_size` seeded random input rows of width `dim`.
///
/// [`LoadPlan`] draws its inputs here, so two runs with the same seed and
/// pool size offer byte-identical inputs — which is what makes cache-on vs
/// cache-off comparisons at equal offered load meaningful.
///
/// Entries are shared [`Payload`]s: every submission of a pool row is a
/// reference-count bump on the one allocation made here, so the plan
/// measures the server's admission path, not its own memcpys.
pub fn input_pool(dim: usize, pool_size: usize, rng: &mut ChaCha8Rng) -> Vec<Payload> {
    assert!(pool_size > 0, "input pool must be non-empty");
    (0..pool_size)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>().into())
        .collect()
}

/// How a [`LoadPlan`] offers its requests.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Open loop: `total` requests with seeded Poisson arrivals at
    /// `rate_hz`. The exponential gaps come from the plan's seeded stream,
    /// drawn after the input pool, and are then replayed as a trace.
    Poisson {
        /// Mean offered rate, requests per second.
        rate_hz: f64,
        /// Requests to offer.
        total: u64,
    },
    /// Open loop over a pre-computed schedule: entry `i` is the second,
    /// after the run starts, at which request `i` is offered (ascending —
    /// e.g. `bfly_data::TrafficTrace::arrivals` for diurnal, flash-crowd or
    /// Pareto shapes). Raw offsets keep this crate decoupled from the trace
    /// builder.
    Trace(Vec<f64>),
    /// Closed loop: `clients` threads each keep exactly one request in
    /// flight for `per_client` iterations. Throughput is
    /// admission-controlled by construction; sheds are retried, not
    /// dropped.
    Closed {
        /// Concurrent client threads.
        clients: u64,
        /// Requests each client sends, one at a time.
        per_client: u64,
    },
}

/// One seeded load-generation run against a server.
///
/// Open-loop plans never wait for responses during the submission window
/// (arrivals are independent of service — the mode that can overload the
/// server and exercise shedding); open-loop request `i` targets
/// `models[i % models.len()]`. Closed-loop client `c` walks the input pool
/// and the model list from offset `c`, so clients run out of phase: a
/// multi-model deployment is loaded on every model at once, and
/// cross-client coalescing is exercised without every thread hammering the
/// same key in lockstep.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Target model names; must be non-empty.
    pub models: Vec<String>,
    /// Open-loop schedule or closed-loop concurrency.
    pub arrivals: Arrivals,
    /// Seeds the input pool and, after it, the Poisson gaps.
    pub seed: u64,
    /// Distinct input rows cycled through — the input-reuse knob: with the
    /// response cache on, a pool of `p` against `n ≫ p` requests yields a
    /// steady-state hit rate of about `1 - p/n`.
    pub pool: usize,
    /// Scores every successful response against a *simulated*-latency SLO:
    /// a response whose batch reserved more than this many simulated µs on
    /// its replica (queued compute plus any cold weight load) counts as a
    /// miss in [`LoadReport::sim_slo_misses`]. The autoscale bench counts
    /// misses during a flash-crowd ramp this way — in the domain where the
    /// weight-load asymmetry between factorizations actually lives.
    pub slo_sim_us: Option<f64>,
}

impl LoadPlan {
    /// Offers the plan's load to `server` and waits for every admitted
    /// request's response.
    pub fn run(&self, server: &Server) -> LoadReport {
        assert!(!self.models.is_empty(), "a load plan needs at least one target model");
        let (inputs, offsets) = self.draw(server.config().dim);
        match self.arrivals {
            Arrivals::Closed { clients, per_client } => {
                self.closed(server, &inputs, clients, per_client)
            }
            Arrivals::Poisson { .. } | Arrivals::Trace(_) => self.open(server, &inputs, &offsets),
        }
    }

    /// The seeded input pool, then the open-loop offer schedule in seconds
    /// after the start (empty for closed loops).
    fn draw(&self, dim: usize) -> (Vec<Payload>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let inputs = input_pool(dim, self.pool, &mut rng);
        let offsets = match &self.arrivals {
            Arrivals::Poisson { rate_hz, total } => {
                assert!(*rate_hz > 0.0, "Poisson arrivals need a positive rate");
                let mut at = 0.0;
                (0..*total)
                    .map(|_| {
                        // Exponential inter-arrival via inverse CDF.
                        let u: f64 = rng.gen();
                        at += -(1.0 - u).ln() / rate_hz;
                        at
                    })
                    .collect()
            }
            Arrivals::Trace(offsets) => offsets.clone(),
            Arrivals::Closed { .. } => Vec::new(),
        };
        (inputs, offsets)
    }

    fn open(&self, server: &Server, inputs: &[Payload], offsets: &[f64]) -> LoadReport {
        let mut handles: Vec<ResponseHandle> = Vec::with_capacity(offsets.len());
        let mut shed = 0u64;
        let mut refused_pod_down = 0u64;
        let start = Instant::now();
        for (i, &at_s) in offsets.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at_s.max(0.0));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let model = &self.models[i % self.models.len()];
            let seq = i as u64;
            match server.submit(model, seq, seq, inputs[i % inputs.len()].clone()) {
                Ok(handle) => handles.push(handle),
                Err(SubmitError::Overloaded) => shed += 1,
                // A dead pod refuses everything; keep offering so the report
                // still reflects the intended load.
                Err(SubmitError::PodDown) => refused_pod_down += 1,
                Err(e) => panic!("open-loop submit failed: {e}"),
            }
        }
        let submit_window_s = start.elapsed().as_secs_f64();

        let accepted = handles.len() as u64;
        let mut outcomes = Outcomes::default();
        for handle in handles {
            let response = handle.wait().expect("admitted requests are always answered");
            outcomes.absorb(&response);
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        report(
            offsets.len() as u64,
            accepted,
            shed,
            refused_pod_down,
            outcomes,
            elapsed_s,
            submit_window_s,
            self.slo_sim_us,
        )
    }

    fn closed(
        &self,
        server: &Server,
        inputs: &[Payload],
        clients: u64,
        per_client: u64,
    ) -> LoadReport {
        let models = &self.models;
        let start = Instant::now();
        let results: Vec<(u64, u64, u64, Outcomes)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut sheds = 0u64;
                        let mut accepted = 0u64;
                        let mut refused_pod_down = 0u64;
                        let mut outcomes = Outcomes::default();
                        'client: for s in 0..per_client {
                            let input = inputs[(c as usize + s as usize) % inputs.len()].clone();
                            let model = &models[(c as usize + s as usize) % models.len()];
                            let handle = loop {
                                match server.submit(model, c, s, input.clone()) {
                                    Ok(handle) => break handle,
                                    Err(SubmitError::Overloaded) => {
                                        sheds += 1;
                                        std::thread::sleep(Duration::from_micros(50));
                                    }
                                    Err(SubmitError::PodDown) => {
                                        // Unrecoverable: retrying would spin
                                        // forever, so the client gives up on
                                        // its remaining iterations.
                                        refused_pod_down += 1;
                                        break 'client;
                                    }
                                    Err(e) => panic!("closed-loop submit failed: {e}"),
                                }
                            };
                            accepted += 1;
                            let response =
                                handle.wait().expect("admitted requests are always answered");
                            assert_eq!(response.seq, s, "closed-loop response out of order");
                            outcomes.absorb(&response);
                        }
                        (sheds, accepted, refused_pod_down, outcomes)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();

        let mut shed = 0u64;
        let mut accepted = 0u64;
        let mut refused_pod_down = 0u64;
        let mut outcomes = Outcomes::default();
        for (s, a, refused, o) in results {
            shed += s;
            accepted += a;
            refused_pod_down += refused;
            outcomes.deadline_exceeded += o.deadline_exceeded;
            outcomes.pod_down += o.pod_down;
            outcomes.refused += o.refused;
            outcomes.latencies.extend(o.latencies);
            outcomes.batch_sizes.extend(o.batch_sizes);
            outcomes.sim_latencies.extend(o.sim_latencies);
        }
        let offered = accepted + shed + refused_pod_down;
        report(
            offered,
            accepted,
            shed,
            refused_pod_down,
            outcomes,
            elapsed_s,
            elapsed_s,
            self.slo_sim_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use bfly_core::Method;

    fn test_server(max_batch: usize) -> Server {
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            ..Default::default()
        };
        Server::start(config, &[Method::Butterfly]).expect("valid")
    }

    fn plan(models: &[&str], arrivals: Arrivals, seed: u64, pool: usize) -> LoadPlan {
        let models = models.iter().map(|m| m.to_string()).collect();
        LoadPlan { models, arrivals, seed, pool, slo_sim_us: None }
    }

    #[test]
    fn open_loop_completes_all_accepted() {
        let server = test_server(8);
        let arrivals = Arrivals::Poisson { rate_hz: 2000.0, total: 200 };
        let report = plan(&["butterfly"], arrivals, 3, 32).run(&server);
        assert_eq!(report.offered, 200);
        assert_eq!(report.accepted + report.shed, 200);
        assert_eq!(report.completed, report.accepted);
        assert!(report.latency_p50_us <= report.latency_p99_us);
        server.shutdown();
    }

    #[test]
    fn poisson_plan_offers_the_open_loop_schedule() {
        // The open-loop generator the plan replaced drew its input pool,
        // then one exponential gap per request from the same ChaCha8 stream.
        // The plan must offer the same rows at the same offsets, so the
        // cache and throughput benches still offer byte-identical load.
        let (rate_hz, seed, dim, pool) = (1e6, 0xBEE5, 16, 8);
        let arrivals = Arrivals::Poisson { rate_hz, total: 32 };
        let (inputs, offsets) = plan(&["butterfly"], arrivals, seed, pool).draw(dim);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        assert_eq!(inputs, input_pool(dim, pool, &mut rng));
        let mut want = Vec::new();
        let mut at = 0.0;
        for _ in 0..32 {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate_hz;
            want.push(at);
        }
        assert_eq!(offsets, want);
    }

    #[test]
    fn closed_loop_keeps_every_request() {
        let server = test_server(4);
        let arrivals = Arrivals::Closed { clients: 4, per_client: 25 };
        let report = plan(&["butterfly"], arrivals, 9, 32).run(&server);
        assert_eq!(report.completed, 100);
        assert!(report.throughput_rps > 0.0);
        server.shutdown();
    }

    #[test]
    fn closed_loop_spreads_load_over_the_target_model_list() {
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Baseline, Method::Butterfly]).expect("valid");
        let arrivals = Arrivals::Closed { clients: 3, per_client: 10 };
        let report = plan(&["baseline", "butterfly"], arrivals, 9, 8).run(&server);
        assert_eq!(report.completed, 30);
        let snapshot = server.shutdown();
        for m in &snapshot.models {
            assert!(m.completed > 0, "model {} must receive closed-loop traffic", m.model);
        }
        let total: u64 = snapshot.models.iter().map(|m| m.completed).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn input_pool_is_seeded_and_sized() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let pa = input_pool(16, 7, &mut a);
        let pb = input_pool(16, 7, &mut b);
        assert_eq!(pa.len(), 7);
        assert_eq!(pa, pb, "same seed, same pool");
        let mut c = ChaCha8Rng::seed_from_u64(6);
        assert_ne!(pa, input_pool(16, 7, &mut c), "different seed, different pool");
    }

    #[test]
    fn single_input_pool_turns_repeats_into_cache_traffic() {
        let server = test_server(8);
        let arrivals = Arrivals::Poisson { rate_hz: 5000.0, total: 100 };
        let report = plan(&["butterfly"], arrivals, 11, 1).run(&server);
        assert_eq!(report.completed, report.accepted);
        let snapshot = server.shutdown();
        let m = &snapshot.models[0];
        assert_eq!(m.cache_misses, 1, "one distinct input computes once");
        assert_eq!(m.cache_hits + m.cache_coalesced, 99, "repeats never recompute");
    }

    #[test]
    fn failures_are_counted_but_kept_out_of_the_latency_samples() {
        // Every request carries an already-expired deadline: the report
        // must count them all as deadline_exceeded while the throughput
        // reads 0 and the latency quantiles stay empty (a ~0 µs failure
        // must not fake a fast server or a fast tail).
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            default_deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let arrivals = Arrivals::Closed { clients: 3, per_client: 10 };
        let report = plan(&["butterfly"], arrivals, 9, 32).run(&server);
        assert_eq!(report.completed, 30);
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.deadline_exceeded, 30);
        assert_eq!(report.pod_down, 0);
        assert_eq!(report.throughput_rps, 0.0, "failed responses are no throughput");
        assert_eq!(report.latency_p99_us, 0, "no successes, no latency samples");
        assert_eq!(report.mean_batch, 0.0);
        server.shutdown();
    }

    #[test]
    fn trace_plan_replays_the_schedule_and_scores_the_sim_slo() {
        // Cache off so every response is a computation with positive
        // simulated latency; an impossible SLO of 0 µs must then flag every
        // success, and an unbounded one must flag none.
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 256,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 2e-4).collect();
        let unscored = plan(&["butterfly"], Arrivals::Trace(arrivals), 3, 8);
        let report = LoadPlan { slo_sim_us: Some(0.0), ..unscored.clone() }.run(&server);
        assert_eq!(report.offered, 60);
        assert_eq!(report.completed, report.accepted);
        assert_eq!(report.slo_sim_us, 0.0);
        assert_eq!(
            report.sim_slo_misses,
            report.completed - report.deadline_exceeded - report.pod_down,
            "a 0 µs SLO flags every success"
        );
        let generous = LoadPlan { slo_sim_us: Some(f64::INFINITY), ..unscored.clone() };
        assert_eq!(generous.run(&server).sim_slo_misses, 0, "an unbounded SLO flags nothing");
        let unscored = unscored.run(&server);
        assert_eq!((unscored.slo_sim_us, unscored.sim_slo_misses), (0.0, 0));
        server.shutdown();
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
        assert_eq!(quantile(&[7u64], 0.5), 7);
        assert_eq!(quantile(&[1u64, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile(&[1u64, 2, 3, 4], 1.0), 4);
        assert_eq!(quantile::<f64>(&[], 0.99), 0.0);
        assert_eq!(quantile(&[1.5, 2.5], 0.5), 1.5);
    }

    #[test]
    fn zipf_sampler_is_seeded_and_skewed() {
        let z = ZipfSampler::new(16, 1.0);
        assert_eq!(z.len(), 16);
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let draws_a: Vec<usize> = (0..512).map(|_| z.sample(&mut a)).collect();
        let draws_b: Vec<usize> = (0..512).map(|_| z.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same trace");
        assert!(draws_a.iter().all(|&d| d < 16), "every draw in range");
        let mut counts = [0usize; 16];
        for &d in &draws_a {
            counts[d] += 1;
        }
        assert!(counts[0] > counts[8], "rank 0 must beat the mid-tail under zipf(1): {counts:?}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 1000.0).abs() < 150.0,
                "exponent 0 should be near-uniform: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_over_nothing_is_rejected() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn computed_responses_carry_simulated_latency() {
        // Cache off so every response is a genuine computation with a
        // positive simulated reservation on its replica's clock.
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let arrivals = Arrivals::Closed { clients: 2, per_client: 20 };
        let report = plan(&["butterfly"], arrivals, 13, 32).run(&server);
        assert_eq!(report.completed, 40);
        assert!(report.sim_p50_us > 0.0, "computed batches reserve simulated time");
        assert!(report.sim_p50_us <= report.sim_p95_us);
        assert!(report.sim_p95_us <= report.sim_p99_us);
        assert!(report.sim_mean_us > 0.0);
        server.shutdown();
    }
}
