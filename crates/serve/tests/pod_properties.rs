//! Pod-serving invariants, property-tested end to end: whatever the pod
//! size and routing policy, the runtime must not lose, duplicate or reorder
//! a client's requests, cache hits must stay bit-identical to computed
//! responses, and the two device-time accountings (per model and per
//! replica) must agree.

use bfly_core::{shl_param_count, Method, PixelflyConfig};
use bfly_serve::{
    CacheConfig, ModelRegistry, ResidencyConfig, ResidencyPolicy, Routing, ServeConfig, ServedFrom,
    Server,
};
use bfly_tensor::{Matrix, Scratch};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::collections::HashMap;
use std::time::Duration;

const DIM: usize = 48;

fn pod_config(replicas: usize, routing: Routing, cache: bool) -> ServeConfig {
    ServeConfig {
        dim: DIM,
        classes: 10,
        seed: 23,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 1024,
        workers: 2,
        replicas,
        routing,
        cache: if cache { CacheConfig::default() } else { CacheConfig::disabled() },
        ..Default::default()
    }
}

fn routing_from(index: usize) -> Routing {
    match index % 3 {
        0 => Routing::RoundRobin,
        1 => Routing::PowerOfTwoChoices,
        _ => Routing::JoinShortestQueue,
    }
}

/// A per-request input that is unique across (client, seq) so the cache
/// never collapses two logical requests.
fn unique_input(client: u64, seq: u64) -> Vec<f32> {
    let tag = (client * 1_000 + seq) as f32;
    (0..DIM).map(|i| (tag + i as f32).sin()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every submitted request is answered exactly once — no losses, no
    /// duplicates — on any pod size under any routing policy, and the
    /// per-replica device-time tally agrees with the global one.
    #[test]
    fn no_request_is_lost_or_duplicated_on_any_pod(
        replicas in 1usize..5,
        policy in 0usize..3,
        clients in 2u64..5,
        per_client in 3u64..9,
    ) {
        let routing = routing_from(policy);
        let server =
            Server::start(pod_config(replicas, routing, false), &[Method::Butterfly]).unwrap();
        let mut handles = Vec::new();
        for c in 0..clients {
            for s in 0..per_client {
                handles.push((c, s, server.submit("butterfly", c, s, unique_input(c, s)).unwrap()));
            }
        }
        let mut seen: HashMap<(u64, u64), u64> = HashMap::new();
        for (c, s, handle) in handles {
            let r = handle.wait().expect("admitted requests are always answered");
            prop_assert_eq!((r.client, r.seq), (c, s));
            prop_assert_eq!(r.output.len(), 10);
            prop_assert!(r.timing.replica.expect("computed => attributed") < replicas);
            *seen.entry((c, s)).or_insert(0) += 1;
        }
        prop_assert_eq!(seen.len() as u64, clients * per_client);
        prop_assert!(seen.values().all(|&n| n == 1), "every request answered exactly once");
        let snapshot = server.shutdown();
        prop_assert_eq!(snapshot.replicas.len(), replicas);
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        prop_assert!(
            (replica_sum - snapshot.total_device_us).abs() < 1e-6,
            "replica device-time tally {} disagrees with global {}",
            replica_sum,
            snapshot.total_device_us
        );
        prop_assert_eq!(
            snapshot.replicas.iter().map(|r| r.requests).sum::<u64>(),
            clients * per_client
        );
    }

    /// With one worker the batch queue serialises execution, so each
    /// client's responses must complete in submission order no matter which
    /// replicas the batches were routed to.
    #[test]
    fn per_client_fifo_survives_multi_replica_routing(
        replicas in 2usize..5,
        policy in 0usize..3,
        per_client in 4u64..10,
    ) {
        let config = ServeConfig { workers: 1, ..pod_config(replicas, routing_from(policy), false) };
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let clients = 3u64;
        let mut handles = Vec::new();
        for s in 0..per_client {
            for c in 0..clients {
                handles.push((c, server.submit("butterfly", c, s, unique_input(c, s)).unwrap()));
            }
        }
        let mut last: HashMap<u64, (u64, u64)> = HashMap::new();
        for (c, handle) in handles {
            let r = handle.wait().expect("answered");
            if let Some(&(prev_seq, prev_idx)) = last.get(&c) {
                prop_assert!(r.seq > prev_seq);
                prop_assert!(
                    r.completed_index > prev_idx,
                    "client {}: seq {} completed at {} after seq {} at {}",
                    c, r.seq, r.completed_index, prev_seq, prev_idx
                );
            }
            last.insert(c, (r.seq, r.completed_index));
        }
        server.shutdown();
    }

    /// A cache hit is bit-identical to the computed response it memoized,
    /// reports zero device time, and carries no replica attribution — no
    /// matter which replica computed the original.
    #[test]
    fn cache_hits_are_bit_identical_on_any_replica(
        replicas in 2usize..5,
        policy in 0usize..3,
        keys in 3u64..8,
    ) {
        let server =
            Server::start(pod_config(replicas, routing_from(policy), true), &[Method::Butterfly])
                .unwrap();
        let mut computed = Vec::new();
        for k in 0..keys {
            let r = server
                .submit("butterfly", 0, k, unique_input(9, k))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(r.timing.source, ServedFrom::Compute);
            computed.push(r);
        }
        for (k, first) in computed.iter().enumerate() {
            let hit = server
                .submit("butterfly", 1, k as u64, unique_input(9, k as u64))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(hit.timing.source, ServedFrom::CacheHit);
            prop_assert_eq!(&hit.output, &first.output, "hit must be bit-identical");
            prop_assert_eq!(hit.timing.replica, None);
            prop_assert_eq!(hit.timing.ipu_batch_us, Some(0.0));
        }
        server.shutdown();
    }

    /// A finite SRAM budget changes *when* weights move, never *what* is
    /// computed: every response is bit-identical to the unbounded server's,
    /// the device ledgers still agree, and per replica every routed batch
    /// is accounted as exactly one residency hit or miss — under either
    /// eviction policy.
    #[test]
    fn finite_budgets_never_change_computed_outputs(
        replicas in 1usize..4,
        policy in 0usize..3,
        evict in 0usize..2,
        per_client in 3u64..8,
    ) {
        let routing = routing_from(policy);
        let probe = ModelRegistry::build(
            DIM, 10, 23, &[Method::Butterfly, Method::Baseline]).unwrap();
        // The largest model alone fits; both together never do — so the
        // bounded pod keeps evicting and paging while computing the very
        // same forwards.
        let budget = probe.entries().iter().map(|e| e.weight_bytes()).max().unwrap();
        let residency = ResidencyConfig {
            policy: if evict == 0 { ResidencyPolicy::Lru } else { ResidencyPolicy::CostAware },
            ..ResidencyConfig::with_budget(budget)
        };
        let bounded_config = ServeConfig {
            residency,
            max_batch: 1,
            ..pod_config(replicas, routing, false)
        };
        let unbounded_config =
            ServeConfig { max_batch: 1, ..pod_config(replicas, routing, false) };
        let methods = [Method::Butterfly, Method::Baseline];
        let bounded = Server::start(bounded_config, &methods).unwrap();
        let unbounded = Server::start(unbounded_config, &methods).unwrap();
        for s in 0..per_client {
            let model = if s % 2 == 0 { "butterfly" } else { "baseline" };
            let a = bounded
                .submit(model, 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            let b = unbounded
                .submit(model, 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(a.timing.source, ServedFrom::Compute);
            prop_assert_eq!(
                a.output, b.output,
                "an SRAM budget must never change what is computed"
            );
        }
        let snapshot = bounded.shutdown();
        unbounded.shutdown();
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        prop_assert!(
            (replica_sum - snapshot.total_device_us).abs() < 1e-6,
            "bounded-residency ledgers must agree: replicas {} vs global {}",
            replica_sum,
            snapshot.total_device_us
        );
        for r in &snapshot.replicas {
            prop_assert_eq!(
                r.residency_hits + r.residency_misses, r.batches,
                "every routed batch is exactly one residency touch"
            );
            prop_assert!(
                r.resident_bytes <= budget,
                "resident set {} exceeds the {} budget", r.resident_bytes, budget
            );
        }
        prop_assert_eq!(snapshot.residency.sram_budget_bytes, Some(budget));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A registered pixelfly model is a first-class serving citizen: every
    /// computed response is bit-identical to a direct lock-free forward
    /// through an identically-seeded registry entry (which exercises the
    /// fused block-sparse kernel on the serve hot path), cache hits are
    /// bit-identical to the computed originals, and the entry's advertised
    /// weight footprint matches the analytic parameter count.
    #[test]
    fn pixelfly_round_trips_through_the_serve_path(
        replicas in 1usize..4,
        policy in 0usize..3,
        bexp in 3usize..5,   // block_size 8 or 16
        fexp in 1usize..3,   // butterfly_size 2 or 4
        rank in 0usize..9,   // 0 exercises the sparse-only fused path
        keys in 2u64..6,
    ) {
        let dim = 64usize;
        let config =
            PixelflyConfig { block_size: 1 << bexp, butterfly_size: 1 << fexp, rank };
        let method = Method::Pixelfly(config);
        let serve_config =
            ServeConfig { dim, ..pod_config(replicas, routing_from(policy), true) };
        let input = |client: u64, seq: u64| -> Vec<f32> {
            let tag = (client * 1_000 + seq) as f32;
            (0..dim).map(|i| (tag + i as f32).sin()).collect()
        };

        // Identically-seeded reference registry: the serve path must agree
        // with its entry bit for bit, and so must the analytic footprint.
        let probe = ModelRegistry::build(dim, 10, serve_config.seed, &[method]).unwrap();
        let entry = &probe.entries()[0];
        prop_assert_eq!(entry.param_count(), shl_param_count(method, dim, 10));
        prop_assert_eq!(entry.weight_bytes(), 4 * shl_param_count(method, dim, 10) as u64);

        let server = Server::start(serve_config, &[method]).unwrap();
        let mut scratch = Scratch::new();
        let mut computed = Vec::new();
        for k in 0..keys {
            let r = server
                .submit("pixelfly", 0, k, input(7, k))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(r.timing.source, ServedFrom::Compute);
            let x = Matrix::from_vec(1, dim, input(7, k));
            let direct = entry.forward(&x, &mut scratch);
            prop_assert_eq!(
                r.output.as_slice(),
                direct.as_slice(),
                "served pixelfly output must be bit-identical to a direct forward"
            );
            computed.push(r);
        }
        for (k, first) in computed.iter().enumerate() {
            let hit = server
                .submit("pixelfly", 1, k as u64, input(7, k as u64))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(hit.timing.source, ServedFrom::CacheHit);
            prop_assert_eq!(&hit.output, &first.output, "hit must be bit-identical");
        }
        server.shutdown();
    }
}
