//! Fault-tolerance invariants, property-tested end to end: under seeded
//! crash/recovery/slow-down schedules — any pod size, any routing policy —
//! the runtime must not lose or duplicate a request, must keep per-client
//! FIFO, must resolve every admitted request with one of the allowed
//! outcomes, and must keep the per-replica and per-model device-time
//! ledgers equal after crash refunds. An empty fault plan must reproduce
//! the fault-free runtime bit-exactly.

use bfly_core::Method;
use bfly_serve::{
    CacheConfig, FaultPlan, ModelRegistry, ResidencyConfig, Routing, ServeConfig, ServedFrom,
    Server, SubmitError,
};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::collections::HashMap;
use std::time::Duration;

const DIM: usize = 48;

fn chaos_config(replicas: usize, routing: Routing, cache: bool, plan: FaultPlan) -> ServeConfig {
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
        fault_plan: plan,
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

/// A seeded plan whose events land inside the run's simulated-clock range:
/// every routed batch presents at least 1 µs (the routing floor), so a
/// short horizon guarantees some events actually fire.
fn plan_for(seed: u64, replicas: usize, faults: usize) -> FaultPlan {
    FaultPlan::seeded(seed, replicas, 6.0, faults)
}

/// A per-replica SRAM budget exactly as big as the *largest* registered
/// model (the dense baseline): either model fits alone, both never fit
/// together, so alternating traffic keeps evicting and paging.
fn thrashing_budget() -> u64 {
    let probe = ModelRegistry::build(DIM, 10, 23, &[Method::Butterfly, Method::Baseline])
        .expect("probe registry");
    probe.entries().iter().map(|e| e.weight_bytes()).max().expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under any seeded crash/recovery schedule, every admitted request is
    /// answered exactly once with an allowed outcome, and the per-replica
    /// device tally still agrees with the per-model tally — the crash
    /// refunds must never leave half a batch on one ledger.
    #[test]
    fn every_request_resolves_exactly_once_under_faults(
        replicas in 1usize..5,
        policy in 0usize..3,
        fault_seed in 0u64..40,
        faults in 1usize..6,
        clients in 2u64..5,
        per_client in 3u64..9,
    ) {
        let plan = plan_for(fault_seed, replicas, faults);
        let config = chaos_config(replicas, routing_from(policy), false, plan);
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let mut handles = Vec::new();
        let mut refused = 0u64;
        for c in 0..clients {
            for s in 0..per_client {
                match server.submit("butterfly", c, s, unique_input(c, s)) {
                    Ok(handle) => handles.push(((c, s), handle)),
                    Err(SubmitError::PodDown) => refused += 1,
                    Err(e) => panic!("unexpected submit error {e}"),
                }
            }
        }
        let mut seen: HashMap<(u64, u64), u64> = HashMap::new();
        let admitted = handles.len() as u64;
        for ((c, s), handle) in handles {
            let r = handle.wait().expect("admitted requests always resolve");
            prop_assert_eq!((r.client, r.seq), (c, s));
            match r.timing.source {
                ServedFrom::Compute => {
                    prop_assert_eq!(r.output.len(), 10);
                    prop_assert!(r.timing.replica.expect("computed => attributed") < replicas);
                }
                ServedFrom::PodDown => {
                    prop_assert!(r.output.is_empty());
                    prop_assert_eq!(r.timing.replica, None);
                    prop_assert_eq!(r.timing.ipu_batch_us, Some(0.0));
                }
                other => panic!("cache-off run produced {other:?}"),
            }
            *seen.entry((c, s)).or_insert(0) += 1;
        }
        prop_assert_eq!(seen.len() as u64 + refused, clients * per_client);
        prop_assert!(seen.values().all(|&n| n == 1), "every request answered exactly once");
        let snapshot = server.shutdown();
        prop_assert_eq!(snapshot.replicas.len(), replicas);
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        let model_sum: f64 = snapshot.models.iter().map(|m| m.device_us).sum();
        prop_assert!(
            (replica_sum - model_sum).abs() < 1e-6,
            "after refunds the ledgers must agree: replicas {} vs models {}",
            replica_sum,
            model_sum
        );
        let completed: u64 = snapshot.models.iter().map(|m| m.completed).sum();
        prop_assert_eq!(completed, admitted, "failures still count as completed");
    }

    /// With one worker the batch queue serialises execution, so each
    /// client's responses complete in submission order even when some of
    /// them fail — crashes, retries and deadline misses are answered in
    /// batch order, never early.
    #[test]
    fn per_client_fifo_survives_crashes_and_failures(
        replicas in 1usize..5,
        policy in 0usize..3,
        fault_seed in 0u64..40,
        per_client in 4u64..10,
    ) {
        let plan = plan_for(fault_seed, replicas, 4);
        let config = ServeConfig {
            workers: 1,
            ..chaos_config(replicas, routing_from(policy), false, plan)
        };
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let clients = 3u64;
        let mut handles = Vec::new();
        'submit: for s in 0..per_client {
            for c in 0..clients {
                match server.submit("butterfly", c, s, unique_input(c, s)) {
                    Ok(handle) => handles.push((c, handle)),
                    Err(SubmitError::PodDown) => break 'submit,
                    Err(e) => panic!("unexpected submit error {e}"),
                }
            }
        }
        let mut last: HashMap<u64, (u64, u64)> = HashMap::new();
        for (c, handle) in handles {
            let r = handle.wait().expect("resolved");
            if let Some(&(prev_seq, prev_idx)) = last.get(&c) {
                prop_assert!(r.seq > prev_seq);
                prop_assert!(
                    r.completed_index > prev_idx,
                    "client {}: seq {} ({:?}) completed at {} after seq {} at {}",
                    c, r.seq, r.timing.source, r.completed_index, prev_seq, prev_idx
                );
            }
            last.insert(c, (r.seq, r.completed_index));
        }
        server.shutdown();
    }

    /// With the cache on, deadlines and faults interleave with hits and
    /// coalescing: every resolution must still come from the allowed set,
    /// and the per-model failure counters must add up against the
    /// responses actually observed.
    #[test]
    fn outcomes_stay_in_the_allowed_set_with_cache_and_deadlines(
        replicas in 1usize..5,
        policy in 0usize..3,
        fault_seed in 0u64..40,
        clients in 2u64..4,
        per_client in 3u64..8,
    ) {
        let plan = plan_for(fault_seed, replicas, 3);
        let config = ServeConfig {
            default_deadline: Some(Duration::from_millis(40)),
            ..chaos_config(replicas, routing_from(policy), true, plan)
        };
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let mut handles = Vec::new();
        for c in 0..clients {
            for s in 0..per_client {
                // Half the keys repeat across clients to force hits and
                // coalescing alongside the failures.
                let input = unique_input(c % 2, s);
                match server.submit("butterfly", c, s, input) {
                    Ok(handle) => handles.push(handle),
                    Err(SubmitError::PodDown) => {}
                    Err(e) => panic!("unexpected submit error {e}"),
                }
            }
        }
        let mut observed: HashMap<&'static str, u64> = HashMap::new();
        for handle in handles {
            let r = handle.wait().expect("resolved");
            let bucket = match r.timing.source {
                ServedFrom::Compute => "compute",
                ServedFrom::CacheHit => "hit",
                ServedFrom::Coalesced => "coalesced",
                ServedFrom::DeadlineExceeded => "deadline",
                ServedFrom::PodDown => "pod_down",
                // Only the framed-ingress front door produces these; the
                // in-process submit path never can.
                ServedFrom::Throttled | ServedFrom::Rejected => "ingress_refusal",
            };
            if r.timing.source.is_failure() {
                prop_assert!(r.output.is_empty());
            } else {
                prop_assert_eq!(r.output.len(), 10);
            }
            *observed.entry(bucket).or_insert(0) += 1;
        }
        let snapshot = server.shutdown();
        let m = &snapshot.models[0];
        prop_assert_eq!(m.deadline_exceeded, observed.get("deadline").copied().unwrap_or(0));
        prop_assert_eq!(m.pod_down, observed.get("pod_down").copied().unwrap_or(0));
        prop_assert_eq!(m.completed, observed.values().sum::<u64>());
    }

    /// An empty fault plan reproduces the fault-free runtime bit-exactly:
    /// identical outputs for identical inputs, zero fault counters, and a
    /// fully-up pod.
    #[test]
    fn empty_plan_is_bit_identical_to_the_default_runtime(
        replicas in 1usize..5,
        policy in 0usize..3,
        per_client in 3u64..8,
    ) {
        let routing = routing_from(policy);
        let with_plan =
            Server::start(chaos_config(replicas, routing, false, FaultPlan::none()),
                &[Method::Butterfly]).unwrap();
        let default_config = ServeConfig {
            fault_plan: FaultPlan::none(),
            default_deadline: None,
            ..chaos_config(replicas, routing, false, FaultPlan::none())
        };
        let vanilla = Server::start(default_config, &[Method::Butterfly]).unwrap();
        for s in 0..per_client {
            let a = with_plan
                .submit("butterfly", 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            let b = vanilla
                .submit("butterfly", 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(a.timing.source, ServedFrom::Compute);
            prop_assert_eq!(b.timing.source, ServedFrom::Compute);
            prop_assert_eq!(a.output, b.output, "an empty plan must not perturb the kernels");
        }
        for snapshot in [with_plan.shutdown(), vanilla.shutdown()] {
            for r in &snapshot.replicas {
                prop_assert!(r.up);
                prop_assert_eq!(r.crashes, 0);
                prop_assert_eq!(r.recoveries, 0);
                prop_assert_eq!(r.retried_batches, 0);
            }
            let m = &snapshot.models[0];
            prop_assert_eq!(m.deadline_exceeded, 0);
            prop_assert_eq!(m.pod_down, 0);
        }
    }

    /// An already-expired deadline turns every request into
    /// DeadlineExceeded — nothing is routed, priced, or lost — on any pod
    /// under any policy.
    #[test]
    fn zero_deadline_expires_everything_without_losses(
        replicas in 1usize..5,
        policy in 0usize..3,
        total in 4u64..16,
    ) {
        let config = ServeConfig {
            default_deadline: Some(Duration::ZERO),
            ..chaos_config(replicas, routing_from(policy), false, FaultPlan::none())
        };
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let handles: Vec<_> = (0..total)
            .map(|s| server.submit("butterfly", 0, s, unique_input(0, s)).unwrap())
            .collect();
        for handle in handles {
            let r = handle.wait().expect("expired, not dropped");
            prop_assert_eq!(r.timing.source, ServedFrom::DeadlineExceeded);
            prop_assert!(r.output.is_empty());
        }
        let snapshot = server.shutdown();
        prop_assert_eq!(snapshot.models[0].deadline_exceeded, total);
        prop_assert_eq!(snapshot.models[0].device_us, 0.0);
        prop_assert_eq!(snapshot.replicas.iter().map(|r| r.batches).sum::<u64>(), 0);
    }

    /// The default (unset) residency budget *is* the pre-residency runtime:
    /// identical outputs to a server with an explicit unlimited config,
    /// replica 0 fully pre-warmed at no cost, and not a single eviction or
    /// streamed byte anywhere in the pod.
    #[test]
    fn unset_residency_budget_reproduces_the_pre_residency_runtime(
        replicas in 1usize..5,
        policy in 0usize..3,
        per_client in 3u64..8,
    ) {
        let routing = routing_from(policy);
        let unset = Server::start(
            chaos_config(replicas, routing, false, FaultPlan::none()),
            &[Method::Butterfly],
        ).unwrap();
        let explicit_config = ServeConfig {
            residency: ResidencyConfig::unlimited(),
            ..chaos_config(replicas, routing, false, FaultPlan::none())
        };
        let explicit = Server::start(explicit_config, &[Method::Butterfly]).unwrap();
        for s in 0..per_client {
            let a = unset
                .submit("butterfly", 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            let b = explicit
                .submit("butterfly", 0, s, unique_input(0, s))
                .unwrap()
                .wait()
                .expect("answered");
            prop_assert_eq!(a.timing.source, ServedFrom::Compute);
            prop_assert_eq!(b.timing.source, ServedFrom::Compute);
            prop_assert_eq!(a.output, b.output, "residency defaults must not perturb outputs");
        }
        for snapshot in [unset.shutdown(), explicit.shutdown()] {
            prop_assert!(snapshot.residency.sram_budget_bytes.is_none());
            prop_assert_eq!(snapshot.residency.evictions, 0);
            prop_assert_eq!(snapshot.residency.paged_in_bytes, 0);
            prop_assert_eq!(snapshot.residency.paging_us, 0.0);
            let r0 = &snapshot.replicas[0];
            prop_assert_eq!(r0.cold_loads, 0, "replica 0 starts fully warm");
            prop_assert_eq!(r0.weight_load_us, 0.0);
            prop_assert_eq!(r0.resident_models, 1);
            for r in &snapshot.replicas {
                prop_assert_eq!(r.evictions, 0);
                prop_assert_eq!(r.paged_in_bytes, 0);
                prop_assert!(r.cold_loads <= 1, "at most one cold load per model, ever");
            }
        }
    }

    /// A finite SRAM budget under seeded crash schedules: a crash that
    /// strands a batch mid-transfer must refund the in-flight weight charge
    /// — time *and* bytes — so the per-replica and per-model device-time
    /// ledgers agree, and the paged-byte ledgers balance, whatever the
    /// interleaving of crashes, evictions and page-ins.
    #[test]
    fn crash_refunds_keep_the_paging_ledgers_balanced(
        replicas in 1usize..4,
        policy in 0usize..3,
        fault_seed in 0u64..40,
        faults in 1usize..5,
        per_client in 4u64..10,
    ) {
        let plan = plan_for(fault_seed, replicas, faults);
        let config = ServeConfig {
            residency: ResidencyConfig::with_budget(thrashing_budget()),
            // One request per batch: every submission touches the residency
            // manager, maximising eviction/page-in churn against the faults.
            max_batch: 1,
            ..chaos_config(replicas, routing_from(policy), false, plan)
        };
        let server = Server::start(config, &[Method::Butterfly, Method::Baseline]).unwrap();
        let mut handles = Vec::new();
        for c in 0..3u64 {
            for s in 0..per_client {
                let model = if (c + s) % 2 == 0 { "butterfly" } else { "baseline" };
                match server.submit(model, c, s, unique_input(c, s)) {
                    Ok(handle) => handles.push(handle),
                    Err(SubmitError::PodDown) => {}
                    Err(e) => panic!("unexpected submit error {e}"),
                }
            }
        }
        let admitted = handles.len() as u64;
        for handle in handles {
            handle.wait().expect("admitted requests always resolve");
        }
        let snapshot = server.shutdown();
        let replica_sum: f64 = snapshot.replicas.iter().map(|r| r.device_us).sum();
        let model_sum: f64 = snapshot.models.iter().map(|m| m.device_us).sum();
        prop_assert!(
            (replica_sum - model_sum).abs() < 1e-6,
            "device ledgers must agree after paging refunds: replicas {} vs models {}",
            replica_sum,
            model_sum
        );
        let model_paged: u64 = snapshot.models.iter().map(|m| m.paged_in_bytes).sum();
        let replica_paged: u64 = snapshot.replicas.iter().map(|r| r.paged_in_bytes).sum();
        prop_assert_eq!(
            model_paged, replica_paged,
            "paged-byte ledgers must balance after crash refunds"
        );
        prop_assert_eq!(snapshot.residency.paged_in_bytes, replica_paged);
        let model_hits: u64 = snapshot.models.iter().map(|m| m.residency_hits).sum();
        let model_misses: u64 = snapshot.models.iter().map(|m| m.residency_misses).sum();
        prop_assert_eq!(snapshot.residency.hits, model_hits);
        prop_assert_eq!(snapshot.residency.misses, model_misses);
        let completed: u64 = snapshot.models.iter().map(|m| m.completed).sum();
        prop_assert_eq!(completed, admitted, "every admitted request resolves exactly once");
    }

    /// Crash-heavy plans where every crash recovers: the pod never goes
    /// dead, so no submit is refused and every request resolves; crashes
    /// and recoveries are visible in the snapshot exactly as scheduled
    /// events that fired.
    #[test]
    fn recovering_pods_never_refuse_admission(
        replicas in 2usize..5,
        policy in 0usize..3,
        fault_seed in 0u64..40,
        per_client in 6u64..12,
    ) {
        let plan = plan_for(fault_seed, replicas, 5);
        let config = chaos_config(replicas, routing_from(policy), false, plan);
        let server = Server::start(config, &[Method::Butterfly]).unwrap();
        let mut handles = Vec::new();
        for c in 0..3u64 {
            for s in 0..per_client {
                // Seeded plans pair every crash with a recovery, so the
                // pod is never unrecoverable and submit must never refuse.
                handles.push(server.submit("butterfly", c, s, unique_input(c, s))
                    .expect("a recovering pod keeps admitting"));
            }
        }
        let total = handles.len() as u64;
        for handle in handles {
            handle.wait().expect("resolved");
        }
        let snapshot = server.shutdown();
        let completed: u64 = snapshot.models.iter().map(|m| m.completed).sum();
        prop_assert_eq!(completed, total);
        let crashes: u64 = snapshot.replicas.iter().map(|r| r.crashes).sum();
        let recoveries: u64 = snapshot.replicas.iter().map(|r| r.recoveries).sum();
        prop_assert!(recoveries <= crashes, "a recovery only fires for a down replica");
    }
}
