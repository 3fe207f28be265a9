//! bench_ingress — quantifies the zero-copy framed front door of
//! `bfly-serve`.
//!
//! Three arms:
//!
//! 1. **Submit path**: offers the identical seeded workload twice against a
//!    shedding server (cache off, shallow queue, so the measured cost is
//!    the submit path itself, not compute) — once cloning an owned
//!    `Vec<f32>` per submission (the pre-payload behaviour: one clone in
//!    the caller plus one `Vec -> Arc` conversion at admission), once
//!    bumping the refcount of a shared `Payload`. Equal offered load;
//!    the speedup is allocation+memcpy eliminated per request.
//! 2. **Wire decode**: encodes a frame stream once, then decodes it in
//!    transport-sized chunks two ways — payload *views* into the read
//!    segments (the zero-copy codec) vs. materializing an owned vector per
//!    request (what a copying codec would do). Also reports how many
//!    payloads straddled a segment boundary and genuinely had to be copied.
//! 3. **QoS isolation**: a closed-loop interactive client runs over the
//!    in-memory ingress twice — alone, and against a 10:1 batch-frame
//!    flood from rate-limited batch connections. Weighted-fair scheduling
//!    plus the batch tenant's token bucket must keep the flooded
//!    interactive p99 within 2x of the uncontended p99, with every batch
//!    refusal answered (counted, never dropped).
//!
//! `--smoke` runs a tiny version for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::smoke_run;
use bfly_core::Method;
use bfly_serve::ingress::transport::pipe_listener;
use bfly_serve::ingress::{
    encode_request, Frame, FrameDecoder, IngressClient, IngressServer, QosClass, RequestFrame,
    WireStatus,
};
use bfly_serve::{CacheConfig, IngressConfig, Payload, QosConfig, RateLimit, ServeConfig, Server};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input width of the submit and wire arms: a 16 KiB activation, the
/// payload size where the copy tax this paper cares about shows up.
const DIM: usize = 4096;
const WORKERS: usize = 2;
/// Distinct inputs the submit arm cycles through.
const POOL: usize = 64;

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

// ---------------------------------------------------------------------------
// Arm 1: submit path
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct SubmitArm {
    requests: u64,
    pool_size: usize,
    /// Offered submissions per second with an owned `Vec<f32>` cloned per
    /// request (pre-payload behaviour).
    owned_submits_per_s: f64,
    /// Offered submissions per second with a shared `Payload` refcount
    /// bump per request.
    shared_submits_per_s: f64,
    /// shared over owned at equal offered load — the acceptance bar is
    /// >= 1.5x.
    speedup: f64,
    owned_accepted: u64,
    shared_accepted: u64,
}

fn submit_server() -> Server {
    let config = ServeConfig {
        dim: DIM,
        classes: 10,
        seed: 0x1285,
        max_batch: 32,
        max_wait: Duration::from_micros(100),
        // Shallow on purpose: the flood mostly sheds, so the loop measures
        // the submit path (locate, validate, enqueue-or-shed) plus input
        // preparation — exactly where the copies used to live.
        queue_capacity: 64,
        workers: WORKERS,
        tensor_cores: false,
        cache: CacheConfig::disabled(),
        ..Default::default()
    };
    Server::start(config, &[Method::Butterfly]).expect("dim must fit butterfly")
}

fn submit_arm(requests: u64) -> SubmitArm {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF00D);
    let owned_pool: Vec<Vec<f32>> =
        (0..POOL).map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let shared_pool: Vec<Payload> = owned_pool.iter().map(|v| Payload::from(v.clone())).collect();

    let run = |shared: bool| -> (f64, u64) {
        let server = submit_server();
        let mut accepted = 0u64;
        let start = Instant::now();
        for i in 0..requests {
            let slot = (i as usize) % POOL;
            let outcome = if shared {
                server.submit("butterfly", 0, i, shared_pool[slot].clone())
            } else {
                server.submit("butterfly", 0, i, owned_pool[slot].clone())
            };
            if let Ok(handle) = outcome {
                accepted += 1;
                drop(handle); // shutdown drains; the offer rate is the metric
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        server.shutdown();
        (requests as f64 / elapsed, accepted)
    };

    let (owned_submits_per_s, owned_accepted) = run(false);
    let (shared_submits_per_s, shared_accepted) = run(true);
    SubmitArm {
        requests,
        pool_size: POOL,
        owned_submits_per_s,
        shared_submits_per_s,
        speedup: shared_submits_per_s / owned_submits_per_s,
        owned_accepted,
        shared_accepted,
    }
}

// ---------------------------------------------------------------------------
// Arm 2: wire decode
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct WireArm {
    frames: u64,
    stream_bytes: u64,
    chunk_bytes: usize,
    /// Decoded frames per second with payloads left as views into the read
    /// segments.
    view_frames_per_s: f64,
    /// Decoded frames per second with every payload materialized into an
    /// owned vector (a copying codec's obligatory extra work).
    copyout_frames_per_s: f64,
    view_over_copyout: f64,
    view_gib_per_s: f64,
    /// Payloads that straddled a chunk boundary and had to be copied.
    payload_copies: u64,
    zero_copy_frac: f64,
}

fn wire_arm(frames: u64, chunk_bytes: usize) -> WireArm {
    let mut stream = Vec::new();
    for s in 0..frames {
        let payload: Vec<f32> = (0..DIM).map(|i| ((s as usize * DIM + i) as f32).sin()).collect();
        stream.extend_from_slice(&encode_request(&RequestFrame {
            class: QosClass::Interactive,
            model: "butterfly".to_string(),
            tenant: "bench".to_string(),
            client: 0,
            seq: s,
            deadline_us: 0,
            payload: payload.into(),
        }));
    }
    let stream_bytes = stream.len() as u64;

    let run = |copy_out: bool| -> (f64, u64) {
        let mut decoder = FrameDecoder::new(1 << 24);
        let mut decoded = 0u64;
        let mut sink = 0u64; // keeps payload reads observable
        let start = Instant::now();
        for part in stream.chunks(chunk_bytes) {
            decoder.push(Arc::from(part));
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                let Frame::Request(request) = frame else { unreachable!("request stream") };
                decoded += 1;
                if copy_out {
                    let owned = request.payload.to_vec();
                    sink ^= owned[0].to_bits() as u64;
                } else {
                    sink ^= request.payload.get(0).to_bits() as u64;
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(decoded, frames);
        assert_ne!(sink, u64::MAX); // defeats dead-code elimination
        (frames as f64 / elapsed, decoder.payload_copies())
    };

    let (copyout_frames_per_s, _) = run(true);
    let (view_frames_per_s, payload_copies) = run(false);
    WireArm {
        frames,
        stream_bytes,
        chunk_bytes,
        view_frames_per_s,
        copyout_frames_per_s,
        view_over_copyout: view_frames_per_s / copyout_frames_per_s,
        view_gib_per_s: stream_bytes as f64 * view_frames_per_s
            / frames as f64
            / (1u64 << 30) as f64,
        payload_copies,
        zero_copy_frac: 1.0 - payload_copies as f64 / frames as f64,
    }
}

// ---------------------------------------------------------------------------
// Arm 3: QoS isolation
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct QosArm {
    interactive_requests: u64,
    batch_flood_frames: u64,
    uncontended_p50_us: u64,
    uncontended_p99_us: u64,
    flooded_p50_us: u64,
    flooded_p99_us: u64,
    /// flooded p99 over uncontended p99 — the acceptance bar is <= 2x.
    p99_ratio: f64,
    batch_admitted: u64,
    batch_throttled: u64,
    batch_deferred: u64,
}

const QOS_DIM: usize = 1024;

fn qos_server() -> (Arc<Server>, IngressServer, bfly_serve::ingress::transport::PipeConnector) {
    let config = ServeConfig {
        dim: QOS_DIM,
        classes: 10,
        seed: 0x0905,
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        queue_capacity: 128,
        workers: WORKERS,
        tensor_cores: false,
        cache: CacheConfig::disabled(),
        ingress: IngressConfig {
            qos: QosConfig {
                // Keep the admitted batch stream below service capacity so
                // the flood's backlog lives in the QoS queue (where DRR
                // protects interactive), not in the admission lanes — and
                // keep the burst tiny so admitted batch work cannot clump
                // ahead of an interactive request in the shared lane.
                tenant_rates: vec![("flood".to_string(), RateLimit::per_second(200.0, 2.0))],
                ..QosConfig::default()
            },
            ..IngressConfig::enabled()
        },
        ..Default::default()
    };
    let server = Arc::new(Server::start(config, &[Method::Butterfly]).expect("valid config"));
    let (listener, connector) = pipe_listener();
    let ingress = IngressServer::start(server.clone(), Box::new(listener));
    (server, ingress, connector)
}

/// Closed-loop interactive client with a think time between requests —
/// an interactive tenant issues a request, reads the answer, and pauses,
/// rather than spinning at line rate. The think time is excluded from the
/// measured latency; it also sets the rate the 10:1 flood is scaled from.
const THINK: Duration = Duration::from_millis(2);

fn interactive_latencies(
    connector: &bfly_serve::ingress::transport::PipeConnector,
    n: u64,
) -> (Vec<u64>, Duration) {
    let mut client = IngressClient::connect(connector, "interactive").expect("listener up");
    let mut latencies = Vec::with_capacity(n as usize);
    let run_start = Instant::now();
    for s in 0..n {
        if s > 0 {
            std::thread::sleep(THINK);
        }
        let payload: Vec<f32> =
            (0..QOS_DIM).map(|i| ((s as usize * QOS_DIM + i) as f32).sin()).collect();
        let start = Instant::now();
        client
            .send(&RequestFrame {
                class: QosClass::Interactive,
                model: "butterfly".to_string(),
                tenant: "user".to_string(),
                client: 1,
                seq: s,
                deadline_us: 0,
                payload: payload.into(),
            })
            .expect("connection up");
        let response =
            client.recv_timeout(Duration::from_secs(30)).expect("clean stream").expect("answered");
        assert_eq!(response.seq, s);
        assert_eq!(response.status, WireStatus::Compute);
        latencies.push(start.elapsed().as_micros() as u64);
    }
    let elapsed = run_start.elapsed();
    latencies.sort_unstable();
    (latencies, elapsed)
}

fn qos_arm(interactive_requests: u64) -> QosArm {
    // Uncontended baseline — also calibrates the interactive request rate
    // so the flood can offer a true 10:1 ratio against it.
    let (server, ingress, connector) = qos_server();
    let (uncontended, uncontended_elapsed) =
        interactive_latencies(&connector, interactive_requests);
    ingress.shutdown();
    Arc::try_unwrap(server).ok().expect("ingress released").shutdown();
    let interactive_rate = interactive_requests as f64 / uncontended_elapsed.as_secs_f64();
    let flood_rate = 10.0 * interactive_rate;

    // 10:1 flood: one batch connection offers frames at 10x the calibrated
    // interactive rate while the same interactive loop runs. A single
    // sender thread — on a small box more senders just add context
    // switches without changing what the scheduler has to absorb.
    let flood_total = 10 * interactive_requests;
    let (server, ingress, connector) = qos_server();
    let stop = Arc::new(AtomicBool::new(false));
    let flood_thread = {
        let connector = connector.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = IngressClient::connect(&connector, "flood").expect("listener up");
            // Shared payload: each send is a refcount bump, so the flood's
            // client-side cost is framing, not copying.
            let payload: Payload = vec![0.25f32; QOS_DIM].into();
            let mut sent = 0u64;
            let start = Instant::now();
            while sent < flood_total && !stop.load(Ordering::Relaxed) {
                let due = ((start.elapsed().as_secs_f64() * flood_rate) as u64).min(flood_total);
                let burst = due.saturating_sub(sent).min(4);
                for _ in 0..burst {
                    let _ = client.send(&RequestFrame {
                        class: QosClass::Batch,
                        model: "butterfly".to_string(),
                        tenant: "flood".to_string(),
                        client: 100,
                        seq: sent,
                        deadline_us: 0,
                        payload: payload.clone(),
                    });
                    sent += 1;
                }
                // Drain whatever answers are ready (throttles arrive
                // immediately) so the response stream never backs up; the
                // short timeout doubles as the pacing sleep.
                while let Ok(Some(_)) = client.recv_timeout(Duration::from_micros(100)) {}
            }
            client.close_send();
            // Drain the tail so every in-flight answer is delivered.
            while let Ok(Some(_)) = client.recv_timeout(Duration::from_millis(50)) {}
            sent
        })
    };
    // Let the flood establish a backlog before measuring.
    std::thread::sleep(Duration::from_millis(20));
    let (flooded, _) = interactive_latencies(&connector, interactive_requests);
    stop.store(true, Ordering::Relaxed);
    let batch_flood_frames: u64 = flood_thread.join().expect("flood");
    ingress.shutdown();
    let snapshot = Arc::try_unwrap(server).ok().expect("ingress released").shutdown();
    let flood_stats = snapshot
        .ingress
        .tenants
        .iter()
        .find(|t| t.tenant == "flood")
        .expect("flood tenant counted");

    let uncontended_p99 = quantile(&uncontended, 0.99);
    let flooded_p99 = quantile(&flooded, 0.99);
    QosArm {
        interactive_requests,
        batch_flood_frames,
        uncontended_p50_us: quantile(&uncontended, 0.50),
        uncontended_p99_us: uncontended_p99,
        flooded_p50_us: quantile(&flooded, 0.50),
        flooded_p99_us: flooded_p99,
        p99_ratio: flooded_p99 as f64 / uncontended_p99.max(1) as f64,
        batch_admitted: flood_stats.admitted,
        batch_throttled: flood_stats.throttled,
        batch_deferred: flood_stats.deferred,
    }
}

// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    submit: SubmitArm,
    wire: WireArm,
    qos: QosArm,
}

fn main() {
    let smoke = smoke_run();
    let submits: u64 = if smoke { 5_000 } else { 200_000 };
    let frames: u64 = if smoke { 200 } else { 4_000 };
    let interactive: u64 = if smoke { 40 } else { 800 };

    println!(
        "bench_ingress: dim {DIM}, {WORKERS} workers, {submits} offered submits, \
         {frames} wire frames, {interactive} interactive requests{}\n",
        if smoke { " [smoke]" } else { "" }
    );

    let submit = submit_arm(submits);
    println!(
        "submit path   owned {:>11.0}/s   shared {:>11.0}/s   speedup {:>5.2}x",
        submit.owned_submits_per_s, submit.shared_submits_per_s, submit.speedup
    );

    let wire = wire_arm(frames, 256 << 10);
    println!(
        "wire decode   view {:>12.0}/s   copy-out {:>9.0}/s   ratio {:>5.2}x   \
         {:.1} GiB/s   zero-copy {:.1}%",
        wire.view_frames_per_s,
        wire.copyout_frames_per_s,
        wire.view_over_copyout,
        wire.view_gib_per_s,
        100.0 * wire.zero_copy_frac
    );

    let qos = qos_arm(interactive);
    println!(
        "qos isolation alone p50/p99 {:>5}/{:>5} us   flooded p50/p99 {:>5}/{:>5} us   \
         p99 ratio {:>4.2}x   batch admitted/throttled/deferred {}/{}/{}",
        qos.uncontended_p50_us,
        qos.uncontended_p99_us,
        qos.flooded_p50_us,
        qos.flooded_p99_us,
        qos.p99_ratio,
        qos.batch_admitted,
        qos.batch_throttled,
        qos.batch_deferred
    );

    let output = BenchOutput { dim: DIM, workers: WORKERS, submit, wire, qos };
    println!();
    write_bench_json("ingress", &output, smoke);
}
