//! bench_ingress — quantifies the zero-copy framed front door of
//! `bfly-serve`.
//!
//! Three arms:
//!
//! 1. **Submit path**: offers the identical seeded submissions twice —
//!    once cloning an owned `Vec<f32>` per submission (the pre-payload
//!    behaviour: one clone in the caller plus one `Vec -> Arc` conversion
//!    at admission), once bumping the refcount of a shared `Payload`. The
//!    admission queue holds every submission (cache off), so both arms
//!    serve all of them and the speedup compares the offering loop's rate
//!    at equal acceptance: allocation and memcpy eliminated per request.
//! 2. **Wire decode**: encodes a frame stream once, then decodes it in
//!    transport-sized chunks two ways — payload *views* into the read
//!    segments (the zero-copy codec) vs. materializing an owned vector per
//!    request (what a copying codec would do), timed as interleaved
//!    samples by `bfly_bench::measure`. Also reports how many payloads
//!    straddled a segment boundary and genuinely had to be copied.
//! 3. **QoS isolation**: a closed-loop interactive client runs over the
//!    in-memory ingress alone and against a 10:1 batch-frame flood from
//!    rate-limited batch connections. Weighted-fair scheduling plus the
//!    batch tenant's token bucket must keep the flooded interactive p99
//!    within 2x of the uncontended p99, with every batch refusal answered
//!    (counted, never dropped).
//!
//! The submit and QoS arms repeat through `bfly_bench::serving` (rotated
//! trials, median and quartiles of every metric).
//!
//! `--smoke` runs a tiny version for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::serving::{self, ratio, rotate, summary, Ratio, Spread, Trial};
use bfly_bench::{format_table, measure, smoke_run, stats};
use bfly_core::Method;
use bfly_serve::ingress::transport::{pipe_listener, PipeConnector};
use bfly_serve::ingress::{
    encode_request, Frame, FrameDecoder, IngressClient, IngressServer, QosClass, RequestFrame,
    WireStatus,
};
use bfly_serve::{
    CacheConfig, IngressConfig, Payload, QosConfig, RateLimit, ServeConfig, Server,
    TenantIngressStats,
};
use serde::Serialize;
use serde_json::Value;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input width of the submit and wire arms: a 16 KiB activation, the
/// payload size where the copy tax this paper cares about shows up.
const DIM: usize = 4096;
const WORKERS: usize = 2;
/// Distinct inputs the submit arm cycles through.
const POOL: usize = 64;

#[derive(Serialize)]
struct SubmitRun {
    /// Submissions per second of the offering loop.
    submits_per_s: f64,
    /// Submissions offered.
    intended: u64,
    /// Submissions admitted and answered successfully.
    succeeded: u64,
}

impl Trial for SubmitRun {
    fn success_rate(&self) -> f64 {
        self.succeeded as f64 / self.intended as f64
    }
}

#[derive(Serialize)]
struct SubmitArm {
    pool_size: usize,
    /// An owned `Vec<f32>` cloned per request (pre-payload behaviour).
    owned: Value,
    /// A shared `Payload` refcount bump per request.
    shared: Value,
    /// Shared over owned median submission rate; the acceptance bar is
    /// >= 1.5x.
    speedup: Ratio,
}

/// A request frame for the butterfly model.
fn frame(class: QosClass, tenant: &str, client: u64, seq: u64, payload: Payload) -> RequestFrame {
    let (model, tenant) = ("butterfly".to_string(), tenant.to_string());
    RequestFrame { class, model, tenant, client, seq, deadline_us: 0, payload }
}

/// Offers `requests` submissions cycling through `pool` and times the
/// offering loop; then waits for every answer.
fn submit_run<P: Clone + Into<Payload>>(requests: u64, pool: &[P]) -> SubmitRun {
    let config = ServeConfig {
        dim: DIM,
        seed: 0x1285,
        max_wait: Duration::from_micros(100),
        // Deep enough for every submission, so both arms serve all of them.
        queue_capacity: requests as usize,
        workers: WORKERS,
        cache: CacheConfig::disabled(),
        ..Default::default()
    };
    let server = Server::start(config, &[Method::Butterfly]).expect("dim must fit butterfly");
    let mut handles = Vec::with_capacity(requests as usize);
    let start = Instant::now();
    for i in 0..requests {
        if let Ok(handle) = server.submit("butterfly", 0, i, pool[i as usize % POOL].clone()) {
            handles.push(handle);
        }
    }
    let submits_per_s = requests as f64 / start.elapsed().as_secs_f64();
    let succeeded = handles
        .into_iter()
        .filter_map(|h| h.wait())
        .filter(|r| !r.timing.source.is_failure())
        .count() as u64;
    server.shutdown();
    SubmitRun { submits_per_s, intended: requests, succeeded }
}

/// The arm's record and its table row.
fn submit_arm(requests: u64, trials: usize) -> (SubmitArm, Vec<String>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF00D);
    let owned_pool: Vec<Vec<f32>> =
        (0..POOL).map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
    let shared_pool: Vec<Payload> = owned_pool.iter().map(|v| Payload::from(v.clone())).collect();
    let arms = rotate(trials, 2, |arm| match arm {
        0 => submit_run(requests, &owned_pool),
        _ => submit_run(requests, &shared_pool),
    });
    let rate = |arm: &[SubmitRun]| Spread::of(arm.iter().map(|t| t.submits_per_s));
    let speedup = ratio(&arms[1], &arms[0], |t| t.submits_per_s);
    let row = vec![
        "submits/s".to_string(),
        format!("owned {}", rate(&arms[0])),
        format!("shared {}", rate(&arms[1])),
        speedup.to_string(),
    ];
    let record =
        SubmitArm { pool_size: POOL, owned: summary(&arms[0]), shared: summary(&arms[1]), speedup };
    (record, row)
}

#[derive(Serialize)]
struct WireArm {
    frames: u64,
    stream_bytes: u64,
    chunk_bytes: usize,
    /// Time to decode the whole stream: materializing every payload into
    /// an owned vector (baseline) against leaving payloads as views into
    /// the read segments (candidate).
    decode: measure::Arm,
    /// Payloads that straddled a chunk boundary and had to be copied.
    payload_copies: u64,
    zero_copy_frac: f64,
}

fn wire_arm(frames: u64, chunk_bytes: usize, samples: usize) -> WireArm {
    let mut stream = Vec::new();
    for s in 0..frames {
        let payload: Vec<f32> = (0..DIM).map(|i| ((s as usize * DIM + i) as f32).sin()).collect();
        stream.extend_from_slice(&encode_request(&frame(
            QosClass::Interactive,
            "bench",
            0,
            s,
            payload.into(),
        )));
    }

    let payload_copies = Cell::new(0);
    let decode = |copy_out: bool| {
        let mut decoder = FrameDecoder::new(1 << 24);
        let mut decoded = 0u64;
        let mut sink = 0u64; // keeps payload reads observable
        for part in stream.chunks(chunk_bytes) {
            decoder.push(Arc::from(part));
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                let Frame::Request(request) = frame else { unreachable!("request stream") };
                decoded += 1;
                sink ^= if copy_out {
                    request.payload.to_vec()[0].to_bits() as u64
                } else {
                    request.payload.get(0).to_bits() as u64
                };
            }
        }
        assert_eq!(decoded, frames);
        assert_ne!(sink, u64::MAX); // defeats dead-code elimination
        payload_copies.set(decoder.payload_copies());
    };
    let decode = measure::Arm::time(samples, || decode(true), || decode(false));
    WireArm {
        frames,
        stream_bytes: stream.len() as u64,
        chunk_bytes,
        decode,
        payload_copies: payload_copies.get(),
        zero_copy_frac: 1.0 - payload_copies.get() as f64 / frames as f64,
    }
}

const QOS_DIM: usize = 1024;

#[derive(Serialize)]
struct QosRun {
    /// Interactive requests per second, think time included.
    interactive_rps: f64,
    /// Interactive latency quantiles, µs, think time excluded.
    p50_us: f64,
    p99_us: f64,
    /// Batch frames the flood offered (0 when the interactive client ran
    /// alone).
    flood_frames: u64,
    /// The flood tenant's admitted, throttled and deferred frames.
    flood: Option<TenantIngressStats>,
}

impl Trial for QosRun {
    /// Every interactive request is answered with a computed result, or
    /// the run panics.
    fn success_rate(&self) -> f64 {
        1.0
    }
}

#[derive(Serialize)]
struct QosArm {
    interactive_requests: u64,
    /// Flood offer rate: ten times a calibration run's interactive rate.
    flood_rate_rps: f64,
    alone: Value,
    flooded: Value,
    /// Flooded over alone median p99 — the acceptance bar is <= 2x.
    p99_ratio: Ratio,
}

fn qos_server() -> (Arc<Server>, IngressServer, PipeConnector) {
    let config = ServeConfig {
        dim: QOS_DIM,
        seed: 0x0905,
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        queue_capacity: 128,
        workers: WORKERS,
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

/// One run of the closed-loop interactive client, alone or against a
/// batch flood offered at `flood_rate` frames/s from one sender thread — on
/// a small box more senders just add context switches without changing
/// what the scheduler has to absorb.
fn qos_run(interactive: u64, flood_rate: Option<f64>) -> QosRun {
    let (server, ingress, connector) = qos_server();
    let stop = Arc::new(AtomicBool::new(false));
    let flood_thread = flood_rate.map(|rate| {
        let flood_total = 10 * interactive;
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
                let due = ((start.elapsed().as_secs_f64() * rate) as u64).min(flood_total);
                for _ in 0..due.saturating_sub(sent).min(4) {
                    let _ =
                        client.send(&frame(QosClass::Batch, "flood", 100, sent, payload.clone()));
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
    });
    if flood_thread.is_some() {
        // Let the flood establish a backlog before measuring.
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = IngressClient::connect(&connector, "interactive").expect("listener up");
    let mut latencies = Vec::with_capacity(interactive as usize);
    let run_start = Instant::now();
    for s in 0..interactive {
        if s > 0 {
            std::thread::sleep(THINK);
        }
        let payload: Vec<f32> =
            (0..QOS_DIM).map(|i| ((s as usize * QOS_DIM + i) as f32).sin()).collect();
        let start = Instant::now();
        client.send(&frame(QosClass::Interactive, "user", 1, s, payload.into())).expect("up");
        let response =
            client.recv_timeout(Duration::from_secs(30)).expect("clean stream").expect("answered");
        assert_eq!(response.seq, s);
        assert_eq!(response.status, WireStatus::Compute);
        latencies.push(start.elapsed().as_micros() as f64);
    }
    let interactive_rps = interactive as f64 / run_start.elapsed().as_secs_f64();
    latencies.sort_unstable_by(f64::total_cmp);
    stop.store(true, Ordering::Relaxed);
    let flood_frames = flood_thread.map_or(0, |t| t.join().expect("flood"));
    ingress.shutdown();
    let snapshot = Arc::try_unwrap(server).ok().expect("ingress released").shutdown();
    QosRun {
        interactive_rps,
        p50_us: stats::quantile_sorted(&latencies, 0.50),
        p99_us: stats::quantile_sorted(&latencies, 0.99),
        flood_frames,
        flood: snapshot.ingress.tenants.into_iter().find(|t| t.tenant == "flood"),
    }
}

/// The arm's record and its table row.
fn qos_arm(interactive: u64, trials: usize) -> (QosArm, Vec<String>) {
    // Calibrates the interactive request rate so the flood offers a true
    // 10:1 ratio against it.
    let flood_rate_rps = 10.0 * qos_run(interactive, None).interactive_rps;
    let arms = rotate(trials, 2, |arm| qos_run(interactive, (arm == 1).then_some(flood_rate_rps)));
    let p99 = |arm: &[QosRun]| Spread::of(arm.iter().map(|t| t.p99_us));
    let p99_ratio = ratio(&arms[1], &arms[0], |t| t.p99_us);
    let row = vec![
        "interactive p99 us".to_string(),
        format!("alone {}", p99(&arms[0])),
        format!("flooded {}", p99(&arms[1])),
        p99_ratio.to_string(),
    ];
    let record = QosArm {
        interactive_requests: interactive,
        flood_rate_rps,
        alone: summary(&arms[0]),
        flooded: summary(&arms[1]),
        p99_ratio,
    };
    (record, row)
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    workers: usize,
    submits: u64,
    submit: SubmitArm,
    wire: WireArm,
    qos: QosArm,
}

fn main() {
    let smoke = smoke_run();
    let submits: u64 = if smoke { 500 } else { 5_000 };
    let frames: u64 = if smoke { 200 } else { 4_000 };
    let interactive: u64 = if smoke { 40 } else { 800 };
    let trials = serving::trials(smoke);

    println!(
        "bench_ingress: dim {DIM}, {WORKERS} workers, {submits} submits, {frames} wire frames, \
         {interactive} interactive requests, {trials} trial(s) per arm, median [q1, q3]{}\n",
        if smoke { " [smoke]" } else { "" }
    );

    let (submit, submit_row) = submit_arm(submits, trials);
    let wire = wire_arm(frames, 256 << 10, trials);
    let (qos, qos_row) = qos_arm(interactive, trials);

    let pass_ms = |d: &measure::Dist| {
        format!("{:.1} [{:.1}, {:.1}]", d.median_us / 1e3, d.q1_us / 1e3, d.q3_us / 1e3)
    };
    let wire_row = vec![
        format!("decode pass ms ({frames} frames)"),
        format!("copy-out {}", pass_ms(&wire.decode.baseline)),
        format!("view {}", pass_ms(&wire.decode.candidate)),
        format!("{:.2}x", wire.decode.speedup),
    ];
    let headers = ["arm", "baseline", "candidate", "ratio"];
    println!("{}", format_table(&headers, &[submit_row, wire_row, qos_row]));
    println!(
        "zero-copy decode: {:.1}% of payloads were views into the read segments",
        100.0 * wire.zero_copy_frac
    );

    let output = BenchOutput { dim: DIM, workers: WORKERS, submits, submit, wire, qos };
    write_bench_json("ingress", &output, smoke);
}
