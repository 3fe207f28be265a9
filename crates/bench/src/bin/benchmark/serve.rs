//! Serving workloads: the SHL at dim 1024 behind the framed ingress over an
//! in-memory pipe, with `ServeConfig::default()` except that ingress is on
//! and two workers are pinned, so a change to any other default shows up
//! here.
//!
//! Load comes from this process alone, with at most two generator threads
//! and two connections. Each trial starts a fresh server:
//!
//! 1. set-up (from `Server::start` to the first reply through ingress) and a
//!    warm-up at the workload's rate, which also prewarms hot rows;
//! 2. an open-loop Poisson phase on one connection (a sender thread and a
//!    receiver), each request timed from when it was *due*, so a stall
//!    before admission delays every later request's clock too;
//! 3. a closed-loop phase: two connections, each keeping half the window
//!    outstanding on one thread.
//!
//! A traced run replaces the closed loop with three passes over the same
//! schedule: an untraced reference, a traced ingress pass recording client
//! spans, and a direct pass through `Server::submit` whose server spans are
//! rebuilt from each response's public `Timing`.

use crate::report::{Metric, Outcome};
use crate::spec::{Scale, ServeSpec, CLASSES, DIM};
use crate::stats::{group_medians, median, quantile_sorted, sorted, tail_percentile};
use crate::trace::{self, Span};
use crate::{alloc, replay};
use bfly_core::build_shl_inference;
use bfly_serve::ingress::{
    encode_request, pipe_listener, Frame, FrameDecoder, FrameRead, FrameWrite, IngressServer,
    PipeConnector, QosClass, ReadEvent, RequestFrame, ResponseFrame, WireStatus,
};
use bfly_serve::{
    payload_key, IngressConfig, ModelRegistry, ModelSpec, Payload, ServeConfig, ServeSnapshot,
    Server,
};
use bfly_tensor::{derived_rng, Matrix, Scratch};
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
/// Every 64th successful reply (the first included) is checked bit for bit
/// against a reference model.
const CHECK_EVERY: u64 = 64;
/// Base rows the unique inputs are derived from.
const BASE_ROWS: usize = 256;
/// Row-index ranges of the phases of one trial, so no phase resends a row
/// another phase sent. All stay below 2^24, where element 0 (an `f32`)
/// still carries the index exactly.
const WARM_BASE: u64 = 1 << 20;
const CLOSED_BASE: u64 = 2 << 20;
const SETUP_INDEX: u64 = 3 << 20;
/// Request ids of the direct pass in the trace, apart from the ingress pass.
const DIRECT_IDS: u64 = 1 << 32;
/// How long a blocked read waits before re-checking its deadline.
const POLL: Duration = Duration::from_millis(20);
/// Head start of a phase's clock over its first due time.
const LEAD: Duration = Duration::from_millis(2);
/// A serve_hot run must serve at least this share of lookups from cache.
const MIN_HOT_HIT_RATE: f64 = 0.99;
/// Sender lateness p99 above this flags the run as generator-bound.
const GENERATOR_BOUND_MS: f64 = 1.0;

/// Phase lengths for one run.
struct Plan {
    trials: usize,
    /// Set-ups timed per trial, the trial's own included; the others start
    /// a server, wait for its first reply and shut it down.
    setups_per_trial: usize,
    /// `setup_s` reports one median per interleaved group of set-ups.
    setup_groups: usize,
    warm: Duration,
    open: Duration,
    closed: Duration,
    /// How long replies may trail the last send before counting as lost.
    grace: Duration,
    rate_rps: f64,
    window: usize,
    replay_budget: Duration,
}

impl Plan {
    /// Ten trials, each splitting its tenth of the run's seconds evenly
    /// between the open and the closed loop; the smoke scale is a few
    /// hundred milliseconds at a rate an unoptimised build keeps up with.
    fn new(spec: &ServeSpec, scale: &Scale) -> Self {
        if scale.smoke {
            return Self {
                trials: 1,
                setups_per_trial: 1,
                setup_groups: 1,
                warm: Duration::from_millis(50),
                open: Duration::from_millis(200),
                closed: Duration::from_millis(200),
                grace: Duration::from_secs(60),
                rate_rps: spec.rate_rps.min(100.0),
                window: spec.window.min(4),
                replay_budget: Duration::from_millis(5),
            };
        }
        let half_trial = Duration::from_secs_f64(scale.seconds / 20.0);
        Self {
            trials: 10,
            setups_per_trial: 6,
            setup_groups: 5,
            warm: Duration::from_millis(200),
            open: half_trial,
            closed: half_trial,
            grace: Duration::from_secs(5),
            rate_rps: spec.rate_rps,
            window: spec.window,
            replay_budget: Duration::from_millis(100),
        }
    }
}

/// The seeded inputs: base rows, and for hot workloads which hot row each
/// request sends.
struct Inputs {
    base: Matrix,
    hot: usize,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64, hot: usize) -> Self {
        Self {
            base: Matrix::random_uniform(BASE_ROWS, DIM, 1.0, &mut derived_rng(seed, 21)),
            hot,
            seed,
        }
    }

    /// The row request `index` sends: a hot row, or a base row whose
    /// element 0 carries the index, which makes every input unique.
    fn row(&self, index: u64) -> Vec<f32> {
        if self.hot > 0 {
            return self.hot_row(splitmix(self.seed ^ index) as usize % self.hot);
        }
        let mut row = self.base.row(index as usize % BASE_ROWS).to_vec();
        row[0] = index as f32;
        row
    }

    fn hot_row(&self, k: usize) -> Vec<f32> {
        self.base.row(k).to_vec()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Poisson arrival offsets at `rate` per second over `duration`.
fn poisson(rate: f64, duration: Duration, rng: &mut impl Rng) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Everything a run shares across its trials.
struct Ctx {
    name: &'static str,
    spec: ServeSpec,
    plan: Plan,
    model: String,
    config: ServeConfig,
    inputs: Inputs,
    warm: Vec<Duration>,
    open: Vec<Duration>,
    /// Built with the server's seed: what every reply must equal.
    reference: ModelRegistry,
}

/// Requests attempted and failed, output checks, and check violations,
/// accumulated over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    errors: Vec<String>,
}

/// A reply kept for comparison against the reference model, with the
/// index of the row it answered.
struct Check {
    index: u64,
    output: Vec<f32>,
}

impl Tally {
    fn record(&mut self, attempted: u64, ok: u64) {
        self.attempted += attempted;
        self.failed += attempted - ok.min(attempted);
    }

    fn keep(&mut self, ok_so_far: u64, index: u64, output: Vec<f32>) {
        if (ok_so_far - 1).is_multiple_of(CHECK_EVERY) {
            self.checks.push(Check { index, output });
        }
    }

    /// Compares every kept reply with `ModelEntry::forward` of the
    /// reference registry on the same row.
    fn verify(&mut self, ctx: &Ctx) {
        let entry = &ctx.reference.entries()[0];
        let mut scratch = Scratch::new();
        let mismatched = self
            .checks
            .drain(..)
            .filter(|c| {
                let row = Matrix::from_vec(1, DIM, ctx.inputs.row(c.index));
                !crate::bits_equal(entry.forward(&row, &mut scratch).as_slice(), &c.output)
            })
            .count();
        if mismatched > 0 {
            self.errors.push(format!(
                "{}: {mismatched} checked replies differ from ModelEntry::forward",
                ctx.name
            ));
        }
    }
}

fn ok_status(status: WireStatus) -> bool {
    matches!(status, WireStatus::Compute | WireStatus::CacheHit | WireStatus::Coalesced)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client side of one framed-ingress connection.
struct Client {
    writer: Box<dyn FrameWrite>,
    reader: Box<dyn FrameRead>,
    decoder: FrameDecoder,
}

/// A decoded reply and when its decoding began and ended.
struct Received {
    frame: ResponseFrame,
    decode_start: Instant,
    at: Instant,
}

fn request_frame(model: &str, client: u64, seq: u64, row: Vec<f32>) -> RequestFrame {
    RequestFrame {
        class: QosClass::Interactive,
        model: model.to_string(),
        tenant: TENANT.to_string(),
        client,
        seq,
        deadline_us: 0,
        payload: row.into(),
    }
}

/// Reads for up to `wait` and decodes every complete reply. `None` at EOF.
fn receive(
    reader: &mut dyn FrameRead,
    decoder: &mut FrameDecoder,
    wait: Duration,
) -> Result<Option<Vec<Received>>, String> {
    match reader.read_segment_timeout(64 << 10, wait).map_err(|e| e.to_string())? {
        ReadEvent::Data(segment) => decoder.push(segment),
        ReadEvent::TimedOut => return Ok(Some(Vec::new())),
        ReadEvent::Eof => return Ok(None),
    }
    let mut out = Vec::new();
    loop {
        let decode_start = Instant::now();
        match decoder.next_frame().map_err(|e| e.to_string())? {
            Some(Frame::Response(frame)) => {
                out.push(Received { frame, decode_start, at: Instant::now() })
            }
            Some(Frame::Request(_)) => return Err("the server sent a request frame".to_string()),
            None => return Ok(Some(out)),
        }
    }
}

impl Client {
    fn connect(connector: &PipeConnector, peer: &str) -> Result<Self, String> {
        let conn = connector.connect(peer).map_err(|e| e.to_string())?;
        Ok(Self { writer: conn.writer, reader: conn.reader, decoder: FrameDecoder::new(1 << 20) })
    }

    /// Sends one request and waits for its reply.
    fn round_trip(
        &mut self,
        model: &str,
        row: Vec<f32>,
        wait: Duration,
    ) -> Result<Received, String> {
        let bytes = encode_request(&request_frame(model, u64::MAX, 0, row));
        self.writer.write_all_bytes(&bytes).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + wait;
        while Instant::now() < deadline {
            let Some(mut got) = receive(&mut *self.reader, &mut self.decoder, POLL)? else {
                break;
            };
            if let Some(reply) = got.pop() {
                return Ok(reply);
            }
        }
        Err("no reply to a single request".to_string())
    }
}

/// One open-loop phase's measurements.
#[derive(Default)]
struct Open {
    sent: u64,
    ok: u64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    spans: Vec<Span>,
}

/// Sends `offsets.len()` requests on one connection, each when due, and
/// times each reply from its due time. Request `i` sends row `base + i`.
fn open_loop(
    client: &mut Client,
    ctx: &Ctx,
    offsets: &[Duration],
    base: u64,
    traced: bool,
    tally: &mut Tally,
) -> Open {
    let n = offsets.len();
    let t0 = Instant::now() + LEAD;
    let due = |i: usize| t0 + offsets[i];
    let Client { writer, reader, decoder } = client;
    let mut out = Open { sent: n as u64, latency_ms: Vec::with_capacity(n), ..Open::default() };
    let mut answered = vec![false; n];
    let mut ok = 0u64;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(n);
            let mut spans = Vec::new();
            for i in 0..n {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                let start = Instant::now();
                late.push(ms(start - due(i)));
                let frame = request_frame(&ctx.model, 0, i as u64, ctx.inputs.row(base + i as u64));
                let encode_start = Instant::now();
                let bytes = encode_request(&frame);
                let encoded = Instant::now();
                if writer.write_all_bytes(&bytes).is_err() {
                    break;
                }
                if traced {
                    let id = i as u64;
                    spans.push(Span::new(
                        "client.encode",
                        id,
                        Some("request"),
                        encode_start,
                        encoded,
                    ));
                    spans.push(Span::new(
                        "client.write",
                        id,
                        Some("request"),
                        encoded,
                        Instant::now(),
                    ));
                }
            }
            (late, spans)
        });
        let deadline = t0 + offsets.last().copied().unwrap_or_default() + ctx.plan.grace;
        let mut got = 0;
        while got < n && Instant::now() < deadline {
            let replies = match receive(&mut **reader, decoder, POLL) {
                Ok(Some(replies)) => replies,
                Ok(None) => break,
                Err(e) => {
                    tally.errors.push(e);
                    break;
                }
            };
            for r in replies {
                let i = r.frame.seq as usize;
                if i >= n || answered[i] {
                    tally.errors.push(format!("unexpected reply seq {}", r.frame.seq));
                    continue;
                }
                answered[i] = true;
                got += 1;
                if ok_status(r.frame.status) {
                    ok += 1;
                    out.latency_ms.push(ms(r.at.saturating_duration_since(due(i))));
                    tally.keep(ok, base + i as u64, r.frame.payload.to_vec());
                }
                if traced {
                    out.spans.push(Span::new("request", i as u64, None, due(i), r.at));
                    out.spans.push(Span::new(
                        "client.decode",
                        i as u64,
                        Some("request"),
                        r.decode_start,
                        r.at,
                    ));
                }
            }
        }
        let (late, spans) = sender.join().expect("sender thread");
        out.late_ms = late;
        out.spans.extend(spans);
    });
    out.ok = ok;
    tally.record(n as u64, ok);
    out
}

/// One closed-loop phase's counts.
struct Closed {
    sent: u64,
    ok: u64,
    /// Successful replies that arrived within the phase and the limit.
    within: u64,
}

/// Keeps `window` requests outstanding over the connections, one thread
/// each, for `plan.closed`.
fn closed_loop(ctx: &Ctx, clients: &mut [Client], tally: &mut Tally) -> Closed {
    let per_conn = (ctx.plan.window / clients.len()).max(1);
    let limit = Duration::from_secs_f64(ctx.spec.limit_ms / 1e3);
    let conns = clients.len() as u64;
    let start = Instant::now();
    let end = start + ctx.plan.closed;
    let stop = end + ctx.plan.grace;
    let results: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut local = Tally::default();
                    // Send times of the outstanding requests: at most
                    // `per_conn`, with consecutive sequence numbers.
                    let mut sent_at = vec![start; per_conn];
                    let mut sent = 0u64;
                    let (mut ok, mut within) = (0u64, 0u64);
                    // Connection `t` sends rows CLOSED_BASE + t, + t + conns, ...
                    let index = |seq: u64| CLOSED_BASE + seq * conns + t as u64;
                    let send = |client: &mut Client, sent_at: &mut [Instant], seq: u64| {
                        sent_at[seq as usize % per_conn] = Instant::now();
                        let row = ctx.inputs.row(index(seq));
                        let frame = request_frame(&ctx.model, t as u64, seq, row);
                        client.writer.write_all_bytes(&encode_request(&frame)).is_ok()
                    };
                    let mut outstanding = 0;
                    for _ in 0..per_conn {
                        if send(client, &mut sent_at, sent) {
                            sent += 1;
                            outstanding += 1;
                        }
                    }
                    while outstanding > 0 && Instant::now() < stop {
                        let replies = match receive(&mut *client.reader, &mut client.decoder, POLL)
                        {
                            Ok(Some(r)) => r,
                            Ok(None) => break,
                            Err(e) => {
                                local.errors.push(e);
                                break;
                            }
                        };
                        for r in replies {
                            let seq = r.frame.seq;
                            if seq >= sent || seq + outstanding < sent {
                                local.errors.push(format!("unexpected reply seq {seq}"));
                                continue;
                            }
                            outstanding -= 1;
                            if ok_status(r.frame.status) {
                                ok += 1;
                                let latency = r.at - sent_at[seq as usize % per_conn];
                                if r.at <= end && latency <= limit {
                                    within += 1;
                                }
                                local.keep(ok, index(seq), r.frame.payload.to_vec());
                            }
                            if r.at < end && send(client, &mut sent_at, sent) {
                                sent += 1;
                                outstanding += 1;
                            }
                        }
                    }
                    local.record(sent, ok);
                    (local, within)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("closed-loop thread")).collect()
    });
    let mut closed = Closed { sent: 0, ok: 0, within: 0 };
    for (local, within) in results {
        closed.sent += local.attempted;
        closed.ok += local.attempted - local.failed;
        closed.within += within;
        tally.attempted += local.attempted;
        tally.failed += local.failed;
        tally.checks.extend(local.checks);
        tally.errors.extend(local.errors);
    }
    closed
}

/// A running server with its ingress and generator connections.
struct Session {
    server: Arc<Server>,
    ingress: IngressServer,
    clients: Vec<Client>,
    setup_s: f64,
}

impl Session {
    /// Starts a fresh server and ingress and times set-up: from
    /// `Server::start` to the first reply through ingress.
    fn start(ctx: &Ctx, connections: usize, tally: &mut Tally) -> Result<Self, String> {
        let t = Instant::now();
        let server = Arc::new(
            Server::start(ctx.config.clone(), &[ctx.spec.method]).map_err(|e| e.to_string())?,
        );
        let (listener, connector) = pipe_listener();
        let ingress = IngressServer::start(server.clone(), Box::new(listener));
        let mut first = Client::connect(&connector, "gen-0")?;
        let reply = first.round_trip(&ctx.model, ctx.inputs.row(SETUP_INDEX), ctx.plan.grace)?;
        let setup_s = t.elapsed().as_secs_f64();
        tally.record(1, u64::from(ok_status(reply.frame.status)));
        let mut clients = vec![first];
        for c in 1..connections {
            clients.push(Client::connect(&connector, &format!("gen-{c}"))?);
        }
        Ok(Self { server, ingress, clients, setup_s })
    }

    /// Prewarms every hot row, then sends at the workload's rate for the
    /// warm-up period.
    fn warm(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        for k in 0..ctx.spec.hot_rows {
            let reply =
                self.clients[0].round_trip(&ctx.model, ctx.inputs.hot_row(k), ctx.plan.grace)?;
            tally.record(1, u64::from(ok_status(reply.frame.status)));
        }
        open_loop(&mut self.clients[0], ctx, &ctx.warm, WARM_BASE, false, tally);
        Ok(())
    }

    /// Closes the connections, stops ingress, then drains the server.
    fn finish(self) -> Result<ServeSnapshot, String> {
        drop(self.clients);
        self.ingress.shutdown();
        let server = Arc::try_unwrap(self.server).map_err(|_| "ingress still holds the server")?;
        Ok(server.shutdown())
    }
}

/// Counter changes between two snapshots of the same server.
struct Delta {
    admitted: f64,
    shed: f64,
    batches: f64,
    rows: f64,
    hits: f64,
    misses: f64,
    coalesced: f64,
    evictions: f64,
    frames: f64,
    decode_errors: f64,
    throttled: f64,
    completed: f64,
    device_us: f64,
    makespan_us: f64,
}

impl Delta {
    fn between(a: &ServeSnapshot, b: &ServeSnapshot) -> Self {
        let (ma, mb) = (&a.models[0], &b.models[0]);
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        let throttled = |s: &ServeSnapshot| s.ingress.tenants.iter().map(|t| t.throttled).sum();
        Self {
            admitted: d(ma.admitted, mb.admitted),
            shed: d(ma.shed, mb.shed),
            batches: d(ma.batches, mb.batches),
            rows: mb.mean_batch * mb.batches as f64 - ma.mean_batch * ma.batches as f64,
            hits: d(a.cache.hits, b.cache.hits),
            misses: d(a.cache.misses, b.cache.misses),
            coalesced: d(a.cache.coalesced, b.cache.coalesced),
            evictions: d(a.cache.evictions, b.cache.evictions),
            frames: d(a.ingress.frames, b.ingress.frames),
            decode_errors: d(a.ingress.decode_errors, b.ingress.decode_errors),
            throttled: d(throttled(a), throttled(b)),
            completed: d(ma.completed, mb.completed),
            device_us: b.total_device_us - a.total_device_us,
            makespan_us: b.pod_makespan_us - a.pod_makespan_us,
        }
    }

    fn hit_rate(&self) -> f64 {
        let looked = self.hits + self.misses + self.coalesced;
        if looked == 0.0 {
            0.0
        } else {
            self.hits / looked
        }
    }
}

/// One untraced (or traced-reference) trial's results.
struct Trial {
    setup_s: f64,
    /// Heap high-water mark when the open loop ends: fixed work, unlike the
    /// closed loop, whose request count (and so the server's latency
    /// histograms) grows with the host's speed.
    peak_heap_mib: f64,
    open: Open,
    closed: Option<Closed>,
    delta: Delta,
}

fn trial(ctx: &Ctx, closed: bool, traced: bool, tally: &mut Tally) -> Result<Trial, String> {
    let mut session = Session::start(ctx, if closed { 2 } else { 1 }, tally)?;
    session.warm(ctx, tally)?;
    let before = session.server.snapshot();
    let open = open_loop(&mut session.clients[0], ctx, &ctx.open, 0, traced, tally);
    let peak_heap_mib = alloc::peak_heap_mib();
    let closed = closed.then(|| closed_loop(ctx, &mut session.clients, tally));
    let setup_s = session.setup_s;
    let after = session.finish()?;
    tally.verify(ctx);
    Ok(Trial { setup_s, peak_heap_mib, open, closed, delta: Delta::between(&before, &after) })
}

fn open_stats(open: &Open) -> Result<(f64, f64), String> {
    if open.latency_ms.is_empty() {
        return Err("no successful open-loop reply".to_string());
    }
    let s = sorted(&open.latency_ms);
    Ok((quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.9)))
}

/// The generator's own health: how late sends went out and how many
/// latency samples back the tail.
fn loadgen_metrics(open: &Open) -> Vec<Metric> {
    let late = sorted(&open.late_ms);
    let lat = sorted(&open.latency_ms);
    let pct = tail_percentile(lat.len());
    let q = |s: &[f64], q: f64| if s.is_empty() { 0.0 } else { quantile_sorted(s, q) };
    vec![
        Metric::one("loadgen.late_p99_ms", "ms", q(&late, 0.99)),
        Metric::one("loadgen.sent", "count", open.sent as f64),
        Metric::one("loadgen.ok", "count", open.ok as f64),
        Metric::one("loadgen.failed", "count", (open.sent - open.ok) as f64),
        Metric::one("loadgen.samples", "count", lat.len() as f64),
        Metric::one("loadgen.tail_ms", "ms", q(&lat, pct / 100.0)),
        Metric::one("loadgen.tail_pct", "pct", pct),
    ]
}

pub fn run(
    name: &'static str,
    spec: &ServeSpec,
    seed: u64,
    scale: &Scale,
    traced: bool,
) -> Result<Outcome, String> {
    let plan = Plan::new(spec, scale);
    let gen_start = Instant::now();
    let inputs = Inputs::new(seed, spec.hot_rows);
    let warm = poisson(plan.rate_rps, plan.warm, &mut derived_rng(seed, 31));
    let open = poisson(plan.rate_rps, plan.open, &mut derived_rng(seed, 32));
    let gen_s = gen_start.elapsed().as_secs_f64();
    let config =
        ServeConfig { ingress: IngressConfig::enabled(), workers: 2, ..ServeConfig::default() };
    let reference = ModelRegistry::build(DIM, CLASSES, config.seed, &[spec.method])
        .map_err(|e| e.to_string())?;
    let ctx = Ctx {
        name,
        spec: spec.clone(),
        model: ModelSpec::of_method(spec.method).name,
        plan,
        config,
        inputs,
        warm,
        open,
        reference,
    };
    let mut tally = Tally::default();
    let mut outcome = if traced {
        let mut o = traced_run(name, &ctx, gen_s, &mut tally)?;
        o.zero_bypassed(&["nn."]);
        o
    } else {
        untraced_run(name, &ctx, &mut tally)?
    };
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome.errors.extend(tally.errors);
    Ok(outcome)
}

fn untraced_run(name: &'static str, ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let (mut trials, mut setups) = (Vec::new(), Vec::new());
    let (mut p50, mut p90, mut per_trial) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ctx.plan.trials {
        alloc::reset_peak();
        for _ in 1..ctx.plan.setups_per_trial {
            let session = Session::start(ctx, 1, tally)?;
            setups.push(session.setup_s);
            session.finish()?;
        }
        let mut t = trial(ctx, true, false, tally)?;
        setups.push(t.setup_s);
        let (a, b) = open_stats(&t.open)?;
        p50.push(a);
        p90.push(b);
        per_trial.push(loadgen_metrics(&t.open));
        // Keep only the numbers: the raw samples would add to every later
        // trial's heap peak.
        t.open = Open::default();
        trials.push(t);
    }
    let mut outcome = Outcome::new(name, false);
    let each = |f: &dyn Fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    outcome.push(Metric::trials("setup_s", "s", group_medians(&setups, ctx.plan.setup_groups)));
    outcome.push(Metric::trials("p50_ms", "ms", p50));
    outcome.push(Metric::trials("p90_ms", "ms", p90));
    outcome.push(Metric::trials("peak_heap_mib", "MiB", each(&|t| t.peak_heap_mib)));
    let closed_s = ctx.plan.closed.as_secs_f64();
    outcome.push(Metric::trials(
        "throughput_per_s",
        "1/s",
        each(&|t| t.closed.as_ref().map_or(0, |c| c.within) as f64 / closed_s),
    ));
    for (i, m) in per_trial[0].iter().enumerate() {
        outcome.push(Metric::trials(
            &m.name,
            &m.unit,
            per_trial.iter().map(|t| t[i].value()).collect(),
        ));
    }
    let closed = |f: &dyn Fn(&Closed) -> u64| each(&|t| t.closed.as_ref().map_or(0, f) as f64);
    outcome.push(Metric::trials("loadgen.closed.sent", "count", closed(&|c| c.sent)));
    outcome.push(Metric::trials("loadgen.closed.ok", "count", closed(&|c| c.ok)));
    outcome.push(Metric::trials("loadgen.closed.failed", "count", closed(&|c| c.sent - c.ok)));
    let late_p99 = outcome.get("loadgen.late_p99_ms").map_or(0.0, Metric::value);
    let generator_bound = late_p99 > GENERATOR_BOUND_MS;
    if generator_bound {
        eprintln!("{name}: generator-bound: sends ran {late_p99:.3} ms late at p99");
    }
    outcome.push(Metric::one(
        "loadgen.generator_bound",
        "flag",
        f64::from(u8::from(generator_bound)),
    ));
    let hit_rates = each(&|t| t.delta.hit_rate());
    check_hit_rate(name, ctx, &hit_rates, &mut outcome);
    outcome.push(Metric::trials("cache.hit_rate", "fraction", hit_rates));
    Ok(outcome)
}

fn check_hit_rate(name: &str, ctx: &Ctx, rates: &[f64], outcome: &mut Outcome) {
    if ctx.spec.hot_rows > 0 && rates.iter().any(|&r| r < MIN_HOT_HIT_RATE) {
        outcome.errors.push(format!("{name}: cache hit rate {rates:?} below {MIN_HOT_HIT_RATE}"));
    }
}

/// What the direct pass measured per request.
#[derive(Default)]
struct Direct {
    latency_us: Vec<f64>,
    submit_us: Vec<f64>,
    queue_us: Vec<f64>,
    forward_us: Vec<f64>,
    reply_us: Vec<f64>,
    spans: Vec<Span>,
}

/// Sends `offsets` through `Server::submit` (no ingress) on the same
/// schedule, rebuilding the server stages from each response's `Timing`.
fn direct_pass(
    server: &Server,
    ctx: &Ctx,
    offsets: &[Duration],
    base: u64,
    traced: bool,
    tally: &mut Tally,
) -> Direct {
    let n = offsets.len();
    let t0 = Instant::now() + LEAD;
    let due = |i: usize| t0 + offsets[i];
    let deadline = t0 + offsets.last().copied().unwrap_or_default() + ctx.plan.grace;
    let mut out = Direct::default();
    let mut ok = 0u64;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..n {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                let submit_start = Instant::now();
                let handle =
                    server.submit(&ctx.model, 0, i as u64, ctx.inputs.row(base + i as u64));
                let submitted = Instant::now();
                if let Ok(handle) = handle {
                    let _ = tx.send((i, submit_start, submitted, handle));
                }
            }
        });
        for (i, s0, s1, handle) in rx.iter() {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Some(resp) = handle.wait_timeout(wait) else { continue };
            let at = Instant::now();
            if resp.timing.source.is_failure() {
                continue;
            }
            ok += 1;
            let t = resp.timing;
            let reply = t.total_us.saturating_sub(t.queue_us + t.service_us);
            out.latency_us.push((at.saturating_duration_since(due(i))).as_secs_f64() * 1e6);
            out.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            out.queue_us.push(t.queue_us as f64);
            out.forward_us.push(t.service_us as f64);
            out.reply_us.push(reply as f64);
            tally.keep(ok, base + i as u64, resp.output);
            if traced {
                let id = DIRECT_IDS + i as u64;
                let at_us = |us: u64| s0 + Duration::from_micros(us);
                let queue_end = at_us(t.queue_us).max(s1);
                let forward_end = at_us(t.queue_us + t.service_us).max(queue_end);
                let reply_end = at_us(t.total_us).max(forward_end);
                let parent = Some("direct.request");
                out.spans.push(Span::new("direct.request", id, None, due(i), at));
                out.spans.push(Span::new("server.submit", id, parent, s0, s1));
                out.spans.push(Span::new("server.queue", id, parent, s1, queue_end));
                out.spans.push(Span::new("server.forward", id, parent, queue_end, forward_end));
                out.spans.push(Span::new("server.reply", id, parent, forward_end, reply_end));
            }
        }
    });
    tally.record(n as u64, ok);
    out
}

fn traced_run(
    name: &'static str,
    ctx: &Ctx,
    gen_s: f64,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    // The untraced reference for the tracing overhead.
    let reference = trial(ctx, false, false, tally)?;
    let (untraced_p50, _) = open_stats(&reference.open)?;

    // Ingress pass with client spans.
    let mut pass = trial(ctx, false, true, tally)?;
    let (traced_p50, _) = open_stats(&pass.open)?;
    let mut spans = std::mem::take(&mut pass.open.spans);

    // Direct pass on a fresh server, warmed the same way.
    let server =
        Server::start(ctx.config.clone(), &[ctx.spec.method]).map_err(|e| e.to_string())?;
    for k in 0..ctx.spec.hot_rows {
        let reply =
            server.submit(&ctx.model, 0, 0, ctx.inputs.hot_row(k)).ok().and_then(|h| h.wait());
        tally.record(1, u64::from(reply.is_some_and(|r| !r.timing.source.is_failure())));
    }
    direct_pass(&server, ctx, &ctx.warm, WARM_BASE, false, tally);
    let direct = direct_pass(&server, ctx, &ctx.open, 0, true, tally);
    server.shutdown();
    tally.verify(ctx);
    spans.extend(direct.spans);

    let mut outcome = Outcome::new(name, true);
    for m in loadgen_metrics(&pass.open) {
        outcome.push(m);
    }
    let d = &pass.delta;
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let metrics = [
        ("ingress.frames", "count", d.frames),
        ("ingress.decode_errors", "count", d.decode_errors),
        ("ingress.throttled", "count", d.throttled),
        ("ingress.encode_us", "us", med(&trace::durations_us(&spans, "client.encode"))),
        ("ingress.overhead_us", "us", traced_p50 * 1e3 - med(&direct.latency_us)),
        ("server.admitted", "count", d.admitted),
        ("server.shed", "count", d.shed),
        ("server.batches", "count", d.batches),
        ("server.mean_batch", "rows", if d.batches > 0.0 { d.rows / d.batches } else { 0.0 }),
        ("server.submit_us", "us", med(&direct.submit_us)),
        ("server.queue_us", "us", med(&direct.queue_us)),
        ("server.forward_us", "us", med(&direct.forward_us)),
        ("server.reply_us", "us", med(&direct.reply_us)),
        ("cache.hits", "count", d.hits),
        ("cache.misses", "count", d.misses),
        ("cache.coalesced", "count", d.coalesced),
        ("cache.evictions", "count", d.evictions),
        ("cache.hit_rate", "fraction", d.hit_rate()),
        (
            "replica.sim_us_per_req",
            "sim_us",
            if d.completed > 0.0 { d.device_us / d.completed } else { 0.0 },
        ),
        ("replica.sim_makespan_us", "sim_us", d.makespan_us),
        ("data.gen_s", "s", gen_s),
        ("trace.overhead_frac", "fraction", traced_p50 / untraced_p50 - 1.0),
    ];
    for (metric, unit, value) in metrics {
        outcome.push(Metric::one(metric, unit, value));
    }
    check_hit_rate(name, ctx, &[reference.delta.hit_rate(), d.hit_rate()], &mut outcome);

    let row = Payload::from(ctx.inputs.row(0));
    outcome.push(Metric::one(
        "cache.key_us",
        "us",
        replay::time_us(ctx.plan.replay_budget, || {
            black_box(payload_key(0, black_box(&row)));
        }),
    ));
    let model =
        build_shl_inference(ctx.spec.method, DIM, CLASSES, &mut derived_rng(ctx.config.seed, 0))
            .map_err(|e| e.to_string())?;
    for m in replay::layers(&model, ctx.config.seed, ctx.plan.replay_budget)? {
        outcome.push(m);
    }
    for m in trace::self_time_metrics(&spans) {
        outcome.push(m);
    }
    outcome.trace = Some((epoch, spans));
    Ok(outcome)
}
