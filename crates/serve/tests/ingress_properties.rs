//! Ingress invariants, property-tested: the codec round-trips any frame
//! bit-exactly and rejects any corrupted byte stream with a clean error
//! (never a panic, never a mis-framed decode); the QoS layer cannot lose
//! or duplicate a request, throttles are answered and counted, and a
//! flooding batch class cannot starve interactive traffic beyond its DRR
//! share; and the framed front door produces responses bit-identical to
//! the in-process submit path — which itself stays bit-identical whether
//! or not the ingress config is enabled.

use bfly_core::Method;
use bfly_serve::ingress::codec::{crc32, BODY_FIXED_LEN, MAGIC, VERSION};
use bfly_serve::ingress::qos::{Dequeued, EnqueueOutcome, Job, QosQueue};
use bfly_serve::ingress::transport::pipe_listener;
use bfly_serve::ingress::{
    encode_request, Frame, FrameDecoder, FrameError, IngressClient, IngressServer, QosClass,
    RequestFrame, WireStatus,
};
use bfly_serve::{IngressConfig, Payload, QosConfig, RateLimit, ServeConfig, Server};
use proptest::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 32;

fn serve_config(ingress: IngressConfig) -> ServeConfig {
    ServeConfig {
        dim: DIM,
        classes: 10,
        seed: 29,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 256,
        workers: 2,
        ingress,
        ..Default::default()
    }
}

/// Decodes a byte stream fed in `chunk`-sized segments, then signals EOF.
fn decode_stream(
    bytes: &[u8],
    chunk: usize,
) -> Result<Vec<Frame>, bfly_serve::ingress::FrameError> {
    let mut decoder = FrameDecoder::new(1 << 20);
    let mut frames = Vec::new();
    for part in bytes.chunks(chunk.max(1)) {
        decoder.push(Arc::from(part));
        while let Some(frame) = decoder.next_frame()? {
            frames.push(frame);
        }
    }
    decoder.finish()?;
    Ok(frames)
}

fn name_from(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + b % 26) as char).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any frame — any payload bit pattern (NaNs and negative zeros
    /// included), any names, any chunking of the byte stream — decodes
    /// back to exactly the fields and payload bits that were encoded.
    #[test]
    fn codec_round_trips_any_frame_bit_exactly(
        bits in prop::collection::vec(0u32..u32::MAX, 0usize..48),
        class_code in 0u8..2,
        client in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        deadline_us in 0u64..2_000_000,
        model_raw in prop::collection::vec(0u8..=255, 1usize..12),
        tenant_raw in prop::collection::vec(0u8..=255, 0usize..12),
        chunk in 1usize..96,
    ) {
        let payload: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let frame = RequestFrame {
            class: QosClass::from_wire(class_code).expect("0 or 1"),
            model: name_from(&model_raw),
            tenant: name_from(&tenant_raw),
            client,
            seq,
            deadline_us,
            payload: payload.clone().into(),
        };
        let bytes = encode_request(&frame);
        let frames = decode_stream(&bytes, chunk).expect("well-formed frame must decode");
        prop_assert_eq!(frames.len(), 1);
        let Frame::Request(got) = &frames[0] else {
            return Err("decoded kind flipped".to_string());
        };
        prop_assert_eq!(got.class, frame.class);
        prop_assert_eq!(&got.model, &frame.model);
        prop_assert_eq!(&got.tenant, &frame.tenant);
        prop_assert_eq!(got.client, client);
        prop_assert_eq!(got.seq, seq);
        prop_assert_eq!(got.deadline_us, deadline_us);
        prop_assert!(
            got.payload.bit_eq(&Payload::from(payload)),
            "payload bits must survive the wire exactly"
        );
    }

    /// Flipping any single byte of a well-formed frame produces a clean
    /// decode error — at the flipped frame or at end-of-stream — never a
    /// panic, never a silently mis-framed decode. (A non-empty model name
    /// pins the one layout where a kind flip could alias a valid response.)
    #[test]
    fn any_single_byte_corruption_is_rejected_cleanly(
        bits in prop::collection::vec(0u32..u32::MAX, 0usize..32),
        model_raw in prop::collection::vec(0u8..=255, 1usize..10),
        pos_seed in 0usize..100_000,
        mask in 1u8..=255,
        chunk in 1usize..64,
    ) {
        let frame = RequestFrame {
            class: QosClass::Batch,
            model: name_from(&model_raw),
            tenant: "t".to_string(),
            client: 5,
            seq: 6,
            deadline_us: 0,
            payload: bits.iter().map(|&b| f32::from_bits(b)).collect::<Vec<f32>>().into(),
        };
        let mut bytes = encode_request(&frame);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask;
        prop_assert!(
            decode_stream(&bytes, chunk).is_err(),
            "corrupting byte {} must not decode silently",
            pos
        );
    }

    /// Truncating a frame anywhere yields Truncated at end-of-stream (or
    /// an earlier clean error), never a partial decode.
    #[test]
    fn any_truncation_is_rejected_cleanly(
        bits in prop::collection::vec(0u32..u32::MAX, 1usize..32),
        cut_seed in 0usize..100_000,
        chunk in 1usize..64,
    ) {
        let frame = RequestFrame {
            class: QosClass::Interactive,
            model: "m".to_string(),
            tenant: "t".to_string(),
            client: 1,
            seq: 2,
            deadline_us: 0,
            payload: bits.iter().map(|&b| f32::from_bits(b)).collect::<Vec<f32>>().into(),
        };
        let bytes = encode_request(&frame);
        let cut = 1 + cut_seed % (bytes.len() - 1);
        let outcome = decode_stream(&bytes[..cut], chunk);
        prop_assert!(outcome.is_err(), "a frame cut at byte {} must error", cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, pushed in segments cut at arbitrary points, decode
    /// to frames or to a typed `FrameError`, never a panic: raw noise, and
    /// random bodies behind a valid prelude (magic, version, kind, and the
    /// length and checksum of the body that follows), with the body's own
    /// name and row counts made to add up in half the cases, and its other
    /// fields made legal in half of those. A consistent body under the size
    /// limit passes every framing check, so only a body field can reject
    /// it, and with legal fields it decodes.
    #[test]
    fn arbitrary_byte_streams_decode_or_fail_typed(
        noise in prop::collection::vec(0u8..=255, 0usize..160),
        body in prop::collection::vec(0u8..=255, 0usize..160),
        framed in 0u8..2,
        consistent in 0u8..2,
        valid_fields in 0u8..2,
        kind in 0u8..3,
        cuts in prop::collection::vec(0usize..1_000, 0usize..6),
        max_frame_bytes in 0usize..320,
    ) {
        let (framed, consistent, mut body) = (framed == 1, consistent == 1, body);
        if consistent && kind < 2 && body.len() >= BODY_FIXED_LEN {
            let rest = body.len() - BODY_FIXED_LEN;
            let (model_len, tenant_len) = if kind == 0 {
                let model_len = usize::from(body[1]) % (rest + 1);
                (model_len, usize::from(body[2]) % (rest - model_len + 1))
            } else {
                (0, 0)
            };
            let rows = (rest - model_len - tenant_len) / 4;
            body.truncate(BODY_FIXED_LEN + model_len + tenant_len + 4 * rows);
            if kind == 0 {
                (body[1], body[2]) = (model_len as u8, tenant_len as u8);
            }
            body[28..32].copy_from_slice(&(rows as u32).to_le_bytes());
            if valid_fields == 1 {
                // A legal class or status code, zero padding and ASCII
                // names: the frame decodes.
                body[0] %= if kind == 0 { 2 } else { 7 };
                let pad = if kind == 0 { 3..4 } else { 1..4 };
                body[pad].fill(0);
                for b in &mut body[BODY_FIXED_LEN..BODY_FIXED_LEN + model_len + tenant_len] {
                    *b &= 0x7f;
                }
            }
        }
        let mut bytes = Vec::new();
        if framed {
            bytes.extend_from_slice(&MAGIC.to_le_bytes());
            bytes.extend_from_slice(&[VERSION, kind]);
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        bytes.extend_from_slice(&noise);

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        bounds.extend([0, bytes.len()]);
        bounds.sort_unstable();
        let mut decoder = FrameDecoder::new(max_frame_bytes);
        let mut first: Option<Result<Frame, FrameError>> = None;
        'feed: for w in bounds.windows(2) {
            decoder.push(Arc::from(&bytes[w[0]..w[1]]));
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        first.get_or_insert(Ok(frame));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        first.get_or_insert(Err(e));
                        break 'feed;
                    }
                }
            }
        }
        let _ = decoder.finish();
        let passes_framing = framed
            && consistent
            && kind < 2
            && body.len() >= BODY_FIXED_LEN
            && body.len() <= max_frame_bytes;
        if passes_framing {
            match first {
                Some(Ok(_)) => {}
                Some(Err(FrameError::BadField(_))) if valid_fields == 0 => {}
                other => prop_assert!(false, "a well-framed body decoded to {:?}", other),
            }
        }
    }
}

/// A scheduling-test job; the returned receiver just keeps the reply
/// channel connected (these tests never read responses).
fn qos_job(
    class: QosClass,
    tenant: &str,
    seq: u64,
) -> (Job, crossbeam::channel::Receiver<bfly_serve::InferResponse>) {
    let (reply, rx) = crossbeam::channel::unbounded();
    let job = Job {
        class,
        model: "butterfly".to_string(),
        tenant: tenant.to_string(),
        client: 0,
        seq,
        deadline: None,
        payload: Payload::empty(),
        reply,
    };
    (job, rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any weights and any batch backlog, the j-th interactive
    /// request is dequeued within its DRR bound: each scheduling round
    /// serves at most `batch_weight` batch requests before
    /// `interactive_weight` interactive ones, so a flooding batch class
    /// can delay interactive work by at most one batch quantum per round.
    #[test]
    fn batch_flood_cannot_starve_interactive_beyond_the_drr_bound(
        wi in 1u32..10,
        wb in 1u32..10,
        batch_backlog in 10usize..150,
        interactive in 1usize..25,
    ) {
        let config = QosConfig {
            interactive_weight: wi,
            batch_weight: wb,
            ..QosConfig::default()
        };
        let q = QosQueue::new(&config);
        let now = Instant::now();
        let mut keep_alive = Vec::new();
        for s in 0..batch_backlog as u64 {
            let (job, rx) = qos_job(QosClass::Batch, "flood", s);
            keep_alive.push(rx);
            let outcome = q.enqueue(job, now);
            prop_assert!(matches!(outcome, EnqueueOutcome::Queued { .. }));
        }
        for s in 0..interactive as u64 {
            let (job, rx) = qos_job(QosClass::Interactive, "user", s);
            keep_alive.push(rx);
            let outcome = q.enqueue(job, now);
            prop_assert!(matches!(outcome, EnqueueOutcome::Queued { .. }));
        }
        let mut interactive_positions = Vec::new();
        let total = batch_backlog + interactive;
        for position in 0..total {
            let Dequeued::Job(job) = q.dequeue(Duration::from_millis(50)) else {
                return Err("queued job missing".to_string());
            };
            if job.class == QosClass::Interactive {
                interactive_positions.push(position);
            }
        }
        for (j, &position) in interactive_positions.iter().enumerate() {
            let rounds = j / wi as usize + 1;
            let bound = j + rounds * wb as usize;
            prop_assert!(
                position <= bound,
                "interactive #{} served at position {} > DRR bound {} (wi={wi}, wb={wb})",
                j, position, bound
            );
        }
    }

    /// A zero-rate token bucket admits exactly its burst; every other
    /// request is throttled — each request gets exactly one verdict, and
    /// the admitted set comes back out exactly once, in FIFO order.
    #[test]
    fn token_bucket_throttles_are_counted_never_lost_or_duplicated(
        n in 1usize..150,
        burst in 1u32..20,
    ) {
        let config = QosConfig {
            tenant_rates: vec![(
                "flooder".to_string(),
                RateLimit::per_second(0.0, burst as f64),
            )],
            ..QosConfig::default()
        };
        let q = QosQueue::new(&config);
        let now = Instant::now();
        let mut keep_alive = Vec::new();
        let mut admitted = Vec::new();
        let mut throttled = Vec::new();
        for s in 0..n as u64 {
            let (job, rx) = qos_job(QosClass::Batch, "flooder", s);
            keep_alive.push(rx);
            match q.enqueue(job, now) {
                EnqueueOutcome::Queued { .. } => admitted.push(s),
                EnqueueOutcome::Throttled => throttled.push(s),
                other => return Err(format!("unexpected outcome {other:?}")),
            }
        }
        let expect_admitted = (burst as usize).min(n);
        prop_assert_eq!(admitted.len(), expect_admitted);
        prop_assert_eq!(admitted.len() + throttled.len(), n, "every request gets one verdict");
        let mut drained = Vec::new();
        while let Dequeued::Job(job) = q.dequeue(Duration::from_millis(5)) {
            drained.push(job.seq);
        }
        prop_assert_eq!(&drained, &admitted, "admitted set drains exactly once, in order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// End to end over the wire: every framed response arrives in request
    /// arrival order per connection and is bit-identical to the same input
    /// submitted in-process to a server with ingress disabled (the
    /// pre-ingress runtime).
    #[test]
    fn framed_responses_are_fifo_and_bit_identical_to_the_direct_path(
        clients in 1u64..4,
        per_client in 1u64..8,
        salt in 0u32..1000,
    ) {
        let twin = Server::start(serve_config(IngressConfig::default()), &[Method::Butterfly])
            .expect("valid");
        let server = Arc::new(
            Server::start(serve_config(IngressConfig::enabled()), &[Method::Butterfly])
                .expect("valid"),
        );
        let (listener, connector) = pipe_listener();
        let ingress = IngressServer::start(server.clone(), Box::new(listener));

        let input = |c: u64, s: u64| -> Vec<f32> {
            (0..DIM).map(|i| ((c * 7919 + s * 131 + i as u64 + salt as u64) as f32).sin()).collect()
        };
        let mut conns: Vec<IngressClient> = (0..clients)
            .map(|c| IngressClient::connect(&connector, &format!("c{c}")).expect("listener up"))
            .collect();
        for (c, conn) in conns.iter_mut().enumerate() {
            for s in 0..per_client {
                conn.send(&RequestFrame {
                    class: if c % 2 == 0 { QosClass::Interactive } else { QosClass::Batch },
                    model: "butterfly".to_string(),
                    tenant: format!("tenant{}", c % 2),
                    client: c as u64,
                    seq: s,
                    deadline_us: 0,
                    payload: input(c as u64, s).into(),
                }).expect("connection up");
            }
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            for s in 0..per_client {
                let response = conn
                    .recv_timeout(Duration::from_secs(10))
                    .expect("clean stream")
                    .expect("every request is answered");
                prop_assert_eq!(response.seq, s, "per-connection FIFO");
                prop_assert_eq!(response.client, c as u64);
                prop_assert!(
                    !matches!(response.status, WireStatus::Throttled | WireStatus::Rejected),
                    "unlimited tenants are never refused"
                );
                let direct = twin
                    .submit("butterfly", 100 + c as u64, s, input(c as u64, s))
                    .expect("admitted")
                    .wait()
                    .expect("answered");
                let wire_bits: Vec<u32> =
                    response.payload.to_vec().iter().map(|f| f.to_bits()).collect();
                let direct_bits: Vec<u32> = direct.output.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(wire_bits, direct_bits, "wire and direct paths must agree bit-for-bit");
            }
        }
        ingress.shutdown();
        let snapshot =
            Arc::try_unwrap(server).ok().expect("ingress released its references").shutdown();
        prop_assert_eq!(snapshot.ingress.frames, clients * per_client);
        twin.shutdown();
    }

    /// With ingress disabled (the default), the runtime is the PR-7 one:
    /// responses to identical submissions are bit-identical between a
    /// default-config server and one whose config merely *enables* ingress
    /// (without attaching a front door), and the snapshot reports the
    /// front door as disabled.
    #[test]
    fn disabled_ingress_config_leaves_the_runtime_bit_identical(
        salt in 0u32..1000,
        n in 1u64..12,
    ) {
        let plain = Server::start(serve_config(IngressConfig::default()), &[Method::Butterfly])
            .expect("valid");
        let flagged = Server::start(serve_config(IngressConfig::enabled()), &[Method::Butterfly])
            .expect("valid");
        for s in 0..n {
            let input: Vec<f32> =
                (0..DIM).map(|i| ((s * 977 + i as u64 + salt as u64) as f32).cos()).collect();
            let a = plain
                .submit("butterfly", 0, s, input.clone())
                .expect("admitted")
                .wait()
                .expect("answered");
            let b = flagged
                .submit("butterfly", 0, s, input)
                .expect("admitted")
                .wait()
                .expect("answered");
            let a_bits: Vec<u32> = a.output.iter().map(|f| f.to_bits()).collect();
            let b_bits: Vec<u32> = b.output.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(a_bits, b_bits);
        }
        let snapshot = plain.shutdown();
        prop_assert!(!snapshot.ingress.enabled, "default config reports no front door");
        prop_assert_eq!(snapshot.ingress.frames, 0);
        flagged.shutdown();
    }
}
