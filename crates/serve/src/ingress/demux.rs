//! The accept/demux loop: transport connections in, admission lanes out.
//!
//! Thread structure (no async runtime, like the rest of the crate):
//!
//! ```text
//!                    ┌────────────┐  per connection  ┌──────────┐
//!  listener ──────▶  │ accept     │ ───────────────▶ │ reader   │──┐ decode → QoS
//!                    │ thread     │                   │ thread   │  │
//!                    └────────────┘                   ├──────────┤  │
//!                                                     │ writer   │◀─┘ responses,
//!                                                     │ thread   │    arrival order
//!                    ┌────────────┐                   └──────────┘
//!  QoS queues ─────▶ │ scheduler  │ ──▶ Server::submit_to (shared payload)
//!                    │ thread     │
//!                    └────────────┘
//! ```
//!
//! Ordering contract: each connection's responses are written in *request
//! arrival order* — the reader threads a per-request reply slot into the
//! writer's queue as it decodes, and the writer resolves slots strictly in
//! that order. Refusals (throttles, rejects) are answered through the same
//! slots, so a client can pair every response to its request by position
//! as well as by the echoed `(client, seq)`.
//!
//! Shutdown contract: stop the ingress *before* the server
//! ([`IngressServer::shutdown`], then [`crate::Server::shutdown`]). The
//! ingress drains its QoS backlog into the still-running server and joins
//! every thread; admitted requests are then answered by the server's own
//! graceful shutdown.

use super::codec::{encode_response, Frame, FrameDecoder, QosClass, ResponseFrame, WireStatus};
use super::qos::{Dequeued, EnqueueOutcome, Job, QosQueue};
use super::transport::{AcceptEvent, IngressListener, ReadEvent};
use crate::config::IngressConfig;
use crate::metrics::IngressMetrics;
use crate::request::{InferResponse, ServedFrom, SubmitError, Timing};
use crate::server::Server;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked threads wake to poll the stop flag.
const POLL: Duration = Duration::from_millis(25);
/// Backoff after the server sheds an admission attempt, before the
/// scheduler retries the same job from the head of its class queue.
const SHED_BACKOFF: Duration = Duration::from_micros(200);

/// One response slot in a connection's write queue, in request arrival
/// order.
enum Slot {
    /// Refused before admission; the answer is already known.
    Ready(InferResponse),
    /// Admitted; the answer arrives on this per-request channel.
    Wait(Receiver<InferResponse>),
}

/// The framed-ingress front door of a [`Server`].
///
/// [`IngressServer::start`] spawns the accept and scheduler threads and
/// registers the ingress counter block into the server's snapshot;
/// [`IngressServer::shutdown`] drains and joins everything.
pub struct IngressServer {
    stop: Arc<AtomicBool>,
    qos: Arc<QosQueue>,
    metrics: Arc<IngressMetrics>,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl IngressServer {
    /// Starts the front door over `listener`.
    ///
    /// Panics if the server's [`IngressConfig::enabled`] flag is off — the
    /// flag is the explicit opt-in that keeps the default runtime
    /// bit-identical to the pre-ingress one.
    pub fn start(server: Arc<Server>, listener: Box<dyn IngressListener>) -> Self {
        let config = server.config().ingress.clone();
        assert!(config.enabled, "ServeConfig::ingress.enabled must be set to start an ingress");
        let metrics = Arc::new(IngressMetrics::default());
        server.register_ingress_metrics(metrics.clone());
        let qos = Arc::new(QosQueue::new(&config.qos));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let stop = stop.clone();
            let qos = qos.clone();
            let metrics = metrics.clone();
            let conn_threads = conn_threads.clone();
            let config = config.clone();
            let default_deadline = server.config().default_deadline;
            std::thread::spawn(move || {
                accept_loop(listener, stop, qos, metrics, conn_threads, config, default_deadline);
            })
        };

        let scheduler = {
            let qos = qos.clone();
            let metrics = metrics.clone();
            std::thread::spawn(move || scheduler_loop(server, qos, metrics))
        };

        Self { stop, qos, metrics, accept: Some(accept), scheduler: Some(scheduler), conn_threads }
    }

    /// The front door's counter block (also visible through
    /// [`crate::Server::snapshot`]).
    pub fn metrics(&self) -> Arc<IngressMetrics> {
        self.metrics.clone()
    }

    /// Stops accepting, drains the QoS backlog into the server, and joins
    /// every ingress thread. Call before [`crate::Server::shutdown`] so the
    /// drained requests can still be answered.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Readers exit on the stop flag; writers exit once every slot they
        // were handed resolves (the still-running server answers them).
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_threads.lock());
        for t in handles {
            let _ = t.join();
        }
        // Only now stop the queue: dequeue keeps yielding until both class
        // queues drain, so nothing admitted by a reader is ever dropped.
        self.qos.stop();
        if let Some(t) = self.scheduler.take() {
            let _ = t.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    mut listener: Box<dyn IngressListener>,
    stop: Arc<AtomicBool>,
    qos: Arc<QosQueue>,
    metrics: Arc<IngressMetrics>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: IngressConfig,
    default_deadline: Option<Duration>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.poll_accept(POLL) {
            Ok(AcceptEvent::Conn(conn)) => {
                metrics.connections.fetch_add(1, Ordering::Relaxed);
                let (slot_tx, slot_rx) = channel::unbounded::<Slot>();
                let reader = {
                    let stop = stop.clone();
                    let qos = qos.clone();
                    let metrics = metrics.clone();
                    let config = config.clone();
                    let mut half = conn.reader;
                    std::thread::spawn(move || {
                        reader_loop(
                            &mut *half,
                            slot_tx,
                            stop,
                            qos,
                            metrics,
                            &config,
                            default_deadline,
                        );
                    })
                };
                let writer = {
                    let mut half = conn.writer;
                    std::thread::spawn(move || writer_loop(&mut *half, slot_rx))
                };
                let mut threads = conn_threads.lock();
                threads.push(reader);
                threads.push(writer);
            }
            Ok(AcceptEvent::TimedOut) => {}
            Ok(AcceptEvent::Closed) | Err(_) => break,
        }
    }
}

/// Decodes frames off one connection, rate-checks them, and queues them
/// for the scheduler — threading a reply slot to the writer for every
/// request so responses keep arrival order.
fn reader_loop(
    reader: &mut dyn super::transport::FrameRead,
    slot_tx: Sender<Slot>,
    stop: Arc<AtomicBool>,
    qos: Arc<QosQueue>,
    metrics: Arc<IngressMetrics>,
    config: &IngressConfig,
    default_deadline: Option<Duration>,
) {
    let mut decoder = FrameDecoder::new(config.max_frame_bytes);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_segment_timeout(config.read_chunk_bytes, POLL) {
            Ok(ReadEvent::Data(segment)) => {
                decoder.push(segment);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(Frame::Request(request))) => {
                            metrics.frames.fetch_add(1, Ordering::Relaxed);
                            let deadline = if request.deadline_us > 0 {
                                Some(Duration::from_micros(request.deadline_us))
                            } else {
                                match request.class {
                                    QosClass::Interactive => config.qos.interactive_deadline,
                                    QosClass::Batch => config.qos.batch_deadline,
                                }
                                .or(default_deadline)
                            };
                            let (reply, reply_rx) = channel::bounded(1);
                            let (client, seq, tenant) =
                                (request.client, request.seq, request.tenant.clone());
                            let job = Job {
                                class: request.class,
                                model: request.model,
                                tenant: request.tenant,
                                client,
                                seq,
                                deadline,
                                payload: request.payload,
                                reply,
                            };
                            let slot = match qos.enqueue(job, Instant::now()) {
                                EnqueueOutcome::Queued { .. } => {
                                    metrics.record_admitted(&tenant);
                                    Slot::Wait(reply_rx)
                                }
                                EnqueueOutcome::Throttled | EnqueueOutcome::Full => {
                                    metrics.record_throttled(&tenant);
                                    Slot::Ready(refusal(client, seq, ServedFrom::Throttled))
                                }
                                EnqueueOutcome::Stopped => {
                                    Slot::Ready(refusal(client, seq, ServedFrom::Rejected))
                                }
                            };
                            if slot_tx.send(slot).is_err() {
                                return; // writer gone: connection is dead
                            }
                        }
                        Ok(Some(Frame::Response(_))) => {
                            // A client must never send response frames;
                            // framing can't be trusted past a violation.
                            metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
            Ok(ReadEvent::TimedOut) => {}
            Ok(ReadEvent::Eof) => {
                if decoder.finish().is_err() {
                    metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// Writes one connection's responses in request arrival order: slots are
/// resolved strictly in the order the reader queued them.
fn writer_loop(writer: &mut dyn super::transport::FrameWrite, slot_rx: Receiver<Slot>) {
    for slot in slot_rx.iter() {
        let response = match slot {
            Slot::Ready(response) => response,
            Slot::Wait(rx) => match rx.recv() {
                Ok(response) => response,
                // The server never drops an admitted request; this covers
                // a crashed worker. Skip the slot rather than wedge.
                Err(_) => continue,
            },
        };
        let frame = ResponseFrame {
            status: WireStatus::from_served(response.timing.source),
            client: response.client,
            seq: response.seq,
            completed_index: response.completed_index,
            payload: response.output.into(),
        };
        if writer.write_all_bytes(&encode_response(&frame)).is_err() {
            return; // peer hung up; remaining answers have no destination
        }
    }
}

/// Drains the QoS queues into the server's admission lanes in DRR order.
fn scheduler_loop(server: Arc<Server>, qos: Arc<QosQueue>, metrics: Arc<IngressMetrics>) {
    loop {
        match qos.dequeue(POLL) {
            Dequeued::Job(job) => {
                let outcome = server.submit_to(
                    &job.model,
                    job.client,
                    job.seq,
                    job.payload.clone(),
                    job.deadline,
                    job.reply.clone(),
                );
                match outcome {
                    Ok(()) => {
                        let counter = match job.class {
                            QosClass::Interactive => &metrics.interactive_dispatched,
                            QosClass::Batch => &metrics.batch_dispatched,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(SubmitError::Overloaded) => {
                        // Shed by the server, not dropped by us: the job
                        // returns to the head of its class queue and the
                        // scheduler backs off before retrying.
                        metrics.record_deferred(&job.tenant);
                        qos.requeue_front(job);
                        std::thread::sleep(SHED_BACKOFF);
                    }
                    Err(SubmitError::PodDown) => {
                        let _ = job.reply.send(refusal(job.client, job.seq, ServedFrom::PodDown));
                    }
                    Err(_) => {
                        // UnknownModel / WrongInputLen / ShuttingDown: a
                        // definitive refusal the client sees as Rejected.
                        let _ = job.reply.send(refusal(job.client, job.seq, ServedFrom::Rejected));
                    }
                }
            }
            Dequeued::TimedOut => {}
            Dequeued::Stopped => return,
        }
    }
}

/// A synthesized refusal response: empty output, zero timing, and a
/// `completed_index` of `u64::MAX` marking "never entered the completion
/// order".
fn refusal(client: u64, seq: u64, source: ServedFrom) -> InferResponse {
    InferResponse {
        client,
        seq,
        output: Vec::new(),
        completed_index: u64::MAX,
        timing: Timing {
            queue_us: 0,
            service_us: 0,
            total_us: 0,
            batch_size: 0,
            ipu_batch_us: None,
            gpu_batch_us: None,
            sim_batch_us: None,
            source,
            replica: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IngressConfig, QosConfig, RateLimit, ServeConfig};
    use crate::ingress::client::IngressClient;
    use crate::ingress::codec::RequestFrame;
    use crate::ingress::transport::pipe_listener;
    use bfly_core::Method;

    fn ingress_server(
        qos: QosConfig,
    ) -> (Arc<Server>, IngressServer, crate::ingress::transport::PipeConnector) {
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 256,
            workers: 2,
            ingress: IngressConfig { qos, ..IngressConfig::enabled() },
            ..Default::default()
        };
        let server = Arc::new(Server::start(config, &[Method::Butterfly]).expect("valid"));
        let (listener, connector) = pipe_listener();
        let ingress = IngressServer::start(server.clone(), Box::new(listener));
        (server, ingress, connector)
    }

    fn request(seq: u64, payload: Vec<f32>) -> RequestFrame {
        RequestFrame {
            class: QosClass::Interactive,
            model: "butterfly".to_string(),
            tenant: "acme".to_string(),
            client: 1,
            seq,
            deadline_us: 0,
            payload: payload.into(),
        }
    }

    #[test]
    fn framed_requests_round_trip_bit_exactly_with_direct_submits() {
        let (server, ingress, connector) = ingress_server(QosConfig::default());
        let mut client = IngressClient::connect(&connector, "t").expect("listener up");
        let inputs: Vec<Vec<f32>> =
            (0..8).map(|i| (0..64).map(|j| ((i * 64 + j) as f32).sin()).collect()).collect();
        for (seq, input) in inputs.iter().enumerate() {
            client.send(&request(seq as u64, input.clone())).expect("up");
        }
        for (seq, input) in inputs.iter().enumerate() {
            let response =
                client.recv_timeout(Duration::from_secs(5)).expect("io").expect("answered");
            assert_eq!(response.seq, seq as u64, "arrival-order delivery");
            let direct = server
                .submit("butterfly", 99, seq as u64, input.clone())
                .expect("admitted")
                .wait()
                .expect("answered");
            let wire: Vec<f32> = response.payload.to_vec();
            assert_eq!(
                wire.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                direct.output.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "framed and direct answers must be bit-identical"
            );
        }
        ingress.shutdown();
        let snapshot = server_shutdown(server);
        assert_eq!(snapshot.ingress.frames, 8);
        assert!(snapshot.ingress.enabled);
        let acme = snapshot.ingress.tenants.iter().find(|t| t.tenant == "acme").expect("tenant");
        assert_eq!(acme.admitted, 8);
        assert_eq!(acme.throttled, 0);
    }

    fn server_shutdown(server: Arc<Server>) -> crate::metrics::ServeSnapshot {
        Arc::try_unwrap(server).ok().expect("all ingress references released").shutdown()
    }

    #[test]
    fn zero_rate_tenant_is_throttled_with_answers_not_drops() {
        let qos = QosConfig {
            tenant_rates: vec![("flooder".to_string(), RateLimit::per_second(0.0, 2.0))],
            ..QosConfig::default()
        };
        let (server, ingress, connector) = ingress_server(qos);
        let mut client = IngressClient::connect(&connector, "t").expect("listener up");
        for seq in 0..6u64 {
            let mut frame = request(seq, vec![seq as f32; 64]);
            frame.tenant = "flooder".to_string();
            client.send(&frame).expect("up");
        }
        let mut throttled = 0;
        let mut answered = 0;
        for _ in 0..6 {
            let response =
                client.recv_timeout(Duration::from_secs(5)).expect("io").expect("answered");
            match response.status {
                WireStatus::Throttled => {
                    throttled += 1;
                    assert!(response.payload.is_empty());
                    assert_eq!(response.completed_index, u64::MAX);
                }
                _ => answered += 1,
            }
        }
        assert_eq!(answered, 2, "burst of 2 admitted");
        assert_eq!(throttled, 4, "every refusal is answered, none dropped");
        ingress.shutdown();
        let snapshot = server_shutdown(server);
        let t = snapshot.ingress.tenants.iter().find(|t| t.tenant == "flooder").expect("tenant");
        assert_eq!(t.admitted, 2);
        assert_eq!(t.throttled, 4);
    }

    #[test]
    fn unknown_model_is_rejected_over_the_wire() {
        let (server, ingress, connector) = ingress_server(QosConfig::default());
        let mut client = IngressClient::connect(&connector, "t").expect("listener up");
        let mut frame = request(0, vec![0.5; 64]);
        frame.model = "nonesuch".to_string();
        client.send(&frame).expect("up");
        let response = client.recv_timeout(Duration::from_secs(5)).expect("io").expect("answered");
        assert_eq!(response.status, WireStatus::Rejected);
        ingress.shutdown();
        server_shutdown(server);
    }

    #[test]
    fn wrong_input_length_is_rejected_over_the_wire() {
        let (server, ingress, connector) = ingress_server(QosConfig::default());
        let mut client = IngressClient::connect(&connector, "t").expect("listener up");
        client.send(&request(0, vec![0.5; 3])).expect("up");
        let response = client.recv_timeout(Duration::from_secs(5)).expect("io").expect("answered");
        assert_eq!(response.status, WireStatus::Rejected);
        ingress.shutdown();
        server_shutdown(server);
    }

    #[test]
    fn malformed_frame_counts_a_decode_error_and_drops_the_connection() {
        let (server, ingress, connector) = ingress_server(QosConfig::default());
        let mut conn = connector.connect("bad").expect("listener up");
        conn.writer.write_all_bytes(b"not a frame at all").expect("up");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let errors = ingress.metrics().decode_errors.load(Ordering::Relaxed);
            if errors == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "decode error never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        ingress.shutdown();
        server_shutdown(server);
    }
}
