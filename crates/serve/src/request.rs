//! Request and response types of the serving API.

use crate::cache::CacheTag;
use crate::payload::Payload;
use crossbeam::channel::{self, Receiver, Sender};
use std::fmt;
use std::time::{Duration, Instant};

/// How a response was produced — the provenance behind its device-time
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServedFrom {
    /// A worker ran the forward pass for this request; the batch's device
    /// estimate is attributed here.
    #[default]
    Compute,
    /// Served from the content-addressed response cache without touching
    /// the batcher: 0 device-µs by definition.
    CacheHit,
    /// Coalesced onto another in-flight request's forward; the device time
    /// is attributed to that leader, so this response reports 0 device-µs.
    Coalesced,
    /// The request's deadline passed before its batch was dispatched; the
    /// forward pass never ran, `output` is empty, and 0 device-µs is
    /// attributed.
    DeadlineExceeded,
    /// Every pod replica was down when the request's batch was routed; the
    /// forward pass never ran, `output` is empty, and 0 device-µs is
    /// attributed.
    PodDown,
    /// The ingress QoS layer refused the request before admission — the
    /// tenant's token bucket was empty or its class queue full. The forward
    /// pass never ran, `output` is empty, and 0 device-µs is attributed.
    /// Only the framed-ingress front door produces this; in-process
    /// `submit` never does.
    Throttled,
    /// The ingress front door could not admit the request for a
    /// non-rate-limit reason (unknown model, wrong input length, server
    /// shutting down). `output` is empty and 0 device-µs is attributed.
    /// Only the framed-ingress front door produces this; in-process
    /// `submit` reports the same conditions as [`crate::SubmitError`]s.
    Rejected,
}

impl ServedFrom {
    /// True for the failure outcomes ([`ServedFrom::DeadlineExceeded`],
    /// [`ServedFrom::PodDown`], [`ServedFrom::Throttled`],
    /// [`ServedFrom::Rejected`]) that carry no computed output.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            ServedFrom::DeadlineExceeded
                | ServedFrom::PodDown
                | ServedFrom::Throttled
                | ServedFrom::Rejected
        )
    }
}

/// Per-request timing attribution attached to every response.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Microseconds from admission to the start of the batch's forward pass
    /// (queueing plus batch-formation wait).
    pub queue_us: u64,
    /// Microseconds the batch's forward pass took on the host CPU kernels.
    pub service_us: u64,
    /// Microseconds from admission to response emission (end-to-end).
    pub total_us: u64,
    /// Size of the micro-batch this request was served in.
    pub batch_size: usize,
    /// Predicted IPU (GC200) microseconds for the whole batch, from the
    /// performance simulator; `None` when the trace does not compile.
    pub ipu_batch_us: Option<f64>,
    /// Predicted GPU (A30) microseconds for the whole batch.
    pub gpu_batch_us: Option<f64>,
    /// Simulated pod microseconds this request's batch actually reserved on
    /// its replica's occupancy clock: the routed compute estimate (scaled by
    /// any degradation) *plus* whatever weight transfer the residency
    /// manager charged (IPU-Link cold load or streaming page-in). This is
    /// the latency the simulated device would observe — the quantity whose
    /// tail collapses when a working set outgrows the SRAM budget. `Some(0.0)`
    /// for cache hits and coalesced followers; `None` for failures.
    pub sim_batch_us: Option<f64>,
    /// Provenance: computed, cache hit, or coalesced. Cache hits and
    /// coalesced followers carry `Some(0.0)` device estimates so summing
    /// device time over responses stays honest (one forward, one
    /// attribution).
    pub source: ServedFrom,
    /// Pod replica whose occupancy clock this request's batch was retired
    /// against. `None` for cache hits, which never touch a replica;
    /// coalesced followers report the leader's replica (at 0 device-µs).
    pub replica: Option<usize>,
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// Client id echoed from the request.
    pub client: u64,
    /// Client-local sequence number echoed from the request.
    pub seq: u64,
    /// Class scores (one per configured class).
    pub output: Vec<f32>,
    /// Global completion index: the order in which the worker pool finished
    /// requests, across all clients and models.
    pub completed_index: u64,
    /// Timing attribution.
    pub timing: Timing,
}

/// An admitted request travelling to the batcher (crate-internal).
pub(crate) struct InferRequest {
    pub client: u64,
    pub seq: u64,
    /// Shared, reference-counted input: the same allocation the caller (or
    /// the ingress codec) produced, never deep-copied on the admission path.
    pub input: Payload,
    pub submitted: Instant,
    /// The request must start executing before this instant or be answered
    /// [`ServedFrom::DeadlineExceeded`]; `None` never expires. Checked at
    /// batch formation. Cache leaders expire like any other request — their
    /// coalesced waiters are released with the same failure answer (with
    /// the cache on, every admitted request is a leader, so exempting
    /// leaders would make deadlines a no-op in the default configuration).
    pub deadline: Option<Instant>,
    pub reply: Sender<InferResponse>,
    /// Present when this request leads a cached/coalesced computation: on
    /// completion the worker memoizes the result and wakes the key's
    /// waiters.
    pub cache_tag: Option<CacheTag>,
}

/// The caller's handle to a pending response.
pub struct ResponseHandle {
    rx: Receiver<InferResponse>,
}

impl ResponseHandle {
    pub(crate) fn channel() -> (Sender<InferResponse>, ResponseHandle) {
        let (tx, rx) = channel::bounded(1);
        (tx, ResponseHandle { rx })
    }

    /// Blocks until the response arrives. Returns `None` only if the server
    /// dropped the request without answering (it never does for admitted
    /// requests; this covers a crashed worker).
    pub fn wait(self) -> Option<InferResponse> {
        self.rx.recv().ok()
    }

    /// Waits up to `timeout` for the response.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<InferResponse> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Why a submission was rejected at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The model's admission queue is at capacity (load shedding).
    Overloaded,
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
    /// No model registered under the given name.
    UnknownModel,
    /// The input length does not match the configured dimensionality.
    WrongInputLen {
        /// Configured model input dimensionality.
        expected: usize,
        /// Length actually submitted.
        got: usize,
    },
    /// Every pod replica is down with no recovery left in the fault plan:
    /// the pod can never answer, so admission fails fast. (While a recovery
    /// is still pending, requests are admitted and individually answered
    /// [`ServedFrom::PodDown`] if their batch routes during the outage.)
    PodDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded => f.write_str("admission queue full (load shed)"),
            SubmitError::ShuttingDown => f.write_str("server is shutting down"),
            SubmitError::UnknownModel => f.write_str("unknown model name"),
            SubmitError::WrongInputLen { expected, got } => {
                write!(f, "input length {got} does not match model dimension {expected}")
            }
            SubmitError::PodDown => f.write_str("every pod replica is down and none will recover"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_delivers_one_response() {
        let (tx, handle) = ResponseHandle::channel();
        let resp = InferResponse {
            client: 1,
            seq: 2,
            output: vec![0.5],
            completed_index: 0,
            timing: Timing {
                queue_us: 1,
                service_us: 2,
                total_us: 3,
                batch_size: 1,
                ipu_batch_us: None,
                gpu_batch_us: None,
                sim_batch_us: Some(1.0),
                source: ServedFrom::Compute,
                replica: Some(0),
            },
        };
        tx.send(resp).expect("handle alive");
        let got = handle.wait().expect("response sent");
        assert_eq!(got.client, 1);
        assert_eq!(got.seq, 2);
    }

    #[test]
    fn dropped_sender_yields_none() {
        let (tx, handle) = ResponseHandle::channel();
        drop(tx);
        assert!(handle.wait().is_none());
    }

    #[test]
    fn submit_errors_have_readable_messages() {
        assert!(SubmitError::Overloaded.to_string().contains("full"));
        assert!(SubmitError::WrongInputLen { expected: 4, got: 2 }.to_string().contains('4'));
        assert!(SubmitError::PodDown.to_string().contains("down"));
    }

    #[test]
    fn failure_sources_are_flagged() {
        assert!(ServedFrom::DeadlineExceeded.is_failure());
        assert!(ServedFrom::PodDown.is_failure());
        assert!(ServedFrom::Throttled.is_failure());
        assert!(ServedFrom::Rejected.is_failure());
        assert!(!ServedFrom::Compute.is_failure());
        assert!(!ServedFrom::CacheHit.is_failure());
        assert!(!ServedFrom::Coalesced.is_failure());
    }
}
