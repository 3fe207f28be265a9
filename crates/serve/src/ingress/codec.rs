//! Wire format and zero-copy frame codec.
//!
//! Every frame is a 14-byte prelude followed by a body:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x42464C59 ("BFLY"), little-endian
//!      4     1  version    1
//!      5     1  kind       0 = request, 1 = response
//!      6     4  body_len   bytes that follow the prelude
//!     10     4  body_crc   CRC32-IEEE over the body bytes
//! ```
//!
//! Request body (`body_len == 32 + model_len + tenant_len + rows * 4`):
//!
//! ```text
//! offset  size  field
//!      0     1  class        0 = interactive, 1 = batch
//!      1     1  model_len    bytes of the UTF-8 model name
//!      2     1  tenant_len   bytes of the UTF-8 tenant name
//!      3     1  pad          must be 0
//!      4     8  client       client id, echoed in the response
//!     12     8  seq          client-local sequence number, echoed
//!     20     8  deadline_us  per-request deadline; 0 = class default
//!     28     4  rows         f32 count of the payload
//!     32     …  model name, tenant name, then rows × 4 little-endian f32
//! ```
//!
//! Response body (`body_len == 32 + rows * 4`):
//!
//! ```text
//! offset  size  field
//!      0     1  status           [`WireStatus`]
//!      1     3  pad              must be 0
//!      4     8  client           echoed
//!     12     8  seq              echoed
//!     20     8  completed_index  server completion order; !0 for refusals
//!     28     4  rows             f32 count of the payload
//!     32     …  rows × 4 little-endian f32
//! ```
//!
//! The decoder buffers incoming reads as a rope of shared [`Arc<[u8]>`]
//! segments. A request payload that lands inside one segment becomes a
//! [`Payload`] *view* of that segment — no copy between the transport read
//! and the worker's kernel input. Payloads that straddle a segment boundary
//! are copied once into a fresh allocation (the decoder does not hide this:
//! [`FrameDecoder::payload_copies`] counts them).
//!
//! Malformed input never panics: every validation failure is a
//! [`FrameError`], and the connection that produced it is dropped.

use crate::payload::Payload;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Frame magic: `"BFLY"` read as a little-endian u32.
pub const MAGIC: u32 = 0x42464C59;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Prelude size in bytes (magic, version, kind, body_len, body_crc).
pub const PRELUDE_LEN: usize = 14;
/// Fixed part of each body, before names and payload.
pub const BODY_FIXED_LEN: usize = 32;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// CRC32-IEEE (reflected, polynomial 0xEDB88320), table built at compile
/// time — the integrity check every body carries.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Streaming CRC32-IEEE.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32-IEEE of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Why a byte stream failed to decode. Every variant is a clean error —
/// the decoder never panics on wire input — and all of them are terminal
/// for the connection that produced them (framing cannot be trusted after
/// a bad frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The prelude's magic was not [`MAGIC`].
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// `body_len` exceeds the configured maximum frame size.
    Oversized {
        /// Declared body length.
        declared: usize,
        /// Configured ceiling.
        limit: usize,
    },
    /// `body_len` does not equal the length implied by the body's own
    /// fields (fixed header + names + `rows * 4`).
    LengthMismatch {
        /// Declared body length.
        declared: usize,
        /// Length implied by the body fields.
        implied: usize,
    },
    /// The body checksum did not match `body_crc`.
    BadChecksum {
        /// Checksum carried in the prelude.
        expected: u32,
        /// Checksum of the received body.
        got: u32,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes left unconsumed at end of stream.
        buffered: usize,
    },
    /// A body field held an invalid value (bad class or status code,
    /// non-zero padding, non-UTF-8 name).
    BadField(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized { declared, limit } => {
                write!(f, "frame body of {declared} bytes exceeds the {limit}-byte limit")
            }
            FrameError::LengthMismatch { declared, implied } => {
                write!(f, "declared body length {declared} != implied length {implied}")
            }
            FrameError::BadChecksum { expected, got } => {
                write!(f, "body checksum {got:#010x} != expected {expected:#010x}")
            }
            FrameError::Truncated { buffered } => {
                write!(f, "stream ended mid-frame with {buffered} bytes buffered")
            }
            FrameError::BadField(what) => write!(f, "invalid body field: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// QoS class a request frame declares (wire codes 0 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive traffic; scheduled with the larger DRR quantum.
    Interactive,
    /// Throughput traffic; scheduled with the smaller quantum.
    Batch,
}

impl QosClass {
    /// Array index of the class (`Interactive` = 0, `Batch` = 1).
    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
        }
    }

    /// Wire encoding of the class.
    pub fn as_wire(self) -> u8 {
        self.index() as u8
    }

    /// Decodes a wire class code.
    pub fn from_wire(code: u8) -> Option<QosClass> {
        match code {
            0 => Some(QosClass::Interactive),
            1 => Some(QosClass::Batch),
            _ => None,
        }
    }
}

/// Response status carried on the wire — [`crate::ServedFrom`] plus the
/// explicit refusal verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// A worker computed the response.
    Compute,
    /// Served from the memoized response cache.
    CacheHit,
    /// Coalesced onto another in-flight identical request.
    Coalesced,
    /// The deadline passed before the batch dispatched; payload is empty.
    DeadlineExceeded,
    /// No healthy replica when the batch routed; payload is empty.
    PodDown,
    /// Refused by the QoS layer (empty token bucket or full class queue).
    Throttled,
    /// Refused at admission (unknown model, wrong input length, shutdown).
    Rejected,
}

impl WireStatus {
    /// Wire encoding of the status.
    pub fn as_wire(self) -> u8 {
        match self {
            WireStatus::Compute => 0,
            WireStatus::CacheHit => 1,
            WireStatus::Coalesced => 2,
            WireStatus::DeadlineExceeded => 3,
            WireStatus::PodDown => 4,
            WireStatus::Throttled => 5,
            WireStatus::Rejected => 6,
        }
    }

    /// Decodes a wire status code.
    pub fn from_wire(code: u8) -> Option<WireStatus> {
        Some(match code {
            0 => WireStatus::Compute,
            1 => WireStatus::CacheHit,
            2 => WireStatus::Coalesced,
            3 => WireStatus::DeadlineExceeded,
            4 => WireStatus::PodDown,
            5 => WireStatus::Throttled,
            6 => WireStatus::Rejected,
            _ => return None,
        })
    }

    /// Maps a runtime provenance to its wire status.
    pub fn from_served(source: crate::request::ServedFrom) -> WireStatus {
        use crate::request::ServedFrom;
        match source {
            ServedFrom::Compute => WireStatus::Compute,
            ServedFrom::CacheHit => WireStatus::CacheHit,
            ServedFrom::Coalesced => WireStatus::Coalesced,
            ServedFrom::DeadlineExceeded => WireStatus::DeadlineExceeded,
            ServedFrom::PodDown => WireStatus::PodDown,
            ServedFrom::Throttled => WireStatus::Throttled,
            ServedFrom::Rejected => WireStatus::Rejected,
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone)]
pub struct RequestFrame {
    /// Scheduling class.
    pub class: QosClass,
    /// Target model name.
    pub model: String,
    /// Tenant the request bills against (rate limits, per-tenant counters).
    pub tenant: String,
    /// Client id, echoed in the response.
    pub client: u64,
    /// Client-local sequence number, echoed in the response.
    pub seq: u64,
    /// Per-request deadline in microseconds; 0 defers to the class default.
    pub deadline_us: u64,
    /// Input row. After decoding this is a view into the transport's read
    /// segment whenever the payload arrived contiguously.
    pub payload: Payload,
}

/// A decoded response frame.
#[derive(Debug, Clone)]
pub struct ResponseFrame {
    /// Outcome of the request.
    pub status: WireStatus,
    /// Echoed client id.
    pub client: u64,
    /// Echoed sequence number.
    pub seq: u64,
    /// Server-global completion index; `u64::MAX` for refusals synthesized
    /// before admission (throttles and rejects).
    pub completed_index: u64,
    /// Class scores; empty for failures.
    pub payload: Payload,
}

/// Either decoded frame kind.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A client-to-server request.
    Request(RequestFrame),
    /// A server-to-client response.
    Response(ResponseFrame),
}

/// Encodes a request frame to bytes.
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    assert!(frame.model.len() <= u8::MAX as usize, "model name longer than 255 bytes");
    assert!(frame.tenant.len() <= u8::MAX as usize, "tenant name longer than 255 bytes");
    let rows = frame.payload.len();
    let body_len = BODY_FIXED_LEN + frame.model.len() + frame.tenant.len() + rows * 4;
    let mut out = Vec::with_capacity(PRELUDE_LEN + body_len);
    out.extend_from_slice(&[0u8; PRELUDE_LEN]);
    out.push(frame.class.as_wire());
    out.push(frame.model.len() as u8);
    out.push(frame.tenant.len() as u8);
    out.push(0);
    out.extend_from_slice(&frame.client.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.deadline_us.to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(frame.model.as_bytes());
    out.extend_from_slice(frame.tenant.as_bytes());
    for bits in frame.payload.iter_bits() {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    seal_prelude(&mut out, KIND_REQUEST);
    out
}

/// Encodes a response frame to bytes.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let rows = frame.payload.len();
    let body_len = BODY_FIXED_LEN + rows * 4;
    let mut out = Vec::with_capacity(PRELUDE_LEN + body_len);
    out.extend_from_slice(&[0u8; PRELUDE_LEN]);
    out.push(frame.status.as_wire());
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&frame.client.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.completed_index.to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    for bits in frame.payload.iter_bits() {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    seal_prelude(&mut out, KIND_RESPONSE);
    out
}

/// Fills in the prelude of an encoded frame whose body starts at
/// [`PRELUDE_LEN`].
fn seal_prelude(out: &mut [u8], kind: u8) {
    let body_len = out.len() - PRELUDE_LEN;
    let crc = crc32(&out[PRELUDE_LEN..]);
    out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    out[4] = VERSION;
    out[5] = kind;
    out[6..10].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[10..14].copy_from_slice(&crc.to_le_bytes());
}

/// One shared segment of buffered input.
#[derive(Debug, Clone)]
struct Seg {
    data: Arc<[u8]>,
    /// First unconsumed byte within `data`.
    start: usize,
}

impl Seg {
    fn remaining(&self) -> usize {
        self.data.len() - self.start
    }
}

/// A rope of shared byte segments: pushed whole as the transport reads
/// them, consumed from the front by the decoder. Consuming is start-index
/// arithmetic, never a copy; a run of bytes inside one segment can be
/// handed out as a clone of that segment's `Arc`.
#[derive(Debug, Default)]
struct Rope {
    segs: VecDeque<Seg>,
    len: usize,
}

impl Rope {
    fn push(&mut self, data: Arc<[u8]>) {
        if !data.is_empty() {
            self.len += data.len();
            self.segs.push_back(Seg { data, start: 0 });
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Copies the next `buf.len()` bytes without consuming them. Returns
    /// false when fewer are buffered.
    fn peek_into(&self, buf: &mut [u8]) -> bool {
        if self.len < buf.len() {
            return false;
        }
        let mut filled = 0;
        for seg in &self.segs {
            if filled == buf.len() {
                break;
            }
            let take = (buf.len() - filled).min(seg.remaining());
            buf[filled..filled + take].copy_from_slice(&seg.data[seg.start..seg.start + take]);
            filled += take;
        }
        true
    }

    /// Consumes exactly `buf.len()` bytes into `buf`. Panics if fewer are
    /// buffered — callers check [`Rope::len`] first.
    fn copy_exact(&mut self, buf: &mut [u8]) {
        assert!(self.len >= buf.len(), "rope underflow");
        let mut filled = 0;
        while filled < buf.len() {
            let seg = self.segs.front_mut().expect("rope length said bytes remain");
            let take = (buf.len() - filled).min(seg.remaining());
            buf[filled..filled + take].copy_from_slice(&seg.data[seg.start..seg.start + take]);
            seg.start += take;
            filled += take;
            self.len -= take;
            if seg.remaining() == 0 {
                self.segs.pop_front();
            }
        }
    }

    /// Consumes the next `n` bytes as a shared slice: when they sit inside
    /// one segment the segment's `Arc` is cloned (zero-copy, the common
    /// case with chunked reads); a boundary-straddling run is copied once.
    /// Returns `(segment, offset, copied)`.
    fn take_shared(&mut self, n: usize) -> (Arc<[u8]>, usize, bool) {
        assert!(self.len >= n, "rope underflow");
        if n == 0 {
            return (Arc::from(&[] as &[u8]), 0, false);
        }
        let front = self.segs.front_mut().expect("rope length said bytes remain");
        if front.remaining() >= n {
            let data = front.data.clone();
            let start = front.start;
            front.start += n;
            self.len -= n;
            if front.remaining() == 0 {
                self.segs.pop_front();
            }
            return (data, start, false);
        }
        let mut buf = vec![0u8; n];
        self.copy_exact(&mut buf);
        (Arc::from(buf), 0, true)
    }
}

/// Incremental frame decoder over a segment rope.
///
/// Feed transport reads with [`FrameDecoder::push`], drain decoded frames
/// with [`FrameDecoder::next_frame`], and call [`FrameDecoder::finish`] at
/// end of stream to surface a trailing partial frame as
/// [`FrameError::Truncated`]. Any error is terminal: the framing can no
/// longer be trusted, so the caller must drop the connection.
#[derive(Debug)]
pub struct FrameDecoder {
    rope: Rope,
    max_frame_bytes: usize,
    payload_copies: u64,
}

impl FrameDecoder {
    /// A decoder that rejects bodies larger than `max_frame_bytes`.
    pub fn new(max_frame_bytes: usize) -> Self {
        Self { rope: Rope::default(), max_frame_bytes, payload_copies: 0 }
    }

    /// Buffers one read segment. The decoder holds a reference; payloads
    /// decoded out of it share the same allocation.
    pub fn push(&mut self, segment: Arc<[u8]>) {
        self.rope.push(segment);
    }

    /// How many decoded payloads straddled a segment boundary and had to be
    /// copied (the zero-copy miss counter).
    pub fn payload_copies(&self) -> u64 {
        self.payload_copies
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let mut prelude = [0u8; PRELUDE_LEN];
        if !self.rope.peek_into(&mut prelude) {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(prelude[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if prelude[4] != VERSION {
            return Err(FrameError::BadVersion(prelude[4]));
        }
        let kind = prelude[5];
        if kind != KIND_REQUEST && kind != KIND_RESPONSE {
            return Err(FrameError::BadKind(kind));
        }
        let body_len = u32::from_le_bytes(prelude[6..10].try_into().expect("4 bytes")) as usize;
        let body_crc = u32::from_le_bytes(prelude[10..14].try_into().expect("4 bytes"));
        if body_len > self.max_frame_bytes {
            return Err(FrameError::Oversized { declared: body_len, limit: self.max_frame_bytes });
        }
        if body_len < BODY_FIXED_LEN {
            return Err(FrameError::LengthMismatch { declared: body_len, implied: BODY_FIXED_LEN });
        }
        if self.rope.len() < PRELUDE_LEN + body_len {
            return Ok(None);
        }
        // The whole frame is buffered: consume the prelude, then the body.
        let mut skip = [0u8; PRELUDE_LEN];
        self.rope.copy_exact(&mut skip);
        let mut crc = Crc32::new();
        let mut fixed = [0u8; BODY_FIXED_LEN];
        self.rope.copy_exact(&mut fixed);
        crc.update(&fixed);
        match kind {
            KIND_REQUEST => self.decode_request(&fixed, body_len, body_crc, crc).map(Some),
            _ => self.decode_response(&fixed, body_len, body_crc, crc).map(Some),
        }
    }

    fn decode_request(
        &mut self,
        fixed: &[u8; BODY_FIXED_LEN],
        body_len: usize,
        body_crc: u32,
        mut crc: Crc32,
    ) -> Result<Frame, FrameError> {
        let model_len = fixed[1] as usize;
        let tenant_len = fixed[2] as usize;
        let rows = u32::from_le_bytes(fixed[28..32].try_into().expect("4 bytes")) as usize;
        let implied = BODY_FIXED_LEN + model_len + tenant_len + rows * 4;
        if body_len != implied {
            return Err(FrameError::LengthMismatch { declared: body_len, implied });
        }
        let mut names = vec![0u8; model_len + tenant_len];
        self.rope.copy_exact(&mut names);
        crc.update(&names);
        let (seg, start, copied) = self.rope.take_shared(rows * 4);
        crc.update(&seg[start..start + rows * 4]);
        if crc.finish() != body_crc {
            return Err(FrameError::BadChecksum { expected: body_crc, got: crc.finish() });
        }
        // Integrity established; now the semantic checks.
        let class = QosClass::from_wire(fixed[0]).ok_or(FrameError::BadField("class"))?;
        if fixed[3] != 0 {
            return Err(FrameError::BadField("padding"));
        }
        let model = std::str::from_utf8(&names[..model_len])
            .map_err(|_| FrameError::BadField("model name utf-8"))?
            .to_string();
        let tenant = std::str::from_utf8(&names[model_len..])
            .map_err(|_| FrameError::BadField("tenant name utf-8"))?
            .to_string();
        if copied {
            self.payload_copies += 1;
        }
        Ok(Frame::Request(RequestFrame {
            class,
            model,
            tenant,
            client: u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes")),
            seq: u64::from_le_bytes(fixed[12..20].try_into().expect("8 bytes")),
            deadline_us: u64::from_le_bytes(fixed[20..28].try_into().expect("8 bytes")),
            payload: Payload::from_le_bytes_shared(seg, start, rows),
        }))
    }

    fn decode_response(
        &mut self,
        fixed: &[u8; BODY_FIXED_LEN],
        body_len: usize,
        body_crc: u32,
        mut crc: Crc32,
    ) -> Result<Frame, FrameError> {
        let rows = u32::from_le_bytes(fixed[28..32].try_into().expect("4 bytes")) as usize;
        let implied = BODY_FIXED_LEN + rows * 4;
        if body_len != implied {
            return Err(FrameError::LengthMismatch { declared: body_len, implied });
        }
        let (seg, start, copied) = self.rope.take_shared(rows * 4);
        crc.update(&seg[start..start + rows * 4]);
        if crc.finish() != body_crc {
            return Err(FrameError::BadChecksum { expected: body_crc, got: crc.finish() });
        }
        let status = WireStatus::from_wire(fixed[0]).ok_or(FrameError::BadField("status"))?;
        if fixed[1..4] != [0, 0, 0] {
            return Err(FrameError::BadField("padding"));
        }
        if copied {
            self.payload_copies += 1;
        }
        Ok(Frame::Response(ResponseFrame {
            status,
            client: u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes")),
            seq: u64::from_le_bytes(fixed[12..20].try_into().expect("8 bytes")),
            completed_index: u64::from_le_bytes(fixed[20..28].try_into().expect("8 bytes")),
            payload: Payload::from_le_bytes_shared(seg, start, rows),
        }))
    }

    /// Signals end of stream: leftover buffered bytes mean the peer hung up
    /// mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.rope.len() > 0 {
            Err(FrameError::Truncated { buffered: self.rope.len() })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(rows: usize) -> RequestFrame {
        RequestFrame {
            class: QosClass::Interactive,
            model: "butterfly".to_string(),
            tenant: "acme".to_string(),
            client: 7,
            seq: 41,
            deadline_us: 1500,
            payload: (0..rows).map(|i| i as f32 * 0.5 - 1.0).collect::<Vec<f32>>().into(),
        }
    }

    fn decode_all(bytes: &[u8], chunk: usize) -> Result<Vec<Frame>, FrameError> {
        let mut dec = FrameDecoder::new(1 << 20);
        let mut frames = Vec::new();
        for part in bytes.chunks(chunk.max(1)) {
            dec.push(Arc::from(part));
            while let Some(frame) = dec.next_frame()? {
                frames.push(frame);
            }
        }
        dec.finish()?;
        Ok(frames)
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let frame = request(16);
        let bytes = encode_request(&frame);
        for chunk in [1, 3, 7, bytes.len()] {
            let frames = decode_all(&bytes, chunk).expect("well-formed");
            assert_eq!(frames.len(), 1);
            let Frame::Request(got) = &frames[0] else { panic!("expected a request") };
            assert_eq!(got.model, frame.model);
            assert_eq!(got.tenant, frame.tenant);
            assert_eq!(got.client, 7);
            assert_eq!(got.seq, 41);
            assert_eq!(got.deadline_us, 1500);
            assert_eq!(got.class, QosClass::Interactive);
            assert!(got.payload.bit_eq(&frame.payload));
        }
    }

    #[test]
    fn whole_frame_in_one_segment_decodes_payload_zero_copy() {
        let frame = request(32);
        let bytes = encode_request(&frame);
        let mut dec = FrameDecoder::new(1 << 20);
        dec.push(Arc::from(bytes.as_slice()));
        let Frame::Request(got) = dec.next_frame().expect("ok").expect("complete") else {
            panic!("expected a request")
        };
        assert!(got.payload.is_byte_view(), "contiguous payload must be a view");
        assert_eq!(dec.payload_copies(), 0);
        assert!(got.payload.bit_eq(&frame.payload));
    }

    #[test]
    fn split_payload_is_copied_and_counted() {
        let bytes = encode_request(&request(32));
        let mid = bytes.len() - 40;
        let mut dec = FrameDecoder::new(1 << 20);
        dec.push(Arc::from(&bytes[..mid]));
        assert!(dec.next_frame().expect("ok").is_none(), "incomplete frame must wait");
        dec.push(Arc::from(&bytes[mid..]));
        let frame = dec.next_frame().expect("ok").expect("complete");
        assert!(matches!(frame, Frame::Request(_)));
        assert_eq!(dec.payload_copies(), 1);
    }

    #[test]
    fn response_round_trips() {
        let frame = ResponseFrame {
            status: WireStatus::CacheHit,
            client: 3,
            seq: 9,
            completed_index: 77,
            payload: vec![0.25f32, -1.5, f32::NAN].into(),
        };
        let bytes = encode_response(&frame);
        let frames = decode_all(&bytes, 5).expect("well-formed");
        let Frame::Response(got) = &frames[0] else { panic!("expected a response") };
        assert_eq!(got.status, WireStatus::CacheHit);
        assert_eq!(got.completed_index, 77);
        assert!(got.payload.bit_eq(&frame.payload), "NaN payload survives bit-exactly");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_request(&request(4));
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_all(&bytes, 64), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn bad_version_and_kind_are_rejected() {
        let mut bytes = encode_request(&request(4));
        bytes[4] = 9;
        assert_eq!(decode_all(&bytes, 64).unwrap_err(), FrameError::BadVersion(9));
        let mut bytes = encode_request(&request(4));
        bytes[5] = 2;
        // Kind is outside the checksum-protected body, so this is a framing
        // error, not a checksum error.
        assert_eq!(decode_all(&bytes, 64).unwrap_err(), FrameError::BadKind(2));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_buffering() {
        let mut bytes = encode_request(&request(4));
        bytes[6..10].copy_from_slice(&(2u32 << 20).to_le_bytes());
        let mut dec = FrameDecoder::new(1 << 20);
        dec.push(Arc::from(&bytes[..PRELUDE_LEN]));
        // The prelude alone is enough to reject: no body bytes needed.
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn length_field_mismatch_is_rejected() {
        let frame = request(4);
        let mut bytes = encode_request(&frame);
        // Claim one more row than the body carries.
        let rows_at = PRELUDE_LEN + 28;
        bytes[rows_at..rows_at + 4].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode_all(&bytes, 64), Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let mut bytes = encode_request(&request(8));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode_all(&bytes, 64), Err(FrameError::BadChecksum { .. })));
    }

    #[test]
    fn truncated_stream_is_reported_at_finish() {
        let bytes = encode_request(&request(8));
        let mut dec = FrameDecoder::new(1 << 20);
        dec.push(Arc::from(&bytes[..bytes.len() - 3]));
        assert!(dec.next_frame().expect("ok").is_none());
        assert!(matches!(dec.finish(), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut bytes = encode_request(&request(4));
        let mut second = request(6);
        second.seq = 42;
        bytes.extend_from_slice(&encode_request(&second));
        let frames = decode_all(&bytes, 9).expect("well-formed");
        assert_eq!(frames.len(), 2);
        let seqs: Vec<u64> = frames
            .iter()
            .map(|f| match f {
                Frame::Request(r) => r.seq,
                Frame::Response(r) => r.seq,
            })
            .collect();
        assert_eq!(seqs, vec![41, 42]);
    }

    #[test]
    fn crc_matches_reference_vector() {
        // "123456789" is the canonical CRC32-IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
