//! Byte-stream transports behind one pair of traits.
//!
//! The decoder wants *shared segments* ([`Arc<[u8]>`]), not `&mut [u8]`
//! reads: a segment is pushed into the frame rope whole, and every payload
//! decoded out of it references the same allocation. Two implementations:
//!
//! - in-memory duplex pipes over crossbeam channels — what the tests and
//!   benches use, so the whole ingress stack runs without sockets;
//! - `std::net::TcpStream` / `TcpListener` — the real front door, with
//!   non-blocking accept and read timeouts so shutdown polling works.
//!
//! All reads are *timed*: a transport must report [`ReadEvent::TimedOut`]
//! periodically rather than block forever, because reader threads poll a
//! stop flag between reads.

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one timed read.
#[derive(Debug)]
pub enum ReadEvent {
    /// A fresh shared segment of bytes.
    Data(Arc<[u8]>),
    /// Nothing arrived within the timeout; poll your stop flag and retry.
    TimedOut,
    /// The peer closed its sending half; no more data will ever arrive.
    Eof,
}

/// The receiving half of a connection.
pub trait FrameRead: Send {
    /// Reads up to `max_bytes` into one shared segment, waiting at most
    /// `timeout`.
    fn read_segment_timeout(
        &mut self,
        max_bytes: usize,
        timeout: Duration,
    ) -> io::Result<ReadEvent>;
}

/// The sending half of a connection.
pub trait FrameWrite: Send {
    /// Writes the whole buffer (encoded frames are written atomically by
    /// the single writer thread that owns this half).
    fn write_all_bytes(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// A server-side accepted connection, split into its two halves plus a
/// peer label for logs and metrics.
pub struct Connection {
    /// Receiving half, owned by the connection's reader thread.
    pub reader: Box<dyn FrameRead>,
    /// Sending half, owned by the connection's writer thread.
    pub writer: Box<dyn FrameWrite>,
    /// Human-readable peer description.
    pub peer: String,
}

/// Outcome of one accept poll.
pub enum AcceptEvent {
    /// A client connected.
    Conn(Connection),
    /// No connection within the timeout.
    TimedOut,
    /// The listener can never produce another connection.
    Closed,
}

/// An accept source the demux loop polls.
pub trait IngressListener: Send {
    /// Waits up to `timeout` for the next connection.
    fn poll_accept(&mut self, timeout: Duration) -> io::Result<AcceptEvent>;
}

// ---------------------------------------------------------------------------
// In-memory duplex pipes
// ---------------------------------------------------------------------------

/// Receiving half of an in-memory pipe.
pub struct PipeReader {
    rx: Receiver<Arc<[u8]>>,
}

/// Sending half of an in-memory pipe. Dropping it delivers EOF to the
/// reader once buffered segments drain.
pub struct PipeWriter {
    tx: Sender<Arc<[u8]>>,
}

/// An unbounded in-memory byte pipe: segments written come out as the same
/// shared segments (writes are never re-chunked, so a whole frame written
/// in one call arrives as one segment and decodes zero-copy).
pub fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = channel::unbounded();
    (PipeWriter { tx }, PipeReader { rx })
}

/// Two pipes crossed into a duplex link: `(client, server)` connections.
pub fn duplex_pair(peer: &str) -> (Connection, Connection) {
    let (client_tx, server_rx) = pipe();
    let (server_tx, client_rx) = pipe();
    let client = Connection {
        reader: Box::new(client_rx),
        writer: Box::new(client_tx),
        peer: format!("{peer}:server"),
    };
    let server = Connection {
        reader: Box::new(server_rx),
        writer: Box::new(server_tx),
        peer: peer.to_string(),
    };
    (client, server)
}

impl FrameRead for PipeReader {
    fn read_segment_timeout(
        &mut self,
        _max_bytes: usize,
        timeout: Duration,
    ) -> io::Result<ReadEvent> {
        // Segments arrive exactly as written; `max_bytes` chunking is a
        // byte-stream concern the pipe never has.
        match self.rx.recv_timeout(timeout) {
            Ok(seg) => Ok(ReadEvent::Data(seg)),
            Err(RecvTimeoutError::Timeout) => Ok(ReadEvent::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Ok(ReadEvent::Eof),
        }
    }
}

impl FrameWrite for PipeWriter {
    fn write_all_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.tx
            .send(Arc::from(bytes))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader dropped"))
    }
}

/// The accept side of an in-memory listener.
pub struct PipeListener {
    rx: Receiver<Connection>,
}

/// The connect side of an in-memory listener: clonable, hand one to each
/// client thread.
#[derive(Clone)]
pub struct PipeConnector {
    tx: Sender<Connection>,
}

/// An in-memory listener plus its connector.
pub fn pipe_listener() -> (PipeListener, PipeConnector) {
    let (tx, rx) = channel::unbounded();
    (PipeListener { rx }, PipeConnector { tx })
}

impl PipeConnector {
    /// Establishes a duplex link, handing the server half to the listener.
    /// Errors after the listener is dropped.
    pub fn connect(&self, peer: &str) -> io::Result<Connection> {
        let (client, server) = duplex_pair(peer);
        self.tx
            .send(server)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "listener dropped"))?;
        Ok(client)
    }
}

impl IngressListener for PipeListener {
    fn poll_accept(&mut self, timeout: Duration) -> io::Result<AcceptEvent> {
        match self.rx.recv_timeout(timeout) {
            Ok(conn) => Ok(AcceptEvent::Conn(conn)),
            Err(RecvTimeoutError::Timeout) => Ok(AcceptEvent::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Ok(AcceptEvent::Closed),
        }
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Receiving half of a TCP connection.
pub struct TcpFrameRead {
    stream: TcpStream,
}

/// Sending half of a TCP connection. Dropping it shuts down the write
/// direction so the peer's decoder sees EOF.
pub struct TcpFrameWrite {
    stream: TcpStream,
}

impl FrameRead for TcpFrameRead {
    fn read_segment_timeout(
        &mut self,
        max_bytes: usize,
        timeout: Duration,
    ) -> io::Result<ReadEvent> {
        self.stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut buf = vec![0u8; max_bytes.max(1)];
        match self.stream.read(&mut buf) {
            Ok(0) => Ok(ReadEvent::Eof),
            Ok(n) => {
                buf.truncate(n);
                Ok(ReadEvent::Data(Arc::from(buf)))
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(ReadEvent::TimedOut)
            }
            Err(e) => Err(e),
        }
    }
}

impl FrameWrite for TcpFrameWrite {
    fn write_all_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }
}

impl Drop for TcpFrameWrite {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Splits a connected TCP stream into the transport halves (used by both
/// the listener below and TCP clients).
pub fn tcp_split(stream: TcpStream, peer: &str) -> io::Result<Connection> {
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    Ok(Connection {
        reader: Box::new(TcpFrameRead { stream }),
        writer: Box::new(TcpFrameWrite { stream: write_half }),
        peer: peer.to_string(),
    })
}

/// Connects to a TCP ingress endpoint and returns the client-side halves.
pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp".to_string());
    tcp_split(stream, &peer)
}

/// TCP accept source: a non-blocking [`TcpListener`] polled with short
/// sleeps so the demux loop can observe its stop flag.
pub struct TcpIngressListener {
    listener: TcpListener,
}

impl TcpIngressListener {
    /// Binds the listener. Pass port 0 to let the OS pick (see
    /// [`TcpIngressListener::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl IngressListener for TcpIngressListener {
    fn poll_accept(&mut self, timeout: Duration) -> io::Result<AcceptEvent> {
        // No representable instant (a `Duration::MAX` timeout) means no bound.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            match self.listener.accept() {
                Ok((stream, addr)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(AcceptEvent::Conn(tcp_split(stream, &addr.to_string())?));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let mut nap = Duration::from_millis(5);
                    if let Some(deadline) = deadline {
                        let now = Instant::now();
                        if now >= deadline {
                            return Ok(AcceptEvent::TimedOut);
                        }
                        nap = nap.min(deadline - now);
                    }
                    std::thread::sleep(nap);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_preserves_segments_and_delivers_eof() {
        let (mut writer, mut reader) = pipe();
        writer.write_all_bytes(&[1, 2, 3]).expect("reader alive");
        writer.write_all_bytes(&[4]).expect("reader alive");
        drop(writer);
        let one = Duration::from_millis(100);
        match reader.read_segment_timeout(64, one).expect("io") {
            ReadEvent::Data(seg) => assert_eq!(&seg[..], &[1, 2, 3]),
            other => panic!("expected data, got {other:?}"),
        }
        match reader.read_segment_timeout(64, one).expect("io") {
            ReadEvent::Data(seg) => assert_eq!(&seg[..], &[4]),
            other => panic!("expected data, got {other:?}"),
        }
        assert!(matches!(reader.read_segment_timeout(64, one).expect("io"), ReadEvent::Eof));
    }

    #[test]
    fn pipe_read_times_out_when_idle() {
        let (_writer, mut reader) = pipe();
        let event = reader.read_segment_timeout(64, Duration::from_millis(10)).expect("io");
        assert!(matches!(event, ReadEvent::TimedOut));
    }

    #[test]
    fn pipe_listener_hands_over_connections() {
        let (mut listener, connector) = pipe_listener();
        let mut client = connector.connect("t0").expect("listener alive");
        let AcceptEvent::Conn(mut server) =
            listener.poll_accept(Duration::from_millis(100)).expect("io")
        else {
            panic!("expected a connection");
        };
        client.writer.write_all_bytes(b"ping").expect("server alive");
        match server.reader.read_segment_timeout(64, Duration::from_millis(100)).expect("io") {
            ReadEvent::Data(seg) => assert_eq!(&seg[..], b"ping"),
            other => panic!("expected data, got {other:?}"),
        }
        server.writer.write_all_bytes(b"pong").expect("client alive");
        match client.reader.read_segment_timeout(64, Duration::from_millis(100)).expect("io") {
            ReadEvent::Data(seg) => assert_eq!(&seg[..], b"pong"),
            other => panic!("expected data, got {other:?}"),
        }
        drop(connector);
        assert!(matches!(
            listener.poll_accept(Duration::from_millis(10)).expect("io"),
            AcceptEvent::Closed
        ));
    }

    #[test]
    fn tcp_round_trips_bytes() {
        let mut listener = TcpIngressListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut conn = tcp_connect(addr).expect("connect");
            conn.writer.write_all_bytes(b"hello over tcp").expect("write");
            match conn.reader.read_segment_timeout(64, Duration::from_secs(2)).expect("io") {
                ReadEvent::Data(seg) => assert_eq!(&seg[..], b"ack"),
                other => panic!("expected data, got {other:?}"),
            }
        });
        let AcceptEvent::Conn(mut server) =
            listener.poll_accept(Duration::from_secs(2)).expect("io")
        else {
            panic!("expected a connection");
        };
        let mut got = Vec::new();
        while got.len() < 14 {
            match server.reader.read_segment_timeout(64, Duration::from_secs(2)).expect("io") {
                ReadEvent::Data(seg) => got.extend_from_slice(&seg),
                ReadEvent::TimedOut => continue,
                ReadEvent::Eof => break,
            }
        }
        assert_eq!(&got[..], b"hello over tcp");
        server.writer.write_all_bytes(b"ack").expect("write");
        client.join().expect("client thread");
    }
}
