//! A minimal blocking client for the framed-ingress protocol.
//!
//! Speaks exactly the codec in [`super::codec`] over any
//! [`Connection`] — in-memory pipes in tests and benches, TCP in
//! deployments. One instance is single-threaded by design: requests go out
//! on [`IngressClient::send`], responses come back in request arrival
//! order on [`IngressClient::recv_timeout`].

use super::codec::{encode_request, Frame, FrameDecoder, FrameError, RequestFrame, ResponseFrame};
use super::transport::{Connection, FrameRead, FrameWrite, PipeConnector, ReadEvent};
use std::io;
use std::time::{Duration, Instant};

/// Read granularity for byte-stream transports.
const READ_CHUNK: usize = 64 << 10;

/// A blocking protocol client over one connection.
pub struct IngressClient {
    writer: Option<Box<dyn FrameWrite>>,
    reader: Box<dyn FrameRead>,
    decoder: FrameDecoder,
    eof: bool,
}

impl IngressClient {
    /// Wraps an established connection.
    pub fn new(conn: Connection) -> Self {
        Self {
            writer: Some(conn.writer),
            reader: conn.reader,
            decoder: FrameDecoder::new(1 << 24),
            eof: false,
        }
    }

    /// Connects through an in-memory [`PipeConnector`].
    pub fn connect(connector: &PipeConnector, peer: &str) -> io::Result<Self> {
        Ok(Self::new(connector.connect(peer)?))
    }

    /// Connects over TCP.
    pub fn connect_tcp<A: std::net::ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self::new(super::transport::tcp_connect(addr)?))
    }

    /// Encodes and sends one request frame.
    pub fn send(&mut self, frame: &RequestFrame) -> io::Result<()> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "send half closed"))?;
        writer.write_all_bytes(&encode_request(frame))
    }

    /// Closes the sending half, signalling EOF to the server's reader (the
    /// server still answers everything already submitted).
    pub fn close_send(&mut self) {
        self.writer = None;
    }

    /// Receives the next response, waiting up to `timeout`. `Ok(None)`
    /// means the timeout passed or the server closed with no frame
    /// pending; a malformed frame surfaces as [`io::ErrorKind::InvalidData`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<ResponseFrame>> {
        // No representable instant (a `Duration::MAX` timeout) means no bound.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Response(response))) => return Ok(Some(response)),
                Ok(Some(Frame::Request(_))) => {
                    return Err(bad_frame(FrameError::BadKind(0)));
                }
                Ok(None) => {}
                Err(e) => return Err(bad_frame(e)),
            }
            if self.eof {
                return match self.decoder.finish() {
                    Ok(()) => Ok(None),
                    Err(e) => Err(bad_frame(e)),
                };
            }
            let wait = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    deadline - now
                }
                None => timeout,
            };
            match self.reader.read_segment_timeout(READ_CHUNK, wait)? {
                ReadEvent::Data(segment) => self.decoder.push(segment),
                ReadEvent::TimedOut => return Ok(None),
                ReadEvent::Eof => self.eof = true,
            }
        }
    }
}

fn bad_frame(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
