//! Reusable scratch buffers for allocation-free hot paths.
//!
//! The fused butterfly kernels need a transform-width working row per row
//! block, and the serving workers call them thousands of times per second.
//! Allocating those intermediates per call puts the allocator on the hot
//! path; [`Scratch`] instead pools the buffers so a steady-state forward
//! allocates nothing beyond its output matrix. Each worker (or training
//! layer) owns its own `Scratch`, which is what lets the inference path take
//! `&self` on the model: all mutable state lives in the caller.

/// A pool of reusable `f32` buffers.
///
/// [`take`](Scratch::take) hands out a buffer of the requested length
/// (recycling a previously [`put`](Scratch::put) one when available) and
/// [`put`](Scratch::put) returns it for reuse. Buffer contents after `take` are
/// unspecified — callers must write before reading.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
}

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer of exactly `len` elements with unspecified contents.
    ///
    /// Reuses the most recently returned buffer when one exists (resizing it
    /// in place, which keeps its capacity across calls of varying length);
    /// otherwise allocates. Pair with [`put`](Scratch::put) to recycle.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer taken with [`take`](Scratch::take) to the pool.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_requested_length() {
        let mut s = Scratch::new();
        assert_eq!(s.take(17).len(), 17);
        assert_eq!(s.take(0).len(), 0);
    }

    #[test]
    fn put_then_take_reuses_the_buffer() {
        let mut s = Scratch::new();
        let buf = s.take(64);
        let ptr = buf.as_ptr();
        s.put(buf);
        let again = s.take(32);
        assert_eq!(again.len(), 32);
        assert_eq!(again.as_ptr(), ptr, "shrinking take should reuse the same allocation");
    }

    #[test]
    fn growing_take_keeps_working() {
        let mut s = Scratch::new();
        s.put(vec![1.0; 8]);
        let big = s.take(1024);
        assert_eq!(big.len(), 1024);
    }
}
