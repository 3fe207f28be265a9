//! MPMC channels with crossbeam's API shape.
//!
//! Semantics implemented: FIFO per channel, `Clone`-able senders and
//! receivers, disconnection when the last peer on the other side drops,
//! blocking `send`/`recv`, non-blocking `try_send`/`try_recv`, and timed
//! `recv_timeout`. A bounded channel of capacity 0 is not supported
//! (rendezvous channels are not used in this workspace).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Inner<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error on [`Sender::send`]: all receivers dropped; the value comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error on [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// All receivers dropped.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recovers the unsent value.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    /// True for the [`TrySendError::Full`] case.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

/// Error on [`Receiver::recv`]: channel empty and all senders dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error on [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Error on [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded MPMC channel with capacity `cap > 0`.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "this channel shim does not support rendezvous (capacity 0) channels");
    with_capacity(Some(cap))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner { queue: VecDeque::new(), cap, senders: 1, receivers: 1 }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Blocking send; fails only when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
            if !full {
                inner.queue.push_back(value);
                drop(inner);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking send.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.lock();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
            return Err(TrySendError::Full(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            inner.senders
        };
        if remaining == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive; fails only when the channel is empty and every
    /// sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.shared.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.lock();
        if let Some(v) = inner.queue.pop_front() {
            drop(inner);
            self.shared.not_full.notify_one();
            return Ok(v);
        }
        if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receive with a timeout. A timeout too long for an `Instant` (such as
    /// `Duration::MAX`) waits without bound, as `recv` does.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.recv_deadline(deadline),
            None => self.recv().map_err(|RecvError| RecvTimeoutError::Disconnected),
        }
    }

    /// Receive with an absolute deadline.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timeout_res) = self
                .shared
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator draining the channel until disconnection.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            inner.receivers
        };
        if remaining == 0 {
            self.shared.not_full.notify_all();
        }
    }
}

/// Blocking iterator over received messages (see [`Receiver::iter`]).
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).expect("receiver alive");
        }
        for i in 0..10 {
            assert_eq!(rx.recv().expect("sender alive"), i);
        }
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).expect("slot");
        tx.try_send(2).expect("slot");
        let err = tx.try_send(3).expect_err("full");
        assert!(err.is_full());
        assert_eq!(rx.recv().expect("msg"), 1);
        tx.try_send(3).expect("slot again");
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(9).expect("receiver alive");
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        // A timeout past every representable instant means no bound.
        tx.send(3).expect("receiver alive");
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(3));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::MAX), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn blocking_send_waits_for_capacity() {
        let (tx, rx) = bounded(1);
        tx.send(1).expect("slot");
        let t = thread::spawn(move || tx.send(2).expect("capacity appears"));
        thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        t.join().expect("sender finishes");
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(p * 1000 + i).expect("receivers alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().expect("producer ok");
        }
        let mut all: Vec<u64> =
            consumers.into_iter().flat_map(|c| c.join().expect("consumer ok")).collect();
        all.sort_unstable();
        let mut expect: Vec<u64> =
            (0..4).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
