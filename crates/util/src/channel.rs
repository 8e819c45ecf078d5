//! Unbounded MPMC channel on `std::sync::{Mutex, Condvar}` (replaces
//! `crossbeam::channel`).
//!
//! One mutex-protected `VecDeque` plus a condvar is plenty for the mpisim
//! wiring: each rank owns one receiver and the send side fans in from all
//! other ranks.  Senders and receivers are reference-counted so that the
//! usual disconnection semantics hold — a receive on an empty channel with
//! no senders left reports `Disconnected` instead of blocking forever, and
//! a send with no receivers left returns the value.
//!
//! Only sleepers are woken: `State::waiting` counts receivers blocked in
//! the condvar, and a send notifies only when it is non-zero.  The count
//! is read and written under the queue mutex, so a receiver that found the
//! queue empty is either counted before the send looks or sees the value.
//! std's futex condvar issues a wake syscall on every notify, waiter or
//! not; under the M:N executor nobody ever waits here.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the undelivered value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with no message available.
    Timeout,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message currently queued.
    Empty,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers asleep in `readable` (see the module docs).
    waiting: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    readable: Condvar,
}

impl<T> Inner<T> {
    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep on `readable` as a counted waiter, until notified or
    /// `timeout` (if any) elapses; returns the re-acquired guard.
    fn sleep<'a>(
        &self,
        mut st: MutexGuard<'a, State<T>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, State<T>> {
        st.waiting += 1;
        let mut st = match timeout {
            None => self.readable.wait(st).unwrap_or_else(PoisonError::into_inner),
            Some(t) => self.readable.wait_timeout(st, t).unwrap_or_else(PoisonError::into_inner).0,
        };
        st.waiting -= 1;
        st
    }
}

/// The sending half; cheap to clone, usable from many threads.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half; cloning shares the same queue (MPMC).
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1, waiting: 0 }),
        readable: Condvar::new(),
    });
    (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks.  Fails only when every receiver has
    /// been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.state();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        let sleepers = st.waiting;
        drop(st);
        if sleepers > 0 {
            self.inner.readable.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state().senders += 1;
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.state();
        st.senders -= 1;
        if st.senders == 0 && st.waiting > 0 {
            drop(st);
            // Wake every blocked receiver so it can observe disconnection.
            self.inner.readable.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.inner.state();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.inner.sleep(st, None);
        }
    }

    /// Blocking receive with a wall-clock bound.  A queued value is taken
    /// without reading the clock.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let mut st = self.inner.state();
        let mut due = None;
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let deadline = *due.get_or_insert(now + timeout);
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            // Re-check on spurious wakeups; the loop re-evaluates the deadline.
            st = self.inner.sleep(st, Some(deadline - now));
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.inner.state();
        if let Some(v) = st.queue.pop_front() {
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of messages currently queued (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        self.inner.state().queue.len()
    }

    /// True when no message is queued (diagnostic; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.state().receivers += 1;
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.state().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_sender() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_recv_reports_empty_then_value() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7u8).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
    }

    #[test]
    fn timeout_fires_without_traffic() {
        let (_tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn disconnect_unblocks_receiver() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn queued_values_survive_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_with_no_receiver() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
    }

    /// Sleep until `rx` has a counted waiter (the send-side fast path
    /// would skip the notify otherwise, so the tests below must reach it).
    fn until_asleep<T>(rx: &Receiver<T>) {
        while rx.inner.state().waiting == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn send_wakes_a_receiver_blocked_in_recv() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        // The result comes back over std's channel so a lost wakeup fails
        // the test within the bound instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(rx2.recv()));
        until_asleep(&rx);
        tx.send(9).unwrap();
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(30)), Ok(Ok(9)));
        assert_eq!(rx.inner.state().waiting, 0);
    }

    #[test]
    fn send_wakes_a_receiver_blocked_in_recv_timeout() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        let h = std::thread::spawn(move || rx2.recv_timeout(Duration::from_secs(60)));
        until_asleep(&rx);
        let start = Instant::now();
        tx.send(4).unwrap();
        assert_eq!(h.join().unwrap(), Ok(4));
        assert!(start.elapsed() < Duration::from_secs(30), "woken by the send, not the timeout");
    }

    #[test]
    fn many_producers_against_a_sleeping_receiver() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 2_000;
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        tx.send(p * PER + i).unwrap();
                        if i % 64 == 0 {
                            // Let the receiver drain and fall asleep again.
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();
        let mut seen = vec![false; (PRODUCERS * PER) as usize];
        let bound = Duration::from_secs(20);
        let start = Instant::now();
        for _ in 0..PRODUCERS * PER {
            let v = rx.recv_timeout(bound).unwrap();
            assert!(!std::mem::replace(&mut seen[v as usize], true), "duplicate {v}");
        }
        // A lost wakeup leaves the receiver asleep for a whole bound even
        // though values are queued; the stream itself takes milliseconds.
        assert!(start.elapsed() < bound, "a send failed to wake the receiver");
        for p in producers {
            p.join().unwrap();
        }
        // The senders are still alive: with no traffic the timeout fires.
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(20));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
