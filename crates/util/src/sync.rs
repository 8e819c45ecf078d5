//! Thin no-poison wrappers over `std::sync` locks (replace `parking_lot`).
//!
//! The call sites were written against `parking_lot`'s API, where `lock()`
//! returns the guard directly.  Lock poisoning is useless here: every lock
//! in the workspace protects plain data (counters, buffers, registries)
//! whose invariants hold between operations, and a rank-thread panic is
//! already propagated by `Universe::launch` — so a poisoned lock would only
//! turn one diagnosable panic into a cascade of opaque ones.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::PoisonError;

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutex whose `lock` never fails (poison is stripped).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A readers–writer lock whose accessors never fail (poison is stripped).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An epoch-counting condition variable: the blocking seam of the M:N rank
/// executor, and the one place its scheduler touches the wall clock (this
/// crate is outside the simulator's no-wall-clock lint scope by design).
///
/// Waiters snapshot [`epoch`](Notifier::epoch), re-check their predicate
/// (queues, shutdown flags), then sleep in
/// [`wait_while_epoch`](Notifier::wait_while_epoch) — the epoch read
/// *before* the predicate check makes the classic lost-wakeup race benign:
/// a notification between check and sleep advances the epoch, so the wait
/// returns immediately.
///
/// Only sleepers are woken: the epoch is an atomic and `waiters` counts
/// threads inside a wait, so [`notify`](Notifier::notify) is one
/// `fetch_add` unless someone sleeps.  Both sides use `SeqCst` — a waiter
/// counts itself, then re-reads the epoch; a notifier bumps the epoch, then
/// reads the count — so in the single total order either the notifier sees
/// the waiter or the waiter sees the new epoch.  A notifier that sees a
/// waiter takes the mutex before `notify_all`, and the waiter re-checks the
/// epoch under that mutex, so the wake cannot fall between its check and
/// its sleep.
#[derive(Debug, Default)]
pub struct Notifier {
    epoch: AtomicU64,
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Notifier {
    /// A notifier at epoch 0.
    pub fn new() -> Notifier {
        Notifier::default()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advance the epoch and wake every waiter.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }

    /// Block until the epoch differs from `seen`.
    pub fn wait_while_epoch(&self, seen: u64) {
        self.wait(seen, None);
    }

    /// Block until the epoch differs from `seen` or `timeout` elapses.
    /// Returns `true` when the epoch advanced, `false` on timeout.
    pub fn wait_timeout_epoch(&self, seen: u64, timeout: std::time::Duration) -> bool {
        self.wait(seen, Some(timeout))
    }

    fn wait(&self, seen: u64, timeout: Option<std::time::Duration>) -> bool {
        if self.epoch() != seen {
            return true;
        }
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let advanced = loop {
            if self.epoch() != seen {
                break true;
            }
            guard = match deadline {
                None => self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.cv
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        advanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // parking_lot semantics: no Err, no panic
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn notifier_epoch_read_before_check_prevents_lost_wakeup() {
        let n = Arc::new(Notifier::new());
        let n2 = Arc::clone(&n);
        let seen = n.epoch();
        // Notify *before* the wait starts: the stale epoch makes the wait
        // return immediately instead of sleeping forever.
        n2.notify();
        n.wait_while_epoch(seen);
        assert_eq!(n.epoch(), seen + 1);
    }

    #[test]
    fn notifier_wakes_a_sleeping_waiter() {
        let n = Arc::new(Notifier::new());
        let n2 = Arc::clone(&n);
        let seen = n.epoch();
        let waiter = std::thread::spawn(move || n2.wait_while_epoch(seen));
        std::thread::sleep(std::time::Duration::from_millis(10));
        n.notify();
        waiter.join().unwrap_or_else(|_| panic!("waiter panicked"));
    }

    #[test]
    fn notifier_timeout_reports_no_progress() {
        let n = Notifier::new();
        let seen = n.epoch();
        assert!(!n.wait_timeout_epoch(seen, std::time::Duration::from_millis(5)));
        n.notify();
        assert!(n.wait_timeout_epoch(seen, std::time::Duration::from_millis(5)));
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() = 6;
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn notifier_stress_loses_no_wakeup() {
        // A token ring: thread i may only advance `turn` when it reads a
        // multiple of THREADS plus i, so every step needs one wake of a
        // (usually) sleeping peer.  A lost wakeup would leave the ring
        // stuck until a wait's bound, which the assert rejects.
        const THREADS: usize = 4;
        const ROUNDS: usize = 500;
        let n = Arc::new(Notifier::new());
        let turn = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|i| {
                let (n, turn) = (Arc::clone(&n), Arc::clone(&turn));
                std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        loop {
                            let seen = n.epoch();
                            if turn.load(Ordering::SeqCst) == r * THREADS + i {
                                break;
                            }
                            let bound = std::time::Duration::from_secs(30);
                            assert!(n.wait_timeout_epoch(seen, bound), "lost wakeup");
                        }
                        turn.fetch_add(1, Ordering::SeqCst);
                        n.notify();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap_or_else(|_| panic!("ring thread panicked"));
        }
        assert_eq!(turn.load(Ordering::SeqCst), THREADS * ROUNDS);
        assert_eq!(n.waiters.load(Ordering::SeqCst), 0);
    }
}
