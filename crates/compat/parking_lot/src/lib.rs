//! Offline stand-in for the `parking_lot` crate.
//!
//! Implements the subset of the `parking_lot` API this workspace uses
//! (`Mutex`, `RwLock`, `Condvar` with non-poisoning guards returned straight
//! from `lock()`/`read()`/`write()`) on top of `std::sync`.  Poisoned locks
//! are transparently recovered, matching `parking_lot`'s behaviour of not
//! having poisoning at all, and a `Condvar` notify with nobody waiting
//! returns without a system call, as `parking_lot`'s does.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, TryLockError};
use std::time::Duration;

/// A mutual exclusion primitive (non-poisoning facade over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed, the borrow is exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so that `Condvar::wait_for` can temporarily take the std
    // guard by value (std's wait API consumes and returns it).
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock (non-poisoning facade over `std::sync::RwLock`).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable usable with [`Mutex`]/[`MutexGuard`].
///
/// Like the real `parking_lot` and unlike `std::sync::Condvar`, a notify
/// that finds nobody waiting costs one atomic load and no system call.
/// The condvar counts the threads inside [`Condvar::wait`] and
/// [`Condvar::wait_for`]: a waiter raises the count while it still holds
/// the mutex, before std's wait releases it, and lowers it once the wait
/// has returned.  So a notifier that changed the waited-for condition under
/// that mutex — and notifies under it or after unlocking — either sees the
/// raised count or changed the condition before the waiter looked at it,
/// and the waiter then never waits.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
    waiters: AtomicUsize,
    /// Notifies passed on to `inner`, so tests can tell that an empty
    /// notify stopped at the count.
    #[cfg(test)]
    forwarded: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
            #[cfg(test)]
            forwarded: AtomicUsize::new(0),
        }
    }

    /// `true` if a thread is waiting; counts the notify it lets through.
    fn has_waiters(&self) -> bool {
        let waiting = self.waiters.load(Ordering::SeqCst) > 0;
        #[cfg(test)]
        self.forwarded
            .fetch_add(waiting as usize, Ordering::Relaxed);
        waiting
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if self.has_waiters() {
            self.inner.notify_all();
        }
    }

    /// Blocks on the condition variable until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present before wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Blocks until notified or until `timeout` elapses; returns whether the
    /// wait timed out.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present before wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Returns `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn condvar_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = m.lock();
        let start = Instant::now();
        let result = cv.wait_for(&mut guard, Duration::from_millis(20));
        assert!(result.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn a_notify_with_nobody_waiting_stops_at_the_count() {
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.forwarded.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_waiter_that_timed_out_leaves_no_count_behind() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = m.lock();
        assert!(cv
            .wait_for(&mut guard, Duration::from_millis(1))
            .timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        drop(guard);
        cv.notify_all();
        assert_eq!(cv.forwarded.load(Ordering::Relaxed), 0);
    }

    /// Two threads hand a counter back and forth through one condvar: each
    /// waits for its parity, bumps the counter and notifies.  A notify that
    /// skipped a waiter it should have woken would leave both threads
    /// waiting, and the 10 s wait of one of them would time out.
    fn ping_pong(notify_under_lock: bool) {
        const HANDS: u64 = 100_000;
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let player = |parity: u64| {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                loop {
                    let mut turn = m.lock();
                    while *turn < HANDS && *turn % 2 != parity {
                        let waited = cv.wait_for(&mut turn, Duration::from_secs(10));
                        assert!(!waited.timed_out(), "a wake-up was lost at {}", *turn);
                    }
                    if *turn >= HANDS {
                        return;
                    }
                    *turn += 1;
                    if notify_under_lock {
                        cv.notify_all();
                    } else {
                        drop(turn);
                        cv.notify_all();
                    }
                }
            })
        };
        let (even, odd) = (player(0), player(1));
        even.join().unwrap();
        odd.join().unwrap();
        let (m, cv) = &*pair;
        assert_eq!(*m.lock(), HANDS);
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_hand_off_notified_under_the_lock_loses_no_wake_up() {
        ping_pong(true);
    }

    #[test]
    fn a_hand_off_notified_after_unlocking_loses_no_wake_up() {
        ping_pong(false);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut guard = m.lock();
        while !*guard {
            let result = cv.wait_for(&mut guard, Duration::from_secs(5));
            assert!(!result.timed_out() || *guard);
        }
    }
}
