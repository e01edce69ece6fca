//! MONITOR/MWAIT-style wake-up words.
//!
//! The paper's servers poll their queues while busy and, when idle, sleep on
//! a *monitored memory location* using the `MONITOR`/`MWAIT` instruction
//! pair.  Producers wake a sleeping consumer simply by writing to that
//! location — no kernel IPC, no interrupt, on the fast path.
//!
//! [`WakeWord`] reproduces that contract in portable Rust: a shared atomic
//! word that producers bump ([`WakeWord::write`]) and consumers sleep on
//! ([`WakeWord::mwait`]).  The poll-then-sleep policy the paper describes
//! ("this fact encourages more aggressive polling to avoid halting the core
//! if the gap between requests is short") is implemented by
//! [`IdleMonitor`].
//!
//! # Where the word is used
//!
//! Every SPSC queue writes a wake word on enqueue ([`crate::spsc`]); a queue
//! made with [`crate::spsc::channel_waking`] writes a word its *consumer*
//! owns, so all inbound queues of one server hit the same word.  The stack
//! gives each service (one row of its placement table, i.e. one core) one
//! such word that outlives the service's incarnations.  Everything that can
//! bring the service work writes it — its fabric lanes, its socket-buffer
//! doorbell, its submission rings, the kernel-IPC mailbox it polls, the link
//! its NIC hangs off, the crash notice board and the reincarnation server's
//! control flags — and the service loop is
//!
//! ```text
//! seen = word.value(); work = poll(); if work == 0 { word.mwait(seen, next deadline) }
//! ```
//!
//! Reading the word *before* polling is what makes the park safe: a write
//! that lands after the read makes `mwait` return at once.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Statistics kept by a [`WakeWord`], useful for evaluating how often the
/// "core" actually had to be halted versus how often polling absorbed the
/// wake-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Number of writes to the monitored word (its current value: every
    /// write bumps it by one).
    pub writes: u64,
    /// Number of times a sleeping waiter had to be woken through the slow
    /// (condvar) path.
    pub slow_wakeups: u64,
    /// Number of times a waiter went to sleep (halted its core).
    pub sleeps: u64,
    /// Number of times the waiter observed new work while still polling and
    /// never slept.
    pub polled_hits: u64,
}

/// Spin iterations [`WakeWord::mwait`] polls the word for before it halts.
const SPIN_ROUNDS: u32 = 64;

/// How late a host wakes a timed sleeper, near enough: the timer slack of a
/// stock Linux thread.  A wait no longer than this is polled out, a longer
/// one sleeps until this much of it is left.
pub const SLEEP_GRANULARITY: Duration = Duration::from_micros(50);

/// The longest an event loop with no nearer deadline parks before it looks
/// at its sources again.  Every source of work writes the word, so this is
/// not what bounds wake-up latency; it bounds what a source that forgot to
/// would cost.
pub const MAX_PARK: Duration = Duration::from_millis(100);

/// A monitored memory word shared between one or more producers and the
/// consumers that park on it: a service's one event loop, or every thread
/// of an application waiting on its completion queue.  A write wakes every
/// parked consumer; each checks for its own work and parks again if there
/// is none.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use newt_channels::wake::WakeWord;
///
/// let word = Arc::new(WakeWord::new());
/// let seen = word.value();
/// let producer = Arc::clone(&word);
/// std::thread::spawn(move || producer.write());
/// // Waits until the producer writes (or the timeout expires).
/// word.mwait(seen, Duration::from_millis(200));
/// assert!(word.value() > seen);
/// ```
#[derive(Debug)]
pub struct WakeWord {
    value: AtomicU64,
    sleepers: AtomicUsize,
    slow_wakeups: AtomicU64,
    sleeps: AtomicU64,
    polled_hits: AtomicU64,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl Default for WakeWord {
    fn default() -> Self {
        Self::new()
    }
}

impl WakeWord {
    /// Creates a new wake word with value `0` and no sleepers.
    pub fn new() -> Self {
        WakeWord {
            value: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            slow_wakeups: AtomicU64::new(0),
            sleeps: AtomicU64::new(0),
            polled_hits: AtomicU64::new(0),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Returns the current value of the monitored word.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }

    /// The producer-side "memory write": bumps the word and wakes every
    /// consumer sleeping on it, if any.
    ///
    /// This is the fast-path notification of the paper — when the consumer is
    /// busy polling, the cost is a single atomic increment; only when the
    /// consumer has halted does the slow wake-up path run.
    pub fn write(&self) -> u64 {
        // Store-buffering handshake with `mwait`: the writer bumps `value`
        // then reads `sleepers`; the sleeper bumps `sleepers` then reads
        // `value`.  All four are `SeqCst`, so in the single total order at
        // least one side sees the other: either the writer finds the sleeper
        // (and notifies under the lock the sleeper holds until it waits) or
        // the sleeper finds the new value (and does not wait).
        let v = self.value.fetch_add(1, Ordering::SeqCst) + 1;
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.slow_wakeups.fetch_add(1, Ordering::Relaxed);
            self.condvar.notify_all();
        }
        v
    }

    /// The consumer-side `MWAIT`: blocks until the word differs from
    /// `last_seen` or `timeout` expires.  Returns the freshest value.
    ///
    /// A short spin phase precedes the sleep so that closely spaced requests
    /// never pay the halt/wake latency.  The sleep itself is asked to end
    /// [`SLEEP_GRANULARITY`] early — a host wakes a timed sleeper about that
    /// late — and whatever is then left of the timeout (all of it, when it
    /// was shorter than that to begin with) is polled out: the paper's
    /// "more aggressive polling if the gap is short", and a deadline that
    /// is met instead of overshot.
    pub fn mwait(&self, last_seen: u64, timeout: Duration) -> u64 {
        // Polling phase: absorb short gaps without halting the core.
        for _ in 0..SPIN_ROUNDS {
            let v = self.value.load(Ordering::SeqCst);
            if v != last_seen {
                self.polled_hits.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            std::hint::spin_loop();
        }

        let deadline = Instant::now() + timeout;
        if timeout > SLEEP_GRANULARITY {
            let v = self.halt(last_seen, deadline - SLEEP_GRANULARITY);
            if v != last_seen {
                return v;
            }
        }
        loop {
            let v = self.value.load(Ordering::SeqCst);
            if v != last_seen {
                self.polled_hits.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            if Instant::now() >= deadline {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Sleeps until the word differs from `last_seen` or `until` has come.
    fn halt(&self, last_seen: u64, until: Instant) -> u64 {
        let mut guard = self.lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        let v = loop {
            let v = self.value.load(Ordering::SeqCst);
            if v != last_seen {
                break v;
            }
            let now = Instant::now();
            if now >= until {
                break v;
            }
            self.condvar.wait_for(&mut guard, until - now);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        v
    }

    /// Returns a snapshot of the wake statistics.
    pub fn stats(&self) -> WakeStats {
        WakeStats {
            writes: self.value.load(Ordering::Relaxed),
            slow_wakeups: self.slow_wakeups.load(Ordering::Relaxed),
            sleeps: self.sleeps.load(Ordering::Relaxed),
            polled_hits: self.polled_hits.load(Ordering::Relaxed),
        }
    }
}

/// Poll-then-sleep loop driver for an event-driven server.
///
/// A server typically watches several queues.  The [`IdleMonitor`] owns the
/// server's exported wake word (the location producers write to) and
/// implements the policy: poll the work predicate for a bounded number of
/// rounds, then halt on the wake word until a producer writes.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use newt_channels::wake::IdleMonitor;
///
/// let monitor = IdleMonitor::new();
/// let word = monitor.wake_word();
/// std::thread::spawn(move || {
///     word.write();
/// });
/// // Returns true once the producer signalled (or there was work already).
/// let woke = monitor.wait_for_work(|| false, Duration::from_millis(200));
/// assert!(woke);
/// ```
#[derive(Debug, Clone)]
pub struct IdleMonitor {
    word: Arc<WakeWord>,
    last_seen: Arc<AtomicU64>,
}

impl Default for IdleMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl IdleMonitor {
    /// Creates a monitor with a fresh wake word.
    pub fn new() -> Self {
        IdleMonitor {
            word: Arc::new(WakeWord::new()),
            last_seen: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Returns the wake word producers should write to.
    pub fn wake_word(&self) -> Arc<WakeWord> {
        Arc::clone(&self.word)
    }

    /// Waits until `has_work` returns `true` or a producer writes to the wake
    /// word, with `timeout` bounding the sleep.
    ///
    /// Returns `true` if there was work or a wake-up, `false` if the timeout
    /// elapsed with neither.
    pub fn wait_for_work<F: FnMut() -> bool>(&self, mut has_work: F, timeout: Duration) -> bool {
        if has_work() {
            return true;
        }
        let seen = self.last_seen.load(Ordering::Acquire);
        let now = self.word.mwait(seen, timeout);
        self.last_seen.store(now, Ordering::Release);
        if now != seen {
            return true;
        }
        has_work()
    }

    /// Returns a snapshot of the underlying wake word statistics.
    pub fn stats(&self) -> WakeStats {
        self.word.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn write_bumps_value() {
        let w = WakeWord::new();
        assert_eq!(w.value(), 0);
        assert_eq!(w.write(), 1);
        assert_eq!(w.write(), 2);
        assert_eq!(w.value(), 2);
        assert_eq!(w.stats().writes, 2);
    }

    #[test]
    fn mwait_returns_immediately_when_already_changed() {
        let w = WakeWord::new();
        w.write();
        let v = w.mwait(0, Duration::from_secs(1));
        assert_eq!(v, 1);
        // No sleep should have been necessary.
        assert_eq!(w.stats().sleeps, 0);
        assert_eq!(w.stats().polled_hits, 1);
    }

    #[test]
    fn mwait_times_out_without_writes() {
        let w = WakeWord::new();
        let start = Instant::now();
        let v = w.mwait(0, Duration::from_millis(30));
        assert_eq!(v, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(w.stats().sleeps, 1);
    }

    #[test]
    fn sleeping_waiter_is_woken_by_producer() {
        let w = Arc::new(WakeWord::new());
        let producer = Arc::clone(&w);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            producer.write();
        });
        let v = w.mwait(0, Duration::from_secs(5));
        assert_eq!(v, 1);
        handle.join().unwrap();
        assert!(w.stats().slow_wakeups <= w.stats().writes);
    }

    #[test]
    fn idle_monitor_detects_existing_work() {
        let m = IdleMonitor::new();
        assert!(m.wait_for_work(|| true, Duration::from_millis(1)));
    }

    #[test]
    fn idle_monitor_woken_by_wake_word() {
        let m = IdleMonitor::new();
        let word = m.wake_word();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            word.write();
        });
        assert!(m.wait_for_work(|| false, Duration::from_secs(5)));
        handle.join().unwrap();
    }

    #[test]
    fn idle_monitor_times_out_quietly() {
        let m = IdleMonitor::new();
        assert!(!m.wait_for_work(|| false, Duration::from_millis(20)));
    }

    #[test]
    fn many_writes_from_many_threads() {
        let w = Arc::new(WakeWord::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let w = Arc::clone(&w);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    w.write();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.value(), 4000);
        assert_eq!(w.stats().writes, 4000);
    }

    /// The lost-wake-up stress: four producers write while each of
    /// `consumers` threads parks anew after every value it has seen.  A
    /// write that slipped between a consumer's last look and its park would
    /// leave it asleep until the (absurdly long) timeout — which must never
    /// happen.
    fn no_write_slips_past(consumers: usize) {
        const PRODUCERS: u64 = 4;
        const WRITES: u64 = 100_000;
        let w = WakeWord::new();
        thread::scope(|s| {
            for p in 0..PRODUCERS {
                let w = &w;
                s.spawn(move || {
                    for i in 0..WRITES {
                        w.write();
                        // Uneven gaps, so a consumer is caught spinning,
                        // taking the lock and already parked in turn.
                        for _ in 0..(i * 7 + p * 13) % 97 {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..consumers {
                s.spawn(|| {
                    let mut seen = 0;
                    while seen < PRODUCERS * WRITES {
                        let parked = Instant::now();
                        let now = w.mwait(seen, Duration::from_secs(10));
                        assert!(
                            now != seen && parked.elapsed() < Duration::from_secs(10),
                            "slept through a write at generation {seen}"
                        );
                        seen = now;
                    }
                });
            }
        });
        let stats = w.stats();
        assert_eq!(stats.writes, PRODUCERS * WRITES);
        assert!(stats.slow_wakeups <= stats.writes);
    }

    #[test]
    fn no_write_slips_between_the_last_look_and_the_park() {
        no_write_slips_past(1);
    }

    /// Threads of one application share their completion queue's word.
    #[test]
    fn no_write_slips_past_either_of_two_consumers() {
        no_write_slips_past(2);
    }

    /// One write wakes every thread halted on the word, not only the first.
    #[test]
    fn one_write_wakes_every_parked_thread() {
        const SLEEPERS: u64 = 4;
        let w = WakeWord::new();
        thread::scope(|s| {
            let sleepers: Vec<_> = (0..SLEEPERS)
                .map(|_| s.spawn(|| w.mwait(0, Duration::from_secs(10))))
                .collect();
            // Each sleeper counts itself under the lock before it waits.
            while w.stats().sleeps < SLEEPERS {
                thread::yield_now();
            }
            let written = Instant::now();
            w.write();
            for sleeper in sleepers {
                assert_eq!(sleeper.join().unwrap(), 1);
            }
            assert!(written.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn a_gap_below_the_sleep_granularity_is_polled_not_slept() {
        let w = WakeWord::new();
        let start = Instant::now();
        assert_eq!(w.mwait(0, SLEEP_GRANULARITY / 2), 0);
        assert!(start.elapsed() >= SLEEP_GRANULARITY / 2);
        assert_eq!(w.stats().sleeps, 0);
    }
}
