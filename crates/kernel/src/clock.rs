//! Virtual time.
//!
//! The paper's experiments span wall-clock seconds (link resets take ~2 s,
//! TCP retransmission timers fire after hundreds of milliseconds, heartbeat
//! periods are measured in seconds).  To keep the reproduction fast, every
//! time-dependent component reads a [`SimClock`] instead of `Instant::now()`.
//! A `SimClock` maps real time to *virtual* time through a constant speed-up
//! factor, so a 20-virtual-second bitrate trace can be produced in a couple
//! of real seconds without changing any timer constant.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing virtual clock.
///
/// Cloning is cheap; all clones share the same origin and speed-up.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use newt_kernel::clock::SimClock;
///
/// // Virtual time passes 100x faster than real time.
/// let clock = SimClock::with_speedup(100.0);
/// let start = clock.now();
/// clock.sleep(Duration::from_millis(200)); // 200 *virtual* ms ≈ 2 real ms
/// assert!(clock.now() - start >= Duration::from_millis(200));
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

#[derive(Debug)]
struct ClockInner {
    origin: Instant,
    speedup: f64,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::realtime()
    }
}

impl SimClock {
    /// Creates a clock where virtual time equals real time.
    pub fn realtime() -> Self {
        Self::with_speedup(1.0)
    }

    /// Creates a clock where virtual time advances `speedup` times faster
    /// than real time.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not strictly positive and finite.
    pub fn with_speedup(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "clock speed-up must be positive and finite"
        );
        SimClock {
            inner: Arc::new(ClockInner {
                origin: Instant::now(),
                speedup,
            }),
        }
    }

    /// Returns the configured speed-up factor.
    pub fn speedup(&self) -> f64 {
        self.inner.speedup
    }

    /// Returns the virtual time elapsed since the clock was created.
    pub fn now(&self) -> Duration {
        let real = self.inner.origin.elapsed();
        Duration::from_secs_f64(real.as_secs_f64() * self.inner.speedup)
    }

    /// Sleeps for a *virtual* duration (i.e. `duration / speedup` of real
    /// time).
    pub fn sleep(&self, duration: Duration) {
        let real = Duration::from_secs_f64(duration.as_secs_f64() / self.inner.speedup);
        if !real.is_zero() {
            std::thread::sleep(real);
        }
    }

    /// Converts a virtual duration into the real duration it corresponds to.
    pub fn to_real(&self, virtual_duration: Duration) -> Duration {
        Duration::from_secs_f64(virtual_duration.as_secs_f64() / self.inner.speedup)
    }

    /// Returns a virtual deadline `duration` from now.
    pub fn deadline(&self, duration: Duration) -> Duration {
        self.now() + duration
    }

    /// Returns `true` if the virtual `deadline` has passed.
    pub fn expired(&self, deadline: Duration) -> bool {
        self.now() >= deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_clock_tracks_real_time() {
        let clock = SimClock::realtime();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(10));
        let b = clock.now();
        assert!(b - a >= Duration::from_millis(9));
        assert!(b - a < Duration::from_secs(2));
    }

    #[test]
    fn speedup_scales_virtual_time() {
        let clock = SimClock::with_speedup(50.0);
        std::thread::sleep(Duration::from_millis(10));
        // 10 real ms ≈ 500 virtual ms.
        assert!(clock.now() >= Duration::from_millis(400));
    }

    #[test]
    fn sleep_is_scaled_down() {
        let clock = SimClock::with_speedup(100.0);
        let start = Instant::now();
        clock.sleep(Duration::from_millis(500));
        // 500 virtual ms should take roughly 5 real ms.
        assert!(start.elapsed() < Duration::from_millis(200));
        assert!(clock.now() >= Duration::from_millis(400));
    }

    #[test]
    fn conversions_round_trip() {
        let clock = SimClock::with_speedup(10.0);
        let v = Duration::from_secs(1);
        let r = clock.to_real(v);
        assert!((r.as_secs_f64() * 10.0 - v.as_secs_f64()).abs() < 1e-9);
        assert!((r.as_secs_f64() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn deadlines_expire() {
        let clock = SimClock::with_speedup(1000.0);
        let deadline = clock.deadline(Duration::from_millis(100));
        assert!(!clock.expired(deadline) || clock.now() >= deadline);
        clock.sleep(Duration::from_millis(150));
        assert!(clock.expired(deadline));
    }

    #[test]
    fn clones_share_origin() {
        let clock = SimClock::with_speedup(10.0);
        let clone = clock.clone();
        std::thread::sleep(Duration::from_millis(5));
        let a = clock.now();
        let b = clone.now();
        let diff = a.abs_diff(b);
        assert!(diff < Duration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speedup_rejected() {
        let _ = SimClock::with_speedup(0.0);
    }
}
