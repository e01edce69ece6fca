//! Frame capture and bitrate extraction — the tcpdump/Wireshark stand-in.
//!
//! The paper's Figures 4 and 5 are bitrate-versus-time plots of a single TCP
//! connection captured with tcpdump while faults are injected into the IP
//! server and the packet filter.  [`TraceCapture`] records the (virtual)
//! arrival time and length of every frame delivered to a link port;
//! [`TraceCapture::bitrate_series`] buckets them into a time series
//! comparable to the paper's plots.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// One captured frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the frame arrived.
    pub at: Duration,
    /// Frame length in bytes.
    pub len: usize,
}

/// A point of a bitrate time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitratePoint {
    /// Start of the bucket, in seconds since the start of the capture.
    pub time_s: f64,
    /// Average bitrate over the bucket, in megabits per second.
    pub mbps: f64,
}

/// A shareable frame capture.
///
/// Cloning is cheap; all clones append to the same capture.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use newt_net::trace::TraceCapture;
///
/// let trace = TraceCapture::new();
/// trace.record(Duration::from_millis(100), 1500);
/// trace.record(Duration::from_millis(150), 1500);
/// trace.record(Duration::from_millis(1100), 1500);
/// let series = trace.bitrate_series(Duration::from_secs(1));
/// assert_eq!(series.len(), 2);
/// assert!(series[0].mbps > series[1].mbps);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceCapture {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame of `len` bytes arriving at virtual time `at`.
    pub fn record(&self, at: Duration, len: usize) {
        self.records.lock().push(TraceRecord { at, len });
    }

    /// Returns the number of captured frames.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Returns `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Returns the total number of captured bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.lock().iter().map(|r| r.len as u64).sum()
    }

    /// Returns a copy of the raw records, sorted by arrival time.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut records = self.records.lock().clone();
        records.sort_by_key(|r| r.at);
        records
    }

    /// Buckets the capture into consecutive windows of `bucket` and returns
    /// the average bitrate per window, from time zero to the last captured
    /// frame.  Empty windows are reported as 0 Mbps — the "gap" visible in
    /// the paper's IP-crash figure.
    pub fn bitrate_series(&self, bucket: Duration) -> Vec<BitratePoint> {
        assert!(!bucket.is_zero(), "bucket duration must be non-zero");
        let records = self.records();
        let Some(last) = records.last() else {
            return Vec::new();
        };
        let bucket_s = bucket.as_secs_f64();
        let buckets = (last.at.as_secs_f64() / bucket_s).floor() as usize + 1;
        let mut bytes_per_bucket = vec![0u64; buckets];
        for record in &records {
            let idx = (record.at.as_secs_f64() / bucket_s).floor() as usize;
            bytes_per_bucket[idx] += record.len as u64;
        }
        bytes_per_bucket
            .iter()
            .enumerate()
            .map(|(i, &bytes)| BitratePoint {
                time_s: i as f64 * bucket_s,
                mbps: bytes as f64 * 8.0 / bucket_s / 1e6,
            })
            .collect()
    }

    /// Returns the average bitrate in Mbps over the span `from..to` (virtual
    /// seconds), or 0 if the span is empty.
    pub fn average_mbps(&self, from: Duration, to: Duration) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bytes: u64 = self
            .records
            .lock()
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .map(|r| r.len as u64)
            .sum();
        bytes as f64 * 8.0 / (to - from).as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_capture_has_no_series() {
        let trace = TraceCapture::new();
        assert!(trace.is_empty());
        assert!(trace.bitrate_series(Duration::from_secs(1)).is_empty());
        assert_eq!(trace.total_bytes(), 0);
        assert_eq!(
            trace.average_mbps(Duration::ZERO, Duration::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn bitrate_buckets_are_computed_correctly() {
        let trace = TraceCapture::new();
        // 1 Mbit in the first second: 125_000 bytes.
        for i in 0..100 {
            trace.record(Duration::from_millis(i * 10), 1250);
        }
        // Nothing in the second second, a little in the third.
        trace.record(Duration::from_millis(2500), 1250);
        let series = trace.bitrate_series(Duration::from_secs(1));
        assert_eq!(series.len(), 3);
        assert!((series[0].mbps - 1.0).abs() < 1e-9);
        assert_eq!(series[1].mbps, 0.0);
        assert!(series[2].mbps > 0.0);
        assert_eq!(series[0].time_s, 0.0);
        assert_eq!(series[2].time_s, 2.0);
    }

    #[test]
    fn average_over_span() {
        let trace = TraceCapture::new();
        trace.record(Duration::from_millis(100), 125_000);
        trace.record(Duration::from_millis(1500), 125_000);
        // Only the first record falls into [0, 1s): 1 Mbit over 1 s.
        assert!((trace.average_mbps(Duration::ZERO, Duration::from_secs(1)) - 1.0).abs() < 1e-9);
        // Both fall into [0, 2s): 2 Mbit over 2 s = 1 Mbps.
        assert!((trace.average_mbps(Duration::ZERO, Duration::from_secs(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn records_are_sorted_by_time() {
        let trace = TraceCapture::new();
        trace.record(Duration::from_secs(2), 10);
        trace.record(Duration::from_secs(1), 20);
        let records = trace.records();
        assert_eq!(records[0].len, 20);
        assert_eq!(records[1].len, 10);
        assert_eq!(trace.total_bytes(), 30);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn clones_share_the_capture() {
        let trace = TraceCapture::new();
        let clone = trace.clone();
        clone.record(Duration::from_secs(1), 42);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_panics() {
        let trace = TraceCapture::new();
        trace.record(Duration::from_secs(1), 1);
        trace.bitrate_series(Duration::ZERO);
    }
}
