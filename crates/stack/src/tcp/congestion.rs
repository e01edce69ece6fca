//! Congestion control (Reno): the congestion window and slow-start threshold.

use serde::{Deserialize, Serialize};

use super::TcpConfig;

/// Reno state.  Written only here: by acknowledged data and by loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Congestion {
    cwnd: u32,
    ssthresh: u32,
}

impl Congestion {
    pub(crate) fn new(config: &TcpConfig) -> Self {
        Congestion {
            cwnd: (10 * config.mss) as u32,
            ssthresh: u32::MAX / 2,
        }
    }

    readable!(cwnd: u32);

    /// `data_acked` new bytes were acknowledged: slow start below the
    /// threshold, one segment per window above it.
    pub(crate) fn on_ack(&mut self, data_acked: usize, mss: usize) {
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(data_acked as u32);
        } else {
            let increment = ((mss as u64 * mss as u64) / self.cwnd.max(1) as u64) as u32;
            self.cwnd = self.cwnd.saturating_add(increment.max(1));
        }
    }

    /// A segment was lost with `flight` bytes outstanding: halve, and after
    /// a timeout fall back to one segment (fast retransmit keeps the half).
    pub(crate) fn on_loss(&mut self, flight: u32, mss: usize, from_timeout: bool) {
        self.ssthresh = (flight / 2).max(2 * mss as u32);
        self.cwnd = if from_timeout {
            mss as u32
        } else {
            self.ssthresh
        };
    }
}
