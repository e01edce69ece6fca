//! Connection management: who the connection is between, which RFC 793
//! state it is in, and the lifecycle facts the reapers go by.

use std::net::Ipv4Addr;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use super::conn::TimerKind;
use super::TcpConfig;
use crate::msg::SockId;

/// TCP connection states (RFC 793 subset; a listener is a type of its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closed,
}

/// What a half-open child carries until its handshake completes: the
/// listener that admitted it and the buffer capacities it will get then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Embryo {
    pub(crate) listener: SockId,
    pub(crate) send_cap: u32,
    pub(crate) recv_cap: u32,
}

/// Connection-management state.  Written only here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConnMgmt {
    state: TcpState,
    local_port: u16,
    remote: (Ipv4Addr, u16),
    /// Negotiated maximum segment size.
    mss: usize,
    /// Present exactly while the connection is a listener's half-open child.
    embryo: Option<Embryo>,
    close_requested: bool,
    fin_sent: bool,
    /// Time of the last inbound segment — the reference point of the
    /// SYN-RECEIVED, idle and FIN-WAIT reapers.  One store per segment.
    last_activity: Duration,
}

impl ConnMgmt {
    pub(crate) fn new(
        state: TcpState,
        local_port: u16,
        remote: (Ipv4Addr, u16),
        mss: usize,
        embryo: Option<Embryo>,
        now: Duration,
    ) -> Self {
        ConnMgmt {
            state,
            local_port,
            remote,
            mss,
            embryo,
            close_requested: false,
            fin_sent: false,
            last_activity: now,
        }
    }

    readable!(state: TcpState, local_port: u16, remote: (Ipv4Addr, u16), mss: usize);
    readable!(embryo: Option<Embryo>, fin_sent: bool);

    /// May new data (or our FIN) still go out?
    pub(crate) fn can_send(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
    }

    /// The application closed and our FIN has not gone out yet.
    pub(crate) fn fin_wanted(&self) -> bool {
        self.close_requested && !self.fin_sent && self.can_send()
    }

    pub(crate) fn touch(&mut self, now: Duration) {
        self.last_activity = now;
    }

    /// The handshake completed; `peer_mss` is the option a SYN-ACK carried.
    /// Returns what the connection held as a half-open child, if it was one.
    pub(crate) fn established(
        &mut self,
        peer_mss: Option<u16>,
        config: &TcpConfig,
    ) -> Option<Embryo> {
        self.state = TcpState::Established;
        if let Some(mss) = peer_mss {
            self.mss = (mss as usize).min(config.mss);
        }
        self.embryo.take()
    }

    /// The connection is over (RST, or a reaper gave up on it).
    pub(crate) fn closed(&mut self) {
        self.state = TcpState::Closed;
    }

    pub(crate) fn close_requested(&mut self) {
        self.close_requested = true;
    }

    /// Our FIN went out.
    pub(crate) fn fin_out(&mut self) {
        self.fin_sent = true;
        self.state = if self.state == TcpState::CloseWait {
            TcpState::LastAck
        } else {
            TcpState::FinWait1
        };
    }

    /// Everything including our FIN was acknowledged; `true` when that ends
    /// the connection.
    pub(crate) fn fin_acked(&mut self) -> bool {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                return true;
            }
            _ => {}
        }
        false
    }

    /// The peer's FIN arrived in order.  Returns (quarantine the port — the
    /// close was ours —, the connection is finished).
    pub(crate) fn fin_in(&mut self) -> (bool, bool) {
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            // After a simultaneous close (FIN-WAIT-1) the connection
            // lingers in `Closed` until the FIN reaper collects it.
            TcpState::FinWait1 | TcpState::FinWait2 => {
                let finished = self.state == TcpState::FinWait2;
                self.state = TcpState::Closed;
                return (true, finished);
            }
            _ => {}
        }
        (false, false)
    }

    /// The one rule of the lifecycle reapers: while the state `kind` guards
    /// holds and its timeout is enabled, the connection is due `timeout`
    /// after the last inbound segment.  `None`: the timer is stale.
    pub(crate) fn reap_due(&self, kind: TimerKind, config: &TcpConfig) -> Option<Duration> {
        let (guarded, timeout) = match kind {
            TimerKind::SynReap => (
                self.state == TcpState::SynReceived,
                config.syn_received_timeout,
            ),
            TimerKind::IdleReap => (self.can_send(), config.idle_timeout),
            TimerKind::FinReap => (self.fin_sent, config.fin_wait_timeout),
            TimerKind::Rto | TimerKind::DelayedAck => return None,
        };
        (guarded && !timeout.is_zero()).then(|| self.last_activity + timeout)
    }
}
