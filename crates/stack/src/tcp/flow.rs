//! Flow control: how much the peer said it can take.

use serde::{Deserialize, Serialize};

use super::TcpConfig;

/// The peer's advertised window.  Written only here, by inbound segments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FlowControl {
    peer_window: u32,
}

impl FlowControl {
    /// Starts from `window`, the unscaled value the first segment carried
    /// (or the protocol's 64 KiB default before any was seen).
    pub(crate) fn new(window: u32) -> Self {
        FlowControl {
            peer_window: window,
        }
    }

    readable!(peer_window: u32);

    /// Every inbound segment re-announces the window; the configured factor
    /// stands in for the window-scale option.
    pub(crate) fn on_window(&mut self, advertised: u16, config: &TcpConfig) {
        self.peer_window = (advertised as u32).max(1) * config.window_scale.max(1);
    }
}
