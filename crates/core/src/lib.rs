//! NewtOS-style dependable and fast networking stack — facade crate.
//!
//! This crate re-exports the public API of the reproduction of *Keep Net
//! Working — On a Dependable and Fast Networking Stack* (Hruby, Vogt, Bos,
//! Tanenbaum; DSN 2012) so that applications, examples and benchmarks can
//! depend on a single crate:
//!
//! * [`channels`] — the fast-path user-space communication substrate
//!   (SPSC queues, shared pools, rich pointers, request database);
//! * [`kernel`] — the microkernel substrate (kernel IPC, cost model,
//!   reincarnation server, storage server, virtual clock);
//! * [`net`] — wire formats, the simulated e1000 NIC, links, the remote
//!   peer host and trace capture;
//! * [`stack`] — the decomposed networking stack itself and the
//!   [`NewtStack`]/[`StackConfig`] entry points;
//! * [`faults`] — the SWIFI fault-injection campaign and the crash-trace
//!   experiments;
//! * [`apps`] — the application workload layer: an HTTP/1.1 server on the
//!   poll-based socket API and the in-process HTTP load generator.
//!
//! # Quickstart
//!
//! ```no_run
//! use newtos::{NewtStack, StackConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Boot the full split stack: TCP, UDP, IP, packet filter, driver and
//! // SYSCALL servers, each on its own "core", plus a simulated gigabit link
//! // and a remote peer host.
//! let stack = NewtStack::start(StackConfig::newtos());
//!
//! // Use it through the POSIX-like client library.
//! let client = stack.client();
//! let socket = client.tcp_socket()?;
//! socket.connect(StackConfig::peer_addr(0), newtos::net::peer::IPERF_PORT)?;
//! socket.send_all(b"hello, dependable world")?;
//!
//! // Crash the packet filter; the reincarnation server restarts it and the
//! // connection keeps working.
//! stack.inject_fault(newtos::Component::PacketFilter, newtos::FaultAction::Crash);
//! stack.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use newt_apps as apps;
pub use newt_channels as channels;
pub use newt_faults as faults;
pub use newt_kernel as kernel;
pub use newt_net as net;
pub use newt_stack as stack;

pub use newt_kernel::cost::CostModel;
pub use newt_kernel::rs::FaultAction;
pub use newt_stack::builder::{NewtStack, StackConfig, Telemetry, Topology};
pub use newt_stack::endpoints::Component;
pub use newt_stack::pf::{FilterAction, FilterRule};
pub use newt_stack::posix::{NetClient, TcpSocket, UdpSocket};
pub use newt_stack::sockbuf::SockError;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Compile-time checks that the re-exports resolve to the same types.
        fn assert_same<T>(_: T) {}
        assert_same::<fn(crate::StackConfig) -> crate::NewtStack>(crate::NewtStack::start);
        let config = crate::StackConfig::newtos();
        assert!(config.tso);
        let model = crate::CostModel::default();
        assert_eq!(model.trap_hot, 150);
    }
}
