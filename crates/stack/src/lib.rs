//! The decomposed NewtOS networking stack.
//!
//! This crate contains the paper's primary contribution: a network stack
//! split into many isolated, single-threaded, asynchronous servers — drivers,
//! IP/ICMP/ARP, the packet filter, TCP, UDP and the SYSCALL front end — that
//! communicate over the fast-path channels of `newt-channels`, run under the
//! reincarnation server of `newt-kernel`, and drive the simulated NICs and
//! links of `newt-net`.
//!
//! The crate is organised exactly like the system in paper Figure 3:
//!
//! * [`driver`] — the NetDrv servers feeding the simulated e1000 adapters;
//! * [`ip`] — the IP/ICMP/ARP hub with its T junction to the packet filter;
//! * [`pf`] — the packet filter with rules and connection tracking;
//! * [`tcp`] / [`udp`] — the transport servers, two protocols in one
//!   crate-private transport shell (lanes, the way out to IP, replies and
//!   the ephemeral-port cursor);
//! * [`syscall`] — the POSIX front end: legacy kernel-IPC calls plus the
//!   sharded submission/completion ring pumps;
//! * [`posix`] — the application-side socket library;
//! * [`rings`] — the asynchronous submission/completion queues between
//!   applications and the stack;
//! * [`sockbuf`] — the shared buffers the data path runs over;
//! * [`msg`], [`fabric`], [`endpoints`] — the typed messages, channel wiring
//!   and component identities;
//! * [`builder`] — [`StackConfig`]/[`NewtStack`], which assemble the whole
//!   system in any of the paper's configurations (split stack, single-server
//!   stack, synchronous single-core baseline).
//!
//! # Quickstart
//!
//! ```no_run
//! use newt_stack::builder::{NewtStack, StackConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = NewtStack::start(StackConfig::newtos());
//! let client = stack.client();
//! let socket = client.tcp_socket()?;
//! socket.connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)?;
//! socket.send_all(b"hello over the decomposed stack")?;
//! stack.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod driver;
pub mod endpoints;
pub mod fabric;
pub mod ip;
pub mod msg;
pub mod pf;
pub mod posix;
pub mod rings;
pub mod sockbuf;
pub mod syscall;
pub mod tcp;
mod transport;
pub mod udp;

pub use builder::{NewtStack, StackConfig, Telemetry, Topology};
pub use endpoints::Component;
pub use newt_kernel::clock::SimClock;
pub use pf::{FilterAction, FilterRule};
pub use posix::{NetClient, RingHandle, TcpSocket, UdpSocket};
pub use rings::{CqValue, Cqe, Sqe, SqeOp};
pub use sockbuf::Readiness;
pub use sockbuf::{SockError, SocketBuffer};
