//! Simulated microkernel substrate for the NewtOS reproduction.
//!
//! The paper's system runs on a microkernel derived from MINIX 3: servers are
//! unprivileged user processes pinned to dedicated cores, the kernel's only
//! remaining jobs on a system core are channel setup, interrupt forwarding
//! and the synchronous IPC used by POSIX system calls.  This crate provides
//! those pieces as an in-process substrate that the decomposed networking
//! stack (`newt-stack`) runs on:
//!
//! * [`clock`] — a virtual clock with a configurable speed-up so that
//!   multi-second experiments (link resets, retransmission timers, heartbeat
//!   periods) finish quickly;
//! * [`cost`] — the cycle-cost model of the paper's evaluation machine
//!   (≈150-cycle hot traps, ≈3000-cycle cold traps, IPIs, context
//!   switches), which prices Table II's modelled row;
//! * [`ipc`] — synchronous kernel IPC between endpoints, counting traps,
//!   messages and IPIs;
//! * [`storage`] — the key/value storage server holding recoverable state;
//! * [`rs`] — the reincarnation server: heartbeats, crash detection,
//!   restarts with generation bumps, fault-injection hooks.
//!
//! # Example: a crash-and-restart life cycle
//!
//! ```
//! use std::time::Duration;
//! use newt_kernel::clock::SimClock;
//! use newt_kernel::rs::{FaultAction, ReincarnationServer, ServiceConfig, StartMode};
//! use newt_kernel::storage::StorageServer;
//! use std::sync::Arc;
//!
//! let storage = Arc::new(StorageServer::new());
//! let rs = ReincarnationServer::new(SimClock::realtime());
//!
//! let storage_for_service = Arc::clone(&storage);
//! let ep = rs.register(ServiceConfig::new("udp"), move |rt| {
//!     // On a fresh start the server initialises its state; on a restart
//!     // (or a live update whose snapshot it chooses not to use) it
//!     // recovers the state it stashed in the storage server.
//!     let mut sockets: Vec<u16> = match rt.start_mode() {
//!         StartMode::Fresh => Vec::new(),
//!         StartMode::Restart | StartMode::LiveUpdate => storage_for_service
//!             .retrieve("udp", "sockets")
//!             .unwrap_or_default(),
//!     };
//!     sockets.push(53);
//!     storage_for_service.store("udp", "sockets", &sockets);
//!     loop {
//!         let seen = rt.wake_word().value();
//!         if rt.should_stop() {
//!             return;
//!         }
//!         rt.heartbeat();
//!         rt.park(seen, None);
//!     }
//! });
//!
//! rs.inject_fault(ep, FaultAction::Crash);
//! // Wait until the restarted incarnation has recovered and extended the
//! // stored socket list.
//! let deadline = std::time::Instant::now() + Duration::from_secs(10);
//! loop {
//!     let sockets: Vec<u16> = storage.retrieve("udp", "sockets").unwrap_or_default();
//!     if sockets.len() >= 2 || std::time::Instant::now() >= deadline {
//!         break;
//!     }
//!     std::thread::sleep(Duration::from_millis(5));
//! }
//! rs.shutdown();
//! let sockets: Vec<u16> = storage.retrieve("udp", "sockets").unwrap();
//! assert!(sockets.len() >= 2); // state survived the crash
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod cost;
pub mod ipc;
pub mod rs;
pub mod storage;

pub use clock::SimClock;
pub use cost::CostModel;
pub use ipc::{IpcError, KernelIpc, KernelStats, Message};
pub use rs::{
    CrashEvent, CrashReason, FaultAction, RecoveryStamp, ReincarnationServer, ServiceConfig,
    ServiceRuntime, ServiceStatus, StartMode,
};
pub use storage::{StorageError, StorageServer, StorageStats};
