//! Application workloads running *on top of* the decomposed stack.
//!
//! The paper's claim is that a dependable multiserver stack can carry real
//! application traffic fast; everything below this crate is the stack, and
//! this crate is the traffic:
//!
//! * [`http`] — a minimal HTTP/1.1 codec: request parsing, response
//!   formatting, deterministic body generation (so transfers can be
//!   integrity-checked end to end) and an incremental response reader for
//!   clients;
//! * [`httpd`] — an HTTP server built on the socket library of §V-B, one
//!   thread multiplexing hundreds of keep-alive connections through the
//!   non-blocking/poll API ([`newt_stack::posix`]), listening
//!   `SO_REUSEPORT`-style on every stack shard;
//! * [`loadgen`] — an in-process load generator driving concurrent
//!   keep-alive HTTP connections from the remote peer host through the
//!   NIC, with virtual-time latency measurement (p50/p99), end-to-end body
//!   verification and application-level retry — the workload behind
//!   `BENCH_workload.json` and the crash-during-transfer tests.
//!
//! The server survives protocol-server crashes the way §V-D prescribes:
//! listening sockets are recovered by the restarted TCP server, established
//! connections are reset and the load generator reconnects and retries,
//! exactly like the paper's SSH client that logs back in after every
//! injected fault.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod httpd;
pub mod loadgen;

pub use http::{
    body_for_path, parse_request, response_bytes, HttpRequest, InlineString, ResponseReader,
};
pub use httpd::{Httpd, HttpdConfig, HttpdStats};
pub use loadgen::{
    percentile_us, run_http_load, run_http_load_with_hook, LoadConfig, LoadReport, LoadSnapshot,
};
