//! SWIFI-style fault injection against the NewtOS networking stack.
//!
//! The paper evaluates dependability by injecting 100 random faults into the
//! running stack while a TCP session and periodic DNS queries exercise it
//! (§VI-B), and by tracing the bitrate of a bulk transfer across crashes of
//! the IP server and the packet filter (§VI-C).  This crate reproduces both:
//!
//! * [`campaign`] — the Table III / Table IV experiment: weighted random
//!   target selection, crash and hang faults, automatic recovery,
//!   reachability and transparency classification;
//! * [`figures`] — the Figure 4 / Figure 5 experiments: bitrate-versus-time
//!   traces of a transfer across IP and packet-filter crashes;
//! * [`dependability`] — the same methodology pointed at the modern stack:
//!   faults (including correlated same-shard double faults and driver→IP
//!   cascades) injected into the *sharded*, GRO-enabled pipelines while
//!   the `newt-apps` HTTP server carries live load, measuring per-run
//!   availability, recovery time in virtual ms, forced reconnects and
//!   byte-exact bodies — plus the rolling-upgrade mode, which live-updates
//!   every component one at a time under the same load and requires that
//!   *nothing* is dropped — the `BENCH_dependability.json` record;
//! * [`overload`] — the hostile-traffic campaigns: SYN floods, slow
//!   loris, connection churn and malformed-frame fuzz launched from the
//!   peer against the serving stack while verified keep-alive load runs,
//!   measuring goodput retained and every defense counter — the
//!   `BENCH_overload.json` record.
//!
//! All of them are driven through the public
//! [`NewtStack`](newt_stack::builder::NewtStack) API, exactly as an
//! external test harness would drive the real system.
//!
//! See `docs/DEPENDABILITY.md` for the fault model, the campaign knobs and
//! how the outcome taxonomy maps onto the paper's §VI.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod dependability;
pub mod figures;
pub mod overload;

pub use campaign::{
    derive_weights, run_campaign, run_one, CampaignConfig, CampaignReport, FaultKind, RunOutcome,
};
pub use dependability::{
    run_dependability_campaign, run_rolling_upgrade, DependabilityConfig, DependabilityReport,
    FaultMode, Outcome, RollingUpgradeConfig, RollingUpgradeReport, RunRecord, UpgradeRecord,
};
pub use figures::{run_trace_experiment, TraceExperimentConfig, TraceExperimentResult};
pub use overload::{run_overload, AttackKind, OverloadConfig, OverloadRecord};
