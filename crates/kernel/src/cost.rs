//! The cycle-cost model.
//!
//! The paper motivates its design with concrete costs measured on the test
//! machine (a 12-core 1.9 GHz AMD Opteron 6168):
//!
//! * a void Linux `SYSCALL` with hot caches: **≈150 cycles**;
//! * the same call with cold caches: **≈3000 cycles**;
//! * kernel IPC to an idle core additionally needs an **inter-processor
//!   interrupt**;
//! * kernel IPC on a shared core additionally pays a **context switch**.
//!
//! [`CostModel`] packages those numbers.  The kernel-IPC substrate
//! ([`crate::ipc`]) charges them to a [`CycleAccount`], and the Table II
//! harness prices the one row it models (MINIX 3's synchronous IPC) with
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Cycle costs of the primitive operations of the communication substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU clock frequency in GHz (cycles per nanosecond).
    pub cpu_ghz: f64,
    /// Cycles for a kernel trap with hot caches (the paper's ~150).
    pub trap_hot: u64,
    /// Cycles for a kernel trap with cold caches (the paper's ~3000).
    pub trap_cold: u64,
    /// Cycles for a context switch between two processes sharing a core.
    pub context_switch: u64,
    /// Cycles charged for sending and handling an inter-processor interrupt.
    pub ipi: u64,
    /// Fraction of kernel traps that run with cold caches in steady state.
    pub cold_trap_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::opteron_6168()
    }
}

impl CostModel {
    /// The cost model of the paper's evaluation machine (1.9 GHz Opteron).
    pub fn opteron_6168() -> Self {
        CostModel {
            cpu_ghz: 1.9,
            trap_hot: 150,
            trap_cold: 3000,
            context_switch: 1200,
            ipi: 2000,
            cold_trap_fraction: 0.2,
        }
    }

    /// Expected cost of one kernel trap given the configured hot/cold mix.
    pub fn trap_expected(&self) -> f64 {
        self.trap_hot as f64 * (1.0 - self.cold_trap_fraction)
            + self.trap_cold as f64 * self.cold_trap_fraction
    }

    /// Converts a cycle count into wall-clock time at the modelled frequency.
    pub fn cycles_to_duration(&self, cycles: u64) -> Duration {
        Duration::from_secs_f64(cycles as f64 / (self.cpu_ghz * 1e9))
    }
}

/// Accumulates cycles charged to one actor (a core or a server).
#[derive(Debug, Default)]
pub struct CycleAccount {
    cycles: AtomicU64,
}

impl CycleAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to the account.
    pub fn charge(&self, cycles: u64) {
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Returns the total cycles charged so far.
    pub fn total(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_numbers() {
        let m = CostModel::default();
        assert_eq!(m.trap_hot, 150);
        assert_eq!(m.trap_cold, 3000);
        assert!((m.cpu_ghz - 1.9).abs() < f64::EPSILON);
    }

    #[test]
    fn expected_trap_between_hot_and_cold() {
        let m = CostModel::default();
        let e = m.trap_expected();
        assert!(e > m.trap_hot as f64);
        assert!(e < m.trap_cold as f64);
    }

    #[test]
    fn cycle_duration_round_trip() {
        let m = CostModel::default();
        let cycles = 1_900_000; // 1 ms at 1.9 GHz
        let d = m.cycles_to_duration(cycles);
        assert!((d.as_secs_f64() - 0.001).abs() < 1e-9);
        assert_eq!((d.as_secs_f64() * m.cpu_ghz * 1e9).round() as u64, cycles);
    }

    #[test]
    fn account_accumulates() {
        let acct = CycleAccount::new();
        acct.charge(100);
        acct.charge(250);
        assert_eq!(acct.total(), 350);
    }

    #[test]
    fn cycles_per_second_matches_frequency() {
        let m = CostModel::default();
        let second = m.cycles_to_duration(1_900_000_000);
        assert!((second.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
