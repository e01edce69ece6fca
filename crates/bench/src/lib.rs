//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one artefact of the paper's
//! evaluation — or one of the reproduction's own tracked records:
//!
//! | binary | artefact |
//! | --- | --- |
//! | `table1` | kernel-IPC / channel cycle costs → `BENCH_fastpath.json` |
//! | `table2` | Table II measured: CPU per MiB of every service in each configuration ([`table2`]) |
//! | `table3`/`table4` | the SWIFI fault-injection campaign |
//! | `fig4`/`fig5` | bitrate traces across IP / packet-filter crashes |
//! | `scaling` | RSS scaling at 1/2/4 shards → `BENCH_scaling.json` |
//! | `workload` | HTTP messages/request, TSO and copy counts over clean/impaired links → `BENCH_workload.json` |
//! | `connscale` | 100k held keep-alive connections over the syscall rings → `BENCH_connscale.json` |
//! | `dependability` | fault injection into the sharded stack under HTTP load → `BENCH_dependability.json` |
//! | `overload` | hostile traffic against the serving stack → `BENCH_overload.json` |
//!
//! This library hosts the small amount of code the binaries share: the
//! [`record`] writer and gate collector, the [`fastpath`] micro-measurement
//! that tracks the inter-server channel fast path across pull requests,
//! and the per-thread [`cpu`] sampler behind [`table2`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod record;
pub mod table2;

/// Returns the first CLI argument parsed as a number, or `default`.
///
/// Used by the fault-injection binaries to pick the number of runs
/// (`cargo run -p newt-bench --bin table3 -- 100`).
pub fn arg_or(index: usize, default: usize) -> usize {
    std::env::args()
        .nth(index)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints a standard experiment header.
pub fn header(title: &str, paper_reference: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_reference} of Hruby et al., DSN 2012)");
    println!("==============================================================");
}

/// Micro-measurement of the channel fast path (paper §IV, Table II's "fast
/// path" claim): single-message enqueue/dequeue through the lock-free
/// handles, the batched variant, and the mutex-guarded baseline the fabric
/// used before the lock-free rework.
pub mod fastpath {
    use std::fmt;
    use std::sync::Arc;
    use std::time::Instant;

    use parking_lot::Mutex;

    use newt_channels::spsc;

    use crate::record::Json;

    const MESSAGES: u64 = 400_000;
    const BATCH: usize = 64;

    /// Nanoseconds per message for each measured variant.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FastPathReport {
        /// Lock-free single-message enqueue + dequeue.
        pub single_ns: f64,
        /// Batched (64-message) enqueue + drain, per message.
        pub batch_ns: f64,
        /// The seed's mutex-guarded single-message path, per message.
        pub mutex_ns: f64,
    }

    impl FastPathReport {
        /// Speedup of the batched path over the mutex-guarded baseline.
        pub fn speedup_batch_vs_mutex(&self) -> f64 {
            self.mutex_ns / self.batch_ns
        }

        /// The `BENCH_fastpath.json` record.
        pub fn record(&self) -> Json {
            Json::object()
                .with("single_ns", Json::Num(self.single_ns, 2))
                .with("batch64_ns", Json::Num(self.batch_ns, 2))
                .with("mutex_baseline_ns", Json::Num(self.mutex_ns, 2))
                .with(
                    "batch_speedup_vs_mutex",
                    Json::Num(self.speedup_batch_vs_mutex(), 2),
                )
                .with("messages", MESSAGES)
        }
    }

    impl fmt::Display for FastPathReport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "single {:.1} ns, batch64 {:.1} ns, mutex baseline {:.1} ns ({:.1}x batch speedup)",
                self.single_ns,
                self.batch_ns,
                self.mutex_ns,
                self.speedup_batch_vs_mutex()
            )
        }
    }

    /// Runs the three variants and returns nanoseconds per message for each.
    pub fn measure() -> FastPathReport {
        // Lock-free single messages.
        let (mut tx, mut rx) = spsc::channel::<u64>(1024);
        let start = Instant::now();
        for i in 0..MESSAGES {
            tx.try_send(i).expect("queue drained every message");
            std::hint::black_box(rx.try_recv().expect("just enqueued"));
        }
        let single_ns = start.elapsed().as_nanos() as f64 / MESSAGES as f64;

        // Lock-free batches.
        let (mut tx, mut rx) = spsc::channel::<u64>(1024);
        let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
        let mut out: Vec<u64> = Vec::with_capacity(BATCH);
        let rounds = MESSAGES / BATCH as u64;
        let start = Instant::now();
        for _ in 0..rounds {
            batch.extend(0..BATCH as u64);
            tx.send_batch(&mut batch);
            out.clear();
            std::hint::black_box(rx.drain_into(&mut out));
        }
        let batch_ns = start.elapsed().as_nanos() as f64 / (rounds * BATCH as u64) as f64;

        // The seed's fabric: Arc<Mutex<...>> around each end, a fresh Vec
        // per drain.
        let (tx, rx) = spsc::channel::<u64>(1024);
        let tx = Arc::new(Mutex::new(tx));
        let rx = Arc::new(Mutex::new(rx));
        let start = Instant::now();
        for i in 0..MESSAGES {
            tx.lock().try_send(i).expect("queue drained every message");
            std::hint::black_box(rx.lock().try_recv().expect("just enqueued"));
        }
        let mutex_ns = start.elapsed().as_nanos() as f64 / MESSAGES as f64;

        FastPathReport {
            single_ns,
            batch_ns,
            mutex_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_or_falls_back_to_default() {
        // The test binary's argv does not contain a number at index 40.
        assert_eq!(super::arg_or(40, 7), 7);
    }

    #[test]
    fn fastpath_report_formats_and_serialises() {
        let report = super::fastpath::FastPathReport {
            single_ns: 10.0,
            batch_ns: 5.0,
            mutex_ns: 20.0,
        };
        assert_eq!(report.speedup_batch_vs_mutex(), 4.0);
        let text = format!("{report}");
        assert!(text.contains("4.0x"));
        assert_eq!(
            report.record().to_string(),
            "{\n  \"single_ns\": 10.00,\n  \"batch64_ns\": 5.00,\n  \"mutex_baseline_ns\": 20.00,\n  \
             \"batch_speedup_vs_mutex\": 4.00,\n  \"messages\": 400000\n}"
        );
    }

    #[test]
    fn fastpath_measures_and_batching_beats_the_mutex_baseline() {
        let report = super::fastpath::measure();
        assert!(report.single_ns > 0.0);
        assert!(report.batch_ns > 0.0);
        assert!(report.mutex_ns > 0.0);
        // The acceptance bar for the lock-free rework: batched drain/enqueue
        // at least 2x faster than the mutex-guarded single-message path.
        // Only asserted for optimised builds — debug or instrumented builds
        // (coverage, sanitizers) distort the two paths differently and a
        // wall-clock ratio there says nothing about the code.
        #[cfg(not(debug_assertions))]
        assert!(
            report.speedup_batch_vs_mutex() >= 2.0,
            "expected >= 2x speedup, measured {report}"
        );
    }
}
