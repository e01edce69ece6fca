//! Host calibration for the stepped workloads.
//!
//! On the 2-vCPU VM this benchmark runs on, the time a fixed piece of
//! single-thread work takes moves by tens of percent within seconds (the
//! core slows; it is not descheduling), and its median moves with it — but
//! the time it takes in the host's quiet moments barely moves.  So a
//! measured window is cut into ~5 ms slices with a fixed-work
//! [`Calibrator`] unit between each two, and a world's cost is the
//! **10th percentile** of its slices' cost per request, scaled by the 10th
//! percentile of its calibrator units against [`CAL_REF_NS`].  A slice whose
//! two bracketing units disagree saw the host change speed and is left out.
//! A run measures several freshly built worlds and reports the median world,
//! because the cost floor also moves by a few percent with each build's
//! heap layout and hash seeds.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, percentile};

/// Time one [`Calibrator::unit`] took on the host the bounds in
/// `BENCHMARK.json` were measured on.  Only ratios to it are used, so its
/// value sets the unit of "calibrated time", not the noise.
pub const CAL_REF_NS: f64 = 56_000.0;

/// Length of one measured slice; it ends with the first round after this
/// that verified something, so slices do not cut a batch of responses.
pub const SLICE_NS: u64 = 5_000_000;

/// Bracketing units further apart than this share of their mean discard the
/// slice between them.
pub const BRACKET_TOLERANCE: f64 = 0.15;

/// The percentile of slice costs (and of calibrator units) a world reports:
/// low enough to sit in the host's quiet moments, high enough to rest on
/// dozens of slices.
pub const FLOOR_PERCENTILE: f64 = 0.10;

const KEYS: usize = 4096;
/// Kernel rounds per unit, and rounds before the kernel's inputs repeat.
const UNIT_ROUNDS: u64 = 4;
const CYCLE_ROUNDS: u64 = 160;

/// The fixed-work kernel: the operations the stack spends its time in —
/// `HashMap` lookups over 4 Ki keys, 64–256 B box alloc/free through a
/// `VecDeque`, 1460 B and 16 KiB copies, a 1460 B ones-complement checksum.
pub struct Calibrator {
    map: HashMap<u64, u64>,
    queue: VecDeque<Box<[u8]>>,
    frame: Vec<u8>,
    frame_dst: Vec<u8>,
    chunk: Vec<u8>,
    chunk_dst: Vec<u8>,
    round: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let map = (0..KEYS as u64)
            .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k))
            .collect();
        Calibrator {
            map,
            queue: VecDeque::with_capacity(64),
            frame: (0..1460).map(|i| i as u8).collect(),
            frame_dst: vec![0; 1460],
            chunk: (0..16 * 1024).map(|i| (i * 7) as u8).collect(),
            chunk_dst: vec![0; 16 * 1024],
            round: 0,
        }
    }

    /// Runs one unit of fixed work and returns the nanoseconds it took.
    /// Successive units walk through different keys and allocation sizes,
    /// repeating every 40 units; every unit does the same amount of work.
    pub fn unit(&mut self) -> u64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for round in self.round..self.round + UNIT_ROUNDS {
            for i in 0..256u64 {
                let key = ((round * 256 + i) % KEYS as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                acc = acc.wrapping_add(*self.map.get(&key).unwrap_or(&0));
            }
            for i in 0..32usize {
                let size = 64 + ((round as usize * 32 + i) * 24) % 193;
                self.queue.push_back(vec![i as u8; size].into_boxed_slice());
                if self.queue.len() > 48 {
                    acc = acc.wrapping_add(self.queue.pop_front().map_or(0, |b| b[0] as u64));
                }
            }
            for _ in 0..8 {
                self.frame_dst.copy_from_slice(black_box(&self.frame));
                acc = acc.wrapping_add(ones_complement(black_box(&self.frame_dst)) as u64);
            }
            self.chunk_dst.copy_from_slice(black_box(&self.chunk));
            acc = acc.wrapping_add(self.chunk_dst[round as usize] as u64);
        }
        self.round = (self.round + UNIT_ROUNDS) % CYCLE_ROUNDS;
        black_box(acc);
        start.elapsed().as_nanos() as u64
    }
}

/// The Internet checksum over `data`.
fn ones_complement(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in data.chunks(2) {
        let word = u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// What one slice of a measured window saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Wall time of the slice.
    pub wall_ns: u64,
    /// Time inside the stack block (`driver`…`app`) of the slice's rounds.
    pub stack_ns: u64,
    /// Verified body bytes.
    pub bytes: u64,
    /// Poll rounds.
    pub rounds: u64,
    /// Heap allocations of the process.
    pub allocs: u64,
    /// The calibrator unit right before and right after the slice.
    pub cal_before_ns: u64,
    pub cal_after_ns: u64,
}

impl Slice {
    /// Whether the host ran at one speed across the slice.
    pub fn steady(&self) -> bool {
        let (a, b) = (self.cal_before_ns as f64, self.cal_after_ns as f64);
        let mean = (a + b) / 2.0;
        mean > 0.0 && (a - b).abs() <= BRACKET_TOLERANCE * mean
    }
}

/// One world's measured window, reduced.  "Requests" are verified body
/// bytes over the body length, so a slice edge that cuts a 1 MiB transfer
/// counts the verified part.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldCost {
    /// 10th-percentile wall and stack nanoseconds per request over the
    /// steady slices, and 10th-percentile calibrator unit.
    pub wall_ns_per_request: f64,
    pub stack_ns_per_request: f64,
    pub cal_unit_ns: f64,
    /// Totals over every slice.
    pub requests: f64,
    pub wall_ns: f64,
    pub stack_ns: f64,
    pub allocs: f64,
    pub rounds: f64,
    pub slices: usize,
    pub slices_discarded: usize,
}

impl WorldCost {
    /// Factor that converts this world's times into calibrated time: below
    /// 1 when the host ran the calibrator slower than the reference.
    pub fn speed_factor(&self) -> f64 {
        if self.cal_unit_ns > 0.0 {
            CAL_REF_NS / self.cal_unit_ns
        } else {
            1.0
        }
    }
}

/// Reduces the `slices` of one world whose responses carry `body_len`
/// bytes.  If every slice was unsteady all of them are used, so a result is
/// always produced; `slices_discarded` then equals `slices`.
pub fn reduce(slices: &[Slice], body_len: u64) -> WorldCost {
    let requests_of = |s: &Slice| s.bytes as f64 / body_len as f64;
    let productive: Vec<&Slice> = slices.iter().filter(|s| s.bytes > 0).collect();
    let steady: Vec<&Slice> = productive.iter().copied().filter(|s| s.steady()).collect();
    let kept = if steady.is_empty() {
        &productive
    } else {
        &steady
    };
    let wall: Vec<f64> = kept
        .iter()
        .map(|s| s.wall_ns as f64 / requests_of(s))
        .collect();
    let stack: Vec<f64> = kept
        .iter()
        .map(|s| s.stack_ns as f64 / requests_of(s))
        .collect();
    let units: Vec<f64> = slices.iter().map(|s| s.cal_before_ns as f64).collect();
    let total = |f: fn(&Slice) -> u64| slices.iter().map(f).sum::<u64>() as f64;
    WorldCost {
        wall_ns_per_request: percentile(&wall, FLOOR_PERCENTILE).0,
        stack_ns_per_request: percentile(&stack, FLOOR_PERCENTILE).0,
        cal_unit_ns: percentile(&units, FLOOR_PERCENTILE).0,
        requests: total(|s| s.bytes) / body_len as f64,
        wall_ns: total(|s| s.wall_ns),
        stack_ns: total(|s| s.stack_ns),
        allocs: total(|s| s.allocs),
        rounds: total(|s| s.rounds),
        slices: slices.len(),
        slices_discarded: slices.len() - steady.len(),
    }
}

/// A run's worlds combined into the numbers the metrics are built from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Calibrated: the median world's 10th-percentile cost.
    pub requests_per_s: f64,
    pub stack_us_per_request: f64,
    /// Raw: totals over wall time, every slice of every world.
    pub raw_requests_per_s: f64,
    pub raw_stack_us_per_request: f64,
    pub allocs_per_request: f64,
    pub rounds_per_request: f64,
    pub stack_share_of_wall: f64,
    /// Median of the worlds' speed factors.
    pub speed_factor: f64,
    pub slices: usize,
    pub slices_discarded: usize,
}

/// Combines the worlds of one run.
pub fn combine(worlds: &[WorldCost]) -> Window {
    let calibrated = |f: fn(&WorldCost) -> f64| {
        median(
            &worlds
                .iter()
                .map(|w| f(w) * w.speed_factor())
                .collect::<Vec<_>>(),
        )
    };
    let total = |f: fn(&WorldCost) -> f64| worlds.iter().map(f).sum::<f64>();
    let wall_ns_per_request = calibrated(|w| w.wall_ns_per_request);
    let requests = total(|w| w.requests);
    let (wall_ns, stack_ns) = (total(|w| w.wall_ns), total(|w| w.stack_ns));
    let per_request = |x: f64| if requests > 0.0 { x / requests } else { 0.0 };
    Window {
        requests_per_s: if wall_ns_per_request > 0.0 {
            1e9 / wall_ns_per_request
        } else {
            0.0
        },
        stack_us_per_request: calibrated(|w| w.stack_ns_per_request) / 1e3,
        raw_requests_per_s: if wall_ns > 0.0 {
            requests / (wall_ns / 1e9)
        } else {
            0.0
        },
        raw_stack_us_per_request: per_request(stack_ns / 1e3),
        allocs_per_request: per_request(total(|w| w.allocs)),
        rounds_per_request: per_request(total(|w| w.rounds)),
        stack_share_of_wall: if wall_ns > 0.0 {
            stack_ns / wall_ns
        } else {
            0.0
        },
        speed_factor: median(
            &worlds
                .iter()
                .map(WorldCost::speed_factor)
                .collect::<Vec<_>>(),
        ),
        slices: worlds.iter().map(|w| w.slices).sum(),
        slices_discarded: worlds.iter().map(|w| w.slices_discarded).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: u64 = CAL_REF_NS as u64;

    /// A 5 ms slice that verified `requests` 100-byte bodies.
    fn slice(requests: u64, cal_before: u64, cal_after: u64) -> Slice {
        Slice {
            wall_ns: 5_000_000,
            stack_ns: 2_500_000,
            bytes: requests * 100,
            rounds: requests * 3,
            allocs: requests * 7,
            cal_before_ns: cal_before,
            cal_after_ns: cal_after,
        }
    }

    #[test]
    fn calibration_scales_a_slow_host_back_to_the_reference() {
        // The same work: once at reference speed, once on a host running
        // everything (workload and calibrator) 25 % slower.
        let fast = combine(&[reduce(&[slice(100, REF, REF)], 100)]);
        let slow_unit = REF * 5 / 4;
        let slow = combine(&[reduce(&[slice(80, slow_unit, slow_unit)], 100)]);
        assert!((fast.requests_per_s - 20_000.0).abs() < 1e-6);
        assert!((slow.requests_per_s - 20_000.0).abs() < 1e-6);
        assert!((slow.raw_requests_per_s - 16_000.0).abs() < 1e-6);
        assert!((slow.speed_factor - 0.8).abs() < 1e-12);
        assert!((fast.stack_us_per_request - 25.0).abs() < 1e-9);
        assert!((slow.stack_us_per_request - 25.0).abs() < 1e-9);
        assert!((slow.raw_stack_us_per_request - 31.25).abs() < 1e-9);
    }

    #[test]
    fn a_world_reports_its_cost_floor_and_drops_unsteady_slices() {
        // Twenty steady slices of rising cost (100 down to 81 requests in
        // the same time) and one unsteady slice that looks very cheap.
        let mut slices: Vec<Slice> = (0..20).map(|i| slice(100 - i, REF, REF)).collect();
        slices.push(slice(1000, REF, REF * 13 / 10));
        let world = reduce(&slices, 100);
        assert_eq!((world.slices, world.slices_discarded), (21, 1));
        // Nearest rank 0.10 * 19 = 2: the third cheapest steady slice.
        assert!((world.wall_ns_per_request - 5_000_000.0 / 98.0).abs() < 1e-6);
        assert!((world.stack_ns_per_request - 2_500_000.0 / 98.0).abs() < 1e-6);
        assert_eq!(world.cal_unit_ns, CAL_REF_NS);
        // Totals cover every slice, discarded or not.
        assert_eq!(world.requests, (81..=100).sum::<u64>() as f64 + 1000.0);
        assert_eq!(world.allocs, world.requests * 7.0);
    }

    #[test]
    fn a_world_of_only_unsteady_slices_still_reports() {
        let world = reduce(&[slice(100, REF, REF * 2)], 100);
        assert_eq!(world.slices_discarded, 1);
        assert!(world.wall_ns_per_request > 0.0);
    }

    #[test]
    fn a_run_reports_its_median_world() {
        let world = |requests| reduce(&[slice(requests, REF, REF)], 100);
        let window = combine(&[world(50), world(100), world(200)]);
        assert!((window.requests_per_s - 20_000.0).abs() < 1e-6);
        assert!((window.raw_requests_per_s - 350.0 / 0.015).abs() < 1e-6);
        assert!((window.allocs_per_request - 7.0).abs() < 1e-12);
        assert!((window.rounds_per_request - 3.0).abs() < 1e-12);
        assert!((window.stack_share_of_wall - 0.5).abs() < 1e-12);
        assert_eq!((window.slices, window.slices_discarded), (3, 0));
    }

    #[test]
    fn bracket_tolerance_is_relative_to_the_bracket_mean() {
        assert!(slice(1, 1000, 1150).steady());
        assert!(!slice(1, 1000, 1200).steady());
    }

    #[test]
    fn checksum_matches_a_known_vector() {
        // RFC 1071 example words 0x0001 0xf203 0xf4f5 0xf6f7 sum to 0xddf2.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement(&data), !0xddf2);
    }

    #[test]
    fn every_calibrator_unit_does_work_that_takes_time() {
        let mut cal = Calibrator::new();
        assert!((0..100).all(|_| cal.unit() > 1_000));
    }
}
