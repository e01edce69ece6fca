//! The seeded generator behind every random choice of a run (source-port
//! order, body-pattern offset, fault-schedule jitter): SplitMix64.

pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        let (mut a, mut b, mut c) = (SplitMix::new(7), SplitMix::new(7), SplitMix::new(8));
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next()).collect::<Vec<_>>());
        assert!((0..100).all(|_| (0.0..1.0).contains(&a.unit())));
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut items: Vec<u32> = (0..100).collect();
        SplitMix::new(1).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
