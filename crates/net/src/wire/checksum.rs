//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header variant.
//!
//! In the paper's stack, checksums are normally offloaded to the NIC
//! (checksum offloading is one of the optimisations that takes the stack from
//! 3.2 Gbps to 5+ Gbps); the software implementation here is used by the
//! remote peer host, by the simulated NIC when offload is enabled, by the
//! stack itself when offload is disabled, and by GRO to derive a merge's
//! checksum from the checksums its frames carry.
//!
//! Every checksum in the tree goes through one accumulator, [`Checksum`],
//! built on the properties RFC 1071 §2 lists:
//!
//! * **Byte-order independence (§2(B)).**  The ones'-complement sum of
//!   16-bit words read in the host's native order is the byte swap of the
//!   sum of the same words read big-endian.  So the kernel loads words
//!   natively — no per-word swap — and the one swap happens when the sum
//!   is read out.
//! * **Wide words (§2(C)).**  The sum may be accumulated in any wider
//!   register and the carries folded back in at the end.  The kernel adds
//!   32-bit words into sixteen `u64` lanes, which the compiler turns into
//!   plain or vector adds, and folds once per call.  It is built twice from
//!   one source, for the baseline target and with AVX2, and each call takes
//!   the AVX2 build where the CPU has it.
//! * **Parallel summation (§2(A), §2(B)).**  Sums of separate blocks
//!   combine by ones'-complement addition, after a byte swap when the
//!   block starts at an odd offset.  [`Checksum::add`] tracks that parity
//!   across calls, and [`Checksum::add_block`] takes the sum of a block
//!   computed elsewhere — GRO uses it to add up what its frames'
//!   checksums already cover (the arithmetic of RFC 1624) without reading
//!   their payloads again.

use std::net::Ipv4Addr;

/// A running Internet checksum: bytes, pseudo-header fields and block sums
/// in, a 16-bit checksum out.
///
/// # Examples
///
/// ```
/// use newt_net::wire::{internet_checksum, Checksum};
///
/// // Adding a buffer in pieces — odd-length ones included — gives the
/// // checksum of the whole.
/// let data = [0x45, 0x00, 0x00, 0x54, 0xab, 0xcd, 0x40, 0x00, 0x40];
/// let mut csum = Checksum::new();
/// csum.add(&data[..3]);
/// csum.add(&data[3..]);
/// assert_eq!(csum.finish(), internet_checksum(&data));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    /// Sum of everything added so far, as native-order words (see the
    /// module doc).  Each add brings at most 32 bits, so it cannot
    /// overflow.
    sum: u64,
    /// An odd number of stream bytes has been added: the next byte is the
    /// second byte of a 16-bit word.
    odd: bool,
}

impl Checksum {
    /// An empty sum.
    pub const fn new() -> Self {
        Checksum { sum: 0, odd: false }
    }

    /// Adds `data` to the byte stream, continuing where the previous
    /// [`add`](Self::add) or [`add_block`](Self::add_block) left off.
    #[inline]
    pub fn add(&mut self, data: &[u8]) {
        self.add_native(fold(sum_native(data)), data.len());
    }

    /// Adds the sum of a `len`-byte block computed on its own (the
    /// [`sum`](Self::sum) of another accumulator, or a value derived from
    /// a stored checksum) as if the block's bytes were added here with
    /// [`add`](Self::add).
    #[inline]
    pub fn add_block(&mut self, sum: u16, len: usize) {
        self.add_native(to_native(sum), len);
    }

    /// Adds one 16-bit word, as read big-endian from the wire.  The word
    /// stands apart from the byte stream: it does not change where the
    /// next [`add`](Self::add) lands.
    #[inline]
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u64::from(to_native(word));
    }

    /// Adds the TCP/UDP pseudo header: source and destination address,
    /// protocol and the transport segment's length.  Like
    /// [`add_u16`](Self::add_u16) it stands apart from the byte stream.
    #[inline]
    pub fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: usize) {
        for word in [src.octets(), dst.octets(), [0, 0, 0, protocol]] {
            self.sum += u64::from(u32::from_ne_bytes(word));
        }
        // The length as a 32-bit quantity: a segment longer than 64 KiB
        // sums the same as when its length is added in two 16-bit halves.
        self.sum += u64::from(u32::from_ne_bytes((len as u32).to_be_bytes()));
    }

    /// The ones'-complement sum of everything added, as a big-endian word
    /// value — not yet complemented.
    #[inline]
    pub fn sum(&self) -> u16 {
        to_native(fold(self.sum))
    }

    /// The checksum: the complement of [`sum`](Self::sum).  A buffer that
    /// carries a correct checksum of itself finishes at 0.
    #[inline]
    pub fn finish(&self) -> u16 {
        !self.sum()
    }

    /// The checksum as UDP sends it: a computed 0 goes out as 0xffff, its
    /// ones'-complement twin, because 0 means "no checksum" (RFC 768).
    #[inline]
    pub fn finish_udp(&self) -> u16 {
        match self.finish() {
            0 => 0xffff,
            csum => csum,
        }
    }

    /// Adds a native-order block sum for `len` stream bytes, swapping it
    /// when the block starts at an odd offset (RFC 1071 §2(B)).
    #[inline]
    fn add_native(&mut self, sum: u16, len: usize) {
        let sum = if self.odd { sum.swap_bytes() } else { sum };
        self.sum += u64::from(sum);
        self.odd ^= len % 2 == 1;
    }
}

/// Computes the 16-bit ones'-complement Internet checksum over `data`.
///
/// # Examples
///
/// ```
/// use newt_net::wire::internet_checksum;
///
/// // A buffer followed by its own checksum sums to zero.
/// let mut header = vec![0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01, 0x00, 0x00];
/// let csum = internet_checksum(&header);
/// header[10] = (csum >> 8) as u8;
/// header[11] = (csum & 0xff) as u8;
/// assert_eq!(internet_checksum(&header), 0);
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut csum = Checksum::new();
    csum.add(data);
    csum.finish()
}

/// Computes the TCP/UDP checksum, which covers a pseudo header (source and
/// destination address, protocol, segment length) in addition to the segment
/// itself.
pub fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut csum = Checksum::new();
    csum.add_pseudo_header(src, dst, protocol, segment.len());
    csum.add(segment);
    csum.finish()
}

/// Converts between a big-endian word value and the same two bytes read in
/// native order; the conversion is its own inverse.
#[inline]
fn to_native(word: u16) -> u16 {
    u16::from_ne_bytes(word.to_be_bytes())
}

/// Folds a wide native-order sum to 16 bits, carries added back in.
#[inline]
fn fold(sum: u64) -> u16 {
    let sum = (sum & 0xffff_ffff) + (sum >> 32);
    let sum = (sum & 0xffff_ffff) + (sum >> 32);
    let sum = (sum & 0xffff) + (sum >> 16);
    let sum = (sum & 0xffff) + (sum >> 16);
    sum as u16
}

/// The sum of `data`'s native-order 16-bit words (the last byte padded
/// with zero), partly folded.
#[inline]
fn sum_native(data: &[u8]) -> u64 {
    // Headers are shorter than a block: they skip setting up the lanes.
    if data.len() < 64 {
        sum_short(data)
    } else {
        sum_blocks(data)
    }
}

/// The kernel, for inputs of at least one 64-byte block: one source,
/// [`sum_blocks_body`], built twice — with AVX2's 256-bit adds for CPUs
/// that have them, and for the baseline target — and picked per call from
/// std's cached CPU feature check.
#[inline]
fn sum_blocks(data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the one feature the build enables.
        return unsafe { sum_blocks_avx2(data) };
    }
    sum_blocks_portable(data)
}

/// [`sum_blocks_body`] built for the baseline target.
fn sum_blocks_portable(data: &[u8]) -> u64 {
    sum_blocks_body(data)
}

/// [`sum_blocks_body`] built with AVX2.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_blocks_avx2(data: &[u8]) -> u64 {
    sum_blocks_body(data)
}

/// The kernel's one source: 32-bit words into sixteen lanes, one 64-byte
/// block at a time.  Inlined into each build, which vectorizes it with the
/// instructions that build may use.
#[inline(always)]
fn sum_blocks_body(data: &[u8]) -> u64 {
    // A lane takes one 32-bit word per 64-byte block, so the sixteen lanes
    // of a 1 GiB run add up to less than 2^60; longer inputs are summed a
    // run at a time.
    const RUN: usize = 1 << 30;
    let mut sum = 0u64;
    for run in data.chunks(RUN) {
        let mut lanes = [0u64; 16];
        let mut blocks = run.chunks_exact(64);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *lane += u64::from(u32::from_ne_bytes([word[0], word[1], word[2], word[3]]));
            }
        }
        sum += u64::from(fold(lanes.iter().sum())) + sum_short(blocks.remainder());
    }
    sum
}

/// The sum of fewer than 64 bytes: 32-bit words, then a last 16-bit word
/// and byte.
#[inline]
fn sum_short(data: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut words = data.chunks_exact(4);
    for word in &mut words {
        sum += u64::from(u32::from_ne_bytes([word[0], word[1], word[2], word[3]]));
    }
    let mut rest = words.remainder();
    if let [a, b, ..] = *rest {
        sum += u64::from(u16::from_ne_bytes([a, b]));
        rest = &rest[2..];
    }
    if let [last] = *rest {
        sum += u64::from(u16::from_ne_bytes([last, 0]));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The checksum as the RFC writes it: big-endian 16-bit words into a
    /// `u64`, folded at the end.  What the kernel is checked against.
    fn reference(data: &[u8], mut sum: u64) -> u16 {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let Some(&last) = chunks.remainder().first() {
            sum += u64::from(u16::from_be_bytes([last, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = internet_checksum(&data);
        assert_eq!(sum, !0xddf2);
    }

    #[test]
    fn empty_buffer_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_is_padded() {
        let even = internet_checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    #[test]
    fn buffer_including_own_checksum_verifies_to_zero() {
        let mut data = vec![0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x00, 0x00];
        let csum = internet_checksum(&data);
        data[6] = (csum >> 8) as u8;
        data[7] = (csum & 0xff) as u8;
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn kernel_matches_the_reference_at_every_length_and_alignment() {
        let buffer = noise(2048 + 8, 1);
        for start in 0..8 {
            for len in 0..=2048 {
                let data = &buffer[start..start + len];
                assert_eq!(
                    internet_checksum(data),
                    reference(data, 0),
                    "start {start}, length {len}"
                );
            }
        }
        // Words of all ones carry on every add: the lanes' end-around
        // carries must come out the same.
        for len in [31, 32, 33, 1459, 1460, 65_536] {
            let ones = vec![0xffu8; len];
            assert_eq!(internet_checksum(&ones), reference(&ones, 0), "{len}");
        }
    }

    #[test]
    fn both_builds_of_the_kernel_agree_with_the_reference() {
        let avx2 = cfg!(target_arch = "x86_64") && std::is_x86_feature_detected!("avx2");
        let finish = |sum: u64| !to_native(fold(sum));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let noisy = noise(9_000 + 8, 5);
        let ones = vec![0xffu8; 9_000 + 8];
        for round in 0..1_000 {
            let buffer = if round % 8 == 0 { &ones } else { &noisy };
            let start = rng.gen_range(0..8);
            let data = &buffer[start..start + rng.gen_range(0..9_001)];
            let want = reference(data, 0);
            let at = format!("round {round}, start {start}, length {}", data.len());
            assert_eq!(finish(sum_blocks_portable(data)), want, "portable, {at}");
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: the CPU has AVX2.
                assert_eq!(finish(unsafe { sum_blocks_avx2(data) }), want, "avx2, {at}");
            }
            // The dispatched kernel, fed in odd-length pieces.
            let mut pieces = Checksum::new();
            let mut from = 0;
            while from < data.len() {
                let to = (from + 2 * rng.gen_range(0..800) + 1).min(data.len());
                pieces.add(&data[from..to]);
                from = to;
            }
            assert_eq!(pieces.finish(), want, "pieces, {at}");
        }
    }

    #[test]
    fn adding_in_pieces_equals_adding_at_once() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for round in 0..500 {
            let data = noise(rng.gen_range(0..3000), round);
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..data.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut pieces = Checksum::new();
            let mut blocks = Checksum::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                pieces.add(&data[at..cut]);
                // The same piece summed on its own and added as a block.
                let mut own = Checksum::new();
                own.add(&data[at..cut]);
                blocks.add_block(own.sum(), cut - at);
                at = cut;
            }
            let whole = internet_checksum(&data);
            assert_eq!(pieces.finish(), whole, "round {round}");
            assert_eq!(blocks.finish(), whole, "round {round}");
        }
    }

    #[test]
    fn a_mebibyte_of_ones_sums_without_overflow() {
        // 2^19 words of 0xffff: the old `u32` accumulator overflowed
        // after 2^16 of them.
        let ones = vec![0xffu8; 1 << 20];
        assert_eq!(internet_checksum(&ones), 0);
        assert_eq!(internet_checksum(&ones), reference(&ones, 0));
        let src = Ipv4Addr::new(255, 255, 255, 255);
        let sum = pseudo_header_checksum(src, src, 0xff, &ones);
        let mut pseudo = 0u64;
        for word in [0xffff, 0xffff, 0xffff, 0xffff, 0x00ff, 0x0010, 0x0000] {
            pseudo += word;
        }
        assert_eq!(sum, reference(&ones, pseudo));
    }

    #[test]
    fn pseudo_header_matches_the_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for round in 0..200 {
            let src = Ipv4Addr::from(rng.gen::<u32>());
            let dst = Ipv4Addr::from(rng.gen::<u32>());
            let protocol = rng.gen::<u8>();
            let segment = noise(rng.gen_range(0..2000), round);
            let mut pseudo = 0u64;
            for pair in src.octets().chunks(2).chain(dst.octets().chunks(2)) {
                pseudo += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
            }
            pseudo += u64::from(protocol) + segment.len() as u64;
            assert_eq!(
                pseudo_header_checksum(src, dst, protocol, &segment),
                reference(&segment, pseudo),
                "round {round}"
            );
            let mut words = Checksum::new();
            for pair in src.octets().chunks(2).chain(dst.octets().chunks(2)) {
                words.add_u16(u16::from_be_bytes([pair[0], pair[1]]));
            }
            words.add_u16(u16::from(protocol));
            words.add_u16(segment.len() as u16);
            words.add(&segment);
            assert_eq!(words.finish(), reference(&segment, pseudo), "round {round}");
        }
    }

    #[test]
    fn pseudo_header_differs_by_address() {
        let seg = [0u8; 20];
        let a = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            6,
            &seg,
        );
        let b = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 3),
            6,
            &seg,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn pseudo_header_differs_by_protocol() {
        let seg = [1u8; 8];
        let tcp = pseudo_header_checksum(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            6,
            &seg,
        );
        let udp = pseudo_header_checksum(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            17,
            &seg,
        );
        assert_ne!(tcp, udp);
    }
}
