//! Rich pointers and scatter-gather chains.
//!
//! Large data never travels through the queues; instead it lives in shared
//! [pools](crate::pool) and is described by *rich pointers* which say in what
//! pool and where in the pool to find it (paper §IV, "Pools").  Packets are
//! passed between servers as *chains* of rich pointers — e.g. a TCP segment
//! is a chunk holding the combined headers followed by one or more payload
//! chunks — the scatter-gather representation modern NICs assemble frames
//! from (paper §V-C, "Zero Copy").

use serde::{Deserialize, Serialize};

/// Identifies a shared memory pool.
///
/// Pool ids are unique for the lifetime of the process; a pool recreated by a
/// restarted server gets a fresh id, so stale rich pointers can never
/// resolve against the wrong pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PoolId(pub(crate) u64);

impl PoolId {
    /// Returns the raw numeric id.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Creates a pool id from a raw value (mainly useful in tests).
    pub const fn from_raw(raw: u64) -> Self {
        PoolId(raw)
    }
}

impl std::fmt::Display for PoolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool:{}", self.0)
    }
}

/// Describes a region of data inside a shared pool chunk.
///
/// A rich pointer is small and `Copy`, so it is cheap to put into queue slots
/// and request databases.  It carries the chunk's *generation* so a consumer
/// holding a pointer across the owner's crash/restart is detected instead of
/// silently reading recycled memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RichPtr {
    /// The pool holding the data.
    pub pool: PoolId,
    /// Index of the chunk inside the pool.
    pub slot: u32,
    /// Generation of the chunk at publication time.
    pub generation: u32,
    /// Byte offset of the region inside the published chunk data.
    pub offset: u32,
    /// Length of the region in bytes.
    pub len: u32,
}

impl RichPtr {
    /// Returns the length of the referenced region in bytes.
    pub const fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the referenced region is empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a rich pointer describing a sub-range of this region.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the region described by `self`.
    #[must_use]
    pub fn slice(&self, offset: u32, len: u32) -> RichPtr {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "sub-range {offset}+{len} exceeds rich pointer length {}",
            self.len
        );
        RichPtr {
            pool: self.pool,
            slot: self.slot,
            generation: self.generation,
            offset: self.offset + offset,
            len,
        }
    }
}

/// Parts a chain stores inline before it spills to the heap: Ethernet/IP/
/// transport header chunk plus up to three payload loans covers every frame
/// the steady state sends.
const INLINE_PARTS: usize = 4;

/// Filler for the unused inline entries.
const NO_PART: RichPtr = RichPtr {
    pool: PoolId(0),
    slot: 0,
    generation: 0,
    offset: 0,
    len: 0,
};

#[derive(Clone)]
enum Parts {
    /// `parts[..len]` are the chain.
    Inline {
        len: u8,
        parts: [RichPtr; INLINE_PARTS],
    },
    Heap(Vec<RichPtr>),
}

/// An ordered chain of rich pointers describing one logical buffer (for
/// example one network packet scattered over header and payload chunks).
///
/// Up to four parts live inside the chain itself, so building, extending,
/// cloning and sending the chains of the packet path are plain copies; only
/// longer chains (a retransmission gathered from many small writes) own
/// heap storage.
///
/// # Examples
///
/// ```
/// use newt_channels::rich::{PoolId, RichChain, RichPtr};
///
/// let hdr = RichPtr { pool: PoolId::from_raw(1), slot: 0, generation: 0, offset: 0, len: 54 };
/// let payload = RichPtr { pool: PoolId::from_raw(2), slot: 3, generation: 1, offset: 0, len: 1446 };
/// let chain: RichChain = [hdr, payload].into_iter().collect();
/// assert_eq!(chain.total_len(), 1500);
/// assert_eq!(chain.parts().len(), 2);
/// ```
#[derive(Clone)]
pub struct RichChain {
    parts: Parts,
}

impl RichChain {
    /// Creates an empty chain.
    pub const fn new() -> Self {
        RichChain {
            parts: Parts::Inline {
                len: 0,
                parts: [NO_PART; INLINE_PARTS],
            },
        }
    }

    /// Creates a chain holding a single region.
    pub fn single(ptr: RichPtr) -> Self {
        let mut chain = RichChain::new();
        chain.push(ptr);
        chain
    }

    /// Appends a region to the end of the chain.
    pub fn push(&mut self, ptr: RichPtr) {
        match &mut self.parts {
            Parts::Inline { len, parts } if (*len as usize) < INLINE_PARTS => {
                parts[*len as usize] = ptr;
                *len += 1;
            }
            Parts::Inline { parts, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_PARTS);
                spilled.extend_from_slice(parts);
                spilled.push(ptr);
                self.parts = Parts::Heap(spilled);
            }
            Parts::Heap(parts) => parts.push(ptr),
        }
    }

    /// Returns the regions of the chain in order.
    pub fn parts(&self) -> &[RichPtr] {
        match &self.parts {
            Parts::Inline { len, parts } => &parts[..*len as usize],
            Parts::Heap(parts) => parts,
        }
    }

    /// Returns the total number of bytes described by the chain.
    pub fn total_len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }

    /// Returns `true` if the chain describes no bytes.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Returns the number of regions (scatter-gather elements).
    pub fn segment_count(&self) -> usize {
        self.parts().len()
    }

    /// Iterates over the regions.
    pub fn iter(&self) -> impl Iterator<Item = &RichPtr> {
        self.parts().iter()
    }
}

impl Default for RichChain {
    fn default() -> Self {
        RichChain::new()
    }
}

impl std::fmt::Debug for RichChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RichChain")
            .field("parts", &self.parts())
            .finish()
    }
}

impl PartialEq for RichChain {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for RichChain {}

/// The encoded shape of a chain — a struct named `RichChain` with one
/// sequence field `parts` — is what it was when the parts lived in a `Vec`:
/// live-update snapshots carry chains.
mod encoded {
    use super::RichPtr;

    #[derive(serde::Deserialize)]
    pub(super) struct RichChain {
        pub(super) parts: Vec<RichPtr>,
    }
}

impl Serialize for RichChain {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("RichChain", 1)?;
        state.serialize_field("parts", self.parts())?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for RichChain {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        encoded::RichChain::deserialize(deserializer).map(|chain| chain.parts.into_iter().collect())
    }
}

impl FromIterator<RichPtr> for RichChain {
    fn from_iter<I: IntoIterator<Item = RichPtr>>(iter: I) -> Self {
        let mut chain = RichChain::new();
        chain.extend(iter);
        chain
    }
}

impl Extend<RichPtr> for RichChain {
    fn extend<I: IntoIterator<Item = RichPtr>>(&mut self, iter: I) {
        for ptr in iter {
            self.push(ptr);
        }
    }
}

/// Owning iterator over a chain's regions.
#[derive(Debug)]
pub struct IntoIter {
    chain: RichChain,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = RichPtr;

    fn next(&mut self) -> Option<RichPtr> {
        let ptr = self.chain.parts().get(self.next).copied()?;
        self.next += 1;
        Some(ptr)
    }
}

impl IntoIterator for RichChain {
    type Item = RichPtr;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            chain: self,
            next: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(pool: u64, slot: u32, len: u32) -> RichPtr {
        RichPtr {
            pool: PoolId::from_raw(pool),
            slot,
            generation: 0,
            offset: 0,
            len,
        }
    }

    #[test]
    fn rich_ptr_length_and_emptiness() {
        let p = ptr(1, 0, 100);
        assert_eq!(p.len(), 100);
        assert!(!p.is_empty());
        assert!(ptr(1, 0, 0).is_empty());
    }

    #[test]
    fn slice_creates_sub_range() {
        let p = ptr(1, 2, 100);
        let s = p.slice(20, 30);
        assert_eq!(s.offset, 20);
        assert_eq!(s.len, 30);
        assert_eq!(s.slot, 2);
        let nested = s.slice(5, 10);
        assert_eq!(nested.offset, 25);
        assert_eq!(nested.len, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn slice_out_of_range_panics() {
        let _ = ptr(1, 0, 10).slice(5, 10);
    }

    #[test]
    fn chain_accumulates_lengths() {
        let mut chain = RichChain::new();
        assert!(chain.is_empty());
        chain.push(ptr(1, 0, 54));
        chain.push(ptr(2, 1, 1446));
        assert_eq!(chain.total_len(), 1500);
        assert_eq!(chain.segment_count(), 2);
        assert!(!chain.is_empty());
    }

    #[test]
    fn chain_collects_and_extends() {
        let mut chain: RichChain = (0..3).map(|i| ptr(1, i, 10)).collect();
        chain.extend([ptr(2, 0, 5)]);
        assert_eq!(chain.total_len(), 35);
        let pools: Vec<u64> = chain.iter().map(|p| p.pool.as_raw()).collect();
        assert_eq!(pools, vec![1, 1, 1, 2]);
    }

    #[test]
    fn chain_into_iterator_round_trip() {
        let original = vec![ptr(1, 0, 4), ptr(1, 1, 8)];
        let chain: RichChain = original.clone().into_iter().collect();
        let back: Vec<RichPtr> = chain.into_iter().collect();
        assert_eq!(back, original);
    }

    #[test]
    fn single_chain() {
        let chain = RichChain::single(ptr(7, 3, 64));
        assert_eq!(chain.segment_count(), 1);
        assert_eq!(chain.total_len(), 64);
    }
}
