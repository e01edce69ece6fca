//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the `bytes` API the workspace uses: [`Bytes`], a
//! cheaply cloneable, reference-counted immutable view of a byte buffer that
//! supports zero-copy slicing, and [`BytesMut`], a growable buffer that can
//! be frozen into a `Bytes` without copying.  `Bytes::try_into_mut` recovers
//! a mutable buffer without copying when the reference is unique — the
//! property the zero-copy frame path relies on to patch checksums in place.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view of a reference-counted byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Returns the number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-view.  `range` is relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice starts after it ends: {begin} > {end}");
        assert!(end <= len, "slice out of bounds: {end} > {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Returns the zero-copy sub-view that covers `subset`, a slice borrowed
    /// from this view (e.g. the payload a parser found inside a frame).
    ///
    /// # Panics
    ///
    /// Panics if `subset` does not lie within this view.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len(),
            "slice_ref: subset is not contained in the view"
        );
        let begin = sub - base;
        self.slice(begin..begin + subset.len())
    }

    /// Converts back into a mutable buffer **without copying** when this is
    /// the only reference to the underlying allocation and the view covers
    /// it entirely; otherwise hands `self` back.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        if self.start == 0 && self.end == self.data.len() {
            match Arc::try_unwrap(self.data) {
                Ok(vec) => return Ok(BytesMut { vec }),
                Err(data) => {
                    return Err(Bytes {
                        start: 0,
                        end: data.len(),
                        data,
                    })
                }
            }
        }
        Err(self)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        let end = vec.len();
        Bytes {
            data: Arc::new(vec),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(array: [u8; N]) -> Self {
        Bytes::from(array.to_vec())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        match bytes.try_into_mut() {
            Ok(m) => m.vec,
            Err(b) => b.to_vec(),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`] without copying.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(capacity),
        }
    }

    /// Returns the number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Returns the buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Appends `data` to the buffer.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Resizes the buffer, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Splits the buffer into two at `at`: returns a buffer holding
    /// `[0, at)` and leaves `[at, len)` in `self`.  The returned front
    /// keeps its allocation; only the tail moves, so draining a send
    /// queue to (or near) empty costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.vec.len(), "split_to out of bounds: {at}");
        let tail = self.vec.split_off(at);
        BytesMut {
            vec: std::mem::replace(&mut self.vec, tail),
        }
    }

    /// Freezes the buffer into an immutable, cheaply cloneable [`Bytes`]
    /// without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> Self {
        BytesMut { vec }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(slice: &[u8]) -> Self {
        BytesMut {
            vec: slice.to_vec(),
        }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_and_relative() {
        let b = Bytes::from(b"0123456789".to_vec());
        let mid = b.slice(2..8);
        assert_eq!(&mid[..], b"234567");
        let sub = mid.slice(1..3);
        assert_eq!(&sub[..], b"34");
        assert_eq!(Arc::strong_count(&b.data), 3);
    }

    #[test]
    fn slice_ref_recovers_a_borrowed_subslice() {
        let b = Bytes::from(b"header|payload".to_vec());
        let view = b.slice(1..);
        let payload = &view[6..];
        let shared = view.slice_ref(payload);
        assert_eq!(&shared[..], b"payload");
        assert_eq!(shared.as_ptr(), payload.as_ptr());
        assert!(view.slice_ref(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::from(b"abc".to_vec());
        let other = [b'a'; 3];
        let _ = b.slice_ref(&other);
    }

    #[test]
    fn freeze_then_try_into_mut_round_trip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abc");
        let b = m.freeze();
        // Unique reference: recovered without copy.
        let mut m = b.try_into_mut().expect("unique");
        m[0] = b'x';
        let b = m.freeze();
        assert_eq!(&b[..], b"xbc");
        // Shared reference: refused.
        let b2 = b.clone();
        assert!(b.try_into_mut().is_err());
        assert_eq!(&b2[..], b"xbc");
    }

    #[test]
    fn sliced_view_cannot_become_mut() {
        let b = Bytes::from(b"hello".to_vec());
        let s = b.slice(1..4);
        drop(b);
        assert!(s.try_into_mut().is_err());
    }

    #[test]
    fn split_to_keeps_front_allocation_and_leaves_tail() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdef");
        let front = m.split_to(4);
        assert_eq!(&front[..], b"abcd");
        assert_eq!(&m[..], b"ef");
        m.extend_from_slice(b"gh");
        assert_eq!(&m[..], b"efgh");
        // Full drain: tail is empty, nothing is copied.
        let rest = m.split_to(4);
        assert_eq!(&rest[..], b"efgh");
        assert!(m.is_empty());
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(b"xy".to_vec());
        assert_eq!(b, vec![b'x', b'y']);
        assert_eq!(b, *b"xy".as_slice());
        assert_eq!(b.slice(..), b);
    }
}
