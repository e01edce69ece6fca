//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the `bytes` API the workspace uses: [`Bytes`], a
//! cheaply cloneable, reference-counted immutable view of a byte buffer that
//! supports zero-copy slicing, and [`BytesMut`], a growable buffer that can
//! be frozen into a `Bytes` without copying.  `Bytes::try_into_mut` recovers
//! a mutable buffer without copying when the reference is unique — the
//! property the zero-copy frame path relies on to patch checksums in place.
//!
//! # One allocation per buffer
//!
//! A buffer is **one** heap block: a small header (reference count,
//! capacity, frozen length, home shelf) followed by the data.  `BytesMut` owns the block
//! exclusively; [`BytesMut::freeze`] and [`Bytes::try_into_mut`] only change
//! which handle type points at it, [`Bytes::slice`] and `clone` bump the
//! count, and an empty buffer of either type owns no block at all.  So a
//! buffer built through `BytesMut` costs exactly one allocation over its
//! whole life, however often it is frozen, sliced, shared and thawed.
//!
//! …and none when it has an owner: a buffer taken from a [`Shelf`] is a
//! spare block of that shelf whenever one is there, and goes back to it —
//! not to the allocator — when its last handle is dropped, wherever that
//! happens.  See [`Shelf`].

mod shelf;

pub use shelf::Shelf;

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// Head of every buffer block; the data bytes follow it directly.
struct Header {
    /// Handles (`Bytes` views, or the one `BytesMut`) pointing at the block.
    refs: AtomicUsize,
    /// Data bytes the block has room for.
    cap: usize,
    /// Initialised data bytes, recorded by `freeze` for `try_into_mut`'s
    /// covers-everything test (`usize::MAX`, which no view covers, in an
    /// [`Appender`]'s block).  Unused while a `BytesMut` owns the block.
    len: usize,
    /// The shelf the block returns to when its last handle is dropped —
    /// its shared part, which stays allocated while it counts the block as
    /// out; null for a block that is simply freed.
    home: *const shelf::Shared,
}

fn block_layout(cap: usize) -> Layout {
    let size = std::mem::size_of::<Header>()
        .checked_add(cap)
        .expect("buffer capacity overflow");
    Layout::from_size_align(size, std::mem::align_of::<Header>()).expect("buffer capacity overflow")
}

/// Allocates a block with room for `cap > 0` data bytes and one reference.
fn alloc_block(cap: usize) -> NonNull<Header> {
    let layout = block_layout(cap);
    // SAFETY: the layout has non-zero size (it includes the header).
    let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
    let Some(block) = NonNull::new(raw) else {
        alloc::handle_alloc_error(layout)
    };
    // SAFETY: `block` is a fresh allocation sized and aligned for a `Header`.
    unsafe {
        block.as_ptr().write(Header {
            refs: AtomicUsize::new(1),
            cap,
            len: 0,
            home: std::ptr::null(),
        });
    }
    block
}

/// Gives up one counted reference to `block`, letting go of the block with
/// the last.
///
/// # Safety
///
/// The caller must hold a counted reference to `block` and not use it again.
#[inline]
unsafe fn drop_ref(block: NonNull<Header>) {
    // SAFETY: the caller's reference keeps the block live.
    let refs = &unsafe { block.as_ref() }.refs;
    // A count of one is the caller's own reference, and it cannot rise
    // concurrently (cloning needs a handle; this is the only one), so the
    // block is let go without the decrement — the reasoning of
    // `Bytes::try_into_mut`.  `Acquire` pairs with the `Release` decrements
    // of the handles dropped before.
    if refs.load(Ordering::Acquire) != 1 {
        if refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with the `Release` decrements of the other holders: their
        // reads of the data happen before the block is reused or freed.
        atomic::fence(Ordering::Acquire);
    }
    // SAFETY: the caller held the last reference; no handle is left.
    unsafe { release_block(block) };
}

/// Returns the first data byte of `block`.
///
/// # Safety
///
/// `block` must point at a live block from [`alloc_block`].
#[inline]
unsafe fn data_of(block: NonNull<Header>) -> *mut u8 {
    // SAFETY: per the contract the block extends past its header.
    unsafe { block.as_ptr().add(1).cast::<u8>() }
}

/// Frees `block`.
///
/// # Safety
///
/// `block` must come from [`alloc_block`], no handle may use it again, and
/// no shelf may count it as out (it has no home, or its home let it go).
unsafe fn free_block(block: NonNull<Header>) {
    // SAFETY: per the contract the header is live, the caller is the only
    // one who can reach it, and `cap` is the capacity the block was
    // (re)allocated with.
    unsafe {
        let layout = block_layout((*block.as_ptr()).cap);
        alloc::dealloc(block.as_ptr().cast::<u8>(), layout);
    }
}

/// Lets go of `block` after its last handle: home to its shelf if it has
/// one, freed otherwise.
///
/// # Safety
///
/// `block` must come from [`alloc_block`] and no handle may use it again.
#[inline(never)]
unsafe fn release_block(block: NonNull<Header>) {
    // SAFETY: per the contract the header is live and nobody else can reach
    // the block, which is what both callees ask for.
    unsafe {
        if (*block.as_ptr()).home.is_null() {
            free_block(block);
        } else {
            shelf::come_home(block);
        }
    }
}

/// A cheaply cloneable, immutable view of a reference-counted byte buffer.
pub struct Bytes {
    /// First byte of the view (dangling when the view is empty).
    ptr: *const u8,
    len: usize,
    /// The block the view keeps alive; `None` for an empty view.
    block: Option<NonNull<Header>>,
}

// SAFETY: the bytes a `Bytes` covers are never written while it exists (only
// `try_into_mut` hands out write access, and only to the last holder; an
// `Appender` writes behind every view of its block, never under one),
// the reference count is atomic, and the header's `home` is read only by
// the last holder and names a shelf whose shared part is `Sync` (all of it
// behind one mutex), so views may move to and be shared between threads.
unsafe impl Send for Bytes {}
// SAFETY: see `Send`.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// Creates an empty `Bytes`.  Allocates nothing.
    pub const fn new() -> Self {
        Bytes {
            ptr: NonNull::<u8>::dangling().as_ptr(),
            len: 0,
            block: None,
        }
    }

    /// Copies `data` into a new buffer (one allocation).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        BytesMut::from(data).freeze()
    }

    /// Returns the number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Data capacity of the block this view keeps allocated, however
    /// little of it the view covers (a 60-byte frame from a [`Shelf`] sits
    /// in a class-sized block).  Zero for an empty view.
    pub fn block_capacity(&self) -> usize {
        // SAFETY: this view holds a reference, so the block is live.
        self.block.map_or(0, |block| unsafe { block.as_ref() }.cap)
    }

    /// Returns a zero-copy sub-view.  `range` is relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
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
        if begin == end {
            // An empty view pins nothing.
            return Bytes::new();
        }
        let mut view = self.clone();
        // SAFETY: `begin < end <= len`, so the sub-view stays inside the
        // bytes this view covers.
        view.ptr = unsafe { self.ptr.add(begin) };
        view.len = end - begin;
        view
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
        let Some(block) = self.block else {
            return Ok(BytesMut::new());
        };
        // SAFETY: this view holds a reference, so the block is live.
        let (header, data) = unsafe { (block.as_ref(), data_of(block)) };
        // A count of one cannot rise concurrently: cloning needs a view,
        // and this is the only one.  `Acquire` pairs with the `Release`
        // decrement of every view dropped before.
        if self.ptr == data.cast_const()
            && self.len == header.len
            && header.refs.load(Ordering::Acquire) == 1
        {
            let len = self.len;
            std::mem::forget(self);
            return Ok(BytesMut {
                block: Some(block),
                len,
            });
        }
        Err(self)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(block) = self.block {
            // SAFETY: this view holds a reference, so the block is live.
            // `Relaxed` suffices to add a reference through an existing one
            // (as in `Arc`).
            unsafe { block.as_ref() }
                .refs
                .fetch_add(1, Ordering::Relaxed);
        }
        Bytes {
            ptr: self.ptr,
            len: self.len,
            block: self.block,
        }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: this view holds one reference and is gone after this.
            unsafe { drop_ref(block) };
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` lies inside the initialised part of a
        // block this view keeps alive (or is the empty dangling slice).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies the vector into a one-block buffer.  Data paths build in a
    /// [`BytesMut`] instead and never come through here.
    fn from(vec: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&vec)
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(array: [u8; N]) -> Self {
        Bytes::copy_from_slice(&array)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        bytes.to_vec()
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
pub struct BytesMut {
    /// The block this buffer owns exclusively (its count stays 1); `None`
    /// while the buffer has no capacity.
    block: Option<NonNull<Header>>,
    len: usize,
}

// SAFETY: a `BytesMut` is the only handle to its block, like a `Vec<u8>`; the
// shelf its block may return to accepts blocks from any thread (see `Bytes`).
unsafe impl Send for BytesMut {}
// SAFETY: see `Send`; `&BytesMut` only reads.
unsafe impl Sync for BytesMut {}

impl BytesMut {
    /// Creates an empty buffer.  Allocates nothing.
    pub const fn new() -> Self {
        BytesMut {
            block: None,
            len: 0,
        }
    }

    /// Creates an empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            block: (capacity > 0).then(|| alloc_block(capacity)),
            len: 0,
        }
    }

    /// Returns the number of bytes in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the buffer's capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        // SAFETY: a block this buffer points at is live.
        self.block.map_or(0, |block| unsafe { block.as_ref() }.cap)
    }

    /// First data byte (dangling while there is no block).
    #[inline]
    fn data(&self) -> *mut u8 {
        match self.block {
            // SAFETY: a block this buffer points at is live.
            Some(block) => unsafe { data_of(block) },
            None => NonNull::<u8>::dangling().as_ptr(),
        }
    }

    /// Appends `data` to the buffer.
    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.reserve(data.len());
        // SAFETY: `reserve` made room for `data.len()` bytes past `len`, and
        // `data` cannot overlap a block this buffer owns exclusively.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.data().add(self.len), data.len());
        }
        self.len += data.len();
    }

    /// Reserves room for at least `additional` more bytes.  Growth is
    /// amortised (at least doubling), like `Vec`.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if additional > self.capacity() - self.len {
            self.grow(additional);
        }
    }

    /// The slow half of [`reserve`](Self::reserve): moves the buffer into a
    /// block with room for `additional` more bytes.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, additional: usize) {
        let cap = self.capacity();
        let needed = self
            .len
            .checked_add(additional)
            .expect("buffer capacity overflow");
        let new_cap = needed.max(cap.saturating_mul(2)).max(8);
        let block = match self.block {
            None => alloc_block(new_cap),
            Some(old) => {
                let new_layout = block_layout(new_cap);
                // A block that outgrows its class has no shelf to go back to.
                // SAFETY: this buffer is the block's only handle.
                unsafe { shelf::disown(old) };
                // SAFETY: `old` was allocated with `block_layout(cap)` and
                // the new size is a valid layout of the same alignment.
                let raw = unsafe {
                    alloc::realloc(
                        old.as_ptr().cast::<u8>(),
                        block_layout(cap),
                        new_layout.size(),
                    )
                }
                .cast::<Header>();
                let Some(mut block) = NonNull::new(raw) else {
                    alloc::handle_alloc_error(new_layout)
                };
                // SAFETY: `realloc` moved the header along; this buffer is
                // the block's only handle.
                unsafe { block.as_mut() }.cap = new_cap;
                block
            }
        };
        self.block = Some(block);
    }

    /// Resizes the buffer, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        if new_len > self.len {
            let grow = new_len - self.len;
            self.reserve(grow);
            // SAFETY: `reserve` made room for `grow` bytes past `len`.
            unsafe { std::ptr::write_bytes(self.data().add(self.len), value, grow) };
        }
        self.len = new_len;
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Freezes the buffer into an immutable, cheaply cloneable [`Bytes`]
    /// without copying or allocating.
    #[inline]
    pub fn freeze(self) -> Bytes {
        let Some(mut block) = self.block else {
            return Bytes::new();
        };
        let len = self.len;
        std::mem::forget(self);
        if len == 0 {
            // An empty view pins nothing: release the unused capacity.
            // SAFETY: this buffer was the block's only handle.
            unsafe { release_block(block) };
            return Bytes::new();
        }
        // SAFETY: this buffer is the block's only handle until the `Bytes`
        // below takes its reference over.
        unsafe {
            block.as_mut().len = len;
            Bytes {
                ptr: data_of(block),
                len,
                block: Some(block),
            }
        }
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: this buffer is the block's only handle.
            unsafe { release_block(block) };
        }
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(&self[..])
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for BytesMut {}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: the first `len` data bytes are initialised.
        unsafe { std::slice::from_raw_parts(self.data(), self.len) }
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: the first `len` data bytes are initialised and this buffer
        // is the block's only handle.
        unsafe { std::slice::from_raw_parts_mut(self.data(), self.len) }
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
        BytesMut::from(&vec[..])
    }
}

impl From<&[u8]> for BytesMut {
    /// Copies `slice` into a buffer of exactly its size.
    fn from(slice: &[u8]) -> Self {
        let mut buf = BytesMut::with_capacity(slice.len());
        buf.extend_from_slice(slice);
        buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.len())
    }
}

/// An append-only buffer that lends out views of what it has written while
/// it keeps writing behind them — a send queue's tail: the transport holds
/// views of the bytes it has drained, the application's next write lands in
/// the same block right after them, and a later drain is one contiguous
/// view of both.
///
/// It never moves or rewrites a byte it has written and never reallocates,
/// so a view stays valid and bit-stable for as long as it lives; no view of
/// its block can be thawed ([`Bytes::try_into_mut`]), during the appender's
/// life or after.
pub struct Appender {
    /// The block appended to, on which this appender holds one reference;
    /// `None` while it has no capacity.
    block: Option<NonNull<Header>>,
    /// Bytes written: `[0, len)` is initialised and frozen, `[len, cap)` is
    /// this appender's alone.
    len: usize,
}

// SAFETY: the appender is the only writer of its block and writes only
// bytes no view covers; the count it shares with the views is atomic, and
// the block's shelf accepts it from any thread (see `Bytes`).
unsafe impl Send for Appender {}
// SAFETY: see `Send`; `&Appender` only reads frozen bytes and adds views.
unsafe impl Sync for Appender {}

impl Appender {
    /// Creates an appender without capacity.  Allocates nothing.
    pub const fn new() -> Self {
        Appender {
            block: None,
            len: 0,
        }
    }

    /// Returns the number of bytes written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the capacity of the block (fixed: an appender never grows).
    #[inline]
    pub fn capacity(&self) -> usize {
        // SAFETY: this appender holds a reference, so the block is live.
        self.block.map_or(0, |block| unsafe { block.as_ref() }.cap)
    }

    /// Returns how many more bytes fit.
    #[inline]
    pub fn room(&self) -> usize {
        self.capacity() - self.len
    }

    /// Appends `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`Appender::room`].
    #[inline]
    pub fn append(&mut self, data: &[u8]) {
        assert!(data.len() <= self.room(), "append beyond the block");
        let Some(block) = self.block else { return };
        // SAFETY: `[len, len + data.len())` lies inside the block (checked
        // above), no view covers it (views end at `len` at the latest) and
        // this appender is the block's only writer, so the bytes are
        // exclusively ours whatever the reference count; `data` cannot
        // overlap them for the same reason.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), data_of(block).add(self.len), data.len());
        }
        self.len += data.len();
    }

    /// Returns a zero-copy view of written bytes; appending goes on behind
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches beyond the bytes written.
    #[inline]
    pub fn view(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len);
        let Some(block) = self.block.filter(|_| !range.is_empty()) else {
            return Bytes::new();
        };
        // SAFETY: this appender holds a reference, so the block is live; as
        // in `Bytes::clone`, `Relaxed` suffices to add one through it.
        unsafe { block.as_ref() }
            .refs
            .fetch_add(1, Ordering::Relaxed);
        Bytes {
            // SAFETY: the range lies inside the written part of the block.
            ptr: unsafe { data_of(block).add(range.start) },
            len: range.len(),
            block: Some(block),
        }
    }
}

impl Default for Appender {
    fn default() -> Self {
        Appender::new()
    }
}

impl From<BytesMut> for Appender {
    /// Takes the buffer's block over, appending after what it holds.
    fn from(buf: BytesMut) -> Self {
        let appender = Appender {
            block: buf.block,
            len: buf.len,
        };
        std::mem::forget(buf);
        if let Some(mut block) = appender.block {
            // SAFETY: the buffer was the block's only handle, and no view
            // exists before this appender makes one.
            unsafe { block.as_mut() }.len = usize::MAX;
        }
        appender
    }
}

impl Drop for Appender {
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: this appender holds one reference and is gone after
            // this.
            unsafe { drop_ref(block) };
        }
    }
}

impl Deref for Appender {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self.block {
            // SAFETY: the first `len` data bytes are initialised and never
            // written again.
            Some(block) => unsafe { std::slice::from_raw_parts(data_of(block), self.len) },
            None => &[],
        }
    }
}

impl fmt::Debug for Appender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Appender(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(b: &Bytes) -> usize {
        // SAFETY: `b` keeps its block alive.
        unsafe { b.block.expect("non-empty view").as_ref() }
            .refs
            .load(Ordering::Relaxed)
    }

    #[test]
    fn slice_is_zero_copy_and_relative() {
        let b = Bytes::from(b"0123456789".to_vec());
        let mid = b.slice(2..8);
        assert_eq!(&mid[..], b"234567");
        let sub = mid.slice(1..3);
        assert_eq!(&sub[..], b"34");
        assert_eq!(refs(&b), 3);
        assert_eq!(sub.as_ptr(), b[3..].as_ptr());
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
        let at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), at);
        // Unique reference: recovered without copy.
        let mut m = b.try_into_mut().expect("unique");
        assert_eq!(m.as_ptr(), at);
        assert_eq!(m.capacity(), 8);
        m[0] = b'x';
        let b = m.freeze();
        assert_eq!(&b[..], b"xbc");
        // Shared reference: refused.
        let b2 = b.clone();
        assert!(b.try_into_mut().is_err());
        assert_eq!(&b2[..], b"xbc");
        // Unique again once the other view is gone.
        assert!(b2.try_into_mut().is_ok());
    }

    #[test]
    fn sliced_view_cannot_become_mut() {
        let b = Bytes::from(b"hello".to_vec());
        let s = b.slice(1..4);
        drop(b);
        assert!(s.try_into_mut().is_err());
        let b = Bytes::from(b"hello".to_vec());
        let prefix = b.slice(..4);
        drop(b);
        assert!(prefix.try_into_mut().is_err());
    }

    #[test]
    fn empty_views_pin_nothing() {
        let b = Bytes::from(b"hello".to_vec());
        let empty = b.slice(2..2);
        assert!(empty.is_empty());
        assert_eq!(refs(&b), 1);
        assert!(BytesMut::with_capacity(64).freeze().block.is_none());
        assert!(Bytes::new().try_into_mut().expect("empty").is_empty());
    }

    #[test]
    fn growth_preserves_contents_and_resize_fills() {
        let mut m = BytesMut::new();
        for i in 0..1000u32 {
            m.extend_from_slice(&i.to_be_bytes());
        }
        assert_eq!(m.len(), 4000);
        assert!(m.capacity() >= 4000);
        for i in 0..1000u32 {
            let at = i as usize * 4;
            assert_eq!(m[at..at + 4], i.to_be_bytes());
        }
        m.resize(4004, 0xee);
        assert_eq!(m[4000..], [0xee; 4]);
        m.resize(2, 0);
        assert_eq!(&m[..], &[0, 0]);
        let copy = m.clone();
        assert_eq!(copy, m);
        assert_ne!(copy.as_ptr(), m.as_ptr());
        m.clear();
        assert!(m.is_empty());
        assert!(m.capacity() >= 4000);
    }

    #[test]
    fn views_are_shared_across_threads() {
        let b = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let view = b.slice(t * 64..(t + 1) * 64);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let again = view.clone();
                        assert_eq!(again[0], (t * 64) as u8);
                    }
                });
            }
        });
        assert_eq!(refs(&b), 1);
        assert!(b.try_into_mut().is_ok());
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(b"xy".to_vec());
        assert_eq!(b, vec![b'x', b'y']);
        assert_eq!(b, *b"xy".as_slice());
        assert_eq!(b.slice(..), b);
    }
}
