//! Page-aligned read buffers with pooled reuse.
//!
//! The streamed engines read the same sub-shard files every iteration;
//! allocating a fresh `Vec<u8>` per read both churns the allocator and
//! hands back 1-byte-aligned memory that the zero-copy views cannot cast
//! to typed slices. [`BufferPool`] recycles page-aligned buffers instead:
//! a read borrows a buffer, the decoded view holds it (shared via `Arc`),
//! and the buffer returns to the pool when the last reference drops.
//!
//! Alignment comes from a `#[repr(align(4096))]` page type — a `Vec` of
//! pages is page-aligned by construction, with no `libc`/allocator tricks.
//! [`SharedBytes`] is the common currency handed to decoders: either a
//! pooled buffer or an `Arc<Vec<u8>>` taken straight from a [`MemDisk`]
//! file with no copy at all.
//!
//! [`MemDisk`]: crate::disk::MemDisk

use std::sync::Arc;

use parking_lot::Mutex;

/// Buffer alignment (one x86-64 page).
pub const PAGE_SIZE: usize = 4096;

/// One page of bytes; the alignment carrier for [`AlignedBuf`].
#[repr(C, align(4096))]
#[derive(Clone, Copy)]
struct Page([u8; PAGE_SIZE]);

const ZERO_PAGE: Page = Page([0u8; PAGE_SIZE]);

/// A growable byte buffer whose storage is always page-aligned.
pub struct AlignedBuf {
    pages: Vec<Page>,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer with capacity for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            pages: Vec::with_capacity(bytes.div_ceil(PAGE_SIZE)),
            len: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bytes (whole pages).
    pub fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Resize to `len` bytes, growing by whole zeroed pages as needed.
    /// Existing page contents are retained (callers overwrite them).
    pub fn resize(&mut self, len: usize) {
        let pages = len.div_ceil(PAGE_SIZE);
        if pages > self.pages.len() {
            self.pages.resize(pages, ZERO_PAGE);
        }
        self.len = len;
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        // Safety: `Page` is a plain byte array (no padding, no invalid bit
        // patterns) and `len <= pages.len() * PAGE_SIZE` by construction.
        unsafe { std::slice::from_raw_parts(self.pages.as_ptr().cast::<u8>(), self.len) }
    }

    /// The bytes as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // Safety: as in `as_slice`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.pages.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

/// How many idle buffers a [`BufferPool`] retains. Streaming engines have
/// at most the read-pipeline ring depth + one buffer in flight per consumer;
/// a small cap bounds idle memory while still avoiding steady-state
/// allocation.
const MAX_POOLED: usize = 8;

/// A free-list of [`AlignedBuf`]s shared between the engine thread and the
/// read pipeline's workers.
#[derive(Default)]
pub struct BufferPool {
    free: Mutex<Vec<AlignedBuf>>,
}

impl BufferPool {
    /// A fresh, empty pool behind an `Arc` (buffers hold a handle back to
    /// the pool so they can return themselves on drop).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Borrow a buffer resized to `len` bytes (contents unspecified; the
    /// caller fills it). Reuses the largest idle buffer, else allocates.
    pub fn take(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut buf = self
            .free
            .lock()
            .pop()
            .unwrap_or_else(|| AlignedBuf::with_capacity(len));
        buf.resize(len);
        PooledBuf {
            buf: Some(buf),
            pool: Arc::clone(self),
        }
    }

    fn put(&self, buf: AlignedBuf) {
        let mut free = self.free.lock();
        if free.len() < MAX_POOLED {
            // Keep the largest buffers: sort insertion point by capacity so
            // `pop` above reuses the biggest first and small early buffers
            // age out.
            let at = free.partition_point(|b| b.capacity() <= buf.capacity());
            free.insert(at, buf);
        }
    }
}

/// A buffer borrowed from a [`BufferPool`]; returns itself on drop.
pub struct PooledBuf {
    buf: Option<AlignedBuf>,
    pool: Arc<BufferPool>,
}

impl PooledBuf {
    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_ref().expect("present until drop").as_slice()
    }

    /// The bytes as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf.as_mut().expect("present until drop").as_mut_slice()
    }

    /// The underlying aligned buffer, for APIs that fill it in place
    /// (e.g. [`Disk::read_into`](crate::disk::Disk::read_into)).
    pub fn aligned_mut(&mut self) -> &mut AlignedBuf {
        self.buf.as_mut().expect("present until drop")
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.as_ref().expect("present until drop").len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.put(buf);
        }
    }
}

/// Shared immutable bytes backing a zero-copy view.
///
/// Cloning is reference-counted; the underlying storage is freed (pooled
/// buffers: returned to their pool) when the last clone drops.
#[derive(Clone)]
pub enum SharedBytes {
    /// A page-aligned buffer borrowed from a [`BufferPool`] — the disk
    /// read path.
    Pooled(Arc<PooledBuf>),
    /// Bytes shared directly from an in-memory file ([`MemDisk`]) — no
    /// copy was made. Alignment is whatever the allocator gave the vector
    /// (word-aligned on all supported allocators; views re-check anyway).
    ///
    /// [`MemDisk`]: crate::disk::MemDisk
    Owned(Arc<Vec<u8>>),
}

impl SharedBytes {
    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            SharedBytes::Pooled(b) => b.as_slice(),
            SharedBytes::Owned(v) => v.as_slice(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        SharedBytes::Owned(Arc::new(v))
    }
}

impl From<Arc<Vec<u8>>> for SharedBytes {
    fn from(v: Arc<Vec<u8>>) -> Self {
        SharedBytes::Owned(v)
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            SharedBytes::Pooled(_) => "Pooled",
            SharedBytes::Owned(_) => "Owned",
        };
        write!(f, "SharedBytes::{kind}({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_page_aligned_and_resizable() {
        let mut b = AlignedBuf::with_capacity(10);
        assert!(b.is_empty());
        b.resize(PAGE_SIZE + 1);
        assert_eq!(b.len(), PAGE_SIZE + 1);
        assert_eq!(b.capacity(), 2 * PAGE_SIZE);
        assert_eq!(b.as_slice().as_ptr() as usize % PAGE_SIZE, 0);
        b.as_mut_slice()[PAGE_SIZE] = 7;
        // Shrinking keeps the pages; growing again retains contents.
        b.resize(4);
        b.resize(PAGE_SIZE + 1);
        assert_eq!(b.as_slice()[PAGE_SIZE], 7);
    }

    #[test]
    fn pool_reuses_buffers() {
        let pool = BufferPool::new();
        let first = pool.take(100);
        let ptr = first.as_slice().as_ptr();
        drop(first);
        assert_eq!(pool.idle(), 1);
        // Same allocation comes back, resized.
        let again = pool.take(50);
        assert_eq!(again.as_slice().as_ptr(), ptr);
        assert_eq!(again.len(), 50);
        drop(again);
    }

    #[test]
    fn pool_prefers_largest_and_caps_idle() {
        let pool = BufferPool::new();
        let small = pool.take(10);
        let big = pool.take(10 * PAGE_SIZE);
        let big_ptr = big.as_slice().as_ptr();
        drop(small);
        drop(big);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.take(1).as_slice().as_ptr(), big_ptr);
        // Overflow beyond the cap is dropped, not hoarded.
        let many: Vec<_> = (0..2 * MAX_POOLED).map(|_| pool.take(8)).collect();
        drop(many);
        assert!(pool.idle() <= MAX_POOLED);
    }

    #[test]
    fn shared_bytes_variants_expose_the_same_api() {
        let pool = BufferPool::new();
        let mut p = pool.take(3);
        p.as_mut_slice().copy_from_slice(b"abc");
        let pooled = SharedBytes::Pooled(Arc::new(p));
        let owned = SharedBytes::from(b"abc".to_vec());
        for b in [&pooled, &owned] {
            assert_eq!(b.as_slice(), b"abc");
            assert_eq!(b.len(), 3);
            assert!(!b.is_empty());
        }
        // Clones share storage.
        let c = pooled.clone();
        assert_eq!(c.as_slice().as_ptr(), pooled.as_slice().as_ptr());
        drop(pooled);
        drop(c);
        assert_eq!(pool.idle(), 1, "buffer returns when the last clone drops");
    }
}
