//! Disk abstraction with byte-exact accounting.
//!
//! All NXgraph engines (and the baseline engines) move data exclusively
//! through [`Disk`], so every byte of graph traffic is observable via the
//! disk's [`IoCounters`]. Three implementations are provided:
//!
//! * [`OsDisk`] — a directory of real files, buffered sequential streams;
//!   opt-in `O_DIRECT` reads via [`DiskConfig`] / [`OsDisk::open_direct`]
//!   (falling back cleanly where the filesystem refuses them), plus
//!   [`OsDisk::drop_page_cache`] for cold-cache measurement.
//! * [`MemDisk`] — an in-memory file map, used by the test-suite and to run
//!   experiments on a "RAM disk" profile without touching the filesystem.
//! * [`CrashDisk`] — wraps another disk and records every mutating
//!   operation so any prefix (including a torn final write) can be
//!   replayed: the power-loss simulator behind `tests/crash_sim.rs`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::counter::IoCounters;
use crate::error::{StorageError, StorageResult};
use crate::pool::{AlignedBuf, BufferPool, SharedBytes, PAGE_SIZE};
use crate::profile::IoProfile;

/// The Linux `O_DIRECT` open flag on architectures where we know its
/// value (the asm-generic `0o40000`, shared by x86, x86-64, aarch64 and
/// riscv64). `None` elsewhere: the direct path simply reports itself
/// unsupported and the buffered path serves every read.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86",
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
const O_DIRECT_FLAG: Option<i32> = Some(0o40000);
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86",
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
const O_DIRECT_FLAG: Option<i32> = None;

/// `posix_fadvise(2)` advice value for "this data will not be needed".
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const POSIX_FADV_DONTNEED: i32 = 4;

// std already links libc; declaring the symbol directly avoids a crate
// dependency the container cannot fetch. 64-bit Linux only, where
// `off_t` is unambiguously `i64`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
}

/// How an [`OsDisk`] performs reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskConfig {
    /// Attempt `O_DIRECT` whole-file reads, bypassing the page cache.
    /// Requires page-aligned buffers (which [`AlignedBuf`] guarantees);
    /// on filesystems that refuse the flag (tmpfs, most network
    /// filesystems) the disk falls back to buffered reads permanently
    /// and counts the fallback in its [`IoProfile`].
    pub direct_reads: bool,
}

/// Read the full advertised length of `r` into `buf`, reporting a
/// truncated stream as [`StorageError::ShortRead`] (file name plus
/// expected/actual byte counts) rather than a bare I/O error.
fn read_full(r: &mut dyn DiskRead, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
    let expected = r.len();
    buf.resize(expected as usize);
    let mut filled = 0usize;
    while filled < expected as usize {
        match r.read(&mut buf.as_mut_slice()[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if filled as u64 != expected {
        return Err(StorageError::ShortRead {
            name: name.to_string(),
            expected,
            actual: filled as u64,
        });
    }
    Ok(())
}

/// A sequential reader handed out by a [`Disk`].
pub trait DiskRead: Read + Send {
    /// Total length of the underlying file in bytes.
    fn len(&self) -> u64;

    /// Whether the underlying file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read the remainder of the stream into a vector.
    fn read_to_vec(&mut self) -> StorageResult<Vec<u8>> {
        let mut buf = Vec::with_capacity(self.len() as usize);
        self.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

/// A sequential writer handed out by a [`Disk`].
pub trait DiskWrite: Write + Send {
    /// Flush and durably commit the file. Must be called; dropping without
    /// finishing may discard buffered data on some implementations.
    fn finish(self: Box<Self>) -> StorageResult<()>;
}

/// A named collection of sequentially-accessed files with shared I/O
/// accounting.
///
/// The trait is object-safe; engines hold `Arc<dyn Disk>` so the same code
/// runs against real files, memory, or a fault injector.
pub trait Disk: Send + Sync {
    /// Create (or truncate) a file and return a sequential writer over it.
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>>;

    /// Open an existing file for sequential reading from the start.
    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>>;

    /// Whether a file with this name exists.
    fn exists(&self, name: &str) -> bool;

    /// Length of the named file in bytes.
    fn len_of(&self, name: &str) -> StorageResult<u64>;

    /// Delete a file.
    fn remove(&self, name: &str) -> StorageResult<()>;

    /// Atomically move `from` over `to` (replacing it if present). The
    /// default implementation is copy + delete — correct but *not* atomic;
    /// [`OsDisk`] and [`MemDisk`] override it with a true atomic move, which
    /// is what makes the manifest's tmp-then-rename save a real commit
    /// point.
    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        let data = self.read_all(from)?;
        self.write_all_to(to, &data)?;
        self.remove(from)
    }

    /// Names of all files currently on the disk, in unspecified order.
    fn list(&self) -> Vec<String>;

    /// The shared traffic counters for this disk.
    fn counters(&self) -> &Arc<IoCounters>;

    /// Convenience: read an entire file into memory.
    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        self.open(name)?.read_to_vec()
    }

    /// Read an entire file into a caller-supplied page-aligned buffer,
    /// resizing it to the file length. The reusable-buffer primitive
    /// behind [`Disk::read_shared`]. A stream shorter than its advertised
    /// length surfaces as [`StorageError::ShortRead`] — truncation is
    /// corruption, not a retryable I/O hiccup.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        let mut r = self.open(name)?;
        read_full(&mut *r, name, buf)
    }

    /// The per-path I/O statistics of this disk, when it keeps them.
    /// Only disks doing real kernel I/O ([`OsDisk`]) have a meaningful
    /// profile; in-memory disks return `None`. Wrappers delegate.
    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        None
    }

    /// Read an entire file into shared bytes suitable for zero-copy
    /// decoding, borrowing a page-aligned buffer from `pool` and filling
    /// it via [`Disk::read_into`] (so an implementation overriding
    /// `read_into` — e.g. a future mmap-backed disk — feeds this too).
    ///
    /// Counts exactly the same bytes as [`Disk::read_all`]. In-memory
    /// disks override this to hand out their stored bytes directly with
    /// no copy at all.
    fn read_shared(&self, name: &str, pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        let mut buf = pool.take(0);
        self.read_into(name, buf.aligned_mut())?;
        Ok(SharedBytes::Pooled(Arc::new(buf)))
    }

    /// Convenience: write an entire buffer as a file.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let mut w = self.create(name)?;
        w.write_all(data).map_err(StorageError::from)?;
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// OsDisk
// ---------------------------------------------------------------------------

/// A [`Disk`] backed by a directory of real files.
pub struct OsDisk {
    root: PathBuf,
    counters: Arc<IoCounters>,
    config: DiskConfig,
    profile: Arc<IoProfile>,
    /// Latched once the filesystem refuses `O_DIRECT`; later reads skip
    /// the doomed attempt instead of paying a failed open per file.
    direct_broken: AtomicBool,
}

impl OsDisk {
    /// Open (creating if necessary) a disk rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> StorageResult<Self> {
        Self::with_config(root, DiskConfig::default())
    }

    /// Open a disk rooted at `root` with explicit read-path configuration.
    pub fn with_config(root: impl Into<PathBuf>, config: DiskConfig) -> StorageResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            counters: IoCounters::new(),
            config,
            profile: IoProfile::new(),
            direct_broken: AtomicBool::new(false),
        })
    }

    /// Open a disk that reads through `O_DIRECT` where the platform and
    /// filesystem allow it, falling back to buffered reads (and counting
    /// the fallback) where they don't.
    pub fn open_direct(root: impl Into<PathBuf>) -> StorageResult<Self> {
        Self::with_config(
            root,
            DiskConfig {
                direct_reads: true,
            },
        )
    }

    /// The read-path configuration this disk was opened with.
    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Whether reads are currently served through `O_DIRECT`: requested
    /// by config, supported on this platform, and not yet refused by the
    /// underlying filesystem.
    pub fn direct_active(&self) -> bool {
        self.config.direct_reads
            && O_DIRECT_FLAG.is_some()
            && !self.direct_broken.load(Ordering::Relaxed)
    }

    /// The root directory backing this disk.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    fn path_of(&self, name: &str) -> PathBuf {
        // Flatten any path separators so callers cannot escape the root.
        let safe: String = name
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        self.root.join(safe)
    }

    /// Ask the kernel to evict `name`'s pages from the page cache via
    /// `posix_fadvise(DONTNEED)`. Returns whether the advice was applied
    /// — `false` on platforms without the syscall, for missing files, or
    /// when the kernel refuses. Dirty pages are flushed first (`fsync`)
    /// so freshly-written files actually leave the cache.
    pub fn drop_page_cache(&self, name: &str) -> bool {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            use std::os::fd::AsRawFd;
            let Ok(file) = fs::File::open(self.path_of(name)) else {
                return false;
            };
            let _ = file.sync_all();
            // Safety: a plain fd + constant advice; the kernel validates.
            let rc = unsafe {
                posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED)
            };
            if rc == 0 {
                self.profile.record_cache_drop();
                return true;
            }
            false
        }
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        {
            let _ = name;
            false
        }
    }

    /// Drop every file of this disk from the page cache; returns how many
    /// files were actually evicted.
    pub fn drop_all_page_cache(&self) -> usize {
        self.list()
            .iter()
            .filter(|name| self.drop_page_cache(name))
            .count()
    }

    /// One whole-file `O_DIRECT` read. `Err(None)` means "unsupported
    /// here" (open or first read refused the flag) — the caller falls
    /// back to buffered I/O; `Err(Some(e))` is a real failure.
    fn read_into_direct(
        &self,
        name: &str,
        buf: &mut AlignedBuf,
    ) -> Result<(), Option<StorageError>> {
        let Some(flag) = O_DIRECT_FLAG else {
            return Err(None);
        };
        #[cfg(unix)]
        let opened = {
            use std::os::unix::fs::OpenOptionsExt;
            fs::OpenOptions::new()
                .read(true)
                .custom_flags(flag)
                .open(self.path_of(name))
        };
        #[cfg(not(unix))]
        let opened: io::Result<fs::File> = {
            let _ = flag;
            Err(io::Error::other("no O_DIRECT off unix"))
        };
        let mut file = match opened {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(Some(StorageError::NotFound(name.to_string())));
            }
            // EINVAL & friends: the filesystem refuses the flag.
            Err(_) => return Err(None),
        };
        let len = file.metadata().map_err(|e| Some(e.into()))?.len();
        self.counters.record_seek();
        self.profile.record_open();
        // O_DIRECT requires block-aligned transfer lengths, so read into
        // the page-rounded capacity; the kernel legally short-reads the
        // unaligned tail at EOF, after which the buffer shrinks back to
        // the true file length.
        let rounded = (len as usize).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        buf.resize(rounded);
        let mut filled = 0usize;
        while filled < rounded {
            match file.read(&mut buf.as_mut_slice()[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.counters.record_read(n as u64);
                    self.profile.record_read_syscall();
                    self.profile.record_direct_read(n as u64);
                    filled += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A first-read EINVAL means the open tolerated the flag
                // but the read path doesn't (seen on some FUSE mounts).
                Err(e) if filled == 0 && e.raw_os_error() == Some(22) => {
                    return Err(None);
                }
                Err(e) => return Err(Some(e.into())),
            }
        }
        if filled as u64 != len {
            return Err(Some(StorageError::ShortRead {
                name: name.to_string(),
                expected: len,
                actual: filled as u64,
            }));
        }
        buf.resize(len as usize);
        Ok(())
    }
}

struct CountingFileRead {
    inner: BufReader<fs::File>,
    len: u64,
    counters: Arc<IoCounters>,
    profile: Arc<IoProfile>,
}

impl Read for CountingFileRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counters.record_read(n as u64);
        self.profile.record_read_syscall();
        Ok(n)
    }
}

impl DiskRead for CountingFileRead {
    fn len(&self) -> u64 {
        self.len
    }
}

struct CountingFileWrite {
    inner: BufWriter<fs::File>,
    counters: Arc<IoCounters>,
    profile: Arc<IoProfile>,
}

impl Write for CountingFileWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.record_write(n as u64);
        self.profile.record_write_syscall();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl DiskWrite for CountingFileWrite {
    fn finish(mut self: Box<Self>) -> StorageResult<()> {
        self.inner.flush()?;
        Ok(())
    }
}

impl Disk for OsDisk {
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        let file = fs::File::create(self.path_of(name))?;
        self.counters.record_seek();
        self.profile.record_open();
        Ok(Box::new(CountingFileWrite {
            inner: BufWriter::with_capacity(1 << 20, file),
            counters: Arc::clone(&self.counters),
            profile: Arc::clone(&self.profile),
        }))
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
        let path = self.path_of(name);
        let file = fs::File::open(&path)
            .map_err(|_| StorageError::NotFound(name.to_string()))?;
        let len = file.metadata()?.len();
        self.counters.record_seek();
        self.profile.record_open();
        Ok(Box::new(CountingFileRead {
            inner: BufReader::with_capacity(1 << 20, file),
            len,
            counters: Arc::clone(&self.counters),
            profile: Arc::clone(&self.profile),
        }))
    }

    /// The whole-file read primitive: `O_DIRECT` when configured and the
    /// filesystem cooperates, buffered otherwise. Byte accounting is
    /// identical on both paths, so the Table II checks hold regardless of
    /// which one served a run.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        if self.direct_active() {
            match self.read_into_direct(name, buf) {
                Ok(()) => return Ok(()),
                Err(Some(e)) => return Err(e),
                Err(None) => {
                    self.direct_broken.store(true, Ordering::Relaxed);
                    self.profile.record_direct_fallback();
                }
            }
        }
        let mut r = self.open(name)?;
        read_full(&mut *r, name, buf)
    }

    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        Some(&self.profile)
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        let md = fs::metadata(self.path_of(name))
            .map_err(|_| StorageError::NotFound(name.to_string()))?;
        Ok(md.len())
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        fs::remove_file(self.path_of(name))
            .map_err(|_| StorageError::NotFound(name.to_string()))
    }

    fn list(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for e in entries.flatten() {
                if let Some(name) = e.file_name().to_str() {
                    out.push(name.to_string());
                }
            }
        }
        out
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    /// Whole-buffer override: one `create` + one `write_all`, skipping the
    /// streaming writer's megabyte `BufWriter`. Streaming-update commits
    /// write hundreds of small delta blobs per batch, where the buffered
    /// path's allocation dwarfs the payload.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let mut file = fs::File::create(self.path_of(name))?;
        self.counters.record_seek();
        self.profile.record_open();
        file.write_all(data)?;
        self.counters.record_write(data.len() as u64);
        self.profile.record_write_syscall();
        Ok(())
    }

    /// POSIX `rename(2)`: atomic replace within the root directory.
    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        self.counters.record_seek();
        fs::rename(self.path_of(from), self.path_of(to))
            .map_err(|_| StorageError::NotFound(from.to_string()))
    }
}

// ---------------------------------------------------------------------------
// MemDisk
// ---------------------------------------------------------------------------

type FileMap = HashMap<String, Arc<Vec<u8>>>;

/// A [`Disk`] that stores its files in memory.
///
/// Reads and writes still go through the counters, so I/O-amount
/// experiments can run entirely in memory (this is also how the test-suite
/// validates the Table II byte formulas quickly).
pub struct MemDisk {
    files: Arc<Mutex<FileMap>>,
    counters: Arc<IoCounters>,
}

impl MemDisk {
    /// Create an empty in-memory disk.
    pub fn new() -> Self {
        Self {
            files: Arc::new(Mutex::new(HashMap::new())),
            counters: IoCounters::new(),
        }
    }

    /// Number of files currently stored.
    pub fn file_count(&self) -> usize {
        self.files.lock().len()
    }

    /// Sum of the sizes of all stored files.
    pub fn total_size(&self) -> u64 {
        self.files.lock().values().map(|v| v.len() as u64).sum()
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

struct MemRead {
    data: Arc<Vec<u8>>,
    pos: usize,
    counters: Arc<IoCounters>,
}

impl Read for MemRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = &self.data[self.pos..];
        let n = remaining.len().min(buf.len());
        buf[..n].copy_from_slice(&remaining[..n]);
        self.pos += n;
        self.counters.record_read(n as u64);
        Ok(n)
    }
}

impl DiskRead for MemRead {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

struct MemWrite {
    name: String,
    buf: Vec<u8>,
    disk_files: Arc<Mutex<FileMap>>,
    counters: Arc<IoCounters>,
    finished: bool,
}

impl Write for MemWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        self.counters.record_write(buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DiskWrite for MemWrite {
    fn finish(mut self: Box<Self>) -> StorageResult<()> {
        let data = std::mem::take(&mut self.buf);
        self.disk_files
            .lock()
            .insert(self.name.clone(), Arc::new(data));
        self.finished = true;
        Ok(())
    }
}

impl Drop for MemWrite {
    fn drop(&mut self) {
        // Commit on drop as well so callers that forget `finish` are not
        // silently losing data; `finish` remains the explicit, checkable path.
        if !self.finished && !self.buf.is_empty() {
            let data = std::mem::take(&mut self.buf);
            self.disk_files
                .lock()
                .insert(self.name.clone(), Arc::new(data));
        }
    }
}

impl Disk for MemDisk {
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        // The writer owns its buffer; commit happens on finish/drop.
        self.counters.record_seek();
        Ok(Box::new(MemWrite {
            name: name.to_string(),
            buf: Vec::new(),
            disk_files: Arc::clone(&self.files),
            counters: Arc::clone(&self.counters),
            finished: false,
        }))
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
        let files = self.files.lock();
        let data = files
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.counters.record_seek();
        Ok(Box::new(MemRead {
            data,
            pos: 0,
            counters: Arc::clone(&self.counters),
        }))
    }

    /// Zero-copy override: the stored `Arc<Vec<u8>>` *is* the result. The
    /// bytes still count as read — the engines' byte-exact I/O accounting
    /// must not depend on which disk backs an experiment.
    fn read_shared(&self, name: &str, _pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        let data = self
            .files
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.counters.record_seek();
        self.counters.record_read(data.len() as u64);
        Ok(SharedBytes::Owned(data))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().contains_key(name)
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        self.files
            .lock()
            .get(name)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        self.files
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(name.to_string()))
    }

    fn list(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    /// Whole-buffer override: insert the stored vector directly (bytes
    /// still counted), skipping the `MemWrite` commit machinery.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        self.counters.record_seek();
        self.counters.record_write(data.len() as u64);
        self.files
            .lock()
            .insert(name.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    /// Atomic move under the single map lock.
    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        let mut files = self.files.lock();
        let data = files
            .remove(from)
            .ok_or_else(|| StorageError::NotFound(from.to_string()))?;
        files.insert(to.to_string(), data);
        self.counters.record_seek();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// CrashDisk — the power-loss simulator
// ---------------------------------------------------------------------------

/// One mutating disk operation recorded by [`CrashDisk`].
#[derive(Debug, Clone)]
pub enum CrashOp {
    /// A whole file landed on disk (create+finish or `write_all_to`).
    Write { name: String, data: Vec<u8> },
    /// A file was deleted.
    Remove { name: String },
    /// A file was atomically moved over another.
    Rename { from: String, to: String },
}

/// A cut point in a recorded operation sequence: the disk state after the
/// first `ops` operations, optionally with the *next* operation (a write)
/// torn after `torn` bytes — the partial-page state a real power loss
/// leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutPoint {
    /// Number of completed operations to replay.
    pub ops: usize,
    /// If set, the operation at index `ops` (which must be a
    /// [`CrashOp::Write`]) is replayed truncated to this many bytes.
    pub torn: Option<usize>,
}

/// A [`Disk`] wrapper that records every mutating operation so any prefix
/// — including a torn final write — can be replayed onto a fresh
/// [`MemDisk`]. This is the systematic power-loss simulator: a test drives
/// a workload through the wrapper, then [`CrashDisk::cut_points`]
/// enumerates every syscall boundary and [`CrashDisk::replay`] materialises
/// the exact on-disk state a crash at that instant would leave.
///
/// Only whole-operation granularity is modelled for remove/rename (both
/// are atomic on the real backends); writes additionally get torn
/// variants, because a file write is *not* atomic on any real disk.
pub struct CrashDisk {
    inner: Arc<dyn Disk>,
    baseline: HashMap<String, Vec<u8>>,
    log: Arc<Mutex<Vec<CrashOp>>>,
}

impl CrashDisk {
    /// Wrap `inner`, snapshotting its current contents as the baseline
    /// state that every replay starts from.
    pub fn new(inner: Arc<dyn Disk>) -> StorageResult<Self> {
        let mut baseline = HashMap::new();
        for name in inner.list() {
            baseline.insert(name.clone(), inner.read_all(&name)?);
        }
        Ok(Self {
            inner,
            baseline,
            log: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Number of mutating operations recorded so far.
    pub fn ops_recorded(&self) -> usize {
        self.log.lock().len()
    }

    /// Every crash state worth testing: the boundary after each operation
    /// (including "nothing happened" and "everything happened"), plus, for
    /// each recorded write of at least two bytes, torn states cut after
    /// the first byte, the midpoint, and one byte short of completion.
    pub fn cut_points(&self) -> Vec<CutPoint> {
        let log = self.log.lock();
        let mut out = Vec::new();
        for ops in 0..=log.len() {
            out.push(CutPoint { ops, torn: None });
            if let Some(CrashOp::Write { data, .. }) = log.get(ops) {
                if data.len() >= 2 {
                    let mut offs = vec![1, data.len() / 2, data.len() - 1];
                    offs.dedup();
                    for off in offs {
                        out.push(CutPoint {
                            ops,
                            torn: Some(off),
                        });
                    }
                }
            }
        }
        out
    }

    /// Materialise the disk state at `cut` onto a fresh [`MemDisk`]:
    /// baseline files, then the first `cut.ops` operations, then (if
    /// `cut.torn` is set) a byte-prefix of the next write.
    pub fn replay(&self, cut: CutPoint) -> StorageResult<MemDisk> {
        let disk = MemDisk::new();
        for (name, data) in &self.baseline {
            disk.write_all_to(name, data)?;
        }
        let log = self.log.lock();
        for op in log.iter().take(cut.ops) {
            match op {
                CrashOp::Write { name, data } => disk.write_all_to(name, data)?,
                CrashOp::Remove { name } => match disk.remove(name) {
                    Ok(()) | Err(StorageError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                },
                CrashOp::Rename { from, to } => disk.rename(from, to)?,
            }
        }
        if let Some(off) = cut.torn {
            match log.get(cut.ops) {
                Some(CrashOp::Write { name, data }) => {
                    disk.write_all_to(name, &data[..off.min(data.len())])?;
                }
                other => panic!("torn cut must land on a Write op, got {other:?}"),
            }
        }
        Ok(disk)
    }

    fn record(&self, op: CrashOp) {
        self.log.lock().push(op);
    }
}

struct CrashWrite {
    name: String,
    buf: Vec<u8>,
    disk: Arc<dyn Disk>,
    log: Arc<Mutex<Vec<CrashOp>>>,
    finished: bool,
}

impl CrashWrite {
    fn commit(&mut self) -> StorageResult<()> {
        let data = std::mem::take(&mut self.buf);
        self.disk.write_all_to(&self.name, &data)?;
        self.log.lock().push(CrashOp::Write {
            name: self.name.clone(),
            data,
        });
        self.finished = true;
        Ok(())
    }
}

impl Write for CrashWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DiskWrite for CrashWrite {
    fn finish(mut self: Box<Self>) -> StorageResult<()> {
        self.commit()
    }
}

impl Drop for CrashWrite {
    fn drop(&mut self) {
        // Mirror MemWrite: a dropped-but-unfinished writer still lands,
        // so the recorded log matches what the inner disk saw.
        if !self.finished && !self.buf.is_empty() {
            let _ = self.commit();
        }
    }
}

impl Disk for CrashDisk {
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        // Buffer the whole file so the log records one atomic Write op at
        // the moment the inner disk commits it.
        Ok(Box::new(CrashWrite {
            name: name.to_string(),
            buf: Vec::new(),
            disk: Arc::clone(&self.inner),
            log: Arc::clone(&self.log),
            finished: false,
        }))
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
        self.inner.open(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        self.inner.len_of(name)
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        self.inner.remove(name)?;
        self.record(CrashOp::Remove {
            name: name.to_string(),
        });
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn counters(&self) -> &Arc<IoCounters> {
        self.inner.counters()
    }

    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        self.inner.io_profile()
    }

    /// Reads don't crash: forward straight to the inner disk's (possibly
    /// `O_DIRECT`) bulk path so a wrapped `OsDisk` keeps its direct reads
    /// and per-path accounting.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        self.inner.read_into(name, buf)
    }

    fn read_shared(&self, name: &str, pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        self.inner.read_shared(name, pool)
    }

    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        self.inner.write_all_to(name, data)?;
        self.record(CrashOp::Write {
            name: name.to_string(),
            data: data.to_vec(),
        });
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        self.inner.rename(from, to)?;
        self.record(CrashOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn exercise(disk: &dyn Disk) {
        disk.write_all_to("a.bin", b"hello world").unwrap();
        assert!(disk.exists("a.bin"));
        assert_eq!(disk.len_of("a.bin").unwrap(), 11);
        let data = disk.read_all("a.bin").unwrap();
        assert_eq!(data, b"hello world");
        assert!(disk.counters().read_bytes() >= 11);
        assert!(disk.counters().written_bytes() >= 11);
        assert_eq!(disk.list(), vec!["a.bin".to_string()]);
        disk.remove("a.bin").unwrap();
        assert!(!disk.exists("a.bin"));
        assert!(matches!(
            disk.open("a.bin"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn memdisk_roundtrip() {
        let disk = MemDisk::new();
        exercise(&disk);
    }

    #[test]
    fn osdisk_roundtrip() {
        let dir = ScratchDir::new("osdisk-test");
        let disk = OsDisk::new(dir.path()).unwrap();
        exercise(&disk);
    }

    #[test]
    fn osdisk_rejects_path_escape() {
        let dir = ScratchDir::new("osdisk-esc");
        let disk = OsDisk::new(dir.path()).unwrap();
        disk.write_all_to("../evil", b"x").unwrap();
        // The file must have been created inside the root, not outside it.
        assert!(disk.root().join(".._evil").exists());
    }

    #[test]
    fn read_shared_counts_like_read_all() {
        let os_dir = ScratchDir::new("osdisk-shared");
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let os: Arc<dyn Disk> = Arc::new(OsDisk::new(os_dir.path()).unwrap());
        let payload: Vec<u8> = (0..9000u32).map(|k| k as u8).collect();
        for disk in [&mem, &os] {
            disk.write_all_to("f", &payload).unwrap();
            let pool = BufferPool::new();
            let before = disk.counters().read_bytes();
            let shared = disk.read_shared("f", &pool).unwrap();
            assert_eq!(shared.as_slice(), &payload[..]);
            assert_eq!(
                disk.counters().read_bytes() - before,
                payload.len() as u64,
                "read_shared must count exactly the file bytes"
            );
            assert!(matches!(
                disk.read_shared("missing", &pool),
                Err(StorageError::NotFound(_))
            ));
        }
    }

    #[test]
    fn memdisk_read_shared_is_zero_copy() {
        let disk = MemDisk::new();
        disk.write_all_to("f", b"shared").unwrap();
        let pool = BufferPool::new();
        let bytes = disk.read_shared("f", &pool).unwrap();
        let stored_ptr = disk.files.lock().get("f").unwrap().as_ptr();
        assert_eq!(bytes.as_slice().as_ptr(), stored_ptr);
        assert_eq!(pool.idle(), 0, "no pooled buffer was consumed");
    }

    #[test]
    fn read_into_reuses_the_caller_buffer() {
        let disk = MemDisk::new();
        disk.write_all_to("a", &[1u8; 100]).unwrap();
        disk.write_all_to("b", &[2u8; 40]).unwrap();
        let mut buf = AlignedBuf::with_capacity(0);
        disk.read_into("a", &mut buf).unwrap();
        assert_eq!(buf.as_slice(), &[1u8; 100]);
        disk.read_into("b", &mut buf).unwrap();
        assert_eq!(buf.as_slice(), &[2u8; 40]);
    }

    /// Wrapper audit: every Disk wrapper must forward `read_into` to the
    /// inner disk rather than inherit the default `open()`-based path, so
    /// a stacked chain (Fault → Crash → Paced → Os) still
    /// reaches `OsDisk`'s `O_DIRECT` implementation and its per-path
    /// counters. The direct attempt records either a direct read or a
    /// fallback; the default path records neither.
    #[test]
    fn stacked_wrappers_preserve_the_direct_read_path_and_counters() {
        use crate::fault::{FaultDisk, FaultPlan};
        use crate::paced::PacedDisk;
        use crate::profile::DeviceProfile;

        let dir = ScratchDir::new("osdisk-stack");
        let os = Arc::new(
            OsDisk::with_config(dir.path(), DiskConfig { direct_reads: true }).unwrap(),
        );
        let payload: Vec<u8> = (0..10_000u32).map(|k| (k % 251) as u8).collect();
        os.write_all_to("ss_0_0.bin", &payload).unwrap();

        let paced: Arc<dyn Disk> =
            Arc::new(PacedDisk::new(Arc::clone(&os) as Arc<dyn Disk>, DeviceProfile::RAM));
        let crash: Arc<dyn Disk> = Arc::new(CrashDisk::new(paced).unwrap());
        let fault: Arc<dyn Disk> = Arc::new(FaultDisk::new(crash, FaultPlan::new()));

        let before = fault.io_profile().expect("profile flows up the stack").snapshot();
        let pool = BufferPool::new();
        let bytes = fault.read_shared("ss_0_0.bin", &pool).unwrap();
        assert_eq!(bytes.as_slice(), &payload[..], "stacking never alters bytes");
        let after = fault.io_profile().unwrap().snapshot().delta(&before);
        assert!(
            after.direct_reads + after.direct_fallbacks >= 1,
            "stacked read_shared bypassed OsDisk::read_into: {after:?}"
        );
    }

    #[test]
    fn memdisk_overwrite_replaces() {
        let disk = MemDisk::new();
        disk.write_all_to("f", b"one").unwrap();
        disk.write_all_to("f", b"twothree").unwrap();
        assert_eq!(disk.read_all("f").unwrap(), b"twothree");
        assert_eq!(disk.file_count(), 1);
        assert_eq!(disk.total_size(), 8);
    }

    #[test]
    fn rename_replaces_atomically_on_every_backend() {
        let os_dir = ScratchDir::new("osdisk-rename");
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let os: Arc<dyn Disk> = Arc::new(OsDisk::new(os_dir.path()).unwrap());
        let wrapped: Arc<dyn Disk> = Arc::new(crate::fault::FaultDisk::new(
            Arc::new(MemDisk::new()),
            crate::fault::FaultPlan::new(),
        ));
        for disk in [&mem, &os, &wrapped] {
            disk.write_all_to("old", b"payload").unwrap();
            disk.write_all_to("target", b"stale").unwrap();
            disk.rename("old", "target").unwrap();
            assert!(!disk.exists("old"));
            assert_eq!(disk.read_all("target").unwrap(), b"payload");
            assert!(matches!(
                disk.rename("missing", "x"),
                Err(StorageError::NotFound(_))
            ));
            disk.remove("target").unwrap();
        }
    }

    #[test]
    fn crash_disk_records_and_replays_prefixes() {
        let inner = Arc::new(MemDisk::new());
        inner.write_all_to("base", b"seed").unwrap();
        let disk = CrashDisk::new(inner).unwrap();
        disk.write_all_to("a", b"aaaa").unwrap();
        disk.write_all_to("b.tmp", b"bbbb").unwrap();
        disk.rename("b.tmp", "b").unwrap();
        disk.remove("a").unwrap();
        assert_eq!(disk.ops_recorded(), 4);

        // ops=0: baseline only.
        let d0 = disk.replay(CutPoint { ops: 0, torn: None }).unwrap();
        assert_eq!(d0.read_all("base").unwrap(), b"seed");
        assert!(!d0.exists("a"));
        // ops=2: a written, b still at its tmp name.
        let d2 = disk.replay(CutPoint { ops: 2, torn: None }).unwrap();
        assert_eq!(d2.read_all("a").unwrap(), b"aaaa");
        assert!(d2.exists("b.tmp") && !d2.exists("b"));
        // ops=3: rename happened.
        let d3 = disk.replay(CutPoint { ops: 3, torn: None }).unwrap();
        assert!(!d3.exists("b.tmp"));
        assert_eq!(d3.read_all("b").unwrap(), b"bbbb");
        // full replay matches the live disk.
        let d4 = disk
            .replay(CutPoint { ops: 4, torn: None })
            .unwrap();
        assert!(!d4.exists("a"));
        assert_eq!(d4.read_all("b").unwrap(), b"bbbb");
        // torn first write: only a prefix of `a` landed.
        let t = disk.replay(CutPoint { ops: 0, torn: Some(2) }).unwrap();
        assert_eq!(t.read_all("a").unwrap(), b"aa");
    }

    #[test]
    fn crash_disk_cut_points_cover_torn_writes() {
        let inner = Arc::new(MemDisk::new());
        let disk = CrashDisk::new(inner).unwrap();
        disk.write_all_to("f", &[7u8; 8]).unwrap();
        let cuts = disk.cut_points();
        // Boundaries 0 and 1, plus torn offsets 1, 4, 7.
        assert_eq!(cuts.len(), 5);
        assert!(cuts.contains(&CutPoint { ops: 0, torn: Some(1) }));
        assert!(cuts.contains(&CutPoint { ops: 0, torn: Some(4) }));
        assert!(cuts.contains(&CutPoint { ops: 0, torn: Some(7) }));
        for cut in cuts {
            let d = disk.replay(cut).unwrap();
            match cut {
                CutPoint { ops: 1, .. } => assert_eq!(d.len_of("f").unwrap(), 8),
                CutPoint { torn: Some(off), .. } => {
                    assert_eq!(d.len_of("f").unwrap(), off as u64)
                }
                _ => assert!(!d.exists("f")),
            }
        }
    }

    #[test]
    fn direct_and_buffered_reads_are_byte_identical() {
        // The payload deliberately has an unaligned tail so the direct
        // path exercises its page-rounded read + shrink. In environments
        // whose temp filesystem refuses O_DIRECT the direct disk falls
        // back to buffered reads — the bytes (and counted traffic) must
        // be identical either way.
        let base = ScratchDir::new("osdisk-direct");
        let buffered = OsDisk::new(base.path().join("buf")).unwrap();
        let direct = OsDisk::open_direct(base.path().join("dir")).unwrap();
        assert!(direct.config().direct_reads);
        let payload: Vec<u8> = (0..PAGE_SIZE * 3 + 937).map(|k| (k * 7) as u8).collect();
        buffered.write_all_to("f", &payload).unwrap();
        direct.write_all_to("f", &payload).unwrap();
        let pool = BufferPool::new();
        for disk in [&buffered, &direct] {
            let before = disk.counters().read_bytes();
            let bytes = disk.read_shared("f", &pool).unwrap();
            assert_eq!(bytes.as_slice(), &payload[..]);
            assert_eq!(
                disk.counters().read_bytes() - before,
                payload.len() as u64
            );
        }
        let prof = direct.io_profile().expect("OsDisk keeps a profile").snapshot();
        if direct.direct_active() {
            assert!(prof.direct_reads > 0, "direct path served the read");
            assert_eq!(prof.direct_bytes, payload.len() as u64);
        } else {
            assert_eq!(prof.direct_fallbacks, 1, "fallback must be counted");
        }
        assert!(matches!(
            direct.read_shared("missing", &pool),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn direct_disk_handles_empty_and_exact_page_files() {
        let base = ScratchDir::new("osdisk-direct-edge");
        let disk = OsDisk::open_direct(base.path()).unwrap();
        let pool = BufferPool::new();
        disk.write_all_to("empty", b"").unwrap();
        assert_eq!(disk.read_shared("empty", &pool).unwrap().len(), 0);
        let page: Vec<u8> = (0..PAGE_SIZE).map(|k| k as u8).collect();
        disk.write_all_to("page", &page).unwrap();
        assert_eq!(disk.read_shared("page", &pool).unwrap().as_slice(), &page[..]);
    }

    /// A disk whose readers over-report their length: the only way to
    /// exercise the short-read path deterministically, since a real
    /// OsDisk's metadata length always matches its content.
    struct LyingDisk(MemDisk);

    struct LyingRead(Box<dyn DiskRead>);

    impl Read for LyingRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl DiskRead for LyingRead {
        fn len(&self) -> u64 {
            self.0.len() + 10
        }
    }

    impl Disk for LyingDisk {
        fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
            self.0.create(name)
        }
        fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
            Ok(Box::new(LyingRead(self.0.open(name)?)))
        }
        fn exists(&self, name: &str) -> bool {
            self.0.exists(name)
        }
        fn len_of(&self, name: &str) -> StorageResult<u64> {
            self.0.len_of(name)
        }
        fn remove(&self, name: &str) -> StorageResult<()> {
            self.0.remove(name)
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
        fn counters(&self) -> &Arc<IoCounters> {
            self.0.counters()
        }
    }

    #[test]
    fn truncated_stream_reports_short_read_with_lengths() {
        let disk = LyingDisk(MemDisk::new());
        disk.0.write_all_to("t", &[9u8; 90]).unwrap();
        let mut buf = AlignedBuf::with_capacity(0);
        match disk.read_into("t", &mut buf) {
            Err(StorageError::ShortRead {
                name,
                expected,
                actual,
            }) => {
                assert_eq!(name, "t");
                assert_eq!(expected, 100);
                assert_eq!(actual, 90);
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn drop_page_cache_is_graceful() {
        let dir = ScratchDir::new("osdisk-fadvise");
        let disk = OsDisk::new(dir.path()).unwrap();
        disk.write_all_to("f", &[1u8; 8192]).unwrap();
        // Whether the kernel honours the advice is platform-dependent;
        // what must hold is that the call neither errors nor lies about
        // missing files, and that successes are counted.
        let dropped = disk.drop_page_cache("f");
        let counted = disk.io_profile().unwrap().snapshot().cache_drops;
        assert_eq!(counted, dropped as u64);
        assert!(!disk.drop_page_cache("missing"));
        assert_eq!(disk.drop_all_page_cache(), dropped as usize);
    }

    #[test]
    fn crash_disk_streaming_writer_records_one_op() {
        let inner = Arc::new(MemDisk::new());
        let disk = CrashDisk::new(inner).unwrap();
        let mut w = disk.create("s").unwrap();
        w.write_all(b"part1").unwrap();
        w.write_all(b"part2").unwrap();
        assert_eq!(disk.ops_recorded(), 0, "nothing commits before finish");
        w.finish().unwrap();
        assert_eq!(disk.ops_recorded(), 1);
        assert_eq!(disk.read_all("s").unwrap(), b"part1part2");
    }
}
