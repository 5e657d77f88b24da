//! [`OsDisk`]: a directory of real files.

use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::{Disk, DiskWrite};
use crate::counter::IoCounters;
use crate::error::{StorageError, StorageResult};
use crate::pool::{AlignedBuf, PAGE_SIZE};
use crate::profile::IoProfile;

/// The Linux `O_DIRECT` open flag on architectures where we know its
/// value (the asm-generic `0o40000`, shared by x86, x86-64, aarch64 and
/// riscv64). `None` elsewhere: the direct path simply reports itself
/// unsupported and the buffered path serves every read.
const O_DIRECT_FLAG: Option<i32> = if cfg!(all(
    target_os = "linux",
    any(
        target_arch = "x86",
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)) {
    Some(0o40000)
} else {
    None
};

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

/// The buffered read loop: fill `out` from `r`, whose file is expected
/// to hold exactly `out.len()` bytes, reporting an early end of file as
/// [`StorageError::ShortRead`] (file name plus expected/actual byte
/// counts) rather than a bare I/O error.
fn read_full(mut r: impl Read, name: &str, out: &mut [u8]) -> StorageResult<()> {
    let mut filled = 0usize;
    while filled < out.len() {
        match r.read(&mut out[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if filled != out.len() {
        return Err(StorageError::ShortRead {
            name: name.to_string(),
            expected: out.len() as u64,
            actual: filled as u64,
        });
    }
    Ok(())
}

/// A missing file is [`StorageError::NotFound`] (fatal); every other
/// failure — EIO, EMFILE, EISDIR, EACCES — stays an [`StorageError::Io`]
/// for the retry layer to judge.
fn not_found_or_io(e: io::Error, name: &str) -> StorageError {
    if e.kind() == io::ErrorKind::NotFound {
        StorageError::NotFound(name.to_string())
    } else {
        StorageError::Io(e)
    }
}

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

    /// Open `name` for a buffered whole-file read: the file, counted on
    /// this disk, and its length.
    fn open_counted(&self, name: &str) -> StorageResult<(CountedFile<'_>, usize)> {
        let file = fs::File::open(self.path_of(name)).map_err(|e| not_found_or_io(e, name))?;
        let len = file.metadata()?.len() as usize;
        self.counters.record_seek();
        self.profile.record_open();
        Ok((CountedFile { file, disk: self }, len))
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

/// A file opened for reading whose every `read` call is counted on its
/// disk's counters and profile.
struct CountedFile<'a> {
    file: fs::File,
    disk: &'a OsDisk,
}

impl Read for CountedFile<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(buf)?;
        self.disk.counters.record_read(n as u64);
        self.disk.profile.record_read_syscall();
        Ok(n)
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

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        let md = fs::metadata(self.path_of(name)).map_err(|e| not_found_or_io(e, name))?;
        Ok(md.len())
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        fs::remove_file(self.path_of(name)).map_err(|e| not_found_or_io(e, name))
    }

    /// POSIX `rename(2)`: atomic replace within the root directory.
    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        self.counters.record_seek();
        fs::rename(self.path_of(from), self.path_of(to)).map_err(|e| not_found_or_io(e, from))
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

    /// Always buffered, whatever [`DiskConfig`] says: `O_DIRECT` serves
    /// only the bulk `read_into` path.
    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        let (file, len) = self.open_counted(name)?;
        let mut out = vec![0u8; len];
        read_full(file, name, &mut out)?;
        Ok(out)
    }

    /// The bulk-read primitive: `O_DIRECT` when configured and the
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
        let (file, len) = self.open_counted(name)?;
        buf.resize(len);
        read_full(file, name, buf.as_mut_slice())
    }

    /// One `create` + one `write_all`, skipping the streaming writer's
    /// megabyte `BufWriter`. Streaming-update commits write hundreds of
    /// small delta blobs per batch, where the buffered path's allocation
    /// dwarfs the payload.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let mut file = fs::File::create(self.path_of(name))?;
        self.counters.record_seek();
        self.profile.record_open();
        file.write_all(data)?;
        self.counters.record_write(data.len() as u64);
        self.profile.record_write_syscall();
        Ok(())
    }

    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        Some(&self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    /// A reader that ends 10 bytes before the length its file claims —
    /// the only way to drive the short-read branch deterministically,
    /// since a real file's metadata length always matches its content.
    #[test]
    fn truncated_stream_reports_short_read_with_lengths() {
        let mut out = vec![0u8; 100];
        match read_full(&[9u8; 90][..], "t", &mut out) {
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
        read_full(&[9u8; 90][..], "t", &mut out[..90]).unwrap();
    }

    #[test]
    fn only_a_missing_file_is_not_found() {
        let dir = ScratchDir::new("osdisk-errors");
        let disk = OsDisk::new(dir.path()).unwrap();
        disk.write_all_to("f", b"x").unwrap();
        fs::create_dir(disk.root().join("d")).unwrap();
        fs::write(disk.root().join("d").join("inside"), b"y").unwrap();
        let is_a_directory = |r: StorageResult<()>| match r {
            Err(StorageError::Io(e)) => {
                if cfg!(target_os = "linux") {
                    assert_eq!(e.kind(), io::ErrorKind::IsADirectory, "{e}");
                }
            }
            other => panic!("expected a retryable Io error, got {other:?}"),
        };
        is_a_directory(disk.remove("d"));
        is_a_directory(disk.rename("f", "d"));
        assert!(disk.exists("f"), "a failed rename leaves the source");
        for missing in [
            disk.remove("gone"),
            disk.rename("gone", "f"),
            disk.len_of("gone").map(drop),
            disk.read_all("gone").map(drop),
        ] {
            assert!(matches!(missing, Err(StorageError::NotFound(_))));
        }
    }
}
