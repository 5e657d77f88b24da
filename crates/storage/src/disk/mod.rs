//! Disk abstraction with byte-exact accounting.
//!
//! All NXgraph engines (and the baseline engines) move data exclusively
//! through [`Disk`], so every byte of graph traffic is observable via the
//! disk's [`IoCounters`]. Storage is touched only in whole files — a
//! sub-shard, an interval, a hub, a manifest — each read or written in one
//! pass, so the trait has whole-file primitives and no streaming reader.
//!
//! Two backing stores implement every primitive:
//!
//! * [`OsDisk`] (`os.rs`) — a directory of real files: buffered whole-file
//!   reads, opt-in `O_DIRECT` bulk reads via [`DiskConfig`] /
//!   [`OsDisk::open_direct`] (falling back cleanly where the filesystem
//!   refuses them), plus [`OsDisk::drop_page_cache`] for cold-cache
//!   measurement.
//! * [`MemDisk`] (`mem.rs`) — an in-memory file map, used by the test-suite
//!   and to run experiments on a "RAM disk" profile without touching the
//!   filesystem.
//!
//! Wrappers return the disk they wrap from [`Disk::inner`] and override
//! only what they intercept; every other method defaults to the inner
//! disk's own method of the same name:
//!
//! | wrapper | intercepts |
//! |---|---|
//! | [`PacedDisk`](crate::paced::PacedDisk) | `read_all`, `read_into` |
//! | [`FaultDisk`](crate::fault::FaultDisk) | `read_all`, `read_into`, `create`, `write_all_to` (through its own `create`), `io_profile` |
//! | [`CrashDisk`] (`crash.rs`) | `create`, `write_all_to`, `remove`, `rename` |
//!
//! [`CrashDisk`] records every mutating operation so any prefix (including
//! a torn final write) can be replayed: the power-loss simulator behind
//! `tests/crash_sim.rs`.
//!
//! [`Disk::read_shared`] is defined once, through `read_into`, so every
//! read intercept applies to it; only [`MemDisk`] overrides it, to hand out
//! its stored bytes without a copy. Adding a primitive therefore touches
//! the trait, `OsDisk`, `MemDisk` and the wrappers that intercept it —
//! nothing else. A backing store that leaves a primitive out panics with
//! the method's name on the first call.

use std::io::{self, Write};
use std::sync::Arc;

use crate::counter::IoCounters;
use crate::error::StorageResult;
use crate::pool::{AlignedBuf, BufferPool, SharedBytes};
use crate::profile::IoProfile;

mod crash;
mod mem;
mod os;

pub use crash::{CrashDisk, CrashOp, CutPoint};
pub use mem::MemDisk;
pub use os::{DiskConfig, OsDisk};

/// A sequential writer handed out by a [`Disk`].
pub trait DiskWrite: Write + Send {
    /// Flush and durably commit the file. Must be called; dropping without
    /// finishing may discard buffered data on some implementations.
    fn finish(self: Box<Self>) -> StorageResult<()>;
}

/// The writer of [`MemDisk`] and [`CrashDisk`]: it keeps the whole file
/// and hands it to `land` once, on `finish` — or on drop, if the caller
/// never finished a non-empty file, so what lands always matches what was
/// written.
struct WholeFile {
    buf: Vec<u8>,
    land: Option<Land>,
}

/// Where a [`WholeFile`] puts the complete file.
type Land = Box<dyn FnOnce(Vec<u8>) -> StorageResult<()> + Send>;

impl WholeFile {
    fn boxed(land: impl FnOnce(Vec<u8>) -> StorageResult<()> + Send + 'static) -> Box<Self> {
        Box::new(Self {
            buf: Vec::new(),
            land: Some(Box::new(land)),
        })
    }

    fn land(&mut self) -> StorageResult<()> {
        match self.land.take() {
            Some(land) => land(std::mem::take(&mut self.buf)),
            None => Ok(()),
        }
    }
}

impl Write for WholeFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DiskWrite for WholeFile {
    fn finish(mut self: Box<Self>) -> StorageResult<()> {
        self.land()
    }
}

impl Drop for WholeFile {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let _ = self.land();
        }
    }
}

/// A named collection of whole files with shared I/O accounting.
///
/// The trait is object-safe; engines hold `Arc<dyn Disk>` so the same code
/// runs against real files, memory, or any stack of wrappers.
pub trait Disk: Send + Sync {
    /// The disk this one wraps. A wrapper returns it and inherits every
    /// method it does not override; backing stores keep the `None`
    /// default and implement every primitive themselves.
    fn inner(&self) -> Option<&dyn Disk> {
        None
    }

    /// Create (or truncate) a file and return a sequential writer over it.
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        below(self, "create").create(name)
    }

    /// Whether a file with this name exists.
    fn exists(&self, name: &str) -> bool {
        below(self, "exists").exists(name)
    }

    /// Length of the named file in bytes.
    fn len_of(&self, name: &str) -> StorageResult<u64> {
        below(self, "len_of").len_of(name)
    }

    /// Delete a file.
    fn remove(&self, name: &str) -> StorageResult<()> {
        below(self, "remove").remove(name)
    }

    /// Atomically move `from` over `to`, replacing it if present: the
    /// commit point of the manifest's tmp-then-rename save.
    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        below(self, "rename").rename(from, to)
    }

    /// Names of all files currently on the disk, in unspecified order.
    fn list(&self) -> Vec<String> {
        below(self, "list").list()
    }

    /// The shared traffic counters for this disk.
    fn counters(&self) -> &Arc<IoCounters> {
        below(self, "counters").counters()
    }

    /// Read an entire file into memory: the buffered whole-file primitive
    /// (never `O_DIRECT`) behind manifests, degree tables, intervals and
    /// spills.
    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        below(self, "read_all").read_all(name)
    }

    /// Read an entire file into a caller-supplied page-aligned buffer,
    /// resizing it to the file length: the bulk-read primitive behind
    /// [`Disk::read_shared`], and the one [`OsDisk`] serves through
    /// `O_DIRECT` when asked to. A file that delivers fewer bytes than its
    /// length surfaces as [`StorageError::ShortRead`](crate::StorageError::ShortRead)
    /// with both counts.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        below(self, "read_into").read_into(name, buf)
    }

    /// Write an entire buffer as a file.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        below(self, "write_all_to").write_all_to(name, data)
    }

    /// The per-path I/O statistics of this disk, when it keeps them. Only
    /// disks doing real kernel I/O ([`OsDisk`]) have a meaningful profile;
    /// in-memory disks return `None` and wrappers report their inner
    /// disk's.
    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        self.inner().and_then(|d| d.io_profile())
    }

    /// Read an entire file into shared bytes suitable for zero-copy
    /// decoding, borrowing a page-aligned buffer from `pool` and filling
    /// it via [`Disk::read_into`] — so every wrapper's read intercept
    /// applies here too.
    ///
    /// Counts exactly the same bytes as [`Disk::read_all`]. [`MemDisk`]
    /// overrides this to hand out its stored bytes with no copy at all.
    fn read_shared(&self, name: &str, pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        let mut buf = pool.take(0);
        self.read_into(name, buf.aligned_mut())?;
        Ok(SharedBytes::Pooled(Arc::new(buf)))
    }
}

/// The disk a default [`Disk`] method forwards to. Reaching it without an
/// inner disk means a backing store left `method` out.
fn below<'a, D: Disk + ?Sized>(disk: &'a D, method: &str) -> &'a dyn Disk {
    disk.inner()
        .unwrap_or_else(|| panic!("Disk::{method} is not implemented by this backing store"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::fault::{FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule};
    use crate::paced::PacedDisk;
    use crate::pool::PAGE_SIZE;
    use crate::profile::DeviceProfile;
    use crate::scratch::ScratchDir;
    use parking_lot::Mutex;

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
            disk.read_all("a.bin"),
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
        let first = disk.read_shared("f", &pool).unwrap();
        let second = disk.read_shared("f", &pool).unwrap();
        // Both reads hand out the one stored vector.
        assert_eq!(first.as_slice().as_ptr(), second.as_slice().as_ptr());
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

    /// A stacked chain (Fault → Crash → Paced → Os) must still reach
    /// `OsDisk`'s `O_DIRECT` bulk read and its per-path counters. The
    /// direct attempt records either a direct read or a fallback; the
    /// buffered `read_all` path records neither.
    #[test]
    fn stacked_wrappers_preserve_the_direct_read_path_and_counters() {
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
        let wrapped: Arc<dyn Disk> =
            Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), FaultPlan::new()));
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

    /// Every [`Disk`] primitive, in an order [`call`] can run them on an
    /// empty disk, leaving it empty again.
    const PRIMITIVES: [&str; 11] = [
        "write_all_to",
        "create",
        "exists",
        "len_of",
        "read_all",
        "read_into",
        "list",
        "rename",
        "remove",
        "counters",
        "io_profile",
    ];

    /// Call the primitive `method` on `disk` once and check its answer.
    fn call(disk: &dyn Disk, method: &str) {
        match method {
            "write_all_to" => disk.write_all_to("ss_0_0.bin", b"whole").unwrap(),
            "create" => {
                let mut w = disk.create("ss_0_1.bin").unwrap();
                w.write_all(b"streamed").unwrap();
                w.finish().unwrap();
            }
            "exists" => assert!(disk.exists("ss_0_1.bin")),
            "len_of" => assert_eq!(disk.len_of("ss_0_1.bin").unwrap(), 8),
            "read_all" => assert_eq!(disk.read_all("ss_0_0.bin").unwrap(), b"whole"),
            "read_into" => {
                let mut buf = AlignedBuf::with_capacity(0);
                disk.read_into("ss_0_1.bin", &mut buf).unwrap();
                assert_eq!(buf.as_slice(), b"streamed");
            }
            "list" => assert_eq!(disk.list().len(), 2),
            "rename" => disk.rename("ss_0_1.bin", "ss_0_0.bin").unwrap(),
            "remove" => disk.remove("ss_0_0.bin").unwrap(),
            "counters" => assert!(disk.counters().written_bytes() > 0),
            "io_profile" => drop(disk.io_profile()),
            other => unreachable!("not a primitive: {other}"),
        }
    }

    /// A backing store that records which of its own methods were
    /// entered, over a [`MemDisk`] that does the work.
    #[derive(Default)]
    struct Spy {
        mem: MemDisk,
        entered: Mutex<Vec<&'static str>>,
    }

    impl Spy {
        fn enter(&self, method: &'static str) -> &MemDisk {
            self.entered.lock().push(method);
            &self.mem
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.entered.lock())
        }
    }

    impl Disk for Spy {
        fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
            self.enter("create").create(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.enter("exists").exists(name)
        }
        fn len_of(&self, name: &str) -> StorageResult<u64> {
            self.enter("len_of").len_of(name)
        }
        fn remove(&self, name: &str) -> StorageResult<()> {
            self.enter("remove").remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
            self.enter("rename").rename(from, to)
        }
        fn list(&self) -> Vec<String> {
            self.enter("list").list()
        }
        fn counters(&self) -> &Arc<IoCounters> {
            self.enter("counters").counters()
        }
        fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
            self.enter("read_all").read_all(name)
        }
        fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
            self.enter("read_into").read_into(name, buf)
        }
        fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
            self.enter("write_all_to").write_all_to(name, data)
        }
        fn io_profile(&self) -> Option<&Arc<IoProfile>> {
            self.enter("io_profile").io_profile()
        }
    }

    /// The delegation contract. Through every wrapper and through the
    /// stack `Paced(Fault(Crash(spy)))`, a primitive the wrapper does not
    /// intercept enters exactly the spy's method of the same name, an
    /// intercepted one still ends in the spy, and `read_shared` reaches
    /// the spy's `read_into`. Each intercept shows its effect, and both
    /// backing stores answer every primitive (a missing one panics with
    /// its name).
    #[test]
    fn wrappers_reach_the_inner_disks_own_methods() {
        fn paced(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(PacedDisk::new(d, DeviceProfile::RAM))
        }
        fn fault(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(FaultDisk::new(d, FaultPlan::new()))
        }
        fn crash(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(CrashDisk::new(d).unwrap())
        }
        fn stack(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            paced(fault(crash(d)))
        }
        type Wrap = fn(Arc<dyn Disk>) -> Arc<dyn Disk>;
        /// (intercepted primitive, the spy method it ends in)
        type Intercepts = &'static [(&'static str, &'static str)];
        let cases: [(&str, Wrap, Intercepts); 4] = [
            (
                "paced",
                paced,
                &[("read_all", "read_all"), ("read_into", "read_into")],
            ),
            (
                "fault",
                fault,
                &[
                    ("read_all", "read_all"),
                    ("read_into", "read_into"),
                    ("create", "create"),
                    ("write_all_to", "create"),
                    ("io_profile", "io_profile"),
                ],
            ),
            (
                "crash",
                crash,
                &[
                    ("create", "write_all_to"),
                    ("write_all_to", "write_all_to"),
                    ("remove", "remove"),
                    ("rename", "rename"),
                ],
            ),
            (
                "paced(fault(crash))",
                stack,
                &[
                    ("read_all", "read_all"),
                    ("read_into", "read_into"),
                    ("create", "write_all_to"),
                    ("write_all_to", "write_all_to"),
                    ("io_profile", "io_profile"),
                    ("remove", "remove"),
                    ("rename", "rename"),
                ],
            ),
        ];
        for (label, wrap, intercepts) in cases {
            let spy = Arc::new(Spy::default());
            let top = wrap(Arc::clone(&spy) as Arc<dyn Disk>);
            spy.take();
            for method in PRIMITIVES {
                call(&*top, method);
                let entered = spy.take();
                match intercepts.iter().find(|(m, _)| *m == method) {
                    Some((_, ends_in)) => assert!(
                        entered.contains(ends_in),
                        "{label}: {method} never reached the spy's {ends_in}: {entered:?}"
                    ),
                    None => assert_eq!(entered, [method], "{label}: {method}"),
                }
            }
            top.write_all_to("f", b"x").unwrap();
            spy.take();
            top.read_shared("f", &BufferPool::new()).unwrap();
            assert_eq!(spy.take(), ["read_into"], "{label}: read_shared");
        }

        // Paced: a backward jump in layout order is one seek, via either read.
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        for name in ["ss_0_0.bin", "ss_0_1.bin"] {
            mem.write_all_to(name, b"x").unwrap();
        }
        let paced = PacedDisk::new(Arc::clone(&mem), DeviceProfile::RAM);
        paced.read_all("ss_0_1.bin").unwrap();
        paced.read_all("ss_0_0.bin").unwrap();
        assert_eq!(paced.seeks(), 1, "read_all");
        let mut buf = AlignedBuf::with_capacity(0);
        paced.read_into("ss_0_1.bin", &mut buf).unwrap();
        paced.read_into("ss_0_0.bin", &mut buf).unwrap();
        assert_eq!(paced.seeks(), 2, "read_into");

        // Fault: each op class's rule fires through the methods it names.
        let rule = |op, kind| FaultRule {
            name_contains: String::new(),
            op,
            kind,
            first: 0,
            count: u64::MAX,
        };
        let plan = FaultPlan::new()
            .with_rule(rule(FaultOp::ReadAll, FaultKind::ReadError))
            .with_rule(rule(FaultOp::Read, FaultKind::ReadError))
            .with_rule(rule(FaultOp::Write, FaultKind::WriteError));
        let fault = FaultDisk::new(Arc::clone(&mem), plan);
        assert!(fault.read_all("ss_0_0.bin").is_err());
        assert!(fault.read_into("ss_0_0.bin", &mut buf).is_err());
        assert!(fault.read_shared("ss_0_0.bin", &BufferPool::new()).is_err());
        assert!(fault.create("w").is_err());
        assert!(fault.write_all_to("w", b"x").is_err());
        let ops: Vec<FaultOp> = fault.injection_log().iter().map(|i| i.op).collect();
        let (read_all, read, write) = (FaultOp::ReadAll, FaultOp::Read, FaultOp::Write);
        assert_eq!(ops, [read_all, read, read, write, write]);

        // Crash: every mutation is one recorded op.
        let crash = CrashDisk::new(Arc::new(MemDisk::new())).unwrap();
        let mut w = crash.create("a").unwrap();
        w.write_all(b"a").unwrap();
        w.finish().unwrap();
        assert_eq!(crash.ops_recorded(), 1, "create + finish");
        crash.write_all_to("b", b"b").unwrap();
        assert_eq!(crash.ops_recorded(), 2, "write_all_to");
        crash.remove("a").unwrap();
        assert_eq!(crash.ops_recorded(), 3, "remove");
        crash.rename("b", "c").unwrap();
        assert_eq!(crash.ops_recorded(), 4, "rename");

        // Backing stores implement every primitive; one that does not
        // panics with the missing method's name.
        let dir = ScratchDir::new("disk-contract");
        let os = OsDisk::new(dir.path()).unwrap();
        for disk in [&os as &dyn Disk, &MemDisk::new()] {
            for method in PRIMITIVES {
                call(disk, method);
            }
        }
        struct Bare;
        impl Disk for Bare {}
        let gap = std::panic::catch_unwind(|| Bare.exists("f")).unwrap_err();
        let msg = gap.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("Disk::exists"), "{msg}");
    }
}
