//! Device emulation: pace real reads to a [`DeviceProfile`].
//!
//! The container this repository is benchmarked in has a datacenter NVMe
//! device (~2 GB/s direct reads) and a single CPU — a regime the paper's
//! testbed (two SATA SSDs in RAID 0) and the GraphChi/X-Stream-era
//! baselines (SATA SSDs, hard disks) never ran in. [`PacedDisk`] wraps
//! any [`Disk`] and slows its *read* path down to a named profile so the
//! out-of-core benchmarks measure the disk-bound regime the paper is
//! about, on hardware that no longer has one:
//!
//! * **Bandwidth**: every byte delivered by a reader owes
//!   `1 / read_bw` seconds; the debt accumulates and is slept off in
//!   coarse slices (so tiny reads don't pay a syscall-sized sleep each).
//! * **Seeks**: opening a file that is *behind* the previously opened one
//!   in [`layout_key`] order charges `seek_latency` — sequential forward
//!   scans are free, exactly the asymmetry that makes the engines'
//!   row/column streaming order matter on spinning media.
//!
//! Writes and metadata are delegated unpaced: the benchmarks measure the
//! read-bound iteration loop, not preprocessing. The wrapper never alters
//! bytes — a paced graph is bit-for-bit the unpaced graph, only slower.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::counter::IoCounters;
use crate::disk::{Disk, DiskRead, DiskWrite};
use crate::error::StorageResult;
use crate::layout::{layout_key, LayoutToken};
use crate::profile::{DeviceProfile, IoProfile};

/// Sleep only once at least this much bandwidth debt has accrued;
/// sub-slice debts carry over to the next read.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// A [`Disk`] wrapper that delays reads to emulate a slower device.
pub struct PacedDisk {
    inner: Arc<dyn Disk>,
    profile: DeviceProfile,
    /// Accumulated un-slept bandwidth debt, in nanoseconds.
    debt_nanos: Arc<AtomicU64>,
    /// Layout key of the most recently opened file, for seek detection.
    last_open: Mutex<Option<Vec<LayoutToken>>>,
    /// Seeks charged so far (backward jumps in layout order).
    seeks: AtomicU64,
}

impl PacedDisk {
    /// Wrap `inner`, pacing reads to `profile`.
    pub fn new(inner: Arc<dyn Disk>, profile: DeviceProfile) -> Self {
        Self {
            inner,
            profile,
            debt_nanos: Arc::new(AtomicU64::new(0)),
            last_open: Mutex::new(None),
            seeks: AtomicU64::new(0),
        }
    }

    /// The emulated device.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Seeks charged so far: opens that jumped backward in layout order.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Record an access to `name`, charging a seek if it jumps backward
    /// in layout order relative to the previous access.
    fn note_access(&self, name: &str) {
        let key = layout_key(name);
        let mut last = self.last_open.lock();
        if last.as_ref().is_some_and(|prev| key < *prev) {
            self.seeks.fetch_add(1, Ordering::Relaxed);
            if self.profile.seek_latency > Duration::ZERO {
                pay(
                    &self.debt_nanos,
                    self.profile.seek_latency.as_nanos() as u64,
                );
            }
        }
        *last = Some(key);
    }

    /// Nanoseconds owed per byte at this profile's read bandwidth.
    fn nanos_per_byte(&self) -> f64 {
        if self.profile.read_bw.is_finite() && self.profile.read_bw > 0.0 {
            1.0e9 / self.profile.read_bw
        } else {
            0.0
        }
    }
}

/// Add `nanos` to the debt and sleep it off once it exceeds a slice.
fn pay(debt: &AtomicU64, nanos: u64) {
    let owed = debt.fetch_add(nanos, Ordering::Relaxed) + nanos;
    let slice = SLEEP_SLICE.as_nanos() as u64;
    if owed >= slice {
        // Claim the whole debt; racing readers simply sleep their shares.
        let claimed = debt.swap(0, Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(claimed));
    }
}

struct PacedRead {
    inner: Box<dyn DiskRead>,
    /// Nanoseconds owed per byte delivered (0 for an infinite-bandwidth
    /// profile such as [`DeviceProfile::RAM`]).
    nanos_per_byte: f64,
    debt: Arc<AtomicU64>,
}

impl Read for PacedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.nanos_per_byte > 0.0 {
            pay(&self.debt, (n as f64 * self.nanos_per_byte) as u64);
        }
        Ok(n)
    }
}

impl DiskRead for PacedRead {
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Disk for PacedDisk {
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        self.inner.create(name)
    }

    fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
        let inner = self.inner.open(name)?;
        self.note_access(name);
        Ok(Box::new(PacedRead {
            inner,
            nanos_per_byte: self.nanos_per_byte(),
            debt: Arc::clone(&self.debt_nanos),
        }))
    }

    /// Forward to the inner disk's (possibly `O_DIRECT`) bulk-read path
    /// rather than inheriting the default `open()`-based one, then pay
    /// for the bytes delivered. This is the route `read_shared` — and so
    /// the whole engine read path — takes.
    fn read_into(&self, name: &str, buf: &mut crate::pool::AlignedBuf) -> StorageResult<()> {
        self.note_access(name);
        self.inner.read_into(name, buf)?;
        let npb = self.nanos_per_byte();
        if npb > 0.0 && !buf.is_empty() {
            pay(&self.debt_nanos, (buf.len() as f64 * npb) as u64);
        }
        Ok(())
    }

    /// Unpaced, and to the inner disk's whole-buffer path rather than the
    /// default `create` + buffered writer.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        self.inner.write_all_to(name, data)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn len_of(&self, name: &str) -> StorageResult<u64> {
        self.inner.len_of(name)
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        self.inner.remove(name)
    }

    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        self.inner.rename(from, to)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::time::Instant;

    fn mem_with(files: &[(&str, usize)]) -> Arc<dyn Disk> {
        let m = MemDisk::new();
        for (name, len) in files {
            m.write_all_to(name, &vec![0xabu8; *len]).unwrap();
        }
        Arc::new(m)
    }

    #[test]
    fn paced_bytes_are_identical_and_ram_profile_is_free() {
        let inner = mem_with(&[("ss_0_0.bin", 10_000), ("ss_0_1.bin", 3)]);
        let paced = PacedDisk::new(Arc::clone(&inner), DeviceProfile::RAM);
        for name in ["ss_0_0.bin", "ss_0_1.bin"] {
            assert_eq!(paced.read_all(name).unwrap(), inner.read_all(name).unwrap());
        }
        assert_eq!(paced.seeks(), 0, "forward scan must be seek-free");
        assert_eq!(
            paced.read_all("ss_0_0.bin").unwrap(),
            inner.read_all("ss_0_0.bin").unwrap()
        );
        assert_eq!(paced.seeks(), 1, "0_1 -> 0_0 re-read jumps backward");
    }

    #[test]
    fn forward_scans_are_seek_free_backward_jumps_are_charged() {
        let inner = mem_with(&[
            ("ss_0_0.bin", 8),
            ("ss_0_2.bin", 8),
            ("ss_0_10.bin", 8),
        ]);
        let paced = PacedDisk::new(inner, DeviceProfile::RAM);
        // Forward in layout order (numeric, not lexicographic): no seeks.
        for name in ["ss_0_0.bin", "ss_0_2.bin", "ss_0_10.bin"] {
            paced.read_all(name).unwrap();
        }
        assert_eq!(paced.seeks(), 0);
        // Jumping back is one seek each time.
        paced.read_all("ss_0_0.bin").unwrap();
        paced.read_all("ss_0_10.bin").unwrap();
        paced.read_all("ss_0_2.bin").unwrap();
        assert_eq!(paced.seeks(), 2);
    }

    #[test]
    fn read_into_is_paced_and_seek_detected_like_open() {
        use crate::pool::AlignedBuf;
        let inner = mem_with(&[("ss_0_0.bin", 1 << 20), ("ss_0_1.bin", 16)]);
        let slow = DeviceProfile {
            name: "test-slow",
            read_bw: 20.0e6,
            write_bw: 20.0e6,
            seek_latency: Duration::ZERO,
        };
        let paced = PacedDisk::new(Arc::clone(&inner), slow);
        let mut buf = AlignedBuf::with_capacity(0);
        paced.read_into("ss_0_1.bin", &mut buf).unwrap();
        let t = Instant::now();
        paced.read_into("ss_0_0.bin", &mut buf).unwrap();
        assert_eq!(buf.as_slice(), &inner.read_all("ss_0_0.bin").unwrap()[..]);
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "paced read_into finished in {:?}",
            t.elapsed()
        );
        assert_eq!(paced.seeks(), 1, "0_1 -> 0_0 via read_into is a seek");
    }

    /// A disk that records which of its own methods were entered, over a
    /// [`MemDisk`] that does the work.
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
        fn open(&self, name: &str) -> StorageResult<Box<dyn DiskRead>> {
            self.enter("open").open(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.mem.exists(name)
        }
        fn len_of(&self, name: &str) -> StorageResult<u64> {
            self.mem.len_of(name)
        }
        fn remove(&self, name: &str) -> StorageResult<()> {
            self.enter("remove").remove(name)
        }
        fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
            self.enter("rename").rename(from, to)
        }
        fn list(&self) -> Vec<String> {
            self.mem.list()
        }
        fn counters(&self) -> &Arc<IoCounters> {
            self.mem.counters()
        }
        fn read_into(&self, name: &str, buf: &mut crate::pool::AlignedBuf) -> StorageResult<()> {
            self.enter("read_into").read_into(name, buf)
        }
        fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
            self.enter("write_all_to").write_all_to(name, data)
        }
    }

    #[test]
    fn wrappers_reach_the_inner_disks_own_methods() {
        use crate::disk::CrashDisk;
        use crate::fault::{FaultDisk, FaultPlan};
        use crate::pool::AlignedBuf;
        fn paced(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(PacedDisk::new(d, DeviceProfile::RAM))
        }
        fn crash(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(CrashDisk::new(d).unwrap())
        }
        fn fault(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            Arc::new(FaultDisk::new(d, FaultPlan::new()))
        }
        fn stack(d: Arc<dyn Disk>) -> Arc<dyn Disk> {
            paced(fault(crash(d)))
        }
        type Wrap = fn(Arc<dyn Disk>) -> Arc<dyn Disk>;
        // FaultDisk injects write faults at `create`, so its whole-buffer
        // writes go through the inner `create` by design.
        let cases: [(&str, Wrap, &str); 4] = [
            ("paced", paced, "write_all_to"),
            ("crash", crash, "write_all_to"),
            ("paced(fault(crash))", stack, "write_all_to"),
            ("fault", fault, "create"),
        ];
        for (label, wrap, write_reaches) in cases {
            let spy = Arc::new(Spy::default());
            let top = wrap(Arc::clone(&spy) as Arc<dyn Disk>);
            spy.take();
            top.write_all_to("ss_0_0.bin", b"payload").unwrap();
            assert!(spy.take().contains(&write_reaches), "{label}: write_all_to");
            top.read_into("ss_0_0.bin", &mut AlignedBuf::with_capacity(0)).unwrap();
            assert!(spy.take().contains(&"read_into"), "{label}: read_into");
            top.rename("ss_0_0.bin", "ss_0_1.bin").unwrap();
            assert!(spy.take().contains(&"rename"), "{label}: rename");
            top.remove("ss_0_1.bin").unwrap();
            assert!(spy.take().contains(&"remove"), "{label}: remove");
        }
    }

    #[test]
    fn bandwidth_pacing_slows_reads_down() {
        // 1 MB at an emulated 20 MB/s must take at least ~40 ms even
        // though the backing store is memory.
        let inner = mem_with(&[("big.bin", 1 << 20)]);
        let slow = DeviceProfile {
            name: "test-slow",
            read_bw: 20.0e6,
            write_bw: 20.0e6,
            seek_latency: Duration::ZERO,
        };
        let paced = PacedDisk::new(inner, slow);
        let t = Instant::now();
        let bytes = paced.read_all("big.bin").unwrap();
        assert_eq!(bytes.len(), 1 << 20);
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "paced read finished in {:?}",
            t.elapsed()
        );
    }
}
