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
//! * **Bandwidth**: every byte a read delivers owes `1 / read_bw`
//!   seconds; the debt accumulates and is slept off in coarse slices (so
//!   tiny reads don't pay a syscall-sized sleep each).
//! * **Seeks**: reading a file that is *behind* the previously read one
//!   in [`layout_key`] order charges `seek_latency` — sequential forward
//!   scans are free, exactly the asymmetry that makes the engines'
//!   row/column streaming order matter on spinning media.
//!
//! Only the two whole-file reads, `read_all` and `read_into`, are paced;
//! writes and metadata are the inner disk's own, unpaced: the benchmarks
//! measure the read-bound iteration loop, not preprocessing. The wrapper
//! never alters bytes — a paced graph is bit-for-bit the unpaced graph,
//! only slower.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::disk::Disk;
use crate::error::StorageResult;
use crate::layout::{layout_key, LayoutToken};
use crate::pool::AlignedBuf;
use crate::profile::DeviceProfile;

/// Sleep only once at least this much bandwidth debt has accrued;
/// sub-slice debts carry over to the next read.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// A [`Disk`] wrapper that delays reads to emulate a slower device.
pub struct PacedDisk {
    inner: Arc<dyn Disk>,
    profile: DeviceProfile,
    /// Accumulated un-slept bandwidth debt, in nanoseconds.
    debt_nanos: AtomicU64,
    /// Layout key of the most recently read file, for seek detection.
    last_read: Mutex<Option<Vec<LayoutToken>>>,
    /// Seeks charged so far (backward jumps in layout order).
    seeks: AtomicU64,
}

impl PacedDisk {
    /// Wrap `inner`, pacing reads to `profile`.
    pub fn new(inner: Arc<dyn Disk>, profile: DeviceProfile) -> Self {
        Self {
            inner,
            profile,
            debt_nanos: AtomicU64::new(0),
            last_read: Mutex::new(None),
            seeks: AtomicU64::new(0),
        }
    }

    /// The emulated device.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Seeks charged so far: reads that jumped backward in layout order.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Record an access to `name`, charging a seek if it jumps backward
    /// in layout order relative to the previous access.
    fn note_access(&self, name: &str) {
        let key = layout_key(name);
        let mut last = self.last_read.lock();
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

    /// Owe the bandwidth time of `bytes` delivered bytes (nothing for an
    /// infinite-bandwidth profile such as [`DeviceProfile::RAM`]).
    fn pay_for(&self, bytes: usize) {
        if self.profile.read_bw.is_finite() && self.profile.read_bw > 0.0 && bytes > 0 {
            let nanos_per_byte = 1.0e9 / self.profile.read_bw;
            pay(&self.debt_nanos, (bytes as f64 * nanos_per_byte) as u64);
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

impl Disk for PacedDisk {
    fn inner(&self) -> Option<&dyn Disk> {
        Some(&*self.inner)
    }

    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        self.note_access(name);
        let data = self.inner.read_all(name)?;
        self.pay_for(data.len());
        Ok(data)
    }

    /// The route `read_shared` — and so the whole engine read path —
    /// takes, to the inner disk's (possibly `O_DIRECT`) bulk read.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        self.note_access(name);
        self.inner.read_into(name, buf)?;
        self.pay_for(buf.len());
        Ok(())
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
