//! Device cost models and per-disk I/O statistics.
//!
//! The paper evaluates NXgraph on two 128 GB SSDs in RAID-0 and on a 1 TB
//! HDD; several comparisons (Table V, Fig 9) hinge on the device type. We
//! reproduce those comparisons on arbitrary hardware by converting *counted*
//! bytes and seeks (see [`crate::counter`]) into modeled I/O time with a
//! simple bandwidth + seek-latency model:
//!
//! ```text
//! t_io = read_bytes / read_bw + written_bytes / write_bw + seeks · seek_latency
//! ```
//!
//! The model intentionally favours the same thing the paper's designs
//! optimise for — fewer bytes and streaming (few-seek) access — so the
//! *shape* of every device-dependent figure is preserved.
//!
//! Alongside the models lives [`IoProfile`]: the per-disk *measured* I/O
//! statistics (syscalls, direct-read traffic, retries, stalls) that
//! the [`IoCounters`](crate::counter::IoCounters) byte totals deliberately
//! do not carry. Counters answer "how many bytes moved"; the profile
//! answers "through which path, in how many submissions, and how often
//! did it have to be asked twice".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::counter::IoSnapshot;

/// Shared, atomically-updated I/O path statistics for one disk.
///
/// All fields are monotonically increasing.
#[derive(Debug, Default)]
pub struct IoProfile {
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    opens: AtomicU64,
    direct_reads: AtomicU64,
    direct_bytes: AtomicU64,
    direct_fallbacks: AtomicU64,
    cache_drops: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
    injected_faults: AtomicU64,
    stalls: AtomicU64,
}

impl IoProfile {
    /// Create a fresh, shareable profile.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// One `read(2)` completed (any path).
    pub fn record_read_syscall(&self) {
        self.read_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    /// One `write(2)` completed.
    pub fn record_write_syscall(&self) {
        self.write_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    /// One file opened (read or write).
    pub fn record_open(&self) {
        self.opens.fetch_add(1, Ordering::Relaxed);
    }

    /// One `read(2)` completed through an `O_DIRECT` descriptor,
    /// delivering `bytes` bytes straight past the page cache.
    pub fn record_direct_read(&self, bytes: u64) {
        self.direct_reads.fetch_add(1, Ordering::Relaxed);
        self.direct_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A direct open/read was refused and the buffered path took over.
    pub fn record_direct_fallback(&self) {
        self.direct_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// One file's pages were evicted via `posix_fadvise(DONTNEED)`.
    pub fn record_cache_drop(&self) {
        self.cache_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// A transient failure was re-issued by the retry layer.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// The retry layer exhausted its attempts and surfaced the error.
    pub fn record_giveup(&self) {
        self.giveups.fetch_add(1, Ordering::Relaxed);
    }

    /// A fault-injection wrapper fired one scripted/seeded fault.
    pub fn record_injected_fault(&self) {
        self.injected_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// A read tripped the hung-I/O watchdog deadline.
    pub fn record_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every statistic.
    pub fn snapshot(&self) -> IoProfileSnapshot {
        IoProfileSnapshot {
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
            direct_reads: self.direct_reads.load(Ordering::Relaxed),
            direct_bytes: self.direct_bytes.load(Ordering::Relaxed),
            direct_fallbacks: self.direct_fallbacks.load(Ordering::Relaxed),
            cache_drops: self.cache_drops.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            giveups: self.giveups.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of an [`IoProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoProfileSnapshot {
    /// `read(2)` calls completed (buffered + direct).
    pub read_syscalls: u64,
    /// `write(2)` calls completed.
    pub write_syscalls: u64,
    /// Files opened.
    pub opens: u64,
    /// `read(2)` calls served through `O_DIRECT`.
    pub direct_reads: u64,
    /// Bytes delivered through `O_DIRECT`.
    pub direct_bytes: u64,
    /// Times the direct path was refused and buffered I/O took over.
    pub direct_fallbacks: u64,
    /// Files evicted from the page cache on request.
    pub cache_drops: u64,
    /// Transient failures re-issued by the retry layer.
    pub retries: u64,
    /// Reads that exhausted their retry budget and surfaced an error.
    pub giveups: u64,
    /// Faults fired by an injection wrapper (tests/chaos runs only).
    pub injected_faults: u64,
    /// Reads that tripped the hung-I/O watchdog.
    pub stalls: u64,
}

impl IoProfileSnapshot {
    /// Statistics accumulated since `earlier`.
    pub fn delta(&self, earlier: &IoProfileSnapshot) -> IoProfileSnapshot {
        IoProfileSnapshot {
            read_syscalls: self.read_syscalls - earlier.read_syscalls,
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            opens: self.opens - earlier.opens,
            direct_reads: self.direct_reads - earlier.direct_reads,
            direct_bytes: self.direct_bytes - earlier.direct_bytes,
            direct_fallbacks: self.direct_fallbacks - earlier.direct_fallbacks,
            cache_drops: self.cache_drops - earlier.cache_drops,
            retries: self.retries - earlier.retries,
            giveups: self.giveups - earlier.giveups,
            injected_faults: self.injected_faults - earlier.injected_faults,
            stalls: self.stalls - earlier.stalls,
        }
    }
}

/// A storage device cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// Sequential read bandwidth in bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth in bytes/second.
    pub write_bw: f64,
    /// Latency charged per stream-open (seek) event.
    pub seek_latency: Duration,
}

impl DeviceProfile {
    /// Two SATA SSDs in RAID 0, as in the paper's main testbed.
    pub const SSD_RAID0: DeviceProfile = DeviceProfile {
        name: "ssd-raid0",
        read_bw: 1.0e9,
        write_bw: 0.8e9,
        seek_latency: Duration::from_micros(60),
    };

    /// A single SATA SSD.
    pub const SSD: DeviceProfile = DeviceProfile {
        name: "ssd",
        read_bw: 0.5e9,
        write_bw: 0.4e9,
        seek_latency: Duration::from_micros(80),
    };

    /// A 7200 rpm hard disk: decent streaming bandwidth, expensive seeks.
    pub const HDD: DeviceProfile = DeviceProfile {
        name: "hdd",
        read_bw: 0.15e9,
        write_bw: 0.12e9,
        seek_latency: Duration::from_millis(8),
    };

    /// An ideal in-memory device (no modeled I/O cost).
    pub const RAM: DeviceProfile = DeviceProfile {
        name: "ram",
        read_bw: f64::INFINITY,
        write_bw: f64::INFINITY,
        seek_latency: Duration::ZERO,
    };

    /// Modeled *transfer* time: bandwidth terms only, no seek charge.
    ///
    /// All engines in this repository stream their files sequentially and
    /// the preprocessor lays files out contiguously, so at paper scale the
    /// seek term vanishes; comparisons of transfer time are therefore the
    /// scale-invariant analogue of the paper's I/O-bound elapsed times.
    pub fn transfer_time(&self, io: &IoSnapshot) -> Duration {
        let read_s = if self.read_bw.is_finite() {
            io.read_bytes as f64 / self.read_bw
        } else {
            0.0
        };
        let write_s = if self.write_bw.is_finite() {
            io.written_bytes as f64 / self.write_bw
        } else {
            0.0
        };
        Duration::from_secs_f64(read_s + write_s)
    }

    /// Modeled time to perform the traffic recorded in `io`.
    pub fn modeled_time(&self, io: &IoSnapshot) -> Duration {
        let read_s = if self.read_bw.is_finite() {
            io.read_bytes as f64 / self.read_bw
        } else {
            0.0
        };
        let write_s = if self.write_bw.is_finite() {
            io.written_bytes as f64 / self.write_bw
        } else {
            0.0
        };
        let seek = self.seek_latency * io.seeks as u32;
        Duration::from_secs_f64(read_s + write_s) + seek
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(read: u64, write: u64, seeks: u64) -> IoSnapshot {
        IoSnapshot {
            read_bytes: read,
            written_bytes: write,
            read_ops: 1,
            write_ops: 1,
            seeks,
        }
    }

    #[test]
    fn ram_is_free() {
        let t = DeviceProfile::RAM.modeled_time(&io(1 << 30, 1 << 30, 1000));
        assert_eq!(t, Duration::ZERO);
    }

    #[test]
    fn hdd_slower_than_ssd_for_same_traffic() {
        let traffic = io(1 << 30, 1 << 28, 100);
        let hdd = DeviceProfile::HDD.modeled_time(&traffic);
        let ssd = DeviceProfile::SSD.modeled_time(&traffic);
        let raid = DeviceProfile::SSD_RAID0.modeled_time(&traffic);
        assert!(hdd > ssd, "hdd {hdd:?} should exceed ssd {ssd:?}");
        assert!(ssd > raid);
    }

    #[test]
    fn seeks_dominate_on_hdd() {
        // 10k seeks at 8ms = 80s, dwarfing 1 MiB of transfer.
        let seeky = DeviceProfile::HDD.modeled_time(&io(1 << 20, 0, 10_000));
        let stream = DeviceProfile::HDD.modeled_time(&io(1 << 20, 0, 1));
        assert!(seeky.as_secs_f64() > 50.0);
        assert!(stream.as_secs_f64() < 1.0);
    }

    #[test]
    fn bandwidth_math() {
        // 150 MB at 150 MB/s ≈ 1s read.
        let t = DeviceProfile::HDD.modeled_time(&io(150_000_000, 0, 0));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn io_profile_counts_and_deltas() {
        let p = IoProfile::new();
        p.record_open();
        p.record_read_syscall();
        p.record_direct_read(4096);
        p.record_direct_read(8192);
        p.record_direct_fallback();
        p.record_cache_drop();
        let s = p.snapshot();
        assert_eq!(s.opens, 1);
        assert_eq!(s.read_syscalls, 1);
        assert_eq!(s.direct_reads, 2);
        assert_eq!(s.direct_bytes, 12288);
        assert_eq!(s.direct_fallbacks, 1);
        assert_eq!(s.cache_drops, 1);
        p.record_open();
        let d = p.snapshot().delta(&s);
        assert_eq!(d.opens, 1);
        assert_eq!(d.read_syscalls, 0);
    }

    #[test]
    fn reliability_counters_count_and_delta() {
        let p = IoProfile::new();
        p.record_retry();
        p.record_retry();
        p.record_giveup();
        p.record_injected_fault();
        p.record_injected_fault();
        p.record_injected_fault();
        p.record_stall();
        let s = p.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 1);
        assert_eq!(s.injected_faults, 3);
        assert_eq!(s.stalls, 1);
        p.record_retry();
        let d = p.snapshot().delta(&s);
        assert_eq!(d.retries, 1);
        assert_eq!(d.giveups, 0);
        assert_eq!(d.injected_faults, 0);
        assert_eq!(d.stalls, 0);
    }
}
