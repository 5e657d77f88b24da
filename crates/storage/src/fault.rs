//! Scripted and seeded transient-fault injection.
//!
//! [`FaultDisk`] wraps any [`Disk`] and injects the failure modes real
//! disk-bound deployments see but the paper's fail-stop model ignores:
//! EIO on reads and writes, short reads, EINTR-style interrupted syscalls,
//! per-operation latency stalls, and ENOSPC after a byte budget. Every
//! decision comes from a replayable [`FaultPlan`] — a pure function of
//! `(plan, file name, operation class, per-(name, op) access index)` — so
//! a plan replayed over the same access sequence injects the *identical*
//! fault sequence regardless of thread interleaving, wall-clock time, or
//! previous runs. That determinism is what makes the chaos matrix
//! meaningful: a faulted run can be compared bitwise against a fault-free
//! run of the same plan.
//!
//! Seeded plans ([`FaultPlan::seeded`]) fault only *read* operations, in
//! short episodes (1–2 consecutive accesses out of every 16–31) so the
//! default 4-attempt [`RetryPolicy`](crate::retry::RetryPolicy) always
//! clears them — by construction, every seeded plan is survivable with
//! retries on. Scripted rules ([`FaultRule`]) can express anything,
//! including persistent faults that exhaust retries, whole-file read
//! failures, and multi-second stalls for the watchdog.
//!
//! Injection happens on the whole-file paths every caller uses:
//! [`Disk::read_all`] ([`FaultOp::ReadAll`]), [`Disk::read_into`]
//! ([`FaultOp::Read`]; the default `read_shared` routes through it, so a
//! stacked `Fault → Paced → Os` chain still reaches the inner `O_DIRECT`
//! implementation) and the writer returned by [`Disk::create`]
//! ([`FaultOp::Write`]; `write_all_to` routes through it). Every other
//! method is the inner disk's own, unfaulted. Every injection is counted
//! — on the disk's [`IoProfile`] (`injected_faults`) and in an ordered
//! in-memory log for the determinism tests.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::disk::{Disk, DiskWrite};
use crate::error::{StorageError, StorageResult};
use crate::pool::AlignedBuf;
use crate::profile::IoProfile;

/// `errno` for "no space left on device", surfaced on injected ENOSPC.
pub const ENOSPC: i32 = 28;

/// The operation classes a fault plan distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `Disk::read_all` (buffered whole-file reads).
    ReadAll,
    /// `Disk::read_into` / `read_shared` (bulk reads).
    Read,
    /// `Disk::create` / `write_all_to` (whole-file writes).
    Write,
}

/// What an injected fault does to the faulted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an EIO-class [`io::Error`] (transient).
    ReadError,
    /// A read delivers only half its bytes and reports
    /// [`StorageError::ShortRead`] (transient).
    ShortRead,
    /// The operation fails with [`io::ErrorKind::Interrupted`] (EINTR).
    Interrupt,
    /// The operation sleeps this long, then proceeds normally — the
    /// hung-device mode the watchdog exists for.
    Stall(Duration),
    /// A write fails with an EIO-class [`io::Error`] (transient).
    WriteError,
}

/// One scripted fault: fault `count` consecutive accesses starting at
/// access `first` (0-based, counted per `(name, op)` pair) of every file
/// whose name contains `name_contains`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Substring match against the file name (empty matches every file).
    pub name_contains: String,
    /// Operation class this rule applies to.
    pub op: FaultOp,
    /// Fault to inject.
    pub kind: FaultKind,
    /// First access index (per `(name, op)`) to fault.
    pub first: u64,
    /// How many consecutive accesses fault; `u64::MAX` = forever, for
    /// retry-exhaustion tests.
    pub count: u64,
}

impl FaultRule {
    fn applies(&self, name: &str, op: FaultOp, n: u64) -> bool {
        op == self.op
            && n >= self.first
            && n - self.first < self.count
            && name.contains(&self.name_contains)
    }
}

/// FNV-1a over the seed, the file name, and the op tag: the whole source
/// of randomness in a seeded plan.
fn fnv(seed: u64, name: &str, op: FaultOp) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x100000001b3);
    for &b in name.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    let tag = match op {
        FaultOp::ReadAll => 1u64,
        FaultOp::Read => 2,
        FaultOp::Write => 3,
    };
    (h ^ tag).wrapping_mul(0x100000001b3)
}

/// A replayable description of which accesses fault and how.
///
/// Decisions are pure: [`FaultPlan::fault_for`] depends only on the plan,
/// the file name, the op class, and that pair's access index. A plan with
/// both scripted rules and a seed consults the rules first.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: Option<u64>,
    /// Total written bytes allowed before every further write fails with
    /// ENOSPC.
    enospc_after: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: no faults until rules are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// A seeded-probabilistic plan: roughly a quarter of `(name, read)`
    /// pairs fault in short deterministic episodes (1–2 consecutive
    /// accesses out of every 16–31), with the fault kind (EIO / EINTR /
    /// short read) also derived from the seed. Only *read* operations
    /// fault, and every episode is shorter than the default retry
    /// budget, so seeded plans are always survivable with retries on.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed: Some(seed),
            ..Self::default()
        }
    }

    /// Add a scripted rule (consulted before the seed, in order).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Fail every write with ENOSPC once `bytes` total bytes have been
    /// written through the wrapping [`FaultDisk`].
    pub fn with_enospc_after(mut self, bytes: u64) -> Self {
        self.enospc_after = Some(bytes);
        self
    }

    /// The fault (if any) for access number `n` (0-based, per
    /// `(name, op)`) of `name`. Pure — this is the replayability
    /// guarantee.
    pub fn fault_for(&self, name: &str, op: FaultOp, n: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.applies(name, op, n) {
                return Some(rule.kind);
            }
        }
        let seed = self.seed?;
        if op != FaultOp::Read {
            return None;
        }
        let h = fnv(seed, name, op);
        if !h.is_multiple_of(4) {
            return None;
        }
        let stride = 16 + ((h >> 8) % 16); // 16..=31
        let len = 1 + ((h >> 16) & 1); // 1 or 2 < default 4 attempts
        let start = (h >> 24) % (stride - len + 1); // episode never wraps
        let phase = n % stride;
        if phase < start || phase >= start + len {
            return None;
        }
        Some(match (h >> 32) % 3 {
            0 => FaultKind::ReadError,
            1 => FaultKind::Interrupt,
            _ => FaultKind::ShortRead,
        })
    }

    /// The ENOSPC byte budget, when one is set.
    pub fn enospc_after(&self) -> Option<u64> {
        self.enospc_after
    }
}

/// One recorded injection, in the order it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// File the faulted operation targeted.
    pub name: String,
    /// Operation class that faulted.
    pub op: FaultOp,
    /// Access index (per `(name, op)`) that faulted.
    pub access: u64,
    /// The fault injected.
    pub kind: FaultKind,
}

/// A [`Disk`] wrapper that injects the faults a [`FaultPlan`] prescribes.
pub struct FaultDisk {
    inner: Arc<dyn Disk>,
    plan: FaultPlan,
    /// Per-(name, op) access counters driving the plan.
    counts: Mutex<HashMap<(String, FaultOp), u64>>,
    /// Bytes written through this wrapper, for the ENOSPC budget.
    written: Arc<AtomicU64>,
    /// Ordered log of every injection, for determinism tests.
    log: Arc<Mutex<Vec<Injection>>>,
    /// Profile that records injections when the inner disk keeps none
    /// (e.g. a MemDisk-backed chaos run still needs visible counters).
    owned_profile: Arc<IoProfile>,
}

impl FaultDisk {
    /// Wrap `inner`, injecting per `plan`.
    pub fn new(inner: Arc<dyn Disk>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            counts: Mutex::new(HashMap::new()),
            written: Arc::new(AtomicU64::new(0)),
            log: Arc::new(Mutex::new(Vec::new())),
            owned_profile: IoProfile::new(),
        }
    }

    /// The plan driving this disk.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far.
    pub fn injections(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Ordered copy of every injection so far.
    pub fn injection_log(&self) -> Vec<Injection> {
        self.log.lock().clone()
    }

    /// Claim this access's index for `(name, op)` and return the planned
    /// fault, recording it if one fires.
    fn decide(&self, name: &str, op: FaultOp) -> Option<FaultKind> {
        let n = {
            let mut counts = self.counts.lock();
            let slot = counts.entry((name.to_string(), op)).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let kind = self.plan.fault_for(name, op, n)?;
        self.record(Injection {
            name: name.to_string(),
            op,
            access: n,
            kind,
        });
        Some(kind)
    }

    fn record(&self, inj: Injection) {
        self.profile().record_injected_fault();
        self.log.lock().push(inj);
    }

    fn profile(&self) -> &Arc<IoProfile> {
        self.inner.io_profile().unwrap_or(&self.owned_profile)
    }

    fn eio(name: &str, op: &str) -> StorageError {
        StorageError::Io(io::Error::other(format!(
            "injected transient EIO on {op} of {name}"
        )))
    }

    /// Apply the planned fault, if any, of this access of a read op
    /// before any bytes move; `Ok(true)` asks for a short read.
    fn read_fault(&self, name: &str, op: FaultOp) -> StorageResult<bool> {
        match self.decide(name, op) {
            None => Ok(false),
            Some(FaultKind::Stall(d)) => {
                std::thread::sleep(d);
                Ok(false)
            }
            Some(FaultKind::ShortRead) => Ok(true),
            Some(FaultKind::Interrupt) => Err(Self::eintr(name)),
            Some(_) => Err(Self::eio(name, "read")),
        }
    }

    /// The error of a short read that delivered half of `len` bytes.
    fn short_read(name: &str, len: usize) -> StorageError {
        StorageError::ShortRead {
            name: name.to_string(),
            expected: len as u64,
            actual: len as u64 / 2,
        }
    }

    fn eintr(name: &str) -> StorageError {
        StorageError::Io(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected EINTR on {name}"),
        ))
    }
}

struct FaultWrite {
    name: String,
    inner: Box<dyn DiskWrite>,
    written: Arc<AtomicU64>,
    enospc_after: Option<u64>,
    log: Arc<Mutex<Vec<Injection>>>,
    profile: Arc<IoProfile>,
}

impl Write for FaultWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(budget) = self.enospc_after {
            let so_far = self.written.load(Ordering::Relaxed);
            if so_far + buf.len() as u64 > budget {
                self.profile.record_injected_fault();
                self.log.lock().push(Injection {
                    name: self.name.clone(),
                    op: FaultOp::Write,
                    access: so_far,
                    kind: FaultKind::WriteError,
                });
                return Err(io::Error::from_raw_os_error(ENOSPC));
            }
        }
        let n = self.inner.write(buf)?;
        self.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl DiskWrite for FaultWrite {
    fn finish(self: Box<Self>) -> StorageResult<()> {
        self.inner.finish()
    }
}

impl Disk for FaultDisk {
    fn inner(&self) -> Option<&dyn Disk> {
        Some(&*self.inner)
    }

    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        match self.decide(name, FaultOp::Write) {
            Some(FaultKind::Stall(d)) => std::thread::sleep(d),
            Some(FaultKind::Interrupt) => return Err(Self::eintr(name)),
            Some(_) => return Err(Self::eio(name, "create")),
            None => {}
        }
        Ok(Box::new(FaultWrite {
            name: name.to_string(),
            inner: self.inner.create(name)?,
            written: Arc::clone(&self.written),
            enospc_after: self.plan.enospc_after,
            log: Arc::clone(&self.log),
            profile: Arc::clone(self.profile()),
        }))
    }

    /// Through this disk's own `create`, so write rules and the ENOSPC
    /// budget apply to whole-buffer writes too.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let mut w = self.create(name)?;
        w.write_all(data)?;
        w.finish()
    }

    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        let short = self.read_fault(name, FaultOp::ReadAll)?;
        let data = self.inner.read_all(name)?;
        if short {
            return Err(Self::short_read(name, data.len()));
        }
        Ok(data)
    }

    /// The bulk-read injection point: forwards to the inner disk's
    /// (possibly `O_DIRECT`) implementation when no fault fires, so the
    /// default `read_shared` above this still takes the fast path.
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        let short = self.read_fault(name, FaultOp::Read)?;
        self.inner.read_into(name, buf)?;
        if short {
            let e = Self::short_read(name, buf.len());
            buf.resize(buf.len() / 2);
            return Err(e);
        }
        Ok(())
    }

    fn io_profile(&self) -> Option<&Arc<IoProfile>> {
        Some(self.profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::pool::BufferPool;

    fn mem_with(files: &[(&str, usize)]) -> Arc<dyn Disk> {
        let m = MemDisk::new();
        for (name, len) in files {
            m.write_all_to(name, &vec![0x5au8; *len]).unwrap();
        }
        Arc::new(m)
    }

    #[test]
    fn empty_plan_is_a_clean_passthrough() {
        let inner = mem_with(&[("ss_0_0.bin", 4096)]);
        let fd = FaultDisk::new(Arc::clone(&inner), FaultPlan::new());
        assert_eq!(fd.read_all("ss_0_0.bin").unwrap(), inner.read_all("ss_0_0.bin").unwrap());
        let pool = BufferPool::new();
        let shared = fd.read_shared("ss_0_0.bin", &pool).unwrap();
        assert_eq!(shared.as_slice(), &inner.read_all("ss_0_0.bin").unwrap()[..]);
        assert_eq!(fd.injections(), 0);
    }

    #[test]
    fn scripted_read_error_fires_on_the_scheduled_accesses_only() {
        let inner = mem_with(&[("ss_0_0.bin", 64), ("hub_0.bin", 64)]);
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "ss_".into(),
            op: FaultOp::Read,
            kind: FaultKind::ReadError,
            first: 1,
            count: 2,
        });
        let fd = FaultDisk::new(inner, plan);
        let pool = BufferPool::new();
        // Access 0 clean, 1 and 2 fault, 3 clean again.
        assert!(fd.read_shared("ss_0_0.bin", &pool).is_ok());
        let e = fd.read_shared("ss_0_0.bin", &pool).unwrap_err();
        assert!(e.is_transient(), "injected EIO must be transient: {e}");
        assert!(fd.read_shared("ss_0_0.bin", &pool).is_err());
        assert!(fd.read_shared("ss_0_0.bin", &pool).is_ok());
        // Non-matching name never faults.
        assert!(fd.read_shared("hub_0.bin", &pool).is_ok());
        assert!(fd.read_shared("hub_0.bin", &pool).is_ok());
        assert_eq!(fd.injections(), 2);
        assert_eq!(fd.io_profile().unwrap().snapshot().injected_faults, 2);
    }

    #[test]
    fn short_read_fault_reports_lengths_and_is_transient() {
        let inner = mem_with(&[("ss_0_0.bin", 100)]);
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: String::new(),
            op: FaultOp::Read,
            kind: FaultKind::ShortRead,
            first: 0,
            count: 1,
        });
        let fd = FaultDisk::new(inner, plan);
        let mut buf = AlignedBuf::with_capacity(0);
        match fd.read_into("ss_0_0.bin", &mut buf) {
            Err(StorageError::ShortRead {
                name,
                expected,
                actual,
            }) => {
                assert_eq!(name, "ss_0_0.bin");
                assert_eq!(expected, 100);
                assert_eq!(actual, 50);
                assert_eq!(buf.len(), 50, "buffer truncated to match the report");
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
        // Next access is clean and delivers everything.
        fd.read_into("ss_0_0.bin", &mut buf).unwrap();
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn interrupt_fault_is_eintr() {
        let inner = mem_with(&[("a.bin", 8)]);
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: String::new(),
            op: FaultOp::Read,
            kind: FaultKind::Interrupt,
            first: 0,
            count: 1,
        });
        let fd = FaultDisk::new(inner, plan);
        let mut buf = AlignedBuf::with_capacity(0);
        match fd.read_into("a.bin", &mut buf) {
            Err(StorageError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::Interrupted)
            }
            other => panic!("expected EINTR, got {other:?}"),
        }
    }

    #[test]
    fn read_all_fault_hits_the_whole_file_path() {
        let inner = mem_with(&[("a.bin", 8)]);
        let plan = |kind| {
            FaultPlan::new().with_rule(FaultRule {
                name_contains: String::new(),
                op: FaultOp::ReadAll,
                kind,
                first: 0,
                count: 1,
            })
        };
        let fd = FaultDisk::new(Arc::clone(&inner), plan(FaultKind::ReadError));
        assert!(matches!(fd.read_all("a.bin"), Err(StorageError::Io(_))));
        // Only the first read faults.
        assert_eq!(fd.read_all("a.bin").unwrap(), [0x5a; 8]);
        let mut buf = AlignedBuf::with_capacity(0);
        fd.read_into("a.bin", &mut buf).unwrap();
        assert_eq!(fd.injections(), 1, "bulk reads count under their own op");
        let fd = FaultDisk::new(inner, plan(FaultKind::ShortRead));
        match fd.read_all("a.bin") {
            Err(StorageError::ShortRead {
                expected, actual, ..
            }) => assert_eq!((expected, actual), (8, 4)),
            other => panic!("expected ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn stall_fault_delays_but_succeeds() {
        let inner = mem_with(&[("a.bin", 8)]);
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: String::new(),
            op: FaultOp::Read,
            kind: FaultKind::Stall(Duration::from_millis(30)),
            first: 0,
            count: 1,
        });
        let fd = FaultDisk::new(inner, plan);
        let mut buf = AlignedBuf::with_capacity(0);
        let t = std::time::Instant::now();
        fd.read_into("a.bin", &mut buf).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
        assert_eq!(buf.len(), 8);
        assert_eq!(fd.injections(), 1);
    }

    #[test]
    fn enospc_budget_fails_writes_with_errno_28_and_rollover_is_denied() {
        let inner = mem_with(&[]);
        let fd = FaultDisk::new(inner, FaultPlan::new().with_enospc_after(100));
        fd.write_all_to("a.bin", &[1u8; 60]).unwrap();
        // 60 + 60 > 100: the second write must die with ENOSPC.
        let e = fd.write_all_to("b.bin", &[2u8; 60]).unwrap_err();
        match e {
            StorageError::Io(io) => assert_eq!(io.raw_os_error(), Some(ENOSPC)),
            other => panic!("expected ENOSPC io error, got {other:?}"),
        }
        // A smaller write still fits the remaining budget.
        fd.write_all_to("c.bin", &[3u8; 30]).unwrap();
        assert!(fd.injections() >= 1);
    }

    #[test]
    fn scripted_write_error_fails_create() {
        let inner = mem_with(&[]);
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "manifest".into(),
            op: FaultOp::Write,
            kind: FaultKind::WriteError,
            first: 0,
            count: 1,
        });
        let fd = FaultDisk::new(inner, plan);
        assert!(fd.write_all_to("manifest.tmp", b"x").is_err());
        assert!(fd.write_all_to("manifest.tmp", b"x").is_ok());
        assert!(fd.write_all_to("other.bin", b"x").is_ok());
    }

    #[test]
    fn seeded_plans_fault_some_reads_and_episodes_fit_the_retry_budget() {
        // Across a handful of seeds and many names: at least one pair
        // faults, episodes never exceed 2 consecutive accesses, and only
        // reads fault.
        for seed in [1u64, 2, 3, 42, 0xdead] {
            let plan = FaultPlan::seeded(seed);
            let mut any = false;
            for i in 0..32 {
                let name = format!("ss_{}_{}.bin", i / 8, i % 8);
                assert!(plan.fault_for(&name, FaultOp::ReadAll, 0).is_none());
                assert!(plan.fault_for(&name, FaultOp::Write, 0).is_none());
                let mut run = 0u32;
                let mut max_run = 0u32;
                for n in 0..200u64 {
                    if plan.fault_for(&name, FaultOp::Read, n).is_some() {
                        any = true;
                        run += 1;
                        max_run = max_run.max(run);
                    } else {
                        run = 0;
                    }
                }
                assert!(
                    max_run <= 2,
                    "seed {seed} name {name}: episode of {max_run} > 2"
                );
            }
            assert!(any, "seed {seed} faulted nothing in 32 names × 200 reads");
        }
    }

    #[test]
    fn seeded_plan_decisions_are_pure() {
        let plan = FaultPlan::seeded(7);
        for n in 0..100u64 {
            assert_eq!(
                plan.fault_for("ss_1_2.bin", FaultOp::Read, n),
                plan.fault_for("ss_1_2.bin", FaultOp::Read, n)
            );
        }
    }

    #[test]
    fn replaying_the_same_access_sequence_logs_identical_injections() {
        let run = || {
            let inner = mem_with(&[("ss_0_0.bin", 64), ("ss_0_1.bin", 64), ("hub_0.bin", 64)]);
            let fd = FaultDisk::new(inner, FaultPlan::seeded(99));
            let pool = BufferPool::new();
            for _ in 0..40 {
                for name in ["ss_0_0.bin", "ss_0_1.bin", "hub_0.bin"] {
                    let _ = fd.read_shared(name, &pool);
                }
            }
            fd.injection_log()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + same accesses must inject identically");
        assert!(!a.is_empty(), "seed 99 should fault at least once here");
    }

    #[test]
    fn owned_profile_counts_injections_over_profileless_inner_disks() {
        let inner = mem_with(&[("a.bin", 8)]);
        assert!(inner.io_profile().is_none(), "MemDisk keeps no profile");
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: String::new(),
            op: FaultOp::Read,
            kind: FaultKind::ReadError,
            first: 0,
            count: u64::MAX,
        });
        let fd = FaultDisk::new(inner, plan);
        let mut buf = AlignedBuf::with_capacity(0);
        for _ in 0..3 {
            assert!(fd.read_into("a.bin", &mut buf).is_err());
        }
        let snap = fd.io_profile().expect("FaultDisk always has one").snapshot();
        assert_eq!(snap.injected_faults, 3);
    }
}
