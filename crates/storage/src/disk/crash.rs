//! [`CrashDisk`]: the power-loss simulator.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use super::{Disk, DiskWrite, MemDisk, WholeFile};
use crate::error::{StorageError, StorageResult};

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
/// Reads and metadata don't crash and reach the inner disk unchanged.
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

impl Disk for CrashDisk {
    fn inner(&self) -> Option<&dyn Disk> {
        Some(&*self.inner)
    }

    /// Buffers the whole file so the log records one atomic Write op at
    /// the moment the inner disk commits it.
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        let name = name.to_string();
        let (inner, log) = (Arc::clone(&self.inner), Arc::clone(&self.log));
        Ok(WholeFile::boxed(move |data| {
            inner.write_all_to(&name, &data)?;
            log.lock().push(CrashOp::Write { name, data });
            Ok(())
        }))
    }

    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        self.inner.write_all_to(name, data)?;
        self.record(CrashOp::Write {
            name: name.to_string(),
            data: data.to_vec(),
        });
        Ok(())
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        self.inner.remove(name)?;
        self.record(CrashOp::Remove {
            name: name.to_string(),
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
