//! [`MemDisk`]: an in-memory file map.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use super::{Disk, DiskWrite, WholeFile};
use crate::counter::IoCounters;
use crate::error::{StorageError, StorageResult};
use crate::pool::{AlignedBuf, BufferPool, SharedBytes};

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

    /// The stored bytes of `name`, counted as one whole-file read.
    fn fetch(&self, name: &str) -> StorageResult<Arc<Vec<u8>>> {
        let data = self
            .files
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.counters.record_seek();
        self.counters.record_read(data.len() as u64);
        Ok(data)
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl Disk for MemDisk {
    /// The file lands, and counts, when the writer finishes.
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        let name = name.to_string();
        let (files, counters) = (Arc::clone(&self.files), Arc::clone(&self.counters));
        Ok(WholeFile::boxed(move |data| {
            counters.record_seek();
            counters.record_write(data.len() as u64);
            files.lock().insert(name, Arc::new(data));
            Ok(())
        }))
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

    fn list(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        Ok(self.fetch(name)?.to_vec())
    }

    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        let data = self.fetch(name)?;
        buf.resize(data.len());
        buf.as_mut_slice().copy_from_slice(&data);
        Ok(())
    }

    /// One copy of `data` into the map, counted like a finished writer.
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        self.counters.record_seek();
        self.counters.record_write(data.len() as u64);
        self.files
            .lock()
            .insert(name.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    /// Zero-copy: the stored `Arc<Vec<u8>>` *is* the result. The bytes
    /// still count as read — the engines' byte-exact I/O accounting must
    /// not depend on which disk backs an experiment.
    fn read_shared(&self, name: &str, _pool: &Arc<BufferPool>) -> StorageResult<SharedBytes> {
        Ok(SharedBytes::Owned(self.fetch(name)?))
    }
}
