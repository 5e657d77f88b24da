//! Out-of-core preprocessing — sharding a graph that never fits in memory.
//!
//! [`preprocess`](super::preprocess) holds the whole pre-shard (every edge)
//! resident while degreeing and scattering, which caps it at graphs that
//! fit in RAM — exactly what the paper's out-of-core setting rules out.
//! This module shards from a *stream* of edge chunks instead, holding at
//! most one interval row's edges plus the `O(n)` degree table at a time:
//!
//! 1. **Spill pass** — each chunk is appended to one of `P` row spill
//!    files, partitioned by source interval (and, for reverse sub-shards,
//!    to `P` transposed spills partitioned by destination interval), as
//!    raw little-endian `(u32, u32)` records. Degrees accumulate on the
//!    fly. Nothing but the current chunk and `P` write buffers is
//!    resident.
//! 2. **Row pass** — each spill is read back, grouped by destination
//!    interval with the same counting scatter and written through the
//!    same row writer as [`preprocess`](super::preprocess): cells sorted
//!    in place, built and encoded in parallel under the configured
//!    [`EncodingPolicy`](nxgraph_storage::EncodingPolicy), written in cell
//!    order; then the spill is deleted. Peak memory is about two copies
//!    of one row (`≈ m/P` edges), the knob the paper turns with `P`.
//!
//! The stream must use dense ids `0..n` directly (the identity mapping) —
//! synthetic generators such as R-MAT already do. This skips the global
//! sort/dedup of degreeing, which is what would force the whole edge list
//! into memory.

use std::sync::Arc;

use nxgraph_storage::format;
use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::{Disk, DiskWrite, StorageError};

use crate::dsss::PreparedGraph;
use crate::error::{EngineError, EngineResult};
use crate::parallel::default_threads;
use crate::types::VertexId;

use super::{check_shape, scatter, write_row, BlobBytes, PrepConfig};

/// Spill write-buffer size per row file; 8-byte records are batched into
/// buffers this large before hitting the disk trait.
const SPILL_BUF: usize = 256 * 1024;

/// Row spill file name (deleted before the manifest is saved, and on
/// every error path).
fn spill_name(reverse: bool, i: u32) -> String {
    format!("prep_spill_{}_{i}.tmp", if reverse { "r" } else { "f" })
}

/// A set of `P` append-only spill writers with small batching buffers.
struct Spills {
    writers: Vec<Box<dyn DiskWrite>>,
    bufs: Vec<Vec<u8>>,
}

impl Spills {
    fn create(disk: &dyn Disk, p: u32, reverse: bool) -> EngineResult<Self> {
        let mut writers = Vec::with_capacity(p as usize);
        for i in 0..p {
            writers.push(disk.create(&spill_name(reverse, i))?);
        }
        Ok(Self { writers, bufs: vec![Vec::new(); p as usize] })
    }

    fn push(&mut self, row: u32, s: VertexId, d: VertexId) -> EngineResult<()> {
        let buf = &mut self.bufs[row as usize];
        format::push_u32(buf, s);
        format::push_u32(buf, d);
        if buf.len() >= SPILL_BUF {
            self.writers[row as usize].write_all(buf).map_err(StorageError::from)?;
            buf.clear();
        }
        Ok(())
    }

    fn finish(self) -> EngineResult<()> {
        for (mut w, buf) in self.writers.into_iter().zip(self.bufs) {
            if !buf.is_empty() {
                w.write_all(&buf).map_err(StorageError::from)?;
            }
            w.finish()?;
        }
        Ok(())
    }
}

/// Shard a stream of edge chunks onto `disk` without ever holding the
/// full edge list in memory. `num_vertices` fixes the dense id space up
/// front; every edge endpoint must be `< num_vertices`.
///
/// Chunks may be any size; the generator (not this function) decides how
/// much of the graph exists in memory at once. Returns the opened
/// [`PreparedGraph`], bit-compatible with [`preprocess`](super::preprocess)
/// output for the same dense-id edge sequence. A failed call leaves no
/// spill file behind.
pub fn preprocess_streamed<C, I>(
    num_vertices: u32,
    chunks: I,
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
) -> EngineResult<PreparedGraph>
where
    C: IntoIterator<Item = (VertexId, VertexId)>,
    I: IntoIterator<Item = C>,
{
    check_shape(cfg.num_intervals, num_vertices)?;
    let res = shard_streamed(num_vertices, chunks, cfg, Arc::clone(&disk));
    if res.is_err() {
        // The spill writers are dropped by now; a spill the failed pass
        // never created or already consumed is simply not found.
        for reverse in [false, true] {
            for i in 0..cfg.num_intervals {
                let _ = disk.remove(&spill_name(reverse, i));
            }
        }
    }
    res
}

/// [`preprocess_streamed`] past its argument checks: the spill pass, the
/// row pass and the shared prep tail.
fn shard_streamed<C, I>(
    num_vertices: u32,
    chunks: I,
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
) -> EngineResult<PreparedGraph>
where
    C: IntoIterator<Item = (VertexId, VertexId)>,
    I: IntoIterator<Item = C>,
{
    let p = cfg.num_intervals;
    let mut manifest =
        GraphManifest::new(cfg.name.as_str(), num_vertices as u64, 0, p, cfg.build_reverse);
    let interval_len = manifest.interval_len() as VertexId;
    let interval_of = |v: VertexId| (v / interval_len).min(p - 1);

    // ---- Spill pass -----------------------------------------------------
    let mut out_degrees = vec![0u32; num_vertices as usize];
    let mut fwd = Spills::create(disk.as_ref(), p, false)?;
    let mut rev = if cfg.build_reverse {
        Some(Spills::create(disk.as_ref(), p, true)?)
    } else {
        None
    };
    let mut num_edges = 0u64;
    for chunk in chunks {
        for (s, d) in chunk {
            if s >= num_vertices || d >= num_vertices {
                return Err(EngineError::Invalid(format!(
                    "edge ({s}, {d}) outside dense id space 0..{num_vertices}"
                )));
            }
            out_degrees[s as usize] += 1;
            num_edges += 1;
            fwd.push(interval_of(s), s, d)?;
            if let Some(rev) = rev.as_mut() {
                rev.push(interval_of(d), d, s)?;
            }
        }
    }
    if num_edges == 0 {
        return Err(EngineError::Invalid(
            "cannot shard an empty graph (no edges)".into(),
        ));
    }
    fwd.finish()?;
    if let Some(rev) = rev {
        rev.finish()?;
    }
    manifest.num_edges = num_edges;

    // ---- Row pass -------------------------------------------------------
    let mut totals = BlobBytes::default();
    let threads = default_threads();
    let dirs: &[bool] = if cfg.build_reverse { &[false, true] } else { &[false] };
    for &reverse in dirs {
        for i in 0..p {
            let name = spill_name(reverse, i);
            let records = disk.read_all(&name)?;
            let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte word"));
            let row: Vec<(VertexId, VertexId)> =
                records.chunks_exact(8).map(|rec| (word(&rec[..4]), word(&rec[4..]))).collect();
            drop(records);
            let mut grouped = vec![(0, 0); row.len()];
            let mut cells = scatter(&row, &mut grouped, p as usize, threads, |e| {
                Some((interval_of(e.1) as usize, e))
            })
            .expect("the spill pass checked every id");
            drop(row);
            write_row(disk.as_ref(), (i, reverse), &mut cells, cfg.encoding, threads, &mut totals)?;
            disk.remove(&name)?;
        }
    }
    // The degree table is the only O(n) state this path keeps resident;
    // the reverse mapping is the identity (id i maps to index i).
    let index_of = (0..num_vertices).map(u64::from);
    super::finish(disk, manifest, cfg.encoding, totals, out_degrees, index_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{EncodingPolicy, MemDisk};

    fn fig1_dense() -> Vec<(VertexId, VertexId)> {
        crate::fig1_example_edges()
    }

    /// Same dense-id edges through both paths → byte-identical sub-shards
    /// and identical degree/manifest state.
    #[test]
    fn streamed_matches_classic_on_dense_input() {
        for enc in [EncodingPolicy::Raw, EncodingPolicy::Auto] {
            let cfg = PrepConfig::new("fig1", 4).with_encoding(enc);
            let classic_disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
            let raw: Vec<(u64, u64)> =
                fig1_dense().iter().map(|&(s, d)| (s as u64, d as u64)).collect();
            let classic = preprocess(&raw, &cfg, Arc::clone(&classic_disk)).unwrap();

            let streamed_disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
            // Chunked three edges at a time to exercise chunk boundaries.
            let chunks: Vec<Vec<(VertexId, VertexId)>> =
                fig1_dense().chunks(3).map(|c| c.to_vec()).collect();
            let streamed =
                preprocess_streamed(7, chunks, &cfg, Arc::clone(&streamed_disk)).unwrap();

            assert_eq!(streamed.num_vertices(), classic.num_vertices());
            assert_eq!(streamed.num_edges(), classic.num_edges());
            assert_eq!(streamed.out_degrees(), classic.out_degrees());
            for i in 0..4 {
                for j in 0..4 {
                    for rev in [false, true] {
                        let a = classic.load_subshard(i, j, rev).unwrap();
                        let b = streamed.load_subshard(i, j, rev).unwrap();
                        assert_eq!(
                            a.iter_edges().collect::<Vec<_>>(),
                            b.iter_edges().collect::<Vec<_>>(),
                            "cell ({i},{j}) rev={rev} enc={enc:?}"
                        );
                    }
                }
            }
            // Spills cleaned up.
            for i in 0..4 {
                assert!(!streamed_disk.exists(&spill_name(false, i)));
                assert!(!streamed_disk.exists(&spill_name(true, i)));
            }
        }
    }

    #[test]
    fn rejects_out_of_range_ids_and_empty_streams() {
        let cfg = PrepConfig::forward_only("bad", 2);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let err = preprocess_streamed(3, vec![vec![(0u32, 5u32)]], &cfg, Arc::clone(&disk));
        assert!(err.is_err());
        let empty: Vec<Vec<(VertexId, VertexId)>> = Vec::new();
        assert!(preprocess_streamed(3, empty, &cfg, Arc::clone(&disk)).is_err());
        assert!(preprocess_streamed(0, vec![vec![(0u32, 1u32)]], &cfg, disk).is_err());
    }

    #[test]
    fn failed_stream_leaves_no_spill_files_on_disk() {
        // `OsDisk::create` makes the file at once (a `MemDisk` only on
        // `finish`), so this is where a leaked spill would show.
        let dir = nxgraph_storage::ScratchDir::new("prep-spill-leak");
        let disk: Arc<dyn Disk> = Arc::new(nxgraph_storage::OsDisk::new(dir.path()).unwrap());
        let cfg = PrepConfig::new("leak", 2);
        let err = preprocess_streamed(4, vec![vec![(0u32, 1u32), (1, 9)]], &cfg, Arc::clone(&disk));
        assert!(err.is_err());
        assert_eq!(disk.list(), Vec::<String>::new());
    }
}
