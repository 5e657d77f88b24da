//! Preprocessing pipeline: degreeing then sharding (§III-A), on the
//! default thread count; the bytes written do not depend on it.

pub mod degree;
pub mod shard;
pub mod stream;

use std::mem::take;
use std::sync::Arc;

use nxgraph_storage::format::{self, FileKind};
use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::{Disk, EncodingPolicy};

use crate::dsss::{
    self, PreparedGraph, SubShardView, ENCODING_MANIFEST_KEY, SS_DISK_BYTES_MANIFEST_KEY,
    SS_RAW_BYTES_MANIFEST_KEY,
};
use crate::error::{EngineError, EngineResult};
use crate::parallel::run_tasks;
use crate::types::VertexId;

pub use degree::{degree, Degreeing};
pub use shard::shard;
pub use stream::preprocess_streamed;

/// Configuration for [`preprocess`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepConfig {
    /// Graph name recorded in the manifest.
    pub name: String,
    /// Number of intervals `P`. The paper finds `P = 12 … 48` to be good
    /// practice (Exp 2); at least one interval must fit in memory.
    pub num_intervals: u32,
    /// Also build transposed sub-shards (required by WCC/SCC).
    pub build_reverse: bool,
    /// On-disk blob encoding (format v3): `Raw` words, delta+varint
    /// `Compressed`, or per-blob `Auto`. Recorded in the manifest so hub
    /// writes during runs follow the same policy.
    pub encoding: EncodingPolicy,
}

impl PrepConfig {
    /// A forward-plus-reverse configuration (the common case).
    pub fn new(name: impl Into<String>, num_intervals: u32) -> Self {
        Self {
            name: name.into(),
            num_intervals,
            build_reverse: true,
            encoding: EncodingPolicy::default(),
        }
    }

    /// Forward-only (halves preprocessing output for PageRank/BFS-only
    /// workloads).
    pub fn forward_only(name: impl Into<String>, num_intervals: u32) -> Self {
        Self { build_reverse: false, ..Self::new(name, num_intervals) }
    }

    /// Builder-style encoding override.
    pub fn with_encoding(mut self, encoding: EncodingPolicy) -> Self {
        self.encoding = encoding;
        self
    }
}

/// Full preprocessing: degree the raw index pairs, shard onto `disk`, and
/// return the opened [`PreparedGraph`].
pub fn preprocess(
    raw_edges: &[(u64, u64)],
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
) -> EngineResult<PreparedGraph> {
    let deg = degree::degree(raw_edges);
    shard::shard(&deg, cfg, disk)
}

/// An edge in dense ids, `(src, dst)`.
type Edge = (VertexId, VertexId);

/// Raw (v2) and on-disk byte totals of the sub-shard blobs prep wrote:
/// the aggregate compression ratio recorded in the manifest.
#[derive(Debug, Default)]
struct BlobBytes {
    raw: u64,
    disk: u64,
}

/// The shape both prep paths require: `P ≥ 1` and a non-empty id space.
fn check_shape(p: u32, n: u32) -> EngineResult<()> {
    match (p, n) {
        (0, _) => Err(EngineError::Invalid("P must be positive".into())),
        (_, 0) => Err(EngineError::Invalid("cannot shard an empty graph (no vertices)".into())),
        _ => Ok(()),
    }
}

/// The counting scatter both prep paths group edges with: `place` maps
/// each edge to its bucket and to the edge as stored there (`None`
/// rejects it). One counting pass and one scatter pass, each over
/// `threads` chunks of `edges`, every chunk writing its own part of each
/// bucket. Returns the buckets, carved from `out` in order, or the first
/// rejected edge.
fn scatter<'a>(
    edges: &[Edge],
    out: &'a mut [Edge],
    buckets: usize,
    threads: usize,
    place: impl Fn(Edge) -> Option<(usize, Edge)> + Sync,
) -> Result<Vec<&'a mut [Edge]>, Edge> {
    assert_eq!(edges.len(), out.len(), "scatter needs one slot per edge");
    let chunks: Vec<&[Edge]> = edges.chunks(edges.len().div_ceil(threads.max(1)).max(1)).collect();
    let mut counts = vec![(vec![0usize; buckets], None); chunks.len()];
    let tasks: Vec<_> = chunks.iter().zip(&mut counts).collect();
    run_tasks(threads, tasks, |(chunk, (count, rejected))| {
        let mut counted = |e: Edge| place(e).map(|(b, _)| count[b] += 1).is_some();
        *rejected = chunk.iter().copied().find(|&e| !counted(e));
    });
    if let Some(e) = counts.iter().find_map(|(_, rejected)| *rejected) {
        return Err(e);
    }
    // Carve `out` bucket by bucket, each bucket chunk by chunk.
    let parts = (0..buckets).flat_map(|b| counts.iter().map(move |(count, _)| count[b]));
    let mut cursors: Vec<Vec<&mut [Edge]>> = chunks.iter().map(|_| Vec::new()).collect();
    for (k, part) in carve(out, parts).into_iter().enumerate() {
        cursors[k % chunks.len()].push(part);
    }
    run_tasks(threads, chunks.into_iter().zip(cursors).collect(), |(chunk, mut cursor)| {
        for &e in chunk {
            let (b, e) = place(e).expect("placed by the counting pass");
            let (slot, tail) = take(&mut cursor[b]).split_first_mut().expect("counted");
            *slot = e;
            cursor[b] = tail;
        }
    });
    let sizes = (0..buckets).map(|b| counts.iter().map(|(count, _)| count[b]).sum());
    Ok(carve(out, sizes))
}

/// `s` split into consecutive parts of the given lengths.
fn carve<T>(mut s: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (part, rest) = take(&mut s).split_at_mut(len);
        s = rest;
        part
    })
    .collect()
}

/// The one cell writer of both prep paths: sort each cell of row `i`
/// (transposed when `reverse`) in place, build and encode the cells in
/// parallel, then write them in cell order under their prep-time names,
/// counting their raw and on-disk bytes into `totals`.
fn write_row(
    disk: &dyn Disk,
    (i, reverse): (u32, bool),
    cells: &mut [&mut [Edge]],
    encoding: EncodingPolicy,
    threads: usize,
    totals: &mut BlobBytes,
) -> EngineResult<()> {
    let mut blobs = vec![(0u64, Vec::new()); cells.len()];
    let mut tasks: Vec<_> = (0u32..).zip(cells.iter_mut()).zip(&mut blobs).collect();
    // Largest cell first: workers claim tasks in list order.
    tasks.sort_by_key(|((_, cell), _)| std::cmp::Reverse(cell.len()));
    run_tasks(threads, tasks, |((j, cell), blob)| {
        let ss = SubShardView::from_edges_in(i, j, cell);
        *blob = (ss.encoded_len(), ss.encode_with(encoding));
    });
    for (j, (raw, blob)) in (0u32..).zip(blobs) {
        disk.write_all_to(&GraphManifest::subshard_base_file(i, j, reverse, 0), &blob)?;
        totals.raw += raw;
        totals.disk += blob.len() as u64;
    }
    Ok(())
}

/// The tail both prep paths share once every cell is written: record the
/// encoding and the blob byte totals as manifest extras, write the degree
/// table and the reverse mapping (`index_of` yields each id's original
/// index), save the manifest and open the graph.
fn finish(
    disk: Arc<dyn Disk>,
    mut manifest: GraphManifest,
    encoding: EncodingPolicy,
    totals: BlobBytes,
    out_degrees: Vec<u32>,
    index_of: impl ExactSizeIterator<Item = u64>,
) -> EngineResult<PreparedGraph> {
    for (key, value) in [
        (ENCODING_MANIFEST_KEY, encoding.to_string()),
        (SS_RAW_BYTES_MANIFEST_KEY, totals.raw.to_string()),
        (SS_DISK_BYTES_MANIFEST_KEY, totals.disk.to_string()),
    ] {
        manifest.extra.insert(key.to_string(), value);
    }
    dsss::write_degree_table(disk.as_ref(), GraphManifest::degree_file(), &out_degrees)?;
    let mut payload = Vec::with_capacity(index_of.len() * 8);
    for index in index_of {
        format::push_u64(&mut payload, index);
    }
    let mut blob = Vec::new();
    format::write_blob(&mut blob, FileKind::Mapping, &payload).expect("vec write is infallible");
    disk.write_all_to(GraphManifest::reverse_mapping_file(), &blob)?;
    manifest.save(disk.as_ref())?;
    PreparedGraph::from_parts(disk, manifest, Arc::new(out_degrees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_storage::MemDisk;

    #[test]
    fn end_to_end_prep() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let raw = vec![(10u64, 20u64), (20, 30), (30, 10), (10, 30)];
        let g = preprocess(&raw, &PrepConfig::new("tri", 2), disk).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_reverse());
        assert_eq!(g.out_degrees().as_slice(), &[2, 1, 1]);
    }

    /// Every file on `disk` with a digest of its bytes, by name.
    fn digests(disk: &dyn Disk) -> Vec<(String, u64)> {
        use std::hash::{Hash, Hasher};
        let mut files = disk.list();
        files.sort();
        files
            .into_iter()
            .map(|name| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                disk.read_all(&name).unwrap().hash(&mut h);
                (name, h.finish())
            })
            .collect()
    }

    #[test]
    fn prep_bytes_do_not_depend_on_the_thread_count() {
        use nxgraph_graphgen::rmat::{generate, RmatConfig};
        let rmat: Vec<(u64, u64)> =
            generate(&RmatConfig::graph500(12, 8, 3)).into_iter().map(|e| (e.src, e.dst)).collect();
        // Sparse indices spread over the whole u64 range, extremes included.
        let mut sparse: Vec<(u64, u64)> = (0..3000u64)
            .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), (k % 97).wrapping_mul(u64::MAX / 96)))
            .collect();
        sparse.extend([(0, 1 << 63), (u64::MAX, 0), (1 << 63, u64::MAX)]);
        let cases = [
            (&rmat, EncodingPolicy::Raw),
            (&rmat, EncodingPolicy::Auto),
            (&sparse, EncodingPolicy::Auto),
        ];
        for (raw, encoding) in cases {
            let cfg = PrepConfig::new("threads", 7).with_encoding(encoding);
            let run = |threads| {
                let deg = degree::degree_with(raw, threads);
                let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
                shard::shard_with(&deg, &cfg, Arc::clone(&disk), threads).unwrap();
                (deg, digests(disk.as_ref()))
            };
            let (want_deg, want_files) = run(1);
            assert!(want_files.len() > 2 * 49, "{encoding:?}: every cell written");
            for threads in [2, 3, 8] {
                let (deg, files) = run(threads);
                assert!(deg == want_deg, "{encoding:?}: degreeing differs at {threads} threads");
                assert_eq!(files, want_files, "{encoding:?}: store differs at {threads} threads");
            }
        }
    }

    #[test]
    fn forward_only_skips_reverse() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(
            &[(0, 1), (1, 0)],
            &PrepConfig::forward_only("pair", 2),
            disk,
        )
        .unwrap();
        assert!(!g.has_reverse());
        assert!(g.load_subshard(0, 0, true).is_err());
    }
}
