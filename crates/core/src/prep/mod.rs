//! Preprocessing pipeline: degreeing then sharding (§III-A).

pub mod degree;
pub mod shard;
pub mod stream;

use std::sync::Arc;

use nxgraph_storage::format::{self, FileKind};
use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::{Disk, EncodingPolicy};

use crate::dsss::{
    self, PreparedGraph, SubShardView, ENCODING_MANIFEST_KEY, SS_DISK_BYTES_MANIFEST_KEY,
    SS_RAW_BYTES_MANIFEST_KEY,
};
use crate::error::EngineResult;
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
        Self {
            name: name.into(),
            num_intervals,
            build_reverse: false,
            encoding: EncodingPolicy::default(),
        }
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

/// Raw (v2) and on-disk byte totals of the sub-shard blobs prep wrote:
/// the aggregate compression ratio recorded in the manifest.
#[derive(Debug, Default)]
struct BlobBytes {
    raw: u64,
    disk: u64,
}

/// The one cell writer of both prep paths: build cell `(i, j)`
/// (transposed when `reverse`) from its edges, encode it under
/// `encoding`, write it under its prep-time name and count its raw and
/// on-disk bytes into `totals`.
fn write_cell(
    disk: &dyn Disk,
    (i, j, reverse): (u32, u32, bool),
    edges: Vec<(VertexId, VertexId)>,
    encoding: EncodingPolicy,
    totals: &mut BlobBytes,
) -> EngineResult<()> {
    let ss = SubShardView::from_edges(i, j, edges);
    let name = if reverse {
        GraphManifest::rev_subshard_file(i, j)
    } else {
        GraphManifest::subshard_file(i, j)
    };
    let blob = ss.encode_with(encoding);
    totals.raw += ss.encoded_len();
    totals.disk += blob.len() as u64;
    disk.write_all_to(&name, &blob)?;
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
