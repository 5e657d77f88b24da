//! Workload construction shared by the harness and the Criterion benches.

use std::sync::Arc;

use nxgraph_core::dsss::PreparedGraph;
use nxgraph_core::prep::{preprocess, preprocess_streamed, PrepConfig};
use nxgraph_graphgen::datasets::Dataset;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, DiskConfig, EncodingPolicy, MemDisk, OsDisk};

/// Convert generated raw edges into the `(u64, u64)` pairs preprocessing
/// consumes.
pub fn raw_pairs(d: &Dataset) -> Vec<(u64, u64)> {
    d.edges.iter().map(|e| (e.src, e.dst)).collect()
}

fn prep_cfg(d: &Dataset, p: u32, reverse: bool, encoding: EncodingPolicy) -> PrepConfig {
    let cfg = if reverse {
        PrepConfig::new(d.name.clone(), p)
    } else {
        PrepConfig::forward_only(d.name.clone(), p)
    };
    cfg.with_encoding(encoding)
}

/// Preprocess a dataset onto a fresh in-memory disk (all I/O still counted
/// by the disk's counters).
pub fn prepare_mem(d: &Dataset, p: u32, reverse: bool) -> PreparedGraph {
    prepare_mem_enc(d, p, reverse, EncodingPolicy::Raw)
}

/// [`prepare_mem`] with an explicit on-disk blob encoding policy.
pub fn prepare_mem_enc(
    d: &Dataset,
    p: u32,
    reverse: bool,
    encoding: EncodingPolicy,
) -> PreparedGraph {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw_pairs(d), &prep_cfg(d, p, reverse, encoding), disk)
        .expect("preprocessing failed")
}

/// Preprocess onto a real directory-backed disk under `root`.
pub fn prepare_os(d: &Dataset, p: u32, reverse: bool, root: &std::path::Path) -> PreparedGraph {
    prepare_os_enc(d, p, reverse, root, EncodingPolicy::Raw)
}

/// [`prepare_os`] with an explicit on-disk blob encoding policy.
pub fn prepare_os_enc(
    d: &Dataset,
    p: u32,
    reverse: bool,
    root: &std::path::Path,
    encoding: EncodingPolicy,
) -> PreparedGraph {
    prepare_os_disk(d, p, reverse, root, encoding, DiskConfig::default()).0
}

/// [`prepare_os_enc`] that also hands back the concrete [`OsDisk`] (for
/// cold-cache drops and I/O profile snapshots) and takes a
/// [`DiskConfig`] (e.g. `O_DIRECT` reads).
pub fn prepare_os_disk(
    d: &Dataset,
    p: u32,
    reverse: bool,
    root: &std::path::Path,
    encoding: EncodingPolicy,
    disk_cfg: DiskConfig,
) -> (PreparedGraph, Arc<OsDisk>) {
    let os = Arc::new(
        OsDisk::with_config(root.join(&d.name), disk_cfg).expect("mkdir failed"),
    );
    let disk: Arc<dyn Disk> = Arc::clone(&os) as Arc<dyn Disk>;
    let g = preprocess(&raw_pairs(d), &prep_cfg(d, p, reverse, encoding), disk)
        .expect("preprocessing failed");
    (g, os)
}

/// Edges per spill chunk of the out-of-core workload: small enough that
/// the full edge list is never resident, large enough to amortise the
/// per-chunk generator reseed.
const STREAM_CHUNK_EDGES: u64 = 1 << 20;

/// Build the out-of-core workload: a forward-only R-MAT graph generated
/// and sharded **in chunks on disk** — at no point does the whole edge
/// list exist in memory — onto a real-file [`OsDisk`] under `root`.
/// Returns the graph plus the concrete disk for cold-cache control.
pub fn prepare_streamed_os(
    scale: u32,
    edge_factor: u32,
    seed: u64,
    p: u32,
    root: &std::path::Path,
    encoding: EncodingPolicy,
    disk_cfg: DiskConfig,
) -> (PreparedGraph, Arc<OsDisk>) {
    let name = format!("rmat-stream-{scale}x{edge_factor}");
    let os = Arc::new(OsDisk::with_config(root.join(&name), disk_cfg).expect("mkdir failed"));
    let disk: Arc<dyn Disk> = Arc::clone(&os) as Arc<dyn Disk>;
    let rcfg = RmatConfig::graph500(scale, edge_factor, seed);
    let chunks = rmat::generate_chunked(&rcfg, STREAM_CHUNK_EDGES).map(|chunk| {
        chunk
            .into_iter()
            .map(|e| (e.src as u32, e.dst as u32))
            .collect::<Vec<_>>()
    });
    let cfg = PrepConfig::forward_only(name, p).with_encoding(encoding);
    let g = preprocess_streamed(rcfg.num_vertices() as u32, chunks, &cfg, disk)
        .expect("streamed preprocessing failed");
    (g, os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_graphgen::datasets;

    #[test]
    fn prepare_mem_runs() {
        let d = datasets::livejournal_like(-8, 1);
        let g = prepare_mem(&d, 4, true);
        assert!(g.num_vertices() > 0);
        assert!(g.has_reverse());
    }

    #[test]
    fn streamed_workload_builds_and_runs() {
        let root = nxgraph_storage::ScratchDir::new("stream-test");
        let (g, os) = prepare_streamed_os(
            6,
            4,
            7,
            4,
            root.path(),
            EncodingPolicy::Auto,
            DiskConfig { direct_reads: true },
        );
        assert_eq!(g.num_vertices(), 1 << 6);
        assert_eq!(g.num_edges(), 4 << 6);
        assert!(!g.has_reverse());
        // The direct-read config made it through to the disk.
        assert!(os.config().direct_reads);
    }
}
