//! Workload construction shared by the `nxbench` experiments.

use std::sync::Arc;

use nxgraph_core::dsss::PreparedGraph;
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_graphgen::datasets::Dataset;
use nxgraph_storage::{Disk, EncodingPolicy, MemDisk};

/// Convert generated raw edges into the `(u64, u64)` pairs preprocessing
/// consumes.
pub fn raw_pairs(d: &Dataset) -> Vec<(u64, u64)> {
    d.edges.iter().map(|e| (e.src, e.dst)).collect()
}

/// Preprocess a dataset into a raw-encoded store on a fresh in-memory disk
/// (all I/O still counted by the disk's counters).
pub fn prepare_mem(d: &Dataset, p: u32, reverse: bool) -> PreparedGraph {
    let cfg = if reverse {
        PrepConfig::new(d.name.clone(), p)
    } else {
        PrepConfig::forward_only(d.name.clone(), p)
    };
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw_pairs(d), &cfg.with_encoding(EncodingPolicy::Raw), disk)
        .expect("preprocessing failed")
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
}
