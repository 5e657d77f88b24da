//! Sharding — the second preprocessing step (§III-A).
//!
//! Divides the dense id space into `P` equal-sized intervals and the
//! pre-shard edges into `P²` destination-sorted sub-shards, writing each to
//! the target disk together with the degree table, mapping tables and the
//! manifest. Optionally also writes the transposed sub-shards (needed by
//! reverse-direction programs: WCC's undirected traversal and SCC's
//! backward phase).

use std::sync::Arc;

use nxgraph_storage::format::EncodingPolicy;
use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::Disk;

use crate::dsss::PreparedGraph;
use crate::error::{EngineError, EngineResult};
use crate::types::VertexId;

use super::degree::Degreeing;
use super::{write_cell, BlobBytes, PrepConfig};

/// Write the full DSSS representation of `deg` onto `disk`.
///
/// Sub-shard blobs are encoded under `cfg.encoding`; the policy plus the
/// aggregate raw-vs-on-disk byte totals (the compression ratio) are
/// recorded as manifest extras.
pub fn shard(
    deg: &Degreeing,
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
) -> EngineResult<PreparedGraph> {
    if cfg.num_intervals == 0 {
        return Err(EngineError::Invalid("P must be positive".into()));
    }
    if deg.num_vertices == 0 {
        return Err(EngineError::Invalid(
            "cannot shard an empty graph (no edges)".into(),
        ));
    }
    let p = cfg.num_intervals;
    let manifest = GraphManifest::new(
        cfg.name.as_str(),
        deg.num_vertices as u64,
        deg.edges.len() as u64,
        p,
        cfg.build_reverse,
    );
    let interval_len = manifest.interval_len() as VertexId;
    let interval_of = |v: VertexId| (v / interval_len).min(p - 1);

    // Bucket edges into the P×P grid, then build each sub-shard.
    let mut totals = BlobBytes::default();
    write_grid(&deg.edges, p, interval_of, false, cfg.encoding, disk.as_ref(), &mut totals)?;
    if cfg.build_reverse {
        let transposed: Vec<(VertexId, VertexId)> =
            deg.edges.iter().map(|&(s, d)| (d, s)).collect();
        write_grid(&transposed, p, interval_of, true, cfg.encoding, disk.as_ref(), &mut totals)?;
    }
    let index_of = deg.index_of.iter().copied();
    super::finish(disk, manifest, cfg.encoding, totals, deg.out_degrees.clone(), index_of)
}

/// Bucket `edges` by (source interval, destination interval) and write one
/// sub-shard file per cell, counting its bytes into `totals`.
fn write_grid(
    edges: &[(VertexId, VertexId)],
    p: u32,
    interval_of: impl Fn(VertexId) -> u32,
    reverse: bool,
    encoding: EncodingPolicy,
    disk: &dyn Disk,
    totals: &mut BlobBytes,
) -> EngineResult<()> {
    let cells = (p as usize) * (p as usize);
    let mut buckets: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); cells];
    for &(s, d) in edges {
        let cell = interval_of(s) as usize * p as usize + interval_of(d) as usize;
        buckets[cell].push((s, d));
    }
    for (cell, bucket) in buckets.into_iter().enumerate() {
        let (i, j) = (cell as u32 / p, cell as u32 % p);
        write_cell(disk, (i, j, reverse), bucket, encoding, totals)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::degree::degree;
    use crate::prep::PrepConfig;
    use nxgraph_storage::MemDisk;
    use std::collections::HashSet;

    fn fig1_raw() -> Vec<(u64, u64)> {
        crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect()
    }

    #[test]
    fn every_edge_lands_in_exactly_one_subshard() {
        let deg = degree(&fig1_raw());
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = shard(&deg, &PrepConfig::forward_only("fig1", 4), disk).unwrap();
        let mut collected = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let ss = g.load_subshard(i, j, false).unwrap();
                for (s, d) in ss.iter_edges() {
                    // Membership invariant.
                    assert!(g.interval_range(i).contains(&s));
                    assert!(g.interval_range(j).contains(&d));
                    collected.push((s, d));
                }
            }
        }
        let mut want = deg.edges.clone();
        want.sort_unstable();
        collected.sort_unstable();
        assert_eq!(collected, want);
    }

    #[test]
    fn matches_paper_fig1_grid() {
        // P=4 with 7 vertices → intervals {0,1},{2,3},{4,5},{6}: exactly
        // the paper's Fig 1 layout.
        let deg = degree(&fig1_raw());
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = shard(&deg, &PrepConfig::forward_only("fig1", 4), disk).unwrap();
        // SS3.2 (paper 1-based) = our (2,1): edges 5→2, 4→3, 5→3.
        let ss = g.load_subshard(2, 1, false).unwrap();
        let edges: Vec<_> = ss.iter_edges().collect();
        assert_eq!(edges, vec![(5, 2), (4, 3), (5, 3)]);
        // SS1.1 = our (0,0): empty.
        assert!(g.load_subshard(0, 0, false).unwrap().is_empty());
        // SS4.4 = our (3,3): empty (no 6→6 edge).
        assert!(g.load_subshard(3, 3, false).unwrap().is_empty());
    }

    #[test]
    fn reverse_shards_are_the_transpose() {
        let deg = degree(&fig1_raw());
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = shard(&deg, &PrepConfig::new("fig1", 3), disk).unwrap();
        let mut fwd = HashSet::new();
        let mut rev = HashSet::new();
        for i in 0..3 {
            for j in 0..3 {
                fwd.extend(g.load_subshard(i, j, false).unwrap().iter_edges());
                rev.extend(
                    g.load_subshard(i, j, true)
                        .unwrap()
                        .iter_edges()
                        .map(|(s, d)| (d, s)),
                );
            }
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn rejects_empty_graph_and_zero_p() {
        let deg = degree(&[]);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        assert!(shard(&deg, &PrepConfig::forward_only("e", 4), Arc::clone(&disk)).is_err());
        let deg = degree(&[(0, 1)]);
        assert!(shard(&deg, &PrepConfig::forward_only("e", 0), disk).is_err());
    }

    #[test]
    fn p_larger_than_n_works() {
        let deg = degree(&[(0u64, 1u64), (1, 2)]);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = shard(&deg, &PrepConfig::forward_only("tiny", 8), disk).unwrap();
        assert_eq!(g.num_intervals(), 8);
        let mut total = 0;
        for i in 0..8 {
            for j in 0..8 {
                total += g.load_subshard(i, j, false).unwrap().num_edges();
            }
        }
        assert_eq!(total, 2);
    }
}
