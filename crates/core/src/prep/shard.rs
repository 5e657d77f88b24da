//! Sharding — the second preprocessing step (§III-A).
//!
//! Divides the dense id space into `P` equal-sized intervals and the
//! pre-shard edges into `P²` destination-sorted sub-shards, writing each to
//! the target disk together with the degree table, mapping tables and the
//! manifest. Optionally also writes the transposed sub-shards (needed by
//! reverse-direction programs: WCC's undirected traversal and SCC's
//! backward phase).
//!
//! Per direction, a parallel counting scatter groups the pre-shard by cell
//! into one flat buffer (the reverse pass flips each edge as it lands);
//! then each row's cells are sorted in place, built and encoded in
//! parallel and written in cell order.

use std::sync::Arc;

use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::Disk;

use crate::dsss::PreparedGraph;
use crate::error::{EngineError, EngineResult};
use crate::parallel::default_threads;
use crate::types::VertexId;

use super::degree::Degreeing;
use super::{check_shape, scatter, write_row, BlobBytes, PrepConfig};

/// Write the full DSSS representation of `deg` onto `disk`.
///
/// Sub-shard blobs are encoded under `cfg.encoding`; the policy plus the
/// aggregate raw-vs-on-disk byte totals (the compression ratio) are
/// recorded as manifest extras. An edge with an id outside
/// `0..deg.num_vertices` is rejected before any file is written.
pub fn shard(
    deg: &Degreeing,
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
) -> EngineResult<PreparedGraph> {
    shard_with(deg, cfg, disk, default_threads())
}

/// [`shard`] on `threads` threads; the bytes written do not depend on them.
pub(crate) fn shard_with(
    deg: &Degreeing,
    cfg: &PrepConfig,
    disk: Arc<dyn Disk>,
    threads: usize,
) -> EngineResult<PreparedGraph> {
    let n = deg.num_vertices;
    check_shape(cfg.num_intervals, n)?;
    let p = cfg.num_intervals;
    let manifest = GraphManifest::new(
        cfg.name.as_str(),
        n as u64,
        deg.edges.len() as u64,
        p,
        cfg.build_reverse,
    );
    let interval_len = manifest.interval_len() as VertexId;
    let interval_of = |v: VertexId| (v / interval_len).min(p - 1) as usize;

    let mut totals = BlobBytes::default();
    let mut grid = vec![(0, 0); deg.edges.len()];
    let dirs: &[bool] = if cfg.build_reverse { &[false, true] } else { &[false] };
    for &reverse in dirs {
        let mut cells =
            scatter(&deg.edges, &mut grid, p as usize * p as usize, threads, |(s, d)| {
                let (s, d) = if reverse { (d, s) } else { (s, d) };
                (s < n && d < n).then(|| (interval_of(s) * p as usize + interval_of(d), (s, d)))
            })
            .map_err(|(s, d)| {
                EngineError::Invalid(format!("edge ({s}, {d}) outside dense id space 0..{n}"))
            })?;
        for (i, row) in (0..p).zip(cells.chunks_mut(p as usize)) {
            write_row(disk.as_ref(), (i, reverse), row, cfg.encoding, threads, &mut totals)?;
        }
    }
    let index_of = deg.index_of.iter().copied();
    super::finish(disk, manifest, cfg.encoding, totals, deg.out_degrees.clone(), index_of)
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
    fn rejects_ids_outside_the_dense_space() {
        // Sharded unchecked, id 9 would land in interval 1 and panic the
        // engine on the first absorb.
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        for edges in [vec![(0, 1), (1, 2), (2, 9)], vec![(9, 0)]] {
            let deg = Degreeing {
                num_vertices: 4,
                edges,
                out_degrees: vec![1, 1, 1, 0],
                index_of: vec![0, 1, 2, 3],
            };
            for cfg in [PrepConfig::forward_only("bad", 2), PrepConfig::new("bad", 2)] {
                let res = shard(&deg, &cfg, Arc::clone(&disk));
                assert!(matches!(res, Err(EngineError::Invalid(_))), "{:?}", res.err());
            }
        }
        assert_eq!(disk.list(), Vec::<String>::new());
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
