//! TurboGraph-like engine: the pin-and-slide update strategy (KDD 2013).
//!
//! §III-C of the NXgraph paper: "TurboGraph and GridGraph first load
//! several source and destination intervals which can be fit into the
//! limited memory. After updating all the intervals inside the memory,
//! they replace some of the in-memory intervals with on-disk intervals."
//! With `P ≥ 2n·Ba/B_M` partitions the strategy re-reads every source
//! interval for every destination interval:
//! `Bread = m·Be + n·P·Ba`, `Bwrite = n·Ba` per iteration — linear in `P`,
//! which is the paper's core argument against it (Fig 6).
//!
//! This engine reuses the DSSS sub-shard files as its edge storage (the
//! comparison isolates the *interval scheduling*, not the edge format) and
//! honours NXgraph's fine-grained kernel so the measured difference is
//! exactly the extra interval traffic.

use std::sync::Arc;
use std::time::Instant;

use nxgraph_core::dsss::PreparedGraph;
use nxgraph_core::engine::kernel::{absorb, EDGES_PER_TASK};
use nxgraph_core::engine::{AccBuf, finalize_interval};
use nxgraph_core::error::EngineResult;
use nxgraph_core::program::VertexProgram;

use crate::common::BaselineStats;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TurboGraphConfig {
    /// Worker threads.
    pub threads: usize,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for TurboGraphConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            max_iterations: 50,
        }
    }
}

/// Run a vertex program under the pin-and-slide schedule.
///
/// Interval files are (re)initialised on the graph's disk; forward
/// direction only (the strategy is defined over in-edge grids).
pub fn run<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &TurboGraphConfig,
) -> EngineResult<(Vec<P::Value>, BaselineStats)> {
    let start = Instant::now();
    let io0 = g.disk().counters().snapshot();
    let p = g.num_intervals();

    for j in 0..p {
        let r = g.interval_range(j);
        let vals: Vec<P::Value> = r.map(|v| prog.init(v)).collect();
        g.write_interval(j, &vals)?;
    }

    let loader = g.view_loader();
    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        let mut any_changed = false;
        // New values are staged and written after the loop so that source
        // re-reads within the iteration still observe the previous
        // iteration's attributes (synchronous semantics).
        let mut staged: Vec<Vec<P::Value>> = Vec::with_capacity(p as usize);

        // Pin each destination interval; slide over every source interval.
        for j in 0..p {
            let r_j = g.interval_range(j);
            let len = (r_j.end - r_j.start) as usize;
            let old: Vec<P::Value> = if P::APPLY_NEEDS_OLD {
                g.read_interval(j)?
            } else {
                r_j.clone().map(|v| prog.init(v)).collect()
            };
            let mut buf: AccBuf<P> = AccBuf::new(prog, r_j.start, len);
            for i in 0..p {
                // The slide: every source interval is re-read from disk for
                // every pinned destination — the n·P·Ba term.
                let src_vals: Vec<P::Value> = g.read_interval(i)?;
                let r_i = g.interval_range(i);
                let ss = Arc::new(loader.load_subshard(i, j, false)?);
                edges_traversed += ss.num_edges() as u64;
                absorb(
                    prog,
                    [(&ss, &mut buf)],
                    &src_vals,
                    r_i.start,
                    None,
                    cfg.threads,
                    EDGES_PER_TASK,
                );
            }
            let mut new_vals = old.clone();
            let ch = finalize_interval(prog, &buf, &old, &mut new_vals);
            any_changed |= ch;
            staged.push(new_vals);
        }
        for (j, new_vals) in staged.into_iter().enumerate() {
            g.write_interval(j as u32, &new_vals)?;
        }

        let done = if P::ALWAYS_APPLY {
            P::APPLY_NEEDS_OLD && !any_changed
        } else {
            !any_changed
        };
        if done {
            break;
        }
    }

    let mut out: Vec<P::Value> = Vec::with_capacity(g.num_vertices() as usize);
    for j in 0..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((
        out,
        BaselineStats {
            system: "turbograph-like",
            iterations,
            elapsed: start.elapsed(),
            io: g.disk().counters().snapshot().delta(&io0),
            edges_traversed,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_core::algo::pagerank::PageRank;
    use nxgraph_core::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn graph(p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = nxgraph_core::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::forward_only("fig1", p), disk).unwrap()
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = TurboGraphConfig {
            max_iterations: 10,
            ..Default::default()
        };
        let (vals, stats) = run(&g, &prog, &cfg).unwrap();
        assert_eq!(stats.iterations, 10);
        let expect = nxgraph_core::reference::pagerank(
            g.num_vertices(),
            &nxgraph_core::fig1_example_edges(),
            g.out_degrees(),
            10,
        );
        for (a, b) in vals.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn interval_reads_scale_with_p() {
        // The defining property: interval read traffic grows linearly in P.
        let mut traffic = Vec::new();
        for p in [2u32, 4] {
            let g = graph(p);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let cfg = TurboGraphConfig {
                max_iterations: 1,
                ..Default::default()
            };
            let before = g.disk().counters().read_bytes();
            run(&g, &prog, &cfg).unwrap();
            traffic.push(g.disk().counters().read_bytes() - before);
        }
        // P=4 reads noticeably more than P=2 (same graph, same work).
        assert!(
            traffic[1] > traffic[0],
            "P=4 traffic {} should exceed P=2 traffic {}",
            traffic[1],
            traffic[0]
        );
    }
}
