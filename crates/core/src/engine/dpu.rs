//! Double-Phase Update (§III-B2).
//!
//! Fully disk-based: intervals are loaded only when accessed, and every
//! sub-shard streams from disk. Consistency across the two phases is
//! mediated by **hubs** — per-sub-shard files of (destination id,
//! incremental value) pairs:
//!
//! * **ToHub** iterates sub-shards *by row*, loading each source interval
//!   once per iteration, computing each sub-shard's incremental
//!   contributions and writing them to its hub.
//! * **FromHub** iterates *by column*, folding the column's hubs into the
//!   destination interval and writing it back once per iteration.
//!
//! Per iteration: `Bread ≤ m·Be + n·Ba + m·(Ba+Bv)/d`,
//! `Bwrite ≤ n·Ba + m·(Ba+Bv)/d` — independent of `P` and the budget, so
//! DPU "can scale to very large graphs or very small memory budget".

use crate::dsss::{HubView, PreparedGraph};
use crate::error::EngineResult;
use crate::program::VertexProgram;

use super::kernel::absorb_single;
use super::pipeline::{Fetch, Pipeline};
use super::state::{finalize_interval_par, AccBuf};
use super::store::ShardStore;
use super::{Activity, EngineConfig};

/// Run to convergence under DPU. Returns (values, iterations, edges
/// traversed).
pub fn run_dpu<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<P::Value>, usize, u64)> {
    let p = g.num_intervals();

    // Initialise interval files on disk.
    for j in 0..p {
        let r = g.interval_range(j);
        let vals: Vec<P::Value> = r.map(|v| prog.init(v)).collect();
        g.write_interval(j, &vals)?;
    }
    let mut activity = Activity::init(g, prog);

    // One read pipeline for the whole run; each row/column below drives
    // it through its own ordered stream.
    let mut pipe = Pipeline::<P::Accum>::new(g, cfg);
    let dirs = ShardStore::dirs(cfg.direction);

    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;

        // ------------------------------------------------------------------
        // ToHub phase: rows. Load interval i once, write hubs H(i→*); the
        // pipeline decodes sub-shard (i, j+1) while (i, j) is absorbed.
        // ------------------------------------------------------------------
        for i in 0..p {
            if activity.row_skippable(i) {
                continue;
            }
            let src_vals: Vec<P::Value> = g.read_interval(i)?;
            let r_i = g.interval_range(i);
            let mut stream = pipe.stream(
                (0..p)
                    .flat_map(|j| dirs.iter().map(move |&reverse| Fetch::Shard { i, j, reverse }))
                    .collect(),
            );
            for j in 0..p {
                let r_j = g.interval_range(j);
                let mut buf: AccBuf<P> =
                    AccBuf::new(prog, r_j.start, (r_j.end - r_j.start) as usize);
                for _ in dirs {
                    let ss = stream.shard()?;
                    edges_traversed += ss.num_edges() as u64;
                    absorb_single(
                        prog,
                        &ss,
                        &src_vals,
                        r_i.start,
                        &mut buf,
                        cfg.threads,
                        cfg.edges_per_task,
                    );
                }
                let (dsts, accs) = buf.compact();
                if !dsts.is_empty() {
                    g.write_hub(i, j, &dsts, &accs)?;
                }
            }
        }

        // ------------------------------------------------------------------
        // FromHub phase: columns. Fold hubs H(*→j), apply, write interval;
        // the pipeline decodes hub (i+1, j) while (i, j) merges.
        // ------------------------------------------------------------------
        let mut changed = vec![false; p as usize];
        let mut any_changed = false;
        for j in 0..p {
            let r_j = g.interval_range(j);
            let len = (r_j.end - r_j.start) as usize;
            // PageRank-style programs never read the old value in apply, so
            // FromHub skips the extra n·Ba read (matching Table II);
            // monotone programs (BFS/WCC) need it.
            let old: Vec<P::Value> = if P::APPLY_NEEDS_OLD {
                g.read_interval(j)?
            } else {
                r_j.clone().map(|v| prog.init(v)).collect()
            };
            let mut buf: AccBuf<P> = AccBuf::new(prog, r_j.start, len);
            // Hubs are stable within the phase (written in ToHub, removed
            // only after this column folds).
            let mut stream = pipe.stream((0..p).map(|i| Fetch::Hub { i, j }).collect());
            // Collect the column's hubs in row order, then fold them as
            // one destination-range-parallel batch — per-slot merge order
            // stays the row order, so the result is bitwise-identical to
            // the serial fold. Hubs are sparse (m·(Ba+Bv)/d per column in
            // Table II terms), so holding one column's worth is cheap.
            let mut hubs: Vec<HubView<P::Accum>> = Vec::new();
            let mut hub_rows: Vec<u32> = Vec::new();
            for i in 0..p {
                if let Some(hub) = stream.hub()? {
                    hubs.push(hub);
                    hub_rows.push(i);
                }
            }
            buf.merge_hub_views_par(prog, &hubs, cfg.threads);
            drop(hubs);
            for i in hub_rows {
                g.remove_hub(i, j);
            }
            let mut new_vals = old.clone();
            let ch = finalize_interval_par(prog, &buf, &old, &mut new_vals, cfg.threads);
            g.write_interval(j, &new_vals)?;
            changed[j as usize] = ch;
            any_changed |= ch;
        }

        let all_inactive = activity.advance(&changed);
        let done = if P::ALWAYS_APPLY {
            // Without real old values the change flags are meaningless;
            // run the configured iteration count (the paper also runs
            // PageRank for a fixed 10 iterations).
            P::APPLY_NEEDS_OLD && !any_changed
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    // Gather output (the paper's final traversal over intervals).
    let mut out: Vec<P::Value> = Vec::with_capacity(g.num_vertices() as usize);
    for j in 0..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((out, iterations, edges_traversed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::pagerank::PageRank;
    use crate::engine::spu::run_spu;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};
    use std::sync::Arc;

    fn graph(p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", p), disk).unwrap()
    }

    #[test]
    fn dpu_equals_spu_for_pagerank() {
        for p in [1u32, 3, 4] {
            let g = graph(p);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let cfg = EngineConfig::default().with_max_iterations(6);
            let (dpu_vals, dpu_iters, dpu_edges) = run_dpu(&g, &prog, &cfg).unwrap();
            let (spu_vals, spu_iters, spu_edges) = run_spu(&g, &prog, &cfg).unwrap();
            assert_eq!(dpu_iters, spu_iters);
            assert_eq!(dpu_edges, spu_edges);
            for (a, b) in dpu_vals.iter().zip(&spu_vals) {
                assert!((a - b).abs() < 1e-12, "P={p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dpu_writes_and_consumes_hubs() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default().with_max_iterations(1);
        run_dpu(&g, &prog, &cfg).unwrap();
        // All hubs consumed and removed by FromHub.
        for i in 0..4 {
            for j in 0..4 {
                assert!(g.read_hub::<f64>(i, j).unwrap().is_none());
            }
        }
        // Interval traffic happened.
        let io = g.disk().counters().snapshot();
        assert!(io.written_bytes > 0);
        assert!(io.read_bytes > 0);
    }
}
