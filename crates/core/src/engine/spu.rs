//! Single-Phase Update (§III-B1).
//!
//! Every interval lives in memory as a **ping-pong pair**: one copy holds
//! the previous iteration's attributes (read side), the other receives this
//! iteration's results; at the end of the iteration the copies swap, so
//! switching iterations costs nothing. Sub-shards stream from disk (or from
//! the leftover-budget cache). Per iteration, I/O is at most
//! `m·Be + 2n·Ba − B_M` — the minimum of all strategies.
//!
//! Two synchronisation flavours (§IV preamble): `Callback` issues
//! fine-grained destination-chunk tasks; `Lock` issues one task per
//! sub-shard, guarding each destination interval with a lock (the paper's
//! alternative implementation). Both traverse row-major — within one row a
//! destination interval is touched by exactly one direction's sub-shard,
//! so the fold order per accumulator is the fixed row order and results
//! are bitwise-identical at any thread count under either flavour.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::dsss::{PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::Attr;

use super::kernel::absorb_row;
use super::pipeline::Pipeline;
use super::state::{finalize_intervals_par, AccBuf};
use super::store::ShardStore;
use super::{Activity, EngineConfig};

/// Run to convergence under SPU. Returns (values, iterations, edges
/// traversed).
pub fn run_spu<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<P::Value>, usize, u64)> {
    let n = g.num_vertices();
    let p = g.num_intervals();

    // Ping-pong intervals and the degree table are resident; leftover
    // budget actively caches sub-shards (§III-B1 "Before initialization,
    // the SPU engine will actively allocate spaces for ping-pong
    // intervals. If there are still memory budget left, sub-shards will
    // also be actively loaded").
    let resident = 2 * n as u64 * P::Value::SIZE as u64 + n as u64 * 4;
    let cache_budget = cfg.memory_budget.saturating_sub(resident);
    let mut store = ShardStore::new(g);
    store.plan_cache(cache_budget, cfg.direction)?;

    let mut prev: Vec<P::Value> = (0..n).map(|v| prog.init(v)).collect();
    let mut next = prev.clone();
    let mut activity = Activity::init(g, prog);

    // Streamed (uncached) sub-shards arrive through the read pipeline;
    // both sync flavours consume the same row-major stream.
    let mut pipe = Pipeline::<P::Accum>::new(g, cfg);

    let mut accs: Vec<Option<Mutex<AccBuf<P>>>> = (0..p)
        .map(|j| {
            let r = g.interval_range(j);
            Some(Mutex::new(AccBuf::new(prog, r.start, (r.end - r.start) as usize)))
        })
        .collect();

    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        for a in accs.iter_mut().flatten() {
            a.get_mut().reset(prog);
        }

        // Row-major traversal under either sync flavour; all tasks of a
        // row run concurrently and the pipeline decodes row i+1's
        // streamed sub-shards while row i is absorbed (cached shards cost
        // nothing). One row at a time also keeps the Lock flavour
        // deterministic: each destination interval's fold order is the row
        // order, not the lock-acquisition order of a whole-iteration sweep.
        let rows: Vec<(bool, u32)> = ShardStore::dirs(cfg.direction)
            .iter()
            .flat_map(|&reverse| {
                (0..p).filter(|&i| !activity.row_skippable(i)).map(move |i| (reverse, i))
            })
            .collect();
        // Cache hits are resolved up-front and consumed directly; only
        // cache misses are fetched, at single sub-shard granularity so the
        // pipeline never holds more than its ring depth of decoded
        // sub-shards beyond the row being absorbed (row-sized fetches
        // would keep several rows resident, outside the memory-budget
        // accounting).
        let (mut hits, misses) = store.resolve(
            rows.iter().flat_map(|&(reverse, i)| (0..p).map(move |j| (i, j, reverse))),
        );
        let mut stream = pipe.stream(misses);
        for &(_, i) in &rows {
            let mut shards: Vec<Option<Arc<SubShardView>>> =
                Vec::with_capacity(p as usize);
            for hit in hits.drain(..p as usize) {
                let ss = stream.shard_or(hit)?;
                edges_traversed += ss.num_edges() as u64;
                shards.push(Some(ss));
            }
            let r = g.interval_range(i);
            absorb_row(
                prog,
                &shards,
                &prev[r.start as usize..r.end as usize],
                r.start,
                &mut accs,
                cfg.threads,
                cfg.edges_per_task,
                cfg.sync,
            );
        }
        drop(stream);

        // Finalise every interval as one flat batch (see
        // `finalize_intervals_par`).
        let bufs: Vec<&AccBuf<P>> = accs
            .iter_mut()
            .map(|a| &*a.as_mut().expect("all intervals present in SPU").get_mut())
            .collect();
        let changed = finalize_intervals_par(prog, &bufs, &prev, &mut next, cfg.threads);
        std::mem::swap(&mut prev, &mut next);

        let all_inactive = activity.advance(&changed);
        let done = if P::ALWAYS_APPLY {
            !changed.iter().any(|&c| c)
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    Ok((prev, iterations, edges_traversed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::pagerank::PageRank;
    use crate::engine::SyncMode;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn graph(p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", p), disk).unwrap()
    }

    #[test]
    fn pagerank_matches_reference_on_fig1() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default().with_max_iterations(10).with_threads(3);
        let (vals, iters, edges) = run_spu(&g, &prog, &cfg).unwrap();
        assert_eq!(iters, 10);
        assert_eq!(edges, 21 * 10);
        let expect = crate::reference::pagerank(
            g.num_vertices(),
            &crate::fig1_example_edges(),
            g.out_degrees(),
            10,
        );
        for (a, b) in vals.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn callback_and_lock_agree() {
        let g = graph(3);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cb = run_spu(
            &g,
            &prog,
            &EngineConfig::default().with_max_iterations(5),
        )
        .unwrap()
        .0;
        let lk = run_spu(
            &g,
            &prog,
            &EngineConfig::default()
                .with_max_iterations(5)
                .with_sync(SyncMode::Lock),
        )
        .unwrap()
        .0;
        for (a, b) in cb.iter().zip(&lk) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn result_invariant_to_thread_count_and_p() {
        let mut reference: Option<Vec<f64>> = None;
        for p in [1u32, 2, 4, 7] {
            let g = graph(p);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            for threads in [1usize, 4] {
                let (vals, _, _) = run_spu(
                    &g,
                    &prog,
                    &EngineConfig::default()
                        .with_max_iterations(8)
                        .with_threads(threads),
                )
                .unwrap();
                match &reference {
                    None => reference = Some(vals),
                    Some(r) => {
                        for (a, b) in vals.iter().zip(r) {
                            assert!((a - b).abs() < 1e-12, "P={p} t={threads}");
                        }
                    }
                }
            }
        }
    }
}
