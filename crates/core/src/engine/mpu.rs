//! The update driver: Mixed-Phase Update (§III-B3), with Single-Phase and
//! Double-Phase Update as its two endpoints.
//!
//! `Q` of the `P` intervals stay memory-resident as **ping-pong pairs** (one
//! copy holds the previous iteration's attributes, the other receives this
//! iteration's results; they swap at the end of the iteration, so switching
//! iterations costs nothing); the remaining `P−Q` live on disk. Of the `P²`
//! sub-shards only the `(P−Q)²` whose source *and* destination are on disk
//! need **hubs** — per-sub-shard files of (destination id, incremental
//! value) pairs; every other sub-shard updates SPU-style:
//!
//! * **Phase A** — resident rows × resident columns, pure SPU order.
//! * **Phase B** — each on-disk row `i` is loaded once: resident columns
//!   update in memory, on-disk columns write hubs (ToHub).
//! * **Phase C** — each on-disk column `j` is assembled: resident rows
//!   absorb directly from the resident ping-pong values, on-disk rows fold
//!   their hubs (FromHub); the interval is written back once.
//!
//! The caller picks the residency `(Q, cache bytes)` per strategy
//! ([`super::select::residency`]): at `Q = P` only phase A runs and this is
//! SPU (§III-B1), whose per-iteration I/O of at most `m·Be + 2n·Ba − B_M` is
//! the minimum of all strategies; at `Q = 0` only phases B and C run and
//! this is DPU (§III-B2), whose `Bread ≤ m·Be + n·Ba + m·(Ba+Bv)/d` and
//! `Bwrite ≤ n·Ba + m·(Ba+Bv)/d` are independent of `P` and the budget, so
//! DPU "can scale to very large graphs or very small memory budget". In
//! between the I/O amount interpolates Table II's MPU row.
//!
//! Every phase computes through [`absorb`] and traverses row-major: within
//! one row a destination interval is touched by exactly one direction's
//! sub-shard, and each destination chunk is folded by one task, so the
//! fold order per accumulator is the fixed row order and results are
//! bitwise-identical at any thread count.

use std::sync::Arc;

use crate::dsss::{HubView, PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::VertexId;

use super::kernel::{absorb, EDGES_PER_TASK};
use super::pipeline::{Fetch, Pipeline};
use super::state::{finalize_intervals_par, AccBuf};
use super::store::ShardStore;
use super::{Activity, EngineConfig};

/// Run to convergence with the first `q` intervals resident and
/// `cache_bytes` of budget caching sub-shards. Returns (values,
/// iterations, edges traversed).
pub(super) fn run_mpu<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    q: u32,
    cache_bytes: u64,
) -> EngineResult<(Vec<P::Value>, usize, u64)> {
    let p = g.num_intervals();

    // Resident vertex prefix [0, res_end).
    let res_end: VertexId = if q == 0 { 0 } else { g.interval_range(q - 1).end };
    let mut prev_res: Vec<P::Value> = (0..res_end).map(|v| prog.init(v)).collect();
    let mut next_res = prev_res.clone();

    // On-disk intervals initialised on disk.
    for j in q..p {
        let r = g.interval_range(j);
        let vals: Vec<P::Value> = r.map(|v| prog.init(v)).collect();
        g.write_interval(j, &vals)?;
    }

    // Leftover budget caches sub-shards.
    let mut store = ShardStore::new(g);
    store.plan_cache(cache_bytes, cfg.direction)?;

    let mut activity = Activity::init(g, prog);

    // One read pipeline for the whole run; each phase drives it through
    // ordered streams (cache hits resolved up-front, misses fetched).
    let mut pipe = Pipeline::<P::Accum>::new(g, cfg);
    let dirs = ShardStore::dirs(cfg.direction);

    // Accumulators for resident destination intervals (reused).
    let mut accs_res: Vec<AccBuf<P>> = (0..q)
        .map(|j| {
            let r = g.interval_range(j);
            AccBuf::new(prog, r.start, (r.end - r.start) as usize)
        })
        .collect();

    let mut iterations = 0;
    let mut edges_traversed = 0u64;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        for a in &mut accs_res {
            a.reset(prog);
        }
        let mut changed = vec![false; p as usize];

        // ------------------------------------------------------------------
        // Phase A: resident rows into resident columns (SPU order). All
        // tasks of a row run concurrently and the pipeline decodes row
        // i+1's streamed sub-shards while row i is absorbed. Misses are
        // fetched at single sub-shard granularity so the pipeline never
        // holds more than its ring depth of decoded sub-shards beyond the
        // row being absorbed.
        // ------------------------------------------------------------------
        let rows: Vec<(bool, u32)> = dirs
            .iter()
            .flat_map(|&reverse| {
                (0..q).filter(|&i| !activity.row_skippable(i)).map(move |i| (reverse, i))
            })
            .collect();
        let (mut hits, misses) = store.resolve(
            rows.iter().flat_map(|&(reverse, i)| (0..q).map(move |j| (i, j, reverse))),
        );
        let mut stream = pipe.stream(misses);
        for &(_, i) in &rows {
            let mut shards: Vec<Arc<SubShardView>> = Vec::with_capacity(q as usize);
            for hit in hits.drain(..q as usize) {
                let ss = stream.shard_or(hit)?;
                edges_traversed += ss.num_edges() as u64;
                shards.push(ss);
            }
            let r = g.interval_range(i);
            absorb(
                prog,
                shards.iter().zip(&mut accs_res),
                &prev_res[r.start as usize..r.end as usize],
                r.start,
                cfg.threads,
                EDGES_PER_TASK,
            );
        }
        drop(stream);

        // ------------------------------------------------------------------
        // Phase B: on-disk rows; resident columns in memory, on-disk
        // columns to hubs. All of a row's sub-shard loads feed one ordered
        // stream (cache hits resolved up-front, misses decoded in the
        // background), so the kernel folds sub-shard (i, j) while (i, j+1)
        // is already being read and validated.
        // ------------------------------------------------------------------
        for i in q..p {
            if activity.row_skippable(i) {
                continue;
            }
            let src_vals: Vec<P::Value> = g.read_interval(i)?;
            let r_i = g.interval_range(i);
            // Keys in exact consumption order: resident destinations per
            // direction, then hub destinations with both directions folded
            // per column.
            let resident = dirs
                .iter()
                .flat_map(|&reverse| (0..q).map(move |j| (i, j, reverse)));
            let to_hub = (q..p).flat_map(|j| dirs.iter().map(move |&reverse| (i, j, reverse)));
            let (mut hits, misses) = store.resolve(resident.chain(to_hub));
            let mut stream = pipe.stream(misses);
            // Resident destinations: SPU-like, straight into accs_res.
            for _ in dirs {
                let mut shards: Vec<Arc<SubShardView>> = Vec::with_capacity(q as usize);
                for hit in hits.drain(..q as usize) {
                    let ss = stream.shard_or(hit)?;
                    edges_traversed += ss.num_edges() as u64;
                    shards.push(ss);
                }
                absorb(
                    prog,
                    shards.iter().zip(&mut accs_res),
                    &src_vals,
                    r_i.start,
                    cfg.threads,
                    EDGES_PER_TASK,
                );
            }
            // On-disk destinations: ToHub. Both directions fold into the
            // same hub before writing.
            for j in q..p {
                let r_j = g.interval_range(j);
                let mut buf: AccBuf<P> =
                    AccBuf::new(prog, r_j.start, (r_j.end - r_j.start) as usize);
                for hit in hits.drain(..dirs.len()) {
                    let ss = stream.shard_or(hit)?;
                    edges_traversed += ss.num_edges() as u64;
                    absorb(
                        prog,
                        [(&ss, &mut buf)],
                        &src_vals,
                        r_i.start,
                        cfg.threads,
                        EDGES_PER_TASK,
                    );
                }
                let (dsts, accs) = buf.compact();
                if !dsts.is_empty() {
                    g.write_hub(i, j, &dsts, &accs)?;
                }
            }
        }

        // Finalise resident intervals (all their contributions arrived in
        // phases A and B) as one flat batch. Keep prev_res intact — phase C
        // reads it.
        let bufs: Vec<&AccBuf<P>> = accs_res.iter().collect();
        let flags = finalize_intervals_par(prog, &bufs, &prev_res, &mut next_res, cfg.threads);
        changed[..q as usize].copy_from_slice(&flags);

        // ------------------------------------------------------------------
        // Phase C: on-disk columns; resident rows absorb directly, on-disk
        // rows fold hubs. One mixed stream per column carries the
        // resident-row sub-shards followed by the column's hubs, so hub
        // reads overlap the tail of the shard absorbs. Hubs are stable
        // within the phase: written in phase B, removed only after their
        // column folds.
        // ------------------------------------------------------------------
        let mut any_changed = changed.iter().any(|&c| c);
        for j in q..p {
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
            // Resident rows in consumption order (activity filter applied
            // now; flags do not change within an iteration), then the
            // column's hubs: one fetch list for the whole mixed stream.
            let keys: Vec<(u32, u32, bool)> = dirs
                .iter()
                .flat_map(|&reverse| {
                    (0..q).filter(|&i| !activity.row_skippable(i)).map(move |i| (i, j, reverse))
                })
                .collect();
            let (hits, mut fetches) = store.resolve(keys.iter().copied());
            fetches.extend((q..p).map(|i| Fetch::Hub { i, j }));
            let mut stream = pipe.stream(fetches);
            for (&(i, ..), hit) in keys.iter().zip(hits) {
                let ss = stream.shard_or(hit)?;
                edges_traversed += ss.num_edges() as u64;
                let r_i = g.interval_range(i);
                absorb(
                    prog,
                    [(&ss, &mut buf)],
                    &prev_res[r_i.start as usize..r_i.end as usize],
                    r_i.start,
                    cfg.threads,
                    EDGES_PER_TASK,
                );
            }
            // Collect the column's hubs in row order, then fold them as
            // one destination-range-parallel batch (bitwise-identical to
            // the serial fold; see `merge_hub_views_par`). Hubs are sparse
            // (m·(Ba+Bv)/d per column in Table II terms), so holding one
            // column's worth is cheap.
            let mut hubs: Vec<HubView<P::Accum>> = Vec::new();
            let mut hub_rows: Vec<u32> = Vec::new();
            for i in q..p {
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
            let ch = finalize_intervals_par(prog, &[&buf], &old, &mut new_vals, cfg.threads)[0];
            g.write_interval(j, &new_vals)?;
            changed[j as usize] = ch;
            any_changed |= ch;
        }

        std::mem::swap(&mut prev_res, &mut next_res);

        let all_inactive = activity.advance(&changed);
        let done = if P::ALWAYS_APPLY {
            // Resident intervals have real old values; disk intervals only
            // when APPLY_NEEDS_OLD. Early termination is sound only when
            // every change flag is trustworthy; otherwise run the
            // configured iteration count (the paper also runs PageRank for
            // a fixed 10 iterations).
            (q == p || P::APPLY_NEEDS_OLD) && !any_changed
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    // Gather: resident prefix + on-disk intervals.
    let mut out = prev_res;
    out.truncate(res_end as usize);
    for j in q..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((out, iterations, edges_traversed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::pagerank::PageRank;
    use crate::engine::{run, RunStats, Strategy};
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

    /// PageRank on a fresh Fig 1 graph of `p` intervals under `cfg`.
    fn pagerank(p: u32, cfg: &EngineConfig) -> (Vec<f64>, RunStats) {
        let g = graph(p);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        run(&g, &prog, cfg).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{what}: {x} vs {y}");
        }
    }

    /// Budget that yields Q resident intervals out of P for the Fig 1
    /// graph with f64 values.
    fn budget_for_q(g: &PreparedGraph, q: u32) -> u64 {
        let n = g.num_vertices() as u64;
        let p = g.num_intervals() as u64;
        // effective = q/p * 2*n*Ba (+ degree table 4n).
        4 * n + (2 * n * 8) * q as u64 / p + 1
    }

    #[test]
    fn pagerank_matches_reference_on_fig1() {
        let cfg = EngineConfig::default()
            .with_max_iterations(10)
            .with_threads(3)
            .with_strategy(Strategy::Spu);
        let (vals, stats) = pagerank(4, &cfg);
        assert_eq!(stats.iterations, 10);
        assert_eq!(stats.edges_traversed, 21 * 10);
        let g = graph(4);
        let expect = crate::reference::pagerank(
            g.num_vertices(),
            &crate::fig1_example_edges(),
            g.out_degrees(),
            10,
        );
        assert_close(&vals, &expect, "spu vs reference");
    }

    #[test]
    fn result_invariant_to_thread_count_and_p() {
        let mut reference: Option<Vec<f64>> = None;
        for p in [1u32, 2, 4, 7] {
            for threads in [1usize, 4] {
                let cfg = EngineConfig::default()
                    .with_max_iterations(8)
                    .with_threads(threads)
                    .with_strategy(Strategy::Spu);
                let (vals, _) = pagerank(p, &cfg);
                match &reference {
                    None => reference = Some(vals),
                    Some(r) => assert_close(&vals, r, &format!("P={p} t={threads}")),
                }
            }
        }
    }

    #[test]
    fn dpu_equals_spu_for_pagerank() {
        for p in [1u32, 3, 4] {
            let cfg = EngineConfig::default().with_max_iterations(6);
            let (dpu_vals, dpu) = pagerank(p, &cfg.clone().with_strategy(Strategy::Dpu));
            let (spu_vals, spu) = pagerank(p, &cfg.with_strategy(Strategy::Spu));
            assert_eq!(dpu.iterations, spu.iterations);
            assert_eq!(dpu.edges_traversed, spu.edges_traversed);
            assert_close(&dpu_vals, &spu_vals, &format!("P={p}"));
        }
    }

    #[test]
    fn dpu_writes_and_consumes_hubs() {
        let g = graph(4);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default()
            .with_max_iterations(1)
            .with_strategy(Strategy::Dpu);
        let (_, stats) = run(&g, &prog, &cfg).unwrap();
        // All hubs consumed and removed by FromHub.
        for i in 0..4 {
            for j in 0..4 {
                assert!(g.read_hub_view::<f64>(i, j).unwrap().is_none());
            }
        }
        // Interval traffic happened.
        assert!(stats.io.written_bytes > 0);
        assert!(stats.io.read_bytes > 0);
    }

    #[test]
    fn mpu_equals_spu_at_every_q() {
        let g = graph(4);
        let cfg0 = EngineConfig::default().with_max_iterations(6);
        let (want, spu) = pagerank(4, &cfg0.clone().with_strategy(Strategy::Spu));
        for q in 0..=4u32 {
            let cfg = cfg0
                .clone()
                .with_strategy(Strategy::Mpu)
                .with_budget(budget_for_q(&g, q));
            let (vals, stats) = pagerank(4, &cfg);
            assert_eq!(stats.edges_traversed, spu.edges_traversed, "q={q}");
            assert_close(&vals, &want, &format!("q={q}"));
        }
        // The endpoints are the same run, bit for bit and byte for byte:
        // forced SPU is MPU at an unlimited budget (Q = P), forced DPU is
        // MPU at a budget of exactly the degree table (Q = 0, no cache).
        let degree_table = 4 * g.num_vertices() as u64;
        for (forced, budget) in [(Strategy::Spu, u64::MAX), (Strategy::Dpu, degree_table)] {
            let cfg = cfg0.clone().with_budget(budget);
            let (a, sa) = pagerank(4, &cfg.clone().with_strategy(forced));
            let (b, sb) = pagerank(4, &cfg.with_strategy(Strategy::Mpu));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{forced:?} vs Mpu at budget {budget}");
            assert_eq!(sa.io, sb.io, "{forced:?} vs Mpu at budget {budget}");
            assert_eq!(sa.strategy, forced);
            assert_eq!(sb.strategy, Strategy::Mpu);
        }
    }
}
