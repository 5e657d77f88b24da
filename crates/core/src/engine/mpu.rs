//! The update driver: Mixed-Phase Update (§III-B3), with Single-Phase and
//! Double-Phase Update as its two endpoints.
//!
//! `Q` of the `P` intervals stay memory-resident as **ping-pong pairs** (one
//! copy holds the previous iteration's attributes, the other receives this
//! iteration's results; they swap at the end of the iteration, so switching
//! iterations costs nothing); the remaining `P−Q` live on disk, and only the
//! `(P−Q)²` sub-shards between on-disk intervals pass through **hubs**. Each
//! hub `(i, j)` is built straight from its own cells by ToHub
//! ([`to_hub`]), sized by their destination lists, never by the interval.
//!
//! `run_mpu` is plan, then execute. Each iteration's schedule (phases A,
//! B and C) is built as a value by `plan::plan`, whose docs map each step
//! to its Table II term; the executor here is the only engine code that
//! drives the read pipeline or touches intervals and hubs. It keeps hub
//! liveness in memory, so phase C reads exactly the hubs phase B wrote
//! this iteration. It pays only for what can change a value: a streamed
//! cell that held no edge is memoised and never fetched again; a frontier
//! program (`!ALWAYS_APPLY`) sends only from the vertices that changed last
//! iteration (`Frontier`: finalize marks them as it applies, and a row
//! with none is skipped), so a hub holds only the destinations they reach;
//! its phase C column that no message reached is not read, applied or
//! written (Table II's two `n·Ba/P` interval terms are upper bounds for
//! such programs); and an interval applied against its old values is
//! written back only if its bits changed.
//!
//! The caller picks `(Q, cache bytes)` per strategy
//! ([`super::select::residency`]): `Q = P` is SPU (§III-B1), the least I/O
//! of all strategies; `Q = 0` is DPU (§III-B2), whose I/O depends on
//! neither `P` nor the budget; in between it interpolates Table II's MPU
//! row ([`crate::iomodel`]). Every step computes through [`absorb`] or
//! [`to_hub`], row-major with one task per destination chunk and a fixed
//! fold order per destination, so results are bitwise-identical at any
//! thread count.

use std::collections::HashSet;
use std::sync::Arc;

use crate::dsss::{PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::{Attr, VertexId};

use super::kernel::{absorb, to_hub, EDGES_PER_TASK};
use super::pipeline::{Fetch, Pipeline, Stream};
use super::plan::{plan, Cell, Group, Step};
use super::state::{finalize_intervals_par, AccBuf};
use super::store::ShardStore;
use super::{EngineConfig, Frontier};

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
    let (p, threads) = (g.num_intervals(), cfg.threads);
    let init = |j: u32| -> Vec<P::Value> { g.interval_range(j).map(|v| prog.init(v)).collect() };
    let new_buf = |j: u32| {
        let r = g.interval_range(j);
        AccBuf::<P>::new(prog, r.start, (r.end - r.start) as usize)
    };

    // Resident prefix [0, res_end) as ping-pong pairs, the other intervals
    // initialised on disk, and the leftover budget caching sub-shards.
    let res_end: VertexId = if q == 0 { 0 } else { g.interval_range(q - 1).end };
    let mut prev: Vec<P::Value> = (0..res_end).map(|v| prog.init(v)).collect();
    let mut next = prev.clone();
    for j in q..p {
        g.write_interval(j, &init(j))?;
    }
    let mut store = ShardStore::new(g);
    store.plan_cache(cache_bytes, prog.direction())?;

    let mut frontier = Frontier::new(g, !P::ALWAYS_APPLY, |v| prog.initially_active(v));
    let mut pipe = Pipeline::<P::Accum>::new(g, cfg);
    let dirs = ShardStore::dirs(prog.direction());
    let mut accs_res: Vec<AccBuf<P>> = (0..q).map(new_buf).collect();
    // Hubs `(i, j)` written this iteration and not yet folded.
    let mut written: HashSet<(u32, u32)> = HashSet::new();
    let (mut iterations, mut edges) = (0, 0u64);

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        for a in &mut accs_res {
            a.reset(prog);
        }
        let mut any_changed = false;
        let (sending, changed) = (frontier.sending(), frontier.changed());
        let groups = plan(g, q, &store, &frontier, dirs, P::APPLY_NEEDS_OLD).groups;
        for Group { mut fetches, steps } in groups {
            fetches.retain(|f| !matches!(*f, Fetch::Hub { i, j } if !written.contains(&(i, j))));
            let mut stream = pipe.stream(fetches);
            // The group's on-disk interval, and its column buffer.
            let mut vals: Option<Vec<P::Value>> = None;
            let mut buf: Option<AccBuf<P>> = None;
            // A frontier program's column that no message reached keeps
            // its old values: nothing to read or apply, so nothing to write.
            let mut quiet = false;
            for step in steps {
                match step {
                    Step::ReadInterval(_) | Step::Finalize(Some(_)) if quiet => {}
                    Step::ReadInterval(j) => vals = Some(g.read_interval(j)?),
                    Step::Absorb { row, cells, into } => {
                        let shards = views(cells, &mut stream, &mut store, &mut edges)?;
                        let r = g.interval_range(row);
                        let src = if row < q {
                            &prev[r.start as usize..r.end as usize]
                        } else {
                            vals.as_deref().expect("ReadInterval precedes")
                        };
                        if let Some(j) = into {
                            let b = buf.get_or_insert_with(|| new_buf(j));
                            for s in &shards {
                                let pair = [(s, &mut *b)];
                                absorb(prog, pair, src, r.start, sending, threads, EDGES_PER_TASK);
                            }
                        } else {
                            let pairs = shards.iter().zip(&mut accs_res);
                            absorb(prog, pairs, src, r.start, sending, threads, EDGES_PER_TASK);
                        }
                    }
                    Step::ToHub { i, j, cells } => {
                        let shards = views(cells, &mut stream, &mut store, &mut edges)?;
                        let src = vals.as_deref().expect("ReadInterval precedes");
                        let base = g.interval_range(i).start;
                        let (dsts, accs) =
                            to_hub(prog, &shards, src, base, sending, threads, EDGES_PER_TASK);
                        if !dsts.is_empty() {
                            g.write_hub(i, j, &dsts, &accs)?;
                            written.insert((i, j));
                        }
                    }
                    Step::FoldHubs { j, rows } => {
                        let rows: Vec<u32> =
                            rows.into_iter().filter(|&i| written.remove(&(i, j))).collect();
                        let hubs: Vec<_> =
                            rows.iter().map(|_| stream.hub()).collect::<EngineResult<_>>()?;
                        // One destination-range-parallel batch, bitwise
                        // equal to the serial fold.
                        let b = buf.get_or_insert_with(|| new_buf(j));
                        b.merge_hub_views_par(prog, &hubs, threads);
                        for i in rows {
                            g.remove_hub(i, j);
                        }
                        quiet =
                            !P::ALWAYS_APPLY && P::APPLY_NEEDS_OLD && b.has.iter().all(|&h| h == 0);
                    }
                    Step::Finalize(None) => {
                        // prev stays intact: phase C still reads it.
                        let bufs: Vec<_> = accs_res.iter().collect();
                        any_changed |=
                            finalize_intervals_par(prog, &bufs, &prev, &mut next, threads, changed);
                    }
                    Step::Finalize(Some(j)) => {
                        let old = vals.take().unwrap_or_else(|| init(j));
                        let col = buf.take().unwrap_or_else(|| new_buf(j));
                        let mut new = old.clone();
                        any_changed |=
                            finalize_intervals_par(prog, &[&col], &old, &mut new, threads, changed);
                        // Old values read from the file: an unchanged bit
                        // pattern is already on disk.
                        let encode = P::Value::encode_slice;
                        let same = P::APPLY_NEEDS_OLD && encode(&old) == encode(&new);
                        vals = (!same).then_some(new);
                    }
                    Step::WriteInterval(j) => {
                        if let Some(new) = vals.take() {
                            g.write_interval(j, &new)?;
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut prev, &mut next);

        // Frontier programs stop once no vertex changed; the others once
        // nothing changed, if every change is real: an on-disk interval
        // applies against init values unless the program needs its old
        // ones (PageRank runs its fixed iteration count).
        let trusted = q == p || P::APPLY_NEEDS_OLD;
        let settled = P::ALWAYS_APPLY && trusted && !any_changed;
        if frontier.advance() || settled {
            break;
        }
    }

    // Gather: resident prefix + on-disk intervals.
    let mut out = prev;
    for j in q..p {
        out.extend(g.read_interval::<P::Value>(j)?);
    }
    Ok((out, iterations, edges))
}

/// The views of a step's `cells`, counted into `edges`: a held cell as
/// it is, a streamed one as the group's next delivery, memoised in the
/// store if it held no edge.
fn views<A: Attr>(
    cells: Vec<Cell>,
    stream: &mut Stream<'_, A>,
    store: &mut ShardStore,
    edges: &mut u64,
) -> EngineResult<Vec<Arc<SubShardView>>> {
    let mut shards = Vec::with_capacity(cells.len());
    for cell in cells {
        shards.push(match cell {
            Cell::Held(view) => view,
            Cell::Streamed(key) => {
                let view = stream.shard()?;
                if view.is_empty() {
                    store.note_empty(key);
                }
                view
            }
        });
    }
    *edges += shards.iter().map(|ss| ss.num_edges() as u64).sum::<u64>();
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use crate::algo::pagerank::PageRank;
    use crate::algo::sssp::{hash_weights, Sssp};
    use crate::engine::{run, RunStats, Strategy};
    use crate::prep::{preprocess, PrepConfig};
    use crate::error::EngineError;
    use nxgraph_storage::{Disk, MemDisk, StorageError, StorageResult};

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

    /// Budget that yields Q resident intervals out of P for values of
    /// `ba` bytes.
    fn budget_for_q(g: &PreparedGraph, q: u32, ba: u64) -> u64 {
        let n = g.num_vertices() as u64;
        let p = g.num_intervals() as u64;
        // effective = q/p * 2*n*Ba (+ degree table 4n).
        4 * n + (2 * n * ba) * q as u64 / p + 1
    }

    /// Counts the interval write-backs that reach the disk below it.
    struct IntervalWrites(Arc<dyn Disk>, AtomicU64);

    impl Disk for IntervalWrites {
        fn inner(&self) -> Option<&dyn Disk> {
            Some(&*self.0)
        }
        fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
            if name.starts_with("interval_") {
                self.1.fetch_add(1, Ordering::Relaxed);
            }
            self.0.write_all_to(name, data)
        }
    }

    /// A 32×32 triangulated mesh at P = 8 behind an interval-write counter.
    fn mesh() -> (PreparedGraph, Arc<IntervalWrites>) {
        use nxgraph_graphgen::mesh::{generate, MeshConfig};
        let edges: Vec<(u64, u64)> = generate(&MeshConfig { rows: 32, cols: 32 })
            .into_iter()
            .map(|e| (e.src, e.dst))
            .collect();
        let disk = Arc::new(IntervalWrites(Arc::new(MemDisk::new()), AtomicU64::new(0)));
        let g = preprocess(&edges, &PrepConfig::new("mesh", 8), Arc::clone(&disk) as _).unwrap();
        (g, disk)
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
                let hub = g.read_hub_view::<f64>(i, j);
                assert!(matches!(
                    hub,
                    Err(EngineError::Storage(StorageError::NotFound(_)))
                ));
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
                .with_budget(budget_for_q(&g, q, 8));
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

        // Frontier programs on the mesh: every Q, inline and on the ring,
        // equals a one-thread SPU run bit for bit, and at Q = P/2 the
        // columns no message reached are not written back.
        let (g, writes) = mesh();
        // Per program: its value width, and a run returning its value bits.
        type Algo = fn(&PreparedGraph, &EngineConfig) -> (Vec<u64>, RunStats);
        let runs: [(u64, Algo); 3] = [
            (4, |g, cfg| {
                let (v, stats) = crate::algo::bfs(g, 0, cfg).unwrap();
                (v.into_iter().map(u64::from).collect(), stats)
            }),
            (4, |g, cfg| {
                let (v, stats) = crate::algo::wcc(g, cfg).unwrap();
                (v.into_iter().map(u64::from).collect(), stats)
            }),
            (8, |g, cfg| {
                let prog = Sssp::new(0, hash_weights(0.5, 2.5));
                let cfg = cfg.clone().with_max_iterations(g.num_vertices() as usize + 1);
                let (v, stats) = run(g, &prog, &cfg).unwrap();
                (v.into_iter().map(f64::to_bits).collect(), stats)
            }),
        ];
        for (k, (ba, algo)) in runs.into_iter().enumerate() {
            let one = EngineConfig::default().with_threads(1);
            let (want, spu) = algo(&g, &one.clone().with_strategy(Strategy::Spu));
            for (q, threads) in (0..=8).flat_map(|q| [(q, 1), (q, 3)]) {
                let cfg = one
                    .clone()
                    .with_threads(threads)
                    .with_strategy(Strategy::Mpu)
                    .with_budget(budget_for_q(&g, q, ba));
                let before = writes.1.load(Ordering::Relaxed);
                let (vals, stats) = algo(&g, &cfg);
                let label = format!("program {k}, q={q}, threads={threads}");
                assert!(vals == want, "{label}: values differ from SPU");
                assert_eq!(stats.iterations, spu.iterations, "{label}");
                assert_eq!(stats.edges_traversed, spu.edges_traversed, "{label}");
                // Past the set-up write of each on-disk interval's init
                // values, every write is one column's write-back.
                let write_backs = writes.1.load(Ordering::Relaxed) - before - (8 - q) as u64;
                if q == 4 {
                    let every_column = stats.iterations as u64 * 4;
                    assert!(write_backs < every_column, "{label}: {write_backs} write-backs");
                }
            }
        }
    }
}
