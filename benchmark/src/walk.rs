//! The layer walk: a single-threaded replay of one engine run that calls
//! each layer's public functions one at a time, with a span around each.
//!
//! `engine::run` interleaves disk reads, checksum, decode, the absorb
//! kernel, hub traffic and finalisation across a worker pool and prefetch
//! threads, so from outside it is one opaque wall time. The walk performs
//! the same accesses in the engines' fixed row order on the calling
//! thread:
//!
//! | span                | layer function                                         |
//! |---------------------|--------------------------------------------------------|
//! | `disk.read`         | `Disk::read_shared` on `ViewLoader::subshard_part_names` / `hub_part_name` |
//! | `format.verify`     | `format::parse_blob_encoded(.., verify = true)` under a default `ChecksumPolicy` |
//! | `dsss.decode`       | `SubShardView::parse_pooled` (+ `MergedSubShardView::merge` on chains) |
//! | `kernel.absorb`     | `engine::kernel::absorb_chunk`                         |
//! | `state.hub_compact` | `AccBuf::compact`                                      |
//! | `dsss.hub_write`    | `PreparedGraph::write_hub`                             |
//! | `dsss.hub_read`     | `HubView::parse`                                       |
//! | `state.hub_merge`   | `AccBuf::merge_hub_view`                               |
//! | `state.finalize`    | `engine::state::finalize_interval`                     |
//! | `dsss.interval_rw`  | `PreparedGraph::read_interval` / `write_interval`      |
//!
//! One driver covers all three strategies: MPU with `Q` resident intervals
//! is SPU at `Q = P` and DPU at `Q = 0`. Its final values must be bitwise
//! equal to `engine::run`'s — that equality is the evidence that the walk
//! does the same work, and the gap between the walk's time per iteration
//! and the engine's single-thread time is the share the layers do not
//! explain (driver, scheduling, allocation).

use std::sync::Arc;

use nxgraph_core::dsss::delta::MergedSubShardView;
use nxgraph_core::dsss::{HubView, PreparedGraph, SubShardView};
use nxgraph_core::engine::kernel::absorb_chunk;
use nxgraph_core::engine::{choose_strategy, finalize_interval, AccBuf, Strategy};
use nxgraph_core::error::{EngineError, EngineResult};
use nxgraph_core::types::Attr;
use nxgraph_core::VertexProgram;
use nxgraph_storage::format::{self, FileKind};
use nxgraph_storage::ChecksumPolicy;

use crate::span::Tracer;

pub struct WalkOutput<V> {
    pub values: Vec<V>,
    pub iterations: usize,
    pub edges_traversed: u64,
    /// Sub-shards the walk kept resident (its replica of
    /// `ShardStore::plan_cache`).
    pub cached_cells: usize,
}

/// Interval activity (§II-B), as `engine::Activity` keeps it.
struct Activity {
    active: Vec<bool>,
    tracks: bool,
}

impl Activity {
    fn init<P: VertexProgram>(g: &PreparedGraph, prog: &P) -> Self {
        let tracks = !P::ALWAYS_APPLY;
        let active = (0..g.num_intervals())
            .map(|j| !tracks || g.interval_range(j).any(|v| prog.initially_active(v)))
            .collect();
        Self { active, tracks }
    }

    fn row_skippable(&self, i: u32) -> bool {
        self.tracks && !self.active[i as usize]
    }

    /// Install next iteration's flags; `true` when every interval went
    /// inactive.
    fn advance(&mut self, changed: &[bool]) -> bool {
        if !self.tracks {
            return false;
        }
        self.active.copy_from_slice(changed);
        self.active.iter().all(|&a| !a)
    }
}

/// Loads blobs layer by layer and keeps the resident-cell table.
struct Loader<'g> {
    g: &'g PreparedGraph,
    loader: nxgraph_core::dsss::ViewLoader,
    /// Fresh default policy: the walk verifies exactly when a newly opened
    /// graph would (first load of each immutable name; every hub read).
    checksums: ChecksumPolicy,
    cache: Vec<Option<Arc<SubShardView>>>,
}

impl<'g> Loader<'g> {
    fn new(g: &'g PreparedGraph) -> Self {
        let p = g.num_intervals() as usize;
        Self {
            g,
            loader: g.view_loader(),
            checksums: ChecksumPolicy::default(),
            cache: vec![None; p * p],
        }
    }

    fn cell(&self, i: u32, j: u32) -> usize {
        (i * self.g.num_intervals() + j) as usize
    }

    /// One blob off the disk, checksum verified when the policy says so.
    fn read_verified(
        &self,
        tr: &mut Tracer,
        name: &str,
        kind: FileKind,
        verify: bool,
    ) -> EngineResult<nxgraph_storage::SharedBytes> {
        let bytes = tr.scope("disk.read", || {
            let r = self.loader.disk().read_shared(name, self.loader.pool());
            let n = r.as_ref().map_or(0, |b| b.len() as u64);
            (r, n)
        })?;
        if verify {
            tr.scope("format.verify", || {
                let r = format::parse_blob_encoded(bytes.as_slice(), kind, name, true);
                (r, bytes.len() as u64)
            })?;
        }
        Ok(bytes)
    }

    /// Stream cell `(i, j)` (forward direction): every chain part read,
    /// verified on first sight, decoded, and merged when chained.
    fn stream(&self, tr: &mut Tracer, i: u32, j: u32) -> EngineResult<Arc<SubShardView>> {
        let names = self.loader.subshard_part_names(i, j, false);
        let mut parts = Vec::with_capacity(names.len());
        for name in &names {
            let verify = self.checksums.should_verify(name);
            let bytes = self.read_verified(tr, name, FileKind::SubShard, verify)?;
            if verify {
                self.checksums.note_verified(name);
            }
            let part = tr.scope("dsss.decode", || {
                let r = SubShardView::parse_pooled(bytes, name, false, Some(self.loader.pool()));
                let n = r.as_ref().map_or(0, |v| v.num_edges() as u64);
                (r, n)
            })?;
            if part.src_interval() != i || part.dst_interval() != j {
                return Err(EngineError::Invalid(format!(
                    "{name} is not cell ({i}, {j})"
                )));
            }
            parts.push(part);
        }
        let view = if parts.len() == 1 {
            parts.pop().expect("base part")
        } else {
            tr.scope("dsss.decode", || {
                (MergedSubShardView::merge(&parts).into_view(), 0)
            })
        };
        Ok(Arc::new(view))
    }

    fn get(&self, tr: &mut Tracer, i: u32, j: u32) -> EngineResult<Arc<SubShardView>> {
        match &self.cache[self.cell(i, j)] {
            Some(ss) => Ok(Arc::clone(ss)),
            None => self.stream(tr, i, j),
        }
    }

    /// `ShardStore::plan_cache` for the forward direction: row-major,
    /// charged in resident bytes, file length as the pre-read filter.
    fn plan_cache(&mut self, tr: &mut Tracer, budget: u64) -> EngineResult<usize> {
        let p = self.g.num_intervals();
        let (mut used, mut cells) = (0u64, 0usize);
        'plan: for i in 0..p {
            for j in 0..p {
                if used + self.g.subshard_len(i, j, false)? > budget {
                    break 'plan;
                }
                let ss = self.stream(tr, i, j)?;
                if used + ss.resident_bytes() > budget {
                    break 'plan;
                }
                used += ss.resident_bytes();
                cells += 1;
                let cell = self.cell(i, j);
                self.cache[cell] = Some(ss);
            }
        }
        Ok(cells)
    }

    fn read_hub<A: Attr>(
        &self,
        tr: &mut Tracer,
        i: u32,
        j: u32,
    ) -> EngineResult<Option<HubView<A>>> {
        let Some(name) = self.loader.hub_part_name(i, j) else {
            return Ok(None);
        };
        // Hubs are rewritten every iteration, so every read verifies.
        let verify = self.checksums.should_verify_mutable();
        let bytes = self.read_verified(tr, &name, FileKind::Hub, verify)?;
        let hub = tr.scope("dsss.hub_read", || {
            let n = bytes.len() as u64;
            (HubView::parse(bytes, &name, false), n)
        })?;
        Ok(Some(hub))
    }
}

fn absorb<P: VertexProgram>(
    tr: &mut Tracer,
    prog: &P,
    ss: &SubShardView,
    src_vals: &[P::Value],
    src_base: u32,
    buf: &mut AccBuf<P>,
) {
    tr.scope("kernel.absorb", || {
        let base = buf.base;
        absorb_chunk(
            prog,
            ss,
            0..ss.num_dsts(),
            src_vals,
            src_base,
            &mut buf.acc,
            &mut buf.has,
            base,
        );
        ((), ss.num_edges() as u64)
    })
}

fn read_interval<P: VertexProgram>(
    tr: &mut Tracer,
    g: &PreparedGraph,
    j: u32,
) -> EngineResult<Vec<P::Value>> {
    tr.scope("dsss.interval_rw", || {
        let r = g.read_interval::<P::Value>(j);
        let n = r.as_ref().map_or(0, |v| (v.len() * P::Value::SIZE) as u64);
        (r, n)
    })
}

fn write_interval<P: VertexProgram>(
    tr: &mut Tracer,
    g: &PreparedGraph,
    j: u32,
    vals: &[P::Value],
) -> EngineResult<()> {
    tr.scope("dsss.interval_rw", || {
        (
            g.write_interval(j, vals),
            (vals.len() * P::Value::SIZE) as u64,
        )
    })
}

/// Replay `engine::run(g, prog, cfg)` for a forward-direction program
/// under `strategy` and `budget`, one layer call at a time.
pub fn walk<P: VertexProgram>(
    g: &PreparedGraph,
    prog: &P,
    strategy: Strategy,
    budget: u64,
    max_iterations: usize,
    tr: &mut Tracer,
) -> EngineResult<WalkOutput<P::Value>> {
    let n = g.num_vertices();
    let p = g.num_intervals();
    // Residency exactly as the three drivers derive it.
    let (q, cache_budget) = match strategy {
        Strategy::Spu => {
            let resident = 2 * n as u64 * P::Value::SIZE as u64 + n as u64 * 4;
            (p, budget.saturating_sub(resident))
        }
        Strategy::Dpu => (0, 0),
        Strategy::Mpu => {
            let (_, plan) = choose_strategy(n as u64, p, P::Value::SIZE, budget);
            (plan.resident_intervals as u32, plan.shard_cache_bytes)
        }
        Strategy::Auto => {
            return Err(EngineError::Invalid(
                "the walk needs a resolved strategy".into(),
            ))
        }
    };
    let root = tr.begin("walk");

    let res_end = if q == 0 {
        0
    } else {
        g.interval_range(q - 1).end
    };
    let mut prev_res: Vec<P::Value> = (0..res_end).map(|v| prog.init(v)).collect();
    let mut next_res = prev_res.clone();
    for j in q..p {
        let vals: Vec<P::Value> = g.interval_range(j).map(|v| prog.init(v)).collect();
        write_interval::<P>(tr, g, j, &vals)?;
    }
    let mut loader = Loader::new(g);
    let cached_cells = loader.plan_cache(tr, cache_budget)?;
    let mut activity = Activity::init(g, prog);
    let new_buf = |j: u32| {
        let r = g.interval_range(j);
        AccBuf::new(prog, r.start, (r.end - r.start) as usize)
    };
    let mut accs_res: Vec<AccBuf<P>> = (0..q).map(new_buf).collect();

    let mut iterations = 0;
    let mut edges = 0u64;
    for _ in 0..max_iterations {
        iterations += 1;
        let iter_span = tr.begin("iter");
        tr.scope("state.reset", || {
            for a in &mut accs_res {
                a.reset(prog);
            }
            ((), 0)
        });
        let mut changed = vec![false; p as usize];

        // Phase A: resident sources into resident destinations.
        for i in 0..q {
            if activity.row_skippable(i) {
                continue;
            }
            let r = g.interval_range(i);
            let src = &prev_res[r.start as usize..r.end as usize];
            for j in 0..q {
                let ss = loader.get(tr, i, j)?;
                edges += ss.num_edges() as u64;
                absorb(tr, prog, &ss, src, r.start, &mut accs_res[j as usize]);
            }
        }

        // Phase B: each disk-resident source row, into resident
        // accumulators and (for disk-resident destinations) into hubs.
        for i in q..p {
            if activity.row_skippable(i) {
                continue;
            }
            let src_vals = read_interval::<P>(tr, g, i)?;
            let base = g.interval_range(i).start;
            for j in 0..q {
                let ss = loader.get(tr, i, j)?;
                edges += ss.num_edges() as u64;
                absorb(tr, prog, &ss, &src_vals, base, &mut accs_res[j as usize]);
            }
            for j in q..p {
                let mut buf = new_buf(j);
                let ss = loader.get(tr, i, j)?;
                edges += ss.num_edges() as u64;
                absorb(tr, prog, &ss, &src_vals, base, &mut buf);
                let (dsts, accs) = tr.scope("state.hub_compact", || {
                    let c = buf.compact();
                    let k = c.0.len() as u64;
                    (c, k)
                });
                if !dsts.is_empty() {
                    tr.scope("dsss.hub_write", || {
                        let bytes = (dsts.len() * (4 + P::Accum::SIZE)) as u64;
                        (g.write_hub(i, j, &dsts, &accs), bytes)
                    })?;
                }
            }
        }

        // Resident intervals: fold accumulators into the ping-pong copy.
        for j in 0..q {
            let r = g.interval_range(j);
            let (lo, hi) = (r.start as usize, r.end as usize);
            changed[j as usize] = tr.scope("state.finalize", || {
                let ch = finalize_interval(
                    prog,
                    &accs_res[j as usize],
                    &prev_res[lo..hi],
                    &mut next_res[lo..hi],
                );
                (ch, (hi - lo) as u64)
            });
        }

        // Phase C: each disk-resident destination column — resident
        // sources first, then the hubs, in row order.
        for j in q..p {
            let old: Vec<P::Value> = if P::APPLY_NEEDS_OLD {
                read_interval::<P>(tr, g, j)?
            } else {
                g.interval_range(j).map(|v| prog.init(v)).collect()
            };
            let mut buf = new_buf(j);
            for i in (0..q).filter(|&i| !activity.row_skippable(i)) {
                let ss = loader.get(tr, i, j)?;
                edges += ss.num_edges() as u64;
                let r = g.interval_range(i);
                absorb(
                    tr,
                    prog,
                    &ss,
                    &prev_res[r.start as usize..r.end as usize],
                    r.start,
                    &mut buf,
                );
            }
            let mut hubs = Vec::new();
            for i in q..p {
                if let Some(hub) = loader.read_hub::<P::Accum>(tr, i, j)? {
                    hubs.push((i, hub));
                }
            }
            tr.scope("state.hub_merge", || {
                let mut entries = 0;
                for (_, hub) in &hubs {
                    buf.merge_hub_view(prog, hub);
                    entries += hub.len() as u64;
                }
                ((), entries)
            });
            tr.scope("dsss.hub_remove", || {
                for (i, _) in &hubs {
                    g.remove_hub(*i, j);
                }
                ((), hubs.len() as u64)
            });
            let mut new_vals = old.clone();
            changed[j as usize] = tr.scope("state.finalize", || {
                (
                    finalize_interval(prog, &buf, &old, &mut new_vals),
                    old.len() as u64,
                )
            });
            write_interval::<P>(tr, g, j, &new_vals)?;
        }

        std::mem::swap(&mut prev_res, &mut next_res);
        let any_changed = changed.iter().any(|&c| c);
        let all_inactive = activity.advance(&changed);
        tr.end(iter_span, 0);
        let done = if P::ALWAYS_APPLY {
            (q == p || P::APPLY_NEEDS_OLD) && !any_changed
        } else {
            all_inactive
        };
        if done {
            break;
        }
    }

    let mut values = prev_res;
    values.truncate(res_end as usize);
    for j in q..p {
        values.extend(read_interval::<P>(tr, g, j)?);
    }
    tr.end(root, edges);
    Ok(WalkOutput {
        values,
        iterations,
        edges_traversed: edges,
        cached_cells,
    })
}

/// FNV-1a over the exact bytes of a value vector: two runs are bitwise
/// identical iff their fingerprints (and lengths) match.
pub fn fingerprint<A: Attr>(values: &[A]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = Vec::with_capacity(A::SIZE);
    for v in values {
        buf.clear();
        v.write_to(&mut buf);
        for &b in &buf {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_core::algo::{Bfs, PageRank};
    use nxgraph_core::engine::{self, EngineConfig};
    use nxgraph_core::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, EncodingPolicy, MemDisk};

    fn rmat10(encoding: EncodingPolicy) -> PreparedGraph {
        let raw = crate::inputs::rmat_edges(10, 42);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(
            &raw,
            &PrepConfig::forward_only("walk", 8).with_encoding(encoding),
            disk,
        )
        .unwrap()
    }

    fn budgets(g: &PreparedGraph, size: u64) -> [(Strategy, u64); 4] {
        let n = g.num_vertices() as u64;
        [
            (Strategy::Spu, u64::MAX),
            // SPU with no room for a shard cache: everything streams.
            (Strategy::Spu, 2 * n * size + 4 * n),
            (Strategy::Dpu, 1 << 20),
            (Strategy::Mpu, 4 * n + n * size),
        ]
    }

    /// Layer walk == engine, bitwise, at scale 10 for SPU, DPU and MPU, on
    /// raw and compressed stores, at one and two engine threads.
    #[test]
    fn walk_is_bitwise_equal_to_the_engine_pagerank() {
        for encoding in [EncodingPolicy::Raw, EncodingPolicy::Auto] {
            let g = rmat10(encoding);
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            for (strategy, budget) in budgets(&g, 8) {
                for threads in [1, 2] {
                    let cfg = EngineConfig::default()
                        .with_threads(threads)
                        .with_strategy(strategy)
                        .with_budget(budget)
                        .with_max_iterations(10);
                    let (want, stats) = engine::run(&g, &prog, &cfg).unwrap();
                    for traced in [false, true] {
                        let mut tr = Tracer::new(traced);
                        let got = walk(&g, &prog, strategy, budget, 10, &mut tr).unwrap();
                        assert_eq!(
                            fingerprint(&got.values),
                            fingerprint(&want),
                            "{strategy:?} {encoding:?}"
                        );
                        assert_eq!(got.values.len(), want.len());
                        assert_eq!(got.iterations, stats.iterations);
                        assert_eq!(got.edges_traversed, stats.edges_traversed);
                        assert_eq!(tr.spans().is_empty(), !traced);
                    }
                }
            }
        }
    }

    #[test]
    fn walk_is_bitwise_equal_to_the_engine_bfs_with_activity_tracking() {
        let raw = crate::inputs::mesh_edges(8);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let cfg = PrepConfig::forward_only("mesh", 8).with_encoding(EncodingPolicy::Auto);
        let g = preprocess(&raw, &cfg, disk).unwrap();
        let prog = Bfs::new(0);
        let cap = g.num_vertices() as usize + 1;
        for (strategy, budget) in budgets(&g, 4) {
            let cfg = EngineConfig::default()
                .with_threads(2)
                .with_strategy(strategy)
                .with_budget(budget)
                .with_max_iterations(cap);
            let (want, stats) = engine::run(&g, &prog, &cfg).unwrap();
            let mut tr = Tracer::new(true);
            let got = walk(&g, &prog, strategy, budget, cap, &mut tr).unwrap();
            assert_eq!(got.values, want, "{strategy:?}");
            assert_eq!(got.iterations, stats.iterations);
            assert_eq!(got.edges_traversed, stats.edges_traversed);
            // Row skipping happened: fewer edges than a full sweep per iteration.
            assert!(got.edges_traversed < g.num_edges() * got.iterations as u64);
        }
    }

    #[test]
    fn walk_io_matches_the_engine_byte_for_byte() {
        let g = rmat10(EncodingPolicy::Auto);
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        for (strategy, budget) in budgets(&g, 8) {
            let cfg = EngineConfig::default()
                .with_threads(1)
                .with_strategy(strategy)
                .with_budget(budget)
                .with_max_iterations(3);
            let (_, stats) = engine::run(&g, &prog, &cfg).unwrap();
            let before = g.disk().counters().snapshot();
            walk(&g, &prog, strategy, budget, 3, &mut Tracer::new(false)).unwrap();
            let io = g.disk().counters().snapshot().delta(&before);
            assert_eq!(
                (io.read_bytes, io.written_bytes),
                (stats.io.read_bytes, stats.io.written_bytes),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn walk_reads_chained_cells() {
        use nxgraph_core::{DynamicConfig, DynamicGraph};
        let raw = crate::inputs::rmat_edges(9, 5);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(&raw, &PrepConfig::new("chain", 4), disk).unwrap();
        let known = g.load_reverse_mapping().unwrap();
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
        for batch in crate::inputs::batches(&known, 3, 64, 1) {
            dg.add_edges(&batch).unwrap();
        }
        let g = dg.graph();
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Spu)
            .with_max_iterations(4);
        let (want, _) = engine::run(g, &prog, &cfg).unwrap();
        let got = walk(g, &prog, Strategy::Spu, u64::MAX, 4, &mut Tracer::new(true)).unwrap();
        assert_eq!(fingerprint(&got.values), fingerprint(&want));
    }
}
