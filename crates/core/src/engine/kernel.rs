//! The per-sub-shard update kernel and its parallel task machinery
//! (§III-D: fine-grained parallelism in each Destination-Sorted Sub-Shard).
//!
//! Within a sub-shard, edges of one destination are contiguous, so slicing
//! the destination axis hands each worker an exclusive accumulator range —
//! "no thread locks or atomic operations are required to maintain
//! consistency". Two entry points carve those slices and run them on the
//! worker pool:
//!
//! * [`absorb`] folds sub-shards into interval-wide accumulators (phase A,
//!   the resident columns of phase B, and phase C's resident rows). The
//!   paper's interval-lock flavour (§IV preamble) is this path with one
//!   chunk per whole sub-shard (`edges_per_task = usize::MAX`), so it is
//!   not a separate mode.
//! * [`to_hub`] is DPU's ToHub (§III-B2): it folds the one or two cells of
//!   hub `(i, j)` into accumulators indexed by position in their own
//!   destination list, so a hub costs its cells' destinations, never an
//!   interval.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::dsss::SubShardView;
use crate::parallel::run_tasks;
use crate::program::VertexProgram;
use crate::types::VertexId;

use super::state::AccBuf;

/// Target edges per destination-chunk task: "several thousands of edges"
/// (§III-D), fine enough to balance a row across workers, coarse enough
/// to amortise the per-task dispatch.
pub const EDGES_PER_TASK: usize = 8192;

/// Fold the edges of `ss` whose destination slots lie in `pos_range` into
/// the accumulator slice `acc`/`has`, which covers global destination ids
/// `[slice_base, slice_base + acc.len())`.
///
/// `src_vals` holds the source interval's previous-iteration attributes,
/// starting at global id `src_base`.
///
/// Flat-edge iteration: the CSR layout guarantees each destination's
/// sources form one contiguous `srcs` run, so the whole run is handed to
/// [`VertexProgram::absorb_run`] at once and `has[slot]` is written at most
/// once per destination — not once per edge as the old scalar walk did.
#[inline]
#[allow(clippy::too_many_arguments)] // hot-path kernel: explicit slices beat a params struct
pub fn absorb_chunk<P: VertexProgram>(
    prog: &P,
    ss: &SubShardView,
    pos_range: Range<usize>,
    src_vals: &[P::Value],
    src_base: VertexId,
    acc: &mut [P::Accum],
    has: &mut [u8],
    slice_base: VertexId,
) {
    let (dsts, offsets, srcs) = (ss.dsts(), ss.offsets(), ss.srcs());
    for pos in pos_range {
        let d = dsts[pos];
        let slot = (d - slice_base) as usize;
        let run = &srcs[offsets[pos] as usize..offsets[pos + 1] as usize];
        if prog.absorb_run(d, run, src_vals, src_base, &mut acc[slot]) {
            has[slot] = 1;
        }
    }
}

/// One fine-grained task: a destination chunk of a sub-shard plus the
/// exclusive accumulator slice it owns.
struct ChunkTask<'a, P: VertexProgram> {
    ss: Arc<SubShardView>,
    pos_range: Range<usize>,
    acc: &'a mut [P::Accum],
    has: &'a mut [u8],
    slice_base: VertexId,
}

/// Carve disjoint accumulator slices for each destination chunk of `ss`.
///
/// Chunks are position ranges in ascending destination order, so slices can
/// be split off the buffer front-to-back.
fn carve_tasks<'a, P: VertexProgram>(
    ss: &Arc<SubShardView>,
    chunks: Vec<Range<usize>>,
    buf: &'a mut AccBuf<P>,
) -> Vec<ChunkTask<'a, P>> {
    let mut tasks = Vec::with_capacity(chunks.len());
    let mut acc_rest: &'a mut [P::Accum] = &mut buf.acc[..];
    let mut has_rest: &'a mut [u8] = &mut buf.has[..];
    let mut cursor = buf.base;
    let dsts = ss.dsts();
    for chunk in chunks {
        let dst_lo = dsts[chunk.start];
        let dst_hi = dsts[chunk.end - 1] + 1;
        debug_assert!(dst_lo >= cursor, "chunks must be ascending");
        let skip = (dst_lo - cursor) as usize;
        let take = (dst_hi - dst_lo) as usize;
        // Split by value to keep the `'a` lifetime on the carved slices.
        let (acc, rest) = std::mem::take(&mut acc_rest).split_at_mut(skip).1.split_at_mut(take);
        acc_rest = rest;
        let (has, rest) = std::mem::take(&mut has_rest).split_at_mut(skip).1.split_at_mut(take);
        has_rest = rest;
        cursor = dst_hi;
        tasks.push(ChunkTask {
            ss: Arc::clone(ss),
            pos_range: chunk,
            acc,
            has,
            slice_base: dst_lo,
        });
    }
    tasks
}

/// Fold each sub-shard into its paired accumulator, as one pool batch of
/// destination-chunk tasks of about `edges_per_task` edges.
///
/// A row call (phase A, and phase B's resident columns) passes one pair
/// per destination interval; a column call passes one pair. The pairs hold
/// distinct `&mut` accumulators and every task owns a disjoint slice of
/// one of them, so no locks are taken. Per destination the fold order is
/// the sub-shard's own source order, so the result is bitwise-equal to a
/// serial [`absorb_chunk`] over each whole sub-shard at any thread count
/// and task size.
pub fn absorb<'a, P: VertexProgram + 'a>(
    prog: &P,
    pairs: impl IntoIterator<Item = (&'a Arc<SubShardView>, &'a mut AccBuf<P>)>,
    src_vals: &[P::Value],
    src_base: VertexId,
    threads: usize,
    edges_per_task: usize,
) {
    let mut tasks = Vec::new();
    for (ss, buf) in pairs {
        if !ss.is_empty() {
            tasks.extend(carve_tasks(ss, ss.chunk_by_edges(edges_per_task), buf));
        }
    }
    run_tasks(threads, tasks, |t: ChunkTask<'_, P>| {
        absorb_chunk(
            prog,
            &t.ss,
            t.pos_range,
            src_vals,
            src_base,
            t.acc,
            t.has,
            t.slice_base,
        );
    });
}

/// ToHub (§III-B2): fold `cells`, the one or two sub-shards of hub
/// `(i, j)` in plan order (forward, then reverse), into the hub's
/// ascending destinations and their accumulators.
///
/// Accumulators are indexed by *position* in the sorted union of the
/// cells' destination lists (with one cell, its own `dsts()`), so nothing
/// interval-sized is allocated or scanned. The positions are cut into
/// chunks of about `edges_per_task` edges and run as one pool batch, each
/// chunk owning a disjoint slice ("DPU can overlap the four sub-shards …
/// since their write destinations, i.e. their hubs, do not overlap").
/// Per destination the accumulator starts at `prog.zero()` and folds each
/// cell's run in `cells` order; only destinations that got a message are
/// kept. That is what absorbing every cell into a zeroed interval-wide
/// [`AccBuf`] and keeping its messaged slots gives, bit for bit, at any
/// thread count and task size. When every destination got a message, a
/// one-cell hub borrows the cell's destination list instead of copying it.
pub fn to_hub<'c, P: VertexProgram>(
    prog: &P,
    cells: &'c [Arc<SubShardView>],
    src_vals: &[P::Value],
    src_base: VertexId,
    threads: usize,
    edges_per_task: usize,
) -> (Cow<'c, [VertexId]>, Vec<P::Accum>) {
    let cells: Vec<&SubShardView> = cells.iter().map(|c| &**c).filter(|c| !c.is_empty()).collect();
    let (dsts, chunks) = match cells[..] {
        [] => return (Cow::Borrowed(&[]), Vec::new()),
        [one] => (Cow::Borrowed(one.dsts()), one.chunk_by_edges(edges_per_task)),
        _ => {
            let (union, chunks) = union_chunks(&cells, edges_per_task);
            (Cow::Owned(union), chunks)
        }
    };
    let mut acc = vec![prog.zero(); dsts.len()];
    let mut has = vec![0u8; dsts.len()];
    let mut tasks = Vec::with_capacity(chunks.len());
    let (mut acc_rest, mut has_rest) = (&mut acc[..], &mut has[..]);
    for chunk in chunks {
        debug_assert!(!chunk.is_empty() && chunk.len() <= acc_rest.len());
        let (a, rest) = std::mem::take(&mut acc_rest).split_at_mut(chunk.len());
        acc_rest = rest;
        let (h, rest) = std::mem::take(&mut has_rest).split_at_mut(chunk.len());
        has_rest = rest;
        tasks.push((&dsts[chunk], a, h));
    }
    debug_assert!(acc_rest.is_empty(), "chunks must cover every position");
    run_tasks(threads, tasks, |(span, acc, has)| {
        for ss in &cells {
            absorb_span(prog, ss, span, src_vals, src_base, acc, has);
        }
    });
    keep_messaged(dsts, acc, &has)
}

/// Fold the runs of `ss` whose destinations lie in `span`, a slice of the
/// hub's ascending destination list, into the position-indexed `acc`/`has`
/// (`acc[k]` belongs to `span[k]`). Every destination of `ss` in that
/// range is in `span`.
fn absorb_span<P: VertexProgram>(
    prog: &P,
    ss: &SubShardView,
    span: &[VertexId],
    src_vals: &[P::Value],
    src_base: VertexId,
    acc: &mut [P::Accum],
    has: &mut [u8],
) {
    let (dsts, offsets, srcs) = (ss.dsts(), ss.offsets(), ss.srcs());
    let (lo, hi) = (span[0], span[span.len() - 1]);
    let first = dsts.partition_point(|&d| d < lo);
    let mut slot = 0;
    for (pos, &d) in dsts.iter().enumerate().skip(first).take_while(|&(_, &d)| d <= hi) {
        while span[slot] < d {
            slot += 1;
        }
        debug_assert_eq!(span[slot], d, "a cell's destination is missing from the hub");
        let run = &srcs[offsets[pos] as usize..offsets[pos + 1] as usize];
        if prog.absorb_run(d, run, src_vals, src_base, &mut acc[slot]) {
            has[slot] = 1;
        }
    }
}

/// The sorted union of the cells' destination lists, cut into position
/// chunks of about `edges_per_task` edges, counting every cell's run (the
/// cut rule of [`SubShardView::chunk_by_edges`]).
fn union_chunks(
    cells: &[&SubShardView],
    edges_per_task: usize,
) -> (Vec<VertexId>, Vec<Range<usize>>) {
    let lists: Vec<(&[VertexId], &[u32])> = cells.iter().map(|c| (c.dsts(), c.offsets())).collect();
    let mut heads = vec![0usize; lists.len()];
    let mut union = Vec::with_capacity(lists.iter().map(|l| l.0.len()).max().unwrap_or(0));
    let mut chunks = Vec::new();
    let (target, mut start, mut edges) = (edges_per_task.max(1), 0, 0usize);
    while let Some(d) =
        lists.iter().zip(&heads).filter_map(|((ds, _), &h)| ds.get(h).copied()).min()
    {
        for ((ds, offsets), h) in lists.iter().zip(&mut heads) {
            if ds.get(*h) == Some(&d) {
                edges += (offsets[*h + 1] - offsets[*h]) as usize;
                *h += 1;
            }
        }
        union.push(d);
        if edges >= target {
            chunks.push(start..union.len());
            (start, edges) = (union.len(), 0);
        }
    }
    if start < union.len() {
        chunks.push(start..union.len());
    }
    (union, chunks)
}

/// Keep the positions whose `has` flag is set: hub form. The inputs pass
/// through untouched when every position got a message.
fn keep_messaged<'c, A: Copy>(
    dsts: Cow<'c, [VertexId]>,
    mut acc: Vec<A>,
    has: &[u8],
) -> (Cow<'c, [VertexId]>, Vec<A>) {
    let count = has.iter().filter(|&&h| h != 0).count();
    if count == has.len() {
        return (dsts, acc);
    }
    let mut kept = Vec::with_capacity(count);
    for (pos, &h) in has.iter().enumerate() {
        if h != 0 {
            acc[kept.len()] = acc[pos];
            kept.push(dsts[pos]);
        }
    }
    acc.truncate(count);
    (Cow::Owned(kept), acc)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    struct Sum;

    impl VertexProgram for Sum {
        type Value = f64;
        type Accum = f64;
        const APPLY_NEEDS_OLD: bool = false;
        const ALWAYS_APPLY: bool = true;

        fn init(&self, _v: VertexId) -> f64 {
            0.0
        }

        fn zero(&self) -> f64 {
            0.0
        }

        fn absorb(&self, _s: VertexId, sv: &f64, _d: VertexId, acc: &mut f64) -> bool {
            *acc += sv;
            true
        }

        fn combine(&self, a: &mut f64, b: &f64) {
            *a += b;
        }

        fn apply(&self, _v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
            *acc
        }
    }

    /// Sums the sources above 2.0: a run with none sends no message.
    struct Gated;
    impl VertexProgram for Gated {
        type Value = f64;
        type Accum = f64;
        const APPLY_NEEDS_OLD: bool = false;
        const ALWAYS_APPLY: bool = true;
        fn init(&self, _v: VertexId) -> f64 {
            0.0
        }
        fn zero(&self) -> f64 {
            0.0
        }
        fn source_active(&self, _s: VertexId, v: &f64) -> bool {
            *v > 2.0
        }
        fn absorb(&self, _s: VertexId, sv: &f64, _d: VertexId, acc: &mut f64) -> bool {
            *acc += sv;
            true
        }
        fn combine(&self, a: &mut f64, b: &f64) {
            *a += b;
        }
        fn apply(&self, _v: VertexId, _o: &f64, acc: &f64, _g: bool) -> f64 {
            *acc
        }
    }

    /// Sub-shard from interval [0,4) into [4,8): every src → every dst.
    fn dense_shard() -> Arc<SubShardView> {
        let mut edges = Vec::new();
        for s in 0..4u32 {
            for d in 4..8u32 {
                edges.push((s, d));
            }
        }
        Arc::new(SubShardView::from_edges(0, 1, edges))
    }

    /// Sub-shard from interval [0,4) into [4,8): src s → dst d when
    /// `(s + d) % 3 != 0`, so destinations receive uneven runs.
    fn sparse_shard() -> Arc<SubShardView> {
        let edges = (0..4u32)
            .flat_map(|s| (4..8u32).map(move |d| (s, d)))
            .filter(|&(s, d)| (s + d) % 3 != 0)
            .collect();
        Arc::new(SubShardView::from_edges(0, 1, edges))
    }

    #[test]
    fn absorb_matches_serial_whole_subshard_bitwise() {
        let prog = Sum;
        let shards = [dense_shard(), sparse_shard()];
        let src_vals = vec![0.1, 0.2, 0.3, 0.4];
        let serial: Vec<AccBuf<Sum>> = shards
            .iter()
            .map(|ss| {
                let mut buf = AccBuf::new(&prog, 4, 4);
                absorb_chunk(
                    &prog, ss, 0..ss.num_dsts(), &src_vals, 0, &mut buf.acc, &mut buf.has, 4,
                );
                buf
            })
            .collect();
        let bits = |b: &AccBuf<Sum>| b.acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 4] {
            for ept in [1, 2, 100, usize::MAX] {
                let mut bufs: Vec<AccBuf<Sum>> =
                    (0..2).map(|_| AccBuf::new(&prog, 4, 4)).collect();
                absorb(&prog, shards.iter().zip(bufs.iter_mut()), &src_vals, 0, threads, ept);
                for (got, want) in bufs.iter().zip(&serial) {
                    assert_eq!(bits(got), bits(want), "threads={threads} ept={ept}");
                    assert_eq!(got.has, want.has, "threads={threads} ept={ept}");
                }
            }
        }
    }

    #[test]
    fn absorb_chunk_respects_pos_range() {
        let prog = Sum;
        let ss = dense_shard();
        let src_vals = vec![1.0; 4];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        // Only destination slots 1..3 (ids 5 and 6).
        absorb_chunk(&prog, &ss, 1..3, &src_vals, 0, &mut acc, &mut has, 4);
        assert_eq!(acc, vec![0.0, 4.0, 4.0, 0.0]);
        assert_eq!(has, vec![0, 1, 1, 0]);
    }

    #[test]
    fn carve_handles_gaps() {
        // Destinations 10 and 14 within an interval starting at 8:
        // slices must skip the gap correctly.
        let prog = Sum;
        let ss = Arc::new(SubShardView::from_edges(0, 1, vec![(0, 10), (1, 14)]));
        let mut buf = AccBuf::<Sum>::new(&prog, 8, 8);
        let chunks = ss.chunk_by_edges(1);
        assert_eq!(chunks.len(), 2);
        let tasks = carve_tasks(&ss, chunks, &mut buf);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].slice_base, 10);
        assert_eq!(tasks[0].acc.len(), 1);
        assert_eq!(tasks[1].slice_base, 14);
        assert_eq!(tasks[1].acc.len(), 1);
    }

    #[test]
    fn source_active_filter_is_respected() {
        let prog = Gated;
        let ss = dense_shard();
        let src_vals = vec![1.0, 2.0, 3.0, 4.0];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        absorb_chunk(&prog, &ss, 0..4, &src_vals, 0, &mut acc, &mut has, 4);
        // Only sources 3.0 and 4.0 pass the gate.
        assert_eq!(acc, vec![7.0; 4]);
        assert_eq!(has, vec![1; 4]);

        // When no source passes, the run contributes nothing and the
        // per-destination has flag must stay clear.
        let low_vals = vec![1.0; 4];
        let mut acc = vec![0.0; 4];
        let mut has = vec![0u8; 4];
        absorb_chunk(&prog, &ss, 0..4, &low_vals, 0, &mut acc, &mut has, 4);
        assert_eq!(acc, vec![0.0; 4]);
        assert_eq!(has, vec![0; 4]);
    }

    /// A cell from sources `[0, 12)` into destinations `[16, 56)`: each
    /// kept destination gets a run of 1 to 6 pseudo-random sources.
    fn cell(seed: u64, keep: impl Fn(u32) -> bool) -> Arc<SubShardView> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut edges = Vec::new();
        for d in (16..56u32).filter(|&d| keep(d)) {
            let run = 1 + next() % 6;
            let mut srcs: Vec<u32> = (0..run).map(|_| (next() % 12) as u32).collect();
            srcs.sort_unstable();
            srcs.dedup();
            edges.extend(srcs.into_iter().map(|s| (s, d)));
        }
        Arc::new(SubShardView::from_edges(0, 1, edges))
    }

    /// The interval-wide path `to_hub` replaces: absorb every cell into a
    /// zeroed buffer over the whole destination interval, then compact.
    fn interval_wide<P: VertexProgram<Accum = f64>>(
        prog: &P,
        cells: &[Arc<SubShardView>],
        src_vals: &[P::Value],
    ) -> (Vec<VertexId>, Vec<u64>) {
        let mut buf = AccBuf::new(prog, 16, 40);
        for ss in cells {
            absorb(prog, [(ss, &mut buf)], src_vals, 0, 1, usize::MAX);
        }
        let (dsts, accs) = buf.compact();
        (dsts, accs.iter().map(|a| a.to_bits()).collect())
    }

    /// Checks `to_hub` against [`interval_wide`] over every thread count
    /// and task size; returns how many destinations the hub keeps.
    fn assert_to_hub_is_interval_wide<P: VertexProgram<Accum = f64>>(
        prog: &P,
        cells: &[Arc<SubShardView>],
        src_vals: &[P::Value],
        label: &str,
    ) -> usize {
        let want = interval_wide(prog, cells, src_vals);
        for threads in [1, 2, 3, 8] {
            for ept in [1, 7, EDGES_PER_TASK, usize::MAX] {
                let (dsts, accs) = to_hub(prog, cells, src_vals, 0, threads, ept);
                let bits: Vec<u64> = accs.iter().map(|a| a.to_bits()).collect();
                assert_eq!((dsts.to_vec(), bits), want, "{label}, threads={threads}, ept={ept}");
            }
        }
        want.0.len()
    }

    #[test]
    fn to_hub_equals_the_interval_wide_buffer_bitwise() {
        let empty = Arc::new(SubShardView::from_edges(0, 1, Vec::new()));
        let cases: Vec<(&str, Vec<Arc<SubShardView>>)> = vec![
            ("one cell", vec![cell(1, |d| d % 3 != 1)]),
            ("every destination", vec![cell(2, |_| true)]),
            ("one destination", vec![cell(3, |d| d == 37)]),
            ("disjoint", vec![cell(4, |d| d % 2 == 0), cell(5, |d| d % 2 == 1)]),
            ("overlapping", vec![cell(6, |d| d % 3 != 0), cell(7, |d| d % 2 == 0)]),
            ("identical", vec![cell(8, |d| d % 4 != 3), cell(9, |d| d % 4 != 3)]),
            ("one destination and a cell", vec![cell(10, |d| d == 16), cell(11, |d| d > 40)]),
            ("empty then a cell", vec![Arc::clone(&empty), cell(12, |d| d < 30)]),
            ("a cell then empty", vec![cell(13, |d| d >= 30), Arc::clone(&empty)]),
            ("empty", vec![Arc::clone(&empty)]),
            ("two empty", vec![Arc::clone(&empty), empty]),
            ("none", vec![]),
        ];
        // Sum messages every destination of its cells. Gated's sources
        // alternate above and below its gate, so some runs send nothing;
        // below the gate everywhere, no run does.
        let sum_vals: Vec<f64> = (0..12).map(|s| 0.1 + s as f64 / 7.0).collect();
        let mixed: Vec<f64> =
            (0..12).map(|s| if s % 3 == 0 { 2.5 + s as f64 / 3.0 } else { 1.0 }).collect();
        let low = vec![1.5; 12];
        let mut partial = false;
        for (label, cells) in &cases {
            let all = assert_to_hub_is_interval_wide(&Sum, cells, &sum_vals, label);
            let union: HashSet<VertexId> =
                cells.iter().flat_map(|c| c.dsts().iter().copied()).collect();
            assert_eq!(all, union.len(), "{label}: Sum messages every destination");
            let some = assert_to_hub_is_interval_wide(&Gated, cells, &mixed, label);
            assert!(some <= all, "{label}");
            partial |= 0 < some && some < all;
            let none = assert_to_hub_is_interval_wide(&Gated, cells, &low, label);
            assert_eq!(none, 0, "{label}: no source passes the gate");
        }
        assert!(partial, "no hub kept some destinations and dropped others");
    }

    #[test]
    fn an_all_messaged_one_cell_hub_borrows_its_destinations() {
        let cells = [cell(1, |d| d % 5 != 2)];
        let sum_vals = vec![0.5; 12];
        let (dsts, _) = to_hub(&Sum, &cells, &sum_vals, 0, 3, 7);
        assert!(matches!(dsts, Cow::Borrowed(_)));
        assert_eq!(&dsts[..], cells[0].dsts());
        let (dsts, accs) = to_hub(&Gated, &cells, &[1.0; 12], 0, 3, 7);
        assert!(dsts.is_empty() && accs.is_empty());
    }

    #[test]
    fn union_chunks_cut_like_chunk_by_edges() {
        let ss = cell(21, |d| d % 7 != 0);
        for ept in [1, 2, 7, 20, usize::MAX] {
            let got = union_chunks(&[&*ss], ept);
            assert_eq!(got, (ss.dsts().to_vec(), ss.chunk_by_edges(ept)), "ept={ept}");
        }
        // Two cells: a destination's runs count together and every chunk
        // but the last reaches the target.
        let (a, b) = (cell(22, |d| d % 2 == 0), cell(23, |d| d % 3 == 0));
        let (union, chunks) = union_chunks(&[&*a, &*b], 9);
        let mut want: Vec<VertexId> = a.dsts().iter().chain(b.dsts()).copied().collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(union, want);
        let run = |ss: &SubShardView, d: VertexId| {
            ss.dsts().binary_search(&d).map_or(0, |p| ss.offsets()[p + 1] - ss.offsets()[p])
        };
        assert_eq!(chunks.first().map(|c| c.start), Some(0));
        assert_eq!(chunks.last().map(|c| c.end), Some(union.len()));
        for (k, c) in chunks.iter().enumerate() {
            let edges: u32 = union[c.clone()].iter().map(|&d| run(&a, d) + run(&b, d)).sum();
            let before_last: u32 =
                union[c.start..c.end - 1].iter().map(|&d| run(&a, d) + run(&b, d)).sum();
            assert!(before_last < 9, "chunk {k} runs past the target");
            if k + 1 < chunks.len() {
                assert!(edges >= 9 && chunks[k + 1].start == c.end, "chunk {k}");
            }
        }
    }
}
