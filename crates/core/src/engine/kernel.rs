//! The per-sub-shard update kernel and its parallel task machinery
//! (§III-D: fine-grained parallelism in each Destination-Sorted Sub-Shard).
//!
//! Within a sub-shard, edges of one destination are contiguous, so slicing
//! the destination axis hands each worker an exclusive accumulator range —
//! "no thread locks or atomic operations are required to maintain
//! consistency". [`absorb`] is the one way the engine computes: it carves
//! those slices for a batch of (sub-shard, accumulator) pairs and runs
//! them on the worker pool. The paper's interval-lock flavour (§IV
//! preamble) is this path with one chunk per whole sub-shard
//! (`edges_per_task = usize::MAX`), so it is not a separate mode.

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
/// per destination interval; a hub or column call passes one pair. The
/// pairs hold distinct `&mut` accumulators and every task owns a disjoint
/// slice of one of them, so no locks are taken. Per destination the fold
/// order is the sub-shard's own source order, so the result is
/// bitwise-equal to a serial [`absorb_chunk`] over each whole sub-shard at
/// any thread count and task size. Hub targets never conflict either ("DPU
/// can overlap the four sub-shards … since their write destinations, i.e.
/// their hubs, do not overlap", §III-B2).
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

#[cfg(test)]
mod tests {
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
}
