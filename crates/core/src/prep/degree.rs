//! Degreeing — the first preprocessing step (§III-A).
//!
//! Raw inputs identify vertices by *indices*: arbitrary, possibly sparse
//! numbers (the real Yahoo-web crawl has far more indices than connected
//! vertices). Degreeing maps every index that actually appears in an edge
//! to a dense, contiguous *id* `0..n`, eliminates isolated indices, and
//! computes the out-degree table. Ids are assigned in ascending index
//! order, preserving whatever locality the input numbering had.
//!
//! Two parallel passes over chunks of the raw edges, for dense and sparse
//! indices alike: **rank** sorts each chunk's endpoints into a run of
//! `(index, out-degree)` and merges the runs pairwise (the `2m` endpoints
//! are never held at once); **relabel** rewrites each chunk into its slice
//! of the pre-shard through a rank directory.

use std::mem::take;

use crate::parallel::{default_threads, run_tasks};
use crate::types::VertexId;

/// Output of the degreeing step: the "pre-shard" plus mapping tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Degreeing {
    /// Number of non-isolated vertices `n`.
    pub num_vertices: u32,
    /// Edges rewritten to dense ids (the paper's *pre-shard*), input order.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Out-degree per id.
    pub out_degrees: Vec<u32>,
    /// Reverse mapping: `index_of[id]` is the original index (the paper's
    /// "reverse-mapping file"). Sorted ascending and exact-size.
    pub index_of: Vec<u64>,
}

impl Degreeing {
    /// Forward lookup: original index → dense id (the "mapping file"
    /// direction). `None` for isolated/unknown indices. O(log n) via
    /// binary search over the sorted reverse mapping.
    pub fn id_of(&self, index: u64) -> Option<VertexId> {
        self.index_of.binary_search(&index).ok().map(|i| i as VertexId)
    }
}

/// Edges per rank task: bounds each task's endpoint buffer (4 MiB) and
/// so the rank pass's transient memory to `threads` such buffers.
const CHUNK_EDGES: usize = 1 << 18;

/// Run degreeing over raw index pairs on the default thread count.
///
/// Panics if the input would exceed the `u32` id space.
pub fn degree(raw_edges: &[(u64, u64)]) -> Degreeing {
    degree_with(raw_edges, default_threads())
}

/// [`degree`] on `threads` threads; the result does not depend on them.
pub(crate) fn degree_with(raw_edges: &[(u64, u64)], threads: usize) -> Degreeing {
    let tasks = threads.max(raw_edges.len().div_ceil(CHUNK_EDGES)).max(1);
    let chunk = raw_edges.len().div_ceil(tasks).max(1);

    // Rank pass: per chunk, the sorted sources (with multiplicity) and the
    // sorted destinations merge into one run of `(index, out-degree)`.
    let mut runs = vec![Vec::new(); raw_edges.len().div_ceil(chunk)];
    let rank_tasks: Vec<_> = raw_edges.chunks(chunk).zip(&mut runs).collect();
    run_tasks(threads, rank_tasks, |(raw, run)| {
        let mut ends: Vec<u64> = raw.iter().map(|e| e.0).chain(raw.iter().map(|e| e.1)).collect();
        let (srcs, dsts) = ends.split_at_mut(raw.len());
        srcs.sort_unstable();
        dsts.sort_unstable();
        *run = merge_counted(srcs.iter().map(|&s| (s, 1)), dsts.iter().map(|&d| (d, 0)));
    });
    while runs.len() > 1 {
        run_tasks(threads, runs.chunks_mut(2).collect(), |pair: &mut [Vec<(u64, u32)>]| {
            if let [a, b] = pair {
                *a = merge_counted(take(a).into_iter(), take(b).into_iter());
            }
        });
        runs = runs.into_iter().step_by(2).collect();
    }
    let (index_of, out_degrees): (Vec<u64>, Vec<u32>) =
        runs.pop().unwrap_or_default().into_iter().unzip();
    assert!(index_of.len() <= u32::MAX as usize, "graph exceeds u32 id space");

    // Relabel pass: each chunk into its own slice of the pre-shard.
    let dir = RankDirectory::new(&index_of);
    let mut edges = vec![(0, 0); raw_edges.len()];
    let relabel_tasks: Vec<_> = raw_edges.chunks(chunk).zip(edges.chunks_mut(chunk)).collect();
    run_tasks(threads, relabel_tasks, |(raw, out)| {
        for (&(s, d), slot) in raw.iter().zip(out) {
            *slot = (dir.rank(&index_of, s), dir.rank(&index_of, d));
        }
    });
    Degreeing { num_vertices: index_of.len() as u32, edges, out_degrees, index_of }
}

/// Merge two runs of `(index, count)` sorted by index into one run with
/// each index once, its counts summed.
fn merge_counted(
    a: impl Iterator<Item = (u64, u32)>,
    b: impl Iterator<Item = (u64, u32)>,
) -> Vec<(u64, u32)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut out: Vec<(u64, u32)> = Vec::new();
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            _ => a.next().or_else(|| b.next()),
        };
        let Some((index, count)) = next else { return out };
        match out.last_mut() {
            Some(last) if last.0 == index => last.1 += count,
            _ => out.push((index, count)),
        }
    }
}

/// Index → rank over the sorted unique indices: the indices are bucketed
/// by the high bits of their offset from the smallest one, about two
/// buckets per index, so one lookup is one directory read plus a search
/// inside a bucket of a few entries — for dense and sparse indices alike.
struct RankDirectory {
    min: u64,
    shift: u32,
    /// `starts[b]` is the rank of the first index in bucket `b` or later.
    starts: Vec<u32>,
}

impl RankDirectory {
    fn new(sorted: &[u64]) -> Self {
        let (min, max) = (sorted.first().map_or(0, |&x| x), sorted.last().map_or(0, |&x| x));
        let want_bits = (2 * sorted.len()).next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - (max - min).leading_zeros()).saturating_sub(want_bits);
        let mut starts = vec![0u32; ((max - min) >> shift) as usize + 2];
        for &x in sorted {
            starts[((x - min) >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        Self { min, shift, starts }
    }

    /// The rank of `index`, which must be one of `sorted`: a bucket of one
    /// index is that index, so a dense lookup reads the directory alone.
    fn rank(&self, sorted: &[u64], index: u64) -> VertexId {
        let b = ((index - self.min) >> self.shift) as usize;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let rank = match hi - lo {
            1 => lo,
            _ => lo + sorted[lo..hi].partition_point(|&x| x < index),
        };
        debug_assert_eq!(sorted.get(rank), Some(&index), "endpoint index must be present");
        rank as VertexId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compacts_sparse_indices() {
        // Indices 100, 5000, 77 — with everything between isolated.
        let raw = vec![(100u64, 5000u64), (77, 100), (5000, 77)];
        let d = degree(&raw);
        assert_eq!(d.num_vertices, 3);
        assert_eq!(d.index_of, vec![77, 100, 5000]);
        // id order follows index order: 77→0, 100→1, 5000→2.
        assert_eq!(d.edges, vec![(1, 2), (0, 1), (2, 0)]);
        assert_eq!(d.out_degrees, vec![1, 1, 1]);
    }

    #[test]
    fn mapping_is_a_bijection() {
        let raw: Vec<(u64, u64)> = (0..100).map(|k| (k * 13 % 61, k * 7 % 61)).collect();
        let d = degree(&raw);
        for (id, &index) in d.index_of.iter().enumerate() {
            assert_eq!(d.id_of(index), Some(id as VertexId));
        }
        assert_eq!(d.id_of(999_999), None);
    }

    #[test]
    fn degrees_sum_to_edge_count() {
        let raw: Vec<(u64, u64)> = (0..500).map(|k| (k % 17, (k * 3) % 23)).collect();
        let d = degree(&raw);
        assert_eq!(d.out_degrees.iter().sum::<u32>() as usize, raw.len());
    }

    #[test]
    fn duplicate_edges_kept() {
        let raw = vec![(1u64, 2u64), (1, 2), (1, 2)];
        let d = degree(&raw);
        assert_eq!(d.edges.len(), 3);
        assert_eq!(d.out_degrees[0], 3);
    }

    #[test]
    fn self_loops_counted_both_ways() {
        let d = degree(&[(4u64, 4u64)]);
        assert_eq!(d.num_vertices, 1);
        assert_eq!(d.out_degrees, vec![1]);
        assert_eq!(d.edges, vec![(0, 0)]);
    }

    #[test]
    fn empty_input() {
        let d = degree(&[]);
        assert_eq!(d.num_vertices, 0);
        assert!(d.edges.is_empty());
    }
}
