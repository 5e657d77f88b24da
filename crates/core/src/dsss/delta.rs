//! Delta-chain merging — the read side of the streaming-update log.
//!
//! A dynamically updated cell is stored as one *base* sub-shard blob plus
//! an append-only chain of *delta* blobs, each a destination-sorted
//! sub-shard of the edges one batch added (see
//! [`DynamicGraph`](crate::dynamic::DynamicGraph)). Every part individually
//! satisfies the DSSS invariants, so the union is recovered by a k-way
//! merge in `(dst, src)` order — no re-sort, one pass over the parts.
//!
//! [`merge_edges`] is that lazy merge-iterator; [`MergedSubShardView`]
//! drives it once through the sub-shard's one CSR builder (the same
//! append loop [`SubShardView::from_edges`] runs after its sort) into a
//! words-backed [`SubShardView`]. That view is what the loaders hand to
//! the engines — SPU/DPU/MPU, the read pipeline and the plan cache consume
//! the merged cell through the exact same API as a bare base blob, and
//! never learn that a chain existed — and what the fold encodes as the
//! cell's next base.

use crate::types::VertexId;

use super::SubShardView;

/// Cursor over one part of a chain: the part's CSR columns, resolved once
/// so the merge indexes plain slices, plus the current destination slot
/// and the absolute index of the next source within it.
struct PartCursor<'a> {
    dsts: &'a [VertexId],
    offsets: &'a [u32],
    srcs: &'a [VertexId],
    /// Destination slot (`0..dsts.len()`).
    pos: usize,
    /// Absolute index into `srcs` (always within slot `pos`'s range while
    /// the cursor is live).
    idx: usize,
}

impl<'a> PartCursor<'a> {
    fn new(part: &'a SubShardView) -> Self {
        Self {
            dsts: part.dsts(),
            offsets: part.offsets(),
            srcs: part.srcs(),
            pos: 0,
            idx: 0,
        }
    }

    /// The `(dst, src)` key at the cursor, `None` when exhausted.
    #[inline]
    fn peek(&self) -> Option<(VertexId, VertexId)> {
        if self.pos >= self.dsts.len() {
            return None;
        }
        Some((self.dsts[self.pos], self.srcs[self.idx]))
    }

    /// Advance past the current edge.
    #[inline]
    fn bump(&mut self) {
        self.idx += 1;
        while self.pos < self.dsts.len() && self.idx >= self.offsets[self.pos + 1] as usize {
            self.pos += 1;
        }
    }
}

/// Lazy k-way merge over destination-sorted chain parts, yielding
/// `(src, dst)` pairs in global `(dst, src)` order — the same order
/// [`SubShardView::iter_edges`] walks a single shard. Duplicate edges are
/// preserved (raw crawls contain them and PageRank counts them).
///
/// Cost is `O(parts)` per edge with no allocation; chains are short by
/// construction (compaction folds them), so this beats heap bookkeeping.
pub fn merge_edges<'a>(
    parts: &'a [SubShardView],
) -> impl Iterator<Item = (VertexId, VertexId)> + 'a {
    let mut cursors: Vec<PartCursor<'a>> = parts.iter().map(PartCursor::new).collect();
    std::iter::from_fn(move || {
        let mut best: Option<(usize, (VertexId, VertexId))> = None;
        for (k, c) in cursors.iter().enumerate() {
            if let Some(key) = c.peek() {
                if best.map(|(_, b)| key < b).unwrap_or(true) {
                    best = Some((k, key));
                }
            }
        }
        let (k, (dst, src)) = best?;
        cursors[k].bump();
        Some((src, dst))
    })
}

/// Distinct destinations across `parts`: a k-way merge of their `dsts`
/// columns alone, which sizes the merged CSR before the edge merge fills
/// it.
fn distinct_dsts(parts: &[SubShardView]) -> usize {
    let mut heads: Vec<&[VertexId]> = parts.iter().map(SubShardView::dsts).collect();
    let mut count = 0;
    while let Some(d) = heads.iter().filter_map(|h| h.first()).min().copied() {
        for h in &mut heads {
            if h.first() == Some(&d) {
                *h = &h[1..];
            }
        }
        count += 1;
    }
    count
}

/// The merged read-side view over a base sub-shard and its delta chain.
///
/// Constructed by the loaders when a cell's manifest chain is non-empty,
/// and by the fold: one pass of [`merge_edges`] feeds the CSR builder
/// (the edges arrive in `(dst, src)` order, so no re-sort), and
/// [`MergedSubShardView::into_view`] hands the result on as an ordinary
/// words-backed [`SubShardView`].
pub struct MergedSubShardView {
    view: SubShardView,
}

impl MergedSubShardView {
    /// Merge `parts[0]` (the base) with its deltas. All parts must belong
    /// to the same cell; interval tags are taken from the base.
    pub fn merge(parts: &[SubShardView]) -> Self {
        assert!(!parts.is_empty(), "a chain always has a base part");
        debug_assert!(parts
            .iter()
            .all(|p| p.src_interval() == parts[0].src_interval()
                && p.dst_interval() == parts[0].dst_interval()));
        let view = SubShardView::build(
            parts[0].src_interval(),
            parts[0].dst_interval(),
            distinct_dsts(parts),
            parts.iter().map(SubShardView::num_edges).sum(),
            merge_edges(parts),
        );
        Self { view }
    }

    /// The merged engine-facing view.
    pub fn into_view(self) -> SubShardView {
        self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(edges: Vec<(VertexId, VertexId)>) -> SubShardView {
        SubShardView::from_edges(0, 0, edges)
    }

    #[test]
    fn merge_equals_from_edges_of_the_concat() {
        let base = vec![(5, 3), (4, 3), (5, 2), (9, 2)];
        let d1 = vec![(1, 3), (7, 2), (2, 8)];
        let d2 = vec![(4, 3), (0, 0)]; // duplicate edge (4,3) must survive
        let parts = [view(base.clone()), view(d1.clone()), view(d2.clone())];
        let got = MergedSubShardView::merge(&parts).into_view();
        let mut all = base;
        all.extend(d1);
        all.extend(d2);
        let want = view(all);
        assert_eq!(got, want);
        // The lazy iterator walks the same order as the merged view.
        assert_eq!(
            merge_edges(&parts).collect::<Vec<_>>(),
            want.iter_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn merged_parts_equal_the_sorted_concat() {
        let a = SubShardView::from_edges(1, 2, vec![(9, 8), (3, 8), (3, 7)]);
        let b = SubShardView::from_edges(1, 2, vec![(3, 8), (1, 6), (2, 9)]);
        let c = SubShardView::from_edges(1, 2, vec![]);
        let mut all: Vec<_> = a.iter_edges().collect();
        all.extend(b.iter_edges());
        let merged = MergedSubShardView::merge(&[a, b, c]).into_view();
        assert_eq!(merged, SubShardView::from_edges(1, 2, all));
        merged.validate("merged").unwrap();
    }

    #[test]
    fn merging_the_base_alone_is_the_identity() {
        let base = view(vec![(3, 1), (2, 1), (9, 4)]);
        let merged = MergedSubShardView::merge(std::slice::from_ref(&base)).into_view();
        assert_eq!(merged, base);
    }

    #[test]
    fn empty_parts_merge_cleanly() {
        let parts = [view(vec![]), view(vec![(1, 2)]), view(vec![])];
        let merged = MergedSubShardView::merge(&parts).into_view();
        assert_eq!(merged, view(vec![(1, 2)]));
        let all_empty = [view(vec![]), view(vec![])];
        let merged = MergedSubShardView::merge(&all_empty).into_view();
        assert!(merged.is_empty());
        assert_eq!(merged.offsets(), &[0]);
    }
}
