//! The vertex-program abstraction (Algorithm 1 of the paper).
//!
//! An iteration performs, for every sub-shard `SS(i→j)`,
//! `Ij = Update(Ij, Ii, SS(i→j))`: attributes of the *source* interval and
//! the edges of the sub-shard produce new attributes for the *destination*
//! interval. We decompose `Update` into three pieces so the same program
//! runs unmodified under SPU, DPU and MPU:
//!
//! * [`VertexProgram::absorb`] — folds one edge `(src → dst)` into the
//!   destination's accumulator. Runs inside a sub-shard where both
//!   endpoints are known, which is what lets programs filter per-edge
//!   (e.g. the SCC backward phase only accepts same-colour edges).
//! * [`VertexProgram::combine`] — merges two accumulators. DPU stores
//!   per-sub-shard accumulators in *hubs* and merges them in the FromHub
//!   phase; `absorb` followed by `combine` must be associative and
//!   commutative across edges for the strategies to agree.
//! * [`VertexProgram::apply`] — finalises a destination vertex once all
//!   sub-shards of its column have been folded.
//!
//! Activity (§II-B): an interval is *inactive* when no vertex in it changed
//! during an iteration; sub-shards whose source interval is inactive are
//! skipped — but only for programs whose `apply` folds the old value
//! ([`VertexProgram::APPLY_NEEDS_OLD`], i.e. monotone programs like BFS),
//! where a skipped message is recoverable from the old attribute. Global
//! recompute programs (PageRank) keep every interval active and terminate
//! on a fixed iteration count or global convergence.

use crate::types::{Attr, VertexId};

/// A synchronous vertex computation runnable by every NXgraph engine.
pub trait VertexProgram: Send + Sync {
    /// Per-vertex attribute stored in intervals (`Ba` bytes each).
    type Value: Attr;

    /// Incremental value accumulated per destination and stored in DPU
    /// hubs ("the attributes stored in a hub are incremental values",
    /// §III-B2).
    type Accum: Attr;

    /// Whether `apply` reads the previous value. When `false` (PageRank),
    /// DPU's FromHub phase skips re-reading interval files, matching the
    /// paper's Table II byte counts. When `true`, an on-disk interval's
    /// old values come from its file, so the engine writes the finalised
    /// interval back only if its bits changed.
    const APPLY_NEEDS_OLD: bool;

    /// Whether `apply` must run for every vertex each iteration even
    /// without incoming messages (global recompute programs). When `false`
    /// (BFS/WCC/SCC), vertices without messages keep their value, so for a
    /// program that also has [`APPLY_NEEDS_OLD`](Self::APPLY_NEEDS_OLD) the
    /// engine skips the read, apply and write-back of an on-disk column
    /// that no message reached.
    const ALWAYS_APPLY: bool;

    /// Initial attribute of vertex `v` (the paper's `Initialize`).
    fn init(&self, v: VertexId) -> Self::Value;

    /// Whether vertex `v` starts active (BFS: only the root).
    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    /// The identity accumulator.
    fn zero(&self) -> Self::Accum;

    /// Fold the edge `src → dst` into `acc`. Returns `true` if a message
    /// was contributed (drives the has-message tracking that gates
    /// `apply` for non-[`ALWAYS_APPLY`](Self::ALWAYS_APPLY) programs).
    fn absorb(
        &self,
        src: VertexId,
        src_val: &Self::Value,
        dst: VertexId,
        acc: &mut Self::Accum,
    ) -> bool;

    /// Merge accumulator `b` into `a` (hub merging). Must satisfy
    /// `absorb(e₁); absorb(e₂) ≡ combine(absorb(e₁), absorb(e₂))` for the
    /// three strategies to produce identical results.
    fn combine(&self, a: &mut Self::Accum, b: &Self::Accum);

    /// Cheap per-source filter: when `false`, the kernel skips all of
    /// `src`'s edges without calling `absorb` (e.g. unreached BFS
    /// vertices).
    fn source_active(&self, _src: VertexId, _val: &Self::Value) -> bool {
        true
    }

    /// Fold a whole destination's source run into `acc`, returning whether
    /// any edge contributed a message.
    ///
    /// Destination-sorted sub-shards guarantee `srcs` is the contiguous,
    /// source-sorted run of one destination, so this is the kernel's inner
    /// loop: the flat-edge hot path calls it once per destination instead
    /// of once per edge. `src_vals[s - src_base]` is source `s`'s
    /// previous-iteration attribute.
    ///
    /// The default is the scalar per-edge walk and is always correct.
    /// Programs with cheap, reassociable accumulators (PageRank, HITS,
    /// PPR) override it with a 4-way unrolled loop that accumulates into
    /// independent lanes and folds them through [`combine`](Self::combine);
    /// any override must agree with the default up to accumulator
    /// reassociation.
    fn absorb_run(
        &self,
        dst: VertexId,
        srcs: &[VertexId],
        src_vals: &[Self::Value],
        src_base: VertexId,
        acc: &mut Self::Accum,
    ) -> bool {
        let mut any = false;
        for &s in srcs {
            let sv = &src_vals[(s - src_base) as usize];
            if self.source_active(s, sv) && self.absorb(s, sv, dst, acc) {
                any = true;
            }
        }
        any
    }

    /// Finalise vertex `v` after all columns folded. `got_messages` tells
    /// whether any `absorb` contributed this iteration.
    fn apply(
        &self,
        v: VertexId,
        old: &Self::Value,
        acc: &Self::Accum,
        got_messages: bool,
    ) -> Self::Value;

    /// Whether the transition `old → new` counts as a change for activity
    /// tracking and convergence. Defaults to inequality; numeric programs
    /// override with an epsilon.
    fn changed(&self, old: &Self::Value, new: &Self::Value) -> bool {
        old != new
    }
}

/// Direction in which a program consumes edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Use the forward sub-shards (updates flow src → dst).
    Forward,
    /// Use the reverse (transposed) sub-shards.
    Reverse,
    /// Use both per iteration (undirected semantics, e.g. WCC).
    Both,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial "count incoming edges" program exercising the trait
    /// surface (and serving as documentation of the contract).
    struct CountIncoming;

    impl VertexProgram for CountIncoming {
        type Value = u32;
        type Accum = u32;
        const APPLY_NEEDS_OLD: bool = false;
        const ALWAYS_APPLY: bool = true;

        fn init(&self, _v: VertexId) -> u32 {
            0
        }

        fn zero(&self) -> u32 {
            0
        }

        fn absorb(&self, _s: VertexId, _sv: &u32, _d: VertexId, acc: &mut u32) -> bool {
            *acc += 1;
            true
        }

        fn combine(&self, a: &mut u32, b: &u32) {
            *a += b;
        }

        fn apply(&self, _v: VertexId, _old: &u32, acc: &u32, _got: bool) -> u32 {
            *acc
        }
    }

    #[test]
    fn absorb_combine_associativity() {
        let p = CountIncoming;
        // absorb twice into one accumulator…
        let mut a = p.zero();
        p.absorb(0, &0, 9, &mut a);
        p.absorb(1, &0, 9, &mut a);
        // …must equal absorbing into two and combining.
        let mut b1 = p.zero();
        let mut b2 = p.zero();
        p.absorb(0, &0, 9, &mut b1);
        p.absorb(1, &0, 9, &mut b2);
        p.combine(&mut b1, &b2);
        assert_eq!(a, b1);
    }

    #[test]
    fn default_changed_is_inequality() {
        let p = CountIncoming;
        assert!(p.changed(&1, &2));
        assert!(!p.changed(&2, &2));
    }

    #[test]
    fn defaults() {
        let p = CountIncoming;
        assert!(p.initially_active(0));
        assert!(p.source_active(0, &0));
    }
}
