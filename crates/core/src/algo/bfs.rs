//! Breadth-First Search — Algorithms 2–4 of the paper.
//!
//! Depths start at `∞` (`u32::MAX`) except the root at 0; each iteration
//! propagates `depth + 1` along out-edges and keeps the minimum. Only the
//! root starts active, and the engine's frontier (§II-B's activity, kept
//! per vertex) expands it exactly as the paper describes: "update the
//! destination vertex attribute with the minimum depth propagated from all
//! its source vertices until no vertex can be updated." A vertex changes
//! once, when it is reached, so each reached vertex sends along its
//! out-edges exactly once, in the next iteration. The "reached"
//! `source_active` filter is redundant under the frontier; the baselines,
//! which keep no frontier, rely on it.

use crate::program::VertexProgram;
use crate::types::VertexId;

/// Depth value representing "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// BFS program rooted at a given vertex.
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// BFS from `root`.
    pub fn new(root: VertexId) -> Self {
        Self { root }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl VertexProgram for Bfs {
    type Value = u32;
    type Accum = u32;
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = false;

    fn init(&self, v: VertexId) -> u32 {
        if v == self.root {
            0
        } else {
            UNREACHED
        }
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.root
    }

    fn zero(&self) -> u32 {
        UNREACHED
    }

    fn source_active(&self, _src: VertexId, val: &u32) -> bool {
        *val != UNREACHED
    }

    fn absorb(&self, _src: VertexId, src_val: &u32, _dst: VertexId, acc: &mut u32) -> bool {
        let cand = src_val.saturating_add(1);
        if cand < *acc {
            *acc = cand;
        }
        true
    }

    fn combine(&self, a: &mut u32, b: &u32) {
        *a = (*a).min(*b);
    }

    fn apply(&self, _v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
        (*old).min(*acc)
    }
}

/// The paper's BFS `Output`: the maximum finite depth (depth of the BFS
/// spanning tree). `None` when only the root is reachable… the root itself
/// always yields `Some(0)`.
pub fn max_depth(depths: &[u32]) -> Option<u32> {
    depths.iter().copied().filter(|&d| d != UNREACHED).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_marks_only_root() {
        let b = Bfs::new(3);
        assert_eq!(b.init(3), 0);
        assert_eq!(b.init(0), UNREACHED);
        assert!(b.initially_active(3));
        assert!(!b.initially_active(2));
    }

    #[test]
    fn absorb_takes_minimum() {
        let b = Bfs::new(0);
        let mut acc = b.zero();
        b.absorb(1, &5, 9, &mut acc);
        assert_eq!(acc, 6);
        b.absorb(2, &2, 9, &mut acc);
        assert_eq!(acc, 3);
        b.absorb(3, &9, 9, &mut acc);
        assert_eq!(acc, 3);
    }

    #[test]
    fn unreached_source_never_underflows() {
        let b = Bfs::new(0);
        let mut acc = b.zero();
        // source_active filters these in the engine, but absorb must still
        // be safe: MAX + 1 saturates and never beats a real depth.
        b.absorb(1, &UNREACHED, 2, &mut acc);
        assert_eq!(acc, UNREACHED);
    }

    #[test]
    fn apply_is_monotone() {
        let b = Bfs::new(0);
        assert_eq!(b.apply(1, &4, &7, true), 4);
        assert_eq!(b.apply(1, &7, &4, true), 4);
    }

    #[test]
    fn max_depth_ignores_unreached() {
        assert_eq!(max_depth(&[0, 2, UNREACHED, 1]), Some(2));
        assert_eq!(max_depth(&[UNREACHED]), None);
    }
}
