//! Weakly Connected Components.
//!
//! Minimum-label propagation over the *undirected* view of the graph: each
//! vertex starts labelled with its own id and repeatedly adopts the
//! minimum label among itself and its neighbours (both edge directions, so
//! the engine runs with [`Direction::Both`] and the preprocessing must
//! have built reverse sub-shards). At fixpoint every vertex carries the
//! minimum vertex id of its weak component.
//!
//! [`Direction::Both`]: crate::program::Direction::Both

use crate::program::{Direction, VertexProgram};
use crate::types::VertexId;

/// WCC min-label propagation program.
pub struct Wcc;

impl VertexProgram for Wcc {
    type Value = u32;
    type Accum = u32;
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = false;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn zero(&self) -> u32 {
        u32::MAX
    }

    fn absorb(&self, _src: VertexId, src_val: &u32, _dst: VertexId, acc: &mut u32) -> bool {
        if *src_val < *acc {
            *acc = *src_val;
        }
        true
    }

    fn combine(&self, a: &mut u32, b: &u32) {
        *a = (*a).min(*b);
    }

    fn apply(&self, _v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
        (*old).min(*acc)
    }

    fn direction(&self) -> Direction {
        Direction::Both
    }
}

/// Number of distinct components in a label array.
pub fn component_count(labels: &[u32]) -> usize {
    let mut seen: Vec<u32> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Size of the largest component.
pub fn largest_component(labels: &[u32]) -> usize {
    use std::collections::HashMap;
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &l in labels {
        *counts.entry(l).or_default() += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_flows_downhill() {
        let w = Wcc;
        let mut acc = w.zero();
        w.absorb(5, &5, 9, &mut acc);
        w.absorb(2, &2, 9, &mut acc);
        w.absorb(7, &7, 9, &mut acc);
        assert_eq!(acc, 2);
        assert_eq!(w.apply(9, &9, &acc, true), 2);
        assert_eq!(w.apply(9, &1, &acc, true), 1);
    }

    #[test]
    fn helpers() {
        let labels = vec![0, 0, 0, 3, 3, 5];
        assert_eq!(component_count(&labels), 3);
        assert_eq!(largest_component(&labels), 3);
        assert_eq!(component_count(&[]), 0);
        assert_eq!(largest_component(&[]), 0);
    }
}
