//! k-core decomposition membership.
//!
//! The *k-core* of a graph is the maximal subgraph in which every vertex
//! has (undirected) degree ≥ k. Computed by iterated peeling: every
//! iteration recounts each vertex's surviving neighbours over both edge
//! directions and kills vertices that fall below `k`; a fixpoint is the
//! k-core. Peeling is monotone (vertices only ever die), so the synchronous
//! engine converges in at most `n` iterations and usually far fewer.
//!
//! Expects an *undirected ingestion* (each edge present in both
//! directions, the paper's §II-A convention), and traverses forward
//! sub-shards only so each neighbour is counted exactly once.

use crate::dsss::PreparedGraph;
use crate::engine::{self, EngineConfig, RunStats};
use crate::error::EngineResult;
use crate::program::VertexProgram;
use crate::types::VertexId;

/// Value: 1 while the vertex survives, 0 once peeled.
pub struct KCore {
    k: u32,
}

impl KCore {
    /// Membership program for the `k`-core.
    pub fn new(k: u32) -> Self {
        Self { k }
    }
}

impl VertexProgram for KCore {
    type Value = u32;
    type Accum = u32;
    // Recount every iteration; needs the old alive flag to peel.
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = true;

    fn init(&self, _v: VertexId) -> u32 {
        1
    }

    fn zero(&self) -> u32 {
        0
    }

    fn source_active(&self, _src: VertexId, val: &u32) -> bool {
        *val == 1
    }

    fn absorb(&self, _src: VertexId, _src_val: &u32, _dst: VertexId, acc: &mut u32) -> bool {
        *acc += 1;
        true
    }

    fn combine(&self, a: &mut u32, b: &u32) {
        *a += *b;
    }

    fn apply(&self, _v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
        // acc = number of surviving neighbours (each undirected edge was
        // ingested in both directions, so Both-direction absorb counts each
        // neighbour once per original undirected edge).
        if *old == 1 && *acc >= self.k {
            1
        } else {
            0
        }
    }
}

/// Compute k-core membership flags (1 = in the k-core).
pub fn kcore(g: &PreparedGraph, k: u32, cfg: &EngineConfig) -> EngineResult<(Vec<u32>, RunStats)> {
    let prog = KCore::new(k);
    let mut cfg = cfg.clone();
    cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
    engine::run(g, &prog, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};
    use std::sync::Arc;

    /// Undirected edge helper: emits both directions.
    fn undirected(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            out.push((a, b));
            out.push((b, a));
        }
        out
    }

    fn run(pairs: &[(u64, u64)], k: u32) -> Vec<u32> {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(&undirected(pairs), &PrepConfig::new("kcore", 3), disk).unwrap();
        kcore(&g, k, &EngineConfig::default()).unwrap().0
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 plus tail 2-3: 2-core = the triangle.
        let flags = run(&[(0, 1), (1, 2), (2, 0), (2, 3)], 2);
        assert_eq!(flags, vec![1, 1, 1, 0]);
    }

    #[test]
    fn chain_peels_completely() {
        // A path has no 2-core: peeling cascades from both ends.
        let flags = run(&[(0, 1), (1, 2), (2, 3), (3, 4)], 2);
        assert_eq!(flags, vec![0; 5]);
    }

    #[test]
    fn clique_survives_high_k() {
        // K5: every vertex has degree 4 → 4-core is everything, 5-core
        // nothing.
        let mut pairs = Vec::new();
        for a in 0..5u64 {
            for b in a + 1..5 {
                pairs.push((a, b));
            }
        }
        assert_eq!(run(&pairs, 4), vec![1; 5]);
        assert_eq!(run(&pairs, 5), vec![0; 5]);
    }

    #[test]
    fn one_core_keeps_everything_connected() {
        let flags = run(&[(0, 1), (1, 2)], 1);
        assert_eq!(flags, vec![1, 1, 1]);
    }

    #[test]
    fn matches_reference_peeling_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 40u64;
        let mut pairs = Vec::new();
        for _ in 0..120 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                // Canonicalise so (a,b) and (b,a) dedup to one undirected
                // edge; otherwise the engine would count a neighbour twice
                // while the HashSet reference counts it once.
                pairs.push((a.min(b), a.max(b)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let k = 3;
        let flags = run(&pairs, k);

        // Reference: classic peeling on the undirected simple graph.
        let mut idx: Vec<u64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        idx.sort_unstable();
        idx.dedup();
        let nn = idx.len();
        let mut adj = vec![std::collections::HashSet::new(); nn];
        for &(a, b) in &pairs {
            let ai = idx.binary_search(&a).unwrap();
            let bi = idx.binary_search(&b).unwrap();
            adj[ai].insert(bi);
            adj[bi].insert(ai);
        }
        let mut alive = vec![true; nn];
        loop {
            let mut changed = false;
            for v in 0..nn {
                if alive[v] {
                    let deg = adj[v].iter().filter(|&&u| alive[u]).count();
                    if (deg as u32) < k {
                        alive[v] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // NOTE: the engine counts multiplicity; the random graph was
        // dedup'd to a simple graph so counts agree.
        let expect: Vec<u32> = alive.iter().map(|&a| u32::from(a)).collect();
        assert_eq!(flags, expect);
    }
}
