//! Single-Source Shortest Paths over weighted edges.
//!
//! The DSSS format stores topology only; weights are supplied as a
//! deterministic function of the edge's endpoints (`absorb` sees both, a
//! deliberate property of the kernel API). This covers the common
//! synthetic-benchmark setups — hash-derived weights, or geometric
//! distances for meshes — without widening every sub-shard file. The
//! computation itself is Bellman-Ford-style relaxation: monotone
//! min-propagation, so the engine's frontier sends only from the vertices
//! whose distance fell last iteration and prunes converged regions exactly
//! like BFS. As in BFS, the "reached" `source_active` filter is kept for
//! the baselines, which keep no frontier.

use std::sync::Arc;

use crate::program::VertexProgram;
use crate::types::VertexId;

/// Distance value for unreached vertices.
pub const UNREACHED: f64 = f64::INFINITY;

/// Edge-weight oracle: deterministic, non-negative weight per `(src, dst)`.
pub type WeightFn = Arc<dyn Fn(VertexId, VertexId) -> f64 + Send + Sync>;

/// A weight function derived from hashing the endpoints into `[lo, hi)`.
/// Deterministic across runs and engines.
pub fn hash_weights(lo: f64, hi: f64) -> WeightFn {
    assert!(lo >= 0.0 && hi > lo, "weights must be non-negative");
    Arc::new(move |s, d| {
        // SplitMix64-style scramble of the edge key.
        let mut x = ((s as u64) << 32 | d as u64).wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    })
}

/// Unit weights: SSSP degenerates to BFS (used to cross-check both).
pub fn unit_weights() -> WeightFn {
    Arc::new(|_, _| 1.0)
}

/// SSSP program rooted at a vertex.
pub struct Sssp {
    root: VertexId,
    weight: WeightFn,
}

impl Sssp {
    /// SSSP from `root` with the given weight oracle.
    pub fn new(root: VertexId, weight: WeightFn) -> Self {
        Self { root, weight }
    }
}

impl VertexProgram for Sssp {
    type Value = f64;
    type Accum = f64;
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = false;

    fn init(&self, v: VertexId) -> f64 {
        if v == self.root {
            0.0
        } else {
            UNREACHED
        }
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.root
    }

    fn zero(&self) -> f64 {
        UNREACHED
    }

    fn source_active(&self, _src: VertexId, val: &f64) -> bool {
        val.is_finite()
    }

    fn absorb(&self, src: VertexId, src_val: &f64, dst: VertexId, acc: &mut f64) -> bool {
        let cand = src_val + (self.weight)(src, dst);
        if cand < *acc {
            *acc = cand;
        }
        true
    }

    fn combine(&self, a: &mut f64, b: &f64) {
        if *b < *a {
            *a = *b;
        }
    }

    fn apply(&self, _v: VertexId, old: &f64, acc: &f64, _got: bool) -> f64 {
        old.min(*acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn run_sssp(raw: &[(u64, u64)], root: u32, w: WeightFn) -> Vec<f64> {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(raw, &PrepConfig::forward_only("sssp", 3), disk).unwrap();
        let prog = Sssp::new(root, w);
        let cfg = EngineConfig {
            max_iterations: g.num_vertices() as usize + 1,
            ..EngineConfig::default()
        };
        crate::engine::run(&g, &prog, &cfg).unwrap().0
    }

    #[test]
    fn unit_weights_match_bfs() {
        let raw: Vec<(u64, u64)> = crate::fig1_example_edges()
            .iter()
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        let dist = run_sssp(&raw, 0, unit_weights());
        let depths = crate::reference::bfs(7, &crate::fig1_example_edges(), 0);
        for (v, (&d, &b)) in dist.iter().zip(&depths).enumerate() {
            if b == u32::MAX {
                assert!(d.is_infinite(), "vertex {v}");
            } else {
                assert!((d - b as f64).abs() < 1e-12, "vertex {v}: {d} vs {b}");
            }
        }
    }

    #[test]
    fn shortcut_beats_long_path() {
        // 0→1→2 with heavy edges, plus a light direct 0→2.
        let raw = vec![(0u64, 1u64), (1, 2), (0, 2)];
        let w: WeightFn = Arc::new(|s, d| match (s, d) {
            (0, 1) => 10.0,
            (1, 2) => 10.0,
            (0, 2) => 3.0,
            _ => unreachable!(),
        });
        let dist = run_sssp(&raw, 0, w);
        assert_eq!(dist, vec![0.0, 10.0, 3.0]);
    }

    #[test]
    fn relaxation_finds_multi_hop_improvement() {
        // Direct edge heavy, two-hop light: needs ≥2 relaxation rounds.
        let raw = vec![(0u64, 2u64), (0, 1), (1, 2)];
        let w: WeightFn = Arc::new(|s, d| match (s, d) {
            (0, 2) => 9.0,
            (0, 1) => 1.0,
            (1, 2) => 1.0,
            _ => unreachable!(),
        });
        let dist = run_sssp(&raw, 0, w);
        assert_eq!(dist, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn hash_weights_are_deterministic_and_bounded() {
        let w = hash_weights(1.0, 5.0);
        for (s, d) in [(0u32, 1u32), (7, 9), (1000, 3)] {
            let a = w(s, d);
            assert_eq!(a, w(s, d));
            assert!((1.0..5.0).contains(&a));
        }
        // Asymmetric: (s,d) and (d,s) weights generally differ.
        assert_ne!(w(0, 1), w(1, 0));
    }

    #[test]
    fn matches_dijkstra_oracle_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 60u64;
        let raw: Vec<(u64, u64)> = (0..400)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let w = hash_weights(0.5, 2.0);
        let dist = run_sssp(&raw, 0, Arc::clone(&w));

        // Dense-id mapping (ids ascend with indices).
        let mut idx: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
        idx.sort_unstable();
        idx.dedup();
        let nn = idx.len();
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nn];
        for &(s, d) in &raw {
            let si = idx.binary_search(&s).unwrap();
            let di = idx.binary_search(&d).unwrap();
            adj[si].push((di, w(si as u32, di as u32)));
        }
        // Dijkstra.
        let mut best = vec![f64::INFINITY; nn];
        best[0] = 0.0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push((std::cmp::Reverse(ordered_float(0.0)), 0usize));
        while let Some((std::cmp::Reverse(d0), u)) = heap.pop() {
            let d0 = d0.0;
            if d0 > best[u] {
                continue;
            }
            for &(v, w) in &adj[u] {
                let nd = d0 + w;
                if nd < best[v] {
                    best[v] = nd;
                    heap.push((std::cmp::Reverse(ordered_float(nd)), v));
                }
            }
        }
        for (v, (a, b)) in dist.iter().zip(&best).enumerate() {
            if b.is_infinite() {
                assert!(a.is_infinite(), "vertex {v}");
            } else {
                assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
            }
        }
    }

    /// Total-ordered f64 wrapper for the Dijkstra heap.
    fn ordered_float(v: f64) -> OrdF64 {
        OrdF64(v)
    }

    #[derive(PartialEq, PartialOrd)]
    struct OrdF64(f64);
    impl Eq for OrdF64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}
