//! Synthetic graph generators and edge-list I/O for NXgraph.
//!
//! The NXgraph paper evaluates on three real-world graphs (LiveJournal,
//! Twitter, Yahoo-web) and five synthetic `delaunay_n*` meshes. The real
//! graphs are not redistributable, so this crate generates synthetic
//! stand-ins whose *structural* properties — power-law degree skew, edge/
//! vertex ratio, sparse index spaces with isolated vertices, constant-degree
//! planar-like meshes — match what the paper's experiments actually exercise
//! (the substitution rationale is in the module docs of `nxgraph-bench`'s
//! `exps`, `crates/bench/src/exps/mod.rs`, "Dataset substitution").
//!
//! * [`rmat`] — R-MAT recursive-matrix generator (power-law, web/social-like).
//! * [`er`] — Erdős–Rényi uniform random graphs (test workloads).
//! * [`mesh`] — grid-triangulation meshes (the `delaunay_n*` stand-in).
//! * [`ba`] — Barabási–Albert preferential attachment.
//! * [`datasets`] — presets mirroring the paper's Table III at reduced scale.
//! * [`io`] — text and binary edge-list reading/writing.

pub mod ba;
pub mod datasets;
pub mod er;
pub mod io;
pub mod mesh;
pub mod rmat;

/// A raw directed edge between *indices* (the sparse, possibly
/// non-contiguous identifiers of the input format; degreeing maps these to
/// dense ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawEdge {
    /// Source vertex index.
    pub src: u64,
    /// Destination vertex index.
    pub dst: u64,
}

impl RawEdge {
    /// Construct an edge.
    pub fn new(src: u64, dst: u64) -> Self {
        Self { src, dst }
    }
}

/// Statistics over a generated edge list; used by tests to check that
/// generators produce the intended structure.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeListStats {
    /// Number of edges (including duplicates, excluding nothing).
    pub num_edges: usize,
    /// Number of distinct vertices that appear as an endpoint.
    pub num_touched_vertices: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Mean out-degree over touched vertices.
    pub mean_degree: f64,
    /// Number of self-loops.
    pub self_loops: usize,
}

/// Compute [`EdgeListStats`] for an edge list.
pub fn stats(edges: &[RawEdge]) -> EdgeListStats {
    use std::collections::{HashMap, HashSet};
    let mut out_deg: HashMap<u64, usize> = HashMap::new();
    let mut touched: HashSet<u64> = HashSet::new();
    let mut self_loops = 0;
    for e in edges {
        *out_deg.entry(e.src).or_default() += 1;
        touched.insert(e.src);
        touched.insert(e.dst);
        if e.src == e.dst {
            self_loops += 1;
        }
    }
    let max_out_degree = out_deg.values().copied().max().unwrap_or(0);
    let num_touched = touched.len();
    EdgeListStats {
        num_edges: edges.len(),
        num_touched_vertices: num_touched,
        max_out_degree,
        mean_degree: if num_touched == 0 {
            0.0
        } else {
            edges.len() as f64 / num_touched as f64
        },
        self_loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_empty() {
        let s = stats(&[]);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.num_touched_vertices, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn stats_counts_loops_and_degrees() {
        let edges = vec![
            RawEdge::new(0, 1),
            RawEdge::new(0, 2),
            RawEdge::new(1, 1),
            RawEdge::new(2, 0),
        ];
        let s = stats(&edges);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.num_touched_vertices, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.self_loops, 1);
    }
}
