//! The paper's evaluation algorithms as [`VertexProgram`]s plus one-call
//! wrappers.
//!
//! * [`pagerank()`] — the global-query workload of Exps 1–5, 8, 9.
//! * [`bfs()`] — Breadth-First Search (Algorithm 2–4 of the paper).
//! * [`wcc()`] — Weakly Connected Components (undirected label propagation).
//! * [`scc()`] — Strongly Connected Components (forward-max-colouring +
//!   backward confirmation, built from two engine runs per round).
//!
//! [`VertexProgram`]: crate::program::VertexProgram

pub mod bfs;
pub mod hits;
pub mod kcore;
pub mod pagerank;
pub mod ppr;
pub mod scc;
pub(crate) mod simd;
pub mod sssp;
pub mod wcc;

use crate::dsss::PreparedGraph;
use crate::engine::{self, EngineConfig, RunStats};
use crate::error::EngineResult;
use crate::types::VertexId;

pub use bfs::Bfs;
pub use hits::hits;
pub use kcore::kcore;
pub use pagerank::PageRank;
pub use ppr::PersonalizedPageRank;
pub use scc::SccOutcome;
pub use sssp::Sssp;
pub use wcc::Wcc;

/// `Σ src_vals[s − base] · weight[s]` over one destination's source run —
/// the shared inner loop of the f64 `absorb_run` overrides (PageRank/PPR
/// with reciprocal out-degrees as weights, HITS via
/// [`unrolled_table_sum`]).
///
/// Dispatches to the SIMD kernels in [`simd`] (AVX → SSE2 → scalar
/// unroll); every path computes the same four partial lanes and folds
/// them as `((l0+l1)+(l2+l3))+tail`, so the result is bitwise-identical
/// regardless of the vector extension the host happens to have.
#[inline]
pub(crate) fn unrolled_weighted_sum(
    srcs: &[VertexId],
    src_vals: &[f64],
    base: usize,
    weight: &[f64],
) -> f64 {
    simd::weighted_sum(srcs, src_vals, base, weight)
}

/// `Σ table[s]` over a source run (HITS sums the companion score table
/// directly; see [`unrolled_weighted_sum`] for the dispatch contract).
#[inline]
pub(crate) fn unrolled_table_sum(srcs: &[VertexId], table: &[f64]) -> f64 {
    simd::table_sum(srcs, table)
}

/// Run `iterations` of PageRank (damping 0.85) and return ranks.
pub fn pagerank(
    g: &PreparedGraph,
    iterations: usize,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<f64>, RunStats)> {
    let prog = PageRank::new(g.num_vertices(), std::sync::Arc::clone(g.out_degrees()));
    let mut cfg = cfg.clone();
    cfg.max_iterations = iterations;
    engine::run(g, &prog, &cfg)
}

/// BFS from `root`; returns depths (`u32::MAX` = unreachable).
pub fn bfs(
    g: &PreparedGraph,
    root: VertexId,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<u32>, RunStats)> {
    let prog = Bfs::new(root);
    let mut cfg = cfg.clone();
    // BFS needs depth-of-graph iterations; the engine's activity tracking
    // terminates as soon as no interval changes.
    cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
    engine::run(g, &prog, &cfg)
}

/// Weakly connected components; labels are the minimum vertex id of each
/// component.
pub fn wcc(g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<(Vec<u32>, RunStats)> {
    let mut cfg = cfg.clone();
    cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
    engine::run(g, &Wcc, &cfg)
}

/// Strongly connected components; labels are the maximum vertex id of each
/// component. See the [`mod@scc`] module docs for the round structure.
pub fn scc(g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<SccOutcome> {
    scc::run(g, cfg)
}
