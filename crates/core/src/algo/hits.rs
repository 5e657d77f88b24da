//! HITS (Hyperlink-Induced Topic Search): authority and hub scores.
//!
//! Alternating propagation: `auth(v) = Σ hub(u)` over in-edges `u→v`
//! (forward sub-shards), `hub(v) = Σ auth(w)` over out-edges `v→w`
//! (reverse sub-shards), each followed by L2 normalisation. Built as two
//! one-iteration engine runs per HITS iteration, the same orchestration
//! pattern as SCC — current scores flow into the next run through the
//! program's `init`.

use std::sync::Arc;

use nxgraph_storage::IoSnapshot;

use crate::dsss::PreparedGraph;
use crate::engine::{self, EngineConfig};
use crate::error::{EngineError, EngineResult};
use crate::program::{Direction, VertexProgram};
use crate::types::VertexId;

/// Result of a HITS computation.
#[derive(Debug, Clone)]
pub struct HitsOutcome {
    /// Authority score per vertex (L2-normalised).
    pub authorities: Vec<f64>,
    /// Hub score per vertex (L2-normalised).
    pub hubs: Vec<f64>,
    /// HITS iterations performed.
    pub iterations: usize,
    /// Total disk traffic.
    pub io: IoSnapshot,
    /// Wall time.
    pub elapsed: std::time::Duration,
}

/// One half-step: sum the companion score over one edge direction.
struct SumNeighbors {
    /// Scores of the *other* side from the previous half-step.
    companion: Arc<Vec<f64>>,
    /// Forward for authorities (in-edges), reverse for hubs (out-edges).
    direction: Direction,
}

impl VertexProgram for SumNeighbors {
    type Value = f64;
    type Accum = f64;
    const APPLY_NEEDS_OLD: bool = false;
    const ALWAYS_APPLY: bool = true;

    fn init(&self, v: VertexId) -> f64 {
        self.companion[v as usize]
    }

    fn zero(&self) -> f64 {
        0.0
    }

    fn absorb(&self, src: VertexId, _src_val: &f64, _dst: VertexId, acc: &mut f64) -> bool {
        // Read the companion table directly: `init` seeds Value with the
        // companion score, but going through the table keeps this correct
        // even for sources whose interval was never finalised.
        *acc += self.companion[src as usize];
        true
    }

    fn combine(&self, a: &mut f64, b: &f64) {
        *a += *b;
    }

    fn absorb_run(
        &self,
        _dst: VertexId,
        srcs: &[VertexId],
        _src_vals: &[f64],
        _src_base: VertexId,
        acc: &mut f64,
    ) -> bool {
        if srcs.is_empty() {
            return false;
        }
        // Shared 4-lane ILP unroll over the companion table (absorb
        // ignores src_vals by design — see the comment on `absorb`).
        let run = super::unrolled_table_sum(srcs, &self.companion);
        self.combine(acc, &run);
        true
    }

    fn apply(&self, _v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
        *acc
    }

    fn direction(&self) -> Direction {
        self.direction
    }
}

fn l2_normalise(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Run `iterations` of HITS. Requires reverse sub-shards.
pub fn hits(
    g: &PreparedGraph,
    iterations: usize,
    cfg: &EngineConfig,
) -> EngineResult<HitsOutcome> {
    if !g.has_reverse() {
        return Err(EngineError::Invalid(
            "HITS needs reverse sub-shards; preprocess with build_reverse".into(),
        ));
    }
    if iterations == 0 {
        return Err(EngineError::Invalid("iterations must be positive".into()));
    }
    let n = g.num_vertices() as usize;
    let start = std::time::Instant::now();
    let io0 = g.disk().counters().snapshot();

    let mut auth = vec![1.0 / (n as f64).sqrt(); n];
    let mut hub = auth.clone();

    let step_cfg = cfg.clone().with_max_iterations(1);

    for _ in 0..iterations {
        // auth(v) = Σ hub(u) over in-edges: forward direction.
        let prog = SumNeighbors {
            companion: Arc::new(hub.clone()),
            direction: Direction::Forward,
        };
        let (mut new_auth, _) = engine::run(g, &prog, &step_cfg)?;
        l2_normalise(&mut new_auth);
        auth = new_auth;

        // hub(v) = Σ auth(w) over out-edges: reverse direction.
        let prog = SumNeighbors {
            companion: Arc::new(auth.clone()),
            direction: Direction::Reverse,
        };
        let (mut new_hub, _) = engine::run(g, &prog, &step_cfg)?;
        l2_normalise(&mut new_hub);
        hub = new_hub;
    }

    Ok(HitsOutcome {
        authorities: auth,
        hubs: hub,
        iterations,
        io: g.disk().counters().snapshot().delta(&io0),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn prepare(raw: &[(u64, u64)]) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(raw, &PrepConfig::new("hits", 3), disk).unwrap()
    }

    #[test]
    fn matches_reference_on_fig1() {
        let edges = crate::fig1_example_edges();
        let raw: Vec<(u64, u64)> = edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect();
        let g = prepare(&raw);
        let out = hits(&g, 12, &EngineConfig::default()).unwrap();
        let (ea, eh) = crate::reference::hits(7, &edges, 12);
        for (a, b) in out.authorities.iter().zip(&ea) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        for (a, b) in out.hubs.iter().zip(&eh) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn star_graph_extremes() {
        // Many sources point at one sink: the sink is the top authority,
        // the sources are the hubs.
        let raw: Vec<(u64, u64)> = (1..6u64).map(|s| (s, 0)).collect();
        let g = prepare(&raw);
        let out = hits(&g, 10, &EngineConfig::default()).unwrap();
        let best_auth = out
            .authorities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best_auth, 0);
        assert!(out.hubs[0] < 1e-12, "the sink is no hub");
    }

    #[test]
    fn scores_are_normalised() {
        let raw: Vec<(u64, u64)> = crate::fig1_example_edges()
            .iter()
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        let g = prepare(&raw);
        let out = hits(&g, 5, &EngineConfig::default()).unwrap();
        let na: f64 = out.authorities.iter().map(|x| x * x).sum();
        let nh: f64 = out.hubs.iter().map(|x| x * x).sum();
        assert!((na - 1.0).abs() < 1e-9);
        assert!((nh - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let raw: Vec<(u64, u64)> = vec![(0, 1)];
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(&raw, &PrepConfig::forward_only("fw", 2), disk).unwrap();
        assert!(hits(&g, 5, &EngineConfig::default()).is_err());
        let g2 = prepare(&raw);
        assert!(hits(&g2, 0, &EngineConfig::default()).is_err());
    }
}
