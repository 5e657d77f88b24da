//! Strongly Connected Components by forward colouring + backward
//! confirmation.
//!
//! The engine is a synchronous, direction-fixed update machine, so SCC is
//! built as *rounds* of two engine runs (this is the standard
//! colouring/FW-BW decomposition used by out-of-core systems; the paper
//! evaluates SCC as one of its targeted-query workloads without spelling
//! out its decomposition):
//!
//! 1. **Forward colouring** — every unassigned vertex starts coloured with
//!    its own id; maximum colours propagate along forward edges to a
//!    fixpoint. A vertex whose final colour equals its own id is a *root*;
//!    all members of a root's SCC share the root's colour (they have
//!    identical ancestor sets among unassigned vertices).
//! 2. **Backward confirmation** — roots propagate reachability along
//!    *reverse* edges, restricted to vertices of the same colour. A vertex
//!    confirmed here both reaches (membership of the colour class) and is
//!    reached from the root — i.e. it is in the root's SCC.
//!
//! Confirmed vertices are assigned their colour as the SCC label (thus the
//! label is the **maximum vertex id of the component**) and removed from
//! further rounds. Each round assigns at least every current root, so the
//! loop terminates.

use std::sync::Arc;

use nxgraph_storage::IoSnapshot;

use crate::dsss::PreparedGraph;
use crate::engine::{self, EngineConfig};
use crate::error::{EngineError, EngineResult};
use crate::program::{Direction, VertexProgram};
use crate::types::VertexId;

/// Label meaning "not yet assigned to an SCC".
pub const UNASSIGNED: u32 = u32::MAX;

/// Result of an SCC computation.
#[derive(Debug, Clone)]
pub struct SccOutcome {
    /// Per-vertex SCC label: the maximum vertex id of the component.
    pub labels: Vec<u32>,
    /// Number of FW-BW rounds performed.
    pub rounds: usize,
    /// Total iterations across all engine runs.
    pub iterations: usize,
    /// Wall time of the whole computation.
    pub elapsed: std::time::Duration,
    /// Total disk traffic.
    pub io: IoSnapshot,
    /// Total edges folded.
    pub edges_traversed: u64,
}

/// Forward max-colour propagation among unassigned vertices.
struct FwColor {
    assigned: Arc<Vec<u32>>,
}

impl VertexProgram for FwColor {
    type Value = u32;
    type Accum = u32;
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = false;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn initially_active(&self, v: VertexId) -> bool {
        self.assigned[v as usize] == UNASSIGNED
    }

    fn zero(&self) -> u32 {
        0
    }

    fn source_active(&self, src: VertexId, _val: &u32) -> bool {
        self.assigned[src as usize] == UNASSIGNED
    }

    fn absorb(&self, _src: VertexId, src_val: &u32, dst: VertexId, acc: &mut u32) -> bool {
        if self.assigned[dst as usize] != UNASSIGNED {
            return false;
        }
        if *src_val > *acc {
            *acc = *src_val;
        }
        true
    }

    fn combine(&self, a: &mut u32, b: &u32) {
        *a = (*a).max(*b);
    }

    fn apply(&self, v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
        if self.assigned[v as usize] != UNASSIGNED {
            *old
        } else {
            (*old).max(*acc)
        }
    }
}

/// Backward reachability from roots, gated on equal colours.
struct BwConfirm {
    assigned: Arc<Vec<u32>>,
    colors: Arc<Vec<u32>>,
}

impl VertexProgram for BwConfirm {
    type Value = u32; // 1 = confirmed member of its colour's SCC
    type Accum = u32;
    const APPLY_NEEDS_OLD: bool = true;
    const ALWAYS_APPLY: bool = false;

    fn init(&self, v: VertexId) -> u32 {
        let unassigned = self.assigned[v as usize] == UNASSIGNED;
        u32::from(unassigned && self.colors[v as usize] == v)
    }

    fn initially_active(&self, v: VertexId) -> bool {
        self.init(v) == 1
    }

    fn zero(&self) -> u32 {
        0
    }

    fn source_active(&self, src: VertexId, val: &u32) -> bool {
        *val == 1 && self.assigned[src as usize] == UNASSIGNED
    }

    fn absorb(&self, src: VertexId, _src_val: &u32, dst: VertexId, acc: &mut u32) -> bool {
        // Reverse edge src ⇢ dst stands for original edge dst → src: dst
        // can reach src. Membership requires matching colours.
        let d = dst as usize;
        if self.assigned[d] == UNASSIGNED && self.colors[d] == self.colors[src as usize] {
            *acc = 1;
            true
        } else {
            false
        }
    }

    fn combine(&self, a: &mut u32, b: &u32) {
        *a = (*a).max(*b);
    }

    fn apply(&self, _v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
        (*old).max(*acc)
    }

    fn direction(&self) -> Direction {
        Direction::Reverse
    }
}

/// Compute SCC labels for a prepared graph (requires reverse sub-shards).
pub fn run(g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<SccOutcome> {
    if !g.has_reverse() {
        return Err(EngineError::Invalid(
            "SCC needs reverse sub-shards; preprocess with build_reverse".into(),
        ));
    }
    let n = g.num_vertices() as usize;
    let start = std::time::Instant::now();
    let io_start = g.disk().counters().snapshot();

    let mut assigned = vec![UNASSIGNED; n];
    let mut rounds = 0;
    let mut iterations = 0;
    let mut edges_traversed = 0;

    // Inner runs need diameter-many iterations; cap generously.
    let run_cfg = cfg
        .clone()
        .with_max_iterations((n + 1).max(cfg.max_iterations));

    while assigned.contains(&UNASSIGNED) {
        rounds += 1;
        let frozen = Arc::new(assigned.clone());

        // 1. Forward colouring to fixpoint.
        let fw = FwColor {
            assigned: Arc::clone(&frozen),
        };
        let (colors, fw_stats) = engine::run(g, &fw, &run_cfg)?;
        iterations += fw_stats.iterations;
        edges_traversed += fw_stats.edges_traversed;

        // 2. Backward confirmation within colour classes.
        let bw = BwConfirm {
            assigned: Arc::clone(&frozen),
            colors: Arc::new(colors),
        };
        let (confirmed, bw_stats) = engine::run(g, &bw, &run_cfg)?;
        iterations += bw_stats.iterations;
        edges_traversed += bw_stats.edges_traversed;

        // 3. Assign confirmed vertices.
        let colors = &bw.colors;
        let mut assigned_this_round = 0usize;
        for v in 0..n {
            if assigned[v] == UNASSIGNED && confirmed[v] == 1 {
                assigned[v] = colors[v];
                assigned_this_round += 1;
            }
        }
        debug_assert!(
            assigned_this_round > 0,
            "each round must assign at least its roots"
        );
        if assigned_this_round == 0 {
            return Err(EngineError::Invalid(
                "SCC made no progress (internal invariant violated)".into(),
            ));
        }
    }

    Ok(SccOutcome {
        labels: assigned,
        rounds,
        iterations,
        elapsed: start.elapsed(),
        io: g.disk().counters().snapshot().delta(&io_start),
        edges_traversed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn prepare(edges: &[(u64, u64)], p: u32) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(edges, &PrepConfig::new("scc-test", p), disk).unwrap()
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0↔1 cycle, 2↔3 cycle, bridge 1→2: two SCCs of size 2.
        let g = prepare(&[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 2);
        let out = run(&g, &EngineConfig::default()).unwrap();
        assert_eq!(out.labels, vec![1, 1, 3, 3]);
        assert!(out.rounds >= 1);
    }

    #[test]
    fn dag_is_all_singletons() {
        // 0→1→2→3 path: four singleton SCCs labelled by themselves.
        let g = prepare(&[(0, 1), (1, 2), (2, 3)], 2);
        let out = run(&g, &EngineConfig::default()).unwrap();
        assert_eq!(out.labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn full_cycle_is_one_component() {
        let g = prepare(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 3);
        let out = run(&g, &EngineConfig::default()).unwrap();
        assert_eq!(out.labels, vec![4; 5]);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn fig1_matches_tarjan() {
        let raw: Vec<(u64, u64)> = crate::fig1_example_edges()
            .iter()
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        let g = prepare(&raw, 4);
        let out = run(&g, &EngineConfig::default()).unwrap();
        let expect = crate::reference::scc(7, &crate::fig1_example_edges());
        assert_eq!(out.labels, expect);
    }
}
