//! The NXgraph update engine.
//!
//! [`run`] is the single entry point: it resolves the update strategy from
//! the memory budget (§III-B: SPU when two copies of every interval fit,
//! DPU when none do, MPU in between), picks that strategy's residency —
//! `Q` resident intervals and a sub-shard cache ([`select::residency`]) —
//! and executes Algorithm 1 with the one driver in [`mpu`], of which SPU
//! (`Q = P`) and DPU (`Q = 0`) are the endpoints. It reports wall time,
//! iteration count and byte-exact I/O.
//!
//! Every phase computes through one kernel, [`kernel::absorb`]: sub-shards
//! are cut into destination chunks of about [`kernel::EDGES_PER_TASK`]
//! edges, each owning a disjoint accumulator slice, so worker threads
//! never take a lock (§III-D).

pub mod kernel;
pub mod mpu;
pub mod pipeline;
mod plan;
pub mod select;
pub mod state;
pub mod store;

use std::time::{Duration, Instant};

use nxgraph_storage::IoSnapshot;

use crate::dsss::PreparedGraph;
use crate::error::{EngineError, EngineResult};
use crate::program::{Direction, VertexProgram};
use crate::types::Attr;

pub use pipeline::{Fetch, Fetched, Pipeline};
pub use select::choose_strategy;
pub use state::{finalize_interval, AccBuf};
pub use store::ShardStore;

/// Update strategy (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pick automatically from the memory budget (MPU semantics: "NXgraph
    /// uses MPU by default", degrading to SPU/DPU at the extremes).
    Auto,
    /// Single-Phase Update: all intervals ping-pong in memory.
    Spu,
    /// Double-Phase Update: fully disk-resident, hub-mediated.
    Dpu,
    /// Mixed-Phase Update: `Q` resident intervals, hubs for the rest.
    Mpu,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Memory budget in bytes (`B_M`). Governs strategy selection, interval
    /// residency and sub-shard caching.
    pub memory_budget: u64,
    /// Update strategy; `Auto` derives SPU/MPU/DPU from the budget.
    pub strategy: Strategy,
    /// Hard iteration cap (PageRank in the paper runs a fixed 10).
    pub max_iterations: usize,
    /// Edge direction the program consumes.
    pub direction: Direction,
    /// Hung-I/O watchdog: how long the engine waits for the read
    /// [`pipeline`] to deliver the next sub-shard or hub before the wait
    /// converts into a typed `StorageError::Stalled` and the run cancels
    /// cleanly. `None` (the default) waits forever.
    pub io_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: crate::parallel::default_threads(),
            memory_budget: u64::MAX,
            strategy: Strategy::Auto,
            max_iterations: 50,
            direction: Direction::Forward,
            io_deadline: None,
        }
    }
}

impl EngineConfig {
    /// Builder-style thread override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// How many background workers the read [`pipeline`] gets when it is
    /// not running inline: one per engine thread, capped at four (the
    /// consumer folds results serially per row, so a wider decode fan-out
    /// only buys queue depth).
    pub fn decode_workers(&self) -> usize {
        self.threads.clamp(1, 4)
    }

    /// Builder-style budget override.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Builder-style iteration cap.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Builder-style direction override.
    pub fn with_direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Builder-style hung-I/O watchdog deadline (`None` disables the
    /// watchdog).
    pub fn with_io_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.io_deadline = deadline;
        self
    }
}

/// Execution report for one engine run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The strategy actually executed (never `Auto`).
    pub strategy: Strategy,
    /// Iterations performed.
    pub iterations: usize,
    /// Wall-clock time of the traversal (excludes preprocessing).
    pub elapsed: Duration,
    /// Disk traffic during the run (byte-exact).
    pub io: IoSnapshot,
    /// Total edges folded by `absorb` across all iterations.
    pub edges_traversed: u64,
}

impl RunStats {
    /// Million traversed edges per second — the paper's Fig 11 metric.
    pub fn mteps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.edges_traversed as f64 / 1e6 / self.elapsed.as_secs_f64()
    }
}

/// Run `prog` over `graph` to completion (convergence or the iteration
/// cap) and return the final per-vertex values plus statistics.
pub fn run<P: VertexProgram>(
    graph: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> EngineResult<(Vec<P::Value>, RunStats)> {
    if cfg.direction != Direction::Forward && !graph.has_reverse() {
        return Err(EngineError::Invalid(
            "program needs reverse sub-shards; preprocess with build_reverse".into(),
        ));
    }
    if cfg.max_iterations == 0 {
        return Err(EngineError::Invalid("max_iterations must be positive".into()));
    }
    let (strategy, q, cache_bytes) = select::residency(
        cfg.strategy,
        graph.num_vertices() as u64,
        graph.num_intervals(),
        P::Value::SIZE,
        cfg.memory_budget,
    );
    let start_io = graph.disk().counters().snapshot();
    let start = Instant::now();
    let (values, iterations, edges) = mpu::run_mpu(graph, prog, cfg, q, cache_bytes)?;
    let elapsed = start.elapsed();
    let io = graph.disk().counters().snapshot().delta(&start_io);
    Ok((
        values,
        RunStats {
            strategy,
            iterations,
            elapsed,
            io,
            edges_traversed: edges,
        },
    ))
}

/// Shared per-iteration bookkeeping: interval activity (§II-B).
pub(crate) struct Activity {
    /// Active flag per interval.
    pub active: Vec<bool>,
    /// Whether the program ever deactivates intervals (monotone programs
    /// only; global recompute programs keep everything active).
    pub tracks: bool,
}

impl Activity {
    /// Initial activity from the program's `initially_active`.
    pub fn init<P: VertexProgram>(graph: &PreparedGraph, prog: &P) -> Self {
        let p = graph.num_intervals();
        let tracks = !P::ALWAYS_APPLY;
        let mut active = vec![false; p as usize];
        for j in 0..p {
            let r = graph.interval_range(j);
            active[j as usize] =
                !tracks || r.clone().any(|v| prog.initially_active(v));
        }
        Self { active, tracks }
    }

    /// Whether source row `i` may be skipped this iteration.
    pub fn row_skippable(&self, i: u32) -> bool {
        self.tracks && !self.active[i as usize]
    }

    /// Install the next iteration's flags; returns `true` when every
    /// interval went inactive (global termination for monotone programs).
    pub fn advance(&mut self, changed: &[bool]) -> bool {
        if !self.tracks {
            return false;
        }
        for (a, &c) in self.active.iter_mut().zip(changed) {
            *a = c;
        }
        self.active.iter().all(|&a| !a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = EngineConfig::default();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.strategy, Strategy::Auto);
        assert_eq!(cfg.threads, crate::parallel::default_threads());
        assert_eq!(cfg.io_deadline, None);
    }

    #[test]
    fn decode_workers_track_threads() {
        assert_eq!(EngineConfig::default().with_threads(1).decode_workers(), 1);
        assert_eq!(EngineConfig::default().with_threads(3).decode_workers(), 3);
        // Capped: a huge thread count does not explode the decode pool.
        assert_eq!(EngineConfig::default().with_threads(64).decode_workers(), 4);
    }

    #[test]
    fn builder_chains() {
        let cfg = EngineConfig::default()
            .with_threads(2)
            .with_budget(1024)
            .with_strategy(Strategy::Dpu)
            .with_max_iterations(7)
            .with_direction(Direction::Both)
            .with_io_deadline(Some(Duration::from_millis(250)));
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.memory_budget, 1024);
        assert_eq!(cfg.strategy, Strategy::Dpu);
        assert_eq!(cfg.max_iterations, 7);
        assert_eq!(cfg.direction, Direction::Both);
        assert_eq!(cfg.io_deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn mteps_math() {
        let stats = RunStats {
            strategy: Strategy::Spu,
            iterations: 2,
            elapsed: Duration::from_secs(2),
            io: IoSnapshot::default(),
            edges_traversed: 4_000_000,
        };
        assert!((stats.mteps() - 2.0).abs() < 1e-12);
    }
}
