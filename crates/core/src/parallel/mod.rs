//! Multi-threading substrate.
//!
//! NXgraph's parallel model (§III-D) is *task*-shaped: an update pass
//! produces a list of independent tasks (a destination range of one
//! sub-shard plus the exclusive accumulator slice it writes), and a fixed
//! set of worker threads drains them. [`pool`] implements that substrate on
//! scoped threads and a crossbeam channel — no work item ever shares a
//! mutable destination, so the data path is lock-free by construction.

pub mod pool;

pub use pool::{run_tasks, split_ranges};

/// The default thread count of the engine and of preprocessing: a positive
/// `NXGRAPH_THREADS` (CI runs the suite at fixed parallelisms with it),
/// else the host's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("NXGRAPH_THREADS")
        .ok()
        .and_then(|t| t.trim().parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}
