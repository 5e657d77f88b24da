//! One module per paper table/figure.

pub mod exp1_ordering;
pub mod exp2_partitioning;
pub mod exp3_spu_dpu;
pub mod exp4_memory;
pub mod exp5_threads;
pub mod exp6_scalability;
pub mod exp7_tasks;
pub mod exp8_limited;
pub mod exp9_best;
pub mod fig6;
pub mod table2;

use nxgraph_core::engine::EngineConfig;
use nxgraph_graphgen::datasets::{self, Dataset};
use nxgraph_storage::{DeviceProfile, IoSnapshot};

use crate::Opts;

/// The three real-world-like datasets at the configured scale.
pub fn real_world(opts: &Opts) -> Vec<Dataset> {
    datasets::real_world_suite(opts.scale_shift, opts.seed)
}

/// The Twitter-like dataset (the paper's main workload).
pub fn twitter(opts: &Opts) -> Dataset {
    datasets::twitter_like(opts.scale_shift, opts.seed + 1)
}

/// Baseline engine configuration derived from the options.
pub fn nx_cfg(opts: &Opts) -> EngineConfig {
    EngineConfig::default()
        .with_threads(opts.threads)
        .with_max_iterations(opts.iters)
}

/// Wall time plus the modeled device time for counted traffic — the
/// quantity that stands in for the paper's measured elapsed time on a
/// given storage device (DESIGN.md §2).
pub fn modeled_secs(wall: std::time::Duration, io: &IoSnapshot, dev: &DeviceProfile) -> f64 {
    wall.as_secs_f64() + dev.modeled_time(io).as_secs_f64()
}

/// A default budget that forces MPU with roughly half the intervals
/// resident, used by the "limited memory" experiments.
pub fn half_resident_budget(n: u64, value_size: u64) -> u64 {
    4 * n + n * value_size // degree table + half of 2·n·Ba
}
