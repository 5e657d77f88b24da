//! One module per paper table/figure.
//!
//! Two choices shape every table these experiments print; the other
//! modules and crates cite them here.
//!
//! ## Dataset substitution
//!
//! The paper's real graphs (LiveJournal, Twitter, Yahoo-web) are not
//! redistributable, and at 69 M to 6.64 B edges too large for a run of
//! seconds. `graphgen::datasets` generates reduced-scale stand-ins that keep
//! what the experiments exercise: the edge/vertex ratio (R-MAT at edge
//! factor 14, 35 and 9), power-law skew, Yahoo-web's sparse index space
//! (spread over a 64× larger id range, so degreeing must compact it), and
//! constant-degree triangulated meshes for `delaunay_n*`. `--scale-shift`
//! (default −6) moves all of them toward the paper's sizes. So absolute
//! times and MTEPS are not the paper's; a table compares systems on the
//! same stand-in, and a claim that depends on scale (Fig 9, Fig 11) is to
//! be read at `--scale-shift 0`.
//!
//! ## Modeled device time
//!
//! The paper times its systems on an HDD and an SSD array; these
//! experiments run on whatever disk the host has, often the page cache. So
//! the I/O-bound columns report [`modeled_secs`]: wall time plus
//! `DeviceProfile::modeled_time` of the counted traffic, that is bytes
//! read ÷ read bandwidth + bytes written ÷ write bandwidth + one
//! `seek_latency` per seek, where every file open or create counts as one
//! seek, whatever the order of the files. That seek term charges a schedule
//! of many small files (P² sub-shards, hubs, intervals) one seek each, and
//! it dominates NXgraph's modeled HDD time in Table V. It is not the model
//! nxmark's `PacedDisk` uses (a seek only where a read jumps backward in
//! layout order); ROADMAP item 18 replaces both with one device clock.
//! The memory budget is modelled the same way: it selects SPU, MPU or DPU
//! and the sub-shard cache, and no OS limit enforces it.

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
/// given storage device (module docs, "Modeled device time").
pub fn modeled_secs(wall: std::time::Duration, io: &IoSnapshot, dev: &DeviceProfile) -> f64 {
    wall.as_secs_f64() + dev.modeled_time(io).as_secs_f64()
}

/// A default budget that forces MPU with roughly half the intervals
/// resident, used by the "limited memory" experiments.
pub fn half_resident_budget(n: u64, value_size: u64) -> u64 {
    4 * n + n * value_size // degree table + half of 2·n·Ba
}
