//! What the workloads share: set-up (timed, optionally split by layer,
//! repeated for a median), the dynamic store of the two stream workloads,
//! the fresh-preparation oracle, the fault-counter check, and the small
//! layer probes of the traced runs.

use std::sync::Arc;
use std::time::Instant;

use nxgraph_core::dsss::{SS_DISK_BYTES_MANIFEST_KEY, SS_RAW_BYTES_MANIFEST_KEY};
use nxgraph_core::engine::{EngineConfig, Strategy};
use nxgraph_core::prep::{self, preprocess, PrepConfig};
use nxgraph_core::{algo, DynamicConfig, DynamicGraph, PreparedGraph};
use nxgraph_storage::{global_over_releases, Disk, IoProfileSnapshot, MemDisk, OsDisk};

use crate::inputs;
use crate::result::RunResult;
use crate::scratch::ScratchDir;
use crate::span::Tracer;
use crate::stats::median;
use crate::walk::fingerprint;
use crate::Res;

/// Intervals of both dynamic stores (forward + reverse: 2·P² cells).
pub const P: u32 = 8;

/// Where one set-up's time went.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// Degreeing and sharding apart; only measured on a split set-up.
    pub degree_s: f64,
    pub shard_s: f64,
    pub open_s: f64,
    /// Start of generation to the handle the workload runs on.
    pub total_s: f64,
}

/// Preprocess `raw` onto `disk`. With `split`, degreeing and sharding are
/// called and timed apart (`preprocess` is exactly those two calls) and
/// recorded in `times`; without, `preprocess` itself runs.
pub fn prepare(
    raw: &[(u64, u64)],
    cfg: &PrepConfig,
    disk: &Arc<dyn Disk>,
    split: bool,
    times: &mut SetupTimes,
) -> Res<()> {
    if split {
        let at = Instant::now();
        let deg = prep::degree(raw);
        times.degree_s = at.elapsed().as_secs_f64();
        let at = Instant::now();
        drop(prep::shard(&deg, cfg, Arc::clone(disk))?);
        times.shard_s = at.elapsed().as_secs_f64();
    } else {
        drop(preprocess(raw, cfg, Arc::clone(disk))?);
    }
    Ok(())
}

/// Set up `reps` times (once on a `--quick` run); the previous result is
/// dropped before the next set-up starts. Returns the last result and
/// every set-up's seconds — `setup_s` is their median.
pub fn repeat_setups<T>(
    reps: usize,
    quick: bool,
    mut one: impl FnMut() -> Res<(T, f64)>,
) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..if quick { 1 } else { reps.max(1) } {
        drop(kept.take());
        let (built, seconds) = one()?;
        times.push(seconds);
        kept = Some(built);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The `IoProfile` counters of `disk` (zeros for a disk that keeps none).
pub fn profile_of(disk: &dyn Disk) -> IoProfileSnapshot {
    disk.io_profile().map(|p| p.snapshot()).unwrap_or_default()
}

/// Retries, give-ups, budget over-releases and aborted commits must all
/// be zero on a healthy run; a traced run also reports the counters.
pub fn check_faults(out: &mut RunResult, disk: &dyn Disk, commit_aborts: u64, trace: bool) {
    let profile = profile_of(disk);
    let over = global_over_releases();
    if profile.retries + profile.giveups + over + commit_aborts > 0 {
        out.fail(format!(
            "retries {} giveups {} over_releases {over} commit_aborts {commit_aborts}",
            profile.retries, profile.giveups
        ));
    }
    if trace {
        out.set("retry.retries", profile.retries as f64, 1);
        out.set("retry.giveups", profile.giveups as f64, 1);
        out.set("budget.over_releases", over as f64, 1);
    }
}

/// The files of a dynamic store on `OsDisk`, in their own scratch directory.
pub struct DynStore {
    pub dir: ScratchDir,
    pub os: Arc<dyn Disk>,
    /// The base edge list the store was prepared from.
    pub raw: Vec<(u64, u64)>,
    pub times: SetupTimes,
}

/// Generate R-MAT `scale`, preprocess (forward + reverse, library-default
/// encoding), reopen, wrap in a `DynamicGraph` under `config`.
pub fn dyn_store(
    label: &str,
    scale: u32,
    seed: u64,
    config: DynamicConfig,
    split: bool,
) -> Res<(DynStore, DynamicGraph)> {
    let dir = ScratchDir::new(label)?;
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let raw = inputs::rmat_edges(scale, seed);
    times.generate_s = start.elapsed().as_secs_f64();
    let os: Arc<dyn Disk> = Arc::new(OsDisk::new(dir.path())?);
    prepare(&raw, &PrepConfig::new(label, P), &os, split, &mut times)?;
    let at = Instant::now();
    let opened = PreparedGraph::open(Arc::clone(&os))?;
    times.open_s = at.elapsed().as_secs_f64();
    let graph = DynamicGraph::with_config(opened, config)?;
    times.total_s = start.elapsed().as_secs_f64();
    let store = DynStore {
        dir,
        os,
        raw,
        times,
    };
    Ok((store, graph))
}

/// The set-up layer metrics every traced run reports; `rss_mib` is `VmHWM`
/// as read when set-up ended.
pub fn set_prep_metrics(
    out: &mut RunResult,
    g: &PreparedGraph,
    edges_in: usize,
    t: &SetupTimes,
    rss_mib: f64,
) {
    out.set("graphgen.generate_s", t.generate_s, 1);
    out.set("prep.degree_s", t.degree_s, 1);
    out.set("prep.shard_s", t.shard_s, 1);
    let medges = edges_in as f64 / 1e6;
    out.set("prep.medges_per_s", medges / (t.degree_s + t.shard_s), 1);
    let extra = |key: &str| {
        g.manifest()
            .extra
            .get(key)
            .and_then(|v| v.parse::<f64>().ok())
    };
    if let (Some(raw_b), Some(disk_b)) = (
        extra(SS_RAW_BYTES_MANIFEST_KEY),
        extra(SS_DISK_BYTES_MANIFEST_KEY),
    ) {
        if disk_b > 0.0 {
            out.set("prep.blob_ratio", raw_b / disk_b, 1);
        }
    }
    out.set("prep.peak_rss_mb", rss_mib, 1);
}

/// A from-scratch preparation of `base ∪ batches` on a `MemDisk`: what the
/// dynamic store must be indistinguishable from. Returns the disk too, for
/// its size.
pub fn fresh_prep(
    label: &str,
    base: &[(u64, u64)],
    batches: &[Vec<(u64, u64)>],
) -> Res<(PreparedGraph, Arc<MemDisk>)> {
    let mut all = base.to_vec();
    all.extend(batches.iter().flatten());
    let mem = Arc::new(MemDisk::new());
    let g = preprocess(
        &all,
        &PrepConfig::new(label, P),
        Arc::clone(&mem) as Arc<dyn Disk>,
    )?;
    Ok((g, mem))
}

/// Bit-fingerprint of ten PageRank iterations, SPU on one thread.
pub fn pagerank_bits(g: &PreparedGraph) -> Res<u64> {
    let cfg = EngineConfig::default()
        .with_threads(1)
        .with_strategy(Strategy::Spu);
    Ok(fingerprint(&algo::pagerank(g, 10, &cfg)?.0))
}

/// Mean number of blobs (base + deltas) behind one cell.
pub fn chain_parts_mean(g: &PreparedGraph) -> f64 {
    let p = g.num_intervals();
    let dirs: &[bool] = if g.has_reverse() {
        &[false, true]
    } else {
        &[false]
    };
    let mut parts = 0u64;
    for &rev in dirs {
        for i in 0..p {
            for j in 0..p {
                parts += 1 + g.chain_info(i, j, rev).deltas as u64;
            }
        }
    }
    parts as f64 / (dirs.len() as u64 * (p * p) as u64) as f64
}

/// Median seconds of three passes of `load_subshard_view` over every cell
/// of a freshly opened handle on `disk`.
pub fn load_all_cells_s(disk: &Arc<dyn Disk>) -> Res<f64> {
    let g = PreparedGraph::open(Arc::clone(disk))?;
    let p = g.num_intervals();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let at = Instant::now();
        for rev in [false, true] {
            for i in 0..p {
                for j in 0..p {
                    std::hint::black_box(g.load_subshard_view(i, j, rev)?);
                }
            }
        }
        passes.push(at.elapsed().as_secs_f64());
    }
    Ok(median(&passes))
}

/// Median milliseconds of `PreparedGraph::open` on `disk` (21 opens), each
/// inside a `dsss.open` span.
pub fn open_ms(disk: &Arc<dyn Disk>, tr: &mut Tracer) -> Res<f64> {
    let mut samples = Vec::new();
    for _ in 0..21 {
        let at = Instant::now();
        let g = tr.scope("dsss.open", || (PreparedGraph::open(Arc::clone(disk)), 0))?;
        samples.push(at.elapsed().as_secs_f64() * 1e3);
        drop(g);
    }
    Ok(median(&samples))
}

/// Median milliseconds of `GraphManifest::save` (tmp write + rename) of
/// `g`'s manifest onto a scratch `OsDisk` (21 saves), each inside a
/// `manifest.save` span.
pub fn manifest_save_ms(g: &PreparedGraph, tr: &mut Tracer) -> Res<f64> {
    let dir = ScratchDir::new("manifest-save")?;
    let disk = OsDisk::new(dir.path())?;
    let bytes = g.manifest().to_text().len() as u64;
    let mut samples = Vec::new();
    for _ in 0..21 {
        let at = Instant::now();
        tr.scope("manifest.save", || (g.manifest().save(&disk), bytes))?;
        samples.push(at.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

/// Seconds one recorded span costs (begin + end), measured on a scratch
/// tracer: `trace.span_cost_share` is this times the spans recorded, over
/// the untraced walk's (or the stream's) wall time.
pub fn span_cost_s() -> f64 {
    const N: usize = 100_000;
    let mut tr = Tracer::new(true);
    let at = Instant::now();
    for _ in 0..N {
        let o = tr.begin("probe");
        tr.end(o, 0);
    }
    let s = at.elapsed().as_secs_f64() / N as f64;
    std::hint::black_box(tr.spans().len());
    s
}
