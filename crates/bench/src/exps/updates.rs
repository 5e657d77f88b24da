//! `updates` — the tracked streaming-update baseline.
//!
//! Like `perf`, this experiment exists for the *repo's own* trajectory
//! rather than a paper table: a fixed-seed R-MAT fixture receives a
//! stream of edge batches through [`DynamicGraph`] under the delta log
//! (default compaction thresholds), the legacy whole-cell rewrite, and —
//! with `--background` — the delta log with folds moved to the
//! maintenance thread. Each mode measures edges-applied/sec, counted
//! disk write bytes per batch, and the p50/p99 latency of individual
//! `add_edges` commits: inline folds show up as p99 spikes that the
//! background mode takes off the commit path. After the stream (and
//! after quiescing maintenance), PageRank on each dynamic graph must be
//! bitwise-identical to PageRank on a from-scratch preprocessing of the
//! same final edge set; the run *fails* otherwise.
//!
//! A separate degradation pass replays the delta-log stream against a
//! disk whose write budget runs out partway (injected ENOSPC via
//! [`FaultDisk`]): every commit past the
//! budget must abort cleanly — typed error, store parked on its last
//! manifest — and the surviving prefix must still be bitwise-identical
//! to a fresh preparation of exactly the applied edges. With `--json`
//! the results land in `BENCH_updates.json` (schema v3) so successive
//! PRs can diff the numbers; CI uploads a tiny-scale run as an artifact.

use std::fmt::Write as _;
use std::time::Instant;

use nxgraph_bench::report::{fmt_secs, Table};
use nxgraph_core::algo;
use nxgraph_core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph_core::engine::EngineConfig;
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::PreparedGraph;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, EncodingPolicy, FaultDisk, FaultPlan, MemDisk};
use rand::{Rng, SeedableRng};

use crate::Opts;

/// Baseline R-MAT log2 scale before `--scale-shift` is applied.
const BASE_SCALE: i32 = 12;

/// Edges per vertex of the fixture.
const EDGE_FACTOR: u32 = 16;

/// Number of intervals of the prepared fixture.
const P: u32 = 8;

/// Batches applied per mode.
const NUM_BATCHES: usize = 16;

/// One measured commit mode.
struct ModeReport {
    mode: &'static str,
    elapsed_secs: f64,
    edges_per_sec: f64,
    write_bytes_total: u64,
    write_bytes_per_batch: u64,
    deltas_appended: usize,
    cells_rewritten: usize,
    cells_compacted: usize,
    /// Median / 99th-percentile `add_edges` wall time per batch, in µs.
    add_latency_p50_us: f64,
    add_latency_p99_us: f64,
    /// PageRank bits after the stream (compared across modes and against
    /// the from-scratch preparation).
    fingerprint: Vec<u64>,
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile_us(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Graceful write-side degradation under injected ENOSPC.
struct EnospcReport {
    /// Write budget (bytes through the fault wrapper) before every
    /// further write fails with ENOSPC.
    budget_bytes: u64,
    commits_attempted: usize,
    /// Commits that landed before the budget ran out.
    commits_applied: usize,
    /// Commits aborted by the injected ENOSPC (typed error, store left on
    /// its last manifest).
    commits_aborted: u64,
    /// Whether the surviving store is bitwise-identical to a fresh
    /// preparation of exactly the applied edges.
    post_abort_identical: bool,
}

struct Report {
    scale: u32,
    vertices: u32,
    edges_base: u64,
    batch_size: usize,
    modes: Vec<ModeReport>,
    identical: bool,
    enospc: EnospcReport,
}

fn fingerprint(g: &PreparedGraph, iters: usize) -> Vec<u64> {
    let cfg = EngineConfig::default().with_max_iterations(iters);
    let (ranks, _) = algo::pagerank(g, iters, &cfg).expect("pagerank");
    ranks.into_iter().map(f64::to_bits).collect()
}

/// The randomized batch stream: edges between vertices the base graph
/// already knows, so every commit takes the incremental path.
fn batches(known: &[u64], batch_size: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_u64);
    (0..NUM_BATCHES)
        .map(|_| {
            (0..batch_size)
                .map(|_| {
                    let s = known[rng.random_range(0..known.len())];
                    let d = known[rng.random_range(0..known.len())];
                    (s, d)
                })
                .collect()
        })
        .collect()
}

fn measure(opts: &Opts) -> Report {
    let scale = (BASE_SCALE + opts.scale_shift).max(6) as u32;
    let raw: Vec<(u64, u64)> = rmat::generate(&RmatConfig::graph500(scale, EDGE_FACTOR, opts.seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let encoding = opts.encoding.unwrap_or(EncodingPolicy::Raw);
    let prep_cfg = PrepConfig::new("updates", P).with_encoding(encoding);

    // Shared batch stream, sized to the fixture.
    let probe: std::sync::Arc<dyn Disk> = std::sync::Arc::new(MemDisk::new());
    let probe_graph = preprocess(&raw, &prep_cfg, probe).expect("prep");
    let known = probe_graph.load_reverse_mapping().expect("mapping");
    let batch_size = (raw.len() / 64).clamp(64, 4096);
    let stream = batches(&known, batch_size, opts.seed);
    let total_edges: usize = stream.iter().map(Vec::len).sum();

    let mut mode_list = vec![
        ("delta", DynamicConfig::default()),
        ("rewrite", DynamicConfig::rewrite()),
    ];
    if opts.background {
        // Same fold thresholds as "delta"; the folds run on the
        // maintenance thread instead of inside add_edges.
        mode_list.push(("background", DynamicConfig::background()));
    }
    let mut modes = Vec::new();
    for (mode, config) in mode_list {
        // RAM-disk profile (the methodology of the exp* suite): counted
        // write bytes are byte-exact on any disk, and wall time then
        // measures the commit paths themselves instead of host I/O
        // jitter. Feed the counted bytes to a `DeviceProfile` for
        // modeled-device comparisons. Median of three fresh replays —
        // single sub-second streams are noisy.
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            let disk: std::sync::Arc<dyn Disk> = std::sync::Arc::new(MemDisk::new());
            let g = preprocess(&raw, &prep_cfg, std::sync::Arc::clone(&disk)).expect("prep");
            let mut dg = DynamicGraph::with_config(g, config.clone()).expect("dynamic");
            let write_before = disk.counters().written_bytes();
            let (mut deltas, mut rewrites, mut compactions) = (0usize, 0usize, 0usize);
            let mut latencies = Vec::with_capacity(stream.len());
            let started = Instant::now();
            for batch in &stream {
                let commit = Instant::now();
                let stats = dg.add_edges(batch).expect("add_edges");
                latencies.push(commit.elapsed().as_secs_f64() * 1e6);
                assert!(!stats.rebuilt, "batches only touch known vertices");
                deltas += stats.deltas_appended;
                rewrites += stats.cells_rewritten;
                compactions += stats.cells_compacted;
            }
            // `elapsed` covers the commit path only; the quiesce below
            // drains in-flight background folds so the write-byte totals
            // and the fold count are complete for every mode.
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            dg.wait_maintenance_idle().expect("maintenance");
            if let Some(maint) = dg.maintenance() {
                compactions += maint.stats().cells_folded as usize;
            }
            let written = disk.counters().written_bytes() - write_before;
            samples.push((elapsed, written, deltas, rewrites, compactions, latencies, dg));
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (elapsed, written, deltas, rewrites, compactions, mut latencies, dg) =
            samples.remove(1);
        modes.push(ModeReport {
            mode,
            elapsed_secs: elapsed,
            edges_per_sec: total_edges as f64 / elapsed,
            write_bytes_total: written,
            write_bytes_per_batch: written / NUM_BATCHES as u64,
            deltas_appended: deltas,
            cells_rewritten: rewrites,
            cells_compacted: compactions,
            add_latency_p50_us: percentile_us(&mut latencies, 0.50),
            add_latency_p99_us: percentile_us(&mut latencies, 0.99),
            fingerprint: fingerprint(dg.graph(), opts.iters.min(5)),
        });
    }

    // The correctness gate: both dynamic paths must land bit-for-bit on
    // the from-scratch preparation of the final edge set.
    let mut full = raw.clone();
    full.extend(stream.iter().flatten());
    let fresh_disk: std::sync::Arc<dyn Disk> = std::sync::Arc::new(MemDisk::new());
    let fresh = preprocess(&full, &prep_cfg, fresh_disk).expect("fresh prep");
    let want = fingerprint(&fresh, opts.iters.min(5));
    let identical = modes.iter().all(|m| m.fingerprint == want);

    // Degradation pass: half the delta log's measured write bytes, so the
    // stream deterministically runs out of space partway through.
    let delta_bytes = modes
        .iter()
        .find(|m| m.mode == "delta")
        .expect("delta mode always measured")
        .write_bytes_total;
    let enospc = measure_enospc(&raw, &prep_cfg, &stream, (delta_bytes / 2).max(1), opts.iters.min(5));

    Report {
        scale,
        vertices: probe_graph.num_vertices(),
        edges_base: probe_graph.num_edges(),
        batch_size,
        modes,
        identical,
        enospc,
    }
}

/// Replay the delta-log stream against a write budget: commits past the
/// budget must abort with a typed error and leave the store on its last
/// manifest, never torn.
fn measure_enospc(
    raw: &[(u64, u64)],
    prep_cfg: &PrepConfig,
    stream: &[Vec<(u64, u64)>],
    budget_bytes: u64,
    iters: usize,
) -> EnospcReport {
    let mem: std::sync::Arc<dyn Disk> = std::sync::Arc::new(MemDisk::new());
    preprocess(raw, prep_cfg, std::sync::Arc::clone(&mem)).expect("prep");
    // Prep ran unbudgeted on the raw disk; only the commits are rationed.
    let faulted: std::sync::Arc<dyn Disk> = std::sync::Arc::new(FaultDisk::new(
        std::sync::Arc::clone(&mem),
        FaultPlan::new().with_enospc_after(budget_bytes),
    ));
    let g = PreparedGraph::open(faulted).expect("open budgeted graph");
    let mut dg = DynamicGraph::with_config(g, DynamicConfig::default()).expect("dynamic");
    let mut applied: Vec<(u64, u64)> = raw.to_vec();
    let mut commits_applied = 0usize;
    for batch in stream {
        if dg.add_edges(batch).is_ok() {
            commits_applied += 1;
            applied.extend(batch);
        }
    }
    let commits_aborted = dg.commit_aborts();
    drop(dg);
    // Reopen through the raw disk: the store must be exactly the applied
    // prefix, bit-for-bit (aborted attempts left only unreferenced blobs).
    let reopened = PreparedGraph::open(mem).expect("reopen after aborts");
    let fresh_disk: std::sync::Arc<dyn Disk> = std::sync::Arc::new(MemDisk::new());
    let fresh = preprocess(&applied, prep_cfg, fresh_disk).expect("fresh prep of applied prefix");
    let post_abort_identical = fingerprint(&reopened, iters) == fingerprint(&fresh, iters);
    EnospcReport {
        budget_bytes,
        commits_attempted: stream.len(),
        commits_applied,
        commits_aborted,
        post_abort_identical,
    }
}

impl Report {
    fn mode(&self, name: &str) -> &ModeReport {
        self.modes.iter().find(|m| m.mode == name).expect("mode")
    }

    /// Delta-log edges-applied/sec over the rewrite path's.
    fn speedup(&self) -> f64 {
        self.mode("delta").edges_per_sec / self.mode("rewrite").edges_per_sec.max(1e-9)
    }

    /// Rewrite-path write bytes per batch over the delta log's.
    fn write_ratio(&self) -> f64 {
        self.mode("rewrite").write_bytes_per_batch as f64
            / self.mode("delta").write_bytes_per_batch.max(1) as f64
    }
}

fn render_json(opts: &Opts, r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"updates\",");
    let _ = writeln!(s, "  \"schema_version\": 3,");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"scale\": {},", r.scale);
    let _ = writeln!(s, "  \"edge_factor\": {EDGE_FACTOR},");
    let _ = writeln!(s, "  \"intervals\": {P},");
    let _ = writeln!(s, "  \"vertices\": {},", r.vertices);
    let _ = writeln!(s, "  \"edges_base\": {},", r.edges_base);
    let _ = writeln!(s, "  \"batches\": {NUM_BATCHES},");
    let _ = writeln!(s, "  \"batch_size\": {},", r.batch_size);
    let _ = writeln!(s, "  \"modes\": [");
    for (k, m) in r.modes.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"mode\": \"{}\", \"elapsed_secs\": {:.6}, \"edges_per_sec\": {:.1}, \"write_bytes_total\": {}, \"write_bytes_per_batch\": {}, \"deltas_appended\": {}, \"cells_rewritten\": {}, \"cells_compacted\": {}, \"add_latency_p50_us\": {:.1}, \"add_latency_p99_us\": {:.1}}}{}",
            m.mode,
            m.elapsed_secs,
            m.edges_per_sec,
            m.write_bytes_total,
            m.write_bytes_per_batch,
            m.deltas_appended,
            m.cells_rewritten,
            m.cells_compacted,
            m.add_latency_p50_us,
            m.add_latency_p99_us,
            if k + 1 < r.modes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"speedup_edges_per_sec\": {:.2},", r.speedup());
    let _ = writeln!(s, "  \"write_bytes_ratio\": {:.2},", r.write_ratio());
    let e = &r.enospc;
    let _ = writeln!(
        s,
        "  \"enospc\": {{\"budget_bytes\": {}, \"commits_attempted\": {}, \"commits_applied\": {}, \"commits_aborted\": {}, \"post_abort_identical\": {}}},",
        e.budget_bytes, e.commits_attempted, e.commits_applied, e.commits_aborted, e.post_abort_identical
    );
    let _ = writeln!(s, "  \"identical_to_fresh_prep\": {}", r.identical);
    let _ = writeln!(s, "}}");
    s
}

/// Run the streaming-update baseline; when `json_out` is set, also write
/// the JSON report there. Returns `false` (failing the harness) when a
/// dynamic path diverges bitwise from the from-scratch preparation.
pub fn run(opts: &Opts, json_out: Option<&str>) -> bool {
    let r = measure(opts);
    let mut t = Table::new(
        format!(
            "updates — {} batches of {} edges onto rmat-{}x{} ({} vertices, {} base edges)",
            NUM_BATCHES, r.batch_size, r.scale, EDGE_FACTOR, r.vertices, r.edges_base
        ),
        &[
            "mode", "time", "edges/s", "write B/batch", "deltas", "rewrites", "compactions",
            "p50 µs", "p99 µs",
        ],
    );
    for m in &r.modes {
        t.row(vec![
            m.mode.to_string(),
            fmt_secs(std::time::Duration::from_secs_f64(m.elapsed_secs)),
            format!("{:.3e}", m.edges_per_sec),
            m.write_bytes_per_batch.to_string(),
            m.deltas_appended.to_string(),
            m.cells_rewritten.to_string(),
            m.cells_compacted.to_string(),
            format!("{:.1}", m.add_latency_p50_us),
            format!("{:.1}", m.add_latency_p99_us),
        ]);
    }
    t.print();
    println!(
        "delta log vs rewrite: {:.1}x edges-applied/sec, {:.1}x fewer write bytes/batch; bitwise identical to fresh prep: {}",
        r.speedup(),
        r.write_ratio(),
        r.identical
    );
    println!(
        "enospc degradation: {}/{} commits applied before a {}-byte budget, {} aborted cleanly; surviving prefix identical to fresh prep: {}",
        r.enospc.commits_applied,
        r.enospc.commits_attempted,
        r.enospc.budget_bytes,
        r.enospc.commits_aborted,
        r.enospc.post_abort_identical
    );
    if let Some(path) = json_out {
        let json = render_json(opts, &r);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("updates: failed to write {path}: {e}");
            return false;
        }
        println!("wrote {path}");
    }
    r.identical && r.enospc.post_abort_identical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_json_is_well_formed_and_identical() {
        let opts = Opts {
            scale_shift: -6,
            iters: 3,
            background: true,
            ..Opts::default()
        };
        let r = measure(&opts);
        assert!(r.identical, "dynamic paths diverged from fresh prep");
        assert_eq!(r.modes.len(), 3);
        assert!(r.mode("delta").deltas_appended > 0);
        assert_eq!(r.mode("delta").cells_rewritten, 0);
        assert!(r.mode("rewrite").cells_rewritten > 0);
        assert_eq!(r.mode("rewrite").deltas_appended, 0);
        assert!(r.mode("background").deltas_appended > 0);
        assert_eq!(r.mode("background").cells_rewritten, 0);
        // The delta log must write less per batch even at tiny scale.
        assert!(r.write_ratio() > 1.0, "write ratio {}", r.write_ratio());
        for m in &r.modes {
            assert!(m.add_latency_p50_us > 0.0, "{}: zero p50", m.mode);
            assert!(
                m.add_latency_p99_us >= m.add_latency_p50_us,
                "{}: p99 {} below p50 {}",
                m.mode,
                m.add_latency_p99_us,
                m.add_latency_p50_us
            );
        }
        // The degradation pass must actually hit the budget and recover.
        assert!(r.enospc.commits_aborted >= 1, "no commit hit the ENOSPC budget");
        assert!(r.enospc.commits_applied >= 1, "budget too small to land any commit");
        assert_eq!(
            r.enospc.commits_applied as u64 + r.enospc.commits_aborted,
            r.enospc.commits_attempted as u64
        );
        assert!(r.enospc.post_abort_identical, "aborted commits tore the store");
        let json = render_json(&opts, &r);
        assert!(json.contains("\"bench\": \"updates\""));
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("\"enospc\": {"));
        assert!(json.contains("\"commits_aborted\""));
        assert!(json.contains("\"post_abort_identical\": true"));
        assert!(json.contains("\"mode\": \"delta\""));
        assert!(json.contains("\"mode\": \"rewrite\""));
        assert!(json.contains("\"mode\": \"background\""));
        assert!(json.contains("\"add_latency_p50_us\""));
        assert!(json.contains("\"add_latency_p99_us\""));
        assert!(json.contains("\"identical_to_fresh_prep\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
    }

    #[test]
    fn updates_percentiles_are_nearest_rank() {
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
        let mut one = [7.0];
        assert_eq!(percentile_us(&mut one, 0.99), 7.0);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_us(&mut v, 0.50), 51.0); // (99 * 0.5).round() = 50
        assert_eq!(percentile_us(&mut v, 0.99), 99.0); // (99 * 0.99).round() = 98
    }
}
