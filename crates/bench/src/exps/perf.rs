//! `perf` — the tracked PageRank wall-clock baseline.
//!
//! Unlike the exp*/fig* reproductions (which mirror the paper's tables),
//! this experiment exists for the *repo's own* performance trajectory:
//! fixed-seed R-MAT graphs at two scales, PageRank under every strategy
//! and, since format v3, under both the raw and the delta+varint `auto`
//! blob encodings, reporting counted read bytes per iteration and the
//! on-disk blob ratio alongside iterations/sec and traversed edges/sec.
//! Schema v4 adds the effective engine `threads` to every strategy row (so
//! the committed JSON can distinguish "1-core host" from "configured 1
//! thread") and embeds the [`scaling`] experiment's
//! thread-sweep + determinism section. Schema v5 adds
//! `read_syscalls_per_iter` per strategy row, a `cold_cache` flag
//! (`--cold-cache` drops the workload's page cache between reps) and an
//! `out_of_core` section: a forward-only R-MAT graph **prepared in
//! streamed chunks on real files** — never fully resident — run under
//! zero-budget SPU, with `O_DIRECT` reads when cold-cache mode is on, raw
//! vs compressed encoding side by side. Schema v6 follows the engine to
//! its single read pipeline: one strategy row per encoding × strategy
//! cell, keyed by `strategy` + `threads`, and no scheduler counters in the
//! out-of-core rows. With `--json` the results are written to
//! `BENCH_pagerank.json` (override with `--out PATH`) so successive PRs
//! can diff the numbers; CI runs it at a tiny scale, once per encoding, to
//! keep both paths from bit-rotting. `--encoding` pins a single policy for
//! the strategy grid; the default measures raw and auto side by side.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use nxgraph_bench::report::{fmt_secs, Table};
use nxgraph_bench::workloads::{prepare_os_disk, prepare_streamed_os};
use nxgraph_core::algo;
use nxgraph_core::dsss::SubShardView;
use nxgraph_core::engine::Strategy;
use nxgraph_graphgen::datasets::Dataset;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_core::PreparedGraph;
use nxgraph_storage::{
    Disk, DiskConfig, EncodingPolicy, IoProfileSnapshot, OsDisk, PacedDisk, ScratchDir,
    SharedBytes,
};

use crate::exps::scaling::{self, ScalingReport};
use crate::exps::{half_resident_budget, nx_cfg};
use crate::Opts;

/// Baseline R-MAT log2 scales before `--scale-shift` is applied.
const BASE_SCALES: [i32; 2] = [12, 15];

/// Edges per vertex of the fixture.
const EDGE_FACTOR: u32 = 16;

/// Base R-MAT log2 scale of the out-of-core section before
/// `--scale-shift`: large enough that the graph must stream from disk at
/// shift 0, tuned down by the same knob as everything else for CI.
const OOC_BASE_SCALE: i32 = 20;

/// One measured configuration.
struct Row {
    encoding: String,
    strategy: &'static str,
    /// Effective engine thread count of this run (post-clamping), not the
    /// raw `--threads` request.
    threads: usize,
    elapsed_secs: f64,
    iters_per_sec: f64,
    edges_per_sec: f64,
    /// Counted disk read traffic divided by iterations — the lever the
    /// compressed encoding moves.
    read_bytes_per_iter: u64,
    /// Read syscalls divided by iterations, from the per-disk I/O
    /// profile — the request-count companion to `read_bytes_per_iter`.
    read_syscalls_per_iter: u64,
}

/// Aggregate on-disk footprint of one encoding at one scale.
struct DiskReport {
    encoding: String,
    subshard_bytes: u64,
}

/// One measured dataset scale.
struct ScaleReport {
    dataset: String,
    scale: u32,
    vertices: u32,
    edges: u64,
    disk: Vec<DiskReport>,
    rows: Vec<Row>,
}

/// Sub-shard decode throughput: the zero-copy `SubShardView::parse`
/// (checksum skipped, the steady state under the verify-once policy) and
/// the delta+varint inflate path, in million edges per second.
struct DecodeReport {
    edges: u64,
    view_medges_per_sec: f64,
    compressed_medges_per_sec: f64,
    /// Compressed blob bytes over raw blob bytes for the fixture shard.
    compressed_blob_ratio: f64,
}

fn measure_decode(opts: &Opts) -> DecodeReport {
    // One dense sub-shard at the small perf scale: decode cost is linear
    // in edges, so a single fixture tracks the trajectory fine.
    let scale = ((BASE_SCALES[0] + opts.scale_shift).max(4) as u32).min(14);
    let cfg = RmatConfig::graph500(scale, EDGE_FACTOR, opts.seed);
    let edges: Vec<(u32, u32)> = rmat::generate(&cfg)
        .into_iter()
        .map(|e| (e.src as u32, e.dst as u32))
        .collect();
    let ss = SubShardView::from_edges(0, 0, edges);
    let m = ss.num_edges() as u64;
    let bytes = ss.encode_with(EncodingPolicy::Raw);
    let raw_len = bytes.len();
    let shared = SharedBytes::from(bytes);
    let compressed = ss.encode_with(EncodingPolicy::Compressed);
    let shared_compressed = SharedBytes::from(compressed.clone());
    let medges = |reps: u32, secs: f64| (reps as u64 * m) as f64 / 1e6 / secs.max(1e-9);

    let time_median = |f: &mut dyn FnMut()| {
        let mut samples = [0f64; 3];
        for s in &mut samples {
            const REPS: u32 = 8;
            let t = Instant::now();
            for _ in 0..REPS {
                f();
            }
            *s = medges(REPS, t.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[1]
    };

    let view = time_median(&mut || {
        std::hint::black_box(
            SubShardView::parse(shared.clone(), "perf", false)
                .unwrap()
                .num_edges(),
        );
    });
    let inflate = time_median(&mut || {
        std::hint::black_box(
            SubShardView::parse(shared_compressed.clone(), "perf", false)
                .unwrap()
                .num_edges(),
        );
    });
    DecodeReport {
        edges: m,
        view_medges_per_sec: view,
        compressed_medges_per_sec: inflate,
        compressed_blob_ratio: compressed.len() as f64 / raw_len as f64,
    }
}

/// Snapshot an [`OsDisk`]'s I/O profile (always present on real disks).
fn io_snap(os: &OsDisk) -> IoProfileSnapshot {
    os.io_profile().expect("OsDisk always profiles").snapshot()
}

fn dataset(scale: u32, opts: &Opts) -> Dataset {
    let cfg = RmatConfig::graph500(scale, EDGE_FACTOR, opts.seed);
    Dataset {
        name: format!("rmat-{scale}x{EDGE_FACTOR}"),
        edges: rmat::generate(&cfg),
    }
}

/// The encodings one run measures: both unless `--encoding` pins one.
fn encodings(opts: &Opts) -> Vec<EncodingPolicy> {
    match opts.encoding {
        Some(p) => vec![p],
        None => vec![EncodingPolicy::Raw, EncodingPolicy::Auto],
    }
}

fn measure(scale: u32, opts: &Opts) -> ScaleReport {
    let d = dataset(scale, opts);
    let mut rows = Vec::new();
    let mut disk = Vec::new();
    let mut shape = (0u32, 0u64);
    for encoding in encodings(opts) {
        // Real files (OsDisk): an out-of-core system's wall clock includes
        // read+decode, which is exactly what the read pipeline overlaps —
        // and inflation runs on its workers.
        let root = ScratchDir::new("perf");
        let (g, os) =
            prepare_os_disk(&d, 8, false, root.path(), encoding, DiskConfig::default());
        let n = g.num_vertices() as u64;
        shape = (g.num_vertices(), g.num_edges());
        disk.push(DiskReport {
            encoding: encoding.to_string(),
            subshard_bytes: g.total_subshard_bytes().expect("subshard sizes"),
        });
        for (name, strategy, budget) in [
            ("spu", Strategy::Spu, u64::MAX),
            ("mpu", Strategy::Mpu, half_resident_budget(n, 8)),
            ("dpu", Strategy::Dpu, 0),
        ] {
            let cfg = nx_cfg(opts).with_strategy(strategy).with_budget(budget);
            // One untimed warmup run, then the median of three measured
            // runs — single engine runs at these scales are noisy.
            algo::pagerank(&g, opts.iters, &cfg).expect("pagerank warmup");
            let mut samples = Vec::with_capacity(3);
            for _ in 0..3 {
                if opts.cold_cache {
                    os.drop_all_page_cache();
                }
                let before = io_snap(&os);
                let (_, stats) = algo::pagerank(&g, opts.iters, &cfg).expect("pagerank");
                let io = io_snap(&os).delta(&before);
                samples.push((stats.elapsed.as_secs_f64().max(1e-9), stats, io));
            }
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (secs, stats, io) = &samples[1];
            let iters = stats.iterations.max(1) as u64;
            rows.push(Row {
                encoding: encoding.to_string(),
                strategy: name,
                threads: cfg.threads,
                elapsed_secs: *secs,
                iters_per_sec: stats.iterations as f64 / secs,
                edges_per_sec: stats.edges_traversed as f64 / secs,
                read_bytes_per_iter: stats.io.read_bytes / iters,
                read_syscalls_per_iter: io.read_syscalls / iters,
            });
        }
    }
    ScaleReport {
        dataset: d.name,
        scale,
        vertices: shape.0,
        edges: shape.1,
        disk,
        rows,
    }
}

/// One encoding of the out-of-core workload, with the full per-disk I/O
/// profile of the median run.
struct OocRow {
    encoding: String,
    elapsed_secs: f64,
    iters_per_sec: f64,
    edges_per_sec: f64,
    read_bytes_per_iter: u64,
    io: IoProfileSnapshot,
}

/// The out-of-core section: streamed prep + zero-budget SPU on real
/// files, raw vs compressed.
struct OocReport {
    dataset: String,
    scale: u32,
    vertices: u32,
    edges: u64,
    cold_cache: bool,
    direct_requested: bool,
    /// `DeviceProfile` name the reads were paced to, or `"real"` for the
    /// container's actual (unpaced) device.
    device: String,
    prep_secs: f64,
    rows: Vec<OocRow>,
}

impl OocReport {
    /// Compressed-over-raw iterations/sec ratio — `> 1` means the
    /// compressed encoding wins wall-clock, the out-of-core design goal.
    fn compressed_speedup(&self) -> Option<f64> {
        let ips = |enc: &str| {
            self.rows
                .iter()
                .find(|r| r.encoding == enc)
                .map(|r| r.iters_per_sec)
        };
        match (ips("raw"), ips("compressed")) {
            (Some(raw), Some(c)) if raw > 0.0 => Some(c / raw),
            _ => None,
        }
    }
}

fn measure_out_of_core(opts: &Opts) -> OocReport {
    // `--ooc-scale` pins the workload size independently of the in-memory
    // sections: the committed cold-cache baseline runs the out-of-core
    // workload at scale ≥ 22 (where disk bandwidth, not request latency,
    // is the bottleneck) without dragging the warm sections up with it.
    let scale = opts
        .ooc_scale
        .unwrap_or_else(|| (OOC_BASE_SCALE + opts.scale_shift).max(6) as u32)
        .max(6);
    // O_DIRECT only in cold-cache mode: a warm-cache direct run would
    // compare apples (device reads) to oranges (page-cache hits).
    let disk_cfg = DiskConfig { direct_reads: opts.cold_cache };
    let mut rows = Vec::new();
    let mut shape = (String::new(), 0u32, 0u64);
    let mut prep_secs = 0.0f64;
    for encoding in [EncodingPolicy::Raw, EncodingPolicy::Compressed] {
        let root = ScratchDir::new("ooc");
        let t = Instant::now();
        let (g, os) = prepare_streamed_os(
            scale,
            EDGE_FACTOR,
            opts.seed,
            8,
            root.path(),
            encoding,
            disk_cfg,
        );
        prep_secs += t.elapsed().as_secs_f64();
        // Device emulation: reopen the graph through a pacing wrapper so
        // the measured iterations see the named profile's bandwidth and
        // seek behaviour (prep above ran unpaced; it isn't measured).
        let g = match &opts.ooc_device {
            Some(profile) => {
                drop(g);
                let paced: Arc<dyn Disk> =
                    Arc::new(PacedDisk::new(Arc::clone(&os) as Arc<dyn Disk>, *profile));
                PreparedGraph::open(paced).expect("reopen paced out-of-core graph")
            }
            None => g,
        };
        shape = (g.manifest().name.clone(), g.num_vertices(), g.num_edges());
        // SPU with a zero budget streams every sub-shard every iteration —
        // the most read-bound configuration, where the encoding's byte
        // savings translate directly into wall-clock.
        let cfg = nx_cfg(opts).with_strategy(Strategy::Spu).with_budget(0);
        algo::pagerank(&g, opts.iters, &cfg).expect("ooc warmup");
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            if opts.cold_cache {
                os.drop_all_page_cache();
            }
            let before = io_snap(&os);
            let (_, stats) = algo::pagerank(&g, opts.iters, &cfg).expect("ooc pagerank");
            let io = io_snap(&os).delta(&before);
            samples.push((stats.elapsed.as_secs_f64().max(1e-9), stats, io));
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (secs, stats, io) = &samples[1];
        rows.push(OocRow {
            encoding: encoding.to_string(),
            elapsed_secs: *secs,
            iters_per_sec: stats.iterations as f64 / secs,
            edges_per_sec: stats.edges_traversed as f64 / secs,
            read_bytes_per_iter: stats.io.read_bytes / stats.iterations.max(1) as u64,
            io: *io,
        });
    }
    OocReport {
        dataset: shape.0,
        scale,
        vertices: shape.1,
        edges: shape.2,
        cold_cache: opts.cold_cache,
        direct_requested: disk_cfg.direct_reads,
        device: opts
            .ooc_device
            .map_or_else(|| "real".to_string(), |p| p.name.to_string()),
        prep_secs,
        rows,
    }
}

impl ScaleReport {
    /// Raw-over-auto sub-shard byte ratio, when both encodings ran.
    fn blob_ratio(&self) -> Option<f64> {
        let find = |enc: &str| {
            self.disk
                .iter()
                .find(|d| d.encoding == enc)
                .map(|d| d.subshard_bytes)
        };
        match (find("raw"), find("auto")) {
            (Some(raw), Some(auto)) if auto > 0 => Some(raw as f64 / auto as f64),
            _ => None,
        }
    }
}

fn render_json(
    opts: &Opts,
    reports: &[ScaleReport],
    decode: &DecodeReport,
    ooc: &OocReport,
    scaling: &ScalingReport,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"pagerank\",");
    let _ = writeln!(s, "  \"schema_version\": 6,");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"iters\": {},", opts.iters);
    let _ = writeln!(s, "  \"threads\": {},", opts.threads);
    let _ = writeln!(s, "  \"cold_cache\": {},", opts.cold_cache);
    // Record the host's parallelism: numbers from a single-core host are
    // degenerate (the read pipeline has nothing to overlap) and should be
    // diffed only against baselines with comparable hardware.
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(s, "  \"host_parallelism\": {host},");
    let _ = writeln!(s, "  \"edge_factor\": {EDGE_FACTOR},");
    let _ = writeln!(s, "  \"scales\": [");
    for (si, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"dataset\": \"{}\",", r.dataset);
        let _ = writeln!(s, "      \"scale\": {},", r.scale);
        let _ = writeln!(s, "      \"vertices\": {},", r.vertices);
        let _ = writeln!(s, "      \"edges\": {},", r.edges);
        // `blob_ratio` only exists when both encodings were measured — a
        // pinned `--encoding` run must not fabricate a 1.0 ratio.
        let mut disk_fields: Vec<String> = r
            .disk
            .iter()
            .map(|d| format!("\"{}_subshard_bytes\": {}", d.encoding, d.subshard_bytes))
            .collect();
        if let Some(ratio) = r.blob_ratio() {
            disk_fields.push(format!("\"blob_ratio\": {ratio:.3}"));
        }
        let _ = writeln!(s, "      \"disk\": {{");
        let _ = writeln!(s, "        {}", disk_fields.join(",\n        "));
        let _ = writeln!(s, "      }},");
        let _ = writeln!(s, "      \"strategies\": [");
        for (ri, row) in r.rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "        {{\"encoding\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \"elapsed_secs\": {:.6}, \"iters_per_sec\": {:.3}, \"edges_per_sec\": {:.1}, \"read_bytes_per_iter\": {}, \"read_syscalls_per_iter\": {}}}{}",
                row.encoding,
                row.strategy,
                row.threads,
                row.elapsed_secs,
                row.iters_per_sec,
                row.edges_per_sec,
                row.read_bytes_per_iter,
                row.read_syscalls_per_iter,
                if ri + 1 < r.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(
            s,
            "    }}{}",
            if si + 1 < reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"subshard_decode\": {{\"edges\": {}, \"view_medges_per_sec\": {:.1}, \"compressed_medges_per_sec\": {:.1}, \"compressed_blob_ratio\": {:.3}}},",
        decode.edges,
        decode.view_medges_per_sec,
        decode.compressed_medges_per_sec,
        decode.compressed_blob_ratio
    );
    let _ = writeln!(s, "  \"out_of_core\": {{");
    let _ = writeln!(s, "    \"dataset\": \"{}\",", ooc.dataset);
    let _ = writeln!(s, "    \"scale\": {},", ooc.scale);
    let _ = writeln!(s, "    \"vertices\": {},", ooc.vertices);
    let _ = writeln!(s, "    \"edges\": {},", ooc.edges);
    let _ = writeln!(s, "    \"strategy\": \"spu\",");
    let _ = writeln!(s, "    \"cold_cache\": {},", ooc.cold_cache);
    let _ = writeln!(s, "    \"direct_requested\": {},", ooc.direct_requested);
    let _ = writeln!(s, "    \"device\": \"{}\",", ooc.device);
    let _ = writeln!(s, "    \"prep_secs\": {:.3},", ooc.prep_secs);
    let _ = writeln!(s, "    \"rows\": [");
    for (ri, row) in ooc.rows.iter().enumerate() {
        let io = &row.io;
        let _ = writeln!(
            s,
            "      {{\"encoding\": \"{}\", \"elapsed_secs\": {:.6}, \"iters_per_sec\": {:.3}, \"edges_per_sec\": {:.1}, \"read_bytes_per_iter\": {}, \"read_syscalls\": {}, \"direct_reads\": {}, \"direct_bytes\": {}, \"direct_fallbacks\": {}, \"cache_drops\": {}}}{}",
            row.encoding,
            row.elapsed_secs,
            row.iters_per_sec,
            row.edges_per_sec,
            row.read_bytes_per_iter,
            io.read_syscalls,
            io.direct_reads,
            io.direct_bytes,
            io.direct_fallbacks,
            io.cache_drops,
            if ri + 1 < ooc.rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ]{}", if ooc.compressed_speedup().is_some() { "," } else { "" });
    if let Some(speedup) = ooc.compressed_speedup() {
        let _ = writeln!(s, "    \"compressed_iters_per_sec_ratio\": {speedup:.3}");
    }
    let _ = writeln!(s, "  }},");
    let _ = write!(s, "  \"scaling\": ");
    scaling.write_json_object(&mut s, 2);
    let _ = writeln!(s);
    let _ = writeln!(s, "}}");
    s
}

/// Run the perf baseline; when `json_out` is set, also write the JSON
/// report there.
pub fn run(opts: &Opts, json_out: Option<&str>) -> bool {
    let mut reports = Vec::new();
    for base in BASE_SCALES {
        let scale = (base + opts.scale_shift).max(4) as u32;
        reports.push(measure(scale, opts));
    }
    let decode = measure_decode(opts);
    let ooc = measure_out_of_core(opts);
    // The thread-scaling sweep + bitwise determinism matrix ride along in
    // the same JSON, so the committed baseline carries the
    // multi-thread story; a determinism failure fails `perf` too.
    let scaling = scaling::measure(opts);

    for r in &reports {
        let mut t = Table::new(
            format!(
                "perf — PageRank on {} ({} vertices, {} edges, {} iters)",
                r.dataset, r.vertices, r.edges, opts.iters
            ),
            &[
                "encoding", "strategy", "threads", "time (s)", "iters/s", "edges/s",
                "read B/iter", "read calls/iter",
            ],
        );
        for row in &r.rows {
            t.row(vec![
                row.encoding.clone(),
                row.strategy.to_string(),
                row.threads.to_string(),
                fmt_secs(std::time::Duration::from_secs_f64(row.elapsed_secs)),
                format!("{:.2}", row.iters_per_sec),
                format!("{:.3e}", row.edges_per_sec),
                row.read_bytes_per_iter.to_string(),
                row.read_syscalls_per_iter.to_string(),
            ]);
        }
        t.print();
        if let Some(ratio) = r.blob_ratio() {
            println!("on-disk sub-shard blob ratio (raw/auto): {ratio:.2}x");
        }
    }
    println!(
        "\nsubshard_decode ({} edges): view {:.1} M edges/s, compressed inflate {:.1} M edges/s (blob {:.2}x smaller)",
        decode.edges,
        decode.view_medges_per_sec,
        decode.compressed_medges_per_sec,
        1.0 / decode.compressed_blob_ratio.max(1e-9)
    );

    let mut t = Table::new(
        format!(
            "perf — out-of-core PageRank on {} ({} vertices, {} edges, streamed prep {:.1}s, cold_cache={}, direct={}, device={})",
            ooc.dataset, ooc.vertices, ooc.edges, ooc.prep_secs, ooc.cold_cache,
            ooc.direct_requested, ooc.device
        ),
        &[
            "encoding", "time (s)", "iters/s", "read B/iter", "read syscalls", "direct B",
        ],
    );
    for row in &ooc.rows {
        t.row(vec![
            row.encoding.clone(),
            fmt_secs(std::time::Duration::from_secs_f64(row.elapsed_secs)),
            format!("{:.2}", row.iters_per_sec),
            row.read_bytes_per_iter.to_string(),
            row.io.read_syscalls.to_string(),
            row.io.direct_bytes.to_string(),
        ]);
    }
    t.print();
    if let Some(speedup) = ooc.compressed_speedup() {
        println!("out-of-core compressed/raw iters/sec: {speedup:.2}x");
    }

    if !scaling.deterministic() {
        eprintln!("perf: thread-scaling determinism matrix diverged (see `nxbench scaling`)");
    }

    if let Some(path) = json_out {
        let json = render_json(opts, &reports, &decode, &ooc, &scaling);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("perf: failed to write {path}: {e}");
            return false;
        }
        println!("\nwrote {path}");
    }
    scaling.deterministic()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let opts = Opts {
            scale_shift: -8,
            ..Opts::default()
        };
        let reports = vec![measure(5, &opts)];
        let decode = measure_decode(&opts);
        assert!(decode.edges > 0);
        assert!(decode.view_medges_per_sec > 0.0);
        assert!(decode.compressed_medges_per_sec > 0.0);
        assert!(decode.compressed_blob_ratio > 0.0 && decode.compressed_blob_ratio < 1.0);
        let ooc = measure_out_of_core(&opts);
        assert_eq!(ooc.rows.len(), 2);
        assert!(ooc.compressed_speedup().is_some());
        let json = render_json(&opts, &reports, &decode, &ooc, &scaling::stub_report());
        assert!(json.contains("\"schema_version\": 6"));
        assert!(json.contains("\"bench\": \"pagerank\""));
        // Every strategy row is keyed by strategy + effective threads, and
        // there is exactly one per encoding × strategy cell.
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"encoding\":") && l.contains("\"strategy\":"))
            .collect();
        assert_eq!(rows.len(), 2 * 3, "one row per encoding × strategy");
        for line in rows {
            assert!(line.contains("\"threads\":"), "row missing threads: {line}");
            assert!(
                line.contains("\"read_syscalls_per_iter\":"),
                "row missing read_syscalls_per_iter: {line}"
            );
        }
        assert!(json.contains("\"cold_cache\": false"));
        assert!(json.contains("\"out_of_core\": {"));
        assert!(json.contains("\"device\": \"real\""));
        assert!(json.contains("\"encoding\": \"compressed\""));
        assert!(json.contains("\"direct_requested\": false"));
        assert!(json.contains("\"compressed_iters_per_sec_ratio\""));
        assert!(json.contains("\"scaling\": {"));
        assert!(json.contains("\"bitwise_identical\""));
        assert!(json.contains("\"strategy\": \"spu\""));
        assert!(json.contains("\"strategy\": \"dpu\""));
        assert!(json.contains("\"encoding\": \"raw\""));
        assert!(json.contains("\"encoding\": \"auto\""));
        assert!(json.contains("\"raw_subshard_bytes\""));
        assert!(json.contains("\"auto_subshard_bytes\""));
        assert!(json.contains("\"blob_ratio\""));
        assert!(json.contains("\"read_bytes_per_iter\""));
        assert!(json.contains("\"subshard_decode\""));
        assert!(json.contains("\"compressed_medges_per_sec\""));
        // Balanced braces/brackets — no JSON parser in-tree, so check the
        // structural invariants the consumer scripts rely on.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        // Auto must actually shrink the fixture and cut read traffic.
        let r = &reports[0];
        let ratio = r.blob_ratio().expect("both encodings measured");
        assert!(ratio > 1.0, "auto encoding did not shrink blobs: {ratio}");
        let read_of = |enc: &str, strat: &str| {
            r.rows
                .iter()
                .find(|row| row.encoding == enc && row.strategy == strat)
                .map(|row| row.read_bytes_per_iter)
                .unwrap()
        };
        assert!(read_of("auto", "spu") < read_of("raw", "spu"));
    }

    #[test]
    fn pinned_encoding_measures_only_that_path() {
        let opts = Opts {
            scale_shift: -8,
            encoding: Some(EncodingPolicy::Raw),
            ..Opts::default()
        };
        let r = measure(5, &opts);
        assert!(r.rows.iter().all(|row| row.encoding == "raw"));
        assert_eq!(r.disk.len(), 1);
        assert!(r.blob_ratio().is_none());
        let json = render_json(
            &opts,
            &[r],
            &measure_decode(&opts),
            &measure_out_of_core(&opts),
            &scaling::stub_report(),
        );
        assert!(!json.contains("\"encoding\": \"auto\""));
        assert!(
            !json.contains("\"blob_ratio\""),
            "a pinned run must not fabricate a ratio"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
