//! `serve` — the tracked concurrent-serving baseline.
//!
//! A fixed-seed R-MAT fixture is wrapped in a
//! [`GraphService`] and hit with a mixed
//! read/update stream: reader threads run point queries (BFS, SSSP,
//! PPR-from-seed, top-k PageRank) through admission control while the
//! writer commits known-vertex edge batches and background maintenance
//! folds chains underneath them. Measured: queries/sec, per-query p50/p99
//! latency, admission rejections (busy + budget), and the maximum
//! snapshot lag any query observed (how many commits landed while it ran
//! on its pin). A burst phase fires more arrivals than slots with no
//! retry, so the rejection path is exercised, not just plumbed.
//!
//! Two correctness gates fail the run outright:
//!
//! * zero query errors — every admitted query must complete;
//! * snapshot isolation — a snapshot pinned *before* the stream must
//!   answer bitwise-identically after every commit, fold and an explicit
//!   compaction have superseded its generation, and must match a fresh
//!   preparation of the base edge set.
//!
//! With `--json` the results land in `BENCH_serve.json` (schema v1);
//! CI uploads a tiny-scale run as an artifact.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nxgraph_bench::report::{fmt_secs, Table};
use nxgraph_core::algo;
use nxgraph_core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph_core::engine::EngineConfig;
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::serve::{GraphService, Query, ServeConfig, ServeError, Snapshot};
use nxgraph_core::PreparedGraph;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, MemDisk};
use rand::{Rng, SeedableRng};

use crate::Opts;

/// Baseline R-MAT log2 scale before `--scale-shift` is applied.
const BASE_SCALE: i32 = 11;

/// Edges per vertex of the fixture.
const EDGE_FACTOR: u32 = 8;

/// Number of intervals of the prepared fixture.
const P: u32 = 8;

/// Reader threads in the mixed phase.
const READERS: usize = 4;

/// Queries issued across all readers in the mixed phase.
const QUERIES: usize = 48;

/// Update batches the writer commits concurrently.
const UPDATE_BATCHES: usize = 8;

/// Edges per update batch.
const BATCH_SIZE: usize = 128;

/// Threads in the burst phase (more arrivals than admission slots).
const BURST_THREADS: usize = 12;

struct Report {
    scale: u32,
    vertices: u32,
    edges_base: u64,
    elapsed_secs: f64,
    queries_per_sec: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    admitted: u64,
    rejected_busy: u64,
    rejected_budget: u64,
    errors: u64,
    max_snapshot_lag: u64,
    burst_arrivals: u64,
    burst_rejected: u64,
    snapshot_isolated: bool,
    sweeps_drained: bool,
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile_us(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// PageRank bits of a pinned snapshot (or any prepared graph) under one
/// fixed single-thread configuration — the isolation comparator.
fn fingerprint(g: &PreparedGraph, iters: usize) -> Vec<u64> {
    let cfg = EngineConfig::default().with_threads(1);
    let (ranks, _) = algo::pagerank(g, iters, &cfg).expect("pagerank");
    ranks.into_iter().map(f64::to_bits).collect()
}

/// The deterministic query for stream position `k` on `n` vertices.
fn query_for(k: u64, n: u32, seed: u64) -> Query {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (k << 1) ^ 0x5e52e);
    let a = rng.random_range(0..n);
    let b = rng.random_range(0..n);
    match k % 4 {
        0 => Query::Bfs { root: a, target: b },
        1 => Query::Sssp { root: a, target: b },
        2 => Query::PprFromSeed {
            seed: a,
            iterations: 5,
            k: 8,
        },
        _ => Query::PageRankTopK {
            iterations: 3,
            k: 8,
        },
    }
}

fn measure(opts: &Opts) -> Report {
    let scale = (BASE_SCALE + opts.scale_shift).max(6) as u32;
    let raw: Vec<(u64, u64)> =
        rmat::generate(&RmatConfig::graph500(scale, EDGE_FACTOR, opts.seed))
            .into_iter()
            .map(|e| (e.src, e.dst))
            .collect();
    let prep_cfg = PrepConfig::new("serve-fixture", P);
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let base = preprocess(&raw, &prep_cfg, Arc::clone(&disk)).expect("prep");
    let vertices = base.num_vertices();
    let edges_base = base.num_edges();
    let known = base.load_reverse_mapping().expect("mapping");

    // Background folds: commits only append and signal; the maintenance
    // thread supersedes generations underneath live snapshots.
    let dg = DynamicGraph::with_config(base, DynamicConfig::background()).expect("dynamic");
    let svc =
        GraphService::new(dg, ServeConfig::default()).expect("delta-log mode is serviceable");

    // Pin BEFORE the stream: this snapshot must answer identically after
    // every commit, fold and compaction supersede its generation.
    let pinned: Snapshot = svc.snapshot().expect("pin epoch 0");
    let bits_before = fingerprint(pinned.graph(), opts.iters.min(5));

    // Mixed phase: READERS query threads + the writer on this thread.
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(QUERIES));
    let retried = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..READERS {
            let svc = &svc;
            let latencies = &latencies;
            let retried = &retried;
            scope.spawn(move || {
                let mut k = r as u64;
                while k < QUERIES as u64 {
                    let q = query_for(k, vertices, opts.seed);
                    let qs = Instant::now();
                    match svc.run_query(&q) {
                        Ok(_) => {
                            latencies
                                .lock()
                                .unwrap()
                                .push(qs.elapsed().as_secs_f64() * 1e6);
                            k += READERS as u64;
                        }
                        Err(ServeError::Busy { .. }) | Err(ServeError::OutOfMemory { .. }) => {
                            retried.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("query {k} failed: {e}"),
                    }
                }
            });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x57ea3);
        for _ in 0..UPDATE_BATCHES {
            let batch: Vec<(u64, u64)> = (0..BATCH_SIZE)
                .map(|_| {
                    let s = known[rng.random_range(0..known.len())];
                    let d = known[rng.random_range(0..known.len())];
                    (s, d)
                })
                .collect();
            svc.add_edges(&batch).expect("known-vertex commit");
        }
    });
    let elapsed = started.elapsed();
    let mixed = svc.stats();

    // Burst phase: every admission slot is pinned by an operator hold
    // while BURST_THREADS arrivals fire, no retry — all of them must
    // come back as typed Busy rejections, never queue. The hold makes
    // the saturation deterministic instead of racing query runtimes.
    let hold = svc
        .hold_slots(ServeConfig::default().max_concurrent)
        .expect("slots idle between phases");
    std::thread::scope(|scope| {
        for t in 0..BURST_THREADS {
            let svc = &svc;
            scope.spawn(move || {
                let q = query_for(t as u64, vertices, opts.seed ^ 0xb);
                let _ = svc.run_query(&q);
            });
        }
    });
    drop(hold);
    let burst = svc.stats();

    // Supersede the pinned generation completely: quiesce maintenance,
    // fold every chain, sweep. The pin must hold the old files alive.
    svc.with_writer(|dg| {
        dg.wait_maintenance_idle().expect("maintenance idle");
        dg.compact().expect("compact");
    });
    let bits_after = fingerprint(pinned.graph(), opts.iters.min(5));

    // A fresh preparation of the base edges is the ground truth for the
    // epoch the snapshot pinned.
    let fresh_disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let fresh = preprocess(&raw, &prep_cfg, fresh_disk).expect("fresh prep");
    let bits_fresh = fingerprint(&fresh, opts.iters.min(5));
    let snapshot_isolated = bits_before == bits_after && bits_before == bits_fresh;

    // Dropping the last old-generation pin must drain the sweep queue.
    drop(pinned);
    let sweeps_drained = svc.with_writer(|dg| {
        dg.refresh().expect("refresh");
        dg.pending_sweeps() == 0
    });

    let mut lat = latencies.into_inner().unwrap();
    Report {
        scale,
        vertices,
        edges_base,
        elapsed_secs: elapsed.as_secs_f64(),
        queries_per_sec: lat.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_p50_us: percentile_us(&mut lat, 0.50),
        latency_p99_us: percentile_us(&mut lat, 0.99),
        admitted: burst.admitted,
        rejected_busy: burst.rejected_busy,
        rejected_budget: burst.rejected_budget,
        errors: burst.errors,
        max_snapshot_lag: mixed.max_snapshot_lag,
        burst_arrivals: BURST_THREADS as u64,
        burst_rejected: (burst.rejected_busy - mixed.rejected_busy)
            + (burst.rejected_budget - mixed.rejected_budget),
        snapshot_isolated,
        sweeps_drained,
    }
}

fn render_json(opts: &Opts, r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"serve\",");
    let _ = writeln!(s, "  \"schema_version\": 1,");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"scale\": {},", r.scale);
    let _ = writeln!(s, "  \"edge_factor\": {EDGE_FACTOR},");
    let _ = writeln!(s, "  \"intervals\": {P},");
    let _ = writeln!(s, "  \"vertices\": {},", r.vertices);
    let _ = writeln!(s, "  \"edges_base\": {},", r.edges_base);
    let _ = writeln!(s, "  \"readers\": {READERS},");
    let _ = writeln!(s, "  \"queries\": {QUERIES},");
    let _ = writeln!(s, "  \"update_batches\": {UPDATE_BATCHES},");
    let _ = writeln!(s, "  \"batch_size\": {BATCH_SIZE},");
    let _ = writeln!(s, "  \"elapsed_secs\": {:.6},", r.elapsed_secs);
    let _ = writeln!(s, "  \"queries_per_sec\": {:.1},", r.queries_per_sec);
    let _ = writeln!(s, "  \"latency_p50_us\": {:.1},", r.latency_p50_us);
    let _ = writeln!(s, "  \"latency_p99_us\": {:.1},", r.latency_p99_us);
    let _ = writeln!(s, "  \"admitted\": {},", r.admitted);
    let _ = writeln!(
        s,
        "  \"rejections\": {{\"busy\": {}, \"budget\": {}}},",
        r.rejected_busy, r.rejected_budget
    );
    let _ = writeln!(s, "  \"errors\": {},", r.errors);
    let _ = writeln!(s, "  \"max_snapshot_lag\": {},", r.max_snapshot_lag);
    let _ = writeln!(
        s,
        "  \"burst\": {{\"arrivals\": {}, \"rejected\": {}}},",
        r.burst_arrivals, r.burst_rejected
    );
    let _ = writeln!(s, "  \"snapshot_isolated\": {},", r.snapshot_isolated);
    let _ = writeln!(s, "  \"sweeps_drained\": {}", r.sweeps_drained);
    let _ = writeln!(s, "}}");
    s
}

/// Run the serving baseline; when `json_out` is set, also write the JSON
/// report there. Returns `false` (failing the harness) on any query
/// error or an isolation/reclamation violation.
pub fn run(opts: &Opts, json_out: Option<&str>) -> bool {
    let r = measure(opts);
    let mut t = Table::new(
        format!(
            "serve — {} queries / {} readers over rmat-{}x{} ({} vertices, {} base edges), {} x {}-edge commits concurrent",
            QUERIES, READERS, r.scale, EDGE_FACTOR, r.vertices, r.edges_base, UPDATE_BATCHES, BATCH_SIZE
        ),
        &[
            "phase", "time", "queries/s", "p50 µs", "p99 µs", "admitted", "busy", "budget",
            "errors", "max lag",
        ],
    );
    t.row(vec![
        "mixed+burst".to_string(),
        fmt_secs(std::time::Duration::from_secs_f64(r.elapsed_secs)),
        format!("{:.1}", r.queries_per_sec),
        format!("{:.1}", r.latency_p50_us),
        format!("{:.1}", r.latency_p99_us),
        r.admitted.to_string(),
        r.rejected_busy.to_string(),
        r.rejected_budget.to_string(),
        r.errors.to_string(),
        r.max_snapshot_lag.to_string(),
    ]);
    t.print();
    println!(
        "burst: {} arrivals with all {} slots held, {} rejected (typed, no queueing)",
        r.burst_arrivals,
        ServeConfig::default().max_concurrent,
        r.burst_rejected
    );
    println!(
        "snapshot pinned across the whole stream + compaction: bitwise isolated {}, sweeps drained after drop {}",
        r.snapshot_isolated, r.sweeps_drained
    );
    if let Some(path) = json_out {
        let json = render_json(opts, &r);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("serve: failed to write {path}: {e}");
            return false;
        }
        println!("wrote {path}");
    }
    r.errors == 0 && r.snapshot_isolated && r.sweeps_drained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_json_is_well_formed_and_isolated() {
        let opts = Opts {
            scale_shift: -6,
            iters: 3,
            ..Opts::default()
        };
        let r = measure(&opts);
        assert_eq!(r.errors, 0, "admitted queries failed");
        assert!(r.snapshot_isolated, "pinned snapshot diverged");
        assert!(r.sweeps_drained, "sweep queue left entries after last unpin");
        assert!(r.admitted >= QUERIES as u64);
        assert_eq!(
            r.burst_rejected, BURST_THREADS as u64,
            "with every slot held, all burst arrivals must be rejected"
        );
        assert!(r.queries_per_sec > 0.0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        let json = render_json(&opts, &r);
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"queries_per_sec\""));
        assert!(json.contains("\"latency_p50_us\""));
        assert!(json.contains("\"latency_p99_us\""));
        assert!(json.contains("\"rejections\": {"));
        assert!(json.contains("\"errors\": 0"));
        assert!(json.contains("\"max_snapshot_lag\""));
        assert!(json.contains("\"snapshot_isolated\": true"));
        assert!(json.contains("\"sweeps_drained\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
    }
}
