//! `scaling` — the repo's own rerun of the paper's thread-scaling
//! experiment (Exp 5 / Fig 10), tracked per PR like `perf`.
//!
//! Two halves, both keyed to the multi-threaded engine:
//!
//! * **Sweep** — PageRank on the scale-15 R-MAT fixture under every
//!   strategy at 1/2/4/8 engine threads, reporting iters/sec and the
//!   speedup over the 1-thread run. `host_parallelism` is recorded
//!   because the sweep is only meaningful on a multi-core host: on one
//!   core the extra workers just time-slice.
//! * **Determinism matrix** — every algorithm × {SPU, DPU, MPU} on a
//!   tiny fixed fixture, asserted bitwise-identical at 1, 2, 4 and 8
//!   threads. The run *fails* (non-zero exit) if any
//!   cell diverges, so the CI artifact doubles as a gate: speedups are
//!   host-dependent, bit-equality is not.
//!
//! `--json` writes `BENCH_scaling.json` (`--out` overrides); `perf`
//! embeds the same report as its `"scaling"` section (schema v4).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use nxgraph_bench::report::Table;
use nxgraph_bench::workloads::prepare_os_enc;
use nxgraph_core::algo::{self, sssp, PersonalizedPageRank};
use nxgraph_core::dsss::PreparedGraph;
use nxgraph_core::engine::{self, EngineConfig, Strategy};
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_graphgen::datasets::Dataset;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, EncodingPolicy, MemDisk, ScratchDir};

use crate::exps::{half_resident_budget, nx_cfg};
use crate::Opts;

/// Baseline R-MAT log2 scale of the sweep fixture before `--scale-shift`
/// (the perf baseline's larger scale, per the issue's acceptance bar).
const BASE_SCALE: i32 = 15;

/// Edges per vertex of the fixture.
const EDGE_FACTOR: u32 = 16;

/// Engine thread counts the sweep measures.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Thread counts the determinism matrix compares against the 1-thread run.
const DET_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The algorithms of the determinism matrix, with the per-vertex value
/// width that sets each one's half-resident MPU budget.
const ALGOS: [(&str, u64); 8] = [
    ("pagerank", 8),
    ("bfs", 4),
    ("sssp", 8),
    ("wcc", 4),
    ("scc", 4),
    ("kcore", 4),
    ("hits", 8),
    ("ppr", 8),
];

/// One measured (strategy, threads) cell of the sweep.
struct SweepRow {
    strategy: &'static str,
    threads: usize,
    elapsed_secs: f64,
    iters_per_sec: f64,
    edges_per_sec: f64,
    /// iters/sec relative to the same strategy's 1-thread run.
    speedup: f64,
}

/// Outcome of the bitwise determinism matrix.
struct Determinism {
    algos: usize,
    cells: usize,
    identical: bool,
    /// `algo/strategy@threads` labels of any diverging cells.
    failures: Vec<String>,
}

/// Everything one `scaling` run measured.
pub struct ScalingReport {
    dataset: String,
    scale: u32,
    vertices: u32,
    edges: u64,
    rows: Vec<SweepRow>,
    det: Determinism,
}

/// Run one algorithm and collapse its output to a bit-exact fingerprint
/// (the bench-side twin of the pipeline test helper).
fn algo_fingerprint(algo_name: &str, g: &PreparedGraph, cfg: &EngineConfig) -> Vec<u64> {
    let f64_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let u32_words = |v: Vec<u32>| v.into_iter().map(u64::from).collect::<Vec<u64>>();
    match algo_name {
        "pagerank" => {
            f64_bits(algo::pagerank(g, 6, &cfg.clone().with_max_iterations(6)).unwrap().0)
        }
        "bfs" => u32_words(algo::bfs(g, 0, cfg).unwrap().0),
        "sssp" => {
            let prog = algo::Sssp::new(0, sssp::hash_weights(0.5, 2.5));
            let cfg = cfg.clone().with_max_iterations(g.num_vertices() as usize + 1);
            f64_bits(engine::run(g, &prog, &cfg).unwrap().0)
        }
        "wcc" => u32_words(algo::wcc(g, cfg).unwrap().0),
        "scc" => u32_words(algo::scc(g, cfg).unwrap().labels),
        "kcore" => u32_words(algo::kcore(g, 3, cfg).unwrap().0),
        "hits" => {
            let out = algo::hits(g, 6, cfg).unwrap();
            let mut bits = f64_bits(out.authorities);
            bits.extend(f64_bits(out.hubs));
            bits
        }
        "ppr" => {
            let prog = PersonalizedPageRank::new([0u32, 3], Arc::clone(g.out_degrees()));
            f64_bits(engine::run(g, &prog, &cfg.clone().with_max_iterations(8)).unwrap().0)
        }
        other => unreachable!("unknown algorithm {other}"),
    }
}

fn tiny_graph(raw: &[(u64, u64)]) -> PreparedGraph {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let cfg = PrepConfig::new("scaling-det", 5).with_encoding(EncodingPolicy::Auto);
    preprocess(raw, &cfg, disk).unwrap()
}

/// The bitwise matrix: fixed tiny fixture (independent of `--scale-shift`
/// so the gate is the same everywhere), every algorithm × strategy, 2/4/8
/// threads against the 1-thread fingerprint.
fn determinism_matrix() -> Determinism {
    let raw: Vec<(u64, u64)> = rmat::generate(&RmatConfig::graph500(8, 6, 41))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    // k-core reads the graph as undirected; symmetrise for it only.
    let sym: Vec<(u64, u64)> = raw.iter().flat_map(|&(s, d)| [(s, d), (d, s)]).collect();
    let g = tiny_graph(&raw);
    let g_sym = tiny_graph(&sym);

    let mut cells = 0usize;
    let mut failures = Vec::new();
    for (algo_name, value_size) in ALGOS {
        let graph = if algo_name == "kcore" { &g_sym } else { &g };
        let n = graph.num_vertices() as u64;
        for (sname, strategy, budget) in [
            ("spu", Strategy::Spu, u64::MAX),
            ("dpu", Strategy::Dpu, 0),
            ("mpu", Strategy::Mpu, half_resident_budget(n, value_size)),
        ] {
            let base = EngineConfig::default().with_strategy(strategy).with_budget(budget);
            let mut reference: Option<Vec<u64>> = None;
            for threads in DET_THREADS {
                let fp = algo_fingerprint(algo_name, graph, &base.clone().with_threads(threads));
                cells += 1;
                match &reference {
                    None => reference = Some(fp),
                    Some(r) if *r == fp => {}
                    Some(_) => failures.push(format!("{algo_name}/{sname}@{threads}")),
                }
            }
        }
    }
    Determinism {
        algos: ALGOS.len(),
        cells,
        identical: failures.is_empty(),
        failures,
    }
}

/// The thread sweep on the scale fixture: PageRank per strategy at each
/// thread count, warmup + median of three.
fn measure_sweep(opts: &Opts) -> ScalingReport {
    let scale = (BASE_SCALE + opts.scale_shift).max(4) as u32;
    let cfg = RmatConfig::graph500(scale, EDGE_FACTOR, opts.seed);
    let d = Dataset {
        name: format!("rmat-{scale}x{EDGE_FACTOR}"),
        edges: rmat::generate(&cfg),
    };
    let root = ScratchDir::new("scaling");
    // `auto` encoding: the default modern path, and the one whose decode
    // cost the read pipeline's workers actually overlap.
    let g = prepare_os_enc(&d, 8, false, root.path(), EncodingPolicy::Auto);
    let n = g.num_vertices() as u64;

    let mut rows = Vec::new();
    for (name, strategy, budget) in [
        ("spu", Strategy::Spu, u64::MAX),
        ("mpu", Strategy::Mpu, half_resident_budget(n, 8)),
        ("dpu", Strategy::Dpu, 0),
    ] {
        let mut base_ips: Option<f64> = None;
        for threads in THREAD_SWEEP {
            let cfg = nx_cfg(opts)
                .with_threads(threads)
                .with_strategy(strategy)
                .with_budget(budget);
            algo::pagerank(&g, opts.iters, &cfg).expect("pagerank warmup");
            let mut samples = Vec::with_capacity(3);
            for _ in 0..3 {
                let t = Instant::now();
                let (_, stats) = algo::pagerank(&g, opts.iters, &cfg).expect("pagerank");
                samples.push((t.elapsed().as_secs_f64().max(1e-9), stats));
            }
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (secs, stats) = &samples[1];
            let ips = stats.iterations as f64 / secs;
            let base = *base_ips.get_or_insert(ips);
            rows.push(SweepRow {
                strategy: name,
                threads,
                elapsed_secs: *secs,
                iters_per_sec: ips,
                edges_per_sec: stats.edges_traversed as f64 / secs,
                speedup: ips / base.max(1e-12),
            });
        }
    }
    let (vertices, edges) = (g.num_vertices(), g.num_edges());
    ScalingReport {
        dataset: d.name,
        scale,
        vertices,
        edges,
        rows,
        det: determinism_matrix(),
    }
}

/// Measure everything the `scaling` experiment reports.
pub fn measure(opts: &Opts) -> ScalingReport {
    measure_sweep(opts)
}

impl ScalingReport {
    /// Whether the bitwise matrix held at every thread count.
    pub fn deterministic(&self) -> bool {
        self.det.identical
    }

    /// Append the report as a JSON object (no trailing newline) at
    /// `indent` spaces — shared by the standalone `scaling` JSON and the
    /// `"scaling"` section `perf` embeds (schema v4).
    pub fn write_json_object(&self, s: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "{pad}  \"dataset\": \"{}\",", self.dataset);
        let _ = writeln!(s, "{pad}  \"scale\": {},", self.scale);
        let _ = writeln!(s, "{pad}  \"vertices\": {},", self.vertices);
        let _ = writeln!(s, "{pad}  \"edges\": {},", self.edges);
        let sweep: Vec<String> = THREAD_SWEEP.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(s, "{pad}  \"thread_sweep\": [{}],", sweep.join(", "));
        let _ = writeln!(s, "{pad}  \"rows\": [");
        for (ri, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "{pad}    {{\"strategy\": \"{}\", \"threads\": {}, \"elapsed_secs\": {:.6}, \"iters_per_sec\": {:.3}, \"edges_per_sec\": {:.1}, \"speedup\": {:.3}}}{}",
                r.strategy,
                r.threads,
                r.elapsed_secs,
                r.iters_per_sec,
                r.edges_per_sec,
                r.speedup,
                if ri + 1 < self.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "{pad}  ],");
        let failures: Vec<String> = self
            .det
            .failures
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        let _ = writeln!(
            s,
            "{pad}  \"determinism\": {{\"algos\": {}, \"cells\": {}, \"threads\": [1, 2, 4, 8], \"bitwise_identical\": {}, \"failures\": [{}]}}",
            self.det.algos,
            self.det.cells,
            self.det.identical,
            failures.join(", ")
        );
        let _ = write!(s, "{pad}}}");
    }
}

/// A canned report for tests of callers that only need the JSON shape
/// (the real sweep + matrix is exercised by this module's own test).
#[cfg(test)]
pub(crate) fn stub_report() -> ScalingReport {
    ScalingReport {
        dataset: "stub".into(),
        scale: 5,
        vertices: 32,
        edges: 64,
        rows: vec![SweepRow {
            strategy: "spu",
            threads: 1,
            elapsed_secs: 0.001,
            iters_per_sec: 1000.0,
            edges_per_sec: 64000.0,
            speedup: 1.0,
        }],
        det: Determinism {
            algos: 8,
            cells: 96,
            identical: true,
            failures: Vec::new(),
        },
    }
}

fn render_json(opts: &Opts, r: &ScalingReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"scaling\",");
    let _ = writeln!(s, "  \"schema_version\": 1,");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"iters\": {},", opts.iters);
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(s, "  \"host_parallelism\": {host},");
    let _ = write!(s, "  \"scaling\": ");
    r.write_json_object(&mut s, 2);
    let _ = writeln!(s);
    let _ = writeln!(s, "}}");
    s
}

/// Run the scaling experiment; fails (returns `false`) if any determinism
/// cell diverged. When `json_out` is set, also write the JSON report.
pub fn run(opts: &Opts, json_out: Option<&str>) -> bool {
    let r = measure(opts);

    let mut t = Table::new(
        format!(
            "scaling — PageRank on {} ({} vertices, {} edges, {} iters)",
            r.dataset, r.vertices, r.edges, opts.iters
        ),
        &["strategy", "threads", "time (s)", "iters/s", "edges/s", "speedup"],
    );
    for row in &r.rows {
        t.row(vec![
            row.strategy.to_string(),
            row.threads.to_string(),
            format!("{:.4}", row.elapsed_secs),
            format!("{:.2}", row.iters_per_sec),
            format!("{:.3e}", row.edges_per_sec),
            format!("{:.2}x", row.speedup),
        ]);
    }
    t.print();
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host parallelism: {host} (speedups need cores to show)");
    if r.det.identical {
        println!(
            "determinism: {} cells across {} algorithms bitwise-identical at 1/2/4/8 threads",
            r.det.cells, r.det.algos
        );
    } else {
        eprintln!(
            "scaling: DETERMINISM FAILURE — {} diverging cells: {}",
            r.det.failures.len(),
            r.det.failures.join(", ")
        );
    }

    if let Some(path) = json_out {
        let json = render_json(opts, &r);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("scaling: failed to write {path}: {e}");
            return false;
        }
        println!("\nwrote {path}");
    }
    r.det.identical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_json_is_well_formed_and_deterministic() {
        // Deep negative shift keeps the sweep fixture tiny; the
        // determinism matrix is fixed-size regardless.
        let opts = Opts {
            scale_shift: -10,
            iters: 2,
            ..Opts::default()
        };
        let r = measure(&opts);
        assert!(
            r.deterministic(),
            "determinism matrix diverged: {:?}",
            r.det.failures
        );
        assert_eq!(r.rows.len(), 3 * THREAD_SWEEP.len());
        // Every strategy's 1-thread row is its own speedup baseline.
        for row in r.rows.iter().filter(|row| row.threads == 1) {
            assert!((row.speedup - 1.0).abs() < 1e-9, "{}", row.strategy);
        }
        let json = render_json(&opts, &r);
        assert!(json.contains("\"bench\": \"scaling\""));
        assert!(json.contains("\"thread_sweep\": [1, 2, 4, 8]"));
        assert!(json.contains("\"bitwise_identical\": true"));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"speedup\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
    }
}
