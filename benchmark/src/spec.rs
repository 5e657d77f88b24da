//! The benchmark's contract as data: workload names, every metric's name,
//! unit, direction and (for end-to-end metrics) regression bound, plus the
//! prediction of which end-to-end metric a layer metric should move.
//!
//! `BENCHMARK.json` at the repository root is `nxmark spec` verbatim; a
//! unit test fails when the two drift.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). Stream
/// lengths scale with it: 25 commits / 25 queries per second.
pub const RUN_SECONDS: u64 = 8;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pr-spu-resident",
        why: "PageRank x10, R-MAT 2^19 x16, raw store, SPU, unlimited budget: all sub-shards cached, so kernel/finalize/parallel dominate and disk, checksum and decode changes must not move it",
    },
    Workload {
        name: "pr-dpu-stream",
        why: "Same graph, delta+varint store on a RAM disk, DPU at 1 MiB: every iteration re-reads, verifies and inflates every sub-shard and writes+merges every hub; the sub-shard cache is bypassed",
    },
    Workload {
        name: "pr-mpu-paced-hdd",
        why: "Same store behind PacedDisk(HDD), MPU with half the intervals resident: device-bound, so only bytes, seek order and I/O-compute overlap matter; a pure decode speed-up shows little",
    },
    Workload {
        name: "bfs-mesh-frontier",
        why: "BFS over a 512x512 mesh, MPU half resident: 512 short iterations and ~100k small blob reads, so per-iteration and per-blob fixed costs dominate instead of edges/s",
    },
    Workload {
        name: "updates-delta",
        why: "One client commits 1024-edge batches back to back into a default DynamicGraph (R-MAT 2^16 x16): append, inline fold, manifest save and sweep alone, deterministic, through several fold cycles",
    },
    Workload {
        name: "serve-mixed",
        why: "Closed loop of one query client (BFS/SSSP/PPR/top-k) and one ticketed writer on a GraphService with background maintenance: reads beside writes on two cores, where tails are made",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (tracing off). "Operation"
/// is the workload's timed unit: one complete `algo::pagerank` /
/// `algo::bfs` call, one `add_edges` commit, or one `run_query`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "generate + preprocess + PreparedGraph::open (+ DynamicGraph / GraphService start); median of the run's set-ups",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "median latency of one operation",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "nearest-rank p95 of operation latency (ten samples beyond it on the two stream workloads; the slowest run where fewer than 20 runs fit)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "operations / wall time of the timed stream (analytics: of the calls themselves)",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "process CPU time (user+system, all threads) over the timed stream / operations",
    },
    EndToEnd {
        name: "io_bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.10,
        what: "counted bytes read + written (IoSnapshot) over the timed stream / operations",
    },
    EndToEnd {
        name: "store_bytes_per_edge",
        unit: "B",
        better: Lower,
        bound: 0.02,
        what: "bytes of all files in the store / edges, after the timed stream",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        what: "VmHWM of the run's process without the harness's oracle: the larger of the peak at the end of set-up and the peak over the timed stream",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Layer = module name. A traced run of any workload reports every entry;
/// an entry whose layer the workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    pl("graphgen.generate_s", "s", Lower, "setup_s (all)"),
    pl("prep.degree_s", "s", Lower, "setup_s (all)"),
    pl("prep.shard_s", "s", Lower, "setup_s (all)"),
    pl("prep.medges_per_s", "Medges/s", Higher, "setup_s (all)"),
    pl(
        "prep.blob_ratio",
        "ratio",
        Higher,
        "store_bytes_per_edge (all); io_bytes_per_op on pr-dpu-stream, pr-mpu-paced-hdd",
    ),
    pl(
        "prep.peak_rss_mb",
        "MiB",
        Lower,
        "peak_rss_mb (all): set-up's peak is the process's on every workload",
    ),
    pl(
        "disk.read_bytes_per_iter",
        "B",
        Lower,
        "io_bytes_per_op (all)",
    ),
    pl(
        "disk.write_bytes_per_iter",
        "B",
        Lower,
        "io_bytes_per_op (all)",
    ),
    pl(
        "disk.read_calls_per_iter",
        "count",
        Lower,
        "op_p50_ms on bfs-mesh-frontier; ~0 on pr-spu-resident",
    ),
    pl(
        "disk.opens_per_iter",
        "count",
        Lower,
        "op_p50_ms on bfs-mesh-frontier",
    ),
    pl(
        "disk.seeks_per_iter",
        "count",
        Lower,
        "op_p50_ms on pr-mpu-paced-hdd (8 ms each)",
    ),
    pl(
        "disk.read_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream, bfs-mesh-frontier",
    ),
    pl(
        "disk.read_mb_per_s",
        "MB/s",
        Higher,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl(
        "disk.device_floor_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-mpu-paced-hdd",
    ),
    pl(
        "format.checksum_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream; ~0 on pr-spu-resident (verify once)",
    ),
    pl(
        "format.checksum_gb_per_s",
        "GB/s",
        Higher,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl(
        "manifest.save_ms",
        "ms",
        Lower,
        "op_p50_ms on updates-delta (saved every commit)",
    ),
    pl(
        "manifest.bytes",
        "B",
        Lower,
        "op_p50_ms on updates-delta, serve-mixed (via dsss.open_ms)",
    ),
    pl("budget.over_releases", "count", Lower, "failed (must be 0)"),
    pl("retry.retries", "count", Lower, "failed (must be 0)"),
    pl("retry.giveups", "count", Lower, "failed (must be 0)"),
    pl(
        "dsss.decode_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream; first iteration only on pr-spu-resident",
    ),
    pl(
        "dsss.decode_medges_per_s",
        "Medges/s",
        Higher,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl(
        "dsss.hub_write_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream, bfs-mesh-frontier (hub file churn)",
    ),
    pl(
        "dsss.hub_read_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl(
        "dsss.hub_bytes_per_iter",
        "B",
        Lower,
        "io_bytes_per_op on pr-dpu-stream",
    ),
    pl(
        "dsss.interval_rw_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream, bfs-mesh-frontier",
    ),
    pl(
        "dsss.open_ms",
        "ms",
        Lower,
        "setup_s (all); op_p50_ms on serve-mixed (every query pins and builds a handle)",
    ),
    pl(
        "dsss.chain_parts_mean",
        "count",
        Lower,
        "op_p50_ms on serve-mixed; dynamic.chained_run_s on updates-delta",
    ),
    pl(
        "dsss.chained_load_ratio",
        "ratio",
        Lower,
        "dynamic.chained_run_s on updates-delta; op_p50_ms on serve-mixed",
    ),
    pl(
        "kernel.absorb_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-spu-resident (largest share); small on pr-mpu-paced-hdd",
    ),
    pl(
        "kernel.absorb_medges_per_s",
        "Medges/s",
        Higher,
        "op_p50_ms on pr-spu-resident",
    ),
    pl(
        "state.finalize_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-spu-resident, bfs-mesh-frontier (idle intervals)",
    ),
    pl(
        "state.hub_compact_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl(
        "state.hub_merge_s_per_iter",
        "s",
        Lower,
        "op_p50_ms on pr-dpu-stream",
    ),
    pl("engine.iter_s", "s", Lower, "op_p50_ms (analytics)"),
    pl("engine.iter_s_t1", "s", Lower, "op_p50_ms (analytics)"),
    pl(
        "engine.parallel_speedup",
        "ratio",
        Higher,
        "op_p50_ms on pr-spu-resident",
    ),
    pl(
        "engine.walk_iter_s",
        "s",
        Lower,
        "none: the layer walk's own time",
    ),
    pl(
        "engine.unattributed_share",
        "ratio",
        Lower,
        "op_p50_ms (analytics): driver, scheduling, allocation",
    ),
    pl(
        "engine.io_overlap_share",
        "ratio",
        Higher,
        "op_p50_ms on pr-mpu-paced-hdd",
    ),
    pl(
        "engine.cached_share",
        "ratio",
        Higher,
        "io_bytes_per_op (analytics)",
    ),
    pl(
        "engine.per_iter_fixed_ms",
        "ms",
        Lower,
        "op_p50_ms on bfs-mesh-frontier",
    ),
    pl("engine.mteps", "Medges/s", Higher, "ops_per_s (analytics)"),
    pl(
        "engine.iterations",
        "count",
        Lower,
        "none: 512 on bfs-mesh-frontier, 10 on PageRank",
    ),
    pl("engine.edges_traversed", "count", Lower, "none: work done"),
    pl(
        "engine.peak_rss_mb",
        "MiB",
        Lower,
        "peak_rss_mb (analytics) once it exceeds prep.peak_rss_mb",
    ),
    pl(
        "parallel.dispatch_us",
        "us",
        Lower,
        "op_p50_ms on bfs-mesh-frontier; ~0 on pr-mpu-paced-hdd",
    ),
    pl(
        "iomodel.read_ratio",
        "ratio",
        Lower,
        "explains io_bytes_per_op on the PageRank workloads",
    ),
    pl(
        "iomodel.write_ratio",
        "ratio",
        Lower,
        "explains io_bytes_per_op on the PageRank workloads",
    ),
    pl(
        "dynamic.append_commit_p50_ms",
        "ms",
        Lower,
        "op_p50_ms on updates-delta",
    ),
    pl(
        "dynamic.fold_commit_p50_ms",
        "ms",
        Lower,
        "op_p95_ms on updates-delta",
    ),
    pl(
        "dynamic.fold_commit_share",
        "ratio",
        Lower,
        "op_p95_ms, ops_per_s on updates-delta",
    ),
    pl(
        "dynamic.deltas_per_commit",
        "count",
        Lower,
        "op_p50_ms on updates-delta",
    ),
    pl(
        "dynamic.cells_folded",
        "count",
        Lower,
        "io_bytes_per_op on updates-delta",
    ),
    pl(
        "dynamic.write_bytes_per_commit",
        "B",
        Lower,
        "io_bytes_per_op on updates-delta",
    ),
    pl(
        "dynamic.read_bytes_per_commit",
        "B",
        Lower,
        "io_bytes_per_op on updates-delta",
    ),
    pl(
        "dynamic.opens_per_commit",
        "count",
        Lower,
        "op_p50_ms on updates-delta",
    ),
    pl(
        "dynamic.write_amp",
        "ratio",
        Lower,
        "io_bytes_per_op on updates-delta",
    ),
    pl(
        "dynamic.store_files_end",
        "count",
        Lower,
        "store_bytes_per_edge on updates-delta",
    ),
    pl(
        "dynamic.space_amp",
        "ratio",
        Lower,
        "store_bytes_per_edge on updates-delta",
    ),
    pl(
        "dynamic.chained_run_s",
        "s",
        Lower,
        "none end-to-end here; the read cost of chains (op_p50_ms on serve-mixed)",
    ),
    pl("dynamic.compact_s", "s", Lower, "none: explicit compaction"),
    pl(
        "dynamic.compact_bytes_swept",
        "B",
        Lower,
        "store_bytes_per_edge on updates-delta",
    ),
    pl(
        "dynamic.peak_rss_mb",
        "MiB",
        Lower,
        "peak_rss_mb on updates-delta once it exceeds prep.peak_rss_mb",
    ),
    pl(
        "maintain.cells_folded",
        "count",
        Lower,
        "op_p95_ms, ops_per_s on serve-mixed",
    ),
    pl(
        "maintain.fold_races",
        "count",
        Lower,
        "op_p95_ms on serve-mixed",
    ),
    pl(
        "maintain.scrubs",
        "count",
        Lower,
        "op_p95_ms, cpu_ms_per_op on serve-mixed",
    ),
    pl(
        "maintain.transient_retries",
        "count",
        Lower,
        "failed (must be 0)",
    ),
    pl(
        "maintain.drain_s",
        "s",
        Lower,
        "none: backlog left when the stream ends",
    ),
    pl("serve.admitted", "count", Higher, "failed on serve-mixed"),
    pl(
        "serve.rejected_busy",
        "count",
        Lower,
        "failed on serve-mixed",
    ),
    pl(
        "serve.rejected_budget",
        "count",
        Lower,
        "failed on serve-mixed",
    ),
    pl("serve.errors", "count", Lower, "failed on serve-mixed"),
    pl(
        "serve.max_snapshot_lag",
        "count",
        Lower,
        "none: commits landed during one query",
    ),
    pl(
        "serve.peak_rss_mb",
        "MiB",
        Lower,
        "peak_rss_mb on serve-mixed once it exceeds prep.peak_rss_mb",
    ),
    pl(
        "serve.snapshot_pin_us",
        "us",
        Lower,
        "op_p50_ms on serve-mixed",
    ),
    pl("serve.bfs_p50_ms", "ms", Lower, "op_p50_ms on serve-mixed"),
    pl("serve.sssp_p50_ms", "ms", Lower, "op_p50_ms on serve-mixed"),
    pl("serve.ppr_p50_ms", "ms", Lower, "op_p50_ms on serve-mixed"),
    pl(
        "serve.prtopk_p50_ms",
        "ms",
        Lower,
        "op_p50_ms on serve-mixed",
    ),
    pl(
        "serve.writer_commit_p50_ms",
        "ms",
        Lower,
        "ops_per_s on serve-mixed (the writer shares the cores)",
    ),
    pl(
        "serve.query_drift",
        "ratio",
        Lower,
        "op_p95_ms on serve-mixed (files pile up)",
    ),
    pl("trace.spans", "count", Lower, "none"),
    pl(
        "trace.overhead_share",
        "ratio",
        Lower,
        "none: traced over untraced layer walk, less one (analytics)",
    ),
    pl(
        "trace.span_cost_share",
        "ratio",
        Lower,
        "none: spans x measured cost of one span / untraced time",
    ),
];

/// The metric tables of README.md, one markdown row per metric. A unit
/// test keeps the README in step with them.
pub fn markdown_rows() -> Vec<String> {
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        )
    });
    let layers = PER_LAYER.iter().map(|m| {
        format!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        )
    });
    e2e.chain(layers).collect()
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `nxmark spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn readme_documents_every_name() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
        for w in WORKLOADS {
            assert!(
                readme.contains(&format!("`{}`", w.name)),
                "README.md does not mention `{}`",
                w.name
            );
        }
        for row in markdown_rows() {
            assert!(
                readme.contains(&row),
                "README.md lacks the row (regenerate with `nxmark spec markdown`):\n{row}"
            );
        }
    }
}
