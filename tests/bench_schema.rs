//! Schema guard for the committed benchmark baseline.
//!
//! `BENCH_pagerank.json` is regenerated by `nxbench perf --json` and
//! diffed across PRs; these checks fail CI if a regeneration (or a manual
//! edit) drops the fields the trajectory tooling keys on — most
//! importantly the schema-v4 per-row `threads` (without it a committed
//! "1" is ambiguous between a 1-core host and a configured single-thread
//! run) and the thread-scaling section.

use std::path::Path;

fn committed_bench() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_pagerank.json");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {} must exist: {e}", path.display()))
}

#[test]
fn committed_perf_baseline_is_schema_v6() {
    let json = committed_bench();
    assert!(
        json.contains("\"schema_version\": 6"),
        "BENCH_pagerank.json must be regenerated with the v6 schema (nxbench perf --json)"
    );
    assert!(json.contains("\"host_parallelism\""));
    assert!(
        json.contains("\"cold_cache\":"),
        "the baseline reports whether the run dropped the page cache between reps"
    );
    // No JSON parser in-tree: key on the one-row-per-line layout the
    // renderer emits.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn every_committed_strategy_row_records_threads_and_io() {
    let json = committed_bench();
    // Strategy-grid and thread-sweep rows alike are keyed by strategy +
    // effective threads; the grid rows (one per encoding × strategy cell)
    // also carry their I/O columns.
    let rows: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"strategy\":") && l.contains("\"threads\":"))
        .collect();
    let grid: Vec<&str> =
        rows.iter().copied().filter(|l| l.contains("\"encoding\":")).collect();
    assert!(!grid.is_empty(), "no strategy rows in BENCH_pagerank.json");
    assert!(rows.len() > grid.len(), "no thread-sweep rows in BENCH_pagerank.json");
    for row in grid {
        assert!(
            row.contains("\"read_bytes_per_iter\":") && row.contains("\"read_syscalls_per_iter\":"),
            "strategy row omits its I/O columns: {row}"
        );
    }
    for key in ["prefetch", "io_sched"] {
        assert!(
            !json.contains(&format!("\"{key}\":")),
            "v6 has one read pipeline: no `{key}` dimension"
        );
    }
}

#[test]
fn committed_baseline_carries_the_out_of_core_section() {
    let json = committed_bench();
    assert!(
        json.contains("\"out_of_core\": {"),
        "BENCH_pagerank.json lost its out-of-core section"
    );
    // The disk-backed workload runs raw vs compressed; the wall-clock win
    // of the compressed encoding is the ratio the trajectory tooling
    // tracks.
    assert!(json.contains("\"compressed_iters_per_sec_ratio\":"));
    assert!(json.contains("\"direct_requested\":"));
    assert!(json.contains("\"read_syscalls\":"));
}

#[test]
fn committed_baseline_carries_the_scaling_section() {
    let json = committed_bench();
    assert!(
        json.contains("\"scaling\": {"),
        "BENCH_pagerank.json lost its thread-scaling section"
    );
    assert!(json.contains("\"thread_sweep\": [1, 2, 4, 8]"));
    assert!(json.contains("\"speedup\""));
    assert!(
        json.contains("\"bitwise_identical\": true"),
        "committed baseline must come from a run whose determinism matrix held"
    );
}
