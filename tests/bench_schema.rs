//! Schema guard for the committed benchmark baselines.
//!
//! `BENCH_pagerank.json` is regenerated by `nxbench perf --json` and
//! `BENCH_updates.json` by `nxbench updates --json --background`; both are
//! diffed across PRs, and these checks fail CI if a regeneration (or a
//! manual edit) drops the fields the trajectory tooling keys on — most
//! importantly the schema-v4 per-row `threads` (without it a committed
//! "1" is ambiguous between a 1-core host and a configured single-thread
//! run), the thread-scaling section, and the schema-v2 per-mode
//! `add_edges` latency percentiles.

use std::path::Path;

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {} must exist: {e}", path.display()))
}

fn committed_bench() -> String {
    committed("BENCH_pagerank.json")
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

#[test]
fn committed_updates_baseline_is_schema_v3_with_latency_rows() {
    let json = committed("BENCH_updates.json");
    assert!(
        json.contains("\"schema_version\": 3"),
        "BENCH_updates.json must be regenerated with the v3 schema (nxbench updates --json --background)"
    );
    // One row per commit mode, background included.
    for mode in ["delta", "rewrite", "background"] {
        assert!(
            json.contains(&format!("\"mode\": \"{mode}\"")),
            "BENCH_updates.json lost its {mode} mode row"
        );
    }
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"mode\":")).collect();
    assert_eq!(rows.len(), 3);
    for row in rows {
        assert!(
            row.contains("\"add_latency_p50_us\":") && row.contains("\"add_latency_p99_us\":"),
            "mode row omits add_edges latency percentiles: {row}"
        );
    }
    assert!(
        json.contains("\"identical_to_fresh_prep\": true"),
        "committed baseline must come from a bitwise-identical run"
    );
    // v3: the ENOSPC degradation pass — commits past an injected write
    // budget abort cleanly and the surviving prefix stays bit-identical.
    assert!(
        json.contains("\"enospc\": {") && json.contains("\"commits_aborted\":"),
        "BENCH_updates.json lost its ENOSPC degradation section"
    );
    assert!(
        json.contains("\"post_abort_identical\": true"),
        "committed baseline must come from a run whose aborted commits never tore the store"
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn committed_serve_baseline_is_schema_v1_with_zero_errors() {
    let json = committed("BENCH_serve.json");
    assert!(
        json.contains("\"bench\": \"serve\"") && json.contains("\"schema_version\": 1"),
        "BENCH_serve.json must be regenerated with the v1 schema (nxbench serve --json)"
    );
    for key in [
        "\"queries_per_sec\":",
        "\"latency_p50_us\":",
        "\"latency_p99_us\":",
        "\"admitted\":",
        "\"max_snapshot_lag\":",
    ] {
        assert!(json.contains(key), "BENCH_serve.json lost {key}");
    }
    assert!(
        json.contains("\"rejections\": {") && json.contains("\"busy\":"),
        "BENCH_serve.json lost its typed admission-rejection breakdown"
    );
    assert!(
        json.contains("\"errors\": 0"),
        "committed baseline must come from a zero-query-error serve stream"
    );
    // The burst fires against a service whose slots are all held, so the
    // committed baseline must show every arrival rejected — admission
    // control rejects rather than queueing.
    assert!(
        json.contains("\"burst\": {\"arrivals\": 12, \"rejected\": 12}"),
        "committed baseline must show the saturated burst fully rejected"
    );
    assert!(
        json.contains("\"snapshot_isolated\": true"),
        "committed baseline must come from a run whose pinned snapshot stayed bitwise-identical"
    );
    assert!(
        json.contains("\"sweeps_drained\": true"),
        "committed baseline must show the sweep queue drained once the last pin dropped"
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
