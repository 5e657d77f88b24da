//! Systematic power-loss simulation.
//!
//! A [`CrashDisk`] records every write, remove and rename an update
//! sequence issues. The harness then replays *every* prefix of that
//! stream — including torn final writes — reopens the graph at each cut
//! point, and asserts that it recovers to one of the states the
//! write-boundary contract (see `core::dynamic` module docs) permits:
//! the graph as of the last manifest rename that made it into the
//! prefix, with PageRank bitwise identical to a from-scratch preparation
//! of that state's edge set. No cut may leave an unopenable or
//! wrong-answer graph.

use std::collections::BTreeSet;
use std::sync::Arc;

use nxgraph::core::algo;
use nxgraph::core::dynamic::{Compaction, DynamicConfig, DynamicGraph};
use nxgraph::core::engine::EngineConfig;
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::PreparedGraph;
use nxgraph::storage::{CrashDisk, Disk, MemDisk};

/// Bit-exact PageRank fingerprint (6 iterations, default engine).
fn pagerank_bits(g: &PreparedGraph) -> Vec<u64> {
    let cfg = EngineConfig::default().with_max_iterations(6);
    let (ranks, _) = algo::pagerank(g, 6, &cfg).unwrap();
    ranks.into_iter().map(f64::to_bits).collect()
}

/// Fingerprint of a from-scratch preparation of `edges`.
fn fresh_bits(edges: &[(u64, u64)]) -> Vec<u64> {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(edges, &PrepConfig::new("fresh", 3), disk).unwrap();
    pagerank_bits(&g)
}

/// Drive `add_edges` → background fold → scrub against a recording disk
/// and assert recovery at every cut point of the recorded stream.
#[test]
fn every_cut_point_recovers_with_bitwise_identical_pagerank() {
    // 9 vertices / P = 3; the base graph is prepared on the inner disk
    // *before* recording starts, so it forms the crash baseline.
    let base: Vec<(u64, u64)> = (0..40u64).map(|k| (k % 9, (k * 5 + 1) % 9)).collect();
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    drop(preprocess(&base, &PrepConfig::new("crash", 3), Arc::clone(&inner)).unwrap());

    let crash = Arc::new(CrashDisk::new(inner).unwrap());
    let disk: Arc<dyn Disk> = Arc::<CrashDisk>::clone(&crash);
    let g = PreparedGraph::open(disk).unwrap();
    // Background compaction with the lowest threshold: every batch both
    // appends deltas and signals folds, so the recorded stream interleaves
    // append commits with background fold commits.
    let cfg = DynamicConfig {
        max_deltas: 1,
        max_delta_ratio: f64::INFINITY,
        ..DynamicConfig::background()
    };
    let mut dg = DynamicGraph::with_config(g, cfg).unwrap();

    // Batch sizes differ so every recoverable state has a distinct edge
    // count — the reopen below identifies which commits survived a cut
    // purely from `num_edges`.
    let batch1: Vec<(u64, u64)> = vec![(0, 4), (3, 7), (8, 1)];
    let batch2: Vec<(u64, u64)> = vec![(2, 6), (5, 0), (1, 8), (7, 7), (4, 2)];
    let mut states: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
    let mut edges = base.clone();
    states.push((edges.len() as u64, edges.clone()));
    for batch in [&batch1, &batch2] {
        assert!(!dg.add_edges(batch).unwrap().rebuilt);
        // Quiesce between batches so fold commits land in the stream too.
        dg.wait_maintenance_idle().unwrap();
        edges.extend(batch.iter().copied());
        states.push((edges.len() as u64, edges.clone()));
    }
    let report = dg.scrub().unwrap();
    assert!(report.is_clean(), "scrub flagged a healthy graph: {report:?}");
    assert!(report.files_scanned > 0 && report.bytes_scanned > 0);
    drop(dg); // joins the maintenance thread; the op stream is final

    let expected: Vec<(u64, Vec<u64>)> = states
        .iter()
        .map(|(n, edges)| (*n, fresh_bits(edges)))
        .collect();

    let cuts = crash.cut_points();
    assert!(
        cuts.len() > 20,
        "the sequence must expose more than 20 cut points, got {}",
        cuts.len()
    );
    let mut observed: BTreeSet<u64> = BTreeSet::new();
    for cut in cuts {
        let replayed = crash.replay(cut).unwrap();
        let disk: Arc<dyn Disk> = Arc::new(replayed);
        let g = PreparedGraph::open(Arc::clone(&disk))
            .unwrap_or_else(|e| panic!("reopen failed at {cut:?}: {e}"));
        let n = g.num_edges();
        let (_, want) = expected
            .iter()
            .find(|(count, _)| *count == n)
            .unwrap_or_else(|| panic!("cut {cut:?} recovered to unknown edge count {n}"));
        assert_eq!(
            &pagerank_bits(&g),
            want,
            "cut {cut:?}: recovered graph (edge count {n}) diverged from fresh prep"
        );
        observed.insert(n);
    }
    // The sweep must have visited every commit boundary: the pristine
    // base (cut before anything), both batch commits, and the full state.
    for (n, _) in &expected {
        assert!(observed.contains(n), "no cut point recovered the {n}-edge state");
    }
}

/// Same sweep across an *inline* compaction sequence (fold inside the
/// append commit) — the write-boundary contract is mode-independent.
#[test]
fn inline_fold_commits_recover_at_every_cut_point() {
    let base: Vec<(u64, u64)> = (0..30u64).map(|k| (k % 9, (k * 7 + 2) % 9)).collect();
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    drop(preprocess(&base, &PrepConfig::new("crash-inline", 3), Arc::clone(&inner)).unwrap());

    let crash = Arc::new(CrashDisk::new(inner).unwrap());
    let disk: Arc<dyn Disk> = Arc::<CrashDisk>::clone(&crash);
    let g = PreparedGraph::open(disk).unwrap();
    let cfg = DynamicConfig {
        max_deltas: 1, // every append folds inline instead
        max_delta_ratio: f64::INFINITY,
        compaction: Compaction::Inline,
    };
    let mut dg = DynamicGraph::with_config(g, cfg).unwrap();
    let batch: Vec<(u64, u64)> = vec![(0, 1), (4, 4), (8, 2), (3, 6)];
    dg.add_edges(&batch).unwrap();
    dg.add_edges(&batch).unwrap(); // second commit folds the chains
    drop(dg);

    let mut edges = base.clone();
    edges.extend(&batch);
    let mid = fresh_bits(&edges);
    edges.extend(&batch);
    let full = fresh_bits(&edges);
    let expected = [
        (base.len() as u64, fresh_bits(&base)),
        ((base.len() + batch.len()) as u64, mid),
        ((base.len() + 2 * batch.len()) as u64, full),
    ];

    let cuts = crash.cut_points();
    assert!(cuts.len() > 20, "got {} cut points", cuts.len());
    for cut in cuts {
        let disk: Arc<dyn Disk> = Arc::new(crash.replay(cut).unwrap());
        let g = PreparedGraph::open(disk)
            .unwrap_or_else(|e| panic!("reopen failed at {cut:?}: {e}"));
        let n = g.num_edges();
        let (_, want) = expected
            .iter()
            .find(|(count, _)| *count == n)
            .unwrap_or_else(|| panic!("cut {cut:?} recovered to unknown edge count {n}"));
        assert_eq!(&pagerank_bits(&g), want, "cut {cut:?} diverged");
    }
}

/// After a crash, the scrubber classifies the leftovers as orphans (never
/// as corruption) and a compact pass reclaims them.
#[test]
fn crash_leftovers_scrub_clean_and_compact_away() {
    let base: Vec<(u64, u64)> = (0..30u64).map(|k| (k % 9, (k * 4 + 3) % 9)).collect();
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    drop(preprocess(&base, &PrepConfig::new("crash-gc", 3), Arc::clone(&inner)).unwrap());
    let crash = Arc::new(CrashDisk::new(inner).unwrap());
    let disk: Arc<dyn Disk> = Arc::<CrashDisk>::clone(&crash);
    let mut dg = DynamicGraph::with_config(
        PreparedGraph::open(disk).unwrap(),
        DynamicConfig {
            max_deltas: 1,
            max_delta_ratio: f64::INFINITY,
            ..DynamicConfig::background()
        },
    )
    .unwrap();
    dg.add_edges(&[(0, 3), (5, 5), (7, 1)]).unwrap();
    dg.wait_maintenance_idle().unwrap();
    drop(dg);

    for cut in crash.cut_points() {
        let disk: Arc<dyn Disk> = Arc::new(crash.replay(cut).unwrap());
        // Whatever the cut stranded must read as *unreferenced* (orphans),
        // never as damage to the committed graph…
        let report = nxgraph::core::maintain::scrub(disk.as_ref()).unwrap();
        assert!(report.is_clean(), "cut {cut:?}: scrub flagged {report:?}");
        // …and compact must leave a minimal, still-correct store.
        let g = PreparedGraph::open(Arc::clone(&disk)).unwrap();
        let before = pagerank_bits(&g);
        let mut dg = DynamicGraph::new(g).unwrap();
        dg.compact().unwrap();
        let after = nxgraph::core::maintain::scrub(disk.as_ref()).unwrap();
        assert!(after.is_clean());
        assert_eq!(after.orphans, 0, "cut {cut:?}: compact left orphans behind");
        assert_eq!(pagerank_bits(dg.graph()), before, "cut {cut:?}: compact changed results");
    }
}
