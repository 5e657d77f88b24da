//! Snapshot-isolated concurrent serving, end to end through the facade.
//!
//! The contracts under test:
//!
//! * a reader pinned at generation G can stream its sub-shard chains
//!   while background folds and `refresh()` supersede G underneath it —
//!   no `NotFound`, no divergence (the pending-sweep queue holds the old
//!   files alive);
//! * no file is swept while *any* snapshot references its generation —
//!   asserted through the pin refcount, not timing;
//! * queries pinned at G are bitwise-identical after a compaction that
//!   supersedes G (the reader axis of `tests/contract.rs`);
//! * admission control rejects with typed errors (`Busy`,
//!   `OutOfMemory`) and a concurrent read/update stream completes with
//!   zero query errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nxgraph::core::algo;
use nxgraph::core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph::core::engine::{EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::{GraphService, PreparedGraph, Query, ServeConfig, ServeError};
use nxgraph::graphgen::rmat::{self, RmatConfig};
use nxgraph::storage::{Disk, MemDisk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A background-maintenance service over R-MAT edges, and the original
/// vertex ids (so update batches never force a rebuild).
fn fixture(scale: u32, seed: u64) -> (GraphService, Vec<u64>) {
    let raw: Vec<(u64, u64)> = rmat::generate(&RmatConfig::graph500(scale, 6, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let base = preprocess(&raw, &PrepConfig::new("serve-it", 4), Arc::clone(&disk)).unwrap();
    let known = base.load_reverse_mapping().unwrap();
    let dg = DynamicGraph::with_config(base, DynamicConfig::background()).unwrap();
    let svc = GraphService::new(dg, ServeConfig::default()).unwrap();
    (svc, known)
}

/// An update batch over already-known vertices.
fn batch(known: &[u64], rng: &mut StdRng, len: usize) -> Vec<(u64, u64)> {
    (0..len)
        .map(|_| {
            let s = known[rng.random_range(0..known.len())];
            let d = known[rng.random_range(0..known.len())];
            (s, d)
        })
        .collect()
}

// Satellite: a reader pinned before the stream keeps streaming its
// generation's sub-shard chains (full PageRank touches every cell) while
// the writer commits, background maintenance folds, and `refresh()`
// runs concurrently. A swept file would surface as a NotFound engine
// error; divergence would show up in the bit comparison.
#[test]
fn pinned_reader_streams_across_concurrent_fold_and_refresh() {
    let (svc, known) = fixture(8, 21);
    let snap = svc.snapshot().unwrap();
    let e0 = snap.epoch();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let snap = &snap;
        let stop = &stop;
        scope.spawn(move || {
            let cfg = EngineConfig::default().with_threads(1).with_max_iterations(3);
            let mut last: Option<Vec<u64>> = None;
            loop {
                let (ranks, _) = algo::pagerank(snap.graph(), 3, &cfg)
                    .expect("pinned read hit a swept or missing file");
                let bits: Vec<u64> = ranks.iter().map(|v| v.to_bits()).collect();
                if let Some(prev) = &last {
                    assert_eq!(prev, &bits, "pinned generation diverged mid-stream");
                }
                last = Some(bits);
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..6 {
            svc.add_edges(&batch(&known, &mut rng, 64)).unwrap();
            svc.with_writer(|dg| {
                dg.wait_maintenance_idle().unwrap();
                dg.refresh().unwrap();
            });
        }
        stop.store(true, Ordering::Release);
    });
    // The writer moved on; the snapshot is the only pin left at e0.
    assert!(svc.current_epoch() > e0);
    assert_eq!(svc.pin_count(e0), 1);
    assert!(snap.lag() > 0);
    drop(snap);
    assert_eq!(svc.pin_count(e0), 0);
    let drained = svc.with_writer(|dg| {
        dg.refresh().unwrap();
        dg.pending_sweeps() == 0
    });
    assert!(drained, "sweep queue must drain once the last pin drops");
}

// Acceptance: no file is swept while any snapshot references its
// generation — asserted via the refcount, one pin at a time.
#[test]
fn no_sweep_while_any_snapshot_pins_the_generation() {
    let (svc, known) = fixture(7, 5);
    let s1 = svc.snapshot().unwrap();
    let s2 = svc.snapshot().unwrap();
    let e0 = s1.epoch();
    assert_eq!(s2.epoch(), e0);
    // Owner + two snapshots: the writer has not refreshed off e0 yet.
    assert_eq!(svc.pin_count(e0), 3);

    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..3 {
        svc.add_edges(&batch(&known, &mut rng, 48)).unwrap();
    }
    svc.with_writer(|dg| {
        dg.wait_maintenance_idle().unwrap();
        dg.compact().unwrap();
    });

    let bits = |g: &PreparedGraph| {
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Spu)
            .with_threads(2);
        let ranks = algo::pagerank(g, 5, &cfg).unwrap().0;
        ranks.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
    };
    let want = bits(s1.graph());
    let pending = svc.with_writer(|dg| {
        dg.refresh().unwrap();
        dg.pending_sweeps()
    });
    assert!(
        pending > 0,
        "superseded files must queue, not sweep, while generation {e0} is pinned"
    );

    drop(s1);
    assert_eq!(svc.pin_count(e0), 1);
    let pending = svc.with_writer(|dg| {
        dg.refresh().unwrap();
        dg.pending_sweeps()
    });
    assert!(pending > 0, "one pin is enough to hold the generation");
    // The surviving pin still answers, identically.
    assert_eq!(bits(s2.graph()), want);

    drop(s2);
    assert_eq!(svc.pin_count(e0), 0);
    let pending = svc.with_writer(|dg| {
        dg.refresh().unwrap();
        dg.pending_sweeps()
    });
    assert_eq!(pending, 0, "last unpin must release the whole generation");
}

// Acceptance: a concurrent read/update stream through the service
// completes with zero query errors, and both rejection paths surface as
// typed errors through the facade.
#[test]
fn concurrent_stream_is_error_free_and_rejections_are_typed() {
    let (svc, known) = fixture(7, 9);
    let n = svc.snapshot().unwrap().graph().num_vertices();
    const PER_READER: u64 = 8;
    std::thread::scope(|scope| {
        for r in 0..2u32 {
            let svc = &svc;
            scope.spawn(move || {
                for k in 0..PER_READER {
                    let q = match (u64::from(r) + k) % 3 {
                        0 => Query::Bfs {
                            root: k as u32 % n,
                            target: (k as u32 + 1) % n,
                        },
                        1 => Query::Sssp {
                            root: k as u32 % n,
                            target: (k as u32 + 3) % n,
                        },
                        _ => Query::PageRankTopK {
                            iterations: 3,
                            k: 4,
                        },
                    };
                    loop {
                        match svc.run_query(&q) {
                            Ok(_) => break,
                            Err(ServeError::Busy { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("query failed: {e}"),
                        }
                    }
                }
            });
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2 {
            svc.add_edges(&batch(&known, &mut rng, 32)).unwrap();
        }
    });
    let stats = svc.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.completed, 2 * PER_READER);
    assert_eq!(svc.in_flight(), 0);
    assert_eq!(svc.budget().used(), 0, "every lease returned to the pool");

    // Busy: deterministic via an operator hold on every slot.
    let hold = svc.hold_slots(ServeConfig::default().max_concurrent).unwrap();
    let err = svc
        .run_query(&Query::Bfs { root: 0, target: 1 })
        .unwrap_err();
    assert!(matches!(err, ServeError::Busy { .. }), "got {err}");
    drop(hold);

    // OutOfMemory: a service whose shared pool cannot cover one carve.
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let raw = vec![(0u64, 1u64), (1, 2), (2, 0)];
    let base = preprocess(&raw, &PrepConfig::new("serve-oom", 2), disk).unwrap();
    let dg = DynamicGraph::with_config(base, DynamicConfig::background()).unwrap();
    let tight = GraphService::new(
        dg,
        ServeConfig {
            query_budget: 1 << 20,
            total_budget: 1 << 10,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let err = tight
        .run_query(&Query::Bfs { root: 0, target: 1 })
        .unwrap_err();
    assert!(matches!(err, ServeError::OutOfMemory { .. }), "got {err}");
    assert_eq!(tight.in_flight(), 0, "failed carve must release its slot");
}
