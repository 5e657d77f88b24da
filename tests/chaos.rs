//! Faults that exhaust the retry budget must surface as typed errors,
//! never as panics, hangs, or silently wrong results. (That transient
//! faults under a seeded [`FaultPlan`] are invisible — every run bitwise
//! identical to a fault-free one — is an axis of `tests/contract.rs`.)

use std::sync::{mpsc, Arc};
use std::time::Duration;

use nxgraph::core::algo;
use nxgraph::core::engine::{EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::{EngineError, PreparedGraph};
use nxgraph::graphgen::rmat::{self, RmatConfig};
use nxgraph::storage::{
    Disk, EncodingPolicy, FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule,
    MemDisk, RetryPolicy, StorageError,
};

fn raw_edges(scale: u32, seed: u64) -> Vec<(u64, u64)> {
    rmat::generate(&RmatConfig::graph500(scale, 6, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect()
}

/// Preprocess onto a fresh MemDisk and hand back the raw disk so callers
/// can re-open the same bytes through a fault injector.
fn prepare(raw: &[(u64, u64)], p: u32) -> (Arc<dyn Disk>, PreparedGraph) {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let cfg = PrepConfig::new("chaos", p).with_encoding(EncodingPolicy::Auto);
    let g = preprocess(raw, &cfg, Arc::clone(&disk)).unwrap();
    (disk, g)
}

/// Every route a read can take: zero-budget SPU streams every sub-shard,
/// DPU streams by construction, half-resident MPU mixes shard and hub
/// streams — each inline (threads 1) and on the worker ring (threads 3).
fn six_configs(n: u64) -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for (strategy, budget) in [
        (Strategy::Spu, 0),
        (Strategy::Dpu, 0),
        (Strategy::Mpu, 4 * n + n * 8),
    ] {
        for threads in [1usize, 3] {
            out.push(
                EngineConfig::default()
                    .with_strategy(strategy)
                    .with_budget(budget)
                    .with_threads(threads),
            );
        }
    }
    out
}

/// Run `f` on its own thread and fail — instead of wedging the suite — if
/// it has not finished within `limit` (a hung read that no watchdog caught).
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the guarded body panicked"),
    }
}

/// Retry exhaustion is a typed error — on every strategy, inline and on
/// the ring alike — and never wrong output.
#[test]
fn persistent_fault_exhausts_retries_into_a_typed_error() {
    let raw = raw_edges(6, 42);
    let (mem, clean) = prepare(&raw, 3);
    let plan = FaultPlan::new().with_rule(FaultRule {
        name_contains: "ss_".into(),
        op: FaultOp::Read,
        kind: FaultKind::ReadError,
        first: 0,
        count: u64::MAX,
    });
    let fd = Arc::new(FaultDisk::new(mem, plan));
    let mut g = PreparedGraph::open(Arc::clone(&fd) as Arc<dyn Disk>).unwrap();
    // A tight retry budget keeps the test fast; exhaustion semantics are
    // identical at any attempt count.
    g.set_retry_policy(RetryPolicy::with_attempts(2).with_base_backoff(Duration::from_micros(100)));
    for cfg in six_configs(clean.num_vertices() as u64) {
        match algo::pagerank(&g, 3, &cfg) {
            Err(EngineError::Storage(StorageError::Io(_))) => {}
            other => panic!(
                "{:?}/threads {}: expected the injected EIO to surface, got {other:?}",
                cfg.strategy, cfg.threads
            ),
        }
    }
    let snap = fd.io_profile().unwrap().snapshot();
    assert!(snap.retries > 0, "the retry layer must have tried");
    assert!(snap.giveups > 0, "exhaustion must be counted");
}

/// Non-transient failures are not retried: a persistent open-time fault
/// is surfaced after exactly as many attempts as the policy allows, and a
/// fatal (non-transient) error is never re-issued at all.
#[test]
fn retry_layer_respects_the_error_taxonomy() {
    let raw = raw_edges(6, 43);
    let (mem, _g) = prepare(&raw, 3);
    // Remove a referenced file: NotFound is Fatal, so the first failure
    // must be the only attempt (no retry counter movement).
    let victim = mem
        .list()
        .into_iter()
        .find(|n| n.starts_with("ss_") && n.ends_with(".bin"))
        .unwrap();
    mem.remove(&victim).unwrap();
    let fd = Arc::new(FaultDisk::new(mem, FaultPlan::new()));
    let g = PreparedGraph::open(Arc::clone(&fd) as Arc<dyn Disk>).unwrap();
    let res = algo::pagerank(&g, 3, &EngineConfig::default());
    match res {
        Err(EngineError::Storage(StorageError::NotFound(_))) => {}
        other => panic!("expected NotFound, got {other:?}"),
    }
    let snap = fd.io_profile().unwrap().snapshot();
    assert_eq!(snap.retries, 0, "fatal errors must not be retried");
}

/// The hung-I/O watchdog end to end: a device that stops answering
/// converts into a typed `Stalled` error within the configured deadline —
/// on every strategy, at threads 1 and threads 3 alike — and the run
/// cancels cleanly instead of hanging.
#[test]
fn watchdog_converts_a_hung_read_into_a_typed_stall() {
    let raw = raw_edges(6, 44);
    let (mem, clean) = prepare(&raw, 3);
    let plan = FaultPlan::new().with_rule(FaultRule {
        name_contains: "ss_".into(),
        op: FaultOp::Read,
        kind: FaultKind::Stall(Duration::from_millis(1500)),
        first: 0,
        count: u64::MAX,
    });
    let fd = Arc::new(FaultDisk::new(mem, plan));
    let g = Arc::new(PreparedGraph::open(Arc::clone(&fd) as Arc<dyn Disk>).unwrap());
    for (k, cfg) in six_configs(clean.num_vertices() as u64).into_iter().enumerate() {
        let cfg = cfg.with_io_deadline(Some(Duration::from_millis(100)));
        let label = format!("{:?}/threads {}", cfg.strategy, cfg.threads);
        let g = Arc::clone(&g);
        // Were the deadline ignored on some route, the run would sit
        // through every 1.5 s stall in turn; the outer limit turns that
        // into a failure.
        let res = within(Duration::from_secs(5), move || algo::pagerank(&g, 3, &cfg));
        match res {
            Err(EngineError::Storage(StorageError::Stalled { waited_ms, .. })) => {
                assert!(waited_ms >= 100, "{label}: must have waited at least the deadline");
            }
            other => panic!("{label}: expected Stalled, got {other:?}"),
        }
        let snap = fd.io_profile().unwrap().snapshot();
        assert_eq!(snap.stalls, k as u64 + 1, "{label}: the tripped watchdog must be counted");
    }
}

/// A stall *shorter* than the deadline is invisible: the watchdog only
/// fires on genuinely hung reads, and slow-but-alive devices still
/// produce bit-identical output on every route.
#[test]
fn watchdog_tolerates_slow_but_alive_reads() {
    let raw = raw_edges(6, 45);
    let (mem, clean) = prepare(&raw, 3);
    let plan = FaultPlan::new().with_rule(FaultRule {
        name_contains: "ss_".into(),
        op: FaultOp::Read,
        kind: FaultKind::Stall(Duration::from_millis(20)),
        first: 0,
        count: 2,
    });
    let fd = Arc::new(FaultDisk::new(mem, plan));
    let g = Arc::new(PreparedGraph::open(Arc::clone(&fd) as Arc<dyn Disk>).unwrap());
    let bits = |g: &PreparedGraph, cfg: &EngineConfig| {
        let ranks = algo::pagerank(g, 6, cfg).unwrap().0;
        ranks.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
    };
    for cfg in six_configs(clean.num_vertices() as u64) {
        let cfg = cfg.with_io_deadline(Some(Duration::from_secs(30)));
        let want = bits(&clean, &cfg);
        let (g, label) = (Arc::clone(&g), format!("{:?}/threads {}", cfg.strategy, cfg.threads));
        let got = within(Duration::from_secs(60), move || bits(&g, &cfg));
        assert_eq!(got, want, "{label}");
    }
    assert!(fd.injections() > 0, "the slow reads must actually have happened");
    let snap = fd.io_profile().unwrap().snapshot();
    assert_eq!(snap.stalls, 0, "a met deadline is not a stall");
}
