//! Snapshot-isolated concurrent query serving.
//!
//! A [`GraphService`] shares one on-disk graph between a writer — the
//! wrapped [`DynamicGraph`], still committing `add_edges` batches and
//! running background maintenance — and any number of concurrent readers.
//! Each reader runs against a [`Snapshot`]: a pinned manifest generation
//! with its own [`PreparedGraph`] handle, scratch-file namespace and
//! zero-copy loaders. Pinning is refcounted per epoch in the store's
//! `StoreShared` state, so a file superseded by a later commit is
//! reclaimed only once the last snapshot that could still read it drops
//! — generation-refcounted reclamation instead of the old single-owner
//! "refresh, then sweep".
//!
//! Admission control keeps the service honest under load: at most
//! [`ServeConfig::max_concurrent`] queries run at once, and each admitted
//! query carves [`ServeConfig::query_budget`] bytes out of a shared
//! [`MemoryBudget`] pool as an RAII lease ([`MemoryBudget::carve`]).
//! A query that cannot get a slot or a lease is rejected with a typed
//! [`ServeError`] — never queued unboundedly, never silently degraded.
//! The carved lease doubles as the query's engine memory budget, so
//! strategy selection (SPU/DPU/MPU) sees exactly the bytes the query was
//! granted.
//!
//! Full rebuilds (batches introducing new vertices) are the one commit
//! that rewrites files in place, so they are exclusive — they wait for
//! every live snapshot to drop (`StoreShared::begin_exclusive`) before
//! rewriting prep-time names.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use nxgraph_storage::{BufferPool, MemoryBudget, StorageError};

use crate::algo::{self, PersonalizedPageRank, Sssp};
use crate::dsss::{PreparedGraph, ScratchTag};
use crate::dynamic::{CommitStats, DynamicGraph};
use crate::engine::{self, EngineConfig, Strategy};
use crate::error::{EngineError, EngineResult};
use crate::maintain::StoreShared;
use crate::program::Direction;
use crate::types::VertexId;

/// Process-wide scratch-tag counter; every snapshot gets a fresh
/// namespace so concurrent DPU/MPU queries on one disk never collide.
static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(1);

/// A pinned, immutable view of the graph at one committed epoch.
///
/// Holds its own [`PreparedGraph`] handle built from the pinned manifest
/// (sharing the store's verify-once checksum cache) with a unique
/// scratch-file tag. While the snapshot lives, no file its manifest
/// references is reclaimed — commits queue superseded files against the
/// epoch refcounts instead of sweeping. Dropping the snapshot removes its
/// scratch files, releases the pin and reclaims whatever just became
/// safe.
pub struct Snapshot {
    graph: PreparedGraph,
    shared: Arc<StoreShared>,
    epoch: u64,
}

impl Snapshot {
    /// Pin the latest committed epoch of `shared`. Blocks while a rebuild
    /// is rewriting prep-time names (the one commit that cannot coexist
    /// with readers).
    pub(crate) fn pin(shared: &Arc<StoreShared>) -> EngineResult<Self> {
        let (manifest, out_degrees, epoch) = shared.pin_latest();
        let checksums = Arc::clone(&shared.checksums.lock());
        let built = PreparedGraph::from_parts_reusing(
            Arc::clone(&shared.disk),
            manifest,
            out_degrees,
            checksums,
            BufferPool::new(),
        );
        let mut graph = match built {
            Ok(g) => g,
            Err(e) => {
                shared.unpin(epoch);
                shared.reclaim();
                return Err(e);
            }
        };
        graph.set_scratch_tag(ScratchTag::numbered(
            NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed),
        ));
        Ok(Self {
            graph,
            shared: Arc::clone(shared),
            epoch,
        })
    }

    /// The pinned graph handle. Safe to read from any thread for as long
    /// as the snapshot lives, regardless of concurrent commits.
    pub fn graph(&self) -> &PreparedGraph {
        &self.graph
    }

    /// The committed epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many commits the store has moved past this snapshot.
    pub fn lag(&self) -> u64 {
        self.shared
            .state
            .lock()
            .epoch
            .saturating_sub(self.epoch)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Scratch files are this snapshot's alone (unique tag); remove
        // them before releasing the pin so they never outlive it.
        if let Some(prefixes) = self.graph.scratch_tag().owned_prefixes() {
            for name in self.shared.disk.list() {
                if prefixes.iter().any(|p| name.starts_with(p.as_str())) {
                    let _ = self.shared.disk.remove(&name);
                }
            }
        }
        self.shared.unpin(self.epoch);
        self.shared.reclaim();
    }
}

/// Admission and execution knobs for a [`GraphService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queries allowed in flight at once; an arrival past this is
    /// rejected [`ServeError::Busy`].
    pub max_concurrent: usize,
    /// Bytes carved from the shared pool per admitted query — also the
    /// query's engine memory budget (governs SPU/DPU/MPU selection).
    pub query_budget: u64,
    /// Total bytes of the shared query-memory pool.
    pub total_budget: u64,
    /// Worker threads per query (results are bitwise-identical at any
    /// count; serving favours narrow queries over wide ones).
    pub threads: usize,
    /// Update strategy for queries; `Auto` derives from `query_budget`.
    pub strategy: Strategy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_concurrent: 4,
            query_budget: 64 << 20,
            total_budget: u64::MAX,
            threads: 1,
            strategy: Strategy::Auto,
        }
    }
}

/// A point query against one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Personalised PageRank from a single seed; top-`k` (rank, id)
    /// results, ranked descending with ascending-id ties.
    PprFromSeed {
        seed: VertexId,
        iterations: usize,
        k: usize,
    },
    /// BFS depth of `target` from `root` (`None` when unreachable).
    Bfs { root: VertexId, target: VertexId },
    /// Shortest-path distance `root → target` under the deterministic
    /// hash-weight oracle (`None` when unreachable).
    Sssp { root: VertexId, target: VertexId },
    /// Global PageRank, top-`k` vertices by rank.
    PageRankTopK { iterations: usize, k: usize },
}

/// A query result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Top-k `(vertex, score)` pairs (PPR, PageRank).
    Ranked(Vec<(VertexId, f64)>),
    /// BFS depth (`None` = unreachable).
    Depth(Option<u32>),
    /// SSSP distance (`None` = unreachable).
    Distance(Option<f64>),
}

impl QueryOutput {
    /// FNV-1a fingerprint over the exact bits of the result — two outputs
    /// are bitwise-identical iff their fingerprints match, which is how
    /// the isolation tests compare a pinned snapshot's answer against a
    /// fresh one-shot run.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        match self {
            QueryOutput::Ranked(pairs) => {
                mix(1);
                for (v, s) in pairs {
                    mix(*v as u64);
                    mix(s.to_bits());
                }
            }
            QueryOutput::Depth(d) => {
                mix(2);
                mix(d.map_or(u64::MAX, |d| d as u64));
            }
            QueryOutput::Distance(d) => {
                mix(3);
                mix(d.map_or(u64::MAX, f64::to_bits));
            }
        }
        h
    }
}

/// Why a query was not served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// All `max_concurrent` slots are taken.
    Busy { in_flight: usize, max: usize },
    /// The shared memory pool could not cover the query's carve.
    OutOfMemory { requested: u64, available: u64 },
    /// The query was admitted but failed while running.
    Engine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { in_flight, max } => {
                write!(f, "busy: {in_flight} of {max} query slots in use")
            }
            ServeError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of memory: query needs {requested} bytes, pool has {available}"
            ),
            ServeError::Engine(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Running totals of a service's admission and execution outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries that passed admission (slot + budget carve).
    pub admitted: u64,
    /// Rejections for lack of a concurrency slot.
    pub rejected_busy: u64,
    /// Rejections for lack of pool memory.
    pub rejected_budget: u64,
    /// Admitted queries that returned a result.
    pub completed: u64,
    /// Admitted queries that failed in the engine.
    pub errors: u64,
    /// Largest commit lag any query observed at completion (how many
    /// epochs the store advanced while the query ran on its pin).
    pub max_snapshot_lag: u64,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_budget: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    max_snapshot_lag: AtomicU64,
}

impl Counters {
    fn note_lag(&self, lag: u64) {
        self.max_snapshot_lag.fetch_max(lag, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            rejected_budget: self.rejected_budget.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            max_snapshot_lag: self.max_snapshot_lag.load(Ordering::Relaxed),
        }
    }
}

/// An admitted query's slot + memory lease; both release on drop (even
/// across a panic unwound out of the engine).
struct Permit<'a> {
    service: &'a GraphService,
    lease: nxgraph_storage::BudgetLease,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.service.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An admission hold: occupies query slots without running anything, so
/// an operator can drain or throttle the service (and stress harnesses
/// can exercise the [`ServeError::Busy`] path deterministically rather
/// than by racing the scheduler). Slots release on drop; a hold is not
/// counted as an admission.
pub struct SlotHold<'a> {
    service: &'a GraphService,
    n: usize,
}

impl Drop for SlotHold<'_> {
    fn drop(&mut self) {
        self.service.in_flight.fetch_sub(self.n, Ordering::AcqRel);
    }
}

/// A multi-tenant query service over one shared dynamic graph.
///
/// Readers call [`run_query`](Self::run_query) (or pin a raw
/// [`snapshot`](Self::snapshot)); writers go through
/// [`add_edges`](Self::add_edges) / [`with_writer`](Self::with_writer),
/// which serialise on an internal mutex. Reads never take that mutex —
/// they pin from the shared store state directly, so a slow commit never
/// blocks admission.
pub struct GraphService {
    writer: parking_lot::Mutex<DynamicGraph>,
    shared: Arc<StoreShared>,
    budget: Arc<MemoryBudget>,
    config: ServeConfig,
    in_flight: AtomicUsize,
    counters: Counters,
}

impl GraphService {
    /// Serve `graph` under `config`.
    pub fn new(graph: DynamicGraph, config: ServeConfig) -> EngineResult<Self> {
        let shared = Arc::clone(graph.shared());
        let budget = Arc::new(MemoryBudget::new(config.total_budget));
        Ok(Self {
            writer: parking_lot::Mutex::new(graph),
            shared,
            budget,
            config,
            in_flight: AtomicUsize::new(0),
            counters: Counters::default(),
        })
    }

    /// The shared query-memory pool (tests assert carve accounting
    /// through this).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Admission + execution totals so far.
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Queries currently running.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Occupy `n` concurrency slots without running queries — a drain or
    /// throttle hold. While held, at most `max_concurrent - n` queries
    /// can be admitted. Fails with [`ServeError::Busy`] (not counted as
    /// a query rejection) if fewer than `n` slots are currently free.
    pub fn hold_slots(&self, n: usize) -> Result<SlotHold<'_>, ServeError> {
        let mut cur = self.in_flight.load(Ordering::Acquire);
        loop {
            if cur + n > self.config.max_concurrent {
                return Err(ServeError::Busy {
                    in_flight: cur,
                    max: self.config.max_concurrent,
                });
            }
            match self
                .in_flight
                .compare_exchange(cur, cur + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(SlotHold { service: self, n }),
                Err(now) => cur = now,
            }
        }
    }

    /// Live reader pins at `epoch` (owner + snapshots) — the refcount the
    /// no-sweep-while-pinned contract rests on.
    pub fn pin_count(&self, epoch: u64) -> usize {
        self.shared.pin_count(epoch)
    }

    /// The latest committed epoch of the underlying store.
    pub fn current_epoch(&self) -> u64 {
        self.shared.state.lock().epoch
    }

    /// Pin a read snapshot of the latest committed state, bypassing
    /// admission control (callers running their own engines budget
    /// themselves).
    pub fn snapshot(&self) -> EngineResult<Snapshot> {
        Snapshot::pin(&self.shared)
    }

    /// Commit a batch of edges through the writer. Serialises with other
    /// writers only; concurrent queries keep running on their pins.
    pub fn add_edges(&self, batch: &[(u64, u64)]) -> EngineResult<CommitStats> {
        self.writer.lock().add_edges(batch)
    }

    /// Run `f` against the writer (compaction, scrubs, maintenance
    /// coordination). Held for the duration of `f`; keep it short.
    pub fn with_writer<T>(&self, f: impl FnOnce(&mut DynamicGraph) -> T) -> T {
        f(&mut self.writer.lock())
    }

    /// Tear the service down, returning the writer. Any still-live
    /// snapshot keeps its pin (the store state is shared, not owned by
    /// the service).
    pub fn into_inner(self) -> DynamicGraph {
        self.writer.into_inner()
    }

    /// Admit, pin, execute: the full serving path for one query.
    ///
    /// Rejections ([`ServeError::Busy`], [`ServeError::OutOfMemory`]) are
    /// immediate — nothing queues. An admitted query pins the latest
    /// commit and runs entirely on that snapshot; concurrent commits
    /// advance the store underneath it without affecting the result.
    pub fn run_query(&self, query: &Query) -> Result<QueryOutput, ServeError> {
        let permit = self.admit()?;
        let snap = Snapshot::pin(&self.shared).map_err(|e| {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            ServeError::Engine(e.to_string())
        })?;
        let budget = permit.lease.bytes();
        let out = self.execute(&snap, query, budget);
        self.counters.note_lag(snap.lag());
        drop(snap);
        drop(permit);
        match out {
            Ok(o) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                Ok(o)
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Engine(e.to_string()))
            }
        }
    }

    /// Claim a concurrency slot and a budget lease, or reject.
    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let mut cur = self.in_flight.load(Ordering::Acquire);
        loop {
            if cur >= self.config.max_concurrent {
                self.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy {
                    in_flight: cur,
                    max: self.config.max_concurrent,
                });
            }
            match self.in_flight.compare_exchange(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        match self.budget.carve(self.config.query_budget) {
            Ok(lease) => {
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Permit {
                    service: self,
                    lease,
                })
            }
            Err(e) => {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.counters
                    .rejected_budget
                    .fetch_add(1, Ordering::Relaxed);
                let (requested, available) = match e {
                    StorageError::BudgetExceeded {
                        requested,
                        available,
                    } => (requested, available),
                    _ => (self.config.query_budget, 0),
                };
                Err(ServeError::OutOfMemory {
                    requested,
                    available,
                })
            }
        }
    }

    /// The engine configuration an admitted query runs under.
    fn query_config(&self, budget: u64) -> EngineConfig {
        let mut cfg = EngineConfig::default().with_threads(self.config.threads.max(1));
        cfg.memory_budget = budget;
        cfg.strategy = self.config.strategy;
        cfg
    }

    fn execute(&self, snap: &Snapshot, query: &Query, budget: u64) -> EngineResult<QueryOutput> {
        let g = snap.graph();
        let cfg = self.query_config(budget);
        match *query {
            Query::PprFromSeed {
                seed,
                iterations,
                k,
            } => {
                if seed >= g.num_vertices() {
                    return Err(EngineError::Invalid(format!(
                        "ppr seed {seed} out of range ({} vertices)",
                        g.num_vertices()
                    )));
                }
                let prog = PersonalizedPageRank::new([seed], Arc::clone(g.out_degrees()));
                let mut cfg = cfg;
                cfg.max_iterations = iterations;
                cfg.direction = Direction::Forward;
                let (ranks, _) = engine::run(g, &prog, &cfg)?;
                Ok(QueryOutput::Ranked(top_k(&ranks, k)))
            }
            Query::Bfs { root, target } => {
                let (depths, _) = algo::bfs(g, root, &cfg)?;
                let d = depths.get(target as usize).copied();
                Ok(QueryOutput::Depth(d.filter(|&d| d != u32::MAX)))
            }
            Query::Sssp { root, target } => {
                let prog = Sssp::new(root, algo::sssp::hash_weights(1.0, 10.0));
                let mut cfg = cfg;
                cfg.direction = Direction::Forward;
                cfg.max_iterations = cfg.max_iterations.max(g.num_vertices() as usize + 1);
                let (dist, _) = engine::run(g, &prog, &cfg)?;
                let d = dist.get(target as usize).copied();
                Ok(QueryOutput::Distance(d.filter(|d| d.is_finite())))
            }
            Query::PageRankTopK { iterations, k } => {
                let (ranks, _) = algo::pagerank(g, iterations, &cfg)?;
                Ok(QueryOutput::Ranked(top_k(&ranks, k)))
            }
        }
    }
}

/// Top-`k` vertices by score, descending, ascending-id ties — fully
/// deterministic (`total_cmp`, no NaN special cases).
fn top_k(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    let mut ids: Vec<u32> = (0..scores.len() as u32).collect();
    ids.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    ids.truncate(k);
    ids.into_iter().map(|v| (v, scores[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn service(cfg: ServeConfig) -> GraphService {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        let g = preprocess(&edges, &PrepConfig::new("fig1", 4), disk).unwrap();
        let dg = DynamicGraph::new(g).unwrap();
        GraphService::new(dg, cfg).unwrap()
    }

    #[test]
    fn queries_answer_and_count() {
        let svc = service(ServeConfig::default());
        let out = svc
            .run_query(&Query::Bfs { root: 0, target: 6 })
            .unwrap();
        assert_eq!(out, QueryOutput::Depth(Some(1)));
        let out = svc
            .run_query(&Query::PageRankTopK {
                iterations: 5,
                k: 3,
            })
            .unwrap();
        match out {
            QueryOutput::Ranked(ref pairs) => assert_eq!(pairs.len(), 3),
            ref other => panic!("unexpected output {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(svc.in_flight(), 0);
        assert_eq!(svc.budget().used(), 0);
    }

    #[test]
    fn busy_rejection_is_typed_and_counted() {
        let svc = service(ServeConfig {
            max_concurrent: 0,
            ..ServeConfig::default()
        });
        let err = svc
            .run_query(&Query::Bfs { root: 0, target: 1 })
            .unwrap_err();
        assert_eq!(err, ServeError::Busy { in_flight: 0, max: 0 });
        assert_eq!(svc.stats().rejected_busy, 1);
    }

    #[test]
    fn slot_hold_blocks_admission_until_dropped() {
        let svc = service(ServeConfig::default());
        let max = ServeConfig::default().max_concurrent;
        let hold = svc.hold_slots(max).unwrap();
        // Slots are full: a second hold and a real query both bounce.
        assert!(matches!(svc.hold_slots(1), Err(ServeError::Busy { .. })));
        let err = svc
            .run_query(&Query::Bfs { root: 0, target: 1 })
            .unwrap_err();
        assert!(matches!(err, ServeError::Busy { .. }));
        assert_eq!(svc.stats().rejected_busy, 1);
        drop(hold);
        assert_eq!(svc.in_flight(), 0);
        svc.run_query(&Query::Bfs { root: 0, target: 1 }).unwrap();
        assert_eq!(svc.stats().admitted, 1);
    }

    #[test]
    fn budget_rejection_is_typed_and_counted() {
        let svc = service(ServeConfig {
            query_budget: 1 << 20,
            total_budget: 1 << 10,
            ..ServeConfig::default()
        });
        let err = svc
            .run_query(&Query::Bfs { root: 0, target: 1 })
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::OutOfMemory {
                requested: 1 << 20,
                available: 1 << 10
            }
        );
        assert_eq!(svc.stats().rejected_budget, 1);
        // The failed carve released the slot.
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn snapshot_pins_and_unpins_the_epoch() {
        let svc = service(ServeConfig::default());
        let snap = svc.snapshot().unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.lag(), 0);
        // Owner pin + this snapshot.
        assert_eq!(svc.pin_count(0), 2);
        drop(snap);
        assert_eq!(svc.pin_count(0), 1);
    }

    #[test]
    fn fingerprints_distinguish_bits() {
        let a = QueryOutput::Distance(Some(1.0));
        let b = QueryOutput::Distance(Some(1.0 + f64::EPSILON));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), QueryOutput::Distance(Some(1.0)).fingerprint());
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let scores = vec![0.5, 0.25, 0.5, 0.1];
        assert_eq!(top_k(&scores, 3), vec![(0, 0.5), (2, 0.5), (1, 0.25)]);
    }
}
