//! Online maintenance: background compaction and checksum scrubbing.
//!
//! A long-running dynamic graph must do three things off the commit path:
//! fold delta chains that have grown past their thresholds, re-verify
//! on-disk blobs for silent corruption (the verify-once [`ChecksumPolicy`]
//! deliberately never re-reads a file after its first load), and reclaim
//! files that crashes or folds left unreferenced. [`MaintenanceThread`]
//! does the first two on one background thread; the third stays with the
//! owner ([`DynamicGraph::compact`](crate::dynamic::DynamicGraph::compact)).
//!
//! ## Concurrency protocol
//!
//! The owner and the maintenance thread share a `StoreShared`: the disk,
//! a `state` mutex holding the committed manifest + degree table + an
//! epoch counter, and a `gate` mutex. Lock order is **gate → state**,
//! never the reverse. `add_edges` takes only `state` (for its whole
//! commit); the maintenance thread holds `gate` for the duration of each
//! fold/scrub pass but takes `state` only for snapshots and the final
//! commit — the expensive merge runs with *no* lock held, so an append is
//! never blocked behind a fold. If an append lands between a fold's
//! snapshot and its commit, the fold detects the changed
//! [`ChainInfo`](nxgraph_storage::manifest::ChainInfo),
//! discards its output and retries. The owner quiesces maintenance
//! entirely (rebuilds, explicit compaction) by holding `gate`.
//!
//! Fold commits reuse the manifest save as their durability point, so the
//! crash story is unchanged from inline compaction: at any cut the
//! manifest references either the old chain or the new base, never a
//! half-state. Files a fold supersedes are *not* removed by the thread —
//! a pinned [`PreparedGraph`](crate::dsss::PreparedGraph) (the owner's or
//! any serve-layer [`Snapshot`](crate::serve::Snapshot)) may still be
//! reading them — but queued on `pending_sweep`, tagged with the epoch
//! whose manifest first stopped referencing them. Reclamation is
//! generation-refcounted: `pins` counts live readers per epoch, and a
//! queued file is removed only once every pin at an epoch older than its
//! tag has dropped (see `StoreState::drain_safe_sweeps`).
//!
//! ## Scrubbing
//!
//! The scrubber walks every file on the disk at idle priority (folds
//! preempt it between files), classifying each by name against the
//! manifest. Referenced blobs are *deep*-verified — header, exact length,
//! payload checksum, and for sub-shards a full decode, a cell-tag
//! cross-check against the file name, and a canonical re-encode — because
//! a single bit flip can turn the
//! version tag of a raw blob into the compressed tag while the payload
//! checksum still passes; only decoding catches that. Corrupt referenced
//! blobs are quarantined (`quarantine.<name>`) so subsequent loads fail
//! hard instead of computing garbage; corrupt unreferenced files are
//! swept; clean orphans are only counted (reclaiming them is the owner's
//! sweep).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use nxgraph_storage::format::{self, Encoding, FileKind};
use nxgraph_storage::manifest::{MANIFEST_FILE, MANIFEST_TMP_FILE};
use nxgraph_storage::{
    ChecksumPolicy, Disk, EncodingPolicy, GraphManifest, RetryPolicy, SharedBytes, StorageError,
};

use crate::dsss::SubShardView;
use crate::error::{EngineError, EngineResult};

/// Name prefix under which the scrubber parks corrupt referenced blobs.
pub const QUARANTINE_PREFIX: &str = "quarantine.";

/// Committed store state shared between a
/// [`DynamicGraph`](crate::dynamic::DynamicGraph) and its maintenance
/// thread. `epoch` bumps on every commit; the owner refreshes its pinned
/// snapshot when it observes a newer epoch.
pub(crate) struct StoreState {
    pub manifest: GraphManifest,
    pub out_degrees: Arc<Vec<u32>>,
    pub epoch: u64,
    /// Superseded files awaiting reclamation, each tagged with the first
    /// epoch whose manifest no longer references it. A pin at an older
    /// epoch may still read the file; `drain_safe_sweeps` releases an
    /// entry only once no such pin remains.
    pub pending_sweep: Vec<(u64, String)>,
    /// Live reader pins per epoch: the owner's pinned snapshot plus every
    /// serve-layer [`Snapshot`](crate::serve::Snapshot). The refcount is
    /// what converts "owner refreshes, then sweep" into
    /// generation-refcounted reclamation.
    pub pins: BTreeMap<u64, usize>,
    /// Set while a full re-preprocessing is rewriting prep-time file names
    /// in place; new pins wait it out (`StoreShared::pin_latest`).
    pub rebuilding: bool,
}

impl StoreState {
    /// The oldest epoch any live pin still reads (`u64::MAX` when there
    /// are no pins at all).
    pub fn min_pinned(&self) -> u64 {
        self.pins.keys().next().copied().unwrap_or(u64::MAX)
    }

    /// Queue files superseded by the commit that just bumped `epoch`.
    pub fn queue_superseded(&mut self, names: impl IntoIterator<Item = String>) {
        let epoch = self.epoch;
        self.pending_sweep.extend(names.into_iter().map(|n| (epoch, n)));
    }

    /// Take every queued file no pin can still read: an entry tagged `e`
    /// is needed by manifests *older* than `e`, so it is safe once the
    /// minimum pinned epoch has reached `e`.
    pub fn drain_safe_sweeps(&mut self) -> Vec<String> {
        let min = self.min_pinned();
        let mut safe = Vec::new();
        self.pending_sweep.retain(|(e, name)| {
            if *e <= min {
                safe.push(name.clone());
                false
            } else {
                true
            }
        });
        safe
    }
}

/// The disk plus the two shared locks. Lock order: `gate` → `state`.
pub(crate) struct StoreShared {
    pub disk: Arc<dyn Disk>,
    pub state: Mutex<StoreState>,
    /// Held by the maintenance thread for each fold/scrub pass and by the
    /// owner to quiesce maintenance around rebuilds and explicit
    /// compaction.
    pub gate: Mutex<()>,
    /// Signalled on every pin release and rebuild-flag change.
    pub pins_cv: Condvar,
    /// The verify-once policy shared by every reader of this store, so
    /// sweeps triggered by a snapshot drop invalidate the same cache the
    /// owner's loads go through. Replaced wholesale on rebuild.
    pub checksums: Mutex<Arc<ChecksumPolicy>>,
}

impl StoreShared {
    /// Add a reader pin at `epoch`.
    pub fn pin(&self, epoch: u64) {
        *self.state.lock().pins.entry(epoch).or_insert(0) += 1;
    }

    /// Pin the latest committed state, returning the parts a snapshot
    /// needs. Blocks while a rebuild is rewriting prep-time names in
    /// place (the one commit that cannot coexist with older readers).
    pub fn pin_latest(&self) -> (GraphManifest, Arc<Vec<u32>>, u64) {
        let mut st = self.state.lock();
        while st.rebuilding {
            self.pins_cv.wait(&mut st);
        }
        let epoch = st.epoch;
        *st.pins.entry(epoch).or_insert(0) += 1;
        (st.manifest.clone(), Arc::clone(&st.out_degrees), epoch)
    }

    /// Drop a reader pin. The caller should follow with [`reclaim`]
    /// (outside any other lock) so newly-safe files are actually removed.
    pub fn unpin(&self, epoch: u64) {
        let mut st = self.state.lock();
        match st.pins.get_mut(&epoch) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                st.pins.remove(&epoch);
            }
            None => debug_assert!(false, "unpin of unpinned epoch {epoch}"),
        }
        drop(st);
        self.pins_cv.notify_all();
    }

    /// Remove every queued file whose protecting pins are gone, returning
    /// `(files, bytes)` reclaimed. Removal happens outside the state lock;
    /// each name leaves the verify-once cache with it.
    pub fn reclaim(&self) -> (usize, u64) {
        let safe = self.state.lock().drain_safe_sweeps();
        let checksums = Arc::clone(&self.checksums.lock());
        let (mut files, mut bytes) = (0usize, 0u64);
        for name in &safe {
            bytes += self.disk.len_of(name).unwrap_or(0);
            if self.disk.remove(name).is_ok() {
                files += 1;
            }
            checksums.note_invalidated(name);
        }
        (files, bytes)
    }

    /// Live pin count at `epoch` (tests assert the no-sweep-while-pinned
    /// contract through this).
    pub fn pin_count(&self, epoch: u64) -> usize {
        self.state.lock().pins.get(&epoch).copied().unwrap_or(0)
    }

    /// Block until the caller's pin at `epoch` is the only pin left, with
    /// the rebuild flag raised so no new pin can slip in afterwards.
    /// Pair with [`end_exclusive`].
    pub fn begin_exclusive(&self, epoch: u64) {
        let mut st = self.state.lock();
        st.rebuilding = true;
        while !(st.pins.len() == 1 && st.pins.get(&epoch) == Some(&1)) {
            self.pins_cv.wait(&mut st);
        }
    }

    /// Lower the rebuild flag and wake waiting pinners.
    pub fn end_exclusive(&self) {
        self.state.lock().rebuilding = false;
        self.pins_cv.notify_all();
    }
}

/// Result of one scrub pass over every file on the disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files read and examined (skipped names not included).
    pub files_scanned: usize,
    /// Files whose verification passed.
    pub clean: usize,
    /// Referenced files whose verification failed; each was quarantined
    /// under [`QUARANTINE_PREFIX`] and will hard-error on its next load.
    pub corrupt: Vec<String>,
    /// Unreferenced files whose verification failed; each was removed.
    pub swept: Vec<String>,
    /// Unreferenced but intact files (plus existing quarantine copies),
    /// left for the owner's orphan sweep to reclaim.
    pub orphans: usize,
    /// Total bytes read and hashed.
    pub bytes_scanned: u64,
}

impl ScrubReport {
    /// Whether no referenced blob failed verification.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Counters published by a [`MaintenanceThread`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Chains folded to a new base generation.
    pub cells_folded: u64,
    /// Fold attempts discarded because an append committed between the
    /// chain snapshot and the fold's commit (the fold retried).
    pub fold_races: u64,
    /// Completed scrub passes.
    pub scrubs: u64,
    /// Jobs re-queued after a transient storage fault (EIO, EINTR, short
    /// read, ENOSPC): the worker backs off and retries instead of dying.
    pub transient_retries: u64,
}

type PauseHook = Arc<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct CtlState {
    /// Cells signalled as due for folding, FIFO, deduplicated.
    due: VecDeque<(u32, u32, bool)>,
    scrub_requests: u64,
    scrubs_done: u64,
    last_scrub: Option<ScrubReport>,
    /// Whether the worker is currently inside a job (gate held).
    active: bool,
    shutdown: bool,
    stats: MaintStats,
    /// First background-fold error, surfaced by `wait_idle`.
    fold_error: Option<String>,
    /// Test rendezvous: called after a fold's merge completes, before its
    /// commit takes the state lock.
    pause_hook: Option<PauseHook>,
}

struct Ctl {
    m: Mutex<CtlState>,
    cv: Condvar,
}

/// Handle to the background maintenance thread of one dynamic graph.
///
/// Spawned by
/// [`DynamicConfig::background`](crate::dynamic::DynamicConfig::background);
/// dropped (shut down and joined) with the owning
/// [`DynamicGraph`](crate::dynamic::DynamicGraph).
pub struct MaintenanceThread {
    ctl: Arc<Ctl>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceThread {
    pub(crate) fn spawn(
        shared: Arc<StoreShared>,
        encoding: EncodingPolicy,
        checksums: Arc<ChecksumPolicy>,
    ) -> Self {
        let ctl = Arc::new(Ctl {
            m: Mutex::new(CtlState::default()),
            cv: Condvar::new(),
        });
        let worker_ctl = Arc::clone(&ctl);
        let handle = std::thread::Builder::new()
            .name("nxgraph-maint".into())
            .spawn(move || worker(shared, worker_ctl, encoding, checksums))
            .expect("failed to spawn maintenance thread");
        Self {
            ctl,
            handle: Some(handle),
        }
    }

    /// Queue cells for background folding (deduplicated against the
    /// queue). Returns immediately.
    pub(crate) fn signal_cells(&self, cells: &[(u32, u32, bool)]) {
        let mut st = self.ctl.m.lock();
        for &cell in cells {
            if !st.due.contains(&cell) {
                st.due.push_back(cell);
            }
        }
        drop(st);
        self.ctl.cv.notify_all();
    }

    /// Block until every queued fold and requested scrub has completed.
    /// Surfaces the first background-fold error, if any.
    pub fn wait_idle(&self) -> EngineResult<()> {
        let mut st = self.ctl.m.lock();
        loop {
            if let Some(e) = st.fold_error.take() {
                return Err(EngineError::Invalid(format!(
                    "background maintenance failed: {e}"
                )));
            }
            if st.shutdown
                || (st.due.is_empty() && !st.active && st.scrub_requests <= st.scrubs_done)
            {
                return Ok(());
            }
            self.ctl.cv.wait(&mut st);
        }
    }

    /// Request a scrub pass and block until it completes, returning its
    /// report. Queued folds run first (the scrubber is idle-priority).
    pub fn scrub_now(&self) -> EngineResult<ScrubReport> {
        let mut st = self.ctl.m.lock();
        st.scrub_requests += 1;
        let target = st.scrub_requests;
        self.ctl.cv.notify_all();
        loop {
            if let Some(e) = st.fold_error.take() {
                return Err(EngineError::Invalid(format!(
                    "background maintenance failed: {e}"
                )));
            }
            if st.shutdown {
                return Err(EngineError::Invalid(
                    "maintenance thread shut down before the scrub completed".into(),
                ));
            }
            if st.scrubs_done >= target {
                return Ok(st.last_scrub.clone().expect("completed scrub has a report"));
            }
            self.ctl.cv.wait(&mut st);
        }
    }

    /// Counters for folds, fold races and scrub passes.
    pub fn stats(&self) -> MaintStats {
        self.ctl.m.lock().stats
    }

    /// The most recent completed scrub report, if any.
    pub fn last_scrub(&self) -> Option<ScrubReport> {
        self.ctl.m.lock().last_scrub.clone()
    }

    /// Install (or clear) a rendezvous hook called once per fold job, after
    /// its first merge completes and *before* its commit takes the state
    /// lock (retries after a lost race skip the hook). Test-only
    /// instrumentation: parking the hook proves an append can commit while
    /// a fold is in flight.
    pub fn set_fold_pause(&self, hook: Option<PauseHook>) {
        self.ctl.m.lock().pause_hook = hook;
    }
}

impl Drop for MaintenanceThread {
    fn drop(&mut self) {
        {
            let mut st = self.ctl.m.lock();
            st.shutdown = true;
        }
        self.ctl.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

enum Job {
    Fold((u32, u32, bool)),
    Scrub { target: u64 },
}

/// How many transient-fault retries one maintenance job gets before its
/// error is treated as terminal and surfaced through `fold_error`.
const MAX_TRANSIENT_ATTEMPTS: u32 = 8;

/// Whether a failed maintenance job is worth re-queueing after backoff.
/// Only transient storage faults qualify; corruption and logic errors are
/// terminal.
fn is_transient(e: &EngineError) -> bool {
    matches!(e, EngineError::Storage(s) if s.is_transient())
}

fn worker(
    shared: Arc<StoreShared>,
    ctl: Arc<Ctl>,
    encoding: EncodingPolicy,
    checksums: Arc<ChecksumPolicy>,
) {
    let retry = RetryPolicy::default();
    // Worker-local retry budgets; cleared when a job finally succeeds or
    // is surfaced as terminal.
    let mut fold_attempts: HashMap<(u32, u32, bool), u32> = HashMap::new();
    let mut scrub_attempts: u32 = 0;
    loop {
        let job = {
            let mut st = ctl.m.lock();
            loop {
                if st.shutdown {
                    return;
                }
                // Folds before scrubs: the scrubber is idle-priority.
                if let Some(cell) = st.due.pop_front() {
                    st.active = true;
                    break Job::Fold(cell);
                }
                if st.scrub_requests > st.scrubs_done {
                    st.active = true;
                    break Job::Scrub {
                        target: st.scrub_requests,
                    };
                }
                ctl.cv.wait(&mut st);
            }
        };
        // Backoff to apply after the gate is released, so a retrying
        // worker never blocks appends or the owner's quiesce while asleep.
        let mut backoff: Option<Duration> = None;
        {
            let _gate = shared.gate.lock();
            match job {
                Job::Fold(cell) => {
                    let pause = ctl.m.lock().pause_hook.clone();
                    match fold_cell(&shared, cell, encoding, &checksums, pause.as_ref()) {
                        Ok(outcome) => {
                            fold_attempts.remove(&cell);
                            let mut st = ctl.m.lock();
                            st.stats.fold_races += outcome.races;
                            if outcome.folded {
                                st.stats.cells_folded += 1;
                                // Coalescing: one pending scrub covers any
                                // number of completed folds.
                                st.scrub_requests = st.scrub_requests.max(st.scrubs_done + 1);
                            }
                        }
                        Err(e) => {
                            let attempt = fold_attempts.get(&cell).copied().unwrap_or(0);
                            let mut st = ctl.m.lock();
                            if is_transient(&e) && attempt + 1 < MAX_TRANSIENT_ATTEMPTS {
                                fold_attempts.insert(cell, attempt + 1);
                                st.stats.transient_retries += 1;
                                backoff = Some(retry.backoff_for(attempt));
                                // Front of the queue: the cell keeps its
                                // place, and `wait_idle` keeps waiting until
                                // it resolves one way or the other.
                                if !st.due.contains(&cell) {
                                    st.due.push_front(cell);
                                }
                            } else {
                                fold_attempts.remove(&cell);
                                st.fold_error.get_or_insert(e.to_string());
                            }
                        }
                    }
                }
                Job::Scrub { target } => {
                    let manifest = shared.state.lock().manifest.clone();
                    let mut should_yield = || {
                        let st = ctl.m.lock();
                        !st.due.is_empty() || st.shutdown
                    };
                    match scrub_files(
                        shared.disk.as_ref(),
                        &manifest,
                        Some(&checksums),
                        &mut should_yield,
                    ) {
                        Ok(Some(report)) => {
                            scrub_attempts = 0;
                            let mut st = ctl.m.lock();
                            st.scrubs_done = st.scrubs_done.max(target);
                            st.stats.scrubs += 1;
                            st.last_scrub = Some(report);
                        }
                        // Yielded to a fold: leave the request pending; the
                        // pick loop re-runs the scrub fresh afterwards.
                        Ok(None) => {}
                        Err(e) => {
                            let mut st = ctl.m.lock();
                            if is_transient(&e) && scrub_attempts + 1 < MAX_TRANSIENT_ATTEMPTS {
                                scrub_attempts += 1;
                                st.stats.transient_retries += 1;
                                backoff = Some(retry.backoff_for(scrub_attempts - 1));
                                // `scrubs_done` stays behind `target`, so the
                                // request remains pending and re-runs.
                            } else {
                                scrub_attempts = 0;
                                st.fold_error.get_or_insert(e.to_string());
                                st.scrubs_done = st.scrubs_done.max(target);
                            }
                        }
                    }
                }
            }
        }
        let mut st = ctl.m.lock();
        st.active = false;
        drop(st);
        ctl.cv.notify_all();
        if let Some(d) = backoff {
            std::thread::sleep(d);
        }
    }
}

pub(crate) struct FoldOutcome {
    pub(crate) folded: bool,
    pub(crate) races: u64,
}

/// How many times a fold re-snapshots after losing a race to an append
/// before giving up (the next append past the threshold re-signals the
/// cell, so giving up never strands a chain).
const MAX_FOLD_ATTEMPTS: u32 = 16;

/// Fold one cell's chain into a new base generation without ever holding
/// the state lock across the merge. See the module docs for the protocol.
pub(crate) fn fold_cell(
    shared: &StoreShared,
    (i, j, reverse): (u32, u32, bool),
    encoding: EncodingPolicy,
    checksums: &ChecksumPolicy,
    mut pause: Option<&PauseHook>,
) -> EngineResult<FoldOutcome> {
    let disk = shared.disk.as_ref();
    let mut races = 0u64;
    for _ in 0..MAX_FOLD_ATTEMPTS {
        let chain = shared.state.lock().manifest.chain_info(i, j, reverse)?;
        if chain.deltas == 0 {
            return Ok(FoldOutcome {
                folded: false,
                races,
            });
        }
        // Merge with no lock held. A concurrent owner-side fold (explicit
        // compact) may sweep these files under us — treat NotFound as a
        // race, not corruption.
        let fold = match crate::dynamic::fold_chain(disk, (i, j, reverse), chain, None, encoding) {
            Ok(fold) => fold,
            Err(EngineError::Storage(StorageError::NotFound(_))) => {
                races += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        // Fire once per fold job: a retry after a lost race must not park
        // again, or a reusable barrier on the other side would deadlock.
        if let Some(hook) = pause.take() {
            hook();
        }
        disk.write_all_to(&fold.name, &fold.blob)?;
        let mut st = shared.state.lock();
        if st.manifest.chain_info(i, j, reverse)? != chain {
            // An append (or owner fold) committed since the snapshot; the
            // merge is stale. Discard and retry from the new chain state.
            drop(st);
            let _ = disk.remove(&fold.name);
            checksums.note_invalidated(&fold.name);
            races += 1;
            continue;
        }
        let mut manifest = st.manifest.clone();
        manifest.set_chain_info(i, j, reverse, fold.next);
        crate::dynamic::apply_byte_totals(&mut manifest, fold.raw_delta, fold.disk_delta);
        manifest.save(disk)?;
        st.manifest = manifest;
        st.epoch += 1;
        st.queue_superseded(fold.superseded);
        return Ok(FoldOutcome {
            folded: true,
            races,
        });
    }
    Ok(FoldOutcome {
        folded: false,
        races,
    })
}

// ---------------------------------------------------------------------------
// Scrubbing
// ---------------------------------------------------------------------------

/// What a file name means to the current manifest.
pub(crate) enum FileClass {
    /// Never examined: the manifest itself (parsed = validated), an
    /// in-flight manifest tmp (sweeping it here could race the owner's
    /// save between write and rename), a run's interval or hub scratch
    /// (a live run may be rewriting it in place, and every engine read
    /// verifies its checksum anyway), or a name this layer doesn't own.
    Skip,
    /// An existing quarantine copy: counted as an orphan, never verified.
    Quarantined,
    /// A sub-shard base or delta the manifest references.
    RefSubShard { i: u32, j: u32 },
    /// The degree table generation the manifest references.
    RefDegrees,
    /// The mapping tables (always referenced).
    RefMapping,
    /// A file this layer owns but the manifest does not reference.
    Orphan,
}

/// Degree-table generation encoded in a file name, if it is one.
fn parse_degrees_file(name: &str) -> Option<u32> {
    if name == GraphManifest::degree_file() {
        return Some(0);
    }
    name.strip_prefix("degrees.g")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// Parse any sub-shard cell file name — generation-tagged chain names
/// `[r]ss_{i}_{j}.g{gen}[.d{k}].bin` *and* plain prep-time
/// `[r]ss_{i}_{j}.bin` names (reported as generation 0) — into
/// `(i, j, reverse, gen, delta_index)`. Every other name is `None`.
fn parse_cell_file(name: &str) -> Option<(u32, u32, bool, u32, Option<u32>)> {
    let rest = name.strip_suffix(".bin")?;
    let (reverse, rest) = match rest.strip_prefix("rss_") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("ss_")?),
    };
    let mut parts = rest.split('.');
    let (i, j) = parts.next()?.split_once('_')?;
    let gen = match parts.next() {
        None => 0,
        Some(g) => g.strip_prefix('g')?.parse().ok()?,
    };
    let delta = match parts.next() {
        None => None,
        Some(d) => Some(d.strip_prefix('d')?.parse().ok()?),
    };
    if parts.next().is_some() {
        return None;
    }
    Some((i.parse().ok()?, j.parse().ok()?, reverse, gen, delta))
}

/// Whether a parsed cell file is referenced by `manifest`'s chain state.
fn cell_referenced(
    manifest: &GraphManifest,
    (i, j, reverse, gen, delta): (u32, u32, bool, u32, Option<u32>),
) -> EngineResult<bool> {
    let p = manifest.num_intervals;
    if i >= p || j >= p || (reverse && !manifest.has_reverse) {
        return Ok(false);
    }
    let chain = manifest.chain_info(i, j, reverse)?;
    Ok(gen == chain.gen
        && match delta {
            None => true,
            Some(k) => k >= 1 && k <= chain.deltas,
        })
}

/// Class `name` against `manifest`: the one reading of this layer's
/// file namespace, shared by the scrubber and the owner's orphan sweep.
pub(crate) fn classify(name: &str, manifest: &GraphManifest) -> EngineResult<FileClass> {
    if name == MANIFEST_FILE || name == MANIFEST_TMP_FILE {
        return Ok(FileClass::Skip);
    }
    if name.starts_with(QUARANTINE_PREFIX) {
        return Ok(FileClass::Quarantined);
    }
    if let Some(parsed) = parse_cell_file(name) {
        let (i, j, _, _, _) = parsed;
        return Ok(if cell_referenced(manifest, parsed)? {
            FileClass::RefSubShard { i, j }
        } else {
            FileClass::Orphan
        });
    }
    if let Some(gen) = parse_degrees_file(name) {
        return Ok(if gen == manifest.degrees_gen()? {
            FileClass::RefDegrees
        } else {
            FileClass::Orphan
        });
    }
    if name == GraphManifest::mapping_file() || name == GraphManifest::reverse_mapping_file() {
        return Ok(FileClass::RefMapping);
    }
    Ok(FileClass::Skip)
}

/// Verify one file's bytes against its class. `Ok(())` = intact.
fn verify_file(
    bytes: &SharedBytes,
    name: &str,
    class: &FileClass,
    manifest: &GraphManifest,
) -> Result<(), StorageError> {
    let corrupt = |reason: String| StorageError::Corrupt {
        name: name.to_string(),
        reason,
    };
    let (kind, encoding) = format::verify_blob(bytes.as_slice(), name)?;
    let expect_kind = |want: FileKind| {
        if kind == want {
            Ok(())
        } else {
            Err(corrupt(format!("expected {want:?}, header says {kind:?}")))
        }
    };
    match class {
        FileClass::Skip | FileClass::Quarantined => Ok(()),
        FileClass::RefSubShard { i, j } => {
            expect_kind(FileKind::SubShard)?;
            // Deep decode: catches the v2↔v3 version-tag flip the payload
            // checksum cannot see, plus any structural damage. Every writer
            // tags the blob with the cell its name claims (base and delta,
            // forward and reverse alike).
            let view = SubShardView::parse(bytes.clone(), name, true)?;
            if (view.src_interval(), view.dst_interval()) != (*i, *j) {
                return Err(corrupt(format!(
                    "blob tagged ({}, {}), name says ({i}, {j})",
                    view.src_interval(),
                    view.dst_interval()
                )));
            }
            // Canonicality: every writer emits the deterministic encoding
            // for the version it stamps, so a referenced blob must re-encode
            // to its own bytes. This closes the residual version-flip case
            // where the foreign decoder happens to accept the payload.
            let policy = match encoding {
                Encoding::Raw => EncodingPolicy::Raw,
                Encoding::DeltaVarint => EncodingPolicy::Compressed,
            };
            if view.encode_with(policy) != bytes.as_slice() {
                return Err(corrupt("blob is not the canonical encoding of its contents".into()));
            }
            Ok(())
        }
        FileClass::RefDegrees => {
            expect_kind(FileKind::Degrees)?;
            let payload = format::parse_blob(bytes.as_slice(), FileKind::Degrees, name, true)?;
            let n = format::decode_u32s(&bytes.as_slice()[payload])
                .map_err(|e| corrupt(format!("undecodable degree table: {e}")))?
                .len() as u64;
            if n != manifest.num_vertices {
                return Err(corrupt(format!(
                    "degree table has {n} entries for {} vertices",
                    manifest.num_vertices
                )));
            }
            Ok(())
        }
        FileClass::RefMapping => {
            expect_kind(FileKind::Mapping)?;
            let payload = format::parse_blob(bytes.as_slice(), FileKind::Mapping, name, true)?;
            if payload.len() as u64 != manifest.num_vertices * 8 {
                return Err(corrupt(format!(
                    "mapping table is {} bytes for {} vertices",
                    payload.len(),
                    manifest.num_vertices
                )));
            }
            Ok(())
        }
        // Orphans get the kind-agnostic header + checksum check only: the
        // name may be a leftover from any generation, so there is no
        // manifest state to deep-check against.
        FileClass::Orphan => Ok(()),
    }
}

/// One scrub pass over every file on `disk`, classified against
/// `manifest`. Returns `Ok(None)` if `should_yield` turned true between
/// files (the caller re-runs the pass later). `checksums`, when given,
/// is told about every file this pass removes or quarantines.
pub(crate) fn scrub_files(
    disk: &dyn Disk,
    manifest: &GraphManifest,
    checksums: Option<&ChecksumPolicy>,
    should_yield: &mut dyn FnMut() -> bool,
) -> EngineResult<Option<ScrubReport>> {
    let mut names = disk.list();
    names.sort_unstable();
    let mut report = ScrubReport::default();
    let invalidate = |name: &str| {
        if let Some(cs) = checksums {
            cs.note_invalidated(name);
        }
    };
    for name in names {
        if should_yield() {
            return Ok(None);
        }
        let class = classify(&name, manifest)?;
        match class {
            FileClass::Skip => continue,
            FileClass::Quarantined => {
                report.orphans += 1;
                continue;
            }
            _ => {}
        }
        // A file listed at pass start may be swept under us (the owner's
        // orphan sweep runs unsynchronised): vanished = not our problem.
        let bytes = match disk.read_all(&name) {
            Ok(b) => SharedBytes::from(b),
            Err(StorageError::NotFound(_)) => continue,
            Err(e) => return Err(e.into()),
        };
        report.files_scanned += 1;
        report.bytes_scanned += bytes.len() as u64;
        let verdict = verify_file(&bytes, &name, &class, manifest);
        match (verdict, &class) {
            (Ok(()), FileClass::Orphan) => report.orphans += 1,
            (Ok(()), _) => report.clean += 1,
            (Err(_), FileClass::Orphan) => {
                // Nothing references it: a corrupt copy is safe to drop
                // on the spot.
                let _ = disk.remove(&name);
                invalidate(&name);
                report.swept.push(name);
            }
            (Err(_), _) => {
                // A referenced blob failed verification. Park the bytes
                // under a quarantine name and remove the original, so the
                // next load of this cell fails hard (NotFound) instead of
                // feeding damaged data to an engine.
                disk.write_all_to(&format!("{QUARANTINE_PREFIX}{name}"), bytes.as_slice())?;
                let _ = disk.remove(&name);
                invalidate(&name);
                report.corrupt.push(name);
            }
        }
    }
    report.corrupt.sort_unstable();
    report.swept.sort_unstable();
    Ok(Some(report))
}

/// Scrub a prepared-graph disk standalone (the CLI `scrub` subcommand):
/// loads the manifest, then runs one full pass.
pub fn scrub(disk: &dyn Disk) -> EngineResult<ScrubReport> {
    let manifest = GraphManifest::load(disk)?;
    Ok(scrub_files(disk, &manifest, None, &mut || false)?
        .expect("an un-yieldable scrub always completes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{self, PrepConfig};
    use nxgraph_storage::MemDisk;

    /// A run rewrites its interval and hub scratch in place (truncate,
    /// then write), so a scrub can meet one empty or half-written. It
    /// must leave such files alone and keep them out of the report.
    #[test]
    fn scrub_leaves_run_scratch_untouched() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let raw: Vec<(u64, u64)> = (0..64u64).map(|v| (v, (v * 7 + 3) % 64)).collect();
        prep::preprocess(&raw, &PrepConfig::new("scrub", 3), Arc::clone(&disk)).unwrap();
        let before = scrub(disk.as_ref()).unwrap();
        let scratch: [(&str, &[u8]); 2] = [
            ("interval_q7_1.bin", b""),
            ("hub_0_1.bin", b"not a blob"),
        ];
        for (name, bytes) in scratch {
            disk.write_all_to(name, bytes).unwrap();
        }
        let after = scrub(disk.as_ref()).unwrap();
        for (name, bytes) in scratch {
            assert_eq!(disk.read_all(name).unwrap(), bytes, "{name} was touched");
        }
        assert_eq!(after, before, "scratch files showed up in the report");
        assert!(after.swept.is_empty() && after.corrupt.is_empty());
    }
}
