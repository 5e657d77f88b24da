//! Dynamic graph updates — the paper's stated future work ("NXgraph will
//! be extended to support dynamic change on graph structure").
//!
//! [`DynamicGraph`] wraps a [`PreparedGraph`] and accepts batches of new
//! edges. A batch touching existing vertices is committed by
//! *appending*: each touched `(i, j)` cell gets one small
//! destination-sorted delta blob written next to its base blob (same
//! checksummed sub-shard format, compressed under the
//! graph's [`EncodingPolicy`](nxgraph_storage::EncodingPolicy)), and the
//! manifest records the chain. Readers merge-iterate base + deltas behind
//! the ordinary view API, so the engines are untouched; a configurable
//! compaction policy ([`DynamicConfig`]) folds long or heavy chains back
//! into a single base blob at the *next generation*.
//!
//! Folding runs in one of two places ([`Compaction`]): **inline** (the
//! default) folds a due chain inside the same `add_edges` commit;
//! **background** ([`DynamicConfig::background`]) keeps `add_edges`
//! append-only — a due cell is merely *signalled* to the
//! [`MaintenanceThread`], which folds
//! it off the commit path while the owner keeps reading its pinned
//! snapshot (picked up at the next [`DynamicGraph::refresh`]). Appends
//! are never blocked behind a fold: the fold's merge runs lock-free and
//! its commit re-validates the chain, retrying if an append won the race
//! (see [`crate::maintain`] for the protocol).
//!
//! A batch that introduces previously unseen vertex indices changes the
//! dense id space, so it still triggers a full re-preprocessing —
//! reconstructing the raw edge list from the sub-shards and the mapping
//! table — which is reported in the [`CommitStats`] so callers can batch
//! accordingly.
//!
//! ## Write-boundary contract (crash safety)
//!
//! Every commit issues its writes in one fixed, enumerable order, which
//! is what lets the power-loss simulator
//! ([`CrashDisk`](nxgraph_storage::CrashDisk)) assert recovery at *every*
//! cut point rather than a sampled few:
//!
//! 1. **Content blobs first, under fresh names.** Delta blobs go to the
//!    next delta index of the current generation, fold outputs to the
//!    next generation's base name, degree tables to the next degree
//!    generation — never over a name the on-disk manifest references.
//! 2. **The manifest commit.** [`GraphManifest::save`] writes
//!    `graph.manifest.tmp` and atomically renames it over
//!    `graph.manifest`. This rename is THE durability point of every
//!    commit (appends, folds, background folds alike).
//! 3. **Sweeps last.** Files the new manifest no longer references are
//!    removed only after the rename (background folds defer this to the
//!    owner's next refresh, since its pinned reader may still use them).
//!
//! A crash before step 2 leaves new blobs unreferenced; after step 2 it
//! leaves old blobs unreferenced. Either way the manifest on disk
//! describes a complete, consistent graph, and the leftovers are orphans
//! that [`DynamicGraph::compact`]'s sweep reclaims. One documented
//! exception writes in place: a full re-preprocessing rewrites the
//! prep-time layout wholesale (mid-prep crash atomicity is out of scope;
//! the fold-before-rebuild below keeps *chained* state safe across it).

use std::collections::BTreeMap;
use std::sync::Arc;

use nxgraph_storage::manifest::{ChainInfo, GraphManifest};
use parking_lot::Mutex;

use crate::dsss::{self, MergedSubShardView, PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::maintain::{self, FileClass, MaintenanceThread, ScrubReport, StoreShared, StoreState};
use crate::prep::{self, PrepConfig};
use crate::types::VertexId;

/// Where chain folding runs when the [`DynamicConfig`] thresholds trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compaction {
    /// Fold a due chain inside the same `add_edges` commit. Simple and
    /// deterministic; the commit pays the merge.
    #[default]
    Inline,
    /// Append only; signal due cells to a background
    /// [`MaintenanceThread`] that folds them off the commit path. Chains
    /// may transiently exceed the thresholds while a fold is in flight.
    Background,
}

/// Compaction-policy knobs for a [`DynamicGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicConfig {
    /// Fold a cell's chain once it holds this many delta blobs.
    pub max_deltas: u32,
    /// …or once the chain's on-disk delta bytes exceed this fraction of
    /// the base blob (long chains over a small base cost merge time; heavy
    /// chains over any base cost read amplification).
    pub max_delta_ratio: f64,
    /// Whether due chains fold inline or on the maintenance thread (which
    /// also runs a checksum-scrub pass after each completed fold).
    pub compaction: Compaction,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        // The byte ratio is the primary bound (it caps read amplification
        // at 2× the base bytes); the count is a cap on merge width, which
        // costs O(parts) per edge on chained reads.
        Self {
            max_deltas: 32,
            max_delta_ratio: 1.0,
            compaction: Compaction::Inline,
        }
    }
}

impl DynamicConfig {
    /// Delta logging with automatic compaction disabled — chains only fold
    /// on an explicit [`DynamicGraph::compact`] (tests and benchmarks that
    /// want to observe raw chains).
    pub fn never_compact() -> Self {
        Self {
            max_deltas: u32::MAX,
            max_delta_ratio: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Delta logging with background maintenance: `add_edges` only
    /// appends and signals, a dedicated thread folds due chains and
    /// re-scrubs checksums after each fold.
    pub fn background() -> Self {
        Self {
            compaction: Compaction::Background,
            ..Self::default()
        }
    }
}

/// Result of one [`DynamicGraph::add_edges`] commit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Edges added in this batch.
    pub edges_added: usize,
    /// Whether the whole graph had to be re-preprocessed (new vertices).
    pub rebuilt: bool,
    /// Delta blobs appended (one per touched cell; forward + reverse
    /// counted separately).
    pub deltas_appended: usize,
    /// Cells whose chains this commit folded inline.
    pub cells_compacted: usize,
    /// Cells signalled to the background maintenance thread for folding
    /// (only under [`Compaction::Background`]).
    pub cells_signalled: usize,
}

/// Result of one [`DynamicGraph::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Chains folded into a single next-generation base.
    pub cells_folded: usize,
    /// Unreferenced files reclaimed by the orphan sweep (crash leftovers,
    /// deferred background-fold sweeps, quarantined blobs, stale degree
    /// generations).
    pub files_swept: usize,
    /// Total bytes those files occupied.
    pub bytes_swept: u64,
}

/// A prepared graph accepting structural updates.
///
/// Holds a *pinned* [`PreparedGraph`] snapshot for reading plus the
/// `StoreShared` committed state it shares with an optional background
/// [`MaintenanceThread`]. The snapshot never changes under a running
/// engine; [`DynamicGraph::refresh`] (called automatically by every
/// mutating method) catches it up to commits the thread made.
pub struct DynamicGraph {
    shared: Arc<StoreShared>,
    graph: PreparedGraph,
    /// The `shared.state` epoch `graph` was built from.
    seen_epoch: u64,
    /// Sorted original indices; position = dense id.
    mapping: Vec<u64>,
    config: DynamicConfig,
    maint: Option<MaintenanceThread>,
    /// Commits aborted by a storage error (ENOSPC, EIO) before reaching
    /// their manifest save; the store stayed on its last commit.
    commit_aborts: u64,
}

impl DynamicGraph {
    /// Wrap a prepared graph (loads the mapping table) with the default
    /// delta-log configuration.
    pub fn new(graph: PreparedGraph) -> EngineResult<Self> {
        Self::with_config(graph, DynamicConfig::default())
    }

    /// Wrap a prepared graph with an explicit [`DynamicConfig`]. Under
    /// [`Compaction::Background`] this spawns the maintenance thread
    /// (joined when the `DynamicGraph` drops).
    pub fn with_config(graph: PreparedGraph, config: DynamicConfig) -> EngineResult<Self> {
        let mapping = graph.load_reverse_mapping()?;
        let shared = Arc::new(StoreShared {
            disk: Arc::clone(graph.disk()),
            state: Mutex::new(StoreState {
                manifest: graph.manifest().clone(),
                out_degrees: Arc::clone(graph.out_degrees()),
                epoch: 0,
                pending_sweep: Vec::new(),
                // The owner's pinned snapshot is reader pin #1; serve-layer
                // snapshots add and drop their own.
                pins: std::collections::BTreeMap::from([(0u64, 1usize)]),
                rebuilding: false,
            }),
            gate: Mutex::new(()),
            pins_cv: parking_lot::Condvar::new(),
            checksums: Mutex::new(Arc::clone(graph.checksum_policy())),
        });
        let mut dg = Self {
            shared,
            graph,
            seen_epoch: 0,
            mapping,
            config,
            maint: None,
            commit_aborts: 0,
        };
        dg.spawn_maintenance();
        Ok(dg)
    }

    fn spawn_maintenance(&mut self) {
        if self.config.compaction == Compaction::Background {
            self.maint = Some(MaintenanceThread::spawn(
                Arc::clone(&self.shared),
                self.graph.encoding_policy(),
                Arc::clone(self.graph.checksum_policy()),
            ));
        }
    }

    /// The current prepared graph (always consistent after each commit).
    pub fn graph(&self) -> &PreparedGraph {
        &self.graph
    }

    /// The compaction configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// The background maintenance thread, when
    /// [`Compaction::Background`] is configured.
    pub fn maintenance(&self) -> Option<&MaintenanceThread> {
        self.maint.as_ref()
    }

    /// The shared committed state this graph coordinates through — what a
    /// serve-layer [`Snapshot`](crate::serve::Snapshot) pins.
    pub(crate) fn shared(&self) -> &Arc<StoreShared> {
        &self.shared
    }

    /// Live reader pins at `epoch` — the owner's snapshot counts as one;
    /// every serve-layer [`Snapshot`](crate::serve::Snapshot) pinning
    /// that epoch adds another. Tests assert the no-sweep-while-pinned
    /// contract through this.
    pub fn pin_count(&self, epoch: u64) -> usize {
        self.shared.pin_count(epoch)
    }

    /// The latest committed epoch (bumps once per commit or fold).
    pub fn current_epoch(&self) -> u64 {
        self.shared.state.lock().epoch
    }

    /// Superseded files still queued for reclamation — non-empty exactly
    /// while some live pin protects an older generation.
    pub fn pending_sweeps(&self) -> usize {
        self.shared.state.lock().pending_sweep.len()
    }

    /// Dense id of an original index, if known.
    pub fn id_of(&self, index: u64) -> Option<VertexId> {
        self.mapping.binary_search(&index).ok().map(|i| i as VertexId)
    }

    /// Reconstruct the raw edge list (original indices) from disk.
    pub fn raw_edges(&self) -> EngineResult<Vec<(u64, u64)>> {
        let p = self.graph.num_intervals();
        let mut out = Vec::with_capacity(self.graph.num_edges() as usize);
        for i in 0..p {
            for j in 0..p {
                let ss = self.graph.load_subshard(i, j, false)?;
                out.extend(ss.iter_edges().map(|(s, d)| {
                    (self.mapping[s as usize], self.mapping[d as usize])
                }));
            }
        }
        Ok(out)
    }

    /// Catch the pinned snapshot up to the latest committed state, then
    /// reclaim queued files whose protecting pins are gone (moving the
    /// owner's pin forward is usually what frees them — unless a
    /// serve-layer snapshot still pins an older epoch, in which case its
    /// drop performs the sweep instead). Returns whether anything
    /// changed. Cheap no-op when the epoch is current.
    pub fn refresh(&mut self) -> EngineResult<bool> {
        let (manifest, out_degrees, epoch) = {
            let st = self.shared.state.lock();
            if st.epoch == self.seen_epoch && st.pending_sweep.is_empty() {
                return Ok(false);
            }
            (st.manifest.clone(), Arc::clone(&st.out_degrees), st.epoch)
        };
        if epoch != self.seen_epoch {
            self.install(manifest, out_degrees, epoch)?;
        }
        self.shared.reclaim();
        Ok(true)
    }

    /// Rebuild the pinned snapshot from already-in-hand parts, reusing the
    /// checksum policy and buffer pool (commits are frequent on streaming
    /// workloads; re-verifying every unchanged file per commit would
    /// defeat the verify-once policy).
    ///
    /// Pin accounting: the new epoch is pinned *before* the old one is
    /// released, so the pinned-epoch set never goes empty mid-transition
    /// (an empty set would make every queued sweep "safe" while this very
    /// method still reads the old snapshot's files).
    fn install(
        &mut self,
        manifest: GraphManifest,
        out_degrees: Arc<Vec<u32>>,
        epoch: u64,
    ) -> EngineResult<()> {
        self.shared.pin(epoch);
        let retry = self.graph.retry_policy();
        let graph = PreparedGraph::from_parts_reusing(
            Arc::clone(&self.shared.disk),
            manifest,
            out_degrees,
            Arc::clone(self.graph.checksum_policy()),
            Arc::clone(self.graph.buffer_pool()),
        );
        let graph = match graph {
            Ok(g) => g,
            Err(e) => {
                self.shared.unpin(epoch);
                return Err(e);
            }
        };
        self.graph = graph;
        self.graph.set_retry_policy(retry);
        let old = self.seen_epoch;
        self.seen_epoch = epoch;
        self.shared.unpin(old);
        Ok(())
    }

    /// Best-effort removal with checksum-cache invalidation: if a future
    /// commit reuses one of these names, its fresh bytes must be
    /// re-verified, not waved through by the verify-once cache.
    fn sweep_files(&self, names: &[String]) {
        for name in names {
            let _ = self.shared.disk.remove(name);
            self.graph.checksum_policy().note_invalidated(name);
        }
    }

    /// Add a batch of edges (original indices) and commit to disk.
    ///
    /// The whole commit — chain reads, blob writes, manifest save, shared
    /// state update — runs under the `state` lock, so a background fold
    /// can never interleave with it (the fold detects the changed chain
    /// and retries; this side needs no retry loop).
    ///
    /// ## Failure semantics
    ///
    /// Any storage error before the manifest save — ENOSPC, EIO, a torn
    /// blob write — aborts the commit: the error is returned, the
    /// committed state stays on the *previous* manifest (new blobs were
    /// written under fresh names the old manifest never references, so
    /// nothing is torn), and [`commit_aborts`](Self::commit_aborts)
    /// increments. The caller may simply retry the same batch once the
    /// condition clears; leftover blobs from the aborted attempt are
    /// reclaimed by the next [`compact`](Self::compact) sweep.
    pub fn add_edges(&mut self, new_raw: &[(u64, u64)]) -> EngineResult<CommitStats> {
        let res = self.add_edges_inner(new_raw);
        if res.is_err() {
            self.commit_aborts += 1;
        }
        res
    }

    /// Commits aborted by a storage error, each leaving the store on its
    /// last successful manifest commit.
    pub fn commit_aborts(&self) -> u64 {
        self.commit_aborts
    }

    fn add_edges_inner(&mut self, new_raw: &[(u64, u64)]) -> EngineResult<CommitStats> {
        if new_raw.is_empty() {
            return Ok(CommitStats::default());
        }
        self.refresh()?;
        let all_known = new_raw
            .iter()
            .all(|&(s, d)| self.id_of(s).is_some() && self.id_of(d).is_some());
        if !all_known {
            return self.rebuild_with(new_raw);
        }

        // Incremental path: bucket dense edges by grid cell.
        let p = self.graph.num_intervals();
        let interval_len = self.graph.manifest().interval_len() as VertexId;
        let interval_of = |v: VertexId| (v / interval_len).min(p - 1);

        let mut buckets: BTreeMap<(u32, u32, bool), Vec<(VertexId, VertexId)>> = BTreeMap::new();
        let mut degree_bump: BTreeMap<VertexId, u32> = BTreeMap::new();
        for &(s, d) in new_raw {
            let (s, d) = (self.id_of(s).unwrap(), self.id_of(d).unwrap());
            buckets
                .entry((interval_of(s), interval_of(d), false))
                .or_default()
                .push((s, d));
            if self.graph.has_reverse() {
                buckets
                    .entry((interval_of(d), interval_of(s), true))
                    .or_default()
                    .push((d, s));
            }
            *degree_bump.entry(s).or_default() += 1;
        }

        let mut stats = CommitStats {
            edges_added: new_raw.len(),
            ..CommitStats::default()
        };
        let encoding = self.graph.encoding_policy();
        let disk = Arc::clone(&self.shared.disk);
        let mut due_cells: Vec<(u32, u32, bool)> = Vec::new();
        let mut stale: Vec<String> = Vec::new();

        let mut st = self.shared.state.lock();
        let mut manifest = st.manifest.clone();
        let (mut raw_delta, mut disk_delta) = (0i64, 0i64);

        for ((i, j, reverse), extra) in buckets {
            let chain = manifest.chain_info(i, j, reverse)?;
            let d = SubShardView::from_edges(i, j, extra);
            let blob = d.encode_with(encoding);
            // Fold-before-append check, O(1) in the chain length:
            // accumulated delta bytes ride in the ChainInfo, and the base
            // is stat'ed only when the ratio can trip.
            let base_name = GraphManifest::subshard_base_file(i, j, reverse, chain.gen);
            let due = chain.deltas + 1 >= self.config.max_deltas
                || (self.config.max_delta_ratio.is_finite()
                    && (chain.delta_bytes + blob.len() as u64) as f64
                        > disk.len_of(&base_name)? as f64 * self.config.max_delta_ratio);
            if due && self.config.compaction == Compaction::Inline {
                // The chain would cross a threshold: fold it and this
                // batch's edges into a fresh base in the same commit,
                // instead of appending a delta only to read it straight
                // back.
                let fold = fold_chain(disk.as_ref(), (i, j, reverse), chain, Some(d), encoding)?;
                disk.write_all_to(&fold.name, &fold.blob)?;
                raw_delta += fold.raw_delta;
                disk_delta += fold.disk_delta;
                manifest.set_chain_info(i, j, reverse, fold.next);
                stale.extend(fold.superseded);
                stats.cells_compacted += 1;
            } else {
                // Append one destination-sorted delta blob; the base and
                // earlier deltas are not even read. Under background
                // compaction a due cell is signalled, never folded here —
                // the append commits at append cost no matter what the
                // maintenance thread is doing.
                let name =
                    GraphManifest::subshard_delta_file(i, j, reverse, chain.gen, chain.deltas + 1);
                raw_delta += d.encoded_len() as i64;
                disk_delta += blob.len() as i64;
                disk.write_all_to(&name, &blob)?;
                manifest.set_chain_info(
                    i,
                    j,
                    reverse,
                    ChainInfo {
                        gen: chain.gen,
                        deltas: chain.deltas + 1,
                        delta_bytes: chain.delta_bytes + blob.len() as u64,
                    },
                );
                stats.deltas_appended += 1;
                if due {
                    due_cells.push((i, j, reverse));
                    stats.cells_signalled += 1;
                }
            }
        }

        manifest.num_edges += new_raw.len() as u64;

        // Bumped out-degrees go to the *next* degree generation — never
        // over the referenced table — so a torn degree write can only
        // damage an unreferenced file (write-boundary contract, step 1).
        let out_degrees = if degree_bump.is_empty() {
            Arc::clone(&st.out_degrees)
        } else {
            let mut degrees = (*st.out_degrees).clone();
            for (&v, &bump) in &degree_bump {
                degrees[v as usize] += bump;
            }
            let old_gen = manifest.degrees_gen()?;
            let name = GraphManifest::degree_file_at(old_gen + 1);
            dsss::write_degree_table(disk.as_ref(), &name, &degrees)?;
            manifest.set_degrees_gen(old_gen + 1);
            stale.push(GraphManifest::degree_file_at(old_gen));
            Arc::new(degrees)
        };

        apply_byte_totals(&mut manifest, raw_delta, disk_delta);
        manifest.save(disk.as_ref())?;
        st.manifest = manifest.clone();
        st.out_degrees = Arc::clone(&out_degrees);
        st.epoch += 1;
        let epoch = st.epoch;
        // Files this commit superseded join the refcounted queue; the
        // install below moves the owner's pin forward and its reclaim
        // removes whatever no snapshot still protects.
        st.queue_superseded(stale);
        drop(st);

        self.install(manifest, out_degrees, epoch)?;
        self.shared.reclaim();
        if let (Some(maint), false) = (&self.maint, due_cells.is_empty()) {
            maint.signal_cells(&due_cells);
        }
        Ok(stats)
    }

    /// Fold every cell's delta chain into a single base blob (regardless
    /// of the thresholds), then sweep every unreferenced file — crash
    /// leftovers, deferred background-fold sweeps, quarantined blobs,
    /// stale degree generations, a stranded manifest tmp. Holds the
    /// maintenance `gate` throughout, so the background thread is fully
    /// quiesced (its sweep deferral doesn't apply here).
    ///
    /// All folds commit under ONE manifest save: with the gate held and
    /// `&mut self`, no other commit can land, so the background thread's
    /// per-fold commit/race protocol is pure overhead here — and before a
    /// rebuild it would write hundreds of manifest copies. A crash before
    /// the save leaves the new bases as unreferenced orphans and the old
    /// manifest (chains included) fully intact.
    pub fn compact(&mut self) -> EngineResult<CompactReport> {
        let report;
        {
            let shared = Arc::clone(&self.shared);
            let _gate = shared.gate.lock();
            let mut manifest = self.shared.state.lock().manifest.clone();
            let chained: Vec<(u32, u32, bool, ChainInfo)> = manifest
                .chains()?
                .into_iter()
                .filter(|&(_, _, _, info)| info.deltas > 0)
                .collect();
            let disk = self.shared.disk.as_ref();
            let encoding = self.graph.encoding_policy();
            let (mut raw_delta, mut disk_delta) = (0i64, 0i64);
            let mut stale: Vec<String> = Vec::new();
            for &(i, j, reverse, chain) in &chained {
                let fold = fold_chain(disk, (i, j, reverse), chain, None, encoding)?;
                disk.write_all_to(&fold.name, &fold.blob)?;
                raw_delta += fold.raw_delta;
                disk_delta += fold.disk_delta;
                manifest.set_chain_info(i, j, reverse, fold.next);
                stale.extend(fold.superseded);
            }
            if !chained.is_empty() {
                apply_byte_totals(&mut manifest, raw_delta, disk_delta);
                manifest.save(disk)?;
                let mut st = self.shared.state.lock();
                st.manifest = manifest;
                st.epoch += 1;
                st.queue_superseded(stale);
            }
            // Catch the owner's pin up to the folds just committed, so
            // their superseded chains are sweep-safe below unless another
            // snapshot still pins them.
            let (cur_manifest, cur_degrees, cur_epoch) = {
                let st = self.shared.state.lock();
                (st.manifest.clone(), Arc::clone(&st.out_degrees), st.epoch)
            };
            if cur_epoch != self.seen_epoch {
                self.install(cur_manifest, cur_degrees, cur_epoch)?;
            }
            let (files_swept, bytes_swept) = self.sweep_orphans()?;
            report = CompactReport {
                cells_folded: chained.len(),
                files_swept,
                bytes_swept,
            };
        }
        self.refresh()?;
        Ok(report)
    }

    /// Remove every file in this layer's namespace that the committed
    /// manifest does not reference, returning `(files, bytes)` reclaimed.
    /// Covers generation-tagged chain files, plain prep-time base names
    /// superseded by a folded generation, stale degree-table generations,
    /// quarantine copies the scrubber parked, and a manifest tmp stranded
    /// mid-save. Files a still-pinned snapshot protects — queued for sweep
    /// but tagged newer than the oldest pin — are skipped; the last
    /// protecting snapshot's drop reclaims them. Caller holds the `gate`
    /// (no concurrent maintenance) and `&mut self`.
    fn sweep_orphans(&self) -> EngineResult<(usize, u64)> {
        // Reclaim the refcount-safe part of the queue first (counted),
        // then shield whatever remains queued from the name scan: those
        // files are unreferenced by the *current* manifest but still read
        // through manifests older pins hold.
        let (mut files, mut bytes) = self.shared.reclaim();
        let (manifest, protected) = {
            let st = self.shared.state.lock();
            let protected: std::collections::HashSet<String> =
                st.pending_sweep.iter().map(|(_, n)| n.clone()).collect();
            (st.manifest.clone(), protected)
        };
        let disk = &self.shared.disk;
        for name in disk.list() {
            if protected.contains(&name) {
                continue;
            }
            // The scrubber skips a manifest tmp (the owner may be mid-save);
            // here the owner holds the gate, so a stranded one is stale.
            let stale = name == nxgraph_storage::manifest::MANIFEST_TMP_FILE
                || matches!(
                    maintain::classify(&name, &manifest)?,
                    FileClass::Orphan | FileClass::Quarantined
                );
            if stale {
                bytes += disk.len_of(&name).unwrap_or(0);
                let _ = disk.remove(&name);
                self.graph.checksum_policy().note_invalidated(&name);
                files += 1;
            }
        }
        Ok((files, bytes))
    }

    /// Re-verify every blob on the disk against the committed manifest
    /// (see [`crate::maintain`] for the classification and quarantine
    /// rules). Under background compaction the pass runs on the
    /// maintenance thread after any queued folds; otherwise it runs here.
    pub fn scrub(&mut self) -> EngineResult<ScrubReport> {
        if let Some(maint) = &self.maint {
            let report = maint.scrub_now()?;
            self.refresh()?;
            return Ok(report);
        }
        let _gate = self.shared.gate.lock();
        let manifest = self.shared.state.lock().manifest.clone();
        let report = maintain::scrub_files(
            self.shared.disk.as_ref(),
            &manifest,
            Some(self.graph.checksum_policy()),
            &mut || false,
        )?
        .expect("an un-yieldable scrub always completes");
        Ok(report)
    }

    /// Block until every signalled fold and requested scrub has finished,
    /// then catch the pinned snapshot up to their commits. No-op without
    /// a maintenance thread. Surfaces any background fold error.
    pub fn wait_maintenance_idle(&mut self) -> EngineResult<()> {
        if let Some(maint) = &self.maint {
            maint.wait_idle()?;
        }
        self.refresh()?;
        Ok(())
    }

    fn rebuild_with(&mut self, new_raw: &[(u64, u64)]) -> EngineResult<CommitStats> {
        // Quiesce maintenance for good: re-preprocessing replaces the
        // encoding policy and checksum cache the thread was spawned with,
        // so it is joined here and respawned against the new graph below.
        self.maint = None;
        self.refresh()?;
        // Fold every chain first: re-preprocessing overwrites the
        // generation-0 base names in place, and doing that while the
        // on-disk manifest still lists deltas for those cells would merge
        // old delta blobs into new-id-space bases (double-counted edges)
        // if the rebuild were interrupted. After the fold, every chained
        // cell lives at a generation > 0 — names preprocessing never
        // touches — so an interrupted rebuild reopens as the intact
        // pre-rebuild graph. (Cells that never chained are overwritten in
        // place, as every rebuild has done; mid-prep crash atomicity for
        // those is out of scope.)
        self.compact()?;
        // A rebuild overwrites prep-time (generation-0) names in place —
        // the one commit that cannot coexist with older readers. Wait for
        // every serve-layer snapshot to drop, with the rebuild flag up so
        // no new pin slips in while preprocessing rewrites the store.
        self.shared.begin_exclusive(self.seen_epoch);
        let res = (|| -> EngineResult<CommitStats> {
            let mut raw = self.raw_edges()?;
            raw.extend_from_slice(new_raw);
            // The folded bases (and any gen-tagged degree table), swept only
            // after the new manifest is saved.
            let mut stale = Vec::new();
            for (i, j, reverse, chain) in self.graph.manifest().chains()? {
                stale.extend(chain_files(i, j, reverse, chain));
            }
            let degrees_gen = self.graph.manifest().degrees_gen()?;
            if degrees_gen != 0 {
                stale.push(GraphManifest::degree_file_at(degrees_gen));
            }
            let cfg = PrepConfig {
                name: self.graph.manifest().name.clone(),
                num_intervals: self.graph.num_intervals(),
                build_reverse: self.graph.has_reverse(),
                encoding: self.graph.encoding_policy(),
            };
            let disk = Arc::clone(&self.shared.disk);
            self.graph = prep::preprocess(&raw, &cfg, disk)?;
            // The rebuilt graph starts a fresh verify-once cache; future
            // snapshot-drop sweeps must invalidate through it.
            *self.shared.checksums.lock() = Arc::clone(self.graph.checksum_policy());
            self.sweep_files(&stale);
            self.mapping = self.graph.load_reverse_mapping()?;
            {
                let mut st = self.shared.state.lock();
                st.manifest = self.graph.manifest().clone();
                st.out_degrees = Arc::clone(self.graph.out_degrees());
                st.epoch += 1;
                st.pending_sweep.clear();
                // Move the owner's (sole, exclusive) pin to the new epoch.
                st.pins.remove(&self.seen_epoch);
                let epoch = st.epoch;
                st.pins.insert(epoch, 1);
                self.seen_epoch = epoch;
            }
            self.spawn_maintenance();
            Ok(CommitStats {
                edges_added: new_raw.len(),
                rebuilt: true,
                ..CommitStats::default()
            })
        })();
        self.shared.end_exclusive();
        res
    }
}

impl Drop for DynamicGraph {
    fn drop(&mut self) {
        // Join maintenance first (it may still be committing folds), then
        // release the owner's reader pin so any snapshot outliving this
        // graph reclaims superseded files when it drops.
        self.maint = None;
        self.shared.unpin(self.seen_epoch);
        self.shared.reclaim();
    }
}

/// Keep the recorded blob-size totals (and hence the reported compression
/// ratio) in step with what a commit wrote.
pub(crate) fn apply_byte_totals(manifest: &mut GraphManifest, raw_delta: i64, disk_delta: i64) {
    for (key, delta) in [
        (crate::dsss::SS_RAW_BYTES_MANIFEST_KEY, raw_delta),
        (crate::dsss::SS_DISK_BYTES_MANIFEST_KEY, disk_delta),
    ] {
        if let Some(v) = manifest.extra.get_mut(key) {
            let cur: i64 = v.parse().unwrap_or(0);
            *v = (cur + delta).max(0).to_string();
        }
    }
}

/// Every file a chain occupies — the base blob first, then all delta
/// blobs. Fold paths sweep the whole list once the manifest references
/// the next generation (the generation-0 base included: a fold is the
/// only thing that ever supersedes it, and leaving it would leak the
/// original cell's bytes forever).
fn chain_files(i: u32, j: u32, reverse: bool, chain: ChainInfo) -> Vec<String> {
    let mut out = Vec::with_capacity(chain.deltas as usize + 1);
    out.push(GraphManifest::subshard_base_file(i, j, reverse, chain.gen));
    for k in 1..=chain.deltas {
        out.push(GraphManifest::subshard_delta_file(i, j, reverse, chain.gen, k));
    }
    out
}

/// One cell's chain merged into the blob of its next base generation —
/// computed by [`fold_chain`], not yet written.
pub(crate) struct Fold {
    /// The next generation's base name, where `blob` goes.
    pub(crate) name: String,
    pub(crate) blob: Vec<u8>,
    /// What the fold changes in the manifest's raw and on-disk sub-shard
    /// byte totals.
    pub(crate) raw_delta: i64,
    pub(crate) disk_delta: i64,
    /// The chain the manifest records once the blob is written.
    pub(crate) next: ChainInfo,
    /// Every file the folded chain occupied, swept after the commit.
    pub(crate) superseded: Vec<String>,
}

/// The one fold: read a cell's chain (base first, then each delta, every
/// part checksum-verified so a fold never re-checksums unverified bytes
/// into a new base), k-way merge it together with `batch` — appended
/// last, already destination-sorted — and encode the result. Every
/// caller (inline commit, [`DynamicGraph::compact`], the maintenance
/// thread) keeps only its own commit protocol around this.
pub(crate) fn fold_chain(
    disk: &dyn nxgraph_storage::Disk,
    (i, j, reverse): (u32, u32, bool),
    chain: ChainInfo,
    batch: Option<SubShardView>,
    encoding: nxgraph_storage::EncodingPolicy,
) -> EngineResult<Fold> {
    let mut parts = dsss::load_chain_parts(disk, i, j, reverse, chain)?;
    let old_raw: u64 = parts.iter().map(SubShardView::encoded_len).sum();
    let old_disk = disk.len_of(&GraphManifest::subshard_base_file(i, j, reverse, chain.gen))?
        + chain.delta_bytes;
    parts.extend(batch);
    let merged = MergedSubShardView::merge(&parts).into_view();
    let blob = merged.encode_with(encoding);
    let next = ChainInfo {
        gen: chain.gen + 1,
        ..ChainInfo::default()
    };
    Ok(Fold {
        name: GraphManifest::subshard_base_file(i, j, reverse, next.gen),
        raw_delta: merged.encoded_len() as i64 - old_raw as i64,
        disk_delta: blob.len() as i64 - old_disk as i64,
        blob,
        next,
        superseded: chain_files(i, j, reverse, chain),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::engine::EngineConfig;
    use nxgraph_storage::{Disk, MemDisk};
    use std::sync::Arc;

    fn prepare(raw: &[(u64, u64)]) -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        prep::preprocess(raw, &PrepConfig::new("dyn", 3), disk).unwrap()
    }

    /// PageRank after dynamic commits must equal PageRank on a graph
    /// preprocessed from scratch with the same edges.
    fn assert_equivalent(dynamic: &DynamicGraph, full_raw: &[(u64, u64)]) {
        let fresh = prepare(full_raw);
        let cfg = EngineConfig::default().with_max_iterations(6);
        let (a, _) = algo::pagerank(dynamic.graph(), 6, &cfg).unwrap();
        let (b, _) = algo::pagerank(&fresh, 6, &cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn delta_log_commit_for_known_vertices() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        // Automatic compaction off so the chain is observable.
        let mut dg =
            DynamicGraph::with_config(prepare(&base), DynamicConfig::never_compact()).unwrap();
        let extra = vec![(0u64, 2u64), (3, 1)];
        let stats = dg.add_edges(&extra).unwrap();
        assert!(!stats.rebuilt);
        assert_eq!(stats.edges_added, 2);
        assert!(stats.deltas_appended > 0);
        assert_eq!(dg.graph().num_edges(), 6);
        // The chain is visible in the manifest until compaction.
        assert!(dg.graph().manifest().chains().unwrap().iter().any(|c| c.3.deltas > 0));

        let mut full = base.clone();
        full.extend(extra);
        assert_equivalent(&dg, &full);

        // An explicit fold leaves single-base cells and the same results.
        let report = dg.compact().unwrap();
        assert!(report.cells_folded > 0);
        assert!(report.files_swept > 0, "folded chain files must be reclaimed");
        assert!(report.bytes_swept > 0);
        assert!(dg.graph().manifest().chains().unwrap().iter().all(|c| c.3.deltas == 0));
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn explicit_compact_commits_all_folds_under_one_manifest_save() {
        let base: Vec<(u64, u64)> = (0..120u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let graph = prepare(&base);
        let disk = Arc::clone(graph.disk());
        let mut dg = DynamicGraph::with_config(graph, DynamicConfig::never_compact()).unwrap();
        let mut full = base.clone();
        for k in 0..6u64 {
            let batch = vec![(k % 9, (k + 2) % 9), ((k + 4) % 9, k % 9)];
            assert!(!dg.add_edges(&batch).unwrap().rebuilt);
            full.extend(batch);
        }
        let chained = dg
            .graph()
            .manifest()
            .chains()
            .unwrap()
            .iter()
            .filter(|c| c.3.deltas > 0)
            .count();
        assert!(chained >= 4, "need several chains to expose per-fold saves");

        let before = disk.counters().written_bytes();
        let report = dg.compact().unwrap();
        let wrote = disk.counters().written_bytes() - before;
        assert_eq!(report.cells_folded, chained);

        // One merged base per chain plus exactly one manifest save — a
        // per-fold commit loop would write `chained` manifest copies and
        // blow this bound (pre-rebuild compaction then costs megabytes).
        let manifest = dg.graph().manifest();
        let bases: u64 = manifest
            .chains()
            .unwrap()
            .into_iter()
            .map(|(i, j, reverse, c)| {
                disk.len_of(&GraphManifest::subshard_base_file(i, j, reverse, c.gen))
                    .unwrap()
            })
            .sum();
        let manifest_len = disk
            .len_of(nxgraph_storage::manifest::MANIFEST_FILE)
            .unwrap();
        assert!(
            wrote <= bases + 2 * manifest_len,
            "compact wrote {wrote} B for {chained} folds \
             (bases {bases} B, manifest {manifest_len} B): more than one manifest save?"
        );
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn compaction_policy_folds_long_chains() {
        let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let cfg = DynamicConfig {
            max_deltas: 3,
            max_delta_ratio: f64::INFINITY, // only the count threshold
            ..DynamicConfig::default()
        };
        let mut dg = DynamicGraph::with_config(prepare(&base), cfg).unwrap();
        let mut full = base.clone();
        let mut saw_compaction = false;
        // Every batch lands in cell (0, 0): ids 0..3 are interval 0 of the
        // 9-vertex, P=3 graph, so the same chain grows batch after batch.
        for k in 0..9u64 {
            let batch = vec![(k % 3, (k + 1) % 3)];
            let stats = dg.add_edges(&batch).unwrap();
            saw_compaction |= stats.cells_compacted > 0;
            full.extend(batch);
            // The policy bounds every chain at the threshold.
            for (_, _, _, info) in dg.graph().manifest().chains().unwrap() {
                assert!(info.deltas < 3, "chain grew past max_deltas: {info:?}");
            }
        }
        assert!(saw_compaction, "nine single-cell batches must trigger a fold");
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn background_compaction_folds_off_the_commit_path() {
        let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let cfg = DynamicConfig {
            max_deltas: 3,
            max_delta_ratio: f64::INFINITY,
            ..DynamicConfig::background()
        };
        let mut dg = DynamicGraph::with_config(prepare(&base), cfg).unwrap();
        assert!(dg.maintenance().is_some());
        let mut full = base.clone();
        let mut signalled = 0usize;
        let mut inline_folds = 0usize;
        for k in 0..9u64 {
            let batch = vec![(k % 3, (k + 1) % 3)];
            let stats = dg.add_edges(&batch).unwrap();
            signalled += stats.cells_signalled;
            inline_folds += stats.cells_compacted;
            full.extend(batch);
        }
        assert_eq!(inline_folds, 0, "background mode must never fold inline");
        assert!(signalled > 0, "due chains must be signalled to the thread");
        dg.wait_maintenance_idle().unwrap();
        let stats = dg.maintenance().unwrap().stats();
        assert!(stats.cells_folded > 0, "signalled cells must get folded");
        // Auto-scrub after folds found nothing wrong.
        let report = dg.maintenance().unwrap().last_scrub().unwrap();
        assert!(report.is_clean(), "background scrub flagged: {report:?}");
        assert_equivalent(&dg, &full);
        // After an explicit compact nothing is left to fold or sweep.
        dg.compact().unwrap();
        let report = dg.compact().unwrap();
        assert_eq!(report, CompactReport::default());
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn appends_commit_while_a_fold_is_parked_mid_merge() {
        use std::sync::Barrier;

        let base: Vec<(u64, u64)> = (0..60u64).map(|k| (k % 9, (k * 5 + 2) % 9)).collect();
        let cfg = DynamicConfig {
            max_deltas: 1, // every append signals its cell
            max_delta_ratio: f64::INFINITY,
            ..DynamicConfig::background()
        };
        let mut dg = DynamicGraph::with_config(prepare(&base), cfg).unwrap();
        // Park the first fold after its merge, right before its commit.
        let parked = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        {
            let (p, r) = (Arc::clone(&parked), Arc::clone(&release));
            dg.maintenance().unwrap().set_fold_pause(Some(Arc::new(move || {
                p.wait();
                r.wait();
            })));
        }
        let mut full = base.clone();
        let batch1 = vec![(0u64, 1u64), (2, 0)];
        let stats = dg.add_edges(&batch1).unwrap();
        assert!(stats.cells_signalled > 0);
        full.extend(&batch1);
        parked.wait(); // the fold is now mid-flight, holding no state lock
        // THE rendezvous assertion: with a fold parked between merge and
        // commit, an append to the same cell must commit unimpeded.
        let batch2 = vec![(1u64, 2u64), (0, 2)];
        let stats = dg.add_edges(&batch2).unwrap();
        assert!(stats.deltas_appended > 0, "append must commit while the fold is parked");
        full.extend(&batch2);
        // Unhook before releasing: the losing fold retries and must not
        // park again.
        dg.maintenance().unwrap().set_fold_pause(None);
        release.wait();
        dg.wait_maintenance_idle().unwrap();
        let mstats = dg.maintenance().unwrap().stats();
        assert!(
            mstats.fold_races >= 1,
            "the parked fold must detect the interleaved append and retry: {mstats:?}"
        );
        assert!(mstats.cells_folded >= 1);
        assert!(
            dg.graph().manifest().chains().unwrap().iter().all(|c| c.3.deltas == 0),
            "retried folds must eventually collapse every chain"
        );
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn background_rebuild_respawns_maintenance() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 0)];
        let mut dg =
            DynamicGraph::with_config(prepare(&base), DynamicConfig::background()).unwrap();
        dg.add_edges(&[(0, 0)]).unwrap();
        let stats = dg.add_edges(&[(1, 99)]).unwrap(); // 99 unseen
        assert!(stats.rebuilt);
        assert!(dg.maintenance().is_some(), "rebuild must respawn the thread");
        dg.add_edges(&[(99, 0)]).unwrap();
        dg.wait_maintenance_idle().unwrap();
        assert_equivalent(&dg, &[(0, 1), (1, 0), (0, 0), (1, 99), (99, 0)]);
    }

    #[test]
    fn byte_ratio_threshold_folds_heavy_chains() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0)];
        let cfg = DynamicConfig {
            max_deltas: u32::MAX,
            max_delta_ratio: 0.0, // any delta byte is "too heavy"
            ..DynamicConfig::default()
        };
        let mut dg = DynamicGraph::with_config(prepare(&base), cfg).unwrap();
        let stats = dg.add_edges(&[(0, 2)]).unwrap();
        // Every touched cell is over the (zero) byte budget, so each one
        // folds directly instead of appending.
        assert_eq!(stats.deltas_appended, 0);
        assert!(stats.cells_compacted > 0);
        assert!(dg.graph().manifest().chains().unwrap().iter().all(|c| c.3.deltas == 0));
        assert_equivalent(&dg, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
    }

    #[test]
    fn incremental_commit_keeps_manifest_byte_totals_current() {
        use crate::dsss::{SS_DISK_BYTES_MANIFEST_KEY, SS_RAW_BYTES_MANIFEST_KEY};
        use nxgraph_storage::EncodingPolicy;

        let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let check = |dg: &DynamicGraph| {
            // The recorded totals must match what is actually on disk
            // (chains included), so the reported ratio never goes stale.
            let m = dg.graph().manifest();
            let recorded: u64 = m.extra[SS_DISK_BYTES_MANIFEST_KEY].parse().unwrap();
            let p = dg.graph().num_intervals();
            let mut actual = 0u64;
            for i in 0..p {
                for j in 0..p {
                    for rev in [false, true] {
                        actual += dg.graph().subshard_len(i, j, rev).unwrap();
                    }
                }
            }
            assert_eq!(recorded, actual);
            let raw: u64 = m.extra[SS_RAW_BYTES_MANIFEST_KEY].parse().unwrap();
            assert!(raw > recorded, "auto-encoded graph must stay compressed");
        };
        for config in [
            DynamicConfig::never_compact(),
            DynamicConfig::default(),
            DynamicConfig::background(),
        ] {
            let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
            let cfg = PrepConfig::new("dyn", 3).with_encoding(EncodingPolicy::Auto);
            let g = prep::preprocess(&base, &cfg, disk).unwrap();
            let mut dg = DynamicGraph::with_config(g, config.clone()).unwrap();
            let stats = dg.add_edges(&[(0, 5), (7, 2), (3, 3)]).unwrap();
            assert!(!stats.rebuilt);
            dg.wait_maintenance_idle().unwrap();
            check(&dg);
            dg.compact().unwrap();
            check(&dg);
        }
    }

    #[test]
    fn new_vertices_trigger_rebuild() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 0)];
        let mut dg = DynamicGraph::new(prepare(&base)).unwrap();
        // Build up a chain first so the rebuild also has files to sweep.
        dg.add_edges(&[(0, 0)]).unwrap();
        let extra = vec![(1u64, 99u64)]; // 99 unseen
        let stats = dg.add_edges(&extra).unwrap();
        assert!(stats.rebuilt);
        assert_eq!(dg.graph().num_vertices(), 3);
        assert_eq!(dg.id_of(99), Some(2));
        assert!(dg.graph().manifest().chains().unwrap().is_empty());

        let mut full = base.clone();
        full.push((0, 0));
        full.extend(extra);
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn degrees_stay_consistent() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0)];
        let mut dg = DynamicGraph::new(prepare(&base)).unwrap();
        dg.add_edges(&[(0, 2), (0, 1)]).unwrap();
        assert_eq!(dg.graph().out_degrees().as_slice(), &[3, 1, 1]);
    }

    #[test]
    fn degree_commits_are_generation_tagged() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0)];
        let mut dg = DynamicGraph::new(prepare(&base)).unwrap();
        dg.add_edges(&[(0, 2)]).unwrap();
        // The bumped table lands under a fresh name (contract step 1) and
        // the superseded generation is swept (step 3).
        let m = dg.graph().manifest();
        assert_eq!(m.degrees_gen().unwrap(), 1);
        let disk = dg.graph().disk();
        assert!(disk.exists(&GraphManifest::degree_file_at(1)));
        assert!(!disk.exists(GraphManifest::degree_file()));
        dg.add_edges(&[(1, 0)]).unwrap();
        assert_eq!(dg.graph().manifest().degrees_gen().unwrap(), 2);
        assert!(!dg.graph().disk().exists(&GraphManifest::degree_file_at(1)));
        // Reopening resolves the current generation.
        let reopened = PreparedGraph::open(Arc::clone(dg.graph().disk())).unwrap();
        assert_eq!(reopened.out_degrees().as_slice(), dg.graph().out_degrees().as_slice());
    }

    #[test]
    fn raw_edges_roundtrip() {
        let base: Vec<(u64, u64)> = vec![(10, 20), (20, 30), (30, 10)];
        let mut dg = DynamicGraph::new(prepare(&base)).unwrap();
        dg.add_edges(&[(20, 10)]).unwrap();
        let mut back = dg.raw_edges().unwrap();
        back.sort_unstable();
        let mut want = base.clone();
        want.push((20, 10));
        want.sort_unstable();
        assert_eq!(back, want);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut dg = DynamicGraph::new(prepare(&[(0, 1)])).unwrap();
        let stats = dg.add_edges(&[]).unwrap();
        assert_eq!(stats, CommitStats::default());
    }

    #[test]
    fn repeated_commits_accumulate() {
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0)];
        let mut dg = DynamicGraph::new(prepare(&base)).unwrap();
        let mut full = base.clone();
        for k in 0..5u64 {
            let batch = vec![(k % 3, (k + 1) % 3)];
            dg.add_edges(&batch).unwrap();
            full.extend(batch);
        }
        assert_eq!(dg.graph().num_edges() as usize, full.len());
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn enospc_aborts_the_commit_and_preserves_the_last_manifest() {
        use crate::error::EngineError;
        use nxgraph_storage::{FaultDisk, FaultPlan};
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        prep::preprocess(&base, &PrepConfig::new("dyn", 3), Arc::clone(&mem)).unwrap();
        // Zero byte budget: the commit's very first blob write hits ENOSPC.
        let disk: Arc<dyn Disk> =
            Arc::new(FaultDisk::new(Arc::clone(&mem), FaultPlan::new().with_enospc_after(0)));
        let g = PreparedGraph::open(disk).unwrap();
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
        let err = dg.add_edges(&[(0, 2), (3, 1)]).unwrap_err();
        assert!(
            matches!(&err, EngineError::Storage(s) if s.is_transient()),
            "ENOSPC must surface as a typed transient storage error: {err}"
        );
        assert_eq!(dg.commit_aborts(), 1);
        // Rollback: reopening through the raw disk sees the pre-batch
        // graph, bit-for-bit usable.
        let reopened = PreparedGraph::open(mem).unwrap();
        assert_eq!(reopened.num_edges(), 4);
        let cfg = EngineConfig::default().with_max_iterations(6);
        let (a, _) = algo::pagerank(&reopened, 6, &cfg).unwrap();
        let (b, _) = algo::pagerank(&prepare(&base), 6, &cfg).unwrap();
        assert_eq!(a, b);

        // Mid-stream: a budget of half the bytes an unbudgeted replay
        // writes lets the first commits land and aborts the rest.
        let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let stream: Vec<Vec<(u64, u64)>> = (0..16u64)
            .map(|k| vec![(k % 9, (k * 4 + 2) % 9), ((k + 5) % 9, k % 9)])
            .collect();
        let replay = |budget: Option<u64>| {
            let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
            prep::preprocess(&base, &PrepConfig::new("dyn", 3), Arc::clone(&mem)).unwrap();
            let plan =
                budget.map_or_else(FaultPlan::new, |b| FaultPlan::new().with_enospc_after(b));
            let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(Arc::clone(&mem), plan));
            let before = disk.counters().written_bytes();
            let mut dg =
                DynamicGraph::new(PreparedGraph::open(Arc::clone(&disk)).unwrap()).unwrap();
            let mut applied = base.clone();
            let mut commits = 0u64;
            for batch in &stream {
                if dg.add_edges(batch).is_ok() {
                    commits += 1;
                    applied.extend(batch);
                }
            }
            let aborted = dg.commit_aborts();
            drop(dg);
            let written = disk.counters().written_bytes() - before;
            (mem, written, applied, commits, aborted)
        };
        let (_, unbudgeted, ..) = replay(None);
        let (mem, _, applied, commits, aborted) = replay(Some(unbudgeted / 2));
        assert!(commits >= 1, "a half budget must land some commits");
        assert!(aborted >= 1, "a half budget must abort some commits");
        assert_eq!(commits + aborted, stream.len() as u64);
        // Reopened through the raw disk, the store is exactly the applied
        // prefix: aborted attempts left only unreferenced blobs.
        let reopened = PreparedGraph::open(mem).unwrap();
        let (a, _) = algo::pagerank(&reopened, 6, &cfg).unwrap();
        let (b, _) = algo::pagerank(&prepare(&applied), 6, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn background_folds_survive_transient_write_faults() {
        use nxgraph_storage::{FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule};
        let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 9, (k + 1) % 9)).collect();
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        prep::preprocess(&base, &PrepConfig::new("dyn", 3), Arc::clone(&mem)).unwrap();
        // The first attempt to write each folded gen-1 base for cell (0,0)
        // fails with EIO; the maintenance worker must back off and retry,
        // never surface a fold error.
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "ss_0_0.g1.bin".into(),
            op: FaultOp::Write,
            kind: FaultKind::WriteError,
            first: 0,
            count: 1,
        });
        let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(mem, plan));
        let g = PreparedGraph::open(disk).unwrap();
        let cfg = DynamicConfig {
            max_deltas: 3,
            max_delta_ratio: f64::INFINITY,
            ..DynamicConfig::background()
        };
        let mut dg = DynamicGraph::with_config(g, cfg).unwrap();
        let mut full = base.clone();
        for k in 0..9u64 {
            let batch = vec![(k % 3, (k + 1) % 3)];
            dg.add_edges(&batch).unwrap();
            full.extend(batch);
        }
        dg.wait_maintenance_idle().unwrap();
        let stats = dg.maintenance().unwrap().stats();
        assert!(stats.cells_folded >= 1, "{stats:?}");
        assert!(stats.transient_retries >= 1, "faulted fold must retry: {stats:?}");
        assert_eq!(dg.commit_aborts(), 0);
        assert_equivalent(&dg, &full);
    }

    #[test]
    fn scrubs_survive_a_transient_open_fault() {
        use nxgraph_storage::{FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule};
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0)];
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        prep::preprocess(&base, &PrepConfig::new("dyn", 3), Arc::clone(&mem)).unwrap();
        // The scrubber's first whole-file read of this blob fails; the
        // worker re-runs the whole pass after backoff.
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "ss_0_0.bin".into(),
            op: FaultOp::ReadAll,
            kind: FaultKind::ReadError,
            first: 0,
            count: 1,
        });
        let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(mem, plan));
        let g = PreparedGraph::open(disk).unwrap();
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::background()).unwrap();
        let report = dg.scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        let stats = dg.maintenance().unwrap().stats();
        assert!(stats.transient_retries >= 1, "faulted scrub must retry: {stats:?}");
        assert_eq!(stats.scrubs, 1);
    }

    #[test]
    fn delta_log_commit_writes_o_batch_bytes() {
        // The whole point: committing a small batch must cost O(batch)
        // writes, not O(touched sub-shards).
        let base: Vec<(u64, u64)> = (0..4000u64).map(|k| (k % 61, (k * 7 + 1) % 61)).collect();
        let batch: Vec<(u64, u64)> = (0..10u64).map(|k| (k % 61, (k + 13) % 61)).collect();
        let g = prepare(&base);
        let disk = Arc::clone(g.disk());
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
        let p = dg.graph().num_intervals();
        let mut cell_len = BTreeMap::new();
        for i in 0..p {
            for j in 0..p {
                for reverse in [false, true] {
                    let len = dg.graph().subshard_len(i, j, reverse).unwrap();
                    cell_len.insert((i, j, reverse), len);
                }
            }
        }
        let before = disk.counters().written_bytes();
        dg.add_edges(&batch).unwrap();
        let written = disk.counters().written_bytes() - before;
        // The cells the batch touched are exactly the ones now chained;
        // rewriting them whole would write their summed bytes.
        let touched: u64 = dg
            .graph()
            .manifest()
            .chains()
            .unwrap()
            .into_iter()
            .map(|(i, j, reverse, _)| cell_len[&(i, j, reverse)])
            .sum();
        assert!(
            written * 2 < touched,
            "commit wrote {written} bytes; the touched cells hold {touched}"
        );
    }
}
