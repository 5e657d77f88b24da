//! The Destination-Sorted Sub-Shard graph representation.
//!
//! [`view`] defines the CSR sub-shard ([`SubShardView`]) and the blob
//! parsers; [`PreparedGraph`] is the handle over a preprocessed graph
//! living on a [`Disk`]: the manifest, the out-degree table (needed by
//! scatter-style programs such as PageRank) and typed read/write access to
//! interval, sub-shard and hub files.

mod codec;
pub mod delta;
#[cfg(test)]
mod subshard;
pub mod view;

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use nxgraph_storage::format::{self, Encoding, EncodingPolicy, FileKind};
use nxgraph_storage::manifest::{ChainInfo, GraphManifest};
use nxgraph_storage::{
    BufferPool, ChecksumPolicy, Disk, RetryPolicy, SharedBytes, StorageError, StorageResult,
};

use crate::error::{EngineError, EngineResult};
use crate::types::{Attr, VertexId};

pub use delta::{merge_edges, MergedSubShardView};
pub use view::{HubView, SubShardView};

/// Immutable snapshot of the manifest's per-cell delta chains, shared by
/// every loader of one [`PreparedGraph`] instance (including the read
/// pipeline's workers, which clone the [`ViewLoader`] holding it).
#[derive(Debug, Default)]
pub(crate) struct DeltaIndex {
    cells: HashMap<(u32, u32, bool), ChainInfo>,
}

impl DeltaIndex {
    fn from_manifest(manifest: &GraphManifest) -> StorageResult<Self> {
        let mut cells = HashMap::new();
        for (i, j, reverse, info) in manifest.chains()? {
            cells.insert((i, j, reverse), info);
        }
        Ok(Self { cells })
    }

    fn info(&self, i: u32, j: u32, reverse: bool) -> ChainInfo {
        self.cells.get(&(i, j, reverse)).copied().unwrap_or_default()
    }
}

/// Scratch-file naming for one reader of a shared disk.
///
/// DPU/MPU runs rewrite per-iteration scratch files (interval attribute
/// arrays, hubs) on the graph's disk. With a single reader the legacy
/// names (`interval_{j}.bin`, `hub_{i}_{j}.bin`) are fine; concurrent
/// readers — serve-layer [`Snapshot`](crate::serve::Snapshot)s running
/// queries while the owner commits — would clobber each other's scratch,
/// so each snapshot gets a unique tag woven into the names
/// (`interval_{tag}_{j}.bin`, `hub_{tag}_{i}_{j}.bin`). Tagged names keep
/// the `interval_`/`hub_` prefixes, so the scrubber still classifies them
/// as scratch and the cell-file parser never mistakes them for chains.
#[derive(Debug, Clone, Default)]
pub struct ScratchTag(Option<Arc<str>>);

impl ScratchTag {
    /// A tag namespacing scratch files under `q{n}` (serve-layer
    /// snapshots draw `n` from a process-global counter).
    pub fn numbered(n: u64) -> Self {
        Self(Some(Arc::from(format!("q{n}").as_str())))
    }

    /// Interval `j`'s scratch attribute file under this tag.
    pub fn interval_file(&self, j: u32) -> String {
        match &self.0 {
            None => GraphManifest::interval_file(j),
            Some(t) => format!("interval_{t}_{j}.bin"),
        }
    }

    /// Hub `H(i→j)`'s scratch file under this tag.
    pub fn hub_file(&self, i: u32, j: u32) -> String {
        match &self.0 {
            None => GraphManifest::hub_file(i, j),
            Some(t) => format!("hub_{t}_{i}_{j}.bin"),
        }
    }

    /// Name prefixes owned by this tag (`None` for the untagged default,
    /// whose files persist like always) — what a snapshot's drop removes.
    pub fn owned_prefixes(&self) -> Option<[String; 2]> {
        self.0
            .as_ref()
            .map(|t| [format!("interval_{t}_"), format!("hub_{t}_")])
    }
}

/// Reject a chain blob whose header tags it for a different cell than the
/// chain that listed it — checksums only prove the file is intact, not
/// that it is the file the manifest meant.
fn check_cell(src: u32, dst: u32, i: u32, j: u32, name: &str) -> StorageResult<()> {
    if src != i || dst != j {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: format!("blob tagged ({src}, {dst}), chain expects ({i}, {j})"),
        });
    }
    Ok(())
}

/// Load every part of a cell's chain — the base blob first, then each
/// delta in append order — as views, every part read whole with
/// `read_all` and checksum-verified on every load, and every part's tag
/// checked against the cell. This is the owned-path read of the fold
/// (`dynamic::fold_chain`), whose output becomes a new base tagged like
/// the chain's base, and of [`PreparedGraph::load_subshard`]: neither may
/// trust a verify-once skip. `chain` names the cell's base generation and
/// delta count ([`ChainInfo::default`] for a freshly prepped graph).
pub(crate) fn load_chain_parts(
    disk: &dyn Disk,
    i: u32,
    j: u32,
    reverse: bool,
    chain: ChainInfo,
) -> EngineResult<Vec<SubShardView>> {
    let mut parts = Vec::with_capacity(chain.deltas as usize + 1);
    for k in 0..=chain.deltas {
        let name = match k {
            0 => GraphManifest::subshard_base_file(i, j, reverse, chain.gen),
            k => GraphManifest::subshard_delta_file(i, j, reverse, chain.gen, k),
        };
        let part = SubShardView::parse(disk.read_all(&name)?.into(), &name, true)?;
        check_cell(part.src_interval(), part.dst_interval(), i, j, &name)?;
        parts.push(part);
    }
    Ok(parts)
}

/// One typed read request: a sub-shard cell or a hub, by coordinates.
/// The engines hand ordered lists of these to the
/// [read pipeline](crate::engine::pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Sub-shard `SS(i→j)` (transposed when `reverse`).
    Shard {
        /// Source interval.
        i: u32,
        /// Destination interval.
        j: u32,
        /// Load the transposed sub-shard.
        reverse: bool,
    },
    /// Hub `H(i→j)`.
    Hub {
        /// Source interval.
        i: u32,
        /// Destination interval.
        j: u32,
    },
}

/// What a [`Fetch`] delivers: the decoded view, ready for the kernel.
pub enum Fetched<A: Attr> {
    /// The sub-shard, merged across its delta chain.
    Shard(SubShardView),
    /// The hub.
    Hub(HubView<A>),
}

/// Cheap cloneable handle for loading zero-copy views off the engine
/// thread.
///
/// Pipeline workers can only capture `'static` data, never
/// `&PreparedGraph`; a `ViewLoader` bundles exactly the pieces a load
/// needs — the disk, the read-buffer pool, the checksum and retry
/// policies — all behind `Arc`s.
#[derive(Clone)]
pub struct ViewLoader {
    disk: Arc<dyn Disk>,
    pool: Arc<BufferPool>,
    checksums: Arc<ChecksumPolicy>,
    /// Delta-chain snapshot from the manifest this loader was built from;
    /// a dynamic commit reopens the graph, producing fresh loaders.
    chains: Arc<DeltaIndex>,
    /// Transient-failure retry policy applied to every blob read this
    /// loader issues.
    retry: RetryPolicy,
    /// Scratch-file naming (hubs) for the graph this loader came from.
    scratch: ScratchTag,
}

impl ViewLoader {
    /// The single read → verify → decode step every engine read goes
    /// through, inline or on a pipeline worker: resolve the item's file
    /// names, read each under the retry policy, verify per the checksum
    /// policy, decode in place and merge the delta chain.
    pub fn fetch<A: Attr>(&self, item: Fetch) -> EngineResult<Fetched<A>> {
        match item {
            Fetch::Shard { i, j, reverse } => self.load_subshard(i, j, reverse).map(Fetched::Shard),
            Fetch::Hub { i, j } => self.read_hub(i, j).map(Fetched::Hub),
        }
    }

    /// Load sub-shard `SS(i→j)` (transposed when `reverse`) as a
    /// zero-copy view: one pooled read (or a `MemDisk` handout with no
    /// copy at all) per chain part, parsed and validated in place. When
    /// the cell carries a delta chain, the parts are lazily
    /// merge-iterated into one words-backed view
    /// ([`MergedSubShardView`]) — the engines never see the chain.
    ///
    /// Base and delta files alike are immutable once referenced by a
    /// manifest (compaction bumps the base *generation* instead of
    /// rewriting in place), so the verify-once policy applies to every
    /// part — and a name is marked verified only after its checksum
    /// actually passed.
    pub fn load_subshard(&self, i: u32, j: u32, reverse: bool) -> EngineResult<SubShardView> {
        let names = self.subshard_part_names(i, j, reverse);
        let mut parts = Vec::with_capacity(names.len());
        for (k, name) in names.iter().enumerate() {
            let bytes = self.read(name)?;
            let verify = self.checksums.should_verify(name);
            // Compressed (v3) blobs inflate into a buffer from the same
            // pool the read came from; raw blobs cast in place.
            let part = SubShardView::parse_pooled(bytes, name, verify, Some(&self.pool))?;
            if verify {
                self.checksums.note_verified(name);
            }
            if k > 0 {
                check_cell(part.src_interval(), part.dst_interval(), i, j, name)?;
            }
            parts.push(part);
        }
        if parts.len() == 1 {
            return Ok(parts.pop().expect("base part always present"));
        }
        Ok(MergedSubShardView::merge(&parts).into_view())
    }

    /// Read hub `H(i→j)` as a zero-copy view, by name: the caller knows
    /// it was written (a missing hub is a storage error). Hubs are
    /// *rewritten with fresh content every iteration* under the same name,
    /// so the verify-once rationale does not apply — every hub read
    /// verifies.
    pub fn read_hub<A: Attr>(&self, i: u32, j: u32) -> EngineResult<HubView<A>> {
        let name = self.scratch.hub_file(i, j);
        let bytes = self.read(&name)?;
        let verify = self.checksums.should_verify_mutable();
        Ok(HubView::parse(bytes, &name, verify)?)
    }

    /// `read_shared` with transient-failure retry (the decode is not
    /// retried: corrupt bytes re-read identically), counting re-issues
    /// and giveups in the disk's [`IoProfile`](nxgraph_storage::IoProfile).
    fn read(&self, name: &str) -> StorageResult<SharedBytes> {
        self.retry.run(self.disk.io_profile(), || {
            self.disk.read_shared(name, &self.pool)
        })
    }

    /// The disk this loader reads from.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// The page-aligned read-buffer pool behind this loader.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The on-disk files backing cell `(i, j, reverse)`: the base blob
    /// first, then each delta of the chain in append order — exactly the
    /// reads [`ViewLoader::load_subshard`] issues.
    pub fn subshard_part_names(&self, i: u32, j: u32, reverse: bool) -> Vec<String> {
        let chain = self.chains.info(i, j, reverse);
        let mut names = Vec::with_capacity(chain.deltas as usize + 1);
        names.push(GraphManifest::subshard_base_file(i, j, reverse, chain.gen));
        for k in 1..=chain.deltas {
            names.push(GraphManifest::subshard_delta_file(i, j, reverse, chain.gen, k));
        }
        names
    }

    /// The hub file backing `H(i→j)`, or `None` when no such file exists
    /// (an existence probe; the engine tracks which hubs it wrote instead).
    pub fn hub_part_name(&self, i: u32, j: u32) -> Option<String> {
        let name = self.scratch.hub_file(i, j);
        self.disk.exists(&name).then_some(name)
    }

    /// The first file a fetch of `item` reads — what a stalled read is
    /// reported under.
    pub(crate) fn first_file(&self, item: Fetch) -> String {
        match item {
            Fetch::Shard { i, j, reverse } => self.subshard_part_names(i, j, reverse).swap_remove(0),
            Fetch::Hub { i, j } => self.scratch.hub_file(i, j),
        }
    }
}

/// Manifest key under which the prep-time [`EncodingPolicy`] is recorded
/// (as `x.encoding` in the text format), so reopening a graph restores
/// the policy its hubs should be written with.
pub const ENCODING_MANIFEST_KEY: &str = "encoding";

/// Manifest key for the aggregate raw (uncompressed) size of all
/// sub-shard blobs written at prep time.
pub const SS_RAW_BYTES_MANIFEST_KEY: &str = "subshard_raw_bytes";

/// Manifest key for the aggregate on-disk size of all sub-shard blobs
/// written at prep time; together with
/// [`SS_RAW_BYTES_MANIFEST_KEY`] it gives the blob compression ratio.
pub const SS_DISK_BYTES_MANIFEST_KEY: &str = "subshard_disk_bytes";

fn policy_from_manifest(manifest: &GraphManifest) -> EncodingPolicy {
    manifest
        .extra
        .get(ENCODING_MANIFEST_KEY)
        .and_then(|s| s.parse().ok())
        .unwrap_or_default()
}

/// Write an out-degree table under `name`: the one writer of the blob
/// [`PreparedGraph::open`] reads (prep writes the first generation, every
/// degree-bumping commit the next).
pub(crate) fn write_degree_table(disk: &dyn Disk, name: &str, degrees: &[u32]) -> StorageResult<()> {
    let mut blob = Vec::new();
    format::write_blob(&mut blob, FileKind::Degrees, &format::encode_u32s(degrees))
        .expect("vec write is infallible");
    disk.write_all_to(name, &blob)
}

/// A preprocessed graph on disk: manifest + degree table + file access.
pub struct PreparedGraph {
    disk: Arc<dyn Disk>,
    manifest: GraphManifest,
    out_degrees: Arc<Vec<u32>>,
    /// Page-aligned read buffers recycled across streamed loads.
    pool: Arc<BufferPool>,
    /// Blob checksum verification policy (default: verify each file's
    /// first load, skip repeats).
    checksums: Arc<ChecksumPolicy>,
    /// Encoding applied to blobs written *during* runs (hubs, dynamic
    /// rebuilds). Restored from the manifest so a graph prepped with
    /// `Auto` keeps compressing its iteration traffic after reopen.
    encoding: EncodingPolicy,
    /// Per-cell delta-chain snapshot parsed from the manifest.
    chains: Arc<DeltaIndex>,
    /// Transient-failure retry policy handed to every [`ViewLoader`]
    /// (default: 4 attempts with 1 ms doubling backoff).
    retry: RetryPolicy,
    /// Scratch-file naming for this handle's iteration files (intervals,
    /// hubs). Default (untagged) uses the legacy single-owner names;
    /// serve-layer snapshots tag theirs so concurrent queries on the same
    /// disk never clobber each other's scratch.
    scratch: ScratchTag,
}

impl PreparedGraph {
    /// Open a graph previously written by [`crate::prep::preprocess`].
    pub fn open(disk: Arc<dyn Disk>) -> EngineResult<Self> {
        let manifest = GraphManifest::load(disk.as_ref())?;
        // The degree table is generation-tagged: dynamic commits write a
        // fresh name and point the manifest at it, so this always reads
        // the table the loaded manifest committed with.
        let degree_file = manifest.degree_file_current()?;
        let raw = disk.read_all(&degree_file)?;
        let payload = format::parse_blob(&raw, FileKind::Degrees, &degree_file, true)?;
        let out_degrees = format::decode_u32s(&raw[payload])?;
        if out_degrees.len() as u64 != manifest.num_vertices {
            return Err(EngineError::Invalid(format!(
                "degree table has {} entries for {} vertices",
                out_degrees.len(),
                manifest.num_vertices
            )));
        }
        let encoding = policy_from_manifest(&manifest);
        let chains = Arc::new(DeltaIndex::from_manifest(&manifest)?);
        Ok(Self {
            disk,
            manifest,
            out_degrees: Arc::new(out_degrees),
            pool: BufferPool::new(),
            checksums: Arc::new(ChecksumPolicy::default()),
            encoding,
            chains,
            retry: RetryPolicy::default(),
            scratch: ScratchTag::default(),
        })
    }

    /// Construct directly (used by preprocessing, which already holds the
    /// pieces).
    pub(crate) fn from_parts(
        disk: Arc<dyn Disk>,
        manifest: GraphManifest,
        out_degrees: Arc<Vec<u32>>,
    ) -> EngineResult<Self> {
        let checksums = Arc::new(ChecksumPolicy::default());
        let pool = BufferPool::new();
        Self::from_parts_reusing(disk, manifest, out_degrees, checksums, pool)
    }

    /// Construct from parts while carrying an existing checksum policy and
    /// buffer pool across — the dynamic-graph refresh path, where dropping
    /// the policy each commit would both re-verify every unchanged file
    /// and (worse) defeat [`ChecksumPolicy::note_invalidated`] tracking of
    /// rewritten names.
    pub(crate) fn from_parts_reusing(
        disk: Arc<dyn Disk>,
        manifest: GraphManifest,
        out_degrees: Arc<Vec<u32>>,
        checksums: Arc<ChecksumPolicy>,
        pool: Arc<BufferPool>,
    ) -> EngineResult<Self> {
        let encoding = policy_from_manifest(&manifest);
        let chains = Arc::new(DeltaIndex::from_manifest(&manifest)?);
        Ok(Self {
            disk,
            manifest,
            out_degrees,
            pool,
            checksums,
            encoding,
            chains,
            retry: RetryPolicy::default(),
            scratch: ScratchTag::default(),
        })
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// The shared checksum verification policy.
    pub(crate) fn checksum_policy(&self) -> &Arc<ChecksumPolicy> {
        &self.checksums
    }

    /// The shared read-buffer pool backing streamed view loads.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The transient-failure retry policy applied to blob reads.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replace the blob-read retry policy (default: 4 attempts, 1 ms
    /// deterministic doubling backoff; [`RetryPolicy::none`] disables
    /// retrying entirely).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Namespace this handle's scratch files (interval attribute arrays,
    /// hubs) under `tag`. Serve-layer snapshots set a unique tag so
    /// concurrent DPU/MPU queries sharing one disk never collide.
    pub fn set_scratch_tag(&mut self, tag: ScratchTag) {
        self.scratch = tag;
    }

    /// This handle's scratch-file naming tag.
    pub fn scratch_tag(&self) -> &ScratchTag {
        &self.scratch
    }

    /// The encoding policy applied to blobs written during runs (hubs,
    /// dynamic delta blobs and folds). Defaults to what the graph was
    /// prepped with, via the manifest.
    pub fn encoding_policy(&self) -> EncodingPolicy {
        self.encoding
    }

    /// Override the run-time write encoding policy (reads always sniff
    /// per blob, so this never affects what can be *loaded*).
    pub fn set_encoding_policy(&mut self, policy: EncodingPolicy) {
        self.encoding = policy;
    }

    /// A cloneable loader for zero-copy sub-shard/hub views (usable from
    /// the read pipeline's workers).
    pub fn view_loader(&self) -> ViewLoader {
        ViewLoader {
            disk: Arc::clone(&self.disk),
            pool: Arc::clone(&self.pool),
            checksums: Arc::clone(&self.checksums),
            chains: Arc::clone(&self.chains),
            retry: self.retry,
            scratch: self.scratch.clone(),
        }
    }

    /// Delta-chain state of cell `(i, j, reverse)` — the default for any
    /// cell a dynamic update never touched.
    pub fn chain_info(&self, i: u32, j: u32, reverse: bool) -> ChainInfo {
        self.chains.info(i, j, reverse)
    }

    /// The graph manifest.
    pub fn manifest(&self) -> &GraphManifest {
        &self.manifest
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u32 {
        self.manifest.num_vertices as u32
    }

    /// Number of edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.manifest.num_edges
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.manifest.num_intervals
    }

    /// Whether reverse (transposed) sub-shards exist.
    pub fn has_reverse(&self) -> bool {
        self.manifest.has_reverse
    }

    /// Out-degree table (dense, indexed by vertex id).
    pub fn out_degrees(&self) -> &Arc<Vec<u32>> {
        &self.out_degrees
    }

    /// Vertex-id range of interval `j`.
    pub fn interval_range(&self, j: u32) -> Range<VertexId> {
        let (s, e) = self.manifest.interval_range(j);
        s as VertexId..e as VertexId
    }

    /// Number of vertices in interval `j`.
    pub fn interval_len(&self, j: u32) -> usize {
        let r = self.interval_range(j);
        (r.end - r.start) as usize
    }

    /// Load sub-shard `SS(i→j)` (or the transposed `SS'(i→j)` when
    /// `reverse`) with every part of its chain read whole and
    /// checksum-verified — the owned path of rebuild and the baselines.
    /// A single-part cell is returned as parsed; a chain is merged. The
    /// engines' verify-once load is [`ViewLoader::load_subshard`].
    pub fn load_subshard(&self, i: u32, j: u32, reverse: bool) -> EngineResult<SubShardView> {
        let mut parts =
            load_chain_parts(self.disk.as_ref(), i, j, reverse, self.chains.info(i, j, reverse))?;
        if parts.len() == 1 {
            return Ok(parts.pop().expect("base part always present"));
        }
        Ok(MergedSubShardView::merge(&parts).into_view())
    }

    /// Load sub-shard `SS(i→j)` the way the engines do: verify-once,
    /// through this graph's [`ViewLoader::load_subshard`]. The crates call
    /// the loader directly; nxmark (`benchmark/`) calls this.
    pub fn load_subshard_view(&self, i: u32, j: u32, reverse: bool) -> EngineResult<SubShardView> {
        self.view_loader().load_subshard(i, j, reverse)
    }

    /// Read hub `H(i→j)` as a zero-copy [`HubView`]; a hub that was never
    /// written, or was consumed, reads as `StorageError::NotFound`.
    pub fn read_hub_view<A: Attr>(&self, i: u32, j: u32) -> EngineResult<HubView<A>> {
        self.view_loader().read_hub(i, j)
    }

    /// On-disk size in bytes of a sub-shard cell — base blob plus any
    /// delta chain, since a streamed access reads the whole chain (for
    /// cache planning and I/O accounting).
    pub fn subshard_len(&self, i: u32, j: u32, reverse: bool) -> EngineResult<u64> {
        let chain = self.chains.info(i, j, reverse);
        let mut total = self
            .disk
            .len_of(&GraphManifest::subshard_base_file(i, j, reverse, chain.gen))?;
        for k in 1..=chain.deltas {
            total += self
                .disk
                .len_of(&GraphManifest::subshard_delta_file(i, j, reverse, chain.gen, k))?;
        }
        Ok(total)
    }

    /// Write interval `j`'s attribute array.
    pub fn write_interval<A: Attr>(&self, j: u32, vals: &[A]) -> EngineResult<()> {
        debug_assert_eq!(vals.len(), self.interval_len(j));
        let payload = A::encode_slice(vals);
        let mut buf = Vec::with_capacity(payload.len() + 32);
        format::write_blob(&mut buf, FileKind::Interval, &payload)
            .expect("vec write is infallible");
        self.disk
            .write_all_to(&self.scratch.interval_file(j), &buf)?;
        Ok(())
    }

    /// Read interval `j`'s attribute array.
    pub fn read_interval<A: Attr>(&self, j: u32) -> EngineResult<Vec<A>> {
        let name = self.scratch.interval_file(j);
        let bytes = self.disk.read_all(&name)?;
        let payload = format::parse_blob(&bytes, FileKind::Interval, &name, true)?;
        let vals = A::decode_slice(&bytes[payload]);
        if vals.len() != self.interval_len(j) {
            return Err(EngineError::Invalid(format!(
                "interval {j} holds {} values, expected {}",
                vals.len(),
                self.interval_len(j)
            )));
        }
        Ok(vals)
    }

    /// Write hub `H(i→j)`: parallel arrays of destination ids and
    /// accumulators (the "incremental values" of §III-B2).
    ///
    /// Under a compressing [`EncodingPolicy`] the ascending destination
    /// ids are delta+varint coded (format v3); accumulator bytes stay raw
    /// in either encoding, so reloaded values are always bit-exact.
    pub fn write_hub<A: Attr>(&self, i: u32, j: u32, dsts: &[VertexId], accs: &[A]) -> EngineResult<()> {
        debug_assert_eq!(dsts.len(), accs.len());
        let mut acc_bytes = Vec::with_capacity(accs.len() * A::SIZE);
        for a in accs {
            a.write_to(&mut acc_bytes);
        }
        let raw_len = 4 + dsts.len() * 4 + acc_bytes.len();
        let compressed = match self.encoding {
            EncodingPolicy::Raw => None,
            EncodingPolicy::Auto => codec::encode_hub_payload(dsts, &acc_bytes)
                .filter(|p| codec::auto_keeps(p.len(), raw_len)),
            EncodingPolicy::Compressed => codec::encode_hub_payload(dsts, &acc_bytes),
        };
        let mut buf = Vec::with_capacity(raw_len + 32);
        match compressed {
            Some(payload) => {
                format::write_blob_encoded(&mut buf, FileKind::Hub, &payload, Encoding::DeltaVarint)
                    .expect("vec write is infallible");
            }
            None => {
                let mut payload = Vec::with_capacity(raw_len);
                format::push_u32(&mut payload, dsts.len() as u32);
                for &d in dsts {
                    format::push_u32(&mut payload, d);
                }
                payload.extend_from_slice(&acc_bytes);
                format::write_blob(&mut buf, FileKind::Hub, &payload)
                    .expect("vec write is infallible");
            }
        }
        self.disk.write_all_to(&self.scratch.hub_file(i, j), &buf)?;
        Ok(())
    }

    /// Remove hub `H(i→j)` if present (between iterations).
    pub fn remove_hub(&self, i: u32, j: u32) {
        let _ = self.disk.remove(&self.scratch.hub_file(i, j));
    }

    /// Load the reverse mapping table (`id → original index`), sorted
    /// ascending by construction of the degreeing step.
    pub fn load_reverse_mapping(&self) -> EngineResult<Vec<u64>> {
        let name = GraphManifest::reverse_mapping_file();
        let bytes = self.disk.read_all(name)?;
        let payload = format::parse_blob(&bytes, FileKind::Mapping, name, true)?;
        let out: Vec<u64> = bytes[payload]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        if out.len() as u64 != self.manifest.num_vertices {
            return Err(EngineError::Invalid(format!(
                "mapping table has {} entries for {} vertices",
                out.len(),
                self.manifest.num_vertices
            )));
        }
        Ok(out)
    }

    /// Total bytes of all forward sub-shard files (≈ `m · Be`).
    pub fn total_subshard_bytes(&self) -> EngineResult<u64> {
        let p = self.num_intervals();
        let mut total = 0;
        for i in 0..p {
            for j in 0..p {
                total += self.subshard_len(i, j, false)?;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::MemDisk;

    fn prepared() -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", 4), disk).unwrap()
    }

    #[test]
    fn open_roundtrip() {
        let g = prepared();
        let g2 = PreparedGraph::open(Arc::clone(g.disk())).unwrap();
        assert_eq!(g2.num_vertices(), 7);
        assert_eq!(g2.num_edges(), 21);
        assert_eq!(g2.num_intervals(), 4);
        assert_eq!(g2.out_degrees().as_slice(), g.out_degrees().as_slice());
    }

    #[test]
    fn interval_io_roundtrip() {
        let g = prepared();
        let vals: Vec<f64> = (0..g.interval_len(0)).map(|k| k as f64 * 1.5).collect();
        g.write_interval(0, &vals).unwrap();
        assert_eq!(g.read_interval::<f64>(0).unwrap(), vals);
    }

    #[test]
    fn hub_io_roundtrip_and_missing() {
        let g = prepared();
        let missing = |g: &PreparedGraph| {
            matches!(
                g.read_hub_view::<f64>(1, 2),
                Err(EngineError::Storage(StorageError::NotFound(_)))
            )
        };
        assert!(missing(&g));
        g.write_hub(1, 2, &[4, 5], &[0.25f64, 0.75]).unwrap();
        let hub = g.read_hub_view::<f64>(1, 2).unwrap();
        assert_eq!(hub.dsts(), &[4, 5]);
        assert_eq!((hub.acc(0), hub.acc(1)), (0.25, 0.75));
        g.remove_hub(1, 2);
        assert!(missing(&g));
    }

    #[test]
    fn compressed_hub_roundtrips_bit_exact() {
        let mut g = prepared();
        let dsts = vec![4u32, 5, 6];
        let accs = vec![0.25f64, -0.75, 1e-300];
        g.write_hub(1, 2, &dsts, &accs).unwrap();
        let raw_len = g.disk().len_of(&GraphManifest::hub_file(1, 2)).unwrap();

        g.set_encoding_policy(EncodingPolicy::Compressed);
        assert_eq!(g.encoding_policy(), EncodingPolicy::Compressed);
        g.write_hub(1, 2, &dsts, &accs).unwrap();
        let comp_len = g.disk().len_of(&GraphManifest::hub_file(1, 2)).unwrap();
        assert!(comp_len < raw_len, "{comp_len} !< {raw_len}");

        // The view reader sniffs v3 and reloads every value bit-for-bit.
        let hub = g.read_hub_view::<f64>(1, 2).unwrap();
        assert_eq!(hub.dsts(), &dsts[..]);
        for (k, &want) in accs.iter().enumerate() {
            assert_eq!(hub.acc(k).to_bits(), want.to_bits());
        }

        // Unsorted caller input falls back to raw rather than corrupting.
        g.write_hub(1, 2, &[9, 4], &[1.0f64, 2.0]).unwrap();
        let hub = g.read_hub_view::<f64>(1, 2).unwrap();
        assert_eq!((hub.dsts(), hub.acc(0), hub.acc(1)), (&[9, 4][..], 1.0, 2.0));
    }

    #[test]
    fn compressed_prep_records_ratio_and_loads_identically() {
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        let disk_raw: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g_raw = preprocess(&edges, &PrepConfig::new("fig1", 4), disk_raw).unwrap();
        let disk_c: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let cfg = PrepConfig::new("fig1", 4).with_encoding(EncodingPolicy::Auto);
        let g_c = preprocess(&edges, &cfg, disk_c).unwrap();

        // The manifest records the policy and the aggregate blob ratio.
        let m = g_c.manifest();
        assert_eq!(m.extra.get(ENCODING_MANIFEST_KEY).unwrap(), "auto");
        let raw: u64 = m.extra.get(SS_RAW_BYTES_MANIFEST_KEY).unwrap().parse().unwrap();
        let disk: u64 = m.extra.get(SS_DISK_BYTES_MANIFEST_KEY).unwrap().parse().unwrap();
        assert!(disk < raw, "{disk} !< {raw}");
        assert!(g_c.total_subshard_bytes().unwrap() < g_raw.total_subshard_bytes().unwrap());

        // Reopening restores the policy; a raw-prepped graph reports Raw.
        let g2 = PreparedGraph::open(Arc::clone(g_c.disk())).unwrap();
        assert_eq!(g2.encoding_policy(), EncodingPolicy::Auto);
        assert_eq!(g_raw.encoding_policy(), EncodingPolicy::Raw);

        // Every cell decodes to the same sub-shard through both the owned
        // (always-verify) and the streamed (verify-once) loaders.
        for i in 0..4 {
            for j in 0..4 {
                for rev in [false, true] {
                    assert_eq!(
                        g_c.load_subshard(i, j, rev).unwrap(),
                        g_raw.load_subshard(i, j, rev).unwrap()
                    );
                    assert_eq!(
                        g_c.view_loader().load_subshard(i, j, rev).unwrap(),
                        g_raw.load_subshard(i, j, rev).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn subshard_lengths_sum_to_total() {
        let g = prepared();
        let mut sum = 0;
        for i in 0..4 {
            for j in 0..4 {
                sum += g.subshard_len(i, j, false).unwrap();
            }
        }
        assert_eq!(sum, g.total_subshard_bytes().unwrap());
        assert!(sum > 0);
    }
}
