//! The sub-shard cache.
//!
//! "If there are still memory budget left, sub-shards will also be actively
//! loaded from disk to memory" (§III-B1). [`ShardStore`] plans a cache from
//! the leftover budget in row-major traversal order. A cached cell
//! ([`ShardStore::cached`]) costs no I/O (the bytes never move again); the
//! iteration plan turns every other access into a `Fetch` for the read
//! [pipeline](super::pipeline) to stream from disk (counted by the disk's
//! [`IoCounters`]).
//!
//!
//! Beside the cache, the store memoises the run's empty cells: a streamed
//! sub-shard that delivered no edge (`ShardStore::note_empty`) is
//! planned as free for the rest of the run. The memo is a key set of at
//! most `P²` entries outside the budget, holding no read buffer.
//!
//! [`IoCounters`]: nxgraph_storage::IoCounters

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::dsss::{PreparedGraph, SubShardView};
use crate::error::EngineResult;
use crate::program::Direction;

/// Cache key: `(i, j, reverse)`.
pub type Key = (u32, u32, bool);

/// The cached sub-shards of one prepared graph.
pub struct ShardStore<'g> {
    graph: &'g PreparedGraph,
    cache: HashMap<Key, Arc<SubShardView>>,
    cached_bytes: u64,
    /// Cells streamed this run with no edge, all served by `empty`.
    memo: HashSet<Key>,
    empty: Arc<SubShardView>,
}

impl<'g> ShardStore<'g> {
    /// A store with an empty cache (pure streaming).
    pub fn new(graph: &'g PreparedGraph) -> Self {
        Self {
            graph,
            cache: HashMap::new(),
            cached_bytes: 0,
            memo: HashSet::new(),
            empty: Arc::new(SubShardView::from_edges(0, 0, Vec::new())),
        }
    }

    /// Directions a program needs, as (reverse?) flags.
    pub fn dirs(direction: Direction) -> &'static [bool] {
        match direction {
            Direction::Forward => &[false],
            Direction::Reverse => &[true],
            Direction::Both => &[false, true],
        }
    }

    /// Greedily cache sub-shards (row-major, forward before reverse) until
    /// `budget` bytes are used. Returns the bytes actually cached.
    ///
    /// The budget is charged in *resident* bytes
    /// ([`SubShardView::resident_bytes`]): a delta+varint (format v3)
    /// blob is 2-4× smaller on disk than the word buffer it inflates to
    /// in memory, so charging file lengths would silently blow the
    /// memory budget on compressed graphs. The file length still serves
    /// as a cheap pre-read filter — for raw blobs it *is* the resident
    /// size, so the filter stops before a wasted read; it can only ever
    /// stop early (never admit too much), since admission itself charges
    /// the real resident size.
    ///
    /// The initial loads count as disk reads (they are the "initial load
    /// from disk" of §III-B1); cached shards are free from then on.
    pub fn plan_cache(&mut self, budget: u64, direction: Direction) -> EngineResult<u64> {
        let p = self.graph.num_intervals();
        let loader = self.graph.view_loader();
        'outer: for &reverse in Self::dirs(direction) {
            for i in 0..p {
                for j in 0..p {
                    let len = self.graph.subshard_len(i, j, reverse)?;
                    if self.cached_bytes + len > budget {
                        break 'outer;
                    }
                    let ss = Arc::new(loader.load_subshard(i, j, reverse)?);
                    let resident = ss.resident_bytes();
                    if self.cached_bytes + resident > budget {
                        // Inflated past the remaining budget: stream this
                        // cell (and the rest) instead of caching it.
                        break 'outer;
                    }
                    self.cache.insert((i, j, reverse), ss);
                    self.cached_bytes += resident;
                }
            }
        }
        Ok(self.cached_bytes)
    }

    /// Bytes held by the cache.
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }

    /// Number of cached sub-shards.
    pub fn cached_count(&self) -> usize {
        self.cache.len()
    }

    /// The cached copy of `(i, j)`, an empty view if the cell is memoised
    /// as empty, or `None` — never touches the disk.
    pub fn cached(&self, i: u32, j: u32, reverse: bool) -> Option<Arc<SubShardView>> {
        let key = (i, j, reverse);
        let empty = self.memo.contains(&key).then_some(&self.empty);
        self.cache.get(&key).or(empty).map(Arc::clone)
    }

    /// Remember that cell `key` holds no edge, so it is never fetched again.
    pub(crate) fn note_empty(&mut self, key: Key) {
        self.memo.insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsss::Fetch;
    use crate::engine::plan::{plan, Cell, IterPlan, Step};
    use crate::engine::Activity;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    fn graph() -> PreparedGraph {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", 4), disk).unwrap()
    }

    #[test]
    fn plan_cache_charges_resident_bytes_for_compressed_shards() {
        use nxgraph_storage::EncodingPolicy;
        // A dense small-id graph compresses ~3-4×, so its inflated views
        // occupy far more memory than the files suggest. A budget equal
        // to the on-disk total must NOT admit every shard.
        let raw: Vec<(u64, u64)> = (0..4000u64).map(|k| (k % 61, k % 97)).collect();
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let cfg = PrepConfig::forward_only("dense", 4)
            .with_encoding(EncodingPolicy::Auto);
        let g = preprocess(&raw, &cfg, disk).unwrap();
        let disk_total = g.total_subshard_bytes().unwrap();
        // Sanity: compression actually kicked in for this fixture.
        let sample = g.view_loader().load_subshard(0, 0, false).unwrap();
        assert!(sample.resident_bytes() > g.subshard_len(0, 0, false).unwrap());

        let mut store = ShardStore::new(&g);
        let cached = store.plan_cache(disk_total, Direction::Forward).unwrap();
        assert!(cached <= disk_total, "resident charge must respect the budget");
        assert!(
            store.cached_count() < 16,
            "a disk-sized budget cannot hold all inflated shards"
        );
        // A budget sized for the inflated views admits everything, and
        // the reported total is the resident sum, not the file sum.
        let resident_total: u64 = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| g.view_loader().load_subshard(i, j, false).unwrap().resident_bytes())
            .sum();
        let mut store = ShardStore::new(&g);
        let cached = store.plan_cache(2 * resident_total, Direction::Forward).unwrap();
        assert_eq!(cached, resident_total);
        assert_eq!(store.cached_count(), 16);
    }

    /// Every activity flag up and tracked, so no row is skipped.
    fn all_active() -> Activity {
        Activity { active: vec![true; 4], tracks: true }
    }

    /// The cells of every `Absorb` in `plan`, in execution order.
    fn cells(plan: &IterPlan) -> Vec<&Cell> {
        let steps = plan.groups.iter().flat_map(|group| &group.steps);
        steps
            .flat_map(|step| match step {
                Step::Absorb { cells, .. } => cells.as_slice(),
                _ => &[],
            })
            .collect()
    }

    #[test]
    fn zero_budget_streams_everything() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        assert_eq!(store.plan_cache(0, Direction::Forward).unwrap(), 0);
        // DPU: every cell streams, and the fetch lists hold them row-major.
        let plan = plan(&g, 0, &store, &all_active(), &[false], false);
        assert!(cells(&plan).iter().all(|cell| matches!(cell, Cell::Streamed(_))));
        let fetches = plan.groups.iter().flat_map(|group| &group.fetches);
        let shards: Vec<Fetch> =
            fetches.copied().filter(|f| matches!(f, Fetch::Shard { .. })).collect();
        let row_major: Vec<Fetch> = (0..4)
            .flat_map(|i| (0..4).map(move |j| Fetch::Shard { i, j, reverse: false }))
            .collect();
        assert_eq!(shards, row_major);
    }

    #[test]
    fn full_budget_caches_everything_and_hits_are_free() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        let cached = store.plan_cache(u64::MAX, Direction::Forward).unwrap();
        assert_eq!(cached, g.total_subshard_bytes().unwrap());
        assert_eq!(store.cached_count(), 16);
        let before = g.disk().counters().read_bytes();
        let plan = plan(&g, 4, &store, &all_active(), &[false], false);
        assert_eq!(cells(&plan).len(), 16);
        assert!(cells(&plan).iter().all(|cell| matches!(cell, Cell::Held(_))));
        assert!(plan.groups.iter().all(|group| group.fetches.is_empty()));
        assert_eq!(g.disk().counters().read_bytes(), before);
    }

    #[test]
    fn a_memoised_empty_cell_is_planned_free_in_place() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        // Fig 1 at P = 4: cell (0, 0) holds no edge.
        assert!(g.load_subshard(0, 0, false).unwrap().is_empty());
        store.note_empty((0, 0, false));
        assert_eq!((store.cached_count(), store.cached_bytes()), (0, 0));
        // SPU, nothing cached: the memoised cell keeps its place among the
        // row's cells (it pairs with accumulator 0) and is not fetched.
        let plan = plan(&g, 4, &store, &all_active(), &[false], false);
        let cells = cells(&plan);
        assert!(matches!(cells[0], Cell::Held(view) if view.is_empty()));
        assert!(cells[1..].iter().all(|cell| matches!(cell, Cell::Streamed(_))));
        let fetches = plan.groups.iter().flat_map(|group| &group.fetches);
        assert_eq!(fetches.count(), 15);
    }

    #[test]
    fn partial_budget_caches_prefix() {
        let g = graph();
        let total = g.total_subshard_bytes().unwrap();
        let mut store = ShardStore::new(&g);
        let cached = store.plan_cache(total / 2, Direction::Forward).unwrap();
        assert!(cached <= total / 2);
        assert!(store.cached_count() > 0);
        assert!(store.cached_count() < 16);
    }

    #[test]
    fn both_directions_cached_in_order() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        store.plan_cache(u64::MAX, Direction::Both).unwrap();
        assert_eq!(store.cached_count(), 32);
        // Reverse shard served from cache.
        let before = g.disk().counters().read_bytes();
        assert!(store.cached(0, 0, true).is_some());
        assert_eq!(g.disk().counters().read_bytes(), before);
    }

    #[test]
    fn cache_hands_out_one_allocation() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        store.plan_cache(u64::MAX, Direction::Forward).unwrap();
        let a = store.cached(1, 2, false).unwrap();
        // SPU: row 1's cells are the fifth to eighth the plan absorbs.
        let plan = plan(&g, 4, &store, &all_active(), &[false], false);
        assert!(matches!(cells(&plan)[4 + 2], Cell::Held(b) if Arc::ptr_eq(&a, b)));
    }

    #[test]
    fn streamed_shard_equals_cached_shard() {
        let g = graph();
        let mut store = ShardStore::new(&g);
        store.plan_cache(u64::MAX, Direction::Forward).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    *store.cached(i, j, false).unwrap(),
                    g.view_loader().load_subshard(i, j, false).unwrap()
                );
            }
        }
    }
}
