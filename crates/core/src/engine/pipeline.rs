//! The read pipeline: the one route by which sub-shards and hubs reach the
//! kernel.
//!
//! Every strategy streams files in the fixed row/column order of
//! Algorithm 1 (§III-B, "streamlined disk access pattern"). A driver hands
//! [`Pipeline::stream`] that order as a list of typed [`Fetch`] items and
//! receives the decoded [`Fetched`] views back **strictly in list order**.
//! Each item goes through [`ViewLoader::fetch`] — resolve names → read
//! under the graph's retry policy → verify per its checksum policy →
//! decode and merge the delta chain — and nothing else on the engine read
//! path applies retry, checksums or chain merging.
//!
//! How far the pipeline runs ahead is derived, not configured:
//!
//! * `threads == 1` and no `io_deadline`: the fetch runs inline in
//!   [`Stream::next`] — strictly synchronous, no extra thread.
//! * otherwise: [`EngineConfig::decode_workers`] background workers pull
//!   items in list order, at most `workers + 1` (never fewer than
//!   [`RING_SLOTS`]) ahead of the consumer, which bounds decoded-ahead
//!   memory to the ring depth. Workers finish out of order; a reorder
//!   buffer keyed by list position restores the order. While the kernel
//!   folds one sub-shard the next ones are already being read, verified
//!   and inflated.
//!
//! Running ahead changes *when* a file is read relative to compute, never
//! *what* is read or computed from it, so inline and ring runs are
//! bitwise-identical with byte-identical I/O totals (`tests/pipeline.rs`
//! pins this across the oracle matrix).
//!
//! The hung-I/O watchdog lives at the single delivery point: with an
//! `io_deadline`, the consumer's wait for the next in-order item is
//! bounded. On expiry the wait becomes a typed
//! [`StorageError::Stalled`], the stall is counted in the disk's
//! `IoProfile`, the stream is cancelled (no further reads are issued), and
//! a worker still stuck inside the hung read is detached after a short
//! grace period when the pipeline drops, instead of the run inheriting the
//! hang.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nxgraph_storage::StorageError;

use crate::dsss::{HubView, PreparedGraph, SubShardView, ViewLoader};
use crate::error::EngineResult;
use crate::types::Attr;

use super::EngineConfig;

pub use crate::dsss::{Fetch, Fetched};

/// Minimum ring depth: how many results may be decoded ahead of the
/// consumer even with a single worker.
pub const RING_SLOTS: usize = 2;

/// How long a dropped pipeline waits for a worker stuck in a hung read
/// before detaching it.
const DETACH_GRACE: Duration = Duration::from_millis(500);

/// A finished fetch: its result, or the panic it raised.
type Outcome<A> = std::thread::Result<EngineResult<Fetched<A>>>;

struct State<A: Attr> {
    /// The current stream's fetch list.
    items: Vec<Fetch>,
    /// Identifies the current stream; a worker that finishes an item of an
    /// earlier (cancelled or abandoned) stream discards its result.
    stream: u64,
    /// Position of the next item a worker takes.
    next_issue: usize,
    /// Position the consumer receives next.
    next_pop: usize,
    /// Finished items awaiting in-order pickup (the reorder buffer).
    done: BTreeMap<usize, Outcome<A>>,
    /// Set on drop; workers exit at their next wait.
    shutdown: bool,
}

struct Ring<A: Attr> {
    state: Mutex<State<A>>,
    /// Workers wait here for an issuable item.
    work_cv: Condvar,
    /// The consumer waits here for the next in-order result.
    done_cv: Condvar,
    /// Items in flight or finished-but-undelivered, at most.
    slots: usize,
}

impl<A: Attr> State<A> {
    /// End the current stream: nothing further is issued, and whatever an
    /// in-flight fetch eventually returns is discarded.
    fn cancel(&mut self) {
        self.stream += 1;
        self.items.clear();
        self.next_issue = 0;
        self.next_pop = 0;
        self.done.clear();
    }
}

impl<A: Attr> Ring<A> {
    fn work(&self, loader: &ViewLoader) {
        loop {
            let (stream, k, item) = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let k = st.next_issue;
                    if k < st.items.len() && k < st.next_pop + self.slots {
                        st.next_issue += 1;
                        break (st.stream, k, st.items[k]);
                    }
                    self.work_cv.wait(&mut st);
                }
            };
            let out = catch_unwind(AssertUnwindSafe(|| loader.fetch::<A>(item)));
            let mut st = self.state.lock();
            if st.stream == stream {
                st.done.insert(k, out);
                self.done_cv.notify_all();
            }
        }
    }

    /// Wait for the next in-order result, at most `deadline`; `Err` names
    /// the item whose wait expired (and cancels the stream).
    fn pop(&self, deadline: Option<Duration>) -> Option<Result<Outcome<A>, (Fetch, Duration)>> {
        let started = Instant::now();
        let mut st = self.state.lock();
        let k = st.next_pop;
        if k >= st.items.len() {
            return None;
        }
        loop {
            if let Some(out) = st.done.remove(&k) {
                st.next_pop += 1;
                self.work_cv.notify_one();
                return Some(Ok(out));
            }
            let Some(deadline) = deadline else {
                self.done_cv.wait(&mut st);
                continue;
            };
            let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                let item = st.items[k];
                st.cancel();
                return Some(Err((item, started.elapsed())));
            };
            let _ = self.done_cv.wait_for(&mut st, remaining);
        }
    }
}

/// One run's read pipeline: the loader plus, when the run is not strictly
/// synchronous, the worker ring. Create one per [`super::run`] and drive
/// it through one [`Stream`] at a time.
pub struct Pipeline<A: Attr> {
    loader: ViewLoader,
    deadline: Option<Duration>,
    ring: Option<Arc<Ring<A>>>,
    workers: Vec<JoinHandle<()>>,
    /// A watchdog deadline tripped: some worker may be stuck in a read.
    stalled: bool,
}

impl<A: Attr> Pipeline<A> {
    /// The pipeline for a run of `g` under `cfg`; its depth follows from
    /// `cfg.threads` and `cfg.io_deadline` (see the module docs).
    pub fn new(g: &PreparedGraph, cfg: &EngineConfig) -> Self {
        let mut pipe = Self {
            loader: g.view_loader(),
            deadline: cfg.io_deadline,
            ring: None,
            workers: Vec::new(),
            stalled: false,
        };
        if cfg.threads <= 1 && cfg.io_deadline.is_none() {
            return pipe;
        }
        let workers = cfg.decode_workers();
        let ring = Arc::new(Ring {
            state: Mutex::new(State {
                items: Vec::new(),
                stream: 0,
                next_issue: 0,
                next_pop: 0,
                done: BTreeMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            slots: (workers + 1).max(RING_SLOTS),
        });
        pipe.workers = (0..workers)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let loader = pipe.loader.clone();
                std::thread::Builder::new()
                    .name("nxgraph-read".into())
                    .spawn(move || ring.work(&loader))
                    .expect("failed to spawn read-pipeline worker")
            })
            .collect();
        pipe.ring = Some(ring);
        pipe
    }

    /// Start delivering `items`, in order. The exclusive borrow makes a
    /// second concurrent stream a compile error.
    pub fn stream(&mut self, items: Vec<Fetch>) -> Stream<'_, A> {
        let inline = match &self.ring {
            Some(ring) => {
                let mut st = ring.state.lock();
                st.cancel();
                st.items = items;
                ring.work_cv.notify_all();
                Vec::new()
            }
            None => items,
        };
        Stream {
            pipe: self,
            inline: inline.into_iter(),
        }
    }
}

impl<A: Attr> Drop for Pipeline<A> {
    fn drop(&mut self) {
        let Some(ring) = &self.ring else { return };
        {
            let mut st = ring.state.lock();
            st.shutdown = true;
            ring.work_cv.notify_all();
        }
        // After a stall a worker may sit inside a genuinely hung read: give
        // it a bounded grace period to come back and see the flag, then
        // detach it rather than inherit the hang. A detached worker only
        // touches state it co-owns via `Arc` and exits at its next wait.
        let grace = Instant::now();
        for h in self.workers.drain(..) {
            while self.stalled && !h.is_finished() && grace.elapsed() < DETACH_GRACE {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !self.stalled || h.is_finished() {
                let _ = h.join();
            }
        }
    }
}

/// An in-order stream over one fetch list (one row, column or iteration).
///
/// Dropping a stream mid-list (error propagation) abandons the rest: no
/// further items are issued and in-flight results are discarded.
pub struct Stream<'p, A: Attr> {
    pipe: &'p mut Pipeline<A>,
    /// The list itself when the pipeline is inline; empty on the ring.
    inline: std::vec::IntoIter<Fetch>,
}

impl<A: Attr> Iterator for Stream<'_, A> {
    type Item = EngineResult<Fetched<A>>;

    fn next(&mut self) -> Option<Self::Item> {
        let pipe = &mut *self.pipe;
        let Some(ring) = &pipe.ring else {
            return self.inline.next().map(|item| pipe.loader.fetch(item));
        };
        Some(match ring.pop(pipe.deadline)? {
            // A panic raised by the fetch resumes here, on the consumer.
            Ok(out) => out.unwrap_or_else(|payload| resume_unwind(payload)),
            Err((item, waited)) => {
                pipe.stalled = true;
                if let Some(p) = pipe.loader.disk().io_profile() {
                    p.record_stall();
                }
                Err(StorageError::Stalled {
                    name: pipe.loader.first_file(item),
                    waited_ms: waited.as_millis() as u64,
                }
                .into())
            }
        })
    }
}

impl<A: Attr> Stream<'_, A> {
    /// The next item, which the fetch list says is a sub-shard.
    pub fn shard(&mut self) -> EngineResult<Arc<SubShardView>> {
        match self.next().expect("stream exhausted before its fetch list")? {
            Fetched::Shard(ss) => Ok(Arc::new(ss)),
            Fetched::Hub(_) => unreachable!("fetch list has a hub where a shard is consumed"),
        }
    }

    /// The next item, which the fetch list says is a hub.
    pub fn hub(&mut self) -> EngineResult<HubView<A>> {
        match self.next().expect("stream exhausted before its fetch list")? {
            Fetched::Hub(hub) => Ok(hub),
            Fetched::Shard(_) => unreachable!("fetch list has a shard where a hub is consumed"),
        }
    }
}

impl<A: Attr> Drop for Stream<'_, A> {
    fn drop(&mut self) {
        if let Some(ring) = &self.pipe.ring {
            ring.state.lock().cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{
        AlignedBuf, Disk, FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule, MemDisk,
        StorageResult,
    };

    /// The Fig 1 graph (P = 4) on a MemDisk, reopened through `wrap`.
    fn graph(wrap: impl FnOnce(Arc<dyn Disk>) -> Arc<dyn Disk>) -> PreparedGraph {
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        preprocess(&edges, &PrepConfig::new("fig1", 4), Arc::clone(&mem)).unwrap();
        PreparedGraph::open(wrap(mem)).unwrap()
    }

    fn all_shards() -> Vec<Fetch> {
        (0..4)
            .flat_map(|i| (0..4).map(move |j| Fetch::Shard { i, j, reverse: false }))
            .collect()
    }

    fn cfg(threads: usize) -> EngineConfig {
        EngineConfig::default().with_threads(threads)
    }

    fn read_rule(name: &str, kind: FaultKind, count: u64) -> FaultPlan {
        FaultPlan::new().with_rule(FaultRule {
            name_contains: name.into(),
            op: FaultOp::Read,
            kind,
            first: 0,
            count,
        })
    }

    #[test]
    fn inline_and_ring_deliver_the_list_in_order() {
        let g = graph(|d| d);
        g.write_hub(1, 2, &[4, 5], &[0.25f64, 0.75]).unwrap();
        let mut items = all_shards();
        items.extend([Fetch::Hub { i: 1, j: 2 }, Fetch::Hub { i: 2, j: 1 }]);
        // Workers finish out of order; delivery must not.
        for threads in [1usize, 2, 3, 8] {
            let mut pipe = Pipeline::<f64>::new(&g, &cfg(threads));
            assert_eq!(pipe.ring.is_some(), threads > 1, "depth follows the thread count");
            for _round in 0..3 {
                let mut stream = pipe.stream(items.clone());
                for i in 0..4 {
                    for j in 0..4 {
                        let ss = stream.shard().unwrap();
                        assert_eq!((ss.src_interval(), ss.dst_interval()), (i, j));
                    }
                }
                assert_eq!(stream.hub().unwrap().dsts(), &[4, 5]);
                match stream.hub() {
                    Err(crate::EngineError::Storage(StorageError::NotFound(name))) => {
                        assert_eq!(name, "hub_2_1.bin", "hubs are read by name, never probed")
                    }
                    other => panic!("expected NotFound, got {:?}", other.map(|_| ())),
                }
                assert!(stream.next().is_none());
            }
        }
    }

    #[test]
    fn a_deadline_alone_moves_a_single_thread_run_onto_the_ring() {
        let g = graph(|d| d);
        let one = cfg(1).with_io_deadline(Some(Duration::from_secs(30)));
        let mut pipe = Pipeline::<f64>::new(&g, &one);
        assert!(pipe.ring.is_some(), "the watchdog needs a wait to bound");
        assert_eq!(pipe.stream(all_shards()).count(), 16);
    }

    #[test]
    fn abandoned_stream_leaves_nothing_behind_for_the_next() {
        let g = graph(|d| d);
        let mut pipe = Pipeline::<f64>::new(&g, &cfg(3));
        {
            let mut stream = pipe.stream(all_shards());
            assert_eq!(stream.shard().unwrap().dst_interval(), 0);
            // Dropped with fetches still in flight.
        }
        let mut stream = pipe.stream(vec![Fetch::Shard { i: 3, j: 2, reverse: false }]);
        let ss = stream.shard().unwrap();
        assert_eq!((ss.src_interval(), ss.dst_interval()), (3, 2));
        assert!(stream.next().is_none());
    }

    #[test]
    fn transient_faults_are_retried_inside_the_fetch() {
        // Every sub-shard's first read faults; the re-issue succeeds.
        for threads in [1usize, 3] {
            let mut fd = None;
            let g = graph(|mem| {
                let d = Arc::new(FaultDisk::new(mem, read_rule("ss_", FaultKind::ReadError, 1)));
                fd = Some(Arc::clone(&d));
                d
            });
            let mut pipe = Pipeline::<f64>::new(&g, &cfg(threads));
            for item in pipe.stream(all_shards()) {
                assert!(item.is_ok(), "healed by retry");
            }
            let snap = fd.unwrap().io_profile().unwrap().snapshot();
            assert_eq!(snap.retries, 16, "one retry per faulted first read");
            assert_eq!(snap.giveups, 0);
        }
    }

    #[test]
    fn watchdog_converts_a_hung_read_into_a_typed_stall() {
        let mut fd = None;
        let g = graph(|mem| {
            let stall = FaultKind::Stall(Duration::from_secs(2));
            let d = Arc::new(FaultDisk::new(mem, read_rule("ss_0_1", stall, u64::MAX)));
            fd = Some(Arc::clone(&d));
            d
        });
        let started = Instant::now();
        let mut pipe =
            Pipeline::<f64>::new(&g, &cfg(1).with_io_deadline(Some(Duration::from_millis(100))));
        let mut stream = pipe.stream(all_shards());
        assert!(stream.shard().is_ok(), "(0, 0) is healthy");
        match stream.next() {
            Some(Err(crate::EngineError::Storage(StorageError::Stalled { name, waited_ms }))) => {
                assert!(name.starts_with("ss_0_1"), "{name}");
                assert!(waited_ms >= 100, "waited only {waited_ms} ms");
            }
            other => panic!("expected Stalled, got {:?}", other.map(|r| r.map(|_| ()))),
        }
        assert!(stream.next().is_none(), "a stalled stream is cancelled");
        drop(stream);
        assert_eq!(fd.unwrap().io_profile().unwrap().snapshot().stalls, 1);
        // Dropping the pipeline detaches the stuck worker rather than
        // inheriting its hang.
        drop(pipe);
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "watchdog + drop must finish well before the 2 s stall ends (took {:?})",
            started.elapsed()
        );
    }

    /// A disk whose bulk reads of one file panic (a decoder bug stand-in).
    struct PanicDisk(Arc<dyn Disk>);

    impl Disk for PanicDisk {
        fn inner(&self) -> Option<&dyn Disk> {
            Some(&*self.0)
        }
        fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
            assert!(!name.starts_with("ss_1_1"), "boom");
            self.0.read_into(name, buf)
        }
    }

    #[test]
    fn fetch_panic_resumes_on_the_consumer_and_the_ring_survives() {
        let g = graph(|mem| Arc::new(PanicDisk(mem)));
        let mut pipe = Pipeline::<f64>::new(&g, &cfg(2));
        let mut stream = pipe.stream(vec![
            Fetch::Shard { i: 1, j: 0, reverse: false },
            Fetch::Shard { i: 1, j: 1, reverse: false },
            Fetch::Shard { i: 1, j: 2, reverse: false },
        ]);
        assert!(stream.shard().is_ok());
        let err = catch_unwind(AssertUnwindSafe(|| stream.next().map(|r| r.map(|_| ()))));
        assert!(err.is_err(), "the panic must surface on the consumer");
        drop(stream);
        // The worker that ran the panicking fetch is still serving.
        let mut stream = pipe.stream(vec![Fetch::Shard { i: 2, j: 2, reverse: false }]);
        assert_eq!(stream.shard().unwrap().src_interval(), 2);
    }
}
