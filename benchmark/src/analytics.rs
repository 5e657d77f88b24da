//! The four analytics workloads: one complete `algo::pagerank` or
//! `algo::bfs` call per operation, on a store prepared from the seed.
//!
//! With tracing off a run is: set-up (timed) → oracle (untimed) → warm-up
//! → timed calls until `--seconds` have passed → correctness checks. The
//! harness sets only what defines the workload (strategy, budget,
//! iterations, threads, store encoding); prefetch, the I/O scheduler, its
//! queue depth, sync mode, checksum and retry policies stay at library
//! defaults so that a change of default moves the numbers.
//!
//! With tracing on the same store is run through the engine at two and at
//! one thread, then through the layer walk with span recording on and off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nxgraph_core::algo::{self, Bfs, PageRank};
use nxgraph_core::engine::{EngineConfig, RunStats, ShardStore, Strategy};
use nxgraph_core::error::EngineResult;
use nxgraph_core::iomodel::{self, IoParams};
use nxgraph_core::parallel::run_tasks;
use nxgraph_core::prep::{self, Degreeing, PrepConfig};
use nxgraph_core::program::Direction;
use nxgraph_core::types::Attr;
use nxgraph_core::{reference, PreparedGraph, VertexProgram};
use nxgraph_storage::{
    DeviceProfile, Disk, EncodingPolicy, IoProfileSnapshot, IoSnapshot, MemDisk, OsDisk, PacedDisk,
};

use crate::host;
use crate::inputs;
use crate::result::{EndToEnd, RunArgs, RunResult};
use crate::scratch::{dir_usage, out_dir, ScratchDir};
use crate::span::{self, LayerTotal, Tracer};
use crate::stats::median;
use crate::store::{self, SetupTimes};
use crate::walk::{fingerprint, walk, WalkOutput};
use crate::Res;

/// Intervals of every analytics store (the paper recommends 12–48).
const P: u32 = 16;

#[derive(Clone, Copy)]
enum Graph {
    Rmat,
    Mesh,
}

#[derive(Clone, Copy)]
enum Budget {
    Unlimited,
    Bytes(u64),
    /// Degree table plus ping-pong copies of half the intervals: `Q = P/2`
    /// and nothing left over for a sub-shard cache.
    HalfResident,
}

pub struct Spec {
    pub name: &'static str,
    graph: Graph,
    scale: u32,
    quick_scale: u32,
    encoding: EncodingPolicy,
    strategy: Strategy,
    budget: Budget,
    /// Wrap the store in `PacedDisk(DeviceProfile::HDD)`.
    paced: bool,
    /// Keep the store on a `MemDisk`, not on `OsDisk` in a scratch
    /// directory. Only `pr-dpu-stream`, which rewrites 160 MB of hub files
    /// per call: what such writes cost on this sandbox's virtual disk
    /// depends on how long the disk idled before, and on `OsDisk` the
    /// run-to-run spread of its timings (9–27 % over seven sets of ten runs)
    /// does not stay within any bound the contract allows (see README).
    ram_disk: bool,
    /// One untimed call before the timed ones (cold page cache, pool
    /// spin-up, first-load checksums).
    warmup: bool,
    /// Set-ups per run; `setup_s` is their median. One where a set-up
    /// takes seconds, several where it takes a fraction of one.
    setup_reps: usize,
}

pub const PR_SPU_RESIDENT: Spec = Spec {
    name: "pr-spu-resident",
    graph: Graph::Rmat,
    scale: 19,
    quick_scale: 12,
    encoding: EncodingPolicy::Raw,
    strategy: Strategy::Spu,
    budget: Budget::Unlimited,
    paced: false,
    ram_disk: false,
    warmup: true,
    setup_reps: 1,
};

pub const PR_DPU_STREAM: Spec = Spec {
    name: "pr-dpu-stream",
    graph: Graph::Rmat,
    scale: 19,
    quick_scale: 12,
    encoding: EncodingPolicy::Auto,
    strategy: Strategy::Dpu,
    budget: Budget::Bytes(1 << 20),
    paced: false,
    ram_disk: true,
    warmup: true,
    setup_reps: 1,
};

pub const PR_MPU_PACED_HDD: Spec = Spec {
    name: "pr-mpu-paced-hdd",
    graph: Graph::Rmat,
    scale: 19,
    quick_scale: 12,
    encoding: EncodingPolicy::Auto,
    strategy: Strategy::Mpu,
    budget: Budget::HalfResident,
    paced: true,
    ram_disk: false,
    // Sleep-paced: the first call is as slow as the rest.
    warmup: false,
    setup_reps: 1,
};

pub const BFS_MESH_FRONTIER: Spec = Spec {
    name: "bfs-mesh-frontier",
    graph: Graph::Mesh,
    scale: 18,
    quick_scale: 10,
    encoding: EncodingPolicy::Auto,
    strategy: Strategy::Mpu,
    budget: Budget::HalfResident,
    paced: false,
    ram_disk: false,
    warmup: false,
    setup_reps: 5,
};

/// The algorithm a workload runs: the `algo::` call that is timed, the
/// program the walk replays, and the oracle the result must agree with.
pub trait Analytic {
    type Prog: VertexProgram;
    fn prog(&self, g: &PreparedGraph) -> Self::Prog;
    fn max_iterations(&self, g: &PreparedGraph) -> usize;
    fn call(
        &self,
        g: &PreparedGraph,
        cfg: &EngineConfig,
    ) -> EngineResult<(Vec<Value<Self>>, RunStats)>;
    fn oracle(&self, deg: &Degreeing) -> Vec<Value<Self>>;
    fn agrees(got: &Value<Self>, want: &Value<Self>) -> bool;
    const IS_PAGERANK: bool;
}

type Value<A> = <<A as Analytic>::Prog as VertexProgram>::Value;

const PAGERANK_ITERATIONS: usize = 10;

/// Traced/untraced walk pairs of a traced run: as many as start within the
/// budget, at least one, at most `MAX_WALK_PAIRS`.
const WALK_PAIRS_BUDGET: Duration = Duration::from_secs(6);
const MAX_WALK_PAIRS: usize = 5;

pub struct PageRank10;

impl Analytic for PageRank10 {
    type Prog = PageRank;
    const IS_PAGERANK: bool = true;

    fn prog(&self, g: &PreparedGraph) -> PageRank {
        PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()))
    }

    fn max_iterations(&self, _g: &PreparedGraph) -> usize {
        PAGERANK_ITERATIONS
    }

    fn call(&self, g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<(Vec<f64>, RunStats)> {
        algo::pagerank(g, PAGERANK_ITERATIONS, cfg)
    }

    fn oracle(&self, deg: &Degreeing) -> Vec<f64> {
        reference::pagerank(
            deg.num_vertices,
            &deg.edges,
            &deg.out_degrees,
            PAGERANK_ITERATIONS,
        )
    }

    fn agrees(got: &f64, want: &f64) -> bool {
        (got - want).abs() <= 1e-9
    }
}

pub struct BfsFromZero;

impl Analytic for BfsFromZero {
    type Prog = Bfs;
    const IS_PAGERANK: bool = false;

    fn prog(&self, _g: &PreparedGraph) -> Bfs {
        Bfs::new(0)
    }

    fn max_iterations(&self, g: &PreparedGraph) -> usize {
        // What `algo::bfs` allows: convergence ends the run long before.
        g.num_vertices() as usize + 1
    }

    fn call(&self, g: &PreparedGraph, cfg: &EngineConfig) -> EngineResult<(Vec<u32>, RunStats)> {
        algo::bfs(g, 0, cfg)
    }

    fn oracle(&self, deg: &Degreeing) -> Vec<u32> {
        reference::bfs(deg.num_vertices, &deg.edges, 0)
    }

    fn agrees(got: &u32, want: &u32) -> bool {
        got == want
    }
}

/// Where a store's bytes live, kept for its size and its lifetime.
enum Backing {
    Os(ScratchDir),
    Mem(Arc<MemDisk>),
}

impl Backing {
    /// Bytes of all files of the store.
    fn bytes(&self) -> Res<u64> {
        Ok(match self {
            Backing::Os(dir) => dir_usage(dir.path())?.0,
            Backing::Mem(mem) => mem.total_size(),
        })
    }
}

/// A prepared store and the handle the workload runs on.
struct Store {
    backing: Backing,
    /// The disk under any pacing wrapper.
    base: Arc<dyn Disk>,
    paced: Option<Arc<PacedDisk>>,
    graph: PreparedGraph,
    /// The generated edge list; taken (and dropped) before anything is timed.
    raw: Vec<(u64, u64)>,
    times: SetupTimes,
}

impl Store {
    /// MiB the RAM disk holds (0 on `OsDisk`). The RAM disk is the
    /// harness's, not the program's: a resident-set reading leaves its
    /// files out, as the page cache keeps them out of it on `OsDisk`.
    /// (Hubs alive at a peak but gone by the time of the reading stay in.)
    fn ram_disk_mib(&self) -> f64 {
        match &self.backing {
            Backing::Os(_) => 0.0,
            Backing::Mem(mem) => mem.total_size() as f64 / (1 << 20) as f64,
        }
    }
}

impl Spec {
    fn scale(&self, quick: bool) -> u32 {
        if quick {
            self.quick_scale
        } else {
            self.scale
        }
    }

    fn edges(&self, args: &RunArgs) -> Vec<(u64, u64)> {
        match self.graph {
            Graph::Rmat => inputs::rmat_edges(self.scale(args.quick), args.seed),
            Graph::Mesh => inputs::mesh_edges(self.scale(args.quick)),
        }
    }

    fn budget_bytes(&self, n: u64, value_size: usize) -> u64 {
        match self.budget {
            Budget::Unlimited => u64::MAX,
            Budget::Bytes(b) => b,
            Budget::HalfResident => 4 * n + n * value_size as u64,
        }
    }

    fn engine_cfg(&self, threads: usize, n: u64, value_size: usize) -> EngineConfig {
        EngineConfig::default()
            .with_threads(threads)
            .with_strategy(self.strategy)
            .with_budget(self.budget_bytes(n, value_size))
    }

    /// Generate, preprocess onto a fresh disk, reopen. `split` times
    /// degreeing and sharding apart (`preprocess` is exactly those two).
    fn setup(&self, args: &RunArgs, split: bool) -> Res<Store> {
        let mut t = SetupTimes::default();
        let start = Instant::now();
        let raw = self.edges(args);
        t.generate_s = start.elapsed().as_secs_f64();
        let (backing, os): (Backing, Arc<dyn Disk>) = if self.ram_disk {
            let mem = Arc::new(MemDisk::new());
            (Backing::Mem(Arc::clone(&mem)), mem)
        } else {
            let dir = ScratchDir::new(self.name)?;
            let os = Arc::new(OsDisk::new(dir.path())?);
            (Backing::Os(dir), os)
        };
        let cfg = PrepConfig::forward_only(self.name, P).with_encoding(self.encoding);
        store::prepare(&raw, &cfg, &os, split, &mut t)?;
        let paced = self
            .paced
            .then(|| Arc::new(PacedDisk::new(Arc::clone(&os), DeviceProfile::HDD)));
        let disk: Arc<dyn Disk> = match &paced {
            Some(p) => Arc::clone(p) as Arc<dyn Disk>,
            None => Arc::clone(&os),
        };
        let at = Instant::now();
        let graph = PreparedGraph::open(disk)?;
        t.open_s = at.elapsed().as_secs_f64();
        t.total_s = start.elapsed().as_secs_f64();
        Ok(Store {
            backing,
            base: os,
            paced,
            graph,
            raw,
            times: t,
        })
    }

    /// `setup_reps` set-ups; the last store is kept, with every total.
    fn setup_median(&self, args: &RunArgs) -> Res<(Store, Vec<f64>)> {
        store::repeat_setups(self.setup_reps, args.quick, || {
            let store = self.setup(args, false)?;
            let seconds = store.times.total_s;
            Ok((store, seconds))
        })
    }
}

/// One timed call. Only the result's fingerprint is kept: holding every
/// call's values would grow the resident set with the number of calls.
struct Call {
    len: usize,
    bits: u64,
    stats: RunStats,
    wall_s: f64,
    cpu_s: f64,
    profile: IoProfileSnapshot,
    seeks: u64,
}

/// `paced` is the pacing wrapper under `g`, when there is one (its seek
/// counter is not reachable through the `Disk` trait).
fn timed_call<A: Analytic>(
    algo: &A,
    g: &PreparedGraph,
    paced: Option<&PacedDisk>,
    cfg: &EngineConfig,
) -> Res<Call> {
    let profile_of = || store::profile_of(g.disk().as_ref());
    let seeks_of = || paced.map_or(0, |p| p.seeks());
    let (p0, s0, c0) = (profile_of(), seeks_of(), host::cpu_seconds());
    let at = Instant::now();
    let (values, stats) = algo.call(g, cfg)?;
    let wall_s = at.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - c0;
    Ok(Call {
        len: values.len(),
        bits: fingerprint(&values),
        stats,
        wall_s,
        cpu_s,
        profile: profile_of().delta(&p0),
        seeks: seeks_of() - s0,
    })
}

/// Calls until `budget` has passed, at least `min_calls`.
fn timed_calls<A: Analytic>(
    algo: &A,
    g: &PreparedGraph,
    paced: Option<&PacedDisk>,
    cfg: &EngineConfig,
    budget: Duration,
    min_calls: usize,
) -> Res<Vec<Call>> {
    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.len() < min_calls || start.elapsed() < budget {
        calls.push(timed_call(algo, g, paced, cfg)?);
    }
    Ok(calls)
}

/// The store's files copied onto a `MemDisk` and run through SPU on one
/// thread: the repository's bitwise-identity contract says every strategy,
/// thread count and encoding must reproduce these bits.
fn memdisk_reference<A: Analytic>(algo: &A, store: &Store) -> Res<Vec<Value<A>>> {
    let mem = MemDisk::new();
    for name in store.base.list() {
        mem.write_all_to(&name, &store.base.read_all(&name)?)?;
    }
    let g = PreparedGraph::open(Arc::new(mem))?;
    let cfg = EngineConfig::default()
        .with_threads(1)
        .with_strategy(Strategy::Spu);
    Ok(algo.call(&g, &cfg)?.0)
}

pub fn run<A: Analytic>(spec: &Spec, algo: &A, args: &RunArgs) -> Res<RunResult> {
    if args.trace {
        traced(spec, algo, args)
    } else {
        untraced(spec, algo, args)
    }
}

fn untraced<A: Analytic>(spec: &Spec, algo: &A, args: &RunArgs) -> Res<RunResult> {
    let mut out = RunResult::default();
    let (mut store, setups) = spec.setup_median(args)?;
    let setup_rss_mib = host::peak_rss_mib() - store.ram_disk_mib();
    let raw = std::mem::take(&mut store.raw);

    // The oracle needs the dense edge list; compute it now and drop the
    // inputs, so the timed part starts from the memory a user would have.
    let want = algo.oracle(&prep::degree(&raw));
    drop(raw);
    let g = &store.graph;
    let n = g.num_vertices() as u64;
    let cfg = spec.engine_cfg(host::engine_threads(), n, Value::<A>::SIZE);
    let paced = store.paced.as_deref();

    // Set-up's and the oracle's freed memory is handed back once, here,
    // and never between timed calls: re-faulting it would be charged to them.
    host::trim_heap();
    host::reset_peak_rss();
    if spec.warmup {
        timed_call(algo, g, paced, &cfg)?;
    }
    let calls = timed_calls(algo, g, paced, &cfg, Duration::from_secs(args.seconds), 2)?;
    let stream_rss_mib = host::peak_rss_mib() - store.ram_disk_mib();

    let store_bytes = store.backing.bytes()?;
    out.set_end_to_end(&EndToEnd {
        setups: &setups,
        op_ms: &calls.iter().map(|c| c.wall_s * 1e3).collect::<Vec<_>>(),
        // The stream's wall time is the calls' own: what the harness does
        // between two calls (fingerprinting a result) is not the program's.
        stream_s: calls.iter().map(|c| c.wall_s).sum(),
        cpu_s: calls.iter().map(|c| c.cpu_s).sum(),
        io_bytes: calls.iter().map(|c| c.stats.io.total_bytes()).sum(),
        store_bytes,
        edges: g.num_edges(),
        setup_rss_mib,
        stream_rss_mib,
    });

    // Checks: every timed call is one attempted operation.
    out.attempted = calls.len() as u64;
    let reference = memdisk_reference(algo, &store)?;
    let reference_bits = fingerprint(&reference);
    for (k, call) in calls.iter().enumerate() {
        if call.len != reference.len() || call.bits != reference_bits {
            out.fail(format!(
                "call {k}: bits differ from the 1-thread SPU run on a MemDisk copy"
            ));
        } else if call.stats.strategy != spec.strategy {
            out.fail(format!(
                "call {k}: ran {:?}, asked for {:?}",
                call.stats.strategy, spec.strategy
            ));
        }
    }
    if reference.len() != want.len() || !reference.iter().zip(&want).all(|(g, w)| A::agrees(g, w)) {
        out.fail("result disagrees with core::reference");
    }
    store::check_faults(&mut out, g.disk().as_ref(), 0, false);
    Ok(out)
}

/// `run_tasks` of 64 no-op tasks at `threads`: what one pool batch costs.
fn dispatch_us(threads: usize) -> f64 {
    let mut samples = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let tasks: Vec<u32> = (0..64).collect();
        let at = Instant::now();
        run_tasks(threads, tasks, |t| {
            std::hint::black_box(t);
        });
        samples.push(at.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Table II parameters read off the store: `Be` is the on-disk bytes per
/// edge, `d` the mean in-degree of destinations inside one sub-shard.
fn io_params(g: &PreparedGraph) -> EngineResult<IoParams> {
    let p = g.num_intervals();
    let (mut edges, mut dsts) = (0u64, 0u64);
    for i in 0..p {
        for j in 0..p {
            let ss = g.load_subshard_view(i, j, false)?;
            edges += ss.num_edges() as u64;
            dsts += ss.num_dsts() as u64;
        }
    }
    Ok(IoParams {
        n: g.num_vertices() as f64,
        m: g.num_edges() as f64,
        ba: 8.0,
        bv: 4.0,
        be: g.total_subshard_bytes()? as f64 / g.num_edges() as f64,
        d: edges as f64 / dsts.max(1) as f64,
    })
}

fn ratio(measured: f64, predicted: f64) -> f64 {
    if predicted > 0.0 {
        measured / predicted
    } else {
        0.0
    }
}

fn traced<A: Analytic>(spec: &Spec, algo: &A, args: &RunArgs) -> Res<RunResult> {
    let mut out = RunResult::default();
    let mut store = spec.setup(args, true)?;
    let setup_rss_mib = host::peak_rss_mib() - store.ram_disk_mib();
    let edges_in = std::mem::take(&mut store.raw).len();
    let setup = store.times;
    let g = &store.graph;
    let n = g.num_vertices() as u64;
    let size = Value::<A>::SIZE;
    let budget = spec.budget_bytes(n, size);
    let threads = host::engine_threads();

    store::set_prep_metrics(&mut out, g, edges_in, &setup, setup_rss_mib);
    out.set("dsss.open_ms", setup.open_s * 1e3, 1);
    out.set("manifest.bytes", g.manifest().to_text().len() as f64, 1);

    // The engine from outside, at the workload's threads and at one.
    let cfg = spec.engine_cfg(threads, n, size);
    let paced = store.paced.as_deref();
    host::trim_heap();
    host::reset_peak_rss();
    if spec.warmup {
        timed_call(algo, g, paced, &cfg)?;
    }
    let short = Duration::from_secs(if args.quick { 0 } else { 3 });
    let calls = timed_calls(algo, g, paced, &cfg, short, 1)?;
    out.set(
        "engine.peak_rss_mb",
        host::peak_rss_mib() - store.ram_disk_mib(),
        1,
    );
    let calls_t1 = timed_calls(algo, g, paced, &spec.engine_cfg(1, n, size), short, 1)?;
    let last = calls.last().expect("at least one call");
    let iters = last.stats.iterations as f64;
    let run_s = median(&calls.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let run_s_t1 = median(&calls_t1.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let k = calls.len() as u64;
    out.set("engine.iter_s", run_s / iters, k);
    out.set("engine.iter_s_t1", run_s_t1 / iters, calls_t1.len() as u64);
    out.set("engine.parallel_speedup", run_s_t1 / run_s, k);
    out.set("engine.per_iter_fixed_ms", run_s / iters * 1e3, k);
    out.set(
        "engine.mteps",
        last.stats.edges_traversed as f64 / 1e6 / run_s,
        k,
    );
    out.set("engine.iterations", iters, 1);
    out.set(
        "engine.edges_traversed",
        last.stats.edges_traversed as f64,
        1,
    );
    out.set(
        "disk.read_bytes_per_iter",
        last.stats.io.read_bytes as f64 / iters,
        1,
    );
    out.set(
        "disk.write_bytes_per_iter",
        last.stats.io.written_bytes as f64 / iters,
        1,
    );
    out.set(
        "disk.read_calls_per_iter",
        last.profile.read_syscalls as f64 / iters,
        1,
    );
    out.set("disk.opens_per_iter", last.profile.opens as f64 / iters, 1);
    out.set("disk.seeks_per_iter", last.seeks as f64 / iters, 1);
    // What the emulated device charges: read bytes at its bandwidth plus
    // the backward seeks (PacedDisk leaves writes unpaced).
    let floor_s = DeviceProfile::HDD
        .modeled_time(&IoSnapshot {
            read_bytes: last.stats.io.read_bytes,
            seeks: last.seeks,
            ..IoSnapshot::default()
        })
        .as_secs_f64()
        / iters;
    out.set("disk.device_floor_s_per_iter", floor_s, 1);
    if spec.paced {
        // The same store without the pacing wrapper gives the compute side.
        let unpaced = PreparedGraph::open(Arc::clone(&store.base))?;
        let free = timed_calls(algo, &unpaced, None, &cfg, short, 1)?;
        let free_s = median(&free.iter().map(|c| c.wall_s).collect::<Vec<_>>()) / iters;
        let hidden = floor_s + free_s - run_s / iters;
        out.set(
            "engine.io_overlap_share",
            hidden / floor_s.min(free_s),
            free.len() as u64,
        );
    }

    // The layer walk: once untimed (pool buffers, first-load checksums and
    // allocator growth happen here, not in a timed walk), then in pairs —
    // span recording on and off, alternating which goes first — until
    // `WALK_PAIRS_BUDGET` has passed. The first traced walk's spans are kept.
    let prog = algo.prog(g);
    let cap = algo.max_iterations(g);
    let mut timed_walk = |label: &str, tr: &mut Tracer| -> Res<(f64, WalkOutput<Value<A>>)> {
        let at = Instant::now();
        let w = walk(g, &prog, spec.strategy, budget, cap, tr)?;
        let seconds = at.elapsed().as_secs_f64();
        out.attempted += 1;
        let same_bits = w.values.len() == last.len && fingerprint(&w.values) == last.bits;
        let same_work = w.iterations == last.stats.iterations
            && w.edges_traversed == last.stats.edges_traversed;
        if !same_bits || !same_work {
            out.fail(format!(
                "{label} layer walk is not bitwise equal to engine::run"
            ));
        }
        Ok((seconds, w))
    };
    let (_, walked) = timed_walk("warm-up", &mut Tracer::new(false))?;
    let pairs_budget = if args.quick {
        Duration::ZERO
    } else {
        WALK_PAIRS_BUDGET
    };
    let mut tracer = Tracer::new(true);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let pairs_start = Instant::now();
    while on_s.is_empty() || (on_s.len() < MAX_WALK_PAIRS && pairs_start.elapsed() < pairs_budget) {
        let mut scratch = Tracer::new(true);
        let traced_tr = if on_s.is_empty() {
            &mut tracer
        } else {
            &mut scratch
        };
        if on_s.len() % 2 == 0 {
            on_s.push(timed_walk("traced", traced_tr)?.0);
            off_s.push(timed_walk("untraced", &mut Tracer::new(false))?.0);
        } else {
            off_s.push(timed_walk("untraced", &mut Tracer::new(false))?.0);
            on_s.push(timed_walk("traced", traced_tr)?.0);
        }
    }
    let pairs = on_s.len() as u64;
    let walk_off_s = median(&off_s);
    let spans = tracer.into_spans();
    let layers = span::by_layer(&spans);
    let walk_iters = walked.iterations as f64;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mut per_iter = |metric: &'static str, span_name: &str| {
        let l = layer(span_name);
        out.set(metric, l.self_s() / walk_iters, l.count);
    };
    per_iter("disk.read_s_per_iter", "disk.read");
    per_iter("format.checksum_s_per_iter", "format.verify");
    per_iter("dsss.decode_s_per_iter", "dsss.decode");
    per_iter("dsss.hub_write_s_per_iter", "dsss.hub_write");
    per_iter("dsss.hub_read_s_per_iter", "dsss.hub_read");
    per_iter("dsss.interval_rw_s_per_iter", "dsss.interval_rw");
    per_iter("kernel.absorb_s_per_iter", "kernel.absorb");
    per_iter("state.finalize_s_per_iter", "state.finalize");
    per_iter("state.hub_compact_s_per_iter", "state.hub_compact");
    per_iter("state.hub_merge_s_per_iter", "state.hub_merge");
    let rate = |l: LayerTotal, unit: f64| ratio(l.amount as f64 / unit, l.self_s());
    out.set(
        "disk.read_mb_per_s",
        rate(layer("disk.read"), 1e6),
        layer("disk.read").count,
    );
    out.set(
        "format.checksum_gb_per_s",
        rate(layer("format.verify"), 1e9),
        layer("format.verify").count,
    );
    out.set(
        "dsss.decode_medges_per_s",
        rate(layer("dsss.decode"), 1e6),
        layer("dsss.decode").count,
    );
    out.set(
        "kernel.absorb_medges_per_s",
        rate(layer("kernel.absorb"), 1e6),
        layer("kernel.absorb").count,
    );
    out.set(
        "dsss.hub_bytes_per_iter",
        layer("dsss.hub_read").amount as f64 / walk_iters,
        layer("dsss.hub_read").count,
    );
    out.set("engine.walk_iter_s", walk_off_s / walk_iters, pairs);
    out.set(
        "engine.unattributed_share",
        1.0 - (walk_off_s / walk_iters) / (run_s_t1 / iters),
        pairs,
    );
    out.set("trace.spans", spans.len() as f64, 1);
    // As the issue defines it: the traced walk's time over the untraced
    // walk's, less one; the median over the alternating pairs. Two identical
    // walks differ by a few percent here, so with the one pair a slow walk
    // affords this reads as noise around the true cost — which is what
    // `trace.span_cost_share` (spans × the measured cost of one span ÷ the
    // untraced walk) is reported beside it for.
    let overhead: Vec<f64> = on_s
        .iter()
        .zip(&off_s)
        .map(|(on, off)| on / off - 1.0)
        .collect();
    out.set("trace.overhead_share", median(&overhead), pairs);
    out.set(
        "trace.span_cost_share",
        store::span_cost_s() * spans.len() as f64 / walk_off_s,
        1,
    );
    span::write_jsonl(
        &out_dir().join(format!("trace-{}.jsonl", spec.name)),
        spec.name,
        &spans,
    )?;

    out.set("parallel.dispatch_us", dispatch_us(threads), 1000);
    let cache_budget = match spec.strategy {
        Strategy::Spu => budget.saturating_sub(2 * n * size as u64 + 4 * n),
        Strategy::Mpu => {
            nxgraph_core::engine::choose_strategy(n, P, size, budget)
                .1
                .shard_cache_bytes
        }
        _ => 0,
    };
    let mut shards = ShardStore::new(g);
    shards.plan_cache(cache_budget, Direction::Forward)?;
    out.set(
        "engine.cached_share",
        shards.cached_count() as f64 / (P * P) as f64,
        1,
    );
    if shards.cached_count() != walked.cached_cells {
        out.fail(format!(
            "the walk kept {} cells resident, ShardStore {}",
            walked.cached_cells,
            shards.cached_count()
        ));
    }
    drop(shards);

    if A::IS_PAGERANK {
        let params = io_params(g)?;
        // The model's B_M is the interval budget, net of the degree table.
        let bm = (budget as f64 - 4.0 * params.n).max(0.0);
        let (read, write) = match spec.strategy {
            Strategy::Spu => (
                iomodel::spu_read(&params, bm),
                iomodel::spu_write(&params, bm),
            ),
            Strategy::Dpu => (
                iomodel::dpu_read(&params, bm),
                iomodel::dpu_write(&params, bm),
            ),
            _ => (
                iomodel::mpu_read(&params, bm),
                iomodel::mpu_write(&params, bm),
            ),
        };
        out.set(
            "iomodel.read_ratio",
            ratio(last.stats.io.read_bytes as f64 / iters, read),
            1,
        );
        out.set(
            "iomodel.write_ratio",
            ratio(last.stats.io.written_bytes as f64 / iters, write),
            1,
        );
    }

    store::check_faults(&mut out, g.disk().as_ref(), 0, true);
    Ok(out)
}
