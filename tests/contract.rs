//! The bitwise contract, explored pairwise.
//!
//! NXgraph may run a program under SPU, DPU or MPU (§III-B) only because
//! all three compute the same values. This file checks that contract over
//! nine axes at once, on a fixed list of cells that covers every pair of
//! axis values. Each cell must match, bit for bit, the same algorithm run
//! on a fresh raw `MemDisk` preparation of the cell's edge set at the same
//! `P` and residency, on one thread and without faults (iteration and
//! traversed-edge counts included); and it must agree with the
//! `core::reference` oracle, exactly for integer programs and within 1e-9
//! for f64 ones. A failing cell panics with one line naming its index and
//! all nine values.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nxgraph::core::algo::{
    self, kcore::KCore, sssp, Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc,
};
use nxgraph::core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph::core::engine::{self, EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::{reference, GraphService, PreparedGraph, ServeConfig, VertexProgram};
use nxgraph::graphgen::{er, mesh, rmat};
use nxgraph::storage::{Disk, EncodingPolicy, FaultDisk, FaultPlan, MemDisk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine axes and their values.
///
/// * residency: `Auto` at an unlimited budget (SPU, every sub-shard
///   cached), `Spu` at budget 0 (SPU, every sub-shard streamed), `Mpu` at
///   `Q = 1`, `Auto` at half the value pair (MPU), `Mpu` at `Q = P − 1`,
///   and `Dpu`;
/// * threads: 1 runs the read pipeline inline, more run it on the ring;
/// * history: fresh prep; six 40-edge batches left as delta chains; the
///   same, then `compact()`; or folded by background maintenance as they
///   arrive (`max_deltas` 2);
/// * faults: the whole store on a `FaultDisk` with a plan seeded by the
///   cell index;
/// * reader: the owner, or a `GraphService` snapshot pinned before the last
///   three batches, which then commit and are compacted under it.
#[rustfmt::skip]
const AXES: [(&str, &[&str]); 9] = [
    ("algo", &["pagerank", "ppr", "hits", "bfs", "sssp", "wcc", "scc", "kcore"]),
    ("graph", &["rmat", "er", "mesh"]),
    ("P", &["1", "3", "5", "8"]),
    ("residency", &["spu-cached", "spu-streamed", "mpu-q1", "auto-half", "mpu-q-p-1", "dpu"]),
    ("threads", &["1", "2", "3", "8"]),
    ("encoding", &["raw", "auto", "compressed"]),
    ("history", &["fresh", "chained", "compacted", "background"]),
    ("faults", &["clean", "seeded"]),
    ("reader", &["owner", "pinned"]),
];

/// One value index per axis.
type Cell = [usize; 9];
/// A pair of axis values, `(a, value of a, b, value of b)` with `a < b`.
type Pair = (usize, usize, usize, usize);

fn pairs(c: &Cell) -> impl Iterator<Item = Pair> + '_ {
    (0..9).flat_map(move |a| (a + 1..9).map(move |b| (a, c[a], b, c[b])))
}

/// Every pair of values of two different axes.
fn all_pairs() -> BTreeSet<Pair> {
    let mut all = BTreeSet::new();
    for (a, b) in (0..9).flat_map(|a| (a + 1..9).map(move |b| (a, b))) {
        for (u, v) in (0..AXES[a].1.len()).flat_map(|u| (0..AXES[b].1.len()).map(move |v| (u, v))) {
            all.insert((a, u, b, v));
        }
    }
    all
}

/// The fixed cell list, built greedily: while a pair of axis values is
/// uncovered, start a cell from the least such pair and give each other
/// axis in turn the value that covers the most uncovered pairs with the
/// axes already set (on a tie, the value the fewest cells have, then the
/// lowest).
fn cells() -> Vec<Cell> {
    let mut uncovered = all_pairs();
    let mut out: Vec<Cell> = Vec::new();
    while let Some(&(a, u, b, v)) = uncovered.first() {
        let mut cell = [None; 9];
        (cell[a], cell[b]) = (Some(u), Some(v));
        for x in 0..9 {
            if cell[x].is_some() {
                continue;
            }
            let gain = |v: usize| {
                let set = (0..9).filter_map(|y| cell[y].map(|w| (y, w)));
                let pair = |(y, w)| if x < y { (x, v, y, w) } else { (y, w, x, v) };
                set.filter(|&yw| uncovered.contains(&pair(yw))).count()
            };
            let uses = |v: usize| out.iter().filter(|c| c[x] == v).count();
            cell[x] = (0..AXES[x].1.len()).min_by_key(|&v| (Reverse(gain(v)), uses(v), v));
        }
        let cell = cell.map(|v| v.expect("every axis set"));
        for pair in pairs(&cell) {
            uncovered.remove(&pair);
        }
        out.push(cell);
    }
    out
}

/// The cell's value on each axis.
fn values(c: &Cell) -> [&'static str; 9] {
    std::array::from_fn(|a| AXES[a].1[c[a]])
}

/// A graph's base edges and six 40-edge batches between its known
/// vertices, both symmetrised for k-core.
struct Edges {
    base: Vec<(u64, u64)>,
    batches: Vec<Vec<(u64, u64)>>,
}

fn edges(graph: &str, symmetric: bool) -> Edges {
    let raw = match graph {
        "rmat" => rmat::generate(&rmat::RmatConfig::graph500(8, 6, 41)),
        "er" => er::generate(250, 900, 42),
        _ => mesh::generate(&mesh::MeshConfig { rows: 16, cols: 16 }),
    };
    let base: Vec<(u64, u64)> = raw.into_iter().map(|e| (e.src, e.dst)).collect();
    let known = ids(&base);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut pick = || known[rng.random_range(0..known.len())];
    let batches: Vec<Vec<_>> = (0..6)
        .map(|_| (0..40).map(|_| (pick(), pick())).collect())
        .collect();
    let sym = |e: Vec<(u64, u64)>| match symmetric {
        true => e.into_iter().flat_map(|(s, d)| [(s, d), (d, s)]).collect(),
        false => e,
    };
    let batches = batches.into_iter().map(sym).collect();
    Edges {
        base: sym(base),
        batches,
    }
}

/// The sorted distinct vertex indices: degreeing numbers them in this order.
fn ids(edges: &[(u64, u64)]) -> Vec<u64> {
    let mut ids: Vec<u64> = edges.iter().flat_map(|&(s, d)| [s, d]).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn config(algo: &str, residency: &str, n: u64, p: u64, threads: usize) -> EngineConfig {
    let ba = match algo {
        "bfs" | "wcc" | "scc" | "kcore" => 4,
        _ => 8,
    };
    // `budget_for_q` of the `engine::mpu` tests.
    let q = |q: u64| 4 * n + 2 * n * ba * q / p + 1;
    let (strategy, budget) = match residency {
        "spu-cached" => (Strategy::Auto, u64::MAX),
        "spu-streamed" => (Strategy::Spu, 0),
        "mpu-q1" => (Strategy::Mpu, q(1)),
        "auto-half" => (Strategy::Auto, 4 * n + n * ba),
        "mpu-q-p-1" => (Strategy::Mpu, q(p - 1)),
        _ => (Strategy::Dpu, 0),
    };
    let cfg = EngineConfig::default().with_strategy(strategy);
    cfg.with_budget(budget).with_threads(threads)
}

/// A run's values as bits, its iterations, and its traversed edges where
/// the algorithm reports them.
type Output = (Vec<u64>, usize, Option<u64>);

fn run(algo: &str, g: &PreparedGraph, cfg: &EngineConfig) -> Output {
    fn single<P: VertexProgram>(
        g: &PreparedGraph,
        prog: &P,
        cfg: EngineConfig,
        bits: fn(&P::Value) -> u64,
    ) -> Output {
        let (vals, stats) = engine::run(g, prog, &cfg).unwrap();
        let bits = vals.iter().map(bits).collect();
        (bits, stats.iterations, Some(stats.edges_traversed))
    }
    let f: fn(&f64) -> u64 = |v| v.to_bits();
    let u: fn(&u32) -> u64 = |&v| v.into();
    let n = g.num_vertices();
    let (cfg, long) = (cfg.clone(), cfg.clone().with_max_iterations(n as usize + 1));
    let degrees = Arc::clone(g.out_degrees());
    match algo {
        "pagerank" => single(g, &PageRank::new(n, degrees), cfg.with_max_iterations(6), f),
        "ppr" => single(
            g,
            &PersonalizedPageRank::new([0, 3], degrees),
            cfg.with_max_iterations(8),
            f,
        ),
        "hits" => {
            let out = algo::hits(g, 6, &cfg).unwrap();
            (
                out.authorities.iter().chain(&out.hubs).map(f).collect(),
                out.iterations,
                None,
            )
        }
        "bfs" => single(g, &Bfs::new(0), long, u),
        "sssp" => single(g, &Sssp::new(0, sssp::hash_weights(0.5, 2.5)), long, f),
        "wcc" => single(g, &Wcc, long, u),
        "scc" => {
            let out = algo::scc(g, &cfg).unwrap();
            (
                out.labels.iter().map(u).collect(),
                out.iterations,
                Some(out.edges_traversed),
            )
        }
        _ => single(g, &KCore::new(3), long, u),
    }
}

/// The `core::reference` verdict on a run's bits over `edges`.
fn oracle(algo: &str, g: &PreparedGraph, edges: &[(u64, u64)], bits: &[u64]) {
    let known = ids(edges);
    let id = |x: u64| known.binary_search(&x).unwrap() as u32;
    let dense: Vec<(u32, u32)> = edges.iter().map(|&(s, d)| (id(s), id(d))).collect();
    let (n, degrees) = (g.num_vertices(), g.out_degrees().as_slice());
    let exact = |want: Vec<u32>| {
        assert_eq!(bits.len(), want.len(), "oracle: vertex count");
        for (v, (&b, w)) in bits.iter().zip(&want).enumerate() {
            assert_eq!(b, u64::from(*w), "oracle: vertex {v}");
        }
    };
    let close = |want: Vec<f64>| {
        assert_eq!(bits.len(), want.len(), "oracle: vertex count");
        for (v, (&b, w)) in bits.iter().zip(&want).enumerate() {
            let a = f64::from_bits(b);
            let ok = if w.is_finite() {
                (a - w).abs() < 1e-9
            } else {
                !a.is_finite()
            };
            assert!(ok, "oracle: vertex {v}: {a} vs {w}");
        }
    };
    match algo {
        "pagerank" => close(reference::pagerank(n, &dense, degrees, 6)),
        "ppr" => close(reference::ppr(n, &dense, &[0, 3], degrees, 8)),
        "hits" => {
            let (authorities, hubs) = reference::hits(n, &dense, 6);
            close([authorities, hubs].concat())
        }
        "bfs" => exact(reference::bfs(n, &dense, 0)),
        "sssp" => {
            let w = sssp::hash_weights(0.5, 2.5);
            close(reference::sssp(n, &dense, 0, |s, d| w(s, d)))
        }
        "wcc" => exact(reference::wcc(n, &dense)),
        "scc" => exact(reference::scc(n, &dense)),
        _ => exact(reference::kcore(n, &dense, 3)),
    }
}

/// Faults injected, retries issued and retries given up, over the cells run.
#[derive(Default)]
struct Faults {
    cells: usize,
    injected: u64,
    retries: u64,
    giveups: u64,
}

/// Build cell `k`'s store, bring it through its history, run the algorithm
/// as owner or through a pinned snapshot, and check the run.
fn run_cell(k: usize, c: &Cell, faults: &mut Faults) {
    let [algo, graph, p, residency, threads, encoding, history, faulted, reader] = values(c);
    let (p, pinned) = (p.parse().unwrap(), reader == "pinned");
    let w = edges(graph, algo == "kcore");
    let fault_disk = (faulted == "seeded").then(|| {
        let plan = FaultPlan::seeded(k as u64);
        Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), plan))
    });
    let disk: Arc<dyn Disk> = match &fault_disk {
        Some(fd) => Arc::clone(fd) as Arc<dyn Disk>,
        None => Arc::new(MemDisk::new()),
    };
    let encoding = match encoding {
        "raw" => EncodingPolicy::Raw,
        "auto" => EncodingPolicy::Auto,
        _ => EncodingPolicy::Compressed,
    };
    let prep = PrepConfig::new("contract", p).with_encoding(encoding);
    let g = preprocess(&w.base, &prep, disk).unwrap();
    // The batches committed before the owner runs, or before the pin.
    let before = match (history, pinned) {
        ("fresh", _) => 0,
        (_, false) => 6,
        (_, true) => 3,
    };
    let edge_set: Vec<(u64, u64)> = w
        .base
        .iter()
        .chain(w.batches[..before].iter().flatten())
        .copied()
        .collect();
    let check = |g: &PreparedGraph| {
        let pending = g
            .manifest()
            .chains()
            .unwrap()
            .iter()
            .any(|c| c.3.deltas > 0);
        if history != "background" {
            assert_eq!(pending, history == "chained", "pending delta chains");
        }
        let n = g.num_vertices() as u64;
        let cfg = config(algo, residency, n, p as u64, threads.parse().unwrap());
        let (bits, iterations, edges) = run(algo, g, &cfg);
        let fresh = preprocess(
            &edge_set,
            &PrepConfig::new("reference", p),
            Arc::new(MemDisk::new()),
        );
        let want = run(algo, &fresh.unwrap(), &cfg.with_threads(1));
        let differs = |v: &usize| bits.get(*v) != want.0.get(*v);
        if let Some(v) = (0..bits.len().max(want.0.len())).find(differs) {
            panic!(
                "word {v}: {:?} vs reference {:?}",
                bits.get(v),
                want.0.get(v)
            );
        }
        assert_eq!(
            (iterations, edges),
            (want.1, want.2),
            "(iterations, edges traversed)"
        );
        oracle(algo, g, &edge_set, &bits);
    };
    if history == "fresh" && !pinned {
        check(&g);
    } else {
        let config = match history {
            "background" => DynamicConfig {
                max_deltas: 2,
                max_delta_ratio: f64::INFINITY,
                ..DynamicConfig::background()
            },
            _ => DynamicConfig::never_compact(),
        };
        let mut dg = DynamicGraph::with_config(g, config).unwrap();
        for batch in &w.batches[..before] {
            assert!(!dg.add_edges(batch).unwrap().rebuilt);
        }
        match history {
            "compacted" => assert!(dg.compact().unwrap().cells_folded > 0),
            "background" => dg.wait_maintenance_idle().unwrap(),
            _ => {}
        }
        let maintenance = |dg: &DynamicGraph| dg.maintenance().map(|m| (m.stats(), m.last_scrub()));
        let maint = if pinned {
            let svc = GraphService::new(dg, ServeConfig::default()).unwrap();
            let snap = svc.snapshot().unwrap();
            for batch in &w.batches[3..] {
                svc.add_edges(batch).unwrap();
            }
            let maint = svc.with_writer(|dg| {
                dg.wait_maintenance_idle().unwrap();
                dg.compact().unwrap();
                maintenance(dg)
            });
            assert!(snap.lag() > 0, "the pinned snapshot does not lag");
            check(snap.graph());
            maint
        } else {
            check(dg.graph());
            maintenance(&dg)
        };
        if let Some((stats, scrub)) = maint {
            assert!(
                stats.cells_folded > 0 && stats.scrubs > 0,
                "maintenance: {stats:?}"
            );
            assert!(scrub.is_some_and(|s| s.is_clean()), "last scrub not clean");
        }
    }
    if let Some(fd) = fault_disk {
        let profile = fd.io_profile().unwrap().snapshot();
        assert_eq!(
            profile.injected_faults,
            fd.injections(),
            "uncounted injections"
        );
        faults.cells += 1;
        faults.injected += fd.injections();
        faults.retries += profile.retries;
        faults.giveups += profile.giveups;
    }
}

/// Run the cells `keep` selects by index and value, turning a failure into
/// a one-line repro.
fn run_cells(keep: impl Fn(usize, [&str; 9]) -> bool) -> Faults {
    let mut faults = Faults::default();
    for (k, c) in cells()
        .iter()
        .enumerate()
        .filter(|&(k, c)| keep(k, values(c)))
    {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| run_cell(k, c, &mut faults))) {
            let msg = e.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or(e.downcast_ref::<&str>().copied()).unwrap_or("panic");
            let axes = AXES
                .iter()
                .zip(values(c))
                .map(|((axis, _), v)| format!(" {axis}={v}"));
            panic!(
                "cell {k}:{}: {}",
                axes.collect::<String>(),
                msg.replace('\n', " ")
            );
        }
    }
    faults
}

#[test]
fn cells_cover_every_pair() {
    let cells = cells();
    let covered: BTreeSet<Pair> = cells.iter().flat_map(pairs).collect();
    let all = all_pairs();
    let n = (cells.len(), covered.len(), all.len());
    println!("contract: cells={} pairs={}/{}", n.0, n.1, n.2);
    assert_eq!(covered, all, "uncovered pairs");
}

#[test]
fn clean_cells_even() {
    run_cells(|k, v| v[7] == "clean" && k % 2 == 0);
}

#[test]
fn clean_cells_odd() {
    run_cells(|k, v| v[7] == "clean" && k % 2 == 1);
}

/// Seeded plans fault only streamed reads, in episodes shorter than the
/// retry budget: every faulted cell must recover through retries, to the
/// bits of its fault-free reference.
#[test]
fn seeded_fault_cells_recover_bitwise() {
    let f = run_cells(|_, v| v[7] == "seeded");
    assert!(
        f.injected > 0 && f.retries > 0,
        "no fault recovered by retry"
    );
    assert_eq!(f.giveups, 0);
    println!(
        "contract-faults: cells={} injected={} retries={} giveups={} identical=true",
        f.cells, f.injected, f.retries, f.giveups
    );
}
