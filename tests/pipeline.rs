//! End-to-end pipeline tests: generate → preprocess → run every engine →
//! compare against the in-memory oracles.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use nxgraph::core::algo::{self, pagerank::PageRank, ppr::PersonalizedPageRank, sssp};
use nxgraph::core::engine::{self, choose_strategy, EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::reference;
use nxgraph::core::PreparedGraph;
use nxgraph::graphgen::{er, rmat};
use nxgraph::storage::{AlignedBuf, Disk, DiskWrite, EncodingPolicy, MemDisk, StorageResult};

fn prepare(raw: &[(u64, u64)], p: u32) -> PreparedGraph {
    prepare_enc(raw, p, EncodingPolicy::Raw)
}

fn prepare_enc(raw: &[(u64, u64)], p: u32, encoding: EncodingPolicy) -> PreparedGraph {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let cfg = PrepConfig::new("pipeline", p).with_encoding(encoding);
    preprocess(raw, &cfg, disk).unwrap()
}

fn dense_edges(g: &PreparedGraph, raw: &[(u64, u64)]) -> Vec<(u32, u32)> {
    // Degreeing assigns ids by ascending index; recompute the mapping.
    let mut idx: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
    idx.sort_unstable();
    idx.dedup();
    assert_eq!(idx.len(), g.num_vertices() as usize);
    raw.iter()
        .map(|&(s, d)| {
            (
                idx.binary_search(&s).unwrap() as u32,
                idx.binary_search(&d).unwrap() as u32,
            )
        })
        .collect()
}

fn rmat_raw(scale: u32, ef: u32, seed: u64) -> Vec<(u64, u64)> {
    rmat::generate(&rmat::RmatConfig::graph500(scale, ef, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect()
}

#[test]
fn all_strategies_agree_on_pagerank() {
    let raw = rmat_raw(9, 8, 11);
    let g = prepare(&raw, 6);
    let edges = dense_edges(&g, &raw);
    let expect = reference::pagerank(g.num_vertices(), &edges, g.out_degrees(), 10);

    // MPU budget forcing half-resident intervals.
    let n = g.num_vertices() as u64;
    let mpu_budget = 4 * n + n * 8;

    for (strategy, budget) in [
        (Strategy::Spu, u64::MAX),
        (Strategy::Dpu, 0),
        (Strategy::Mpu, mpu_budget),
        (Strategy::Auto, u64::MAX),
        (Strategy::Auto, mpu_budget),
        (Strategy::Auto, 0),
    ] {
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_budget(budget)
            .with_max_iterations(10);
        let (vals, stats) = algo::pagerank(&g, 10, &cfg).unwrap();
        assert_eq!(stats.iterations, 10);
        for (v, (a, b)) in vals.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "{strategy:?} budget {budget}: vertex {v}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn auto_strategy_resolves_as_documented() {
    let raw = rmat_raw(8, 6, 3);
    let g = prepare(&raw, 4);
    let n = g.num_vertices() as u64;
    let cases = [
        (u64::MAX, Strategy::Spu),
        (4 * n + n * 8, Strategy::Mpu),
        // The degree table alone eats a 4n budget: still DPU.
        (4 * n, Strategy::Dpu),
        (0, Strategy::Dpu),
    ];
    for (budget, want) in cases {
        let cfg = EngineConfig::default()
            .with_budget(budget)
            .with_max_iterations(2);
        let (_, stats) = algo::pagerank(&g, 2, &cfg).unwrap();
        assert_eq!(stats.strategy, want, "budget {budget}");
    }
}

#[test]
fn bfs_matches_oracle_across_strategies() {
    let raw = rmat_raw(9, 4, 7);
    let g = prepare(&raw, 5);
    let edges = dense_edges(&g, &raw);
    let expect = reference::bfs(g.num_vertices(), &edges, 0);
    let n = g.num_vertices() as u64;
    for (strategy, budget) in [
        (Strategy::Spu, u64::MAX),
        (Strategy::Dpu, 0),
        (Strategy::Mpu, 4 * n + n * 4),
    ] {
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_budget(budget);
        let (depths, _) = algo::bfs(&g, 0, &cfg).unwrap();
        assert_eq!(depths, expect, "{strategy:?}");
    }
}

#[test]
fn wcc_matches_union_find() {
    let raw = er::generate(300, 500, 13)
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect::<Vec<_>>();
    let g = prepare(&raw, 7);
    let edges = dense_edges(&g, &raw);
    let expect = reference::wcc(g.num_vertices(), &edges);
    for strategy in [Strategy::Spu, Strategy::Dpu] {
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_budget(if strategy == Strategy::Dpu { 0 } else { u64::MAX });
        let (labels, _) = algo::wcc(&g, &cfg).unwrap();
        assert_eq!(labels, expect, "{strategy:?}");
    }
}

#[test]
fn scc_matches_tarjan() {
    let raw = rmat_raw(8, 3, 19);
    let g = prepare(&raw, 5);
    let edges = dense_edges(&g, &raw);
    let expect = reference::scc(g.num_vertices(), &edges);
    let out = algo::scc(&g, &EngineConfig::default()).unwrap();
    assert_eq!(out.labels, expect);
}

#[test]
fn results_invariant_to_partitioning_and_threads() {
    let raw = rmat_raw(8, 8, 23);
    let mut baseline: Option<Vec<f64>> = None;
    for p in [1u32, 3, 8, 16] {
        let g = prepare(&raw, p);
        for threads in [1usize, 2, 8] {
            let cfg = EngineConfig::default()
                .with_threads(threads)
                .with_max_iterations(6);
            let (vals, _) = algo::pagerank(&g, 6, &cfg).unwrap();
            match &baseline {
                None => baseline = Some(vals),
                Some(b) => {
                    for (x, y) in vals.iter().zip(b) {
                        assert!((x - y).abs() < 1e-10, "P={p} threads={threads}");
                    }
                }
            }
        }
    }
}

#[test]
fn pagerank_converges_with_epsilon() {
    // A strongly connected cycle converges exactly; epsilon termination
    // must stop before the iteration cap.
    let raw: Vec<(u64, u64)> = (0..50u64).map(|v| (v, (v + 1) % 50)).collect();
    let g = prepare(&raw, 4);
    let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()))
        .with_epsilon(1e-14);
    let cfg = EngineConfig::default().with_max_iterations(500);
    let (vals, stats) = engine::run(&g, &prog, &cfg).unwrap();
    assert!(stats.iterations < 500, "should converge early");
    // Uniform stationary distribution on a cycle.
    for v in &vals {
        assert!((v - 1.0 / 50.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Full oracle matrix: every algorithm × {SPU, DPU, MPU}, on an R-MAT and
// an Erdős–Rényi graph, validated against the `reference` oracles.
// ---------------------------------------------------------------------------

/// A named matrix workload: prepared graph plus its dense edge list.
type MatrixGraph = (&'static str, PreparedGraph, Vec<(u32, u32)>);

/// The two workload graphs of the matrix, with their dense edge lists.
fn matrix_graphs() -> Vec<MatrixGraph> {
    let rmat = rmat_raw(8, 6, 41);
    let er: Vec<(u64, u64)> = er::generate(250, 900, 42)
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    [("rmat", rmat), ("er", er)]
        .into_iter()
        .map(|(name, raw)| {
            let g = prepare(&raw, 5);
            let edges = dense_edges(&g, &raw);
            (name, g, edges)
        })
        .collect()
}

/// Explicit SPU, DPU and MPU configs. `value_size` is the algorithm's
/// per-vertex attribute width, which sets the half-resident MPU budget.
fn matrix_configs(n: u64, value_size: u64) -> Vec<(String, EngineConfig)> {
    [
        (Strategy::Spu, u64::MAX),
        (Strategy::Dpu, 0),
        (Strategy::Mpu, 4 * n + n * value_size),
    ]
    .into_iter()
    .map(|(strategy, budget)| {
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_budget(budget)
            .with_threads(3);
        (format!("{strategy:?}"), cfg)
    })
    .collect()
}

fn assert_close(got: &[f64], want: &[f64], tol: f64, label: &str) {
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        if b.is_finite() {
            assert!((a - b).abs() < tol, "{label}: vertex {v}: {a} vs {b}");
        } else {
            assert!(!a.is_finite(), "{label}: vertex {v}: {a} vs {b}");
        }
    }
}

#[test]
fn matrix_pagerank_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let expect = reference::pagerank(g.num_vertices(), &edges, g.out_degrees(), 6);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 8) {
            let (vals, _) = algo::pagerank(&g, 6, &cfg.with_max_iterations(6)).unwrap();
            assert_close(&vals, &expect, 1e-9, &format!("{gname}/{cname}"));
        }
    }
}

#[test]
fn matrix_bfs_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let expect = reference::bfs(g.num_vertices(), &edges, 0);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 4) {
            let (depths, _) = algo::bfs(&g, 0, &cfg).unwrap();
            assert_eq!(depths, expect, "{gname}/{cname}");
        }
    }
}

#[test]
fn matrix_sssp_matches_oracle() {
    let w = sssp::hash_weights(0.5, 2.5);
    for (gname, g, edges) in matrix_graphs() {
        let expect = reference::sssp(g.num_vertices(), &edges, 0, |s, d| w(s, d));
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 8) {
            let prog = algo::Sssp::new(0, Arc::clone(&w));
            let cfg = cfg.with_max_iterations(g.num_vertices() as usize + 1);
            let (dist, _) = engine::run(&g, &prog, &cfg).unwrap();
            assert_close(&dist, &expect, 1e-9, &format!("{gname}/{cname}"));
        }
    }
}

#[test]
fn matrix_wcc_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let expect = reference::wcc(g.num_vertices(), &edges);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 4) {
            let (labels, _) = algo::wcc(&g, &cfg).unwrap();
            assert_eq!(labels, expect, "{gname}/{cname}");
        }
    }
}

#[test]
fn matrix_scc_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let expect = reference::scc(g.num_vertices(), &edges);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 4) {
            let out = algo::scc(&g, &cfg).unwrap();
            assert_eq!(out.labels, expect, "{gname}/{cname}");
        }
    }
}

#[test]
fn matrix_kcore_matches_oracle() {
    // k-core reads the graph as undirected, so symmetrise the matrix
    // graphs before preprocessing (the paper's §II-A ingestion convention).
    for (gname, _, edges) in matrix_graphs() {
        let sym: Vec<(u64, u64)> = edges
            .iter()
            .flat_map(|&(s, d)| [(s as u64, d as u64), (d as u64, s as u64)])
            .collect();
        let g = prepare(&sym, 5);
        let dense = dense_edges(&g, &sym);
        let expect = reference::kcore(g.num_vertices(), &dense, 3);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 4) {
            let (flags, _) = algo::kcore(&g, 3, &cfg).unwrap();
            assert_eq!(flags, expect, "{gname}/{cname}");
        }
    }
}

#[test]
fn matrix_hits_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let (ea, eh) = reference::hits(g.num_vertices(), &edges, 6);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 8) {
            let out = algo::hits(&g, 6, &cfg).unwrap();
            let label = format!("{gname}/{cname}");
            assert_close(&out.authorities, &ea, 1e-9, &label);
            assert_close(&out.hubs, &eh, 1e-9, &label);
        }
    }
}

#[test]
fn matrix_ppr_matches_oracle() {
    for (gname, g, edges) in matrix_graphs() {
        let sources = [0u32, 3];
        let expect = reference::ppr(g.num_vertices(), &edges, &sources, g.out_degrees(), 8);
        for (cname, cfg) in matrix_configs(g.num_vertices() as u64, 8) {
            let prog = PersonalizedPageRank::new(sources, Arc::clone(g.out_degrees()));
            let (vals, _) = engine::run(&g, &prog, &cfg.with_max_iterations(8)).unwrap();
            assert_close(&vals, &expect, 1e-9, &format!("{gname}/{cname}"));
        }
    }
}

#[test]
fn inline_vs_ring_same_io_totals() {
    // Running ahead must not change *what* is read, only when: I/O totals
    // are byte-identical inline and on the ring, for DPU, the streaming
    // (zero-budget) SPU path, and MPU's half-resident phase B/C streams
    // (which exercise both the row sub-shard stream and the mixed
    // shard+hub column stream).
    let raw = rmat_raw(8, 4, 31);
    let n = prepare(&raw, 4).num_vertices() as u64;
    for (strategy, budget) in [
        (Strategy::Dpu, 0),
        (Strategy::Spu, 0),
        (Strategy::Mpu, 4 * n + n * 8),
    ] {
        let mut totals = Vec::new();
        for threads in [3, 1] {
            let g = prepare(&raw, 4);
            let cfg = EngineConfig::default()
                .with_strategy(strategy)
                .with_budget(budget)
                .with_threads(threads);
            let (_, stats) = algo::pagerank(&g, 3, &cfg).unwrap();
            totals.push((stats.io.read_bytes, stats.io.written_bytes));
        }
        assert_eq!(totals[0], totals[1], "{strategy:?}");
    }
}

// ---------------------------------------------------------------------------
// Encoding: the delta+varint blobs cut the counted disk traffic of the
// streamed strategies.
// ---------------------------------------------------------------------------

#[test]
fn auto_encoding_cuts_streamed_read_bytes() {
    let raw = rmat_raw(10, 8, 7);
    for (strategy, budget) in [(Strategy::Spu, 0u64), (Strategy::Dpu, 0)] {
        let mut reads = Vec::new();
        for encoding in [EncodingPolicy::Raw, EncodingPolicy::Auto] {
            let g = prepare_enc(&raw, 4, encoding);
            let cfg = EngineConfig::default()
                .with_strategy(strategy)
                .with_budget(budget);
            let (_, stats) = algo::pagerank(&g, 3, &cfg).unwrap();
            reads.push(stats.io.read_bytes as f64 / stats.iterations as f64);
        }
        let ratio = reads[0] / reads[1];
        assert!(
            ratio >= 1.5,
            "{strategy:?}: bytes/iter only dropped {ratio:.2}x ({} -> {})",
            reads[0],
            reads[1]
        );
    }
}

// ---------------------------------------------------------------------------
// Strategy::Auto regression: §III-B degradation at the budget extremes.
// ---------------------------------------------------------------------------

#[test]
fn choose_strategy_degrades_mpu_at_budget_extremes() {
    let (n, p, value_size) = (100_000u64, 16u32, 8usize);
    // Tiny budget: even the degree table does not fit → DPU.
    assert_eq!(choose_strategy(n, p, value_size, 0).0, Strategy::Dpu);
    assert_eq!(choose_strategy(n, p, value_size, 4 * n).0, Strategy::Dpu);
    // Huge budget: ping-pong intervals fully resident → SPU.
    assert_eq!(choose_strategy(n, p, value_size, u64::MAX).0, Strategy::Spu);
    let spu_floor = 4 * n + 2 * n * value_size as u64;
    assert_eq!(choose_strategy(n, p, value_size, spu_floor).0, Strategy::Spu);
    // In between, MPU — shrinking toward either end flips it over.
    let (s, plan) = choose_strategy(n, p, value_size, 4 * n + n * value_size as u64);
    assert_eq!(s, Strategy::Mpu);
    assert!(plan.resident_intervals > 0 && plan.resident_intervals < p as usize);
    // (`auto_strategy_resolves_as_documented` checks that the Auto engine
    // resolves to exactly these strategies end-to-end.)
}

#[test]
fn run_stats_account_edges_and_io() {
    let raw = rmat_raw(8, 4, 29);
    let g = prepare(&raw, 4);
    let cfg = EngineConfig::default().with_strategy(Strategy::Dpu);
    let (_, stats) = algo::pagerank(&g, 3, &cfg).unwrap();
    assert_eq!(stats.edges_traversed, g.num_edges() * 3);
    assert!(stats.io.read_bytes > 0);
    assert!(stats.io.written_bytes > 0);
    assert!(stats.mteps() > 0.0);
}

// ---------------------------------------------------------------------------
// Store bytes, pinned through prep, commit and fold.
// ---------------------------------------------------------------------------

/// Textbook byte-wise 64-bit FNV-1a over every file on `disk`, in name
/// order: each name, a zero byte, the file's bytes, another zero byte.
fn store_digest(disk: &dyn Disk) -> u64 {
    let mut names = disk.list();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in names {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&disk.read_all(&name).unwrap());
        eat(&[0]);
    }
    h
}

/// Every file the store holds is pinned, byte for byte, at three points:
/// after `preprocess`, after `preprocess_streamed` over the same dense
/// ids, and after 24 known-vertex batches through a default
/// `DynamicGraph` (inline folds) followed by `compact`. A refactor of the
/// build, merge or encode side must leave all nine digests unchanged.
#[test]
fn store_bytes_are_pinned_through_prep_commit_and_fold() {
    use nxgraph::core::dynamic::DynamicGraph;
    use nxgraph::core::prep::{degree, preprocess_streamed};

    // Per policy: after prep, after streamed prep, after the commits and
    // `compact`. A change to any writer must leave all nine as they are.
    const POLICIES: [EncodingPolicy; 3] =
        [EncodingPolicy::Raw, EncodingPolicy::Compressed, EncodingPolicy::Auto];
    const PINNED: [[u64; 3]; 3] = [
        [0x98af_8606_55d5_bb1f, 0x8acc_5e5a_a964_e863, 0xb417_814c_f1e0_951b],
        [0xa84b_8264_dd9f_3d64, 0xbff3_3a8e_6ccd_0848, 0x4bea_fb2b_d57f_87b2],
        [0x886b_37a2_a1dc_7196, 0xc043_613b_1ad1_81a6, 0x5a19_e748_3585_11e8],
    ];
    let raw = rmat_raw(10, 8, 5);
    let deg = degree(&raw);
    let n = deg.num_vertices as usize;
    let mut got = Vec::new();
    for policy in POLICIES {
        let cfg = PrepConfig::new("pinned", 4).with_encoding(policy);

        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let g = preprocess(&raw, &cfg, Arc::clone(&disk)).unwrap();
        let prepped = store_digest(disk.as_ref());

        let streamed_disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let chunks = deg.edges.chunks(1000).map(|c| c.to_vec());
        preprocess_streamed(deg.num_vertices, chunks, &cfg, Arc::clone(&streamed_disk)).unwrap();
        let streamed = store_digest(streamed_disk.as_ref());

        let mut dg = DynamicGraph::new(g).unwrap();
        let mut folded = 0;
        for k in 0..24usize {
            let batch: Vec<(u64, u64)> = (0..64usize)
                .map(|t| {
                    let s = (k * 131 + t * 17) % n;
                    let d = (t * t * 7 + k * 3) % n;
                    (deg.index_of[s], deg.index_of[d])
                })
                .collect();
            let stats = dg.add_edges(&batch).unwrap();
            assert!(!stats.rebuilt);
            folded += stats.cells_compacted;
        }
        assert!(folded > 0, "{policy:?}: no inline fold ran");
        dg.compact().unwrap();
        drop(dg);
        got.push([prepped, streamed, store_digest(disk.as_ref())]);
    }
    assert_eq!(got, PINNED, "store bytes changed: {got:#x?}");
}

// ---------------------------------------------------------------------------
// The engine's I/O schedule, pinned op by op.
// ---------------------------------------------------------------------------

/// Logs every whole-file read, write, create and remove that reaches the
/// disk below it, as `(op, name, bytes)`, in the order issued. A write of the
/// bytes its file already holds (since the last [`OpLog::reset`], judged by
/// a digest of each file's last-written bytes) is logged as `rewrite`.
struct OpLog {
    inner: Arc<dyn Disk>,
    ops: std::sync::Mutex<Vec<(&'static str, String, u64)>>,
    written: std::sync::Mutex<HashMap<String, u64>>,
    /// Every hub blob written, as `(name, stored checksum)`, in order.
    hubs: std::sync::Mutex<Vec<(String, u64)>>,
}

impl OpLog {
    fn new(inner: Arc<dyn Disk>) -> Self {
        Self {
            inner,
            ops: Default::default(),
            written: Default::default(),
            hubs: Default::default(),
        }
    }

    fn note(&self, op: &'static str, name: &str, bytes: usize) {
        self.ops.lock().unwrap().push((op, name.to_string(), bytes as u64));
    }

    /// Forget the log and the written digests: a new run starts.
    fn reset(&self) {
        self.ops.lock().unwrap().clear();
        self.written.lock().unwrap().clear();
        self.hubs.lock().unwrap().clear();
    }
}

impl Disk for OpLog {
    fn inner(&self) -> Option<&dyn Disk> {
        Some(&*self.inner)
    }
    fn read_into(&self, name: &str, buf: &mut AlignedBuf) -> StorageResult<()> {
        self.inner.read_into(name, buf)?;
        self.note("read_into", name, buf.len());
        Ok(())
    }
    fn read_all(&self, name: &str) -> StorageResult<Vec<u8>> {
        let data = self.inner.read_all(name)?;
        self.note("read_all", name, data.len());
        Ok(data)
    }
    fn write_all_to(&self, name: &str, data: &[u8]) -> StorageResult<()> {
        let mut hasher = DefaultHasher::new();
        data.hash(&mut hasher);
        let digest = hasher.finish();
        let before = self.written.lock().unwrap().insert(name.to_string(), digest);
        let op = if before == Some(digest) { "rewrite" } else { "write_all_to" };
        self.note(op, name, data.len());
        if name.starts_with("hub_") {
            // Header bytes 24..32: the checksum of the stored payload.
            let sum = u64::from_le_bytes(data[24..32].try_into().unwrap());
            self.hubs.lock().unwrap().push((name.to_string(), sum));
        }
        self.inner.write_all_to(name, data)
    }
    fn create(&self, name: &str) -> StorageResult<Box<dyn DiskWrite>> {
        self.note("create", name, 0);
        self.inner.create(name)
    }
    fn remove(&self, name: &str) -> StorageResult<()> {
        self.written.lock().unwrap().remove(name);
        self.note("remove", name, 0);
        self.inner.remove(name)
    }
}

/// Byte-wise 64-bit FNV-1a over an op log: each op, name and the byte
/// count in little-endian, each field followed by a zero byte.
fn op_digest(ops: &[(&'static str, String, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain([&0u8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (op, name, bytes) in ops {
        eat(op.as_bytes());
        eat(name.as_bytes());
        eat(&bytes.to_le_bytes());
    }
    h
}

/// The order, names and sizes of every disk op an inline (`threads = 1`)
/// run issues are pinned for PageRank, BFS and WCC (both directions), on
/// R-MAT 2^10×8 (P = 8) and Fig 1 (P = 4): at every residency
/// `Q ∈ 0..=P` (each budget keeps exactly `Q` intervals resident, with
/// the half pair it leaves over offered to the sub-shard cache), plus SPU
/// with half the store cached, so cache hits and streamed misses mix.
///
/// A change to how the engine schedules reads, hub traffic or interval
/// write-back must either leave every digest unchanged or re-pin them by
/// protocol: dump the `(op, name, bytes)` log of each of the 48 runs at
/// the parent and at the change, show with a script that each new log is
/// the parent's after exactly the edits the change intends (and record
/// how many of each, per row), and only then replace the constants.
#[test]
fn engine_io_sequence_is_pinned() {
    let fig1: Vec<(u64, u64)> = nxgraph::core::fig1_example_edges()
        .into_iter()
        .map(|(s, d)| (s as u64, d as u64))
        .collect();
    let mut got: Vec<[u64; 3]> = Vec::new();
    for (raw, p) in [(rmat_raw(10, 8, 3), 8u32), (fig1, 4)] {
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(&raw, &PrepConfig::new("sched", p), Arc::clone(&mem)).unwrap();
        let log = Arc::new(OpLog::new(mem));
        let g = PreparedGraph::open(Arc::clone(&log) as Arc<dyn Disk>).unwrap();
        let (n, p) = (g.num_vertices() as u64, p as u64);
        let half_store = g.total_subshard_bytes().unwrap() / 2;
        // Per row: the strategy and the budget at attribute width `ba`.
        let rows = (0..=p)
            .map(|q| (Strategy::Mpu, q))
            .chain([(Strategy::Spu, p + 1)]);
        for (strategy, q) in rows {
            let cfg = |ba: u64| {
                let pair = 2 * n * ba;
                let budget = match strategy {
                    Strategy::Spu => 4 * n + pair + half_store,
                    _ => 4 * n + (pair * q).div_ceil(p) + pair / p / 2,
                };
                EngineConfig::default()
                    .with_threads(1)
                    .with_strategy(strategy)
                    .with_budget(budget)
            };
            let mut digests = [0u64; 3];
            for (k, digest) in digests.iter_mut().enumerate() {
                log.reset();
                match k {
                    0 => assert!(algo::pagerank(&g, 5, &cfg(8)).is_ok()),
                    1 => assert!(algo::bfs(&g, 0, &cfg(4)).is_ok()),
                    _ => assert!(algo::wcc(&g, &cfg(4)).is_ok()),
                }
                let ops = log.ops.lock().unwrap();
                assert!(!ops.is_empty(), "P={p} Q={q} run {k} issued no I/O");
                *digest = op_digest(&ops);
            }
            got.push(digests);
        }
    }
    const PINNED: [[u64; 3]; 16] = [
        // [PageRank, BFS, WCC]
        [0x5ad3_123c_58eb_6a5a, 0xbf74_4ba8_3251_2dee, 0xf0e4_06ec_5e57_4eb2], // R-MAT, P = 8, Q = 0
        [0x27e3_acfb_34cb_f11e, 0x5317_e523_187a_08d0, 0x8bde_e85b_1aa3_b93f], // R-MAT, P = 8, Q = 1
        [0x5f8f_30aa_2136_5382, 0xf29f_3dc9_b01b_c450, 0x16b6_b368_8ff8_1d78], // R-MAT, P = 8, Q = 2
        [0xdad1_cbf1_3da8_f1a8, 0x0190_533c_6c24_f437, 0x3237_c017_f80d_944e], // R-MAT, P = 8, Q = 3
        [0x827f_0b58_d952_68aa, 0xd1bf_726a_b530_fc05, 0x99c6_7bdc_8bae_65a7], // R-MAT, P = 8, Q = 4
        [0x2f98_aabd_5eb6_b7c8, 0x0701_5de2_bf61_7180, 0xc33e_9916_e62d_9557], // R-MAT, P = 8, Q = 5
        [0xee56_b0e9_5813_bf88, 0xd7cd_dc3b_e703_2ea0, 0xd0d0_d79c_9a2a_aa1c], // R-MAT, P = 8, Q = 6
        [0x803b_6d87_3f01_62f2, 0x7882_1b48_accf_ef7b, 0xd1fc_30b6_e44a_9fce], // R-MAT, P = 8, Q = 7
        [0xc9fb_fdde_0136_4cc4, 0x00c2_1677_8454_cadd, 0x72b8_b1de_8d5c_450f], // R-MAT, P = 8, Q = 8
        [0xc61c_908d_b347_a5ac, 0xea40_47c1_dfee_0f47, 0x2c35_694a_97ff_9ad1], // R-MAT, SPU, half the store cached
        [0xe2d2_b9a5_f3df_03a3, 0xe3b5_669e_02cd_96d4, 0x08c1_bb5e_1fb9_63e9], // Fig 1, P = 4, Q = 0
        [0xc62b_4150_f429_e3c5, 0x8586_60ce_c530_2cda, 0x592f_ee08_ac6d_6476], // Fig 1, P = 4, Q = 1
        [0xb83a_7f48_6620_a793, 0x1937_0b6c_efb0_2305, 0x1aec_27b8_058b_6bdb], // Fig 1, P = 4, Q = 2
        [0x53dd_6b8e_dc79_12dd, 0xeb81_5e03_8c88_b08d, 0x5108_ba1d_fc60_68e1], // Fig 1, P = 4, Q = 3
        [0xe9b7_cd03_1b05_e321, 0x3437_dfc9_2489_9583, 0xb9f9_e555_9247_d87d], // Fig 1, P = 4, Q = 4
        [0x92a3_706c_104b_e151, 0xf37b_0562_bd58_a669, 0xc1bc_9fc6_9aa3_65c5], // Fig 1, SPU, half the store cached
    ];
    assert_eq!(got, PINNED, "engine I/O schedule changed: {got:#x?}");
}

/// What every hub holds, not just its size: the stored checksum of each
/// hub blob (header bytes 24..32), in write order, is pinned for PageRank
/// (5 iterations, forward) and WCC (both directions, so two cells per hub)
/// on R-MAT 2^10×8 (P = 8), under DPU and under MPU at Q = P/2 with half a
/// pair of cache, inline and at three threads. The accumulators' bits, the
/// hub order and the destination lists all sit under the checksum, so a
/// change to how phase B builds its hubs must keep every byte.
#[test]
fn hub_contents_are_pinned() {
    let raw = rmat_raw(10, 8, 3);
    let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw, &PrepConfig::new("hubs", 8), Arc::clone(&mem)).unwrap();
    let log = Arc::new(OpLog::new(mem));
    let g = PreparedGraph::open(Arc::clone(&log) as Arc<dyn Disk>).unwrap();
    let (n, p) = (g.num_vertices() as u64, 8u64);
    for threads in [1usize, 3] {
        let mut got: Vec<[(usize, u64); 2]> = Vec::new();
        for strategy in [Strategy::Dpu, Strategy::Mpu] {
            let cfg = |ba: u64| {
                let pair = 2 * n * ba;
                EngineConfig::default()
                    .with_threads(threads)
                    .with_strategy(strategy)
                    .with_budget(4 * n + (pair * p / 2).div_ceil(p) + pair / p / 2)
            };
            let mut row = [(0usize, 0u64); 2];
            for (k, slot) in row.iter_mut().enumerate() {
                log.reset();
                match k {
                    0 => assert!(algo::pagerank(&g, 5, &cfg(8)).is_ok()),
                    _ => assert!(algo::wcc(&g, &cfg(4)).is_ok()),
                }
                let hubs = log.hubs.lock().unwrap();
                let flat: Vec<(&'static str, String, u64)> =
                    hubs.iter().map(|(name, sum)| ("hub", name.clone(), *sum)).collect();
                *slot = (hubs.len(), op_digest(&flat));
            }
            got.push(row);
        }
        const PINNED: [[(usize, u64); 2]; 2] = [
            // [PageRank, WCC]: (hub writes, digest of names and checksums)
            [(315, 0xa859_28b6_08eb_7ba4), (244, 0x1686_28e9_82b4_d2a2)], // DPU
            [(75, 0x8872_1453_8f72_d8fd), (60, 0xa559_b999_0639_e304)], // MPU, Q = 4
        ];
        assert_eq!(got, PINNED, "hub contents changed at threads={threads}: {got:#x?}");
    }
}

/// A run pays only for what can change a value. For PageRank, BFS, WCC
/// and SSSP on a 32×32 mesh (P = 8) and on Fig 1 (P = 4), at every
/// residency `Q ∈ 0..=P`, inline and on the ring: no zero-edge cell's file
/// is read twice in one run (the store memoises it after its first
/// delivery), and no file is written with the bytes it already holds (a
/// column no message reached is not written back, nor is an unchanged
/// one).
#[test]
fn frontier_schedule_wastes_nothing() {
    use nxgraph::graphgen::mesh::{self, MeshConfig};
    let mesh: Vec<(u64, u64)> = mesh::generate(&MeshConfig { rows: 32, cols: 32 })
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let fig1: Vec<(u64, u64)> = nxgraph::core::fig1_example_edges()
        .into_iter()
        .map(|(s, d)| (s as u64, d as u64))
        .collect();
    for (gname, raw, p) in [("mesh", mesh, 8u32), ("fig1", fig1, 4)] {
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(&raw, &PrepConfig::new("frontier", p), Arc::clone(&mem)).unwrap();
        let log = Arc::new(OpLog::new(mem));
        let g = PreparedGraph::open(Arc::clone(&log) as Arc<dyn Disk>).unwrap();
        let loader = g.view_loader();
        let mut empty = HashSet::new();
        for (i, j) in (0..p).flat_map(|i| (0..p).map(move |j| (i, j))) {
            for reverse in [false, true] {
                if g.load_subshard(i, j, reverse).unwrap().is_empty() {
                    empty.extend(loader.subshard_part_names(i, j, reverse));
                }
            }
        }
        assert!(!empty.is_empty(), "{gname}: no zero-edge cell to memoise");
        let (n, p) = (g.num_vertices() as u64, p as u64);
        for (q, threads) in (0..=p).flat_map(|q| [(q, 1), (q, 3)]) {
            let cfg = |ba: u64| {
                let pair = 2 * n * ba;
                EngineConfig::default()
                    .with_threads(threads)
                    .with_strategy(Strategy::Mpu)
                    .with_budget(4 * n + (pair * q).div_ceil(p) + pair / p / 2)
            };
            for algo_name in ["pagerank", "bfs", "wcc", "sssp"] {
                log.reset();
                match algo_name {
                    "pagerank" => assert!(algo::pagerank(&g, 5, &cfg(8)).is_ok()),
                    "bfs" => assert!(algo::bfs(&g, 0, &cfg(4)).is_ok()),
                    "wcc" => assert!(algo::wcc(&g, &cfg(4)).is_ok()),
                    _ => {
                        let prog = algo::Sssp::new(0, sssp::hash_weights(0.5, 2.5));
                        let cfg = cfg(8).with_max_iterations(n as usize + 1);
                        assert!(engine::run(&g, &prog, &cfg).is_ok());
                    }
                }
                let label = format!("{gname} Q={q} threads={threads} {algo_name}");
                let mut read = HashSet::new();
                for (op, name, _) in log.ops.lock().unwrap().iter() {
                    assert_ne!(*op, "rewrite", "{label}: {name} written with the bytes it holds");
                    if op.starts_with("read") && empty.contains(name) {
                        assert!(read.insert(name.clone()), "{label}: empty cell {name} read twice");
                    }
                }
            }
        }
    }
}
