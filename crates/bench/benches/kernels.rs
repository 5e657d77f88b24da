//! Micro-benchmarks of the update kernels — the ablation behind Table IV:
//! destination-sorted fine-grained absorb vs source-sorted coarse-grained
//! absorb (and a frontier program's absorb from 1 % of the sources), plus
//! hub building (`to_hub`, the engine's ToHub, beside the
//! interval-wide `compact` it replaced) and merging, the scalar vs
//! 4-way-unrolled flat-edge absorb, the task-dispatch slot comparison
//! (mutex slots vs the pool's cursor-claimed lock-free slots), the
//! word-wise FNV-1a blob checksum, and the one sub-shard decoder,
//! `SubShardView::parse`, on raw and delta+varint blobs.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nxgraph_baselines::common::coarse_absorb;
use nxgraph_core::algo::pagerank::PageRank;
use nxgraph_core::algo::Bfs;
use nxgraph_core::dsss::SubShardView;
use nxgraph_core::engine::kernel::{absorb, to_hub, EDGES_PER_TASK};
use nxgraph_core::engine::AccBuf;
use nxgraph_core::parallel::run_tasks;
use nxgraph_core::program::VertexProgram;
use nxgraph_core::types::VertexId;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::format::{self, EncodingPolicy};
use nxgraph_storage::{varint, SharedBytes};

const SCALE: u32 = 14;
const EDGE_FACTOR: u32 = 16;

fn workload() -> (u32, Vec<(u32, u32)>, Arc<Vec<u32>>) {
    let cfg = RmatConfig::graph500(SCALE, EDGE_FACTOR, 7);
    let n = cfg.num_vertices() as u32;
    let edges: Vec<(u32, u32)> = rmat::generate(&cfg)
        .into_iter()
        .map(|e| (e.src as u32, e.dst as u32))
        .collect();
    let mut deg = vec![0u32; n as usize];
    for &(s, _) in &edges {
        deg[s as usize] += 1;
    }
    // Avoid zero degrees for sources that never appear: absorb only runs
    // for actual sources, so this is safe padding.
    for d in deg.iter_mut() {
        *d = (*d).max(1);
    }
    (n, edges, Arc::new(deg))
}

/// PageRank with `absorb_run` left at the trait default: the scalar
/// per-edge walk. Benchmarks the unrolled override against this.
struct ScalarPageRank(PageRank);

impl VertexProgram for ScalarPageRank {
    type Value = f64;
    type Accum = f64;
    const APPLY_NEEDS_OLD: bool = false;
    const ALWAYS_APPLY: bool = true;

    fn init(&self, v: VertexId) -> f64 {
        self.0.init(v)
    }

    fn zero(&self) -> f64 {
        self.0.zero()
    }

    fn absorb(&self, s: VertexId, sv: &f64, d: VertexId, acc: &mut f64) -> bool {
        self.0.absorb(s, sv, d, acc)
    }

    fn combine(&self, a: &mut f64, b: &f64) {
        self.0.combine(a, b)
    }

    fn apply(&self, v: VertexId, old: &f64, acc: &f64, got: bool) -> f64 {
        self.0.apply(v, old, acc, got)
    }
    // No absorb_run override: the default scalar loop is the baseline.
}

fn bench_kernels(c: &mut Criterion) {
    let (n, edges, deg) = workload();
    let prog = PageRank::new(n, Arc::clone(&deg));
    let vals = vec![1.0 / n as f64; n as usize];
    let ss = Arc::new(SubShardView::from_edges(0, 0, edges.clone()));
    let threads = 4;

    let mut group = c.benchmark_group("kernel");
    group.bench_function("dst_sorted_fine_grained", |b| {
        b.iter(|| {
            let mut buf = AccBuf::<PageRank>::new(&prog, 0, n as usize);
            absorb(&prog, [(&ss, &mut buf)], &vals, 0, None, threads, EDGES_PER_TASK);
            black_box(buf.acc[0]);
        })
    });
    // A frontier program's absorb over the same cell: BFS, every vertex
    // reached, 1 % of them (ids ≡ 0 mod 100) changed last iteration, so
    // only their edges are folded and every other bit test fails.
    let bfs = Bfs::new(0);
    let depths = vec![3u32; n as usize];
    let mut sending = vec![0u64; (n as usize).div_ceil(64)];
    for v in (0..n).step_by(100) {
        sending[v as usize / 64] |= 1 << (v % 64);
    }
    group.bench_function("absorb_frontier_1pct", |b| {
        b.iter(|| {
            let mut buf = AccBuf::<Bfs>::new(&bfs, 0, n as usize);
            absorb(&bfs, [(&ss, &mut buf)], &depths, 0, Some(&sending), threads, EDGES_PER_TASK);
            black_box(buf.acc[0]);
        })
    });
    group.bench_function("src_sorted_coarse_grained", |b| {
        let mut src_sorted = edges.clone();
        src_sorted.sort_unstable();
        b.iter(|| {
            let (acc, _) = coarse_absorb(
                &prog,
                &src_sorted,
                |_idx, s| vals[s as usize],
                0,
                n as usize,
                threads,
            );
            black_box(acc[0]);
        })
    });
    group.finish();

    // Scalar per-edge walk vs the 4-way unrolled flat-edge absorb_run,
    // single-threaded so the ratio isolates the inner loop. Uses a *dense*
    // R-MAT (same edge count, 16× fewer vertices → long per-destination
    // source runs) where the lane unroll has room to amortise; the skewed
    // Graph500 fixture above has mostly sub-4-edge runs.
    let dense_cfg = RmatConfig::graph500(SCALE - 4, EDGE_FACTOR * 16, 7);
    let dn = dense_cfg.num_vertices() as u32;
    let dense_edges: Vec<(u32, u32)> = rmat::generate(&dense_cfg)
        .into_iter()
        .map(|e| (e.src as u32, e.dst as u32))
        .collect();
    let mut dense_deg = vec![1u32; dn as usize];
    for &(s, _) in &dense_edges {
        dense_deg[s as usize] += 1;
    }
    let dense_deg = Arc::new(dense_deg);
    let dense_vals = vec![1.0 / dn as f64; dn as usize];
    let dense_ss = Arc::new(SubShardView::from_edges(0, 0, dense_edges));
    let dense_prog = PageRank::new(dn, Arc::clone(&dense_deg));
    let scalar_prog = ScalarPageRank(PageRank::new(dn, Arc::clone(&dense_deg)));
    let mut group = c.benchmark_group("absorb_run");
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut buf = AccBuf::<ScalarPageRank>::new(&scalar_prog, 0, dn as usize);
            absorb(&scalar_prog, [(&dense_ss, &mut buf)], &dense_vals, 0, None, 1, usize::MAX);
            black_box(buf.acc[0]);
        })
    });
    group.bench_function("unrolled4", |b| {
        b.iter(|| {
            let mut buf = AccBuf::<PageRank>::new(&dense_prog, 0, dn as usize);
            absorb(&dense_prog, [(&dense_ss, &mut buf)], &dense_vals, 0, None, 1, usize::MAX);
            black_box(buf.acc[0]);
        })
    });
    group.finish();

    let mut group = c.benchmark_group("hub");
    let mut buf = AccBuf::<PageRank>::new(&prog, 0, n as usize);
    absorb(&prog, [(&ss, &mut buf)], &vals, 0, None, threads, EDGES_PER_TASK);
    group.bench_function("compact", |b| {
        b.iter(|| black_box(buf.compact()))
    });
    // The whole ToHub of the same cell: fold and keep the messaged
    // destinations, with no interval-wide buffer.
    let cells = [Arc::clone(&ss)];
    group.bench_function("to_hub", |b| {
        b.iter(|| black_box(to_hub(&prog, &cells, &vals, 0, None, threads, EDGES_PER_TASK)))
    });
    let (dsts, accs) = buf.compact();
    group.bench_function("merge", |b| {
        b.iter(|| {
            let mut target = AccBuf::<PageRank>::new(&prog, 0, n as usize);
            target.merge_hub(&prog, &dsts, &accs);
            black_box(target.acc[0]);
        })
    });
    group.finish();
}

/// The read-path codec comparisons behind the zero-copy refactor:
///
/// * `fnv1a/words` — the 8-bytes-per-step blob checksum of format v2+.
/// * `varint/{encode,decode_scalar,decode_bulk}` — the LEB128 primitive
///   behind format v3's delta+varint payloads, over the source column's
///   in-run gaps: one `read_varint` per value against the bulk decoder
///   `read_varints` (SSSE3 Masked VByte where the host has it).
/// * `subshard_decode/{view,view_checksummed,compressed,compressed_wide}` —
///   `SubShardView::parse` on a raw blob, and the delta+varint inflate
///   path on the v3 blob of the same shard. `view` skips the checksum (the
///   steady state under the verify-once `ChecksumPolicy`);
///   `view_checksummed` verifies like a first load or an owned load.
///   `compressed_wide` is the same shard with every id offset past 2^21,
///   so each run's first source is a 4-byte varint the vector decoder
///   hands to the scalar one: it must not be slower than that scalar
///   decoder.
fn bench_codec(c: &mut Criterion) {
    let (_, edges, _) = workload();
    let ss = SubShardView::from_edges(0, 0, edges);
    let bytes = ss.encode_with(EncodingPolicy::Raw);
    let payload = &bytes[32..];

    let mut group = c.benchmark_group("fnv1a");
    group.bench_function("words", |b| {
        b.iter(|| black_box(format::fnv1a_words(black_box(payload))))
    });
    group.finish();

    // The source column's in-run gaps are what the v3 codec spends most
    // of its time on; benchmark the primitive over exactly those values.
    let mut gaps: Vec<u32> = Vec::with_capacity(ss.num_edges());
    for pos in 0..ss.num_dsts() {
        let run = &ss.srcs()[ss.src_range(pos)];
        gaps.push(run[0]);
        gaps.extend(run.windows(2).map(|w| w[1] - w[0]));
    }
    let mut encoded = Vec::with_capacity(2 * gaps.len());
    for &g in &gaps {
        varint::push_varint(&mut encoded, g);
    }
    let mut group = c.benchmark_group("varint");
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(2 * gaps.len());
            for &g in &gaps {
                varint::push_varint(&mut out, black_box(g));
            }
            black_box(out.len())
        })
    });
    let mut decoded = vec![0u32; gaps.len()];
    group.bench_function("decode_scalar", |b| {
        b.iter(|| {
            let mut pos = 0;
            varint::read_varints_scalar(&encoded, &mut pos, &mut decoded, "bench").unwrap();
            black_box(decoded[decoded.len() - 1])
        })
    });
    group.bench_function("decode_bulk", |b| {
        b.iter(|| {
            let mut pos = 0;
            varint::read_varints(&encoded, &mut pos, &mut decoded, "bench").unwrap();
            black_box(decoded[decoded.len() - 1])
        })
    });
    group.finish();

    let shared = SharedBytes::from(bytes);
    let compressed = SharedBytes::from(ss.encode_with(EncodingPolicy::Compressed));
    const WIDE: u32 = 1 << 21;
    let wide_edges = ss.iter_edges().map(|(s, d)| (s + WIDE, d + WIDE)).collect();
    let wide = SubShardView::from_edges(0, 0, wide_edges).encode_with(EncodingPolicy::Compressed);
    let wide = SharedBytes::from(wide);
    let mut group = c.benchmark_group("subshard_decode");
    group.bench_function("view", |b| {
        b.iter(|| {
            black_box(
                SubShardView::parse(shared.clone(), "bench", false)
                    .unwrap()
                    .num_edges(),
            )
        })
    });
    group.bench_function("view_checksummed", |b| {
        b.iter(|| {
            black_box(
                SubShardView::parse(shared.clone(), "bench", true)
                    .unwrap()
                    .num_edges(),
            )
        })
    });
    group.bench_function("compressed", |b| {
        b.iter(|| {
            black_box(
                SubShardView::parse(compressed.clone(), "bench", false)
                    .unwrap()
                    .num_edges(),
            )
        })
    });
    group.bench_function("compressed_wide", |b| {
        b.iter(|| {
            black_box(
                SubShardView::parse(wide.clone(), "bench", false)
                    .unwrap()
                    .num_edges(),
            )
        })
    });
    group.finish();
}

/// A slot claimed at most once via a shared cursor — the pool's lock-free
/// task container, replicated here so both dispatch variants run under an
/// identical scoped-thread harness.
struct CursorSlot(UnsafeCell<Option<u64>>);

// Safety: each index is claimed by exactly one thread (cursor fetch_add).
unsafe impl Sync for CursorSlot {}

const DISPATCH_TASKS: usize = 65_536;
const DISPATCH_THREADS: usize = 4;

/// Task-dispatch cost comparison: the old per-task `Mutex<Option<T>>`
/// hand-off vs the cursor-claimed `UnsafeCell` slots now used by
/// `parallel::pool`, under the same thread harness — plus the real
/// `run_tasks` path for an end-to-end number.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");

    group.bench_function("mutex_slots", |b| {
        b.iter(|| {
            let tasks: Vec<Mutex<Option<u64>>> =
                (0..DISPATCH_TASKS as u64).map(|t| Mutex::new(Some(t))).collect();
            let cursor = AtomicUsize::new(0);
            let sum = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..DISPATCH_THREADS {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        if let Some(t) = tasks[i].lock().unwrap().take() {
                            sum.fetch_add(t, Ordering::Relaxed);
                        }
                    });
                }
            });
            black_box(sum.load(Ordering::Relaxed))
        })
    });

    group.bench_function("lockfree_slots", |b| {
        b.iter(|| {
            let tasks: Vec<CursorSlot> = (0..DISPATCH_TASKS as u64)
                .map(|t| CursorSlot(UnsafeCell::new(Some(t))))
                .collect();
            let cursor = AtomicUsize::new(0);
            let sum = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..DISPATCH_THREADS {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        // Safety: `i` handed to this thread alone.
                        if let Some(t) = unsafe { (*tasks[i].0.get()).take() } {
                            sum.fetch_add(t, Ordering::Relaxed);
                        }
                    });
                }
            });
            black_box(sum.load(Ordering::Relaxed))
        })
    });

    group.bench_function("pool_run_tasks", |b| {
        b.iter(|| {
            let sum = AtomicU64::new(0);
            let tasks: Vec<u64> = (0..DISPATCH_TASKS as u64).collect();
            run_tasks(DISPATCH_THREADS, tasks, |t| {
                sum.fetch_add(t, Ordering::Relaxed);
            });
            black_box(sum.load(Ordering::Relaxed))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernels, bench_codec, bench_dispatch);
criterion_main!(benches);
