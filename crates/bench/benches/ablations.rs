//! Ablation benches for three of the paper's design choices (the
//! reproduction's own choices, dataset substitution and modeled device
//! time, are argued in the module docs of `crates/bench/src/exps/mod.rs`):
//!
//! * **edge ordering** — (dst, src)-sorted vs dst-sorted-only sub-shards:
//!   the §III-A claim that sorting sources within a destination improves
//!   cache behaviour of the source-interval reads.
//! * **task granularity** — edges-per-task sweep for the fine-grained
//!   kernel ("several thousands of edges", §III-D), ending at one task per
//!   whole sub-shard: the granularity of the paper's interval-lock flavour.
//! * **hub indirection** — direct in-memory accumulation vs the
//!   ToHub→write→read→merge hub path (the DPU overhead SPU avoids).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nxgraph_core::algo::pagerank::PageRank;
use nxgraph_core::dsss::SubShardView;
use nxgraph_core::engine::kernel::{absorb, EDGES_PER_TASK};
use nxgraph_core::engine::AccBuf;
use nxgraph_core::prep;
use nxgraph_core::prep::PrepConfig;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, MemDisk};

fn edges() -> (u32, Vec<(u32, u32)>, Arc<Vec<u32>>) {
    let cfg = RmatConfig::graph500(14, 16, 21);
    let n = cfg.num_vertices() as u32;
    let edges: Vec<(u32, u32)> = rmat::generate(&cfg)
        .into_iter()
        .map(|e| (e.src as u32, e.dst as u32))
        .collect();
    let mut deg = vec![1u32; n as usize];
    for &(s, _) in &edges {
        deg[s as usize] += 1;
    }
    (n, edges, Arc::new(deg))
}

/// A sub-shard with destinations sorted but sources left in input order —
/// the structure NXgraph would have *without* the secondary sort.
fn dst_only_sorted(edges: &[(u32, u32)]) -> SubShardView {
    let mut by_dst = edges.to_vec();
    by_dst.sort_by_key(|&(_, d)| d); // stable: preserves src input order
    // Build CSR manually to avoid the (dst, src) sort of from_edges.
    let mut dsts = Vec::new();
    let mut offsets = vec![0u32];
    let mut srcs = Vec::with_capacity(by_dst.len());
    for (s, d) in by_dst {
        if dsts.last() != Some(&d) {
            dsts.push(d);
            offsets.push(srcs.len() as u32);
        }
        srcs.push(s);
        *offsets.last_mut().unwrap() = srcs.len() as u32;
    }
    SubShardView::from_csr(0, 0, &dsts, &offsets, &srcs)
}

fn bench_edge_ordering(c: &mut Criterion) {
    let (n, edges, deg) = edges();
    let prog = PageRank::new(n, Arc::clone(&deg));
    let vals = vec![1.0 / n as f64; n as usize];
    let sorted = Arc::new(SubShardView::from_edges(0, 0, edges.clone()));
    let unsorted_src = Arc::new(dst_only_sorted(&edges));

    let mut group = c.benchmark_group("edge_ordering");
    for (name, ss) in [("dst_and_src_sorted", &sorted), ("dst_sorted_only", &unsorted_src)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut buf = AccBuf::<PageRank>::new(&prog, 0, n as usize);
                absorb(&prog, [(ss, &mut buf)], &vals, 0, 4, EDGES_PER_TASK);
                black_box(buf.acc[0]);
            })
        });
    }
    group.finish();
}

fn bench_task_granularity(c: &mut Criterion) {
    let (n, edges, deg) = edges();
    let prog = PageRank::new(n, Arc::clone(&deg));
    let vals = vec![1.0 / n as f64; n as usize];
    let ss = Arc::new(SubShardView::from_edges(0, 0, edges));

    let mut group = c.benchmark_group("edges_per_task");
    let sweep = [256usize, 1024, 8192, 65536].map(|ept| (format!("ept_{ept}"), ept));
    for (name, ept) in sweep.into_iter().chain([("whole_subshard".into(), usize::MAX)]) {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut buf = AccBuf::<PageRank>::new(&prog, 0, n as usize);
                absorb(&prog, [(&ss, &mut buf)], &vals, 0, 8, ept);
                black_box(buf.acc[0]);
            })
        });
    }
    group.finish();
}

fn bench_hub_indirection(c: &mut Criterion) {
    // One iteration of PageRank via SPU (direct) vs DPU (hub files).
    let raw: Vec<(u64, u64)> = rmat::generate(&RmatConfig::graph500(13, 8, 33))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = prep::preprocess(&raw, &PrepConfig::forward_only("abl", 8), disk).unwrap();

    let mut group = c.benchmark_group("hub_indirection");
    group.sample_size(20);
    for (name, strategy) in [
        ("spu_direct", nxgraph_core::engine::Strategy::Spu),
        ("dpu_hubs", nxgraph_core::engine::Strategy::Dpu),
    ] {
        let cfg = nxgraph_core::engine::EngineConfig::default()
            .with_strategy(strategy)
            .with_threads(4);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    nxgraph_core::algo::pagerank(&g, 1, &cfg)
                        .unwrap()
                        .0[0],
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_edge_ordering,
    bench_task_granularity,
    bench_hub_indirection
);
criterion_main!(benches);
