//! SPU vs DPU vs MPU: one engine run of PageRank on an R-MAT graph —
//! the Criterion counterpart of Fig 8/Exp 3.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nxgraph_core::algo;
use nxgraph_core::engine::{EngineConfig, Strategy};
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::PreparedGraph;
use nxgraph_graphgen::rmat::{self, RmatConfig};
use nxgraph_storage::{Disk, MemDisk};

fn graph() -> PreparedGraph {
    let cfg = RmatConfig::graph500(14, 8, 5);
    let raw: Vec<(u64, u64)> = rmat::generate(&cfg)
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw, &PrepConfig::forward_only("bench", 12), disk).unwrap()
}

fn bench_strategies(c: &mut Criterion) {
    let g = graph();
    let n = g.num_vertices() as u64;
    let mpu_budget = 4 * n + n * 8; // half the intervals resident

    let mut group = c.benchmark_group("strategy_pagerank_3iters");
    group.sample_size(20);
    for (name, cfg) in [
        (
            "spu",
            EngineConfig::default().with_strategy(Strategy::Spu),
        ),
        (
            "dpu",
            EngineConfig::default().with_strategy(Strategy::Dpu),
        ),
        (
            "mpu_half",
            EngineConfig::default()
                .with_strategy(Strategy::Mpu)
                .with_budget(mpu_budget),
        ),
    ] {
        let cfg = cfg.with_threads(4);
        group.bench_function(name, |b| {
            b.iter(|| black_box(algo::pagerank(&g, 3, &cfg).unwrap().0[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
