//! Cross-engine consistency: every baseline produces exactly the results
//! of the NXgraph engines and the in-memory oracles, so the benchmark
//! comparisons measure strategy, not semantics.

use std::sync::Arc;

use nxgraph::baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph::baselines::gridgraph::{GridGraphConfig, GridGraphEngine};
use nxgraph::baselines::turbograph::{self, TurboGraphConfig};
use nxgraph::baselines::xstream::{XStreamConfig, XStreamEngine};
use nxgraph::core::algo::{bfs::Bfs, pagerank::PageRank};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::reference;
use nxgraph::core::PreparedGraph;
use nxgraph::graphgen::rmat;
use nxgraph::storage::{Disk, MemDisk};

fn workload(scale: u32, ef: u32, seed: u64) -> (PreparedGraph, Vec<(u32, u32)>) {
    let raw: Vec<(u64, u64)> = rmat::generate(&rmat::RmatConfig::graph500(scale, ef, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw, &PrepConfig::forward_only("bl", 6), disk).unwrap();
    let mut idx: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
    idx.sort_unstable();
    idx.dedup();
    let edges = raw
        .iter()
        .map(|&(s, d)| {
            (
                idx.binary_search(&s).unwrap() as u32,
                idx.binary_search(&d).unwrap() as u32,
            )
        })
        .collect();
    (g, edges)
}

#[test]
fn pagerank_identical_across_all_engines() {
    let (g, edges) = workload(9, 6, 5);
    let expect = reference::pagerank(g.num_vertices(), &edges, g.out_degrees(), 8);
    let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));

    let gc = GraphChiEngine::prepare(&g).unwrap();
    let (v, _) = gc
        .run(
            &prog,
            &GraphChiConfig {
                threads: 4,
                max_iterations: 8,
            },
        )
        .unwrap();
    for (a, b) in v.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-10, "graphchi");
    }

    let (v, _) = turbograph::run(
        &g,
        &prog,
        &TurboGraphConfig {
            threads: 4,
            max_iterations: 8,
        },
    )
    .unwrap();
    for (a, b) in v.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-10, "turbograph");
    }

    let gg = GridGraphEngine::prepare(&g).unwrap();
    let (v, _) = gg
        .run(
            &prog,
            &GridGraphConfig {
                threads: 4,
                max_iterations: 8,
            },
        )
        .unwrap();
    for (a, b) in v.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-10, "gridgraph");
    }

    let xs = XStreamEngine::prepare(&g).unwrap();
    let (v, _) = xs.run(&prog, &XStreamConfig { max_iterations: 8 }).unwrap();
    for (a, b) in v.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-10, "xstream");
    }
}

#[test]
fn bfs_identical_across_engines() {
    let (g, edges) = workload(9, 3, 17);
    let expect = reference::bfs(g.num_vertices(), &edges, 0);
    let prog = Bfs::new(0);
    let cap = g.num_vertices() as usize + 1;

    let gc = GraphChiEngine::prepare(&g).unwrap();
    let (v, _) = gc
        .run(
            &prog,
            &GraphChiConfig {
                threads: 2,
                max_iterations: cap,
            },
        )
        .unwrap();
    assert_eq!(v, expect, "graphchi");

    let (v, _) = turbograph::run(
        &g,
        &prog,
        &TurboGraphConfig {
            threads: 2,
            max_iterations: cap,
        },
    )
    .unwrap();
    assert_eq!(v, expect, "turbograph");

    let gg = GridGraphEngine::prepare(&g).unwrap();
    let (v, _) = gg
        .run(
            &prog,
            &GridGraphConfig {
                threads: 2,
                max_iterations: cap,
            },
        )
        .unwrap();
    assert_eq!(v, expect, "gridgraph");

    let xs = XStreamEngine::prepare(&g).unwrap();
    let (v, _) = xs.run(&prog, &XStreamConfig { max_iterations: cap }).unwrap();
    assert_eq!(v, expect, "xstream");
}

#[test]
fn io_profiles_are_ordered_as_the_paper_argues() {
    // For one PageRank iteration with ample memory, total bytes moved
    // should order: NXgraph SPU < TurboGraph-like < X-stream-like, and
    // GraphChi-like must exceed SPU (edge-value rewrites).
    let (g, _) = workload(11, 8, 9);
    let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));

    let cfg = nxgraph::core::engine::EngineConfig::default().with_max_iterations(1);
    let (_, nx) = nxgraph::core::algo::pagerank(&g, 1, &cfg).unwrap();

    let (_, tg) = turbograph::run(
        &g,
        &prog,
        &TurboGraphConfig {
            threads: 2,
            max_iterations: 1,
        },
    )
    .unwrap();

    let xs = XStreamEngine::prepare(&g).unwrap();
    let (_, xst) = xs.run(&prog, &XStreamConfig { max_iterations: 1 }).unwrap();

    let gc = GraphChiEngine::prepare(&g).unwrap();
    let (_, gct) = gc
        .run(
            &prog,
            &GraphChiConfig {
                threads: 2,
                max_iterations: 1,
            },
        )
        .unwrap();

    assert!(
        nx.io.total_bytes() < tg.io.total_bytes(),
        "SPU {} vs TurboGraph-like {}",
        nx.io.total_bytes(),
        tg.io.total_bytes()
    );
    assert!(
        tg.io.total_bytes() < xst.io.total_bytes(),
        "TurboGraph-like {} vs X-stream-like {}",
        tg.io.total_bytes(),
        xst.io.total_bytes()
    );
    assert!(
        nx.io.total_bytes() < gct.io.total_bytes(),
        "SPU {} vs GraphChi-like {}",
        nx.io.total_bytes(),
        gct.io.total_bytes()
    );
}
