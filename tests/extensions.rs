//! Integration tests for the extension features (SSSP, HITS, personalised
//! PageRank, k-core, dynamic updates) across update strategies — the same
//! strategy-equivalence guarantees the core algorithms enjoy.

use std::sync::Arc;

use nxgraph::core::algo::{self, ppr::PersonalizedPageRank};
use nxgraph::core::dynamic::DynamicGraph;
use nxgraph::core::engine::{self, EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::PreparedGraph;
use nxgraph::graphgen::rmat;
use nxgraph::storage::{Disk, MemDisk};

fn workload(scale: u32, ef: u32, seed: u64) -> PreparedGraph {
    let raw: Vec<(u64, u64)> = rmat::generate(&rmat::RmatConfig::graph500(scale, ef, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw, &PrepConfig::new("ext", 5), disk).unwrap()
}

fn strategies(n: u64) -> Vec<(Strategy, u64)> {
    vec![
        (Strategy::Spu, u64::MAX),
        (Strategy::Dpu, 0),
        (Strategy::Mpu, 4 * n + n * 8),
    ]
}

#[test]
fn ppr_agrees_across_strategies() {
    let g = workload(8, 6, 32);
    let n = g.num_vertices() as u64;
    let mut baseline: Option<Vec<f64>> = None;
    for (strategy, budget) in strategies(n) {
        let prog = PersonalizedPageRank::new([0u32, 3], Arc::clone(g.out_degrees()));
        let cfg = EngineConfig::default()
            .with_strategy(strategy)
            .with_budget(budget)
            .with_max_iterations(8);
        let (r, _) = engine::run(&g, &prog, &cfg).unwrap();
        match &baseline {
            None => baseline = Some(r),
            Some(b) => {
                for (x, y) in r.iter().zip(b) {
                    assert!((x - y).abs() < 1e-10, "{strategy:?}");
                }
            }
        }
    }
}

#[test]
fn hits_is_deterministic_and_strategy_independent() {
    let g = workload(8, 5, 34);
    let a = algo::hits(&g, 6, &EngineConfig::default()).unwrap();
    let b = algo::hits(&g, 6, &EngineConfig::default().with_strategy(Strategy::Dpu)).unwrap();
    for (x, y) in a.authorities.iter().zip(&b.authorities) {
        assert!((x - y).abs() < 1e-10);
    }
    for (x, y) in a.hubs.iter().zip(&b.hubs) {
        assert!((x - y).abs() < 1e-10);
    }
}

#[test]
fn dynamic_delta_log_roundtrips_on_real_files() {
    use nxgraph::core::dynamic::{DynamicConfig, DynamicGraph};
    use nxgraph::storage::{OsDisk, ScratchDir};

    // Chains on a directory of real files: append, reopen cold, fold,
    // reopen again — results stay put across process-like boundaries.
    let dir = ScratchDir::new("delta-os");
    let raw: Vec<(u64, u64)> = rmat::generate(&rmat::RmatConfig::graph500(8, 4, 77))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect();
    let disk: Arc<dyn Disk> = Arc::new(OsDisk::new(dir.path()).unwrap());
    let g = preprocess(&raw, &PrepConfig::new("os-delta", 4), Arc::clone(&disk)).unwrap();
    let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
    let known = dg.graph().load_reverse_mapping().unwrap();
    let extra: Vec<(u64, u64)> = (0..30)
        .map(|k| (known[(k * 3) % known.len()], known[(k * 11 + 5) % known.len()]))
        .collect();
    let stats = dg.add_edges(&extra).unwrap();
    assert!(stats.deltas_appended > 0);
    drop(dg);

    // Cold reopen sees the chain and merges it.
    let reopened = PreparedGraph::open(Arc::clone(&disk)).unwrap();
    assert!(reopened.manifest().chains().unwrap().iter().any(|c| c.3.deltas > 0));
    let cfg = EngineConfig::default().with_max_iterations(5);
    let (want, _) = algo::pagerank(&reopened, 5, &cfg).unwrap();

    // Fold, reopen again: chains gone, PageRank bit-identical.
    let mut dg = DynamicGraph::new(reopened).unwrap();
    assert!(dg.compact().unwrap().cells_folded > 0);
    drop(dg);
    let compacted = PreparedGraph::open(Arc::clone(&disk)).unwrap();
    assert!(compacted.manifest().chains().unwrap().iter().all(|c| c.3.deltas == 0));
    let (got, _) = algo::pagerank(&compacted, 5, &cfg).unwrap();
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn dynamic_commits_then_all_algorithms_run() {
    let g = workload(8, 4, 35);
    let mut dg = DynamicGraph::new(g).unwrap();
    // Add some edges among existing vertices (via reconstructed indices).
    let known = dg.graph().load_reverse_mapping().unwrap();
    let extra: Vec<(u64, u64)> = (0..20)
        .map(|k| (known[k % known.len()], known[(k * 7 + 3) % known.len()]))
        .collect();
    let stats = dg.add_edges(&extra).unwrap();
    assert!(!stats.rebuilt);

    let cfg = EngineConfig::default();
    let (ranks, _) = algo::pagerank(dg.graph(), 5, &cfg).unwrap();
    assert_eq!(ranks.len(), dg.graph().num_vertices() as usize);
    let (depths, _) = algo::bfs(dg.graph(), 0, &cfg).unwrap();
    assert_eq!(depths[0], 0);
    let scc = algo::scc(dg.graph(), &cfg).unwrap();
    assert_eq!(scc.labels.len(), depths.len());
}
