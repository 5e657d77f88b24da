//! Exp 6 / Fig 11 — scalability: throughput (MTEPS) on the mesh
//! ("delaunay-like") graph family as the vertex count doubles.

use std::sync::Arc;

use nxgraph_baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph_baselines::turbograph::{self, TurboGraphConfig};
use nxgraph_bench::report::Table;
use nxgraph_bench::workloads::prepare_mem;
use nxgraph_core::algo::{self, pagerank::PageRank};
use nxgraph_graphgen::datasets;

use crate::exps::nx_cfg;
use crate::Opts;

/// Run Fig 11. Scales follow the paper's n20…n24 shifted by the options
/// (default: n12…n16 at `--scale-shift -6` ≈ -8 from the paper).
pub fn run(opts: &Opts) -> bool {
    let base_scale = (14 + opts.scale_shift).clamp(8, 22) as u32;
    let mut t = Table::new(
        "Fig 11 — scalability in MTEPS (10-iter PageRank on mesh graphs)",
        &[
            "vertices (×2^20 in paper; here 2^scale)",
            "nxgraph",
            "graphchi-like",
            "turbograph-like",
        ],
    );
    for scale in base_scale..base_scale + 5 {
        let d = datasets::delaunay_like(scale);
        let g = prepare_mem(&d, 12, false);
        let cfg = nx_cfg(opts);
        let (_, nx) = algo::pagerank(&g, opts.iters, &cfg).expect("nx");
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let gc = GraphChiEngine::prepare(&g).expect("gc prep");
        let (_, gcs) = gc
            .run(
                &prog,
                &GraphChiConfig {
                    threads: opts.threads,
                    max_iterations: opts.iters,
                },
            )
            .expect("gc run");
        let (_, tgs) = turbograph::run(
            &g,
            &prog,
            &TurboGraphConfig {
                threads: opts.threads,
                max_iterations: opts.iters,
            },
        )
        .expect("tg run");
        t.row(vec![
            format!("2^{scale}"),
            format!("{:.1}", nx.mteps()),
            format!("{:.1}", gcs.mteps()),
            format!("{:.1}", tgs.mteps()),
        ]);
    }
    t.print();
    println!("(paper: NXgraph throughput grows with graph size; TurboGraph-like tends to decrease)");
    true
}
