//! Exp 5 / Fig 10 — elapsed time vs thread count for 10-iteration
//! PageRank on the three graphs, all systems.

use std::sync::Arc;

use nxgraph_baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph_baselines::turbograph::{self, TurboGraphConfig};
use nxgraph_bench::report::{fmt_secs, Table};
use nxgraph_bench::workloads::prepare_mem;
use nxgraph_core::algo::{self, pagerank::PageRank};

use crate::exps::{nx_cfg, real_world};
use crate::Opts;

/// Run Fig 10.
pub fn run(opts: &Opts) -> bool {
    for d in real_world(opts) {
        let g = prepare_mem(&d, 12, false);
        let gc = GraphChiEngine::prepare(&g).expect("gc prep");
        let mut t = Table::new(
            format!("Fig 10 — PageRank on {} vs thread count (wall seconds)", d.name),
            &["threads", "nxgraph", "graphchi-like", "turbograph-like"],
        );
        for threads in [1usize, 2, 4, 6, 8, 12] {
            let base = nx_cfg(opts).with_threads(threads);
            let (_, nx) = algo::pagerank(&g, opts.iters, &base).expect("nx");
            let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
            let (_, gcs) = gc
                .run(
                    &prog,
                    &GraphChiConfig {
                        threads,
                        max_iterations: opts.iters,
                    },
                )
                .expect("gc run");
            let (_, tgs) = turbograph::run(
                &g,
                &prog,
                &TurboGraphConfig {
                    threads,
                    max_iterations: opts.iters,
                },
            )
            .expect("tg run");
            t.row(vec![
                threads.to_string(),
                fmt_secs(nx.elapsed),
                fmt_secs(gcs.elapsed),
                fmt_secs(tgs.elapsed),
            ]);
        }
        t.print();
    }
    println!("(paper: NXgraph scales with threads on in-memory graphs; I/O-bound graphs flatten)");
    true
}
