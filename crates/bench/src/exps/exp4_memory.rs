//! Exp 4 / Fig 9 — elapsed time vs memory budget for 10-iteration
//! PageRank on the three graphs; NXgraph vs GraphChi-like vs
//! TurboGraph-like.
//!
//! The budget knob is modelled explicitly (`exps` module docs, "Modeled
//! device time"): it selects SPU/MPU/DPU and the shard cache, and the
//! modeled-SSD column converts the counted traffic into device time so the
//! saturation shape of Fig 9 (time falls until everything fits, then
//! flattens) is visible on any host.

use std::sync::Arc;

use nxgraph_baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph_baselines::turbograph::{self, TurboGraphConfig};
use nxgraph_bench::report::Table;
use nxgraph_bench::workloads::prepare_mem;
use nxgraph_core::algo::{self, pagerank::PageRank};
use nxgraph_storage::DeviceProfile;

use crate::exps::{modeled_secs, nx_cfg, real_world};
use crate::Opts;

/// Run Fig 9.
pub fn run(opts: &Opts) -> bool {
    let ssd = DeviceProfile::SSD_RAID0;
    for d in real_world(opts) {
        let g = prepare_mem(&d, 12, false);
        let n = g.num_vertices() as u64;
        let full = 2 * n * 8 + 4 * n + g.total_subshard_bytes().expect("sizes");
        let mut t = Table::new(
            format!("Fig 9 — PageRank on {} vs memory budget (modeled SSD seconds)", d.name),
            &["budget frac", "nxgraph", "graphchi-like", "turbograph-like"],
        );
        let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
        let gc = GraphChiEngine::prepare(&g).expect("gc prep");
        for frac in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
            let budget = (full as f64 * frac) as u64;
            let base = nx_cfg(opts).with_budget(budget);
            let (_, nx) = algo::pagerank(&g, opts.iters, &base).expect("nx");

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
                format!("{frac:.1}"),
                format!("{:.3}", modeled_secs(nx.elapsed, &nx.io, &ssd)),
                format!("{:.3}", modeled_secs(gcs.elapsed, &gcs.io, &ssd)),
                format!("{:.3}", modeled_secs(tgs.elapsed, &tgs.io, &ssd)),
            ]);
        }
        t.print();
    }
    println!("(paper: NXgraph below both baselines at every budget; saturation once intervals+shards fit)");
    true
}
