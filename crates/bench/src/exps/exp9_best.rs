//! Exp 9 / Table VI — best case: 1-iteration PageRank on the Twitter-like
//! graph with full resources (SPU).
//!
//! PowerGraph is a distributed system and out of scope for
//! re-implementation, as are the paper's real graphs (`exps` module docs,
//! "Dataset substitution"); the paper's cited 3.6 s / 1.79× figure is
//! printed alongside for context.

use std::sync::Arc;

use nxgraph_baselines::gridgraph::{GridGraphConfig, GridGraphEngine};
use nxgraph_baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph_baselines::turbograph::{self, TurboGraphConfig};
use nxgraph_baselines::xstream::{XStreamConfig, XStreamEngine};
use nxgraph_bench::report::{fmt_bytes, Table};
use nxgraph_bench::workloads::prepare_mem;
use nxgraph_core::algo::{self, pagerank::PageRank};
use nxgraph_storage::DeviceProfile;

use crate::exps::{modeled_secs, nx_cfg, twitter};
use crate::Opts;

/// Run Table VI.
pub fn run(opts: &Opts) -> bool {
    let d = twitter(opts);
    let g = prepare_mem(&d, 12, false);
    let dev = DeviceProfile::SSD_RAID0;
    let threads = opts.threads.min(8);

    let cfg = nx_cfg(opts).with_threads(threads).with_max_iterations(1);
    let (_, nx) = algo::pagerank(&g, 1, &cfg).expect("nx run");
    let nx_time = modeled_secs(nx.elapsed, &nx.io, &dev);

    let prog = PageRank::new(g.num_vertices(), Arc::clone(g.out_degrees()));
    let gc = GraphChiEngine::prepare(&g).expect("gc prep");
    let (_, gcs) = gc
        .run(
            &prog,
            &GraphChiConfig {
                threads,
                max_iterations: 1,
            },
        )
        .expect("gc run");
    let (_, tgs) = turbograph::run(
        &g,
        &prog,
        &TurboGraphConfig {
            threads,
            max_iterations: 1,
        },
    )
    .expect("tg run");
    let gg = GridGraphEngine::prepare(&g).expect("gg prep");
    let (_, ggs) = gg
        .run(
            &prog,
            &GridGraphConfig {
                threads,
                max_iterations: 1,
            },
        )
        .expect("gg run");
    let xs = XStreamEngine::prepare(&g).expect("xs prep");
    let (_, xss) = xs
        .run(&prog, &XStreamConfig { max_iterations: 1 })
        .expect("xs run");

    let mut t = Table::new(
        format!("Table VI — best case: 1-iter PageRank, Twitter-like, {threads}t, SSD model"),
        &[
            "system",
            "wall+io time (s)",
            "io-only speedup vs nxgraph",
            "bytes moved",
        ],
    );
    // SPU with full budget caches everything after the initial load, so
    // NXgraph's steady-state I/O is near zero; the io-only ratio captures
    // the paper's I/O-bound comparison independent of reduced-scale wall
    // noise. NXgraph's own floor is clamped to its initial shard load.
    let nx_io = dev.transfer_time(&nx.io).as_secs_f64().max(1e-9);
    for (name, secs, io) in [
        ("nxgraph (SPU)", nx_time, &nx.io),
        ("graphchi-like", modeled_secs(gcs.elapsed, &gcs.io, &dev), &gcs.io),
        ("turbograph-like", modeled_secs(tgs.elapsed, &tgs.io, &dev), &tgs.io),
        ("gridgraph-like", modeled_secs(ggs.elapsed, &ggs.io, &dev), &ggs.io),
        ("xstream-like", modeled_secs(xss.elapsed, &xss.io, &dev), &xss.io),
    ] {
        t.row(vec![
            name.into(),
            format!("{secs:.3}"),
            format!("{:.2}", dev.transfer_time(io).as_secs_f64() / nx_io),
            fmt_bytes(io.total_bytes()),
        ]);
    }
    t.print();
    println!("(paper Table VI: X-stream 11.57x, GridGraph 11.99x, MMAP 6.52x slower; PowerGraph — a 64-node cluster — 1.79x slower at 3.6 s vs NXgraph's 2.05 s.)");
    true
}
