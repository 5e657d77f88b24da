//! Exp 7 / Fig 12 — BFS, SCC and WCC across systems on the three graphs.
//!
//! Notes mirroring the paper's own caveats: TurboGraph ships no SCC (and
//! its BFS crashed in the paper's runs); here the TurboGraph-like engine
//! runs BFS/WCC but SCC is NXgraph-only. WCC requires undirected
//! semantics: NXgraph runs `Direction::Both` over forward+reverse
//! sub-shards; the forward-only baselines run on an explicitly symmetrised
//! copy of the graph (identical component structure).


use nxgraph_baselines::graphchi::{GraphChiConfig, GraphChiEngine};
use nxgraph_baselines::turbograph::{self, TurboGraphConfig};
use nxgraph_bench::report::{fmt_secs, Table};
use nxgraph_bench::workloads::prepare_mem;
use nxgraph_core::algo::{self, bfs::Bfs, wcc::Wcc};
use nxgraph_graphgen::datasets::Dataset;

use crate::exps::{nx_cfg, real_world};
use crate::Opts;

fn symmetrised(d: &Dataset) -> Dataset {
    let mut edges = d.edges.clone();
    edges.extend(d.edges.iter().map(|e| nxgraph_graphgen::RawEdge::new(e.dst, e.src)));
    Dataset {
        name: format!("{}-sym", d.name),
        edges,
    }
}

/// Run Fig 12.
pub fn run(opts: &Opts) -> bool {
    for d in real_world(opts) {
        let g = prepare_mem(&d, 12, true);
        let gsym = prepare_mem(&symmetrised(&d), 12, false);
        let cfg = nx_cfg(opts);
        let gc = GraphChiEngine::prepare(&g).expect("gc prep");
        let gc_sym = GraphChiEngine::prepare(&gsym).expect("gc sym prep");

        let mut t = Table::new(
            format!("Fig 12 — more tasks on {} (seconds)", d.name),
            &["task", "nxgraph", "graphchi-like", "turbograph-like"],
        );

        // BFS.
        let (_, nx) = algo::bfs(&g, 0, &cfg).expect("bfs nx");
        let (_, gcs) = gc
            .run(
                &Bfs::new(0),
                &GraphChiConfig {
                    threads: opts.threads,
                    max_iterations: g.num_vertices() as usize + 1,
                },
            )
            .expect("bfs gc");
        let (_, tgs) = turbograph::run(
            &g,
            &Bfs::new(0),
            &TurboGraphConfig {
                threads: opts.threads,
                max_iterations: g.num_vertices() as usize + 1,
            },
        )
        .expect("bfs tg");
        t.row(vec![
            "BFS".into(),
            fmt_secs(nx.elapsed),
            fmt_secs(gcs.elapsed),
            fmt_secs(tgs.elapsed),
        ]);

        // SCC (NXgraph only; the paper could not obtain SCC numbers for
        // TurboGraph either).
        let nx = algo::scc(&g, &cfg).expect("scc nx");
        t.row(vec![
            "SCC".into(),
            fmt_secs(nx.elapsed),
            "n/a".into(),
            "n/a".into(),
        ]);

        // WCC.
        let (_, nx) = algo::wcc(&g, &cfg).expect("wcc nx");
        let (_, gcs) = gc_sym
            .run(
                &Wcc,
                &GraphChiConfig {
                    threads: opts.threads,
                    max_iterations: gsym.num_vertices() as usize + 1,
                },
            )
            .expect("wcc gc");
        let (_, tgs) = turbograph::run(
            &gsym,
            &Wcc,
            &TurboGraphConfig {
                threads: opts.threads,
                max_iterations: gsym.num_vertices() as usize + 1,
            },
        )
        .expect("wcc tg");
        t.row(vec![
            "WCC".into(),
            fmt_secs(nx.elapsed),
            fmt_secs(gcs.elapsed),
            fmt_secs(tgs.elapsed),
        ]);
        t.print();
    }
    println!("(paper: NXgraph efficient on targeted queries via interval activity; baselines must touch everything)");
    true
}
