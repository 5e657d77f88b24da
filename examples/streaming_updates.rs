//! Streaming graph updates — exercising the dynamic-graph extension (the
//! NXgraph paper's stated future work: "support dynamic change on graph
//! structure").
//!
//! Simulates a social network receiving follow events in batches through
//! the **delta log**, counting disk write bytes per day. Follows between
//! existing users commit incrementally — one small blob appended per
//! touched sub-shard instead of rewriting it, and periodic compaction
//! folds the chains. Day 4 brings brand-new users, whose dense ids don't
//! exist yet: the commit falls back to a full re-preprocessing, which the
//! commit stats report. The final ranks must equal a from-scratch
//! preparation of base ∪ stream, bit for bit.
//!
//! ```sh
//! cargo run --release --example streaming_updates
//! ```

use std::sync::Arc;

use nxgraph::core::algo;
use nxgraph::core::dynamic::{CommitStats, DynamicConfig, DynamicGraph};
use nxgraph::core::engine::EngineConfig;
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::graphgen::rmat::{self, RmatConfig};
use nxgraph::storage::{Disk, MemDisk};
use rand::{Rng, SeedableRng};

/// Five days of follow events; day 4 includes two brand-new users.
fn event_stream(known: &[u64], id_space: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    (1..=5)
        .map(|day| {
            let mut batch: Vec<(u64, u64)> = (0..200)
                .map(|_| {
                    (
                        known[rng.random_range(0..known.len())],
                        known[rng.random_range(0..known.len())],
                    )
                })
                .collect();
            if day == 4 {
                batch.push((id_space + 1, 0));
                batch.push((id_space + 2, id_space + 1));
            }
            batch
        })
        .collect()
}

fn describe(stats: &CommitStats) -> String {
    if stats.rebuilt {
        "full rebuild — new users appeared".to_string()
    } else {
        format!(
            "incremental, {} deltas appended, {} chains folded",
            stats.deltas_appended, stats.cells_compacted
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Day 0: an initial snapshot.
    let base = rmat::generate(&RmatConfig::graph500(12, 8, 1));
    let raw: Vec<(u64, u64)> = base.iter().map(|e| (e.src, e.dst)).collect();
    let mut known: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
    known.sort_unstable();
    known.dedup();
    let stream = event_stream(&known, 1u64 << 12);

    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let prep = PrepConfig::new("stream", 12);
    let graph = preprocess(&raw, &prep, Arc::clone(&disk))?;
    println!(
        "day 0: {} users, {} follows",
        graph.num_vertices(),
        graph.num_edges()
    );
    let mut dynamic = DynamicGraph::with_config(graph, DynamicConfig::default())?;
    let cfg = EngineConfig::default();
    for (day, batch) in stream.iter().enumerate() {
        let before = disk.counters().written_bytes();
        let stats = dynamic.add_edges(batch)?;
        let wrote = disk.counters().written_bytes() - before;
        let (ranks, run) = algo::pagerank(dynamic.graph(), 5, &cfg)?;
        let top = ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, r)| (v, *r))
            .unwrap();
        println!(
            "day {}: +{} edges ({}), wrote {wrote} B; now {} users / {} edges; pagerank in {:?}, top vertex {} at {:.5}",
            day + 1,
            stats.edges_added,
            describe(&stats),
            dynamic.graph().num_vertices(),
            dynamic.graph().num_edges(),
            run.elapsed,
            top.0,
            top.1,
        );
    }

    // The streamed graph must rank exactly like a one-shot preparation of
    // the same edges — a runnable assertion, since CI executes this example.
    let mut full = raw;
    full.extend(stream.iter().flatten());
    let fresh = preprocess(&full, &prep, Arc::new(MemDisk::new()))?;
    let bits = |ranks: Vec<f64>| ranks.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let (streamed, _) = algo::pagerank(dynamic.graph(), 5, &cfg)?;
    let (oneshot, _) = algo::pagerank(&fresh, 5, &cfg)?;
    assert_eq!(
        bits(streamed),
        bits(oneshot),
        "streamed updates must rank like a fresh preparation"
    );
    println!("final ranks bitwise-identical to a fresh preparation of base + stream");
    Ok(())
}
