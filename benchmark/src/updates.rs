//! `updates-delta`: the write path alone.
//!
//! One client commits 1024-edge batches of known-vertex edges back to
//! back into a `DynamicGraph` under `DynamicConfig::default()` (delta log,
//! inline folds). No timers and one client, so every count — bytes,
//! deltas, folds, files — repeats exactly for a given seed and stream
//! length. The stream is 25 commits per `--seconds` second: long enough
//! that cells run through several fold cycles and bytes written per
//! ingested byte level off.

use std::time::Instant;

use nxgraph_core::engine::{EngineConfig, Strategy};
use nxgraph_core::{algo, CommitStats, DynamicConfig, DynamicGraph};
use nxgraph_storage::IoSnapshot;

use crate::host;
use crate::inputs;
use crate::result::{EndToEnd, RunArgs, RunResult};
use crate::scratch::{dir_usage, out_dir};
use crate::span::{self, Tracer};
use crate::stats::{median, Latency};
use crate::store::{self, DynStore};
use crate::Res;

pub const NAME: &str = "updates-delta";
const SCALE: u32 = 16;
const QUICK_SCALE: u32 = 10;
const BATCH_EDGES: usize = 1024;
const COMMITS_PER_SECOND: usize = 25;
const SETUP_REPS: usize = 3;
/// Bytes of one ingested edge as the user hands it over: two `u64`s.
const EDGE_BYTES: f64 = 16.0;

struct Commit {
    ms: f64,
    stats: CommitStats,
}

struct Stream {
    commits: Vec<Commit>,
    errors: Vec<String>,
    wall_s: f64,
    cpu_s: f64,
    io: IoSnapshot,
    opens: u64,
}

/// The store's files and the graph handle commits go through.
struct Updated {
    store: DynStore,
    graph: DynamicGraph,
}

fn setup(args: &RunArgs) -> Res<(Updated, Vec<f64>)> {
    let scale = if args.quick { QUICK_SCALE } else { SCALE };
    store::repeat_setups(SETUP_REPS, args.quick, || {
        let (store, graph) =
            store::dyn_store(NAME, scale, args.seed, DynamicConfig::default(), args.trace)?;
        let seconds = store.times.total_s;
        Ok((Updated { store, graph }, seconds))
    })
}

fn commit_stream(s: &mut Updated, batches: &[Vec<(u64, u64)>], tr: &mut Tracer) -> Stream {
    let os = &s.store.os;
    let (io0, p0, c0) = (
        os.counters().snapshot(),
        store::profile_of(os.as_ref()),
        host::cpu_seconds(),
    );
    let mut commits = Vec::with_capacity(batches.len());
    let mut errors = Vec::new();
    let start = Instant::now();
    for (k, batch) in batches.iter().enumerate() {
        let at = Instant::now();
        let r = tr.scope("dynamic.add_edges", || {
            (s.graph.add_edges(batch), batch.len() as u64)
        });
        let ms = at.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(stats) if stats.rebuilt => errors.push(format!("commit {k} rebuilt the graph")),
            Ok(stats) => commits.push(Commit { ms, stats }),
            Err(e) => errors.push(format!("commit {k}: {e}")),
        }
    }
    Stream {
        commits,
        errors,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - c0,
        io: os.counters().snapshot().delta(&io0),
        opens: store::profile_of(os.as_ref()).delta(&p0).opens,
    }
}

pub fn run(args: &RunArgs) -> Res<RunResult> {
    let mut out = RunResult::default();
    let (mut s, setups) = setup(args)?;
    let setup_rss_mib = host::peak_rss_mib();
    let known = s.graph.graph().load_reverse_mapping()?;
    let count = (COMMITS_PER_SECOND * args.seconds as usize).max(4);
    let batches = inputs::batches(&known, count, BATCH_EDGES, args.seed);
    drop(known);
    let mut tracer = Tracer::new(args.trace);

    host::trim_heap();
    host::reset_peak_rss();
    let stream = commit_stream(&mut s, &batches, &mut tracer);
    let stream_rss_mib = host::peak_rss_mib();
    out.attempted = count as u64;
    for e in &stream.errors {
        out.fail(e.clone());
    }
    if stream.commits.is_empty() {
        return Err("no commit succeeded".into());
    }

    let ops = stream.commits.len() as f64;
    let (store_bytes, store_files) = dir_usage(s.store.dir.path())?;
    if !args.trace {
        out.set_end_to_end(&EndToEnd {
            setups: &setups,
            op_ms: &stream.commits.iter().map(|c| c.ms).collect::<Vec<_>>(),
            stream_s: stream.wall_s,
            cpu_s: stream.cpu_s,
            io_bytes: stream.io.total_bytes(),
            store_bytes,
            edges: s.graph.graph().num_edges(),
            setup_rss_mib,
            stream_rss_mib,
        });
    }

    // The chained store, then the compacted one, must both be bitwise a
    // from-scratch preparation of base ∪ batches.
    let (fresh, fresh_disk) = store::fresh_prep(NAME, &s.store.raw, &batches)?;
    let want = store::pagerank_bits(&fresh)?;
    if s.graph.graph().num_edges() != fresh.num_edges()
        || store::pagerank_bits(s.graph.graph())? != want
    {
        out.fail("chained store differs from a fresh preparation of base ∪ batches");
    }

    let mut chained_load_s = 0.0;
    if args.trace {
        store::set_prep_metrics(
            &mut out,
            s.graph.graph(),
            s.store.raw.len(),
            &s.store.times,
            setup_rss_mib,
        );
        let sizes = (store_bytes, store_files, fresh_disk.total_size());
        chained_load_s = traced_layers(&mut out, &mut s, &stream, &mut tracer, sizes)?;
    }

    let report = tracer.scope("dynamic.compact", || (s.graph.compact(), 0))?;
    if store::pagerank_bits(s.graph.graph())? != want {
        out.fail("compacted store differs from a fresh preparation of base ∪ batches");
    }
    if args.trace {
        out.set("dynamic.compact_bytes_swept", report.bytes_swept as f64, 1);
        out.set("dynamic.peak_rss_mb", stream_rss_mib, 1);
        out.set(
            "dsss.chained_load_ratio",
            chained_load_s / store::load_all_cells_s(&s.store.os)?,
            3,
        );
        let spans = tracer.into_spans();
        let layers = span::by_layer(&spans);
        out.set(
            "dynamic.compact_s",
            layers.get("dynamic.compact").map_or(0.0, |l| l.total_s()),
            1,
        );
        out.set("trace.spans", spans.len() as f64, 1);
        out.set(
            "trace.span_cost_share",
            store::span_cost_s() * ops / stream.wall_s,
            ops as u64,
        );
        span::write_jsonl(&out_dir().join(format!("trace-{NAME}.jsonl")), NAME, &spans)?;
    }

    store::check_faults(
        &mut out,
        s.store.os.as_ref(),
        s.graph.commit_aborts(),
        args.trace,
    );
    Ok(out)
}

/// Per-layer numbers of the chained store, taken before `compact()`.
/// `sizes` is (store bytes, store files, bytes of a fresh preparation).
/// Returns the seconds one pass over every chained cell takes.
fn traced_layers(
    out: &mut RunResult,
    s: &mut Updated,
    stream: &Stream,
    tr: &mut Tracer,
    (store_bytes, store_files, fresh_bytes): (u64, u64, u64),
) -> Res<f64> {
    let ops = stream.commits.len() as f64;
    let n = stream.commits.len() as u64;
    let edges_in = stream
        .commits
        .iter()
        .map(|c| c.stats.edges_added)
        .sum::<usize>() as f64;
    let (folds, appends): (Vec<&Commit>, Vec<&Commit>) = stream
        .commits
        .iter()
        .partition(|c| c.stats.cells_compacted > 0);
    let p50 = |cs: &[&Commit]| {
        if cs.is_empty() {
            0.0
        } else {
            Latency::of(&cs.iter().map(|c| c.ms).collect::<Vec<_>>()).p50
        }
    };
    out.set(
        "dynamic.append_commit_p50_ms",
        p50(&appends),
        appends.len() as u64,
    );
    out.set(
        "dynamic.fold_commit_p50_ms",
        p50(&folds),
        folds.len() as u64,
    );
    out.set("dynamic.fold_commit_share", folds.len() as f64 / ops, n);
    let deltas: usize = stream.commits.iter().map(|c| c.stats.deltas_appended).sum();
    let folded: usize = stream.commits.iter().map(|c| c.stats.cells_compacted).sum();
    out.set("dynamic.deltas_per_commit", deltas as f64 / ops, n);
    out.set("dynamic.cells_folded", folded as f64, n);
    out.set(
        "dynamic.write_bytes_per_commit",
        stream.io.written_bytes as f64 / ops,
        n,
    );
    out.set(
        "dynamic.read_bytes_per_commit",
        stream.io.read_bytes as f64 / ops,
        n,
    );
    out.set("dynamic.opens_per_commit", stream.opens as f64 / ops, n);
    out.set(
        "dynamic.write_amp",
        stream.io.written_bytes as f64 / (EDGE_BYTES * edges_in),
        n,
    );
    out.set("dynamic.store_files_end", store_files as f64, 1);
    out.set(
        "dynamic.space_amp",
        store_bytes as f64 / fresh_bytes as f64,
        1,
    );

    // What the chains cost a reader: PageRank on the chained store.
    let g = s.graph.graph();
    let cfg = EngineConfig::default()
        .with_threads(host::engine_threads())
        .with_strategy(Strategy::Spu);
    algo::pagerank(g, 10, &cfg)?;
    let mut runs = Vec::new();
    for _ in 0..5 {
        let at = Instant::now();
        tr.scope("dynamic.chained_run", || (algo::pagerank(g, 10, &cfg), 0))?;
        runs.push(at.elapsed().as_secs_f64());
    }
    out.set("dynamic.chained_run_s", median(&runs), 5);
    out.set("dsss.chain_parts_mean", store::chain_parts_mean(g), 1);
    let chained_load_s = store::load_all_cells_s(&s.store.os)?;
    out.set("dsss.open_ms", store::open_ms(&s.store.os, tr)?, 21);
    out.set("manifest.save_ms", store::manifest_save_ms(g, tr)?, 21);
    out.set("manifest.bytes", g.manifest().to_text().len() as f64, 1);
    tr.scope("dynamic.refresh", || (s.graph.refresh(), 0))?;
    Ok(chained_load_s)
}
