//! `serve-mixed`: reads beside writes.
//!
//! A `GraphService` (library-default `ServeConfig`) over a store with
//! background maintenance. Closed loop, two clients: one issues queries
//! back to back (BFS, SSSP, PPR-from-seed, top-k PageRank in rotation,
//! seeded endpoints), one commits 256-edge batches, commit `k` released
//! when query `2k` starts. Counts and release order are fixed; the
//! maintenance thread folds and scrubs on the same two cores, which is
//! where the tail comes from. 25 queries per `--seconds` second.

use std::time::Instant;

use nxgraph_core::serve::{GraphService, Query, ServeConfig};
use nxgraph_core::{DynamicConfig, DynamicGraph};
use nxgraph_storage::IoSnapshot;

use crate::host;
use crate::inputs::{self, TicketGate};
use crate::result::{EndToEnd, RunArgs, RunResult};
use crate::scratch::{dir_usage, out_dir};
use crate::span::{self, Tracer};
use crate::stats::{median, Latency};
use crate::store::{self, DynStore};
use crate::Res;

pub const NAME: &str = "serve-mixed";
const SCALE: u32 = 14;
const QUICK_SCALE: u32 = 10;
const BATCH_EDGES: usize = 256;
const QUERIES_PER_SECOND: usize = 25;
const SETUP_REPS: usize = 5;
/// Seeded queries after the writer has stopped and maintenance is idle,
/// compared against a fresh preparation; outside the timed stream.
const CHECK_QUERIES: usize = 20;

const QUERY_SPANS: [&str; 4] = [
    "serve.query.bfs",
    "serve.query.sssp",
    "serve.query.ppr",
    "serve.query.prtopk",
];

/// The store's files and the service over them.
struct Served {
    store: DynStore,
    svc: GraphService,
}

fn setup(args: &RunArgs) -> Res<(Served, Vec<f64>)> {
    let scale = if args.quick { QUICK_SCALE } else { SCALE };
    // Dropping the previous service joins its maintenance thread.
    store::repeat_setups(SETUP_REPS, args.quick, || {
        let at = Instant::now();
        let (store, graph) = store::dyn_store(
            NAME,
            scale,
            args.seed,
            DynamicConfig::background(),
            args.trace,
        )?;
        let svc = GraphService::new(graph, ServeConfig::default())?;
        Ok((Served { store, svc }, at.elapsed().as_secs_f64()))
    })
}

struct Stream {
    /// (query index, ms) of every answered query.
    queries: Vec<(usize, f64)>,
    commit_ms: Vec<f64>,
    errors: Vec<String>,
    /// Wall time of the query client's stream.
    wall_s: f64,
    cpu_s: f64,
    io: IoSnapshot,
    spans: Vec<span::Span>,
}

fn mixed_stream(s: &Served, queries: &[Query], batches: &[Vec<(u64, u64)>], trace: bool) -> Stream {
    let gate = TicketGate::new();
    let origin = Instant::now();
    let (io0, c0) = (s.store.os.counters().snapshot(), host::cpu_seconds());
    let mut answered = Vec::with_capacity(queries.len());
    let mut errors = Vec::new();
    let mut reader = Tracer::with_origin(trace, origin);
    let mut wall_s = 0.0;
    let (commit_ms, commit_errors, writer_spans) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut tr = Tracer::with_origin(trace, origin);
            let (mut ms, mut errs) = (Vec::with_capacity(batches.len()), Vec::new());
            for (k, batch) in batches.iter().enumerate() {
                gate.wait_for_commit(k);
                let at = Instant::now();
                match tr.scope("serve.add_edges", || {
                    (s.svc.add_edges(batch), batch.len() as u64)
                }) {
                    Ok(stats) if stats.rebuilt => {
                        errs.push(format!("commit {k} rebuilt the graph"))
                    }
                    Ok(_) => ms.push(at.elapsed().as_secs_f64() * 1e3),
                    Err(e) => errs.push(format!("commit {k}: {e}")),
                }
            }
            (ms, errs, tr.into_spans())
        });
        let start = Instant::now();
        for (k, q) in queries.iter().enumerate() {
            gate.query_started();
            let at = Instant::now();
            match reader.scope(QUERY_SPANS[k % 4], || (s.svc.run_query(q), 0)) {
                Ok(_) => answered.push((k, at.elapsed().as_secs_f64() * 1e3)),
                Err(e) => errors.push(format!("query {k}: {e}")),
            }
        }
        wall_s = start.elapsed().as_secs_f64();
        writer.join().expect("writer client panicked")
    });
    errors.extend(commit_errors);
    Stream {
        queries: answered,
        commit_ms,
        errors,
        wall_s,
        cpu_s: host::cpu_seconds() - c0,
        io: s.store.os.counters().snapshot().delta(&io0),
        spans: span::merge(vec![reader.into_spans(), writer_spans]),
    }
}

pub fn run(args: &RunArgs) -> Res<RunResult> {
    let mut out = RunResult::default();
    let (s, setups) = setup(args)?;
    let setup_rss_mib = host::peak_rss_mib();
    let (known, n) = s
        .svc
        .with_writer(|dg| (dg.graph().load_reverse_mapping(), dg.graph().num_vertices()));
    let known = known?;
    let count = (QUERIES_PER_SECOND * args.seconds as usize).max(8);
    let queries = inputs::queries(count, n, args.seed);
    let batches = inputs::batches(&known, count / 2, BATCH_EDGES, args.seed);
    drop(known);

    host::trim_heap();
    host::reset_peak_rss();
    let stream = mixed_stream(&s, &queries, &batches, args.trace);
    let stream_rss_mib = host::peak_rss_mib();
    out.attempted = (queries.len() + batches.len() + CHECK_QUERIES) as u64;
    for e in &stream.errors {
        out.fail(e.clone());
    }
    if stream.queries.is_empty() {
        return Err("no query was answered".into());
    }
    let stats = s.svc.stats();
    if stats.errors + stats.rejected_busy + stats.rejected_budget > 0 {
        out.fail(format!("ServeStats {stats:?}"));
    }

    // Let maintenance finish what the stream queued, then look at the store.
    let mut tail = Tracer::new(args.trace);
    let drain_at = Instant::now();
    s.svc
        .with_writer(|dg| tail.scope("maintain.wait_idle", || (dg.wait_maintenance_idle(), 0)))?;
    let drain_s = drain_at.elapsed().as_secs_f64();
    let (store_bytes, _) = dir_usage(s.store.dir.path())?;
    let edges = s.svc.with_writer(|dg| dg.graph().num_edges());

    let query_ms: Vec<f64> = stream.queries.iter().map(|(_, ms)| *ms).collect();
    let k = query_ms.len() as u64;
    if !args.trace {
        out.set_end_to_end(&EndToEnd {
            setups: &setups,
            op_ms: &query_ms,
            stream_s: stream.wall_s,
            cpu_s: stream.cpu_s,
            io_bytes: stream.io.total_bytes(),
            store_bytes,
            edges,
            setup_rss_mib,
            stream_rss_mib,
        });
    }

    // Isolation oracle: further seeded queries must answer exactly as a
    // service over a fresh preparation of base ∪ all batches does.
    let (fresh, _) = store::fresh_prep(NAME, &s.store.raw, &batches)?;
    let oracle = GraphService::new(DynamicGraph::new(fresh)?, ServeConfig::default())?;
    for (j, q) in inputs::queries(CHECK_QUERIES, n, args.seed ^ 0xc4ec)
        .iter()
        .enumerate()
    {
        match (s.svc.run_query(q), oracle.run_query(q)) {
            (Ok(got), Ok(want)) if got.fingerprint() == want.fingerprint() => {}
            (got, want) => out.fail(format!(
                "check query {j} {q:?}: served {got:?}, fresh preparation {want:?}"
            )),
        }
    }
    drop(oracle);
    let after = s.svc.stats();
    if after.errors > 0 {
        out.fail(format!("ServeStats.errors = {}", after.errors));
    }
    store::check_faults(&mut out, s.store.os.as_ref(), 0, args.trace);

    if args.trace {
        s.svc.with_writer(|dg| {
            store::set_prep_metrics(
                &mut out,
                dg.graph(),
                s.store.raw.len(),
                &s.store.times,
                setup_rss_mib,
            )
        });
        out.set("serve.admitted", stats.admitted as f64, k);
        out.set("serve.rejected_busy", stats.rejected_busy as f64, k);
        out.set("serve.rejected_budget", stats.rejected_budget as f64, k);
        out.set("serve.errors", after.errors as f64, k);
        out.set("serve.max_snapshot_lag", stats.max_snapshot_lag as f64, k);
        out.set("serve.peak_rss_mb", stream_rss_mib, 1);
        for (kind, metric) in [
            "serve.bfs_p50_ms",
            "serve.sssp_p50_ms",
            "serve.ppr_p50_ms",
            "serve.prtopk_p50_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let ms: Vec<f64> = stream
                .queries
                .iter()
                .filter(|(q, _)| q % 4 == kind)
                .map(|(_, ms)| *ms)
                .collect();
            if !ms.is_empty() {
                out.set(metric, Latency::of(&ms).p50, ms.len() as u64);
            }
        }
        if !stream.commit_ms.is_empty() {
            out.set(
                "serve.writer_commit_p50_ms",
                Latency::of(&stream.commit_ms).p50,
                stream.commit_ms.len() as u64,
            );
        }
        // Do later queries run slower than early ones (files piling up)?
        let quarter = (query_ms.len() / 4).max(1);
        let (first, last) = (&query_ms[..quarter], &query_ms[query_ms.len() - quarter..]);
        out.set(
            "serve.query_drift",
            median(last) / median(first),
            quarter as u64,
        );

        let mut pins = Vec::with_capacity(101);
        for _ in 0..101 {
            let at = Instant::now();
            drop(tail.scope("serve.snapshot", || (s.svc.snapshot(), 0))?);
            pins.push(at.elapsed().as_secs_f64() * 1e6);
        }
        out.set("serve.snapshot_pin_us", median(&pins), 101);

        let maint = s
            .svc
            .with_writer(|dg| dg.maintenance().map(|m| m.stats()))
            .unwrap_or_default();
        out.set("maintain.cells_folded", maint.cells_folded as f64, 1);
        out.set("maintain.fold_races", maint.fold_races as f64, 1);
        out.set("maintain.scrubs", maint.scrubs as f64, 1);
        out.set(
            "maintain.transient_retries",
            maint.transient_retries as f64,
            1,
        );
        out.set("maintain.drain_s", drain_s, 1);

        out.set("dsss.open_ms", store::open_ms(&s.store.os, &mut tail)?, 21);
        let (save_ms, bytes, parts) = s.svc.with_writer(|dg| {
            let g = dg.graph();
            (
                store::manifest_save_ms(g, &mut tail),
                g.manifest().to_text().len(),
                store::chain_parts_mean(g),
            )
        });
        out.set("manifest.save_ms", save_ms?, 21);
        out.set("manifest.bytes", bytes as f64, 1);
        out.set("dsss.chain_parts_mean", parts, 1);

        let stream_spans = stream.spans.len() as f64;
        let spans = span::merge(vec![stream.spans, tail.into_spans()]);
        out.set("trace.spans", spans.len() as f64, 1);
        out.set(
            "trace.span_cost_share",
            store::span_cost_s() * stream_spans / stream.wall_s,
            k,
        );
        span::write_jsonl(&out_dir().join(format!("trace-{NAME}.jsonl")), NAME, &spans)?;
    }
    Ok(out)
}
