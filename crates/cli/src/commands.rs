//! Subcommand implementations.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use nxgraph_core::algo;
use nxgraph_core::engine::EngineConfig;
use nxgraph_core::prep::{preprocess, PrepConfig};
use nxgraph_core::PreparedGraph;
use nxgraph_graphgen::{er, io as gio, mesh, rmat};
use nxgraph_storage::{Disk, DiskConfig, EncodingPolicy, OsDisk, RetryPolicy};

use crate::args::Args;

/// Dispatch a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "generate" => generate(&args),
        "prep" => prep(&args),
        "info" => info(&args),
        "compact" => compact(&args),
        "scrub" => scrub(&args),
        "pagerank" => pagerank(&args),
        "bfs" => bfs(&args),
        "sssp" => sssp(&args),
        "wcc" => wcc(&args),
        "scc" => scc(&args),
        "hits" => hits(&args),
        "serve" => serve(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let kind = args.pos(0, "generator kind (rmat|mesh|er)")?;
    let out: String = args.require("out")?;
    let seed = args.get_or("seed", 42u64)?;
    let edges = match kind {
        "rmat" => {
            let scale = args.get_or("scale", 16u32)?;
            let ef = args.get_or("edge-factor", 16u32)?;
            rmat::generate(&rmat::RmatConfig::graph500(scale, ef, seed))
        }
        "mesh" => {
            let scale = args.get_or("scale", 16u32)?;
            mesh::generate(&mesh::MeshConfig::with_scale(scale))
        }
        "er" => {
            let n = args.get_or("vertices", 1u64 << 16)?;
            let m = args.get_or("edges", 1usize << 20)?;
            er::generate(n, m, seed)
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    let file = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    gio::write_text(&mut w, &edges).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} edges to {out}", edges.len());
    Ok(())
}

fn prep(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input edge-list file")?;
    let dir = args.pos(1, "output graph directory")?;
    let p = args.get_or("intervals", 16u32)?;
    let name: String = args.get_or("name", "graph".to_string())?;
    let reverse = !args.switch("--no-reverse");
    let encoding: EncodingPolicy = args.get_or("encoding", EncodingPolicy::Raw)?;

    let file = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let edges = gio::read_text(file).map_err(|e| format!("parse {input}: {e}"))?;
    // Same size and alignment: the collect reuses the parsed list's buffer.
    let raw: Vec<(u64, u64)> = edges.into_iter().map(|e| (e.src, e.dst)).collect();

    let disk: Arc<dyn Disk> = Arc::new(OsDisk::new(dir).map_err(|e| e.to_string())?);
    let cfg = PrepConfig {
        name,
        num_intervals: p,
        build_reverse: reverse,
        encoding,
    };
    let started = std::time::Instant::now();
    let g = preprocess(&raw, &cfg, disk).map_err(|e| e.to_string())?;
    println!(
        "prepared {}: {} vertices, {} edges, P={} ({} sub-shards{}), encoding {}, in {:?}",
        dir,
        g.num_vertices(),
        g.num_edges(),
        p,
        p * p,
        if reverse { " + reverse" } else { "" },
        encoding,
        started.elapsed()
    );
    Ok(())
}

fn open(args: &Args) -> Result<PreparedGraph, String> {
    let dir = args.pos(0, "graph directory")?;
    let disk_cfg = DiskConfig { direct_reads: args.switch("--direct") };
    let disk: Arc<dyn Disk> =
        Arc::new(OsDisk::with_config(dir, disk_cfg).map_err(|e| e.to_string())?);
    let mut g = PreparedGraph::open(disk).map_err(|e| e.to_string())?;
    let mut retry = RetryPolicy::default();
    if let Some(attempts) = args.get::<u32>("retries")? {
        if attempts == 0 {
            return Err("--retries must be at least 1 (1 disables retrying)".into());
        }
        retry = RetryPolicy::with_attempts(attempts);
    }
    if let Some(ms) = args.get::<u64>("retry-backoff-ms")? {
        retry = retry.with_base_backoff(std::time::Duration::from_millis(ms));
    }
    g.set_retry_policy(retry);
    Ok(g)
}

fn engine_cfg(args: &Args) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    if let Some(t) = args.get::<usize>("threads")? {
        cfg = cfg.with_threads(t);
    }
    if let Some(mib) = args.get::<u64>("budget-mib")? {
        cfg.memory_budget = mib << 20;
    }
    if let Some(ms) = args.get::<u64>("io-deadline-ms")? {
        if ms == 0 {
            return Err("--io-deadline-ms must be at least 1".into());
        }
        cfg = cfg.with_io_deadline(Some(std::time::Duration::from_millis(ms)));
    }
    Ok(cfg)
}

/// Print the per-disk I/O profile after an engine run, when the disk
/// exposes one (real `OsDisk`s always do).
fn report_io_profile(g: &PreparedGraph) {
    if let Some(profile) = g.disk().io_profile() {
        let io = profile.snapshot();
        println!(
            "io profile: {} read / {} write syscalls, {} opens; direct: {} reads / {} bytes / {} fallbacks; {} cache drops",
            io.read_syscalls,
            io.write_syscalls,
            io.opens,
            io.direct_reads,
            io.direct_bytes,
            io.direct_fallbacks,
            io.cache_drops
        );
        println!(
            "reliability : {} retries / {} giveups; {} injected faults, {} watchdog stalls",
            io.retries, io.giveups, io.injected_faults, io.stalls
        );
    }
}

fn info(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let m = g.manifest();
    println!("name          : {}", m.name);
    println!("vertices      : {}", m.num_vertices);
    println!("edges         : {}", m.num_edges);
    println!("intervals (P) : {}", m.num_intervals);
    println!("reverse shards: {}", m.has_reverse);
    println!(
        "subshard bytes: {}",
        g.total_subshard_bytes().map_err(|e| e.to_string())?
    );
    if let Some(enc) = m.extra.get(nxgraph_core::dsss::ENCODING_MANIFEST_KEY) {
        println!("encoding      : {enc}");
    }
    if let (Some(Ok(raw)), Some(Ok(on_disk))) = (
        m.extra
            .get(nxgraph_core::dsss::SS_RAW_BYTES_MANIFEST_KEY)
            .map(|v| v.parse::<u64>()),
        m.extra
            .get(nxgraph_core::dsss::SS_DISK_BYTES_MANIFEST_KEY)
            .map(|v| v.parse::<u64>()),
    ) {
        println!(
            "blob ratio    : {:.2}x ({raw} raw / {on_disk} on disk)",
            raw as f64 / on_disk.max(1) as f64
        );
    }
    let chains = m.chains().map_err(|e| e.to_string())?;
    let pending: Vec<_> = chains.iter().filter(|c| c.3.deltas > 0).collect();
    if !pending.is_empty() {
        let total: u32 = pending.iter().map(|c| c.3.deltas).sum();
        println!(
            "delta chains  : {} cells with {} pending delta blobs (run `compact`)",
            pending.len(),
            total
        );
    }
    let degrees_gen = m.degrees_gen().map_err(|e| e.to_string())?;
    if degrees_gen > 0 {
        println!("degree table  : generation {degrees_gen}");
    }
    let quarantined = g
        .disk()
        .list()
        .into_iter()
        .filter(|n| n.starts_with(nxgraph_core::maintain::QUARANTINE_PREFIX))
        .count();
    if quarantined > 0 {
        println!("quarantined   : {quarantined} corrupt blob(s) parked by scrub (run `compact` to sweep)");
    }
    let deg = g.out_degrees();
    let max = deg.iter().max().copied().unwrap_or(0);
    println!(
        "out-degree    : mean {:.2}, max {}",
        m.num_edges as f64 / m.num_vertices as f64,
        max
    );
    println!(
        "over-releases : {} (unbalanced MemoryBudget releases this process)",
        nxgraph_storage::global_over_releases()
    );
    report_io_profile(&g);
    Ok(())
}

/// Fold every pending delta chain back into single base blobs and sweep
/// unreferenced files (crash leftovers, quarantined blobs, stale
/// generations).
fn compact(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let before = g.total_subshard_bytes().map_err(|e| e.to_string())?;
    let mut dg = nxgraph_core::dynamic::DynamicGraph::new(g).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let report = dg.compact().map_err(|e| e.to_string())?;
    let after = dg
        .graph()
        .total_subshard_bytes()
        .map_err(|e| e.to_string())?;
    println!(
        "compacted {} cells in {:?}; swept {} orphan files ({} bytes); forward sub-shard bytes {before} -> {after}",
        report.cells_folded,
        started.elapsed(),
        report.files_swept,
        report.bytes_swept
    );
    Ok(())
}

/// Re-verify every blob the manifest references (checksums, structure),
/// quarantining corrupt referenced blobs and sweeping corrupt orphans.
/// Exits nonzero when corruption was found.
fn scrub(args: &Args) -> Result<(), String> {
    let dir = args.pos(0, "graph directory")?;
    let disk = OsDisk::new(dir).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let report = nxgraph_core::maintain::scrub(&disk).map_err(|e| e.to_string())?;
    println!(
        "scrubbed {} files ({} bytes) in {:?}: {} clean, {} orphaned, {} corrupt swept",
        report.files_scanned,
        report.bytes_scanned,
        started.elapsed(),
        report.clean,
        report.orphans,
        report.swept.len()
    );
    if !report.is_clean() {
        for name in &report.corrupt {
            eprintln!("CORRUPT (quarantined): {name}");
        }
        return Err(format!(
            "{} referenced blob(s) failed verification; re-prepare the graph or restore from backup",
            report.corrupt.len()
        ));
    }
    Ok(())
}

fn report(g: &PreparedGraph, stats: &nxgraph_core::engine::RunStats) {
    println!(
        "done: {:?} strategy, {} iterations, {:?}, {:.1} MTEPS, {} read / {} written",
        stats.strategy,
        stats.iterations,
        stats.elapsed,
        stats.mteps(),
        stats.io.read_bytes,
        stats.io.written_bytes
    );
    report_io_profile(g);
}

fn pagerank(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let cfg = engine_cfg(args)?;
    let iters = args.get_or("iters", 10usize)?;
    let top = args.get_or("top", 10usize)?;
    let (ranks, stats) = algo::pagerank(&g, iters, &cfg).map_err(|e| e.to_string())?;
    report(&g, &stats);
    let mapping = g.load_reverse_mapping().map_err(|e| e.to_string())?;
    let mut order: Vec<usize> = (0..ranks.len()).collect();
    order.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
    println!("top {top} vertices (original index: rank):");
    for &v in order.iter().take(top) {
        println!("  {}: {:.8}", mapping[v], ranks[v]);
    }
    Ok(())
}

fn bfs(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let cfg = engine_cfg(args)?;
    let root: u32 = args.get_or("root", 0u32)?;
    let (depths, stats) = algo::bfs(&g, root, &cfg).map_err(|e| e.to_string())?;
    report(&g, &stats);
    let reached = depths.iter().filter(|&&d| d != u32::MAX).count();
    println!(
        "bfs from id {root}: {reached}/{} reachable, max depth {:?}",
        depths.len(),
        algo::bfs::max_depth(&depths)
    );
    Ok(())
}

fn sssp(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let mut cfg = engine_cfg(args)?;
    cfg.max_iterations = g.num_vertices() as usize + 1;
    let root: u32 = args.get_or("root", 0u32)?;
    let prog = algo::Sssp::new(root, algo::sssp::hash_weights(1.0, 10.0));
    let (dist, stats) =
        nxgraph_core::engine::run(&g, &prog, &cfg).map_err(|e| e.to_string())?;
    report(&g, &stats);
    let reached = dist.iter().filter(|d| d.is_finite()).count();
    let max = dist.iter().filter(|d| d.is_finite()).fold(0.0f64, |a, &b| a.max(b));
    println!("sssp from id {root} (hash weights 1..10): {reached} reachable, max distance {max:.3}");
    Ok(())
}

fn wcc(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let cfg = engine_cfg(args)?;
    let (labels, stats) = algo::wcc(&g, &cfg).map_err(|e| e.to_string())?;
    report(&g, &stats);
    println!(
        "wcc: {} components, largest {}",
        algo::wcc::component_count(&labels),
        algo::wcc::largest_component(&labels)
    );
    Ok(())
}

fn scc(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let cfg = engine_cfg(args)?;
    let out = algo::scc(&g, &cfg).map_err(|e| e.to_string())?;
    let mut labels = out.labels.clone();
    labels.sort_unstable();
    labels.dedup();
    println!(
        "scc: {} components in {} rounds, {} engine iterations, {:?}",
        labels.len(),
        out.rounds,
        out.iterations,
        out.elapsed
    );
    Ok(())
}

fn hits(args: &Args) -> Result<(), String> {
    let g = open(args)?;
    let cfg = engine_cfg(args)?;
    let iters = args.get_or("iters", 10usize)?;
    let top = args.get_or("top", 5usize)?;
    let out = algo::hits(&g, iters, &cfg).map_err(|e| e.to_string())?;
    let mapping = g.load_reverse_mapping().map_err(|e| e.to_string())?;
    let mut order: Vec<usize> = (0..out.authorities.len()).collect();
    order.sort_by(|&a, &b| out.authorities[b].total_cmp(&out.authorities[a]));
    println!("hits ({} iterations, {:?}): top {top} authorities:", out.iterations, out.elapsed);
    for &v in order.iter().take(top) {
        println!("  {}: auth {:.6} hub {:.6}", mapping[v], out.authorities[v], out.hubs[v]);
    }
    Ok(())
}

/// Mixed read/update serving demo: concurrent point queries over pinned
/// snapshots while update batches commit through the writer.
fn serve(args: &Args) -> Result<(), String> {
    use nxgraph_core::dynamic::DynamicConfig;
    use nxgraph_core::{GraphService, Query, ServeConfig, ServeError};

    let g = open(args)?;
    let n = g.num_vertices();
    if n == 0 {
        return Err("cannot serve an empty graph".into());
    }
    let known = g.load_reverse_mapping().map_err(|e| e.to_string())?;
    let queries = args.get_or("queries", 64usize)?;
    let readers = args.get_or("readers", 2usize)?.max(1);
    let update_batches = args.get_or("update-batches", 4usize)?;
    let batch_size = args.get_or("batch-size", 64usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let cfg = ServeConfig {
        max_concurrent: args.get_or("max-concurrent", 4usize)?,
        query_budget: args.get_or("query-budget-mib", 64u64)? << 20,
        total_budget: args
            .get::<u64>("total-budget-mib")?
            .map_or(u64::MAX, |m| m << 20),
        threads: args.get_or("query-threads", 1usize)?,
        ..ServeConfig::default()
    };
    // Background folds: the serving configuration.
    let dg = nxgraph_core::dynamic::DynamicGraph::with_config(g, DynamicConfig::background())
        .map_err(|e| e.to_string())?;
    let svc = GraphService::new(dg, cfg).map_err(|e| e.to_string())?;

    // SplitMix64: deterministic query/update streams without a rand dep.
    let mix = |state: &mut u64| -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    };
    let query_for = |k: u64| -> Query {
        let mut s = seed ^ (k << 1);
        let a = (mix(&mut s) % n as u64) as u32;
        let b = (mix(&mut s) % n as u64) as u32;
        match k % 4 {
            0 => Query::Bfs { root: a, target: b },
            1 => Query::Sssp { root: a, target: b },
            2 => Query::PprFromSeed { seed: a, iterations: 5, k: 8 },
            _ => Query::PageRankTopK { iterations: 3, k: 8 },
        }
    };

    let started = std::time::Instant::now();
    let rejected = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for r in 0..readers {
            let svc = &svc;
            let rejected = &rejected;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut k = r as u64;
                while k < queries as u64 {
                    match svc.run_query(&query_for(k)) {
                        Ok(_) => {}
                        Err(ServeError::Busy { .. }) | Err(ServeError::OutOfMemory { .. }) => {
                            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            std::thread::yield_now();
                            continue; // retry the same query
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                    k += readers as u64;
                }
                Ok(())
            }));
        }
        // The writer runs on this thread: known-vertex batches, so every
        // commit takes the incremental path (a rebuild would wait for all
        // reader snapshots to drop).
        let mut s = seed ^ 0x57ea11;
        for _ in 0..update_batches {
            let batch: Vec<(u64, u64)> = (0..batch_size)
                .map(|_| {
                    let a = known[(mix(&mut s) % known.len() as u64) as usize];
                    let b = known[(mix(&mut s) % known.len() as u64) as usize];
                    (a, b)
                })
                .collect();
            svc.add_edges(&batch).map_err(|e| e.to_string())?;
        }
        for h in handles {
            h.join().map_err(|_| "reader thread panicked".to_string())??;
        }
        Ok(())
    })?;
    svc.with_writer(|dg| dg.wait_maintenance_idle())
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    let stats = svc.stats();
    println!(
        "served {} queries ({} readers) in {:?}: {:.1} queries/sec",
        stats.completed,
        readers,
        elapsed,
        stats.completed as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "admission: {} admitted, {} rejected busy, {} rejected budget ({} retried arrivals), {} errors",
        stats.admitted,
        stats.rejected_busy,
        stats.rejected_budget,
        rejected.load(std::sync::atomic::Ordering::Relaxed),
        stats.errors
    );
    println!(
        "snapshots: max commit lag {} epochs; final epoch {}; over-releases {}",
        stats.max_snapshot_lag,
        svc.current_epoch(),
        nxgraph_storage::global_over_releases()
    );
    Ok(())
}
