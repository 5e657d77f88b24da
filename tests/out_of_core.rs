//! Out-of-core equivalence tests: `O_DIRECT` reads and page-cache drops
//! change *how* bytes reach memory, never *which* bytes or what is
//! computed from them. A graph read back through `O_DIRECT` must be
//! byte-for-byte the graph the buffered path sees.

use std::sync::Arc;

use nxgraph::core::algo;
use nxgraph::core::engine::{EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, preprocess_streamed, PrepConfig};
use nxgraph::core::PreparedGraph;
use nxgraph::graphgen::rmat::{self, RmatConfig};
use nxgraph::storage::{BufferPool, Disk, DiskConfig, EncodingPolicy, OsDisk, ScratchDir};

fn raw_edges(scale: u32, seed: u64) -> Vec<(u64, u64)> {
    rmat::generate(&RmatConfig::graph500(scale, 6, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect()
}

/// Six PageRank iterations collapsed to a bit-exact fingerprint.
fn pagerank_bits(g: &PreparedGraph, cfg: &EngineConfig) -> Vec<u64> {
    let (ranks, _) = algo::pagerank(g, 6, &cfg.clone().with_max_iterations(6)).unwrap();
    ranks.into_iter().map(f64::to_bits).collect()
}

#[test]
fn direct_and_buffered_reads_are_byte_identical() {
    let scratch = ScratchDir::new("ooc-direct");
    let dir = scratch.path();
    let raw = raw_edges(8, 43);
    {
        let disk: Arc<dyn Disk> = Arc::new(OsDisk::new(dir).unwrap());
        let cfg = PrepConfig::new("direct", 4).with_encoding(EncodingPolicy::Compressed);
        preprocess(&raw, &cfg, disk).unwrap();
    }
    let buffered = Arc::new(OsDisk::new(dir).unwrap());
    let direct = Arc::new(
        OsDisk::with_config(dir, DiskConfig { direct_reads: true }).unwrap(),
    );

    // Every blob — manifests, degree tables, sub-shards of every length,
    // aligned or not — reads back byte-for-byte identical, even though
    // the direct path reads in whole aligned blocks and trims the tail.
    let pool = BufferPool::new();
    let mut names = buffered.list();
    names.sort();
    assert!(!names.is_empty());
    for name in &names {
        let a = buffered.read_shared(name, &pool).unwrap();
        let b = direct.read_shared(name, &pool).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "{name} differs under O_DIRECT");
    }
    // Where the platform honoured O_DIRECT the profile shows direct
    // reads; where it refused, fallbacks — never silence.
    let io = direct.io_profile().unwrap().snapshot();
    assert!(
        io.direct_reads + io.direct_fallbacks > 0,
        "direct disk did neither direct reads nor fallbacks: {io:?}"
    );

    // And a full run over the O_DIRECT disk lands on exactly the bits of
    // the buffered run.
    let g_buf = PreparedGraph::open(buffered as Arc<dyn Disk>).unwrap();
    let g_dir = PreparedGraph::open(direct as Arc<dyn Disk>).unwrap();
    let base = EngineConfig::default()
        .with_strategy(Strategy::Spu)
        .with_budget(0)
        .with_threads(3);
    let want = pagerank_bits(&g_buf, &base);
    let got = pagerank_bits(&g_dir, &base);
    assert_eq!(want, got, "O_DIRECT changed PageRank bits");
}

#[test]
fn streamed_rmat_store_builds_on_a_direct_disk() {
    // The out-of-core store recipe: R-MAT generated in chunks and sharded
    // by streamed prep, so the whole edge list is never resident, onto a
    // disk that reads through `O_DIRECT`.
    let scratch = ScratchDir::new("ooc-stream");
    let disk = Arc::new(
        OsDisk::with_config(scratch.path(), DiskConfig { direct_reads: true }).unwrap(),
    );
    let rcfg = RmatConfig::graph500(6, 4, 7);
    let chunks = rmat::generate_chunked(&rcfg, 64).map(|chunk| {
        chunk
            .into_iter()
            .map(|e| (e.src as u32, e.dst as u32))
            .collect::<Vec<_>>()
    });
    let cfg = PrepConfig::forward_only("stream", 4).with_encoding(EncodingPolicy::Auto);
    let g = preprocess_streamed(
        rcfg.num_vertices() as u32,
        chunks,
        &cfg,
        Arc::clone(&disk) as Arc<dyn Disk>,
    )
    .unwrap();
    assert_eq!(g.num_vertices(), 1 << 6);
    assert_eq!(g.num_edges(), 4 << 6);
    assert!(!g.has_reverse());
    assert!(disk.config().direct_reads);
}

#[test]
fn cold_cache_drops_are_graceful_mid_run() {
    // Dropping the page cache between runs (a cold-cache measurement)
    // must never change results — only timings.
    let scratch = ScratchDir::new("ooc-cold");
    let dir = scratch.path();
    let raw = raw_edges(7, 47);
    let os = {
        let os = Arc::new(OsDisk::new(dir).unwrap());
        let disk: Arc<dyn Disk> = Arc::clone(&os) as Arc<dyn Disk>;
        let cfg = PrepConfig::new("cold", 4).with_encoding(EncodingPolicy::Auto);
        preprocess(&raw, &cfg, disk).unwrap();
        os
    };
    let g = PreparedGraph::open(Arc::clone(&os) as Arc<dyn Disk>).unwrap();
    let cfg = EngineConfig::default().with_strategy(Strategy::Spu).with_budget(0);
    let want = pagerank_bits(&g, &cfg);
    os.drop_all_page_cache();
    let got = pagerank_bits(&g, &cfg);
    assert_eq!(want, got);
    let io = os.io_profile().unwrap().snapshot();
    assert!(io.cache_drops > 0, "drop_all_page_cache counted nothing");
}
