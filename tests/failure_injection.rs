//! Failure-path tests: disk faults must surface as errors, never as wrong
//! results or hangs; corrupt files must be rejected at load.

use std::sync::Arc;

use nxgraph::core::algo;
use nxgraph::core::dsss::SubShardView;
use nxgraph::core::engine::{EngineConfig, Strategy};
use nxgraph::core::prep::{preprocess, PrepConfig};
use nxgraph::core::{EngineError, PreparedGraph};
use nxgraph::storage::format::{self, Encoding, FileKind};
use nxgraph::storage::manifest::{GraphManifest, MANIFEST_FILE};
use nxgraph::storage::{
    BufferPool, Disk, EncodingPolicy, FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule, MemDisk,
    SharedBytes, StorageError,
};

fn raw_edges() -> Vec<(u64, u64)> {
    nxgraph::core::fig1_example_edges()
        .into_iter()
        .map(|(s, d)| (s as u64, d as u64))
        .collect()
}

#[test]
fn preprocessing_fails_cleanly_on_exhausted_disk() {
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    // Enough for a few files, then every write fails with ENOSPC.
    let plan = FaultPlan::new().with_enospc_after(256);
    let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(inner, plan));
    let err = preprocess(&raw_edges(), &PrepConfig::new("faulty", 4), disk);
    assert!(err.is_err(), "must surface the injected fault");
}

#[test]
fn dpu_run_fails_cleanly_when_disk_dies_mid_run() {
    // Healthy disk for preprocessing…
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(
        &raw_edges(),
        &PrepConfig::new("mid", 4),
        Arc::clone(&inner),
    )
    .unwrap();
    drop(g);
    // …then reopen through a fault injector under which every sub-shard
    // read fails from its third access on — for good, so no retry budget
    // outlasts it: the disk dies in iteration three.
    let plan = FaultPlan::new().with_rule(FaultRule {
        name_contains: "ss_".into(),
        op: FaultOp::Read,
        kind: FaultKind::ReadError,
        first: 2,
        count: u64::MAX,
    });
    let faulty: Arc<dyn Disk> = Arc::new(FaultDisk::new(inner, plan));
    let g = PreparedGraph::open(faulty).unwrap();
    let cfg = EngineConfig::default().with_strategy(Strategy::Dpu);
    let res = algo::pagerank(&g, 10, &cfg);
    match res {
        Err(EngineError::Storage(_)) => {}
        other => panic!("expected a storage error, got {other:?}"),
    }
}

/// A run that fails mid-iteration leaves its hub files behind. The next
/// run on the same graph must read only the hubs it wrote itself, so its
/// values are bitwise those of a run on a clean store.
#[test]
fn a_failed_run_leaves_no_hub_for_the_next_to_read() {
    let sssp = |g: &PreparedGraph, threads: usize| {
        let prog = algo::Sssp::new(3, algo::sssp::unit_weights());
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Dpu)
            .with_threads(threads)
            .with_max_iterations(g.num_vertices() as usize + 1);
        nxgraph::core::engine::run(g, &prog, &cfg).unwrap().0
    };
    for threads in [1usize, 3] {
        let clean = preprocess(
            &raw_edges(),
            &PrepConfig::new("clean", 4),
            Arc::new(MemDisk::new()),
        )
        .unwrap();
        let want = sssp(&clean, threads);
        assert_eq!(want, [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0]);

        let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
        preprocess(&raw_edges(), &PrepConfig::new("poisoned", 4), Arc::clone(&inner)).unwrap();
        // One failed read of interval 3 kills PageRank after some of its
        // hubs are written; the fault does not recur.
        let plan = FaultPlan::new().with_rule(FaultRule {
            name_contains: "interval_3".into(),
            op: FaultOp::ReadAll,
            kind: FaultKind::ReadError,
            first: 0,
            count: 1,
        });
        let g = PreparedGraph::open(Arc::new(FaultDisk::new(inner, plan))).unwrap();
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Dpu)
            .with_threads(threads);
        assert!(algo::pagerank(&g, 5, &cfg).is_err(), "the injected fault must fail the run");
        let got = sssp(&g, threads);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "threads={threads}: {got:?}");
    }
}

#[test]
fn short_read_is_a_distinct_error_with_lengths() {
    let inner: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw_edges(), &PrepConfig::new("sr", 2), Arc::clone(&inner)).unwrap();
    // Every sub-shard read delivers half its bytes, for good — the
    // canonical short-read / early-EOF fault (a file truncated behind the
    // reader's back, a device returning less than its metadata claims),
    // which no retry budget outlasts.
    let plan = FaultPlan::new().with_rule(FaultRule {
        name_contains: "ss_".into(),
        op: FaultOp::Read,
        kind: FaultKind::ShortRead,
        first: 0,
        count: u64::MAX,
    });
    let disk: Arc<dyn Disk> = Arc::new(FaultDisk::new(inner, plan));

    // The raw read primitive names the file and both byte counts.
    let name = GraphManifest::subshard_file(1, 0);
    let full = disk.len_of(&name).unwrap();
    let mut buf = nxgraph::storage::AlignedBuf::with_capacity(0);
    match disk.read_into(&name, &mut buf) {
        Err(StorageError::ShortRead {
            name: n,
            expected,
            actual,
        }) => {
            assert_eq!(n, name);
            assert_eq!(expected, full);
            assert_eq!(actual, full / 2);
        }
        other => panic!("expected ShortRead, got {other:?}"),
    }
    let msg = disk.read_into(&name, &mut buf).unwrap_err().to_string();
    assert!(
        msg.contains(&name) && msg.contains(&full.to_string()),
        "unhelpful short-read message: {msg}"
    );

    // End to end: whole runs fail with the same distinct error — inline
    // and on the read pipeline's ring alike.
    let g = PreparedGraph::open(disk).unwrap();
    for cfg in [
        EngineConfig::default().with_strategy(Strategy::Dpu).with_threads(1),
        EngineConfig::default().with_strategy(Strategy::Dpu).with_threads(3),
        EngineConfig::default()
            .with_strategy(Strategy::Spu)
            .with_budget(0)
            .with_threads(3),
    ] {
        let res = algo::pagerank(&g, 3, &cfg);
        match res {
            Err(EngineError::Storage(StorageError::ShortRead { .. })) => {}
            other => panic!("expected ShortRead to surface, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_subshard_is_rejected() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw_edges(), &PrepConfig::new("corrupt", 2), Arc::clone(&disk)).unwrap();
    // Flip bytes in one sub-shard file.
    let name = GraphManifest::subshard_file(1, 0);
    let mut bytes = disk.read_all(&name).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    disk.write_all_to(&name, &bytes).unwrap();
    let err = g.load_subshard(1, 0, false);
    assert!(err.is_err(), "checksum must catch the corruption");
}

#[test]
fn corrupt_subshard_view_is_rejected_on_every_load() {
    // The verify-once checksum policy must not be disarmed by a *failed*
    // first load: a corrupt file stays detected on retry.
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw_edges(), &PrepConfig::new("cv", 2), Arc::clone(&disk)).unwrap();
    let name = GraphManifest::subshard_file(1, 0);
    let mut bytes = disk.read_all(&name).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    disk.write_all_to(&name, &bytes).unwrap();
    assert!(g.view_loader().load_subshard(1, 0, false).is_err());
    assert!(
        g.view_loader().load_subshard(1, 0, false).is_err(),
        "retry must still verify the never-successfully-loaded file"
    );
}

#[test]
fn corrupt_hub_is_rejected_even_after_prior_reads() {
    // Hubs are rewritten every iteration under the same name, so hub
    // reads verify every time (the verify-once skip is only for the
    // immutable sub-shard files).
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw_edges(), &PrepConfig::new("ch", 2), Arc::clone(&disk)).unwrap();
    g.write_hub(0, 1, &[4, 5], &[0.25f64, 0.75]).unwrap();
    assert!(g.read_hub_view::<f64>(0, 1).is_ok());
    // "Next iteration": same name, fresh (corrupt) content.
    let name = GraphManifest::hub_file(0, 1);
    let mut bytes = disk.read_all(&name).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    disk.write_all_to(&name, &bytes).unwrap();
    assert!(
        g.read_hub_view::<f64>(0, 1).is_err(),
        "rewritten hub must be checksummed on every read"
    );
}

#[test]
fn corrupt_compressed_subshard_is_rejected() {
    // Same contract as the raw path, for delta+varint (v3) blobs: a byte
    // flip is caught by the checksum, and stays caught on retry.
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let cfg = PrepConfig::new("cv3", 2).with_encoding(EncodingPolicy::Compressed);
    let g = preprocess(&raw_edges(), &cfg, Arc::clone(&disk)).unwrap();
    let name = GraphManifest::subshard_file(1, 0);
    let mut bytes = disk.read_all(&name).unwrap();
    assert_eq!(bytes[8], 3, "fixture must actually be a v3 blob");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    disk.write_all_to(&name, &bytes).unwrap();
    assert!(g.view_loader().load_subshard(1, 0, false).is_err());
    assert!(g.view_loader().load_subshard(1, 0, false).is_err(), "retry must re-verify");
    assert!(g.load_subshard(1, 0, false).is_err());
}

#[test]
fn truncated_compressed_subshard_is_rejected() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let cfg = PrepConfig::new("tv3", 2).with_encoding(EncodingPolicy::Compressed);
    let g = preprocess(&raw_edges(), &cfg, Arc::clone(&disk)).unwrap();
    let name = GraphManifest::subshard_file(1, 0);
    let bytes = disk.read_all(&name).unwrap();
    for cut in [16usize, 33, bytes.len() - 1] {
        disk.write_all_to(&name, &bytes[..cut]).unwrap();
        assert!(g.view_loader().load_subshard(1, 0, false).is_err(), "cut at {cut}");
        assert!(g.load_subshard(1, 0, false).is_err(), "cut at {cut}");
    }
}

#[test]
fn corrupt_varint_stream_is_a_clean_format_error() {
    // A v3 blob whose *checksum is valid* but whose varint stream is
    // garbage: the decoder must surface a clean Corrupt error — never a
    // panic, hang or silently wrong arrays. Header claims 2 dsts and 3
    // edges; the stream is runaway continuation bytes.
    let mut payload = Vec::new();
    for w in [0u32, 0, 2, 3] {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.extend_from_slice(&[0x80; 7]);
    let mut blob = Vec::new();
    format::write_blob_encoded(&mut blob, FileKind::SubShard, &payload, Encoding::DeltaVarint)
        .unwrap();
    let err = SubShardView::parse(SharedBytes::from(blob.clone()), "garbage", true).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    // The pooled inflate path (the engines' streamed loads) rejects it too.
    let pool = BufferPool::new();
    let pooled = SubShardView::parse_pooled(SharedBytes::from(blob), "garbage", true, Some(&pool));
    assert!(pooled.is_err());

    // A stream that decodes but contradicts its own header (degrees sum
    // to 1, header says 3 edges) is rejected too.
    let mut payload = Vec::new();
    for w in [0u32, 0, 1, 3] {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.extend_from_slice(&[1, 1, 1, 1, 1]); // dst gap, degree=1, srcs…
    let mut blob = Vec::new();
    format::write_blob_encoded(&mut blob, FileKind::SubShard, &payload, Encoding::DeltaVarint)
        .unwrap();
    let err = SubShardView::parse(SharedBytes::from(blob), "lying", true).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Delta-chain failure paths: a broken chain must always be a clean error
// (or be invisible, for unreferenced leftovers) — never wrong results.
// ---------------------------------------------------------------------------

/// A prepared graph with one committed delta-log batch (compaction held
/// off so the chain stays on disk), plus the name of one delta blob.
fn chained_graph() -> (Arc<dyn Disk>, nxgraph::core::dynamic::DynamicGraph, u32, u32, String) {
    use nxgraph::core::dynamic::{DynamicConfig, DynamicGraph};
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw_edges(), &PrepConfig::new("chain", 2), Arc::clone(&disk)).unwrap();
    let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
    dg.add_edges(&[(0, 4), (5, 1), (2, 6)]).unwrap();
    let (i, j, reverse, info) = dg
        .graph()
        .manifest()
        .chains()
        .unwrap()
        .into_iter()
        .find(|c| !c.2 && c.3.deltas > 0)
        .expect("a forward chain must exist");
    assert!(!reverse);
    let name = GraphManifest::subshard_delta_file(i, j, false, info.gen, 1);
    assert!(disk.exists(&name), "{name} must be on disk");
    (disk, dg, i, j, name)
}

#[test]
fn corrupt_or_truncated_delta_blob_is_rejected() {
    let (disk, dg, i, j, name) = chained_graph();
    let good = disk.read_all(&name).unwrap();
    // Byte flip: caught by the checksum, on the view and the owned path,
    // and still caught on retry (verify-once must not disarm on failure).
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    disk.write_all_to(&name, &bad).unwrap();
    assert!(dg.graph().view_loader().load_subshard(i, j, false).is_err());
    assert!(dg.graph().view_loader().load_subshard(i, j, false).is_err(), "retry must re-verify");
    assert!(dg.graph().load_subshard(i, j, false).is_err());
    // Truncations at several depths are clean errors too.
    for cut in [10usize, 33, good.len() - 2] {
        disk.write_all_to(&name, &good[..cut]).unwrap();
        assert!(dg.graph().view_loader().load_subshard(i, j, false).is_err(), "cut {cut}");
    }
    // A blob that is valid but belongs to a *different cell* is rejected
    // by the chain check, not silently merged.
    let alien = SubShardView::from_edges(1, 1, vec![(4, 4)]).encode_with(EncodingPolicy::Raw);
    disk.write_all_to(&name, &alien).unwrap();
    let err = dg.graph().view_loader().load_subshard(i, j, false).unwrap_err();
    assert!(err.to_string().contains("chain expects"), "{err}");
    // Restoring the real bytes heals the chain.
    disk.write_all_to(&name, &good).unwrap();
    assert!(dg.graph().view_loader().load_subshard(i, j, false).is_ok());
}

#[test]
fn a_fold_never_launders_corruption() {
    // Owned-path reads (the fold, `raw_edges`) verify every part on every
    // load, even a name the engines' verify-once policy already trusts:
    // folding unverified bytes into a new base would re-checksum the
    // corruption and make it permanent.
    let (disk, mut dg, i, j, name) = chained_graph();
    let cfg = EngineConfig::default().with_max_iterations(2);
    algo::pagerank(dg.graph(), 2, &cfg).unwrap();
    // Flip the top byte of the delta's last source id: still a sorted,
    // well-formed sub-shard, so only the checksum can tell.
    let mut bad = disk.read_all(&name).unwrap();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    disk.write_all_to(&name, &bad).unwrap();
    assert!(
        dg.graph().view_loader().load_subshard(i, j, false).is_ok(),
        "the streamed path verified this name once and skips the hash"
    );
    let manifest = disk.read_all(MANIFEST_FILE).unwrap();
    let err = dg.compact().unwrap_err();
    assert!(matches!(err, EngineError::Storage(StorageError::Corrupt { .. })), "{err}");
    assert_eq!(disk.read_all(MANIFEST_FILE).unwrap(), manifest, "manifest must not move");
    assert!(dg.raw_edges().is_err());
}

#[test]
fn manifest_listing_a_missing_delta_is_a_clean_error() {
    let (disk, dg, i, j, name) = chained_graph();
    disk.remove(&name).unwrap();
    // Loads and whole runs fail cleanly — no panic, no silently dropped
    // edges.
    assert!(dg.graph().view_loader().load_subshard(i, j, false).is_err());
    assert!(dg.graph().load_subshard(i, j, false).is_err());
    let res = algo::pagerank(dg.graph(), 3, &EngineConfig::default());
    assert!(
        matches!(res, Err(EngineError::Storage(StorageError::NotFound(_)))),
        "{res:?}"
    );
}

#[test]
fn stale_compaction_leftovers_never_change_results() {
    // Crash window 1: the fold wrote the next-generation base but died
    // before the manifest save. The manifest still references the old
    // chain, so the leftover is invisible and results are unchanged.
    let (disk, dg, i, j, _name) = chained_graph();
    let cfg = EngineConfig::default().with_max_iterations(4);
    let want = algo::pagerank(dg.graph(), 4, &cfg).unwrap().0;
    let info = dg.graph().chain_info(i, j, false);
    let leftover = GraphManifest::subshard_base_file(i, j, false, info.gen + 1);
    // Write plausible-but-wrong content (missing the delta edges) where a
    // crashed fold would have put the merged blob; a *referenced* file
    // with this content would change PageRank.
    let wrong = SubShardView::from_edges(i, j, vec![(0, 0)]).encode_with(EncodingPolicy::Raw);
    disk.write_all_to(&leftover, &wrong).unwrap();
    let graph = nxgraph::core::PreparedGraph::open(Arc::clone(&disk)).unwrap();
    assert_eq!(algo::pagerank(&graph, 4, &cfg).unwrap().0, want);

    // Crash window 2: the fold saved the manifest but died before
    // sweeping the superseded chain files. The stale old-generation base
    // and delta blobs are ignored; results match a clean fold.
    let (disk, mut dg, i, j, delta_name) = chained_graph();
    let want = algo::pagerank(dg.graph(), 4, &cfg).unwrap().0;
    let old_base = disk.read_all(&GraphManifest::subshard_base_file(i, j, false, 0)).unwrap();
    let old_delta = disk.read_all(&delta_name).unwrap();
    assert!(dg.compact().unwrap().cells_folded > 0);
    // Re-create the stale files the sweep would have removed.
    disk.write_all_to(&GraphManifest::subshard_base_file(i, j, false, 0), &old_base).unwrap();
    disk.write_all_to(&delta_name, &old_delta).unwrap();
    let graph = nxgraph::core::PreparedGraph::open(Arc::clone(&disk)).unwrap();
    assert_eq!(algo::pagerank(&graph, 4, &cfg).unwrap().0, want);
    // And the next compact() garbage-collects both leftovers for good:
    // the orphaned delta blob and the superseded plain gen-0 base (its
    // cell's chain lives at a later generation now).
    let mut dg2 = nxgraph::core::dynamic::DynamicGraph::new(graph).unwrap();
    dg2.add_edges(&[(0, 4)]).unwrap();
    let report = dg2.compact().unwrap();
    assert!(
        !disk.exists(&delta_name),
        "orphaned {delta_name} must be swept by compact()"
    );
    assert!(
        !disk.exists(&GraphManifest::subshard_base_file(i, j, false, 0)),
        "superseded gen-0 base must be swept by compact()"
    );
    assert!(report.files_swept >= 2 && report.bytes_swept > 0);
}

#[test]
fn golden_v2_subshard_blob_still_loads() {
    // Byte-for-byte output of the format-v2 writer (PR 3 era) for the
    // sample sub-shard SS(2→1) with edges 5→3, 4→3, 5→2, 4→3, 9→2.
    // Pinned so v3 writers/readers stay backward-compatible: if this test
    // fails, existing prepared graphs on disk would no longer open.
    const GOLDEN_V2: [u8; 88] = [
        0x4e, 0x58, 0x47, 0x52, 0x41, 0x50, 0x48, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x38, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x53, 0x3b, 0x15, 0x18, 0x4d, 0xc2, 0xec, 0x8d, 0x02, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x09, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x05, 0x00, 0x00, 0x00,
    ];
    let want = SubShardView::from_edges(2, 1, vec![(5, 3), (4, 3), (5, 2), (4, 3), (9, 2)]);
    // Today's raw writer still produces exactly these bytes…
    assert_eq!(want.encode_with(EncodingPolicy::Raw), GOLDEN_V2, "raw v2 writer output changed");
    // …and the view parser loads them with full checksum verification.
    let view = SubShardView::parse(SharedBytes::from(GOLDEN_V2.to_vec()), "golden", true).unwrap();
    assert_eq!(view, want);
    assert_eq!(view.dsts(), &[2, 3]);
    assert_eq!(view.offsets(), &[0, 2, 5]);
    assert_eq!(view.srcs(), &[5, 9, 4, 4, 5]);
}

#[test]
fn golden_v3_subshard_and_hub_blobs_still_load() {
    // Byte-for-byte output of the delta+varint (format v3) writers, pinned
    // so the one encoder and the one decoder cannot drift together behind
    // a passing round trip. Same sample sub-shard as the v2 golden above.
    const GOLDEN_V3_SS: [u8; 57] = [
        // Header: magic, version 3, kind SubShard, payload length 25,
        // word-wise FNV-1a checksum.
        0x4e, 0x58, 0x47, 0x52, 0x41, 0x50, 0x48, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x19, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x0c, 0x26, 0x7e, 0x92, 0xf4, 0xa8, 0xad, 0x23,
        // src_interval 2, dst_interval 1, num_dsts 2, num_edges 5.
        0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x05, 0x00, 0x00, 0x00,
        // Varint dsts 2 (+1), degrees 2 3, srcs 5 (+4) | 4 (+0) (+1).
        0x02, 0x01, 0x02, 0x03, 0x05, 0x04, 0x04, 0x00, 0x01,
    ];
    let want = SubShardView::from_edges(2, 1, vec![(5, 3), (4, 3), (5, 2), (4, 3), (9, 2)]);
    assert_eq!(
        want.encode_with(EncodingPolicy::Compressed),
        GOLDEN_V3_SS,
        "v3 sub-shard writer output changed"
    );
    let view = SubShardView::parse(SharedBytes::from(GOLDEN_V3_SS.to_vec()), "golden", true);
    assert_eq!(view.unwrap(), want);

    // A 2-entry f64 hub H(0→1): dsts 4, 5 and accumulators 0.25, 0.75.
    const GOLDEN_V3_HUB: [u8; 54] = [
        // Header: magic, version 3, kind Hub, payload length 22, checksum.
        0x4e, 0x58, 0x47, 0x52, 0x41, 0x50, 0x48, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xae, 0x72, 0xcc, 0x3c, 0xb0, 0xcd, 0x3f, 0x49,
        // count 2, varint dsts 4 (+1), raw f64 accumulators 0.25 and 0.75.
        0x02, 0x00, 0x00, 0x00, 0x04, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f,
    ];
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let mut g = preprocess(&raw_edges(), &PrepConfig::new("gh", 2), Arc::clone(&disk)).unwrap();
    g.set_encoding_policy(EncodingPolicy::Compressed);
    g.write_hub(0, 1, &[4, 5], &[0.25f64, 0.75]).unwrap();
    let name = GraphManifest::hub_file(0, 1);
    assert_eq!(disk.read_all(&name).unwrap(), GOLDEN_V3_HUB, "v3 hub writer output changed");
    let hub = g.read_hub_view::<f64>(0, 1).unwrap();
    assert_eq!(hub.dsts(), &[4, 5]);
    assert_eq!((hub.acc(0), hub.acc(1)), (0.25, 0.75));
}

#[test]
fn corrupt_manifest_is_rejected() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    preprocess(&raw_edges(), &PrepConfig::new("m", 4), Arc::clone(&disk)).unwrap();
    let good = String::from_utf8(disk.read_all(MANIFEST_FILE).unwrap()).unwrap();
    let intervals = |p: &str| good.replace("num_intervals = 4", &format!("num_intervals = {p}"));
    // A garbled line, and interval counts of 0 and of 2^32 + 1 (which an
    // `as u32` cast would read as 1).
    for text in [
        "name = broken\nnot a manifest".to_string(),
        intervals("0"),
        intervals("4294967297"),
    ] {
        assert_ne!(text, good);
        disk.write_all_to(MANIFEST_FILE, text.as_bytes()).unwrap();
        match PreparedGraph::open(Arc::clone(&disk)) {
            Err(EngineError::Storage(StorageError::Manifest { line, .. })) => assert!(line > 0),
            other => panic!("{text:?}: expected a manifest error, got {:?}", other.err()),
        }
    }
}

#[test]
fn missing_reverse_shards_is_a_clear_error() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(
        &raw_edges(),
        &PrepConfig::forward_only("fwd", 2),
        disk,
    )
    .unwrap();
    let err = algo::wcc(&g, &EngineConfig::default());
    match err {
        Err(EngineError::Invalid(msg)) => {
            assert!(msg.contains("reverse"), "unhelpful message: {msg}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let err = algo::scc(&g, &EngineConfig::default());
    assert!(matches!(err, Err(EngineError::Invalid(_))));
}

#[test]
fn zero_iterations_is_rejected() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let g = preprocess(&raw_edges(), &PrepConfig::new("z", 2), disk).unwrap();
    let res = algo::pagerank(&g, 0, &EngineConfig::default());
    assert!(matches!(res, Err(EngineError::Invalid(_))));
}

#[test]
fn empty_graph_is_rejected_at_prep() {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    let res = preprocess(&[], &PrepConfig::new("empty", 2), disk);
    assert!(matches!(res, Err(EngineError::Invalid(_))));
}

