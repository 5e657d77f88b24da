//! Property-based tests over random graphs: the three update strategies
//! and the oracles must agree for every program, and the DSSS structural
//! invariants must hold for every input.

use std::sync::Arc;

use proptest::prelude::*;

use nxgraph::core::algo;
use nxgraph::core::dsss::{merge_edges, MergedSubShardView, SubShardView};
use nxgraph::core::dynamic::{DynamicConfig, DynamicGraph};
use nxgraph::core::engine::{EngineConfig, Strategy as UpdateStrategy};
use nxgraph::core::parallel::split_ranges;
use nxgraph::core::prep::{self, PrepConfig};
use nxgraph::core::reference;
use nxgraph::core::PreparedGraph;
use nxgraph::core::maintain;
use nxgraph::storage::{Disk, EncodingPolicy, GraphManifest, MemDisk, SharedBytes};

/// A random small graph: up to 40 vertices, up to 200 edges (duplicates
/// and self-loops included, as in raw crawls).
fn arb_graph() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (2u64..40, 1usize..200)
        .prop_flat_map(|(n, m)| {
            proptest::collection::vec((0..n, 0..n), m)
        })
        .prop_map(|edges| edges.into_iter().collect())
}

fn prepare(raw: &[(u64, u64)], p: u32) -> PreparedGraph {
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
    prep::preprocess(raw, &PrepConfig::new("prop", p), disk).unwrap()
}

fn dense(raw: &[(u64, u64)]) -> (u32, Vec<(u32, u32)>) {
    let mut idx: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
    idx.sort_unstable();
    idx.dedup();
    let edges = raw
        .iter()
        .map(|&(s, d)| {
            (
                idx.binary_search(&s).unwrap() as u32,
                idx.binary_search(&d).unwrap() as u32,
            )
        })
        .collect();
    (idx.len() as u32, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharding_partitions_every_edge_exactly_once(raw in arb_graph(), p in 1u32..9) {
        let g = prepare(&raw, p);
        let (_, mut edges) = dense(&raw);
        let mut collected = Vec::new();
        for i in 0..p {
            for j in 0..p {
                let ss = g.load_subshard(i, j, false).unwrap();
                ss.validate("prop").unwrap();
                for (s, d) in ss.iter_edges() {
                    prop_assert!(g.interval_range(i).contains(&s));
                    prop_assert!(g.interval_range(j).contains(&d));
                    collected.push((s, d));
                }
            }
        }
        edges.sort_unstable();
        collected.sort_unstable();
        prop_assert_eq!(collected, edges);
    }

    #[test]
    fn view_parse_equals_owned_decode(raw in arb_graph()) {
        // The one decoder must give back exactly what the encoder was
        // handed, for arbitrary edge sets (duplicates and self-loops
        // included), under every write policy: raw v2 words, the adaptive
        // policy and forced delta+varint v3.
        let (_, edges) = dense(&raw);
        let ss = SubShardView::from_edges(0, 0, edges);
        for policy in [EncodingPolicy::Raw, EncodingPolicy::Auto, EncodingPolicy::Compressed] {
            let bytes = ss.encode_with(policy);
            let view = SubShardView::parse(SharedBytes::from(bytes.clone()), "prop", true).unwrap();
            prop_assert_eq!(view.num_edges(), ss.num_edges());
            prop_assert_eq!(&view, &ss);
            // A parsed view re-encodes to its own bytes.
            prop_assert_eq!(view.encode_with(policy), bytes);
        }

        // And the streamed (verify-once) loader agrees with the owned
        // (always-verify) one, end to end — for a raw-encoded and an
        // auto-encoded prepared graph alike.
        for encoding in [EncodingPolicy::Raw, EncodingPolicy::Auto] {
            let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
            let cfg = PrepConfig::new("prop", 3).with_encoding(encoding);
            let g = prep::preprocess(&raw, &cfg, disk).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    let v = g.view_loader().load_subshard(i, j, false).unwrap();
                    let o = g.load_subshard(i, j, false).unwrap();
                    prop_assert_eq!(v, o);
                }
            }
        }
    }

    #[test]
    fn delta_blobs_roundtrip_and_merge_equals_sorted_concat(
        base in proptest::collection::vec((0u32..32, 0u32..32), 0..60),
        d1 in proptest::collection::vec((0u32..32, 0u32..32), 1..30),
        d2 in proptest::collection::vec((0u32..32, 0u32..32), 1..30),
    ) {
        // A delta blob is an ordinary sub-shard blob: encode→parse must
        // round-trip under every policy…
        let delta = SubShardView::from_edges(0, 0, d1.clone());
        for policy in [EncodingPolicy::Raw, EncodingPolicy::Auto, EncodingPolicy::Compressed] {
            let blob = SharedBytes::from(delta.encode_with(policy));
            let view = SubShardView::parse(blob, "prop", true).unwrap();
            prop_assert_eq!(&view, &delta);
        }
        // …and merge-iterating base + deltas (the read side of a chain)
        // must equal a from-scratch build of the sorted concatenation.
        let parts = [
            SubShardView::from_edges(0, 0, base.clone()),
            delta,
            SubShardView::from_edges(0, 0, d2.clone()),
        ];
        let mut all = base;
        all.extend(&d1);
        all.extend(&d2);
        let want = SubShardView::from_edges(0, 0, all);
        let merged = MergedSubShardView::merge(&parts).into_view();
        prop_assert_eq!(&merged, &want);
        prop_assert_eq!(
            merge_edges(&parts).collect::<Vec<_>>(),
            want.iter_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn compaction_is_idempotent_and_preserves_the_graph(
        raw in arb_graph(),
        extra in proptest::collection::vec((0u64..40, 0u64..40), 1..40),
    ) {
        let g = prepare(&raw, 3);
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
        // Updates may touch unseen vertices, triggering the rebuild path —
        // also a valid commit; chains only exist for incremental commits.
        dg.add_edges(&extra).unwrap();
        let before = dg.raw_edges().unwrap();

        // First fold: every chain collapses, the edge multiset survives.
        dg.compact().unwrap();
        prop_assert!(dg.graph().manifest().chains().unwrap().iter().all(|c| c.3.deltas == 0));
        let mut a = dg.raw_edges().unwrap();
        let mut b = before;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(&a, &b);

        // Second fold: nothing left to do, and the on-disk cell contents
        // are untouched (idempotence).
        let snapshot: Vec<(String, Vec<u8>)> = {
            let disk = dg.graph().disk();
            let mut names = disk.list();
            names.sort();
            names.iter().map(|n| (n.clone(), disk.read_all(n).unwrap())).collect()
        };
        let report = dg.compact().unwrap();
        prop_assert_eq!(report.cells_folded, 0);
        prop_assert_eq!(report.files_swept, 0);
        let disk = dg.graph().disk();
        for (name, bytes) in &snapshot {
            prop_assert_eq!(&disk.read_all(name).unwrap(), bytes, "{} changed", name);
        }
    }

    #[test]
    fn scrubber_flags_exactly_the_bit_flipped_blob(
        raw in arb_graph(),
        extra in proptest::collection::vec((0usize..64, 0usize..64), 1..20),
        file_sel in 0usize..1 << 16,
        byte_sel in 0usize..1 << 20,
        bit in 0u32..8,
    ) {
        // Prepare a graph, then append deltas over *known* vertices only,
        // so the store holds every referenced blob species: bases, delta
        // chains, a bumped degree generation, and the mapping tables.
        let g = prepare(&raw, 3);
        let disk = Arc::clone(g.disk());
        let mut ids: Vec<u64> = raw.iter().flat_map(|&(s, d)| [s, d]).collect();
        ids.sort_unstable();
        ids.dedup();
        let extra: Vec<(u64, u64)> = extra
            .iter()
            .map(|&(s, d)| (ids[s % ids.len()], ids[d % ids.len()]))
            .collect();
        let mut dg = DynamicGraph::with_config(g, DynamicConfig::never_compact()).unwrap();
        prop_assert!(!dg.add_edges(&extra).unwrap().rebuilt);
        drop(dg);

        // A healthy store scrubs clean…
        let baseline = maintain::scrub(disk.as_ref()).unwrap();
        prop_assert!(baseline.is_clean(), "healthy store flagged: {:?}", baseline);
        prop_assert!(baseline.swept.is_empty());

        // …then enumerate every blob the manifest references and flip one
        // arbitrary bit in one of them.
        let m = GraphManifest::load(disk.as_ref()).unwrap();
        // (No `mapping_file()`: prep writes only the reverse mapping.)
        let mut files = vec![
            GraphManifest::reverse_mapping_file().to_string(),
            m.degree_file_current().unwrap(),
        ];
        let dirs: &[bool] = if m.has_reverse { &[false, true] } else { &[false] };
        for i in 0..m.num_intervals {
            for j in 0..m.num_intervals {
                for &rev in dirs {
                    let c = m.chain_info(i, j, rev).unwrap();
                    files.push(GraphManifest::subshard_base_file(i, j, rev, c.gen));
                    for k in 1..=c.deltas {
                        files.push(GraphManifest::subshard_delta_file(i, j, rev, c.gen, k));
                    }
                }
            }
        }
        let target = files[file_sel % files.len()].clone();
        let mut bytes = disk.read_all(&target).unwrap();
        let pos = byte_sel % bytes.len();
        bytes[pos] ^= 1 << bit;
        disk.write_all_to(&target, &bytes).unwrap();

        // The scrubber must flag exactly the damaged blob — no misses, no
        // collateral — and park it in quarantine so loads fail hard.
        let report = maintain::scrub(disk.as_ref()).unwrap();
        prop_assert_eq!(
            &report.corrupt,
            &vec![target.clone()],
            "flip of {} byte {} bit {} ", &target, pos, bit
        );
        prop_assert!(report.swept.is_empty(), "swept {:?}", report.swept);
        prop_assert!(disk.exists(&format!("quarantine.{target}")));
        prop_assert!(!disk.exists(&target));
    }

    #[test]
    fn degreeing_is_a_dense_bijection(raw in arb_graph()) {
        let deg = prep::degree(&raw);
        // Ids are 0..n and every id maps back to a unique index.
        let mut seen = std::collections::HashSet::new();
        for (id, &index) in deg.index_of.iter().enumerate() {
            prop_assert!(seen.insert(index));
            prop_assert_eq!(deg.id_of(index), Some(id as u32));
        }
        // Degrees sum to edge count.
        prop_assert_eq!(deg.out_degrees.iter().sum::<u32>() as usize, raw.len());
        let mut in_degrees = vec![0u32; deg.num_vertices as usize];
        for &(_, d) in &deg.edges {
            in_degrees[d as usize] += 1;
        }
        prop_assert_eq!(in_degrees.iter().sum::<u32>() as usize, raw.len());
    }

    #[test]
    fn degreeing_equals_a_rank_oracle(
        pool in proptest::collection::vec(any::<u64>(), 1..40),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..300),
    ) {
        // Arbitrary u64 indices, the extremes of the range always among them.
        let mut pool = pool;
        pool.extend([0, 1 << 63, u64::MAX]);
        let raw: Vec<(u64, u64)> =
            picks.iter().map(|&(a, b)| (pool[a % pool.len()], pool[b % pool.len()])).collect();
        let rank: std::collections::BTreeMap<u64, u32> = raw
            .iter()
            .flat_map(|&(s, d)| [s, d])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .zip(0..)
            .collect();
        let edges: Vec<(u32, u32)> = raw.iter().map(|(s, d)| (rank[s], rank[d])).collect();
        let mut out_degrees = vec![0u32; rank.len()];
        for &(s, _) in &edges {
            out_degrees[s as usize] += 1;
        }
        let deg = prep::degree(&raw);
        prop_assert_eq!(deg.num_vertices as usize, rank.len());
        prop_assert_eq!(&deg.index_of, &rank.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(&deg.edges, &edges);
        prop_assert_eq!(&deg.out_degrees, &out_degrees);
    }

    #[test]
    fn pagerank_strategies_agree_with_oracle(raw in arb_graph(), p in 1u32..7) {
        let g = prepare(&raw, p);
        let (n, edges) = dense(&raw);
        let expect = reference::pagerank(n, &edges, g.out_degrees(), 5);
        let budget_mpu = 4 * n as u64 + n as u64 * 8;
        for (strategy, budget) in [
            (UpdateStrategy::Spu, u64::MAX),
            (UpdateStrategy::Dpu, 0u64),
            (UpdateStrategy::Mpu, budget_mpu),
        ] {
            let cfg = EngineConfig::default()
                .with_strategy(strategy)
                .with_budget(budget)
                .with_threads(3)
                .with_max_iterations(5);
            let (vals, _) = algo::pagerank(&g, 5, &cfg).unwrap();
            for (k, (a, b)) in vals.iter().zip(&expect).enumerate() {
                prop_assert!((a - b).abs() < 1e-9,
                    "{:?} vertex {}: {} vs {}", strategy, k, a, b);
            }
        }
    }

    #[test]
    fn bfs_equals_oracle_for_every_root(raw in arb_graph(), p in 1u32..6) {
        let g = prepare(&raw, p);
        let (n, edges) = dense(&raw);
        // Try three roots spread over the id space.
        for root in [0, n / 2, n - 1] {
            let expect = reference::bfs(n, &edges, root);
            let (depths, _) = algo::bfs(&g, root, &EngineConfig::default()).unwrap();
            prop_assert_eq!(&depths, &expect, "root {}", root);
        }
    }

    #[test]
    fn wcc_equals_union_find(raw in arb_graph(), p in 1u32..6) {
        let g = prepare(&raw, p);
        let (n, edges) = dense(&raw);
        let expect = reference::wcc(n, &edges);
        let (labels, _) = algo::wcc(&g, &EngineConfig::default()).unwrap();
        prop_assert_eq!(labels, expect);
    }

    #[test]
    fn scc_equals_tarjan(raw in arb_graph(), p in 1u32..6) {
        let g = prepare(&raw, p);
        let (n, edges) = dense(&raw);
        let expect = reference::scc(n, &edges);
        let out = algo::scc(&g, &EngineConfig::default()).unwrap();
        prop_assert_eq!(out.labels, expect);
    }

    #[test]
    fn split_ranges_covers_len_exactly_once(len in 0usize..10_000, parts in 0usize..64) {
        // Every parallel chunking in the engine (absorb tasks, finalize
        // batches, hub merges) rides on `split_ranges`, so it must tile
        // `0..len` exactly: contiguous, in order, no overlap, no gap, and
        // never more pieces than elements or than requested.
        let ranges = split_ranges(len, parts);
        if len == 0 {
            prop_assert!(ranges.is_empty());
        } else {
            prop_assert!(!ranges.is_empty());
            prop_assert!(ranges.len() <= parts.max(1));
            prop_assert!(ranges.len() <= len);
            let mut next = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, next, "gap or overlap at {}", r.start);
                prop_assert!(r.end > r.start, "empty piece at {}", r.start);
                next = r.end;
            }
            prop_assert_eq!(next, len);
            // Balanced: piece sizes differ by at most one.
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            prop_assert!(max - min <= 1, "unbalanced: {} vs {}", min, max);
        }
    }

    #[test]
    fn mpu_matches_spu_at_every_budget(raw in arb_graph(), q_frac in 0.0f64..1.0) {
        let g = prepare(&raw, 5);
        let n = g.num_vertices() as u64;
        let want = algo::pagerank(&g, 4, &EngineConfig::default()).unwrap().0;
        let budget = 4 * n + ((2 * n * 8) as f64 * q_frac) as u64;
        let cfg = EngineConfig::default()
            .with_strategy(UpdateStrategy::Mpu)
            .with_budget(budget)
            .with_max_iterations(4);
        let (vals, _) = algo::pagerank(&g, 4, &cfg).unwrap();
        for (a, b) in vals.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-plan determinism: the chaos matrix is only meaningful if a plan
// replayed over the same access sequence injects the identical faults.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seeded_fault_plan_replays_identically(
        seed in any::<u64>(),
        names in proptest::collection::vec("[a-z]{1,4}_[0-9]{1,2}\\.bin", 1..6),
        accesses in 1u64..120,
    ) {
        use nxgraph::storage::{FaultOp, FaultPlan};
        // Decision purity: the same (plan, name, op, index) always yields
        // the same fault, across two independently-built plans.
        let a = FaultPlan::seeded(seed);
        let b = FaultPlan::seeded(seed);
        for name in &names {
            for op in [FaultOp::ReadAll, FaultOp::Read, FaultOp::Write] {
                for n in 0..accesses {
                    let fa = a.fault_for(name, op, n);
                    prop_assert_eq!(fa, b.fault_for(name, op, n));
                    // Seeded plans only ever fault reads, and every
                    // episode fits inside the default 4-attempt retry
                    // budget (checked as: no 3 consecutive faults).
                    if op != FaultOp::Read {
                        prop_assert!(fa.is_none());
                    } else if n >= 2 {
                        prop_assert!(
                            a.fault_for(name, op, n - 2).is_none()
                                || a.fault_for(name, op, n - 1).is_none()
                                || fa.is_none(),
                            "3-long episode would exhaust the retry budget"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_fault_disk_injection_logs_replay_identically(
        seed in any::<u64>(),
        rounds in 1usize..30,
    ) {
        use nxgraph::storage::{BufferPool, FaultDisk, FaultPlan};
        // End to end through the wrapper: same plan + same access
        // sequence ⇒ byte-identical injection log, independent of any
        // earlier runs (each replay builds a fresh disk).
        let run = || {
            let mem = MemDisk::new();
            for name in ["ss_0_0.bin", "ss_0_1.bin", "hub_0.bin"] {
                mem.write_all_to(name, &[0x5a; 64]).unwrap();
            }
            let fd = FaultDisk::new(Arc::new(mem), FaultPlan::seeded(seed));
            let pool = BufferPool::new();
            for _ in 0..rounds {
                for name in ["ss_0_0.bin", "ss_0_1.bin", "hub_0.bin"] {
                    let _ = fd.read_shared(name, &pool);
                }
            }
            fd.injection_log()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn error_taxonomy_is_exhaustive_and_injected_faults_are_transient(
        k in 0usize..6,
        seed in any::<u64>(),
    ) {
        use nxgraph::storage::{ErrorClass, StorageError};
        // Every variant maps to exactly one class, and `is_transient`
        // agrees with the class — for arbitrary payloads, not just the
        // ones unit tests happen to construct.
        let e: StorageError = match k {
            0 => StorageError::Io(std::io::Error::other(format!("e{seed}"))),
            1 => StorageError::ShortRead { name: format!("f{seed}"), expected: seed, actual: seed / 2 },
            2 => StorageError::Corrupt { name: format!("f{seed}"), reason: "x".into() },
            3 => StorageError::NotFound(format!("f{seed}")),
            4 => StorageError::Manifest { line: k, reason: "y".into() },
            _ => StorageError::Stalled { name: format!("f{seed}"), waited_ms: seed % 10_000 },
        };
        let class = e.class();
        prop_assert_eq!(e.is_transient(), class == ErrorClass::Transient);
        // The retry layer's contract: exactly Io and ShortRead retry.
        let retryable = matches!(e, StorageError::Io(_) | StorageError::ShortRead { .. });
        prop_assert_eq!(e.is_transient(), retryable);
    }
}
