//! Property tests for the generators: id ranges, determinism, structural
//! invariants, and edge-list I/O round-trips.

use proptest::prelude::*;

use nxgraph_graphgen::mesh::MeshConfig;
use nxgraph_graphgen::rmat::RmatConfig;
use nxgraph_graphgen::{ba, er, io, mesh, rmat, RawEdge};

mod rmat_oracle;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rmat_ids_in_range_and_deterministic(scale in 4u32..12, ef in 1u32..8, seed in any::<u64>()) {
        let cfg = RmatConfig::graph500(scale, ef, seed);
        let a = rmat::generate(&cfg);
        prop_assert_eq!(a.len() as u64, cfg.num_edges());
        let n = cfg.num_vertices();
        prop_assert!(a.iter().all(|e| e.src < n && e.dst < n));
        prop_assert_eq!(rmat::generate(&cfg), a);
    }

    #[test]
    fn rmat_equals_the_classic_sampler(scale in 1u32..12, ef in 1u32..8, seed in any::<u64>()) {
        let cfg = RmatConfig::graph500(scale, ef, seed);
        prop_assert_eq!(rmat::generate(&cfg), rmat_oracle::edges(&cfg, seed, cfg.num_edges()));
    }

    #[test]
    fn er_respects_bounds(n in 2u64..500, m in 1usize..1000, seed in any::<u64>()) {
        let edges = er::generate(n, m, seed);
        prop_assert_eq!(edges.len(), m);
        prop_assert!(edges.iter().all(|e| e.src < n && e.dst < n));
    }

    #[test]
    fn er_simple_has_no_loops_or_duplicates(n in 3u64..60, m in 1usize..500, seed in any::<u64>()) {
        let edges = er::generate_simple(n, m, seed);
        let mut seen = std::collections::HashSet::new();
        for e in &edges {
            prop_assert!(e.src != e.dst);
            prop_assert!(seen.insert((e.src, e.dst)));
        }
    }

    #[test]
    fn mesh_edge_count_formula(rows in 1u64..40, cols in 1u64..40) {
        let cfg = MeshConfig { rows, cols };
        prop_assert_eq!(mesh::generate(&cfg).len() as u64, cfg.num_edges());
    }

    #[test]
    fn mesh_is_symmetric(rows in 1u64..20, cols in 1u64..20) {
        let edges = mesh::generate(&MeshConfig { rows, cols });
        let set: std::collections::HashSet<_> = edges.iter().map(|e| (e.src, e.dst)).collect();
        for e in &edges {
            prop_assert!(set.contains(&(e.dst, e.src)));
        }
    }

    #[test]
    fn ba_edges_point_to_older_vertices(n in 2u64..200, m in 1usize..5, seed in any::<u64>()) {
        for e in ba::generate(n, m, seed) {
            prop_assert!(e.dst < e.src);
        }
    }

    #[test]
    fn text_io_roundtrip(pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..200)) {
        let edges: Vec<RawEdge> = pairs.iter().map(|&(s, d)| RawEdge::new(s, d)).collect();
        let mut buf = Vec::new();
        io::write_text(&mut buf, &edges).unwrap();
        prop_assert_eq!(io::read_text(buf.as_slice()).unwrap(), edges);
    }

    #[test]
    fn binary_io_roundtrip(pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..200)) {
        let edges: Vec<RawEdge> = pairs.iter().map(|&(s, d)| RawEdge::new(s, d)).collect();
        let mut buf = Vec::new();
        io::write_binary(&mut buf, &edges).unwrap();
        prop_assert_eq!(io::read_binary(buf.as_slice()).unwrap(), edges);
    }
}
