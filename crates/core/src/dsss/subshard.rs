//! Tests of building, encoding and decoding sub-shards
//! ([`SubShardView`](super::SubShardView)); the type lives in the `view`
//! module, next to its parser.

mod tests {
    use crate::dsss::SubShardView;
    use nxgraph_storage::format::EncodingPolicy;
    use nxgraph_storage::{SharedBytes, StorageResult};

    fn sample() -> SubShardView {
        // Edges (src → dst): deliberately unsorted input.
        SubShardView::from_edges(
            2,
            1,
            vec![(5, 3), (4, 3), (5, 2), (4, 3), (9, 2)],
        )
    }

    fn raw(ss: &SubShardView) -> Vec<u8> {
        ss.encode_with(EncodingPolicy::Raw)
    }

    #[test]
    fn builds_sorted_csr() {
        let ss = sample();
        assert_eq!(ss.dsts(), &[2, 3]);
        assert_eq!(ss.offsets(), &[0, 2, 5]);
        // dst 2: srcs 5, 9 sorted; dst 3: srcs 4, 4, 5 (duplicate kept).
        assert_eq!(ss.srcs(), &[5, 9, 4, 4, 5]);
        assert_eq!(ss.num_edges(), 5);
        assert_eq!(ss.num_dsts(), 2);
        assert!((ss.avg_in_degree() - 2.5).abs() < 1e-12);
        ss.validate("sample").unwrap();
    }

    #[test]
    fn iter_edges_in_dst_src_order() {
        let ss = sample();
        let edges: Vec<_> = ss.iter_edges().collect();
        assert_eq!(edges, vec![(5, 2), (9, 2), (4, 3), (4, 3), (5, 3)]);
    }

    /// Decode through the one blob parser.
    fn decode(bytes: &[u8]) -> StorageResult<SubShardView> {
        SubShardView::parse(SharedBytes::from(bytes.to_vec()), "t", true)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ss = sample();
        let bytes = raw(&ss);
        assert_eq!(bytes.len() as u64, ss.encoded_len());
        assert_eq!(decode(&bytes).unwrap(), ss);
    }

    #[test]
    fn compressed_encode_roundtrips_and_shrinks() {
        let ss = sample();
        let blob = ss.encode_with(EncodingPolicy::Compressed);
        assert!(blob.len() < ss.encoded_len() as usize);
        assert_eq!(decode(&blob).unwrap(), ss);
        // Auto keeps the compressed bytes here (every gap is one byte)…
        assert_eq!(ss.encode_with(EncodingPolicy::Auto), blob);
        // …and even an empty shard compresses (header-only payload beats
        // the raw layout's offsets word), so Auto keeps it.
        let empty = SubShardView::from_edges(0, 0, vec![]);
        let forced = empty.encode_with(EncodingPolicy::Compressed);
        assert!(forced.len() < raw(&empty).len());
        assert_eq!(empty.encode_with(EncodingPolicy::Auto), forced);
        assert_eq!(decode(&forced).unwrap(), empty);
        // A shard built from 2²⁸-wide source gaps inflates under varint
        // (five bytes per gap vs four raw) — Auto detects it and stays
        // raw; forcing Compressed still round-trips exactly.
        let wide = SubShardView::from_edges(0, 0, (1u32..=14).map(|k| (k << 28, 1)).collect());
        assert_eq!(wide.encode_with(EncodingPolicy::Auto), raw(&wide));
        let forced_wide = wide.encode_with(EncodingPolicy::Compressed);
        assert!(forced_wide.len() > raw(&wide).len());
        assert_eq!(decode(&forced_wide).unwrap(), wide);
    }

    #[test]
    fn compressed_decode_rejects_corruption() {
        let blob = sample().encode_with(EncodingPolicy::Compressed);
        // Checksummed: any payload flip is caught.
        let mut bytes = blob.clone();
        let n = bytes.len();
        bytes[n - 2] ^= 0x5a;
        assert!(decode(&bytes).is_err());
        // Truncations die cleanly in the varint stream or the header.
        for cut in [33, n - 1] {
            assert!(decode(&blob[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut bytes = raw(&sample());
        let n = bytes.len();
        bytes[n - 2] ^= 0x5a;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn empty_subshard() {
        let ss = SubShardView::from_edges(0, 0, vec![]);
        assert!(ss.is_empty());
        assert_eq!(ss.avg_in_degree(), 0.0);
        assert!(ss.chunk_by_edges(10).is_empty());
        // Header, four count words and the lone offset.
        assert_eq!(ss.encoded_len(), 32 + 16 + 4);
        assert_eq!(decode(&raw(&ss)).unwrap(), ss);
    }

    #[test]
    fn chunking_respects_dst_boundaries_and_covers_all() {
        // 100 destinations with 1..=10 edges each.
        let mut edges = Vec::new();
        for d in 0..100u32 {
            for s in 0..(d % 10 + 1) {
                edges.push((s, d));
            }
        }
        let ss = SubShardView::from_edges(0, 0, edges);
        for target in [1usize, 7, 50, 10_000] {
            let chunks = ss.chunk_by_edges(target);
            let mut cursor = 0;
            let mut edge_sum = 0;
            for c in &chunks {
                assert_eq!(c.start, cursor);
                cursor = c.end;
                edge_sum += (ss.offsets()[c.end] - ss.offsets()[c.start]) as usize;
            }
            assert_eq!(cursor, ss.num_dsts(), "target {target}");
            assert_eq!(edge_sum, ss.num_edges());
        }
    }

    #[test]
    fn chunk_sizes_near_target() {
        let edges: Vec<_> = (0..10_000u32).map(|k| (k % 97, k % 512)).collect();
        let ss = SubShardView::from_edges(0, 0, edges);
        let chunks = ss.chunk_by_edges(1000);
        // All but the last chunk must carry at least the target.
        for c in &chunks[..chunks.len() - 1] {
            let edges = (ss.offsets()[c.end] - ss.offsets()[c.start]) as usize;
            assert!(edges >= 1000);
        }
    }

    #[test]
    fn validate_catches_bad_structures() {
        // Duplicate destination → not strictly increasing.
        let ss = SubShardView::from_csr(2, 1, &[3, 3], &[0, 2, 5], &[5, 9, 4, 4, 5]);
        assert!(ss.validate("t").is_err());
        // Unsorted sources within a slot.
        let ss = SubShardView::from_csr(2, 1, &[2, 3], &[0, 2, 5], &[5, 9, 5, 4, 4]);
        assert!(ss.validate("t").is_err());
        // A slot with no edges.
        let ss = SubShardView::from_csr(2, 1, &[2, 3], &[0, 0, 5], &[5, 9, 4, 4, 5]);
        assert!(ss.validate("t").is_err());
        // Offsets that miss the source count.
        let ss = SubShardView::from_csr(2, 1, &[2, 3], &[0, 2, 4], &[5, 9, 4, 4, 5]);
        assert!(ss.validate("t").is_err());
    }
}
