//! Destination-Sorted Sub-Shards.
//!
//! Sub-shard `SS(i→j)` holds every edge with source in interval `Iᵢ` and
//! destination in interval `Iⱼ`. Edges are sorted by destination id, then
//! source id (§III-A): destination-sorting enables the compressed sparse
//! format below and gives worker threads exclusive destination ranges;
//! source-sorting within a destination makes the reads of the source
//! interval sequential, "utiliz\[ing\] the hierarchical memory structure of
//! CPU".
//!
//! The in-memory and on-disk layout is CSR keyed by destination:
//!
//! ```text
//! dsts:    [d₀ < d₁ < … < d_{k-1}]          distinct destination ids
//! offsets: [o₀ = 0, o₁, …, o_k]             edge ranges per destination
//! srcs:    [s…]                             source ids, sorted per dest
//! ```

use std::ops::Range;

use nxgraph_storage::format::{self, Encoding, EncodingPolicy, FileKind};
use nxgraph_storage::{StorageError, StorageResult};

use crate::types::VertexId;

use super::codec;

/// One destination-sorted sub-shard in compressed sparse (CSR) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubShard {
    /// Source interval index `i`.
    pub src_interval: u32,
    /// Destination interval index `j`.
    pub dst_interval: u32,
    /// Distinct destination ids, strictly increasing (global ids).
    pub dsts: Vec<VertexId>,
    /// CSR offsets into `srcs`; `len == dsts.len() + 1`.
    pub offsets: Vec<u32>,
    /// Source ids (global), sorted within each destination's range.
    pub srcs: Vec<VertexId>,
}

impl SubShard {
    /// Build a sub-shard from `(src, dst)` edges belonging to `(i, j)`.
    ///
    /// Sorting is performed here — callers hand over edges in any order.
    /// Duplicate edges are preserved (raw crawls contain them and PageRank
    /// counts them).
    pub fn from_edges(src_interval: u32, dst_interval: u32, mut edges: Vec<(VertexId, VertexId)>) -> Self {
        edges.sort_unstable_by_key(|&(s, d)| (d, s));
        let mut dsts = Vec::new();
        let mut offsets = vec![0u32];
        let mut srcs = Vec::with_capacity(edges.len());
        for (s, d) in edges {
            if dsts.last() != Some(&d) {
                // Close the previous destination's run before opening a new
                // one — one offset write per destination, not per edge.
                if !srcs.is_empty() {
                    offsets.push(srcs.len() as u32);
                }
                dsts.push(d);
            }
            srcs.push(s);
        }
        if !srcs.is_empty() {
            offsets.push(srcs.len() as u32);
        }
        Self {
            src_interval,
            dst_interval,
            dsts,
            offsets,
            srcs,
        }
    }

    /// Number of edges stored.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// Number of distinct destinations.
    pub fn num_dsts(&self) -> usize {
        self.dsts.len()
    }

    /// Whether the sub-shard holds no edges.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Average in-degree of the destinations present — the paper's `d`
    /// parameter governing hub size.
    pub fn avg_in_degree(&self) -> f64 {
        if self.dsts.is_empty() {
            0.0
        } else {
            self.srcs.len() as f64 / self.dsts.len() as f64
        }
    }

    /// The source-id range of the edges in destination slot `pos`.
    #[inline]
    pub fn src_range(&self, pos: usize) -> Range<usize> {
        self.offsets[pos] as usize..self.offsets[pos + 1] as usize
    }

    /// Iterate `(src, dst)` pairs in (dst, src) order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.dsts.len()).flat_map(move |pos| {
            let d = self.dsts[pos];
            self.srcs[self.src_range(pos)].iter().map(move |&s| (s, d))
        })
    }

    /// Split the destination slots into contiguous position ranges of
    /// roughly `target_edges` edges each (cuts only at destination
    /// boundaries, preserving exclusive ownership). This is the
    /// fine-grained task granularity of §III-D.
    pub fn chunk_by_edges(&self, target_edges: usize) -> Vec<Range<usize>> {
        chunk_csr_by_edges(self.dsts.len(), &self.offsets, target_edges)
    }

    /// Serialised *raw* byte size (header + payload) of this sub-shard;
    /// the empirical `Be · edges` used for cache planning, I/O accounting
    /// and as the denominator of the compression ratio (compressed blobs
    /// are smaller — use the on-disk file length for actual sizes).
    pub fn encoded_len(&self) -> u64 {
        raw_encoded_len(self.num_dsts(), self.num_edges())
    }

    /// Encode into the checksummed blob format as raw (v2) words.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.encoded_len() as usize - 32);
        format::push_u32(&mut payload, self.src_interval);
        format::push_u32(&mut payload, self.dst_interval);
        format::push_u32(&mut payload, self.dsts.len() as u32);
        format::push_u32(&mut payload, self.srcs.len() as u32);
        for &d in &self.dsts {
            format::push_u32(&mut payload, d);
        }
        for &o in &self.offsets {
            format::push_u32(&mut payload, o);
        }
        for &s in &self.srcs {
            format::push_u32(&mut payload, s);
        }
        let mut out = Vec::with_capacity(payload.len() + 32);
        format::write_blob(&mut out, FileKind::SubShard, &payload)
            .expect("writing to Vec cannot fail");
        out
    }

    /// Encode under an [`EncodingPolicy`]: raw v2 words, delta+varint v3,
    /// or — under `Auto` — whichever wins the ratio threshold for *this*
    /// blob. The view parser sniffs the version per blob, so the outputs mix
    /// freely on one disk.
    pub fn encode_with(&self, policy: EncodingPolicy) -> Vec<u8> {
        if policy == EncodingPolicy::Raw {
            return self.encode();
        }
        let Some(payload) = codec::encode_subshard_payload(self) else {
            // Non-monotone hand-built columns: gap coding does not apply.
            return self.encode();
        };
        let compressed_len = payload.len() + 32;
        if policy == EncodingPolicy::Auto
            && !codec::auto_keeps(compressed_len, self.encoded_len() as usize)
        {
            return self.encode();
        }
        let mut out = Vec::with_capacity(compressed_len);
        format::write_blob_encoded(&mut out, FileKind::SubShard, &payload, Encoding::DeltaVarint)
            .expect("writing to Vec cannot fail");
        out
    }

    /// Check structural invariants (sortedness, offset monotonicity).
    pub fn validate(&self, name: &str) -> StorageResult<()> {
        validate_csr(name, &self.dsts, &self.offsets, &self.srcs)
    }
}

/// Raw (v2) blob size — header plus payload — of a sub-shard with
/// `num_dsts` destinations and `num_edges` edges: the formula behind
/// [`SubShard::encoded_len`], usable on views without materialising one.
pub(crate) fn raw_encoded_len(num_dsts: usize, num_edges: usize) -> u64 {
    32 + 16 + 4 * (2 * num_dsts + 1 + num_edges) as u64
}

/// Check the CSR structural invariants shared by [`SubShard`] and the
/// zero-copy [`SubShardView`](super::SubShardView): offsets bracket the
/// source array, destinations are strictly increasing, and each slot's
/// sources are sorted and non-empty.
pub(crate) fn validate_csr(
    name: &str,
    dsts: &[VertexId],
    offsets: &[u32],
    srcs: &[VertexId],
) -> StorageResult<()> {
    let corrupt = |reason: String| StorageError::Corrupt {
        name: name.to_string(),
        reason,
    };
    if offsets.len() != dsts.len() + 1 {
        return Err(corrupt("offsets/dsts length mismatch".into()));
    }
    if offsets.first() != Some(&0) || *offsets.last().unwrap() as usize != srcs.len() {
        return Err(corrupt("offset endpoints invalid".into()));
    }
    if !dsts.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt("destinations not strictly increasing".into()));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(corrupt("offsets not monotone".into()));
    }
    for pos in 0..dsts.len() {
        let r = offsets[pos] as usize..offsets[pos + 1] as usize;
        if r.is_empty() {
            return Err(corrupt(format!("destination slot {pos} has no edges")));
        }
        if !srcs[r].windows(2).all(|w| w[0] <= w[1]) {
            return Err(corrupt(format!("sources of slot {pos} unsorted")));
        }
    }
    Ok(())
}

/// Destination-boundary chunking shared by [`SubShard::chunk_by_edges`]
/// and the view.
pub(crate) fn chunk_csr_by_edges(
    num_dsts: usize,
    offsets: &[u32],
    target_edges: usize,
) -> Vec<Range<usize>> {
    let target = target_edges.max(1) as u32;
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut start_off = 0u32;
    for pos in 0..num_dsts {
        let end_off = offsets[pos + 1];
        if end_off - start_off >= target {
            out.push(start..pos + 1);
            start = pos + 1;
            start_off = end_off;
        }
    }
    if start < num_dsts {
        out.push(start..num_dsts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsss::SubShardView;
    use nxgraph_storage::SharedBytes;

    fn sample() -> SubShard {
        // Edges (src → dst): deliberately unsorted input.
        SubShard::from_edges(
            2,
            1,
            vec![(5, 3), (4, 3), (5, 2), (4, 3), (9, 2)],
        )
    }

    #[test]
    fn builds_sorted_csr() {
        let ss = sample();
        assert_eq!(ss.dsts, vec![2, 3]);
        assert_eq!(ss.offsets, vec![0, 2, 5]);
        // dst 2: srcs 5, 9 sorted; dst 3: srcs 4, 4, 5 (duplicate kept).
        assert_eq!(ss.srcs, vec![5, 9, 4, 4, 5]);
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

    /// Decode through the one blob parser (the engines' view), then copy
    /// out the owned columns.
    fn decode(bytes: &[u8]) -> StorageResult<SubShard> {
        let view = SubShardView::parse(SharedBytes::from(bytes.to_vec()), "t", true)?;
        Ok(view.to_subshard())
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ss = sample();
        let bytes = ss.encode();
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
        // …the Raw policy is byte-identical to `encode`…
        assert_eq!(ss.encode_with(EncodingPolicy::Raw), ss.encode());
        // …and even an empty shard compresses (header-only payload beats
        // the raw layout's offsets word), so Auto keeps it.
        let empty = SubShard::from_edges(0, 0, vec![]);
        let forced = empty.encode_with(EncodingPolicy::Compressed);
        assert!(forced.len() < empty.encode().len());
        assert_eq!(empty.encode_with(EncodingPolicy::Auto), forced);
        assert_eq!(decode(&forced).unwrap(), empty);
        // A shard built from 2²⁸-wide source gaps inflates under varint
        // (five bytes per gap vs four raw) — Auto detects it and stays
        // raw; forcing Compressed still round-trips exactly.
        let wide = SubShard::from_edges(0, 0, (1u32..=14).map(|k| (k << 28, 1)).collect());
        assert_eq!(wide.encode_with(EncodingPolicy::Auto), wide.encode());
        let forced_wide = wide.encode_with(EncodingPolicy::Compressed);
        assert!(forced_wide.len() > wide.encode().len());
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
        let mut bytes = sample().encode();
        let n = bytes.len();
        bytes[n - 2] ^= 0x5a;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn empty_subshard() {
        let ss = SubShard::from_edges(0, 0, vec![]);
        assert!(ss.is_empty());
        assert_eq!(ss.avg_in_degree(), 0.0);
        assert!(ss.chunk_by_edges(10).is_empty());
        assert_eq!(ss.encoded_len(), raw_encoded_len(0, 0));
        assert_eq!(decode(&ss.encode()).unwrap(), ss);
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
        let ss = SubShard::from_edges(0, 0, edges);
        for target in [1usize, 7, 50, 10_000] {
            let chunks = ss.chunk_by_edges(target);
            let mut cursor = 0;
            let mut edge_sum = 0;
            for c in &chunks {
                assert_eq!(c.start, cursor);
                cursor = c.end;
                edge_sum += (ss.offsets[c.end] - ss.offsets[c.start]) as usize;
            }
            assert_eq!(cursor, ss.num_dsts(), "target {target}");
            assert_eq!(edge_sum, ss.num_edges());
        }
    }

    #[test]
    fn chunk_sizes_near_target() {
        let edges: Vec<_> = (0..10_000u32).map(|k| (k % 97, k % 512)).collect();
        let ss = SubShard::from_edges(0, 0, edges);
        let chunks = ss.chunk_by_edges(1000);
        // All but the last chunk must carry at least the target.
        for c in &chunks[..chunks.len() - 1] {
            let edges = (ss.offsets[c.end] - ss.offsets[c.start]) as usize;
            assert!(edges >= 1000);
        }
    }

    #[test]
    fn validate_catches_bad_structures() {
        let mut ss = sample();
        ss.dsts[0] = 3; // duplicate destination → not strictly increasing
        assert!(ss.validate("t").is_err());

        let mut ss = sample();
        ss.srcs.swap(2, 4); // unsorted sources within a slot
        assert!(ss.validate("t").is_err());

        let mut ss = sample();
        ss.offsets[1] = 0;
        ss.offsets.insert(1, 0); // slot with no edges / length mismatch
        assert!(ss.validate("t").is_err());
    }
}
