//! Delta+varint payload codecs — the compressed (format v3) encoding of
//! sub-shards and hubs.
//!
//! Destination-sorting makes every persisted column locally monotone:
//! `dsts` is strictly increasing, `offsets` is a prefix sum of per-slot
//! degrees, and each destination's `srcs` run is sorted. The v3 payload
//! therefore stores *gaps*, LEB128-coded ([`nxgraph_storage::varint`]),
//! instead of raw `u32` words:
//!
//! ```text
//! sub-shard v3 payload:
//!   [src_interval, dst_interval, num_dsts, num_edges]   4 × u32 LE
//!   varint dsts      num_dsts values: first absolute, then gaps
//!   varint degrees   num_dsts values: offsets[k+1] − offsets[k]
//!   varint srcs      per slot: first absolute, then in-run gaps
//!
//! hub v3 payload:
//!   count                                               u32 LE
//!   varint dsts      count values: first absolute, then gaps
//!   raw accumulators count × A::SIZE bytes (f64 bits are incompressible
//!                    and must round-trip bitwise)
//! ```
//!
//! Gaps in sorted id columns are small, so the common varint is one byte
//! where the raw format spends four — 2-4× smaller blobs, which is bytes
//! *not read* on every streamed iteration. Decoding inflates into an
//! aligned word buffer once per load (pooled on the view path), after
//! which the engine-facing `&[u32]` slice API is byte-identical to a raw
//! load; corrupt or truncated varint streams surface as
//! [`StorageError::Corrupt`], never as wrong arrays or panics.
//!
//! Inflation is two passes per column, both in the output buffer. The
//! gaps are bulk-decoded in place by [`read_varints`] (SSSE3 Masked VByte
//! where the host has it, the scalar reference elsewhere). Then one scan
//! turns them into ids and proves the CSR invariants on the way:
//! `dsts` and degrees by a checked prefix sum, `srcs` by a branch-free
//! segmented prefix sum that restarts at every run start (SSE2 on
//! `x86_64`). The decoder therefore rejects everything the structural
//! validator does — a repeated destination, an empty slot, degrees that
//! miss the header's edge count, any `u32` overflow — as well as
//! truncated, over-long, non-canonical or trailing bytes, and a v3 view
//! skips the validator's separate pass over the inflated columns.

use nxgraph_storage::varint::{push_varint, read_varints};
use nxgraph_storage::{StorageError, StorageResult};

use super::view::payload_words;
use super::SubShardView;

/// Fixed little-endian prefix of a v3 sub-shard payload — the same four
/// header words (src/dst interval, counts) as the raw layout.
pub(crate) const SS_FIXED_BYTES: usize = 16;

/// `Auto` keeps the compressed blob only when it is at most 15/16 of the
/// raw blob: marginal wins do not pay for the inflate pass on every load.
pub(crate) fn auto_keeps(compressed_len: usize, raw_len: usize) -> bool {
    compressed_len * 16 <= raw_len * 15
}

fn corrupt(name: &str, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        name: name.to_string(),
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Sub-shards
// ---------------------------------------------------------------------------

/// The fixed header words of a v3 sub-shard payload.
pub(crate) struct SsHeader {
    pub src_interval: u32,
    pub dst_interval: u32,
    pub num_dsts: usize,
    pub num_edges: usize,
}

/// Read and sanity-check the fixed header of a v3 sub-shard payload.
///
/// The length lower bound (every varint is ≥ 1 byte) both rejects
/// truncated payloads early and caps the inflated allocation at roughly
/// 4× the compressed bytes — a header lying about its counts cannot
/// trigger an oversized buffer.
pub(crate) fn read_ss_header(payload: &[u8], name: &str) -> StorageResult<SsHeader> {
    if payload.len() < SS_FIXED_BYTES {
        return Err(corrupt(
            name,
            format!("compressed payload of {} bytes has no header", payload.len()),
        ));
    }
    let word = |k: usize| u32::from_le_bytes(payload[4 * k..4 * k + 4].try_into().unwrap());
    let h = SsHeader {
        src_interval: word(0),
        dst_interval: word(1),
        num_dsts: word(2) as usize,
        num_edges: word(3) as usize,
    };
    let min_len = SS_FIXED_BYTES + 2 * h.num_dsts + h.num_edges;
    if payload.len() < min_len {
        return Err(corrupt(
            name,
            format!(
                "compressed payload of {} bytes cannot hold {} dsts / {} edges",
                payload.len(),
                h.num_dsts,
                h.num_edges
            ),
        ));
    }
    Ok(h)
}

/// Encode a sub-shard as a v3 payload (no blob header).
///
/// Returns `None` when the columns violate the monotonicity the gap
/// coding relies on (possible only for unchecked
/// [`SubShardView::from_csr`] columns — the builder sorts); callers then
/// fall back to the raw encoding.
pub(crate) fn encode_subshard_payload(ss: &SubShardView) -> Option<Vec<u8>> {
    let (dsts, offsets, srcs) = (ss.dsts(), ss.offsets(), ss.srcs());
    if offsets.first() != Some(&0) {
        return None;
    }
    let mut out = Vec::with_capacity(SS_FIXED_BYTES + 2 * dsts.len() + 2 * srcs.len());
    for v in [
        ss.src_interval(),
        ss.dst_interval(),
        dsts.len() as u32,
        srcs.len() as u32,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut prev = 0u32;
    for (k, &d) in dsts.iter().enumerate() {
        if k > 0 && d <= prev {
            return None;
        }
        push_varint(&mut out, d - prev);
        prev = d;
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return None;
        }
        push_varint(&mut out, w[1] - w[0]);
    }
    if *offsets.last().unwrap() as usize != srcs.len() {
        return None;
    }
    for k in 0..dsts.len() {
        let run = &srcs[offsets[k] as usize..offsets[k + 1] as usize];
        let mut prev = 0u32;
        for (t, &s) in run.iter().enumerate() {
            if t > 0 && s < prev {
                return None;
            }
            push_varint(&mut out, s - prev);
            prev = s;
        }
    }
    Some(out)
}

/// Inflate a v3 sub-shard payload into `out`, which must hold exactly
/// [`payload_words`] words. The output layout is identical to a raw
/// payload: 4 header words, `dsts`, `offsets`, `srcs`.
///
/// Each column's gaps are bulk-decoded in place ([`read_varints`]) and
/// then prefix-summed with the checks that make the result a valid CSR,
/// so a v3 view needs no separate structural pass: `dsts` strictly
/// increasing, every degree ≥ 1, degrees summing to the header's edge
/// count, and no `u32` overflow in any column. Everything the structural
/// validator rejects is rejected here as [`StorageError::Corrupt`].
pub(crate) fn decode_subshard_into(
    payload: &[u8],
    name: &str,
    h: &SsHeader,
    out: &mut [u32],
) -> StorageResult<()> {
    debug_assert_eq!(out.len(), payload_words(h.num_dsts, h.num_edges));
    let (head, rest) = out.split_at_mut(4);
    head.copy_from_slice(&[
        h.src_interval,
        h.dst_interval,
        h.num_dsts as u32,
        h.num_edges as u32,
    ]);
    let (dsts, rest) = rest.split_at_mut(h.num_dsts);
    let (offsets, srcs) = rest.split_at_mut(h.num_dsts + 1);
    let mut pos = SS_FIXED_BYTES;

    // dsts: the first id is absolute, every later gap is ≥ 1.
    read_varints(payload, &mut pos, dsts, name)?;
    if let Some((first, gaps)) = dsts.split_first_mut() {
        let (last, min_gap) = prefix_sum(gaps, *first as u64);
        if min_gap == 0 {
            return Err(corrupt(name, "destinations not strictly increasing"));
        }
        if last > u32::MAX as u64 {
            return Err(corrupt(name, "dst gap overflows u32"));
        }
    }

    // offsets: prefix sum of per-slot degrees, each ≥ 1. The sum is
    // checked against the header, which bounds it by u32::MAX.
    offsets[0] = 0;
    read_varints(payload, &mut pos, &mut offsets[1..], name)?;
    let (sum, min_deg) = prefix_sum(&mut offsets[1..], 0);
    if min_deg == 0 {
        return Err(corrupt(name, "a destination slot has no edges"));
    }
    if sum != h.num_edges as u64 {
        return Err(corrupt(
            name,
            format!("degrees sum to {sum}, header claims {} edges", h.num_edges),
        ));
    }

    // srcs: one gap stream, summed per destination run.
    read_varints(payload, &mut pos, srcs, name)?;
    if !segmented_prefix_sum(srcs, offsets) {
        return Err(corrupt(name, "src gap overflows u32"));
    }
    if pos != payload.len() {
        return Err(corrupt(
            name,
            format!("{} trailing bytes after varint stream", payload.len() - pos),
        ));
    }
    Ok(())
}

/// Replace `gaps` by their running sum, starting from `start`. Returns
/// the final sum — as `u64`, so it cannot wrap: any `u32` overflow shows
/// as a total above `u32::MAX` — and the smallest gap (`u32::MAX` when
/// there are none).
fn prefix_sum(gaps: &mut [u32], start: u64) -> (u64, u32) {
    let (mut acc, mut min) = (start, u32::MAX);
    for v in gaps {
        min = min.min(*v);
        acc += *v as u64;
        *v = acc as u32;
    }
    (acc, min)
}

/// Prefix-sum `srcs` within each destination run, restarting at every
/// run start `offsets[k]`; returns `false` if a run overflows `u32`.
/// `offsets` must be a valid prefix sum of ≥ 1 degrees ending at
/// `srcs.len()`, as [`decode_subshard_into`] has checked.
///
/// Branch-free per value: each 64-value block first gets a run-start bit
/// mask, so the only branch that depends on where runs end is that
/// mask's loop, which exits once per block. On `x86_64` the SSE2 scan
/// (SSE2 is baseline there) does four values per step; elsewhere
/// [`segmented_prefix_sum_scalar`] runs.
fn segmented_prefix_sum(srcs: &mut [u32], offsets: &[u32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::segmented_prefix_sum_sse2(srcs, offsets)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        segmented_prefix_sum_scalar(srcs, offsets)
    }
}

/// The reference segmented scan: `acc = (acc & keep) + gap`, with `keep`
/// all-ones inside a run and zero at its start. An overflow inside a run
/// shows as a decrease.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn segmented_prefix_sum_scalar(srcs: &mut [u32], offsets: &[u32]) -> bool {
    let starts = &offsets[..offsets.len() - 1];
    let mut next = 0usize;
    let mut acc = 0u32;
    let mut wrapped = false;
    for (b, block) in srcs.chunks_mut(64).enumerate() {
        let bits = run_start_bits(starts, &mut next, b * 64, block.len());
        wrapped |= scan_block_scalar(block, bits, &mut acc);
    }
    !wrapped
}

/// Bit `t` set when `lo + t` is a run start, for `t < len ≤ 64`;
/// `next` is the first start not yet consumed and moves past these.
#[inline]
fn run_start_bits(starts: &[u32], next: &mut usize, lo: usize, len: usize) -> u64 {
    let mut bits = 0u64;
    while *next < starts.len() && (starts[*next] as usize) < lo + len {
        bits |= 1 << (starts[*next] as usize - lo);
        *next += 1;
    }
    bits
}

/// The scalar segmented scan over one block with run-start `bits`,
/// continuing from `acc`; returns whether a run overflowed.
#[inline]
fn scan_block_scalar(block: &mut [u32], bits: u64, acc: &mut u32) -> bool {
    let mut wrapped = false;
    for (t, v) in block.iter_mut().enumerate() {
        let keep = ((bits >> t) as u32 & 1).wrapping_sub(1);
        let base = *acc & keep;
        *acc = base.wrapping_add(*v);
        wrapped |= *acc < base;
        *v = *acc;
    }
    wrapped
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::{run_start_bits, scan_block_scalar};

    /// Lane masks of a segmented 4-lane scan for one run-start pattern
    /// (bit `l` set = lane `l` starts a run).
    #[derive(Clone, Copy)]
    #[repr(C, align(16))]
    struct ScanMasks {
        /// Lane `l` adds lane `l − 1`: no start at `l`.
        step1: [u32; 4],
        /// Lane `l` adds the pair ending at `l − 2`: no start at `l`
        /// or `l − 1`.
        step2: [u32; 4],
        /// Lane `l` adds the previous vector's total: no start in `0..=l`.
        carry: [u32; 4],
    }

    const fn build_scan_masks() -> [ScanMasks; 16] {
        let mut out = [ScanMasks {
            step1: [0; 4],
            step2: [0; 4],
            carry: [0; 4],
        }; 16];
        let mut p = 0usize;
        while p < 16 {
            let mut l = 0;
            while l < 4 {
                // Starts in lanes `l`, `l − 1..=l` and `0..=l`.
                let at = p >> l & 1 != 0;
                let pair = at || (l >= 1 && p >> (l - 1) & 1 != 0);
                let upto = p & ((2 << l) - 1) != 0;
                out[p].step1[l] = if at { 0 } else { u32::MAX };
                out[p].step2[l] = if pair { 0 } else { u32::MAX };
                out[p].carry[l] = if upto { 0 } else { u32::MAX };
                l += 1;
            }
            p += 1;
        }
        out
    }

    static SCAN_MASKS: [ScanMasks; 16] = build_scan_masks();

    /// The SSE2 segmented scan: Hillis–Steele over four lanes (add the
    /// neighbour, then the pair two lanes back, each masked at run
    /// starts), plus the previous vector's last value in the lanes before
    /// the first start. Every value is the same `u32` the scalar scan
    /// produces. The first wrap in a run makes that value smaller than
    /// its own gap — the sum before it was below 2^32 — so comparing
    /// each result with its gap finds any overflow.
    pub(super) fn segmented_prefix_sum_sse2(srcs: &mut [u32], offsets: &[u32]) -> bool {
        let starts = &offsets[..offsets.len() - 1];
        let mut next = 0usize;
        let whole = srcs.len() / 4 * 4;
        let (vectors, tail) = srcs.split_at_mut(whole);
        // Safety: SSE2 is part of the x86_64 baseline; every load and
        // store covers one `chunks_exact_mut(4)` chunk (unaligned), and
        // `ScanMasks` is 16-byte aligned with each field at a multiple of
        // 16 (aligned loads).
        unsafe {
            let sign = _mm_set1_epi32(i32::MIN);
            let mut carry = _mm_setzero_si128();
            let mut smaller = _mm_setzero_si128();
            for (b, block) in vectors.chunks_mut(64).enumerate() {
                let bits = run_start_bits(starts, &mut next, b * 64, block.len());
                for (t, lanes) in block.chunks_exact_mut(4).enumerate() {
                    let m = &SCAN_MASKS[(bits >> (4 * t)) as usize & 0xf];
                    let gaps = _mm_loadu_si128(lanes.as_ptr().cast());
                    let step1 = _mm_load_si128(m.step1.as_ptr().cast());
                    let step2 = _mm_load_si128(m.step2.as_ptr().cast());
                    let keep = _mm_load_si128(m.carry.as_ptr().cast());
                    let x = _mm_add_epi32(gaps, _mm_and_si128(_mm_slli_si128(gaps, 4), step1));
                    let x = _mm_add_epi32(x, _mm_and_si128(_mm_slli_si128(x, 8), step2));
                    let x = _mm_add_epi32(x, _mm_and_si128(carry, keep));
                    smaller = _mm_or_si128(
                        smaller,
                        _mm_cmpgt_epi32(_mm_xor_si128(gaps, sign), _mm_xor_si128(x, sign)),
                    );
                    _mm_storeu_si128(lanes.as_mut_ptr().cast(), x);
                    carry = _mm_shuffle_epi32(x, 0xff);
                }
            }
            let mut acc = _mm_cvtsi128_si32(carry) as u32;
            let bits = run_start_bits(starts, &mut next, whole, tail.len());
            let wrapped = scan_block_scalar(tail, bits, &mut acc);
            _mm_movemask_epi8(smaller) == 0 && !wrapped
        }
    }
}

// ---------------------------------------------------------------------------
// Hubs
// ---------------------------------------------------------------------------

/// Encode a hub as a v3 payload: varint-coded destination ids followed by
/// the raw accumulator bytes. `None` when `dsts` is not non-decreasing
/// (hub compaction emits ascending ids; arbitrary caller input falls back
/// to raw).
pub(crate) fn encode_hub_payload(dsts: &[u32], acc_bytes: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(4 + 2 * dsts.len() + acc_bytes.len());
    out.extend_from_slice(&(dsts.len() as u32).to_le_bytes());
    let mut prev = 0u32;
    for (k, &d) in dsts.iter().enumerate() {
        if k > 0 && d < prev {
            return None;
        }
        push_varint(&mut out, d - prev);
        prev = d;
    }
    out.extend_from_slice(acc_bytes);
    Some(out)
}

/// Decode the destination ids of a v3 hub payload; returns the ids and
/// the byte offset of the raw accumulator section (validated to hold
/// exactly `count × acc_size` bytes).
pub(crate) fn decode_hub_dsts(
    payload: &[u8],
    name: &str,
    acc_size: usize,
) -> StorageResult<(Vec<u32>, usize)> {
    if payload.len() < 4 {
        return Err(corrupt(name, "hub payload shorter than its count"));
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    // Lower bound: one byte per varint id plus the raw accumulators.
    if payload.len() < 4 + count + count * acc_size {
        return Err(corrupt(
            name,
            format!(
                "hub payload of {} bytes cannot hold {count} entries",
                payload.len()
            ),
        ));
    }
    let mut pos = 4usize;
    let mut dsts = vec![0u32; count];
    read_varints(payload, &mut pos, &mut dsts, name)?;
    // Gap 0 is legal here: a hub may repeat an id.
    if prefix_sum(&mut dsts, 0).0 > u32::MAX as u64 {
        return Err(corrupt(name, "hub dst gap overflows u32"));
    }
    if payload.len() - pos != count * acc_size {
        return Err(corrupt(
            name,
            format!(
                "hub accumulator section holds {} bytes, expected {} for {count} entries",
                payload.len() - pos,
                count * acc_size
            ),
        ));
    }
    Ok((dsts, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nxgraph_storage::varint;

    fn sample() -> SubShardView {
        SubShardView::from_edges(2, 1, vec![(5, 3), (4, 3), (5, 2), (4, 3), (9, 2)])
    }

    /// Inflate a v3 payload into a fresh word vector (test convenience
    /// around [`decode_subshard_into`]).
    fn decode_subshard_words(payload: &[u8], name: &str) -> StorageResult<Vec<u32>> {
        let h = read_ss_header(payload, name)?;
        let mut words = vec![0u32; payload_words(h.num_dsts, h.num_edges)];
        decode_subshard_into(payload, name, &h, &mut words)?;
        Ok(words)
    }

    #[test]
    fn subshard_payload_roundtrips() {
        let ss = sample();
        let payload = encode_subshard_payload(&ss).unwrap();
        let words = decode_subshard_words(&payload, "t").unwrap();
        assert_eq!(&words[..4], &[2, 1, 2, 5]);
        assert_eq!(&words[4..6], ss.dsts());
        assert_eq!(&words[6..9], ss.offsets());
        assert_eq!(&words[9..], ss.srcs());
        // Gap coding actually shrinks the columns: every id here fits in
        // one varint byte.
        assert!(payload.len() < SS_FIXED_BYTES + 4 * (2 + 3 + 5));
    }

    #[test]
    fn empty_subshard_payload_is_header_only() {
        let ss = SubShardView::from_edges(0, 0, vec![]);
        let payload = encode_subshard_payload(&ss).unwrap();
        assert_eq!(payload.len(), SS_FIXED_BYTES);
        let words = decode_subshard_words(&payload, "t").unwrap();
        assert_eq!(words, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn unsorted_columns_refuse_to_compress() {
        // The sample's columns with one pair swapped in each.
        let csr = |dsts: &[u32], offsets: &[u32], srcs: &[u32]| {
            SubShardView::from_csr(2, 1, dsts, offsets, srcs)
        };
        let ss = csr(&[3, 2], &[0, 2, 5], &[5, 9, 4, 4, 5]);
        assert!(encode_subshard_payload(&ss).is_none());
        let ss = csr(&[2, 3], &[0, 2, 5], &[5, 9, 5, 4, 4]);
        assert!(encode_subshard_payload(&ss).is_none());
        let ss = csr(&[2, 3], &[0, 4, 2], &[5, 9, 4, 4, 5]);
        assert!(encode_subshard_payload(&ss).is_none());
        // The encoder then writes raw words, which the parser rejects.
        let blob = ss.encode_with(nxgraph_storage::format::EncodingPolicy::Compressed);
        assert!(SubShardView::parse(blob.into(), "t", true).is_err());
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        let payload = encode_subshard_payload(&sample()).unwrap();
        // Truncation at every boundary inside the varint stream.
        for cut in SS_FIXED_BYTES..payload.len() {
            assert!(
                decode_subshard_words(&payload[..cut], "t").is_err(),
                "cut at {cut}"
            );
        }
        // Trailing garbage.
        let mut long = payload.clone();
        long.push(0x01);
        assert!(decode_subshard_words(&long, "t").is_err());
        // A header lying about counts beyond the byte budget.
        let mut lie = payload.clone();
        lie[12] = 0xff; // num_edges low byte
        assert!(decode_subshard_words(&lie, "t").is_err());
    }

    #[test]
    fn hub_payload_roundtrips() {
        let dsts = [4u32, 5, 9];
        let accs: Vec<u8> = (0..24).collect();
        let payload = encode_hub_payload(&dsts, &accs).unwrap();
        let (back, off) = decode_hub_dsts(&payload, "h", 8).unwrap();
        assert_eq!(back, dsts);
        assert_eq!(&payload[off..], &accs[..]);
        // Unsorted ids fall back.
        assert!(encode_hub_payload(&[5, 4], &[0u8; 16]).is_none());
        // Duplicates (gap 0) are legal.
        let p = encode_hub_payload(&[7, 7], &[0u8; 16]).unwrap();
        assert_eq!(decode_hub_dsts(&p, "h", 8).unwrap().0, vec![7, 7]);
    }

    #[test]
    fn hub_corruption_errors_cleanly() {
        let payload = encode_hub_payload(&[1, 200, 70_000], &[9u8; 24]).unwrap();
        for cut in 0..payload.len() {
            assert!(decode_hub_dsts(&payload[..cut], "h", 8).is_err(), "cut {cut}");
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_hub_dsts(&long, "h", 8).is_err());
    }

    // -- Bulk decoders: SIMD equals scalar -------------------------------

    /// Run the scalar and (where the host has it) SSSE3 bulk decoders on
    /// the same stream and panic unless both fail, or both succeed with the
    /// same values and end position. Returns the scalar result.
    fn both_paths(data: &[u8], start: usize, n: usize) -> Option<(Vec<u32>, usize)> {
        let mut a = vec![0u32; n];
        let mut pa = start;
        let ra = varint::read_varints_scalar(data, &mut pa, &mut a, "t");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("ssse3") {
            let mut b = vec![0u32; n];
            let mut pb = start;
            // Safety: SSSE3 support was just verified at runtime.
            let rb = unsafe { varint::read_varints_ssse3(data, &mut pb, &mut b, "t") };
            match (&ra, &rb) {
                (Ok(()), Ok(())) => {
                    assert_eq!(a, b, "decoded values differ");
                    assert_eq!(pa, pb, "end positions differ");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("scalar {ra:?} vs ssse3 {rb:?} on {data:02x?} from {start}"),
            }
        }
        ra.ok().map(|()| (a, pa))
    }

    /// Deterministic xorshift64 stream for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A value whose LEB128 encoding is exactly `len` bytes, `len` drawn
    /// from `lens` (each 1–5).
    fn value_of_len(rng: &mut Rng, lens: &[u32]) -> u32 {
        let len = lens[rng.below(lens.len() as u64) as usize];
        let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
        let hi = (1u64 << (7 * len).min(32)) - 1;
        (lo + rng.below(hi - lo + 1)) as u32
    }

    #[test]
    fn simd_equals_scalar_on_random_streams() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // Length mixes: uniform 1–5, mostly short with rare long values,
        // and single-byte runs long enough for the 16-value fast path.
        let mixes: [&[u32]; 4] = [
            &[1, 2, 3, 4, 5],
            &[1, 1, 2, 2, 2, 3, 4],
            &[1],
            &[1, 1, 1, 5],
        ];
        for offset in 0..16 {
            for mix in mixes {
                for n in [0usize, 1, 3, 4, 5, 15, 16, 17, 33, 200] {
                    let vals: Vec<u32> = (0..n).map(|_| value_of_len(&mut rng, mix)).collect();
                    let mut data: Vec<u8> = (0..offset).map(|_| rng.next() as u8).collect();
                    for &v in &vals {
                        push_varint(&mut data, v);
                    }
                    let end = data.len();
                    // Random bytes after the stream: windows read past it.
                    for _ in 0..rng.below(20) {
                        data.push(rng.next() as u8);
                    }
                    let (got, pos) = both_paths(&data, offset, n).expect("valid stream");
                    assert_eq!(got, vals);
                    assert_eq!(pos, end);
                }
            }
        }
    }

    #[test]
    fn simd_equals_scalar_on_every_truncation() {
        let mut rng = Rng(7);
        for mix in [[1u32, 2, 3], [1, 4, 5]] {
            let vals: Vec<u32> = (0..40).map(|_| value_of_len(&mut rng, &mix)).collect();
            let mut data = Vec::new();
            for &v in &vals {
                push_varint(&mut data, v);
            }
            for cut in 0..data.len() {
                assert!(
                    both_paths(&data[..cut], 0, vals.len()).is_none(),
                    "cut {cut}"
                );
            }
            assert!(both_paths(&data, 0, vals.len()).is_some());
        }
    }

    #[test]
    fn simd_rejects_zero_padded_groups_like_scalar() {
        let mut rng = Rng(11);
        // Padded encodings of small values: a continuation byte followed
        // by a zero final group, in every length the decoder handles.
        let padded: [&[u8]; 4] = [
            &[0x85, 0x00],
            &[0x85, 0x81, 0x00],
            &[0x85, 0x80, 0x80, 0x00],
            &[0x85, 0x80, 0x80, 0x80, 0x00],
        ];
        for pad in padded {
            // Every position covers each lane of several vector groups,
            // the 16-value fast path's neighbourhood and the scalar tail.
            for at in 0..40usize {
                // Neighbours: short values, or a 4-/5-byte value right
                // before or after, forcing the table/scalar hand-off.
                for neighbour_len in [1u32, 4, 5] {
                    let mut data = Vec::new();
                    let n = 40;
                    for k in 0..n {
                        if k == at {
                            data.extend_from_slice(pad);
                        } else if k + 1 == at || k == at + 1 {
                            push_varint(&mut data, value_of_len(&mut rng, &[neighbour_len]));
                        } else {
                            push_varint(&mut data, value_of_len(&mut rng, &[1, 2, 3]));
                        }
                    }
                    data.extend_from_slice(&[0; 16]);
                    assert!(both_paths(&data, 0, n).is_none(), "pad {pad:02x?} at {at}");
                }
            }
        }
    }

    #[test]
    fn simd_rejects_five_byte_overflow_like_scalar() {
        // 24 one-byte values with a 5-byte one at `at`, so its bytes start
        // at offset `at`.
        let stream = |at: usize, five: [u8; 5]| {
            let mut data = Vec::new();
            for k in 0..24u32 {
                if k as usize == at {
                    data.extend_from_slice(&five);
                } else {
                    push_varint(&mut data, k);
                }
            }
            data.extend_from_slice(&[0; 16]);
            data
        };
        for at in 0..24usize {
            let bad = stream(at, [0xff, 0xff, 0xff, 0xff, 0x7f]);
            assert!(both_paths(&bad, 0, 24).is_none(), "overflow at {at}");
            // The largest legal value in the same spot decodes.
            let ok = stream(at, [0xff, 0xff, 0xff, 0xff, 0x0f]);
            let (vals, _) = both_paths(&ok, 0, 24).expect("u32::MAX is legal");
            assert_eq!(vals[at], u32::MAX);
        }
    }

    /// A sub-shard with 1–4-byte source ids, runs of every length from 1
    /// to past the 64-value scan blocks, and single-edge destinations.
    fn mixed_subshard() -> SubShardView {
        let mut rng = Rng(0xdead_beef);
        let mut edges = Vec::new();
        let mut d = 3u32;
        for k in 0..120u32 {
            d += 1 + rng.below(if k % 7 == 0 { 300 } else { 3 }) as u32;
            let run = match k % 5 {
                0 => 1,
                1 => 2 + rng.below(4),
                2 => 60 + rng.below(80),
                _ => 1 + rng.below(10),
            };
            for _ in 0..run {
                let s = match rng.below(4) {
                    0 => rng.below(128),
                    1 => rng.below(1 << 14),
                    2 => rng.below(1 << 21),
                    _ => rng.below(1 << 26),
                };
                edges.push((s as u32, d));
            }
        }
        SubShardView::from_edges(1, 2, edges)
    }

    #[test]
    fn simd_equals_scalar_under_payload_mutation() {
        let ss = mixed_subshard();
        let payload = encode_subshard_payload(&ss).unwrap();
        assert_eq!(
            decode_subshard_words(&payload, "t").unwrap()[4..4 + ss.num_dsts()],
            ss.dsts()[..]
        );
        let values = 2 * ss.num_dsts() + ss.num_edges();
        assert!(both_paths(&payload, SS_FIXED_BYTES, values).is_some());
        let mut rng = Rng(0x5eed);
        for _ in 0..4000 {
            let mut m = payload.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(m.len() as u64) as usize;
                match rng.below(3) {
                    0 => m[at] ^= 1 << rng.below(8),
                    1 => m.insert(at, rng.next() as u8),
                    _ => {
                        m.remove(at);
                    }
                }
            }
            // The bulk decoders over the varint stream agree, and the
            // whole inflater (header, validation) never panics.
            both_paths(&m, SS_FIXED_BYTES.min(m.len()), values);
            let _ = decode_subshard_words(&m, "t");
        }
    }

    #[test]
    fn simd_segmented_scan_equals_scalar() {
        let mut rng = Rng(0xfeed);
        for case in 0..400 {
            // Run lengths 1..=k, so every start pattern, block boundary and
            // tail length shows up.
            let max_run = [1u64, 2, 3, 5, 9, 70][case % 6];
            let mut degrees = Vec::new();
            let mut m = 0u32;
            while m < (case as u32 % 150) + 1 {
                let d = 1 + rng.below(max_run) as u32;
                degrees.push(d);
                m += d;
            }
            let mut offsets = vec![0u32];
            for &d in &degrees {
                offsets.push(offsets.last().unwrap() + d);
            }
            let gaps: Vec<u32> = (0..m)
                .map(|_| match rng.below(8) {
                    // Rare huge gaps make some runs overflow.
                    0 => u32::MAX - rng.below(4) as u32,
                    1 => rng.next() as u32 >> 1,
                    _ => rng.below(1000) as u32,
                })
                .collect();
            let (mut a, mut b) = (gaps.clone(), gaps);
            let ok_a = segmented_prefix_sum_scalar(&mut a, &offsets);
            #[cfg(target_arch = "x86_64")]
            let ok_b = x86::segmented_prefix_sum_sse2(&mut b, &offsets);
            #[cfg(not(target_arch = "x86_64"))]
            let ok_b = segmented_prefix_sum_scalar(&mut b, &offsets);
            assert_eq!(ok_a, ok_b, "case {case}");
            assert_eq!(a, b, "case {case}");
        }
    }

    // -- Fused validation -------------------------------------------------

    /// A v3 payload from raw header words and the three varint columns.
    fn handmade(header: [u32; 4], dsts: &[u32], degrees: &[u32], srcs: &[u32]) -> Vec<u8> {
        let mut p = Vec::new();
        for w in header {
            p.extend_from_slice(&w.to_le_bytes());
        }
        for &v in dsts.iter().chain(degrees).chain(srcs) {
            push_varint(&mut p, v);
        }
        p
    }

    /// Parse a v3 payload through the view parser with the checksum
    /// skipped, as the verify-once policy does after a first load.
    fn parse_v3(payload: &[u8]) -> StorageResult<crate::dsss::SubShardView> {
        use nxgraph_storage::format::{write_blob_encoded, Encoding, FileKind};
        let mut blob = Vec::new();
        write_blob_encoded(
            &mut blob,
            FileKind::SubShard,
            payload,
            Encoding::DeltaVarint,
        )
        .unwrap();
        crate::dsss::SubShardView::parse(blob.into(), "v3", false)
    }

    #[test]
    fn fused_validation_rejects_what_validate_csr_rejects() {
        let cases: [(&str, Vec<u8>); 5] = [
            // dsts 3, 3: a zero gap after the first.
            (
                "dst gap 0",
                handmade([0, 0, 2, 2], &[3, 0], &[1, 1], &[1, 2]),
            ),
            // Slot 0 has no edges.
            ("degree 0", handmade([0, 0, 2, 1], &[1, 1], &[0, 1], &[5])),
            // Degrees sum to 2, the header claims 3 edges.
            ("degree sum", handmade([0, 0, 1, 3], &[1], &[2], &[1, 1, 1])),
            // u32::MAX then +1 inside one source run.
            (
                "src overflow",
                handmade([0, 0, 1, 2], &[0], &[2], &[u32::MAX, 1]),
            ),
            // u32::MAX then +1 across the destinations.
            (
                "dst overflow",
                handmade([0, 0, 2, 2], &[u32::MAX, 1], &[1, 1], &[0, 0]),
            ),
        ];
        for (what, payload) in cases {
            let err = parse_v3(&payload).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
        }
        // The raw forms of the two cases a raw payload can express are
        // what the structural validator rejects.
        let raw = |dsts: &[u32], offsets: &[u32], srcs: &[u32]| {
            SubShardView::from_csr(0, 0, dsts, offsets, srcs).validate("raw")
        };
        assert!(raw(&[3, 3], &[0, 1, 2], &[1, 2]).is_err());
        assert!(raw(&[1, 2], &[0, 0, 1], &[5]).is_err());
        // The well-formed neighbour of each parses.
        let ok = parse_v3(&handmade([0, 0, 2, 2], &[3, 1], &[1, 1], &[1, 2])).unwrap();
        assert_eq!(
            (ok.dsts(), ok.offsets(), ok.srcs()),
            (&[3, 4][..], &[0, 1, 2][..], &[1, 2][..])
        );
        assert!(parse_v3(&handmade([0, 0, 1, 2], &[0], &[2], &[u32::MAX, 0])).is_ok());
    }

    #[test]
    fn mixed_subshard_roundtrips_through_the_view() {
        let ss = mixed_subshard();
        let view = parse_v3(&encode_subshard_payload(&ss).unwrap()).unwrap();
        assert_eq!(view, ss);
    }

    #[test]
    fn auto_threshold() {
        assert!(auto_keeps(60, 64));
        assert!(!auto_keeps(63, 64));
        assert!(!auto_keeps(64, 64));
    }
}
