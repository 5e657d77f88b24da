//! LEB128 variable-length integers — the byte-level primitive behind the
//! compressed (format v3) sub-shard and hub encodings.
//!
//! A `u32` is stored as 1–5 bytes of 7 payload bits each, low groups
//! first, with the high bit of every byte except the last set as a
//! continuation marker. The destination-sorted sub-shard columns are
//! locally monotone, so their deltas are small and the common case is a
//! single byte where the raw format spends four.
//!
//! [`read_varints`] is the bulk decoder every v3 column goes through. On
//! `x86_64` hosts with SSSE3 (a cached runtime check, as in the engine's
//! SIMD absorb) it is Masked VByte (Plaisance, Kurz & Lemire, "Vectorized
//! VByte Decoding", 2015): the continuation bits of 64 bytes via
//! `pmovmskb`, and per 16-byte window a `pshufb` mask from a `const`-built
//! table that spreads up to four 1–3-byte values into `u32` lanes. A 4- or 5-byte value
//! decodes through [`read_varint`] alone and the vector loop resumes after
//! it. [`read_varints_scalar`] — one [`read_varint`] per value — is the
//! reference and the path everywhere else; both accept and reject exactly
//! the same streams.

use crate::error::{StorageError, StorageResult};

/// Longest LEB128 encoding of a `u32` (⌈32/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 5;

/// Append `v` to `buf` as LEB128.
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encoded length of `v` in bytes (1–5), without writing it.
#[inline]
pub fn varint_len(v: u32) -> usize {
    // 0 encodes in one byte; otherwise one byte per started 7-bit group.
    ((32 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Decode one LEB128 `u32` from `data` starting at `*pos`, advancing
/// `*pos` past it.
///
/// Errors (as [`StorageError::Corrupt`]) on truncation — the slice ends
/// mid-value — on overflow (more than [`MAX_VARINT_LEN`] bytes or set
/// bits past bit 31) and on non-canonical padding (a zero final group
/// after a continuation byte, which [`push_varint`] never emits).
/// Rejecting padding makes the encoding bijective: a checksummed v3 blob
/// is the *unique* byte string for its decoded arrays. Corrupt
/// compressed blobs therefore surface as clean errors, never as wrapped
/// values or panics.
#[inline(always)]
pub fn read_varint(data: &[u8], pos: &mut usize, name: &str) -> StorageResult<u32> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(corrupt(name, "truncated varint"));
        };
        *pos += 1;
        let group = (byte & 0x7f) as u32;
        if shift == 28 && group > 0x0f {
            return Err(corrupt(name, "varint overflows u32"));
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(corrupt(name, PADDED));
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err(corrupt(name, "varint longer than 5 bytes"));
        }
    }
}

/// Why a value ending in a zero group after a continuation byte is
/// rejected.
const PADDED: &str = "non-canonical varint (padded with zero group)";

/// The error of a corrupt stream; out of line so the decoders inline
/// only their hot path.
#[cold]
#[inline(never)]
fn corrupt(name: &str, reason: &str) -> StorageError {
    StorageError::Corrupt {
        name: name.to_string(),
        reason: reason.to_string(),
    }
}

/// Decode `out.len()` consecutive LEB128 `u32`s from `data` starting at
/// `*pos`, advancing `*pos` past them.
///
/// Accepts and rejects exactly what a loop of [`read_varint`] does, and
/// on success writes the same values; only the error text (and `*pos`
/// after an error) may differ. Dispatches to the SSSE3 decoder when the
/// host has it, else to [`read_varints_scalar`].
#[inline]
pub fn read_varints(
    data: &[u8],
    pos: &mut usize,
    out: &mut [u32],
    name: &str,
) -> StorageResult<()> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            // Safety: SSSE3 support was just verified at runtime.
            return unsafe { read_varints_ssse3(data, pos, out, name) };
        }
    }
    read_varints_scalar(data, pos, out, name)
}

/// The reference bulk decoder: one [`read_varint`] per value.
pub fn read_varints_scalar(
    data: &[u8],
    pos: &mut usize,
    out: &mut [u32],
    name: &str,
) -> StorageResult<()> {
    for v in out.iter_mut() {
        *v = read_varint(data, pos, name)?;
    }
    Ok(())
}

/// One entry of the Masked VByte group table: how to spread the leading
/// 1–4 varints of a 16-byte window, each 1–3 bytes long, into `u32`
/// lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
#[repr(C, align(16))]
struct Group {
    /// `pshufb` control: lane `l` takes the value's bytes into its low
    /// bytes; `0x80` zeroes the rest (and every lane past `count`).
    shuffle: [u8; 16],
    /// Smallest canonical value per lane, `2^(7·(len−1))` for a
    /// multi-byte value, else 0: anything smaller ends in a zero group.
    min: [u32; 4],
    /// Values decoded (0 for the entry of a window that starts with a 4-
    /// or 5-byte value).
    count: u8,
}

/// Entries of [`GROUPS`]: index 0 is the "first value is long" entry,
/// then `3^k` length combinations for each `k` = 1..4 leading values.
#[cfg(target_arch = "x86_64")]
const NUM_GROUPS: usize = 1 + 3 + 9 + 27 + 81;

/// First [`GROUPS`] index of the `k`-value entries.
#[cfg(target_arch = "x86_64")]
const fn group_base(k: usize) -> usize {
    // 1, 4, 13, 40: the 3^1 + … + 3^(k−1) entries before, after entry 0.
    (3usize.pow(k as u32) - 1) / 2
}

#[cfg(target_arch = "x86_64")]
const fn build_groups() -> [Group; NUM_GROUPS] {
    let mut groups = [Group {
        shuffle: [0x80; 16],
        min: [0; 4],
        count: 0,
    }; NUM_GROUPS];
    let mut k = 1;
    while k <= 4 {
        let mut code = 0;
        while code < 3usize.pow(k as u32) {
            let g = &mut groups[group_base(k) + code];
            let (mut digits, mut q, mut lane) = (code, 0usize, 0usize);
            while lane < k {
                let len = digits % 3 + 1;
                digits /= 3;
                let mut b = 0;
                while b < len {
                    g.shuffle[4 * lane + b] = (q + b) as u8;
                    b += 1;
                }
                g.min[lane] = if len == 1 { 0 } else { 1 << (7 * (len - 1)) };
                q += len;
                lane += 1;
            }
            g.count = k as u8;
            code += 1;
        }
        k += 1;
    }
    groups
}

/// Map the low 12 continuation bits of a window to its [`GROUPS`] entry
/// (low byte) and the bytes that entry consumes (high byte): the longest
/// prefix, up to four values, of 1–3-byte varints. Keeping the byte count
/// here leaves one table load on the decoder's loop-carried chain.
#[cfg(target_arch = "x86_64")]
const fn build_mask_table() -> [u16; 4096] {
    let mut table = [0u16; 4096];
    let mut mask = 0usize;
    while mask < 4096 {
        let (mut q, mut k, mut code, mut weight) = (0usize, 0usize, 0usize, 1usize);
        while k < 4 {
            // Continuation bits in a row from byte `q`; three mean a value
            // of four or more bytes, which the table leaves to the scalar
            // decoder. Bits read stay below 12: q ≤ 9 when k = 3.
            let mut ones = 0;
            while ones < 3 && (mask >> (q + ones)) & 1 == 1 {
                ones += 1;
            }
            if ones == 3 {
                break;
            }
            code += ones * weight;
            weight *= 3;
            q += ones + 1;
            k += 1;
        }
        let group = if k == 0 { 0 } else { group_base(k) + code };
        table[mask] = (group | q << 8) as u16;
        mask += 1;
    }
    table
}

#[cfg(target_arch = "x86_64")]
static GROUPS: [Group; NUM_GROUPS] = build_groups();

#[cfg(target_arch = "x86_64")]
static MASK_TABLE: [u16; 4096] = build_mask_table();

/// SSSE3 Masked VByte decoder behind [`read_varints`]; same contract.
///
/// The continuation bits of 64 bytes at a time are gathered into one
/// `u64`, so the loop-carried chain of each step is a shift and one table
/// load. Each step decodes the leading 1–3-byte values of the 16-byte
/// window at the cursor, four at a time (sixteen when all sixteen bytes
/// are single-byte values). A window that starts with a 4- or 5-byte
/// value decodes that one value with [`read_varint`]. Within 64 bytes of
/// the end the mask covers one window per step, and the values whose
/// window would run past `data` go through [`read_varints_scalar`].
/// Non-canonical groups (a multi-byte value below its length's minimum)
/// are collected across the loop and reported once at its end.
///
/// # Safety
/// The host must support SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
pub unsafe fn read_varints_ssse3(
    data: &[u8],
    pos: &mut usize,
    out: &mut [u32],
    name: &str,
) -> StorageResult<()> {
    use core::arch::x86_64::*;

    let n = out.len();
    let base = data.as_ptr();
    let mut q = *pos;
    let mut i = 0usize;
    let zero = _mm_setzero_si128();
    let mut padded = zero;
    while i + 4 <= n && q + 16 <= data.len() {
        // Continuation bits from `q` on, and the last window start they
        // cover in full.
        let (bits, last) = if q + 64 <= data.len() {
            // Safety: `q + 64 <= data.len()`; four loads cover
            // `data[q..q + 64]`.
            let m = |k: usize| unsafe {
                _mm_movemask_epi8(_mm_loadu_si128(base.add(q + 16 * k).cast())) as u16 as u64
            };
            (m(0) | m(1) << 16 | m(2) << 32 | m(3) << 48, 48)
        } else {
            // Safety: `q + 16 <= data.len()`.
            let m = unsafe { _mm_movemask_epi8(_mm_loadu_si128(base.add(q).cast())) };
            (m as u16 as u64, 0)
        };
        let mut at = 0usize;
        while at <= last && i + 4 <= n {
            // Safety: `at <= last`, so `q + at + 16 <= data.len()` in both
            // arms above.
            let window = unsafe { _mm_loadu_si128(base.add(q + at).cast()) };
            let mask = (bits >> at) as u32;
            if mask & 0xffff == 0 && i + 16 <= n {
                // Sixteen single-byte values: zero-extend bytes to words.
                let lo = _mm_unpacklo_epi8(window, zero);
                let hi = _mm_unpackhi_epi8(window, zero);
                // Safety: `i + 16 <= n`; the stores cover `out[i..i + 16]`.
                unsafe {
                    let dst = out.as_mut_ptr().add(i).cast::<__m128i>();
                    _mm_storeu_si128(dst, _mm_unpacklo_epi16(lo, zero));
                    _mm_storeu_si128(dst.add(1), _mm_unpackhi_epi16(lo, zero));
                    _mm_storeu_si128(dst.add(2), _mm_unpacklo_epi16(hi, zero));
                    _mm_storeu_si128(dst.add(3), _mm_unpackhi_epi16(hi, zero));
                }
                i += 16;
                at += 16;
                continue;
            }
            let entry = MASK_TABLE[(mask & 0xfff) as usize];
            let g = &GROUPS[(entry & 0xff) as usize];
            if g.count == 0 {
                let mut p = q + at;
                out[i] = read_varint(data, &mut p, name)?;
                i += 1;
                at = p - q;
                continue;
            }
            // Safety: `Group` is 16-byte aligned with `shuffle` and `min`
            // at offsets 0 and 16, so both aligned loads are in bounds.
            let (shuffle, min) = unsafe {
                (
                    _mm_load_si128(g.shuffle.as_ptr().cast()),
                    _mm_load_si128(g.min.as_ptr().cast()),
                )
            };
            // Lane = b0 | b1 << 8 | b2 << 16; drop the continuation bits
            // and close the one-bit holes they leave.
            let spread = _mm_shuffle_epi8(window, shuffle);
            let v = _mm_or_si128(
                _mm_or_si128(
                    _mm_and_si128(spread, _mm_set1_epi32(0x7f)),
                    _mm_and_si128(_mm_srli_epi32(spread, 1), _mm_set1_epi32(0x7f << 7)),
                ),
                _mm_and_si128(_mm_srli_epi32(spread, 2), _mm_set1_epi32(0x7f << 14)),
            );
            // Values are < 2^21, so the signed compare is exact.
            padded = _mm_or_si128(padded, _mm_cmplt_epi32(v, min));
            // Safety: `i + 4 <= n`. Lanes past `count` hold zeros that
            // later values overwrite: `i` advances by `count` only.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), v) };
            i += g.count as usize;
            at += (entry >> 8) as usize;
        }
        q += at;
    }
    if _mm_movemask_epi8(padded) != 0 {
        return Err(corrupt(name, PADDED));
    }
    *pos = q;
    read_varints_scalar(data, pos, &mut out[i..], name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u32) -> usize {
        let mut buf = Vec::new();
        push_varint(&mut buf, v);
        assert_eq!(buf.len(), varint_len(v), "len of {v}");
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos, "t").unwrap(), v);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn known_lengths() {
        assert_eq!(roundtrip(0), 1);
        assert_eq!(roundtrip(1), 1);
        assert_eq!(roundtrip(127), 1);
        assert_eq!(roundtrip(128), 2);
        assert_eq!(roundtrip(16_383), 2);
        assert_eq!(roundtrip(16_384), 3);
        assert_eq!(roundtrip(2_097_151), 3);
        assert_eq!(roundtrip(2_097_152), 4);
        assert_eq!(roundtrip(268_435_455), 4);
        assert_eq!(roundtrip(268_435_456), 5);
        assert_eq!(roundtrip(u32::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn roundtrips_across_the_range() {
        let mut v = 1u64;
        while v <= u32::MAX as u64 {
            roundtrip(v as u32);
            roundtrip((v - 1) as u32);
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn sequences_decode_in_order() {
        let vals = [0u32, 7, 300, 1 << 20, u32::MAX, 42];
        let mut buf = Vec::new();
        for &v in &vals {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos, "t").unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        push_varint(&mut buf, 1 << 20);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                read_varint(&buf[..cut], &mut pos, "t").is_err(),
                "cut at {cut} must fail"
            );
        }
        // Empty input.
        let mut pos = 0;
        assert!(read_varint(&[], &mut pos, "t").is_err());
    }

    #[test]
    fn overlong_and_overflowing_are_errors() {
        // Six continuation bytes: longer than any u32 encoding.
        let mut pos = 0;
        assert!(read_varint(&[0x80; 6], &mut pos, "t").is_err());
        // Non-canonical zero padding: decodes to 0 / 1 byte-wise but the
        // encoder never produces it, so it is rejected as corrupt.
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x00], &mut pos, "t").is_err());
        let mut pos = 0;
        assert!(read_varint(&[0x81, 0x80, 0x00], &mut pos, "t").is_err());
        // Five bytes whose top group sets bits past bit 31.
        let mut pos = 0;
        assert!(read_varint(&[0xff, 0xff, 0xff, 0xff, 0x7f], &mut pos, "t").is_err());
        // The maximal legal encoding still decodes.
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0x0f], &mut pos, "t").unwrap(),
            u32::MAX
        );
    }
}
