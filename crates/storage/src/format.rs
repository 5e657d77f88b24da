//! Little-endian binary encoding with checksummed headers.
//!
//! Intervals, sub-shards and hubs are stored as typed arrays prefixed with a
//! fixed 32-byte header. The header carries a magic, a format version, a
//! caller-chosen `kind` tag, the payload length and an FNV-1a checksum of
//! the payload, so truncated or corrupted files are detected at load time
//! rather than producing silently wrong graph results.

use std::collections::HashSet;
use std::io::Write;
use std::ops::Range;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};

/// Magic bytes identifying NXgraph binary files.
pub const MAGIC: [u8; 8] = *b"NXGRAPH\0";

/// Version tag of raw (uncompressed) blobs. Version 2 switched the payload
/// checksum from byte-at-a-time FNV-1a to the 8-bytes-per-step
/// [`fnv1a_words`]; raw blobs are still written as version 2 bytes, so
/// every pre-v3 file loads unchanged.
pub const VERSION: u32 = 2;

/// Version tag of delta+varint compressed blobs (format v3). The header
/// layout is identical to v2 — only the payload bytes differ — and readers
/// sniff the version per blob, so raw and compressed files mix freely
/// within one prepared graph.
pub const VERSION_COMPRESSED: u32 = 3;

/// How a blob's payload is encoded on disk (sniffed from the header
/// version at load time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Little-endian `u32` words — the v2 layout the zero-copy views cast
    /// in place.
    Raw,
    /// Delta-coded monotone columns as LEB128 varints (v3), inflated into
    /// an aligned buffer once per load.
    DeltaVarint,
}

impl Encoding {
    /// The header version tag blobs of this encoding carry.
    pub fn version(self) -> u32 {
        match self {
            Encoding::Raw => VERSION,
            Encoding::DeltaVarint => VERSION_COMPRESSED,
        }
    }

    /// The encoding a sniffed header version denotes, if supported.
    pub fn from_version(version: u32) -> Option<Self> {
        match version {
            VERSION => Some(Encoding::Raw),
            VERSION_COMPRESSED => Some(Encoding::DeltaVarint),
            _ => None,
        }
    }
}

/// Writer-side choice of blob encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingPolicy {
    /// Encode both ways per blob and keep the compressed bytes only when
    /// they beat the ratio threshold — the recommended setting for
    /// disk-budgeted runs.
    Auto,
    /// Always write raw v2 words (the default: byte-compatible with every
    /// pre-v3 reader, and the zero-copy cast needs no inflation).
    #[default]
    Raw,
    /// Write delta+varint whenever the blob's columns permit it, even when
    /// the bytes saved are marginal (testing / forced-compression runs).
    Compressed,
}

impl std::str::FromStr for EncodingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(EncodingPolicy::Auto),
            "raw" => Ok(EncodingPolicy::Raw),
            "compressed" => Ok(EncodingPolicy::Compressed),
            other => Err(format!(
                "unknown encoding {other:?} (expected raw|auto|compressed)"
            )),
        }
    }
}

impl std::fmt::Display for EncodingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EncodingPolicy::Auto => "auto",
            EncodingPolicy::Raw => "raw",
            EncodingPolicy::Compressed => "compressed",
        })
    }
}

/// Kind tags for the different file types (stored in the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum FileKind {
    /// Raw edge list (pre-shard): pairs of u32 (src, dst).
    EdgeList = 1,
    /// Interval attribute payload (opaque bytes owned by the program).
    Interval = 2,
    /// Sub-shard in destination-sorted CSR form.
    SubShard = 3,
    /// DPU hub: destination ids + accumulator payload.
    Hub = 4,
    /// Degree table: u32 per vertex.
    Degrees = 5,
    /// Id mapping table.
    Mapping = 6,
}

impl FileKind {
    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => FileKind::EdgeList,
            2 => FileKind::Interval,
            3 => FileKind::SubShard,
            4 => FileKind::Hub,
            5 => FileKind::Degrees,
            6 => FileKind::Mapping,
            _ => return None,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-style 64-bit hash consuming 8 bytes per step: the blob checksum
/// since format version 2.
///
/// Each full little-endian `u64` word is folded with one xor + one
/// multiply (8× fewer multiplies than textbook byte-wise FNV-1a); the
/// sub-word tail falls back to byte steps, so inputs shorter than 8 bytes
/// hash identically to FNV-1a. Any single-byte change still always changes
/// the hash: xor is injective in the word and multiplication by the odd
/// FNV prime is injective mod 2⁶⁴. This is *not* the same function as
/// byte-wise FNV-1a for inputs ≥ 8 bytes, which is why switching to it
/// bumped [`VERSION`].
pub fn fnv1a_words(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Write a raw (v2) header + payload to `w`.
pub fn write_blob(w: &mut dyn Write, kind: FileKind, payload: &[u8]) -> StorageResult<()> {
    write_blob_encoded(w, kind, payload, Encoding::Raw)
}

/// Write a header + payload to `w` with the given encoding's version tag.
/// The checksum always covers the stored (possibly compressed) payload
/// bytes, so verification cost scales with what is actually read.
pub fn write_blob_encoded(
    w: &mut dyn Write,
    kind: FileKind,
    payload: &[u8],
    encoding: Encoding,
) -> StorageResult<()> {
    let mut header = [0u8; 32];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&encoding.version().to_le_bytes());
    header[12..16].copy_from_slice(&(kind as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&fnv1a_words(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Validate a 32-byte header: magic, a known version and a known kind tag,
/// which must equal `expect` when one is given. Returns the kind, the
/// payload encoding, length and expected checksum.
fn check_header(
    header: &[u8; 32],
    expect: Option<FileKind>,
    name: &str,
) -> StorageResult<(FileKind, Encoding, usize, u64)> {
    let corrupt = |reason: String| StorageError::Corrupt {
        name: name.to_string(),
        reason,
    };
    if header[0..8] != MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let Some(encoding) = Encoding::from_version(version) else {
        return Err(corrupt(format!("unsupported version {version}")));
    };
    let kind_raw = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let kind = match (FileKind::from_u32(kind_raw), expect) {
        (None, _) => return Err(corrupt(format!("unknown kind tag {kind_raw}"))),
        (Some(k), Some(want)) if k != want => {
            return Err(corrupt(format!("expected {want:?}, found {k:?}")))
        }
        (Some(k), _) => k,
    };
    let len = u64::from_le_bytes(header[16..24].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(header[24..32].try_into().unwrap());
    Ok((kind, encoding, len, checksum))
}

/// The 32-byte header at the front of `blob`.
fn header_of<'a>(blob: &'a [u8], name: &str) -> StorageResult<&'a [u8; 32]> {
    match blob.get(0..32) {
        Some(h) => Ok(h.try_into().expect("a 32-byte slice")),
        None => Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: format!("short header: {} bytes", blob.len()),
        }),
    }
}

/// Validate the header of an in-memory blob and return its raw payload
/// range — the entry point for kinds that are never compressed (intervals,
/// degree and mapping tables), which decode the range in place. `name` is
/// used only for error messages.
///
/// `verify_checksum: false` skips the payload hash (the header fields are
/// always checked); callers gate it through a [`ChecksumPolicy`] so a file
/// streamed every iteration pays for integrity verification once, not per
/// load. Skipping verification can never change computed results — it only
/// delays when corruption of an already-verified file would be noticed.
pub fn parse_blob(
    blob: &[u8],
    expect: FileKind,
    name: &str,
    verify_checksum: bool,
) -> StorageResult<Range<usize>> {
    let (encoding, payload) = parse_blob_encoded(blob, expect, name, verify_checksum)?;
    // Raw-only: handing a compressed payload range to a caller that casts
    // words would yield garbage, not an error.
    if encoding != Encoding::Raw {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: format!("unexpected {encoding:?} payload for a raw-only kind"),
        });
    }
    Ok(payload)
}

/// Like [`parse_blob`], additionally reporting the sniffed payload
/// encoding so view parsers can pick the in-place cast (raw) or the
/// inflate path (delta+varint) per blob.
pub fn parse_blob_encoded(
    blob: &[u8],
    expect: FileKind,
    name: &str,
    verify_checksum: bool,
) -> StorageResult<(Encoding, Range<usize>)> {
    let (_, encoding, len, checksum) = check_header(header_of(blob, name)?, Some(expect), name)?;
    let Some(payload) = blob.get(32..32 + len) else {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: format!("short payload: {} of {len} bytes", blob.len() - 32),
        });
    };
    if verify_checksum && fnv1a_words(payload) != checksum {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: "checksum mismatch".into(),
        });
    }
    Ok((encoding, 32..32 + len))
}

/// Fully validate an in-memory blob of *any* kind — the scrubber's entry
/// point, where the expected kind comes from the file name rather than a
/// typed call site. Checks the magic, a known version, a known kind tag,
/// that the stored length accounts for **exactly** the blob's bytes (a
/// flipped length-field bit must not pass as "trailing garbage"), and the
/// payload checksum — always, regardless of any [`ChecksumPolicy`].
/// Returns the kind and encoding read from the header.
pub fn verify_blob(blob: &[u8], name: &str) -> StorageResult<(FileKind, Encoding)> {
    let (kind, encoding, len, checksum) = check_header(header_of(blob, name)?, None, name)?;
    if blob.len() != 32 + len {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: format!("length field says {len}, file holds {}", blob.len() - 32),
        });
    }
    if fnv1a_words(&blob[32..]) != checksum {
        return Err(StorageError::Corrupt {
            name: name.to_string(),
            reason: "checksum mismatch".into(),
        });
    }
    Ok((kind, encoding))
}

/// Verify-once checksum policy, shared per file name across loads
/// (including the read pipeline's worker threads).
///
/// The first load of each name verifies and later loads skip; concurrent
/// first loads may both verify, which is harmless. Verification only
/// affects *when* corruption is detected, never the values computed from
/// an intact file.
#[derive(Default)]
pub struct ChecksumPolicy {
    seen: Mutex<HashSet<String>>,
}

impl ChecksumPolicy {
    /// Whether this load of `name` must verify the payload checksum.
    ///
    /// Callers must report a *successful* verification back via
    /// [`ChecksumPolicy::note_verified`] — a failed (corrupt) load must
    /// not disable verification for the name, or a retry would silently
    /// skip the very check that caught the corruption.
    pub fn should_verify(&self, name: &str) -> bool {
        !self.seen.lock().contains(name)
    }

    /// Record that `name` was loaded with its checksum verified; later
    /// loads of the same name skip the hash.
    pub fn note_verified(&self, name: &str) {
        self.seen.lock().insert(name.to_string());
    }

    /// Whether a load of a file that is *rewritten during a run* (hubs)
    /// must verify: always. The verify-once skip is justified only for
    /// immutable files — a rewritten name carries fresh bytes every time.
    pub fn should_verify_mutable(&self) -> bool {
        true
    }

    /// Forget that `name` was verified. Must be called whenever the bytes
    /// behind a name change or vanish — a fold rewriting a base in place,
    /// a sweep removing a file whose name may be reused — so the next load
    /// re-verifies fresh bytes instead of riding the stale cache entry.
    pub fn note_invalidated(&self, name: &str) {
        self.seen.lock().remove(name);
    }
}

// ---------------------------------------------------------------------------
// Typed array helpers
// ---------------------------------------------------------------------------

/// Encode a `u32` slice as little-endian bytes.
pub fn encode_u32s(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Borrow a little-endian byte slice as `&[u32]` without copying.
///
/// Returns `None` when the length is not a multiple of 4, the pointer is
/// not 4-byte aligned, or the host is big-endian — callers fall back to a
/// copying decode. This is the primitive behind the zero-copy sub-shard
/// views: on the (little-endian) targets we run on, a page-aligned read
/// buffer makes every typed region directly addressable.
pub fn cast_u32s(data: &[u8]) -> Option<&[u32]> {
    if !data.len().is_multiple_of(4)
        || !(data.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>())
        || cfg!(target_endian = "big")
    {
        return None;
    }
    // Safety: length and alignment checked above; u32 has no invalid bit
    // patterns; on little-endian hosts the in-memory and on-disk byte
    // orders coincide.
    Some(unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u32>(), data.len() / 4) })
}

/// Mutable counterpart of [`cast_u32s`]: borrow a little-endian byte
/// buffer as `&mut [u32]` so a decoder can inflate words directly into a
/// pooled page-aligned read buffer. Same preconditions, same `None`
/// fallback contract.
pub fn cast_u32s_mut(data: &mut [u8]) -> Option<&mut [u32]> {
    if !data.len().is_multiple_of(4)
        || !(data.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>())
        || cfg!(target_endian = "big")
    {
        return None;
    }
    // Safety: as in `cast_u32s`, plus exclusive access via `&mut`.
    Some(unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u32>(), data.len() / 4) })
}

/// Decode little-endian bytes into a `u32` vector.
pub fn decode_u32s(data: &[u8]) -> StorageResult<Vec<u32>> {
    if !data.len().is_multiple_of(4) {
        return Err(StorageError::Corrupt {
            name: "<u32 array>".into(),
            reason: format!("length {} not a multiple of 4", data.len()),
        });
    }
    // Aligned little-endian input decodes with one memcpy straight into
    // the caller-visible vector instead of a per-element gather.
    if let Some(words) = cast_u32s(data) {
        return Ok(words.to_vec());
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Append a `u32` in little-endian to a buffer.
#[inline]
pub fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian to a buffer.
#[inline]
pub fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // FNV-1a test vectors, all shorter than a word.
        assert_eq!(fnv1a_words(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_words(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_words(b"foobar"), 0x85944171f73967e8);
        // One word plus a byte: the checksum every v2+ blob carries.
        assert_eq!(fnv1a_words(b"foobarbaz"), 0x62ee3743058643f9);
    }

    #[test]
    fn fnv_words_matches_bytes_below_a_word() {
        let bytewise = |data: &[u8]| {
            data.iter()
                .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
        };
        for len in 0..8usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
            assert_eq!(fnv1a_words(&data), bytewise(&data), "len {len}");
        }
        // At and past a full word the functions intentionally diverge.
        assert_ne!(fnv1a_words(b"12345678"), bytewise(b"12345678"));
    }

    #[test]
    fn fnv_words_detects_any_single_byte_change() {
        let base: Vec<u8> = (0..64u8).collect();
        let h = fnv1a_words(&base);
        for pos in 0..base.len() {
            let mut fl = base.clone();
            fl[pos] ^= 0x01;
            assert_ne!(fnv1a_words(&fl), h, "flip at {pos} undetected");
        }
    }

    #[test]
    fn parse_blob_skip_checksum_still_checks_header() {
        let mut buf = Vec::new();
        write_blob(&mut buf, FileKind::Hub, &[1u8; 40]).unwrap();
        // Corrupt the payload: detected only when verifying.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(parse_blob(&buf, FileKind::Hub, "t", true).is_err());
        assert!(parse_blob(&buf, FileKind::Hub, "t", false).is_ok());
        // Corrupt the magic: detected either way.
        buf[0] ^= 0xff;
        assert!(parse_blob(&buf, FileKind::Hub, "t", false).is_err());
    }

    #[test]
    fn checksum_policy_modes() {
        let once = ChecksumPolicy::default();
        // Rewritten files verify on every load.
        assert!(once.should_verify_mutable());
        // Skipping starts only after a *successful* verification is noted;
        // a failed first load must leave verification armed.
        assert!(once.should_verify("a"));
        assert!(once.should_verify("a"), "unverified name stays armed");
        once.note_verified("a");
        assert!(!once.should_verify("a"));
        assert!(once.should_verify("b"));
    }

    #[test]
    fn checksum_policy_invalidation_rearms_verification() {
        let once = ChecksumPolicy::default();
        once.note_verified("a");
        assert!(!once.should_verify("a"));
        once.note_invalidated("a");
        assert!(once.should_verify("a"), "rewritten name must re-verify");
        // Invalidating an unknown name is a harmless no-op.
        once.note_invalidated("never-seen");
    }

    #[test]
    fn verify_blob_catches_every_single_bit_flip() {
        let payload = encode_u32s(&(0..40u32).collect::<Vec<_>>());
        let mut buf = Vec::new();
        write_blob_encoded(&mut buf, FileKind::SubShard, &payload, Encoding::Raw).unwrap();
        assert_eq!(
            verify_blob(&buf, "t").unwrap(),
            (FileKind::SubShard, Encoding::Raw)
        );
        // Any single bit flip — header or payload — must be *detectable*:
        // either `verify_blob` errors, or (for flips landing on another
        // valid version/kind tag, which the payload checksum cannot see)
        // the returned pair differs from the writer's, which the scrubber
        // catches by comparing against the kind its file name implies and
        // by deep-decoding referenced blobs.
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut fl = buf.clone();
                fl[byte] ^= 1 << bit;
                match verify_blob(&fl, "t") {
                    Err(_) => {}
                    Ok(got) => assert_ne!(
                        got,
                        (FileKind::SubShard, Encoding::Raw),
                        "flip at byte {byte} bit {bit} undetected"
                    ),
                }
            }
        }
        // Truncation and extension are length-field mismatches.
        assert!(verify_blob(&buf[..buf.len() - 1], "t").is_err());
        let mut ext = buf.clone();
        ext.push(0);
        assert!(verify_blob(&ext, "t").is_err());
        assert!(verify_blob(&buf[..16], "t").is_err());
    }

    #[test]
    fn cast_u32s_respects_length_and_alignment() {
        let vals = vec![1u32, 2, 3, 4];
        let bytes = encode_u32s(&vals);
        if cfg!(target_endian = "little") {
            // Vec allocations are at least word-aligned on every supported
            // allocator, so the cast succeeds from offset 0…
            assert_eq!(cast_u32s(&bytes).unwrap(), &vals[..]);
            // …and fails one byte in (misaligned) or on ragged lengths.
            assert!(cast_u32s(&bytes[1..5]).is_none());
        }
        assert!(cast_u32s(&bytes[..7]).is_none());
        // Either way the copying decode agrees.
        assert_eq!(decode_u32s(&bytes).unwrap(), vals);
    }

    #[test]
    fn encoded_blob_roundtrip_and_sniff() {
        let payload = b"varint soup".to_vec();
        let mut v3 = Vec::new();
        write_blob_encoded(&mut v3, FileKind::SubShard, &payload, Encoding::DeltaVarint).unwrap();
        // The versioned parser sniffs DeltaVarint…
        let (enc, range) = parse_blob_encoded(&v3, FileKind::SubShard, "t", true).unwrap();
        assert_eq!(enc, Encoding::DeltaVarint);
        assert_eq!(&v3[range], &payload[..]);
        // …while the raw-only parser rejects it with a clear error.
        let err = parse_blob(&v3, FileKind::SubShard, "t", true).unwrap_err();
        assert!(err.to_string().contains("DeltaVarint"), "{err}");
        // Raw blobs report Raw through the encoded entry points too.
        let mut v2 = Vec::new();
        write_blob(&mut v2, FileKind::SubShard, &payload).unwrap();
        let (enc, _) = parse_blob_encoded(&v2, FileKind::SubShard, "t", true).unwrap();
        assert_eq!(enc, Encoding::Raw);
        // Unknown versions stay rejected.
        let mut v9 = v2.clone();
        v9[8] = 9;
        assert!(parse_blob_encoded(&v9, FileKind::SubShard, "t", false).is_err());
    }

    #[test]
    fn encoding_maps_to_versions() {
        assert_eq!(Encoding::Raw.version(), VERSION);
        assert_eq!(Encoding::DeltaVarint.version(), VERSION_COMPRESSED);
        assert_eq!(Encoding::from_version(2), Some(Encoding::Raw));
        assert_eq!(Encoding::from_version(3), Some(Encoding::DeltaVarint));
        assert_eq!(Encoding::from_version(1), None);
        assert_eq!("raw".parse::<EncodingPolicy>().unwrap(), EncodingPolicy::Raw);
        assert_eq!("auto".parse::<EncodingPolicy>().unwrap(), EncodingPolicy::Auto);
        assert_eq!(
            "compressed".parse::<EncodingPolicy>().unwrap(),
            EncodingPolicy::Compressed
        );
        assert!("gzip".parse::<EncodingPolicy>().is_err());
        assert_eq!(EncodingPolicy::Auto.to_string(), "auto");
        assert_eq!(EncodingPolicy::default(), EncodingPolicy::Raw);
    }

    #[test]
    fn cast_u32s_mut_matches_const_cast() {
        let mut bytes = encode_u32s(&[10u32, 20, 30]);
        if cfg!(target_endian = "little") {
            let words = cast_u32s_mut(&mut bytes).unwrap();
            words[1] = 99;
            assert_eq!(decode_u32s(&bytes).unwrap(), vec![10, 99, 30]);
        }
        assert!(cast_u32s_mut(&mut [0u8; 7][..]).is_none());
    }

    #[test]
    fn blob_roundtrip() {
        let payload = encode_u32s(&[1, 2, 3, 0xdeadbeef]);
        let mut buf = Vec::new();
        write_blob(&mut buf, FileKind::SubShard, &payload).unwrap();
        let range = parse_blob(&buf, FileKind::SubShard, "t", true).unwrap();
        assert_eq!(range, 32..buf.len());
        assert_eq!(&buf[range], &payload[..]);
    }

    #[test]
    fn blob_detects_corruption() {
        let payload = encode_u32s(&[7; 16]);
        let mut buf = Vec::new();
        write_blob(&mut buf, FileKind::Hub, &payload).unwrap();
        // Flip a payload byte.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let err = parse_blob(&buf, FileKind::Hub, "t", true).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
    }

    #[test]
    fn blob_detects_wrong_kind() {
        let mut buf = Vec::new();
        write_blob(&mut buf, FileKind::Hub, b"x").unwrap();
        let err = parse_blob(&buf, FileKind::Interval, "t", true).unwrap_err();
        assert!(err.to_string().contains("expected Interval, found Hub"), "{err}");
    }

    #[test]
    fn blob_detects_truncation() {
        let mut buf = Vec::new();
        write_blob(&mut buf, FileKind::Degrees, &[0u8; 100]).unwrap();
        // Short payload, one byte short, and short header.
        for keep in [50, buf.len() - 1, 16] {
            assert!(parse_blob(&buf[..keep], FileKind::Degrees, "t", true).is_err(), "{keep}");
        }
    }

    #[test]
    fn u32_roundtrip() {
        let vals = vec![0, 1, u32::MAX, 42];
        assert_eq!(decode_u32s(&encode_u32s(&vals)).unwrap(), vals);
        assert!(decode_u32s(&[0, 1, 2]).is_err());
    }
}
