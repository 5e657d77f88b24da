//! Prepared-graph manifest.
//!
//! After preprocessing (degreeing + sharding) a graph lives on a [`Disk`]
//! as `P` interval slots, `P²` sub-shard files and a handful of tables. The
//! manifest records the shape so engines can open a prepared graph without
//! re-deriving anything. The format is a deliberately trivial line-oriented
//! `key = value` text file — no serde dependency, trivially inspectable
//! with `cat`.
//!
//! [`Disk`]: crate::disk::Disk

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};

/// Name of the manifest file on a prepared-graph disk.
pub const MANIFEST_FILE: &str = "graph.manifest";

/// Scratch name the manifest is written under before the atomic rename
/// onto [`MANIFEST_FILE`]. A crash between the two leaves this file
/// unreferenced; the orphan sweep reclaims it. The scrubber deliberately
/// *skips* it — sweeping it from the maintenance thread could race an
/// in-flight save between its write and rename.
pub const MANIFEST_TMP_FILE: &str = "graph.manifest.tmp";

/// Manifest extra key recording the current degree-table generation
/// (absent = 0, the prep-time `degrees.bin`). Degree bumps write the table
/// under a *new* generation name before the manifest save, so a torn
/// degree write can never corrupt the table a recovered manifest points
/// at.
pub const DEGREES_GEN_KEY: &str = "degrees_gen";

/// Per-cell delta-chain bookkeeping for streaming updates.
///
/// A sub-shard cell `(i, j, reverse)` is stored as one *base* blob plus an
/// append-only chain of *delta* blobs (each a destination-sorted sub-shard
/// of just the edges added by one batch). `gen` tags the base blob's file
/// name: compaction folds the chain into a fresh base under the *next*
/// generation and commits by saving the manifest, so a crash at any point
/// leaves either the old chain or the new base fully referenced — stale
/// files from the other side are simply never read. `gen == 0` maps to the
/// historical un-suffixed file names, so prepared graphs that never saw an
/// update keep their exact on-disk layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ChainInfo {
    /// Generation of the base blob (0 = the original prep-time file name).
    pub gen: u32,
    /// Number of delta blobs appended on top of the base.
    pub deltas: u32,
    /// Total on-disk bytes of those delta blobs, accumulated at append
    /// time so the writer's compaction check needs no per-delta stat
    /// calls on the hot commit path.
    pub delta_bytes: u64,
}

impl ChainInfo {
    /// Whether this cell is just a bare base blob under the original name
    /// (the state `chain_info` reports for cells with no manifest entry).
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

/// Shape and bookkeeping for a prepared graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphManifest {
    /// Human-readable graph name.
    pub name: String,
    /// Number of vertices after degreeing (dense id space, isolated
    /// vertices removed).
    pub num_vertices: u64,
    /// Number of edges.
    pub num_edges: u64,
    /// Number of intervals `P`.
    pub num_intervals: u32,
    /// Whether transposed (reverse-edge) sub-shards were also generated.
    pub has_reverse: bool,
    /// Free-form extra keys (kept sorted for deterministic output).
    pub extra: BTreeMap<String, String>,
}

impl GraphManifest {
    /// Create a manifest with no extra keys.
    pub fn new(
        name: impl Into<String>,
        num_vertices: u64,
        num_edges: u64,
        num_intervals: u32,
        has_reverse: bool,
    ) -> Self {
        Self {
            name: name.into(),
            num_vertices,
            num_edges,
            num_intervals,
            has_reverse,
            extra: BTreeMap::new(),
        }
    }

    /// Vertices per interval (last interval may be smaller).
    pub fn interval_len(&self) -> u64 {
        debug_assert!(self.num_intervals > 0);
        self.num_vertices.div_ceil(self.num_intervals as u64)
    }

    /// Vertex-id range `[start, end)` of interval `i`. Intervals past the
    /// end of the id space (possible when `P > n`) are empty ranges clamped
    /// to `(n, n)`-safe bounds.
    pub fn interval_range(&self, i: u32) -> (u64, u64) {
        let len = self.interval_len();
        let start = (len * i as u64).min(self.num_vertices);
        let end = (start + len).min(self.num_vertices);
        (start, end)
    }

    /// Interval index owning vertex `v`.
    pub fn interval_of(&self, v: u64) -> u32 {
        (v / self.interval_len()) as u32
    }

    /// Canonical file name of forward sub-shard `SS(i→j)`.
    pub fn subshard_file(i: u32, j: u32) -> String {
        format!("ss_{i}_{j}.bin")
    }

    /// Canonical file name of reverse sub-shard `SS'(i→j)` (edges of the
    /// transposed graph).
    pub fn rev_subshard_file(i: u32, j: u32) -> String {
        format!("rss_{i}_{j}.bin")
    }

    /// Stem shared by a cell's base, delta and chain-key names.
    fn cell_stem(i: u32, j: u32, reverse: bool) -> String {
        if reverse {
            format!("rss_{i}_{j}")
        } else {
            format!("ss_{i}_{j}")
        }
    }

    /// File name of the *base* blob of cell `(i, j, reverse)` at
    /// generation `gen`. Generation 0 is the prep-time name
    /// ([`GraphManifest::subshard_file`] /
    /// [`GraphManifest::rev_subshard_file`]); compaction bumps the
    /// generation so the fold never overwrites a blob readers may still be
    /// directed at.
    pub fn subshard_base_file(i: u32, j: u32, reverse: bool, gen: u32) -> String {
        if gen == 0 {
            format!("{}.bin", Self::cell_stem(i, j, reverse))
        } else {
            format!("{}.g{gen}.bin", Self::cell_stem(i, j, reverse))
        }
    }

    /// File name of the `k`-th delta blob (`k ≥ 1`) appended to cell
    /// `(i, j, reverse)` at base generation `gen`. The generation is part
    /// of the name so a crashed compaction can never leave a stale delta
    /// that collides with a later chain.
    pub fn subshard_delta_file(i: u32, j: u32, reverse: bool, gen: u32, k: u32) -> String {
        format!("{}.g{gen}.d{k}.bin", Self::cell_stem(i, j, reverse))
    }

    /// Manifest extra key recording a cell's [`ChainInfo`].
    fn chain_key(i: u32, j: u32, reverse: bool) -> String {
        format!("chain.{}", Self::cell_stem(i, j, reverse))
    }

    /// Delta-chain state of cell `(i, j, reverse)`; the absence of a chain
    /// key means the default (generation-0 base, no deltas). A malformed
    /// value is a [`StorageError::Corrupt`] — silently defaulting would
    /// make readers skip the chain's edges.
    pub fn chain_info(&self, i: u32, j: u32, reverse: bool) -> StorageResult<ChainInfo> {
        match self.extra.get(&Self::chain_key(i, j, reverse)) {
            None => Ok(ChainInfo::default()),
            Some(v) => Self::parse_chain_value(v),
        }
    }

    fn parse_chain_value(v: &str) -> StorageResult<ChainInfo> {
        let corrupt = || StorageError::Corrupt {
            name: MANIFEST_FILE.to_string(),
            reason: format!("malformed chain value {v:?} (expected \"gen:deltas:bytes\")"),
        };
        let mut fields = v.split(':');
        let mut next = || fields.next().map(str::trim).ok_or_else(corrupt);
        let info = ChainInfo {
            gen: next()?.parse().map_err(|_| corrupt())?,
            deltas: next()?.parse().map_err(|_| corrupt())?,
            delta_bytes: next()?.parse().map_err(|_| corrupt())?,
        };
        if fields.next().is_some() {
            return Err(corrupt());
        }
        Ok(info)
    }

    /// Record cell `(i, j, reverse)`'s chain state; the default state is
    /// stored as the *absence* of the key, keeping untouched graphs'
    /// manifests byte-identical to pre-delta-log writers.
    pub fn set_chain_info(&mut self, i: u32, j: u32, reverse: bool, info: ChainInfo) {
        let key = Self::chain_key(i, j, reverse);
        if info.is_default() {
            self.extra.remove(&key);
        } else {
            self.extra.insert(
                key,
                format!("{}:{}:{}", info.gen, info.deltas, info.delta_bytes),
            );
        }
    }

    /// Every cell with a non-default chain (a bumped generation and/or
    /// pending deltas), in deterministic order.
    pub fn chains(&self) -> StorageResult<Vec<(u32, u32, bool, ChainInfo)>> {
        let mut out = Vec::new();
        for (key, value) in &self.extra {
            let Some(stem) = key.strip_prefix("chain.") else {
                continue;
            };
            let (reverse, rest) = match stem.strip_prefix("rss_") {
                Some(rest) => (true, rest),
                None => match stem.strip_prefix("ss_") {
                    Some(rest) => (false, rest),
                    None => {
                        return Err(StorageError::Corrupt {
                            name: MANIFEST_FILE.to_string(),
                            reason: format!("unrecognised chain key {key:?}"),
                        })
                    }
                },
            };
            let cell = rest.split_once('_').and_then(|(i, j)| {
                Some((i.parse::<u32>().ok()?, j.parse::<u32>().ok()?))
            });
            let Some((i, j)) = cell else {
                return Err(StorageError::Corrupt {
                    name: MANIFEST_FILE.to_string(),
                    reason: format!("unrecognised chain key {key:?}"),
                });
            };
            out.push((i, j, reverse, Self::parse_chain_value(value)?));
        }
        Ok(out)
    }

    /// Canonical file name of an interval attribute slot.
    pub fn interval_file(j: u32) -> String {
        format!("interval_{j}.bin")
    }

    /// Canonical file name of hub `H(i→j)`.
    pub fn hub_file(i: u32, j: u32) -> String {
        format!("hub_{i}_{j}.bin")
    }

    /// Canonical file name of the out-degree table.
    pub fn degree_file() -> &'static str {
        "degrees.bin"
    }

    /// File name of the out-degree table at generation `gen` (0 = the
    /// prep-time [`GraphManifest::degree_file`] name).
    pub fn degree_file_at(gen: u32) -> String {
        if gen == 0 {
            Self::degree_file().to_string()
        } else {
            format!("degrees.g{gen}.bin")
        }
    }

    /// Current degree-table generation. A malformed value is a
    /// [`StorageError::Corrupt`] — silently defaulting to 0 would load a
    /// stale degree table and quietly skew every ranking algorithm.
    pub fn degrees_gen(&self) -> StorageResult<u32> {
        match self.extra.get(DEGREES_GEN_KEY) {
            None => Ok(0),
            Some(v) => v.parse().map_err(|_| StorageError::Corrupt {
                name: MANIFEST_FILE.to_string(),
                reason: format!("malformed {DEGREES_GEN_KEY} value {v:?}"),
            }),
        }
    }

    /// Record the degree-table generation; 0 is stored as the *absence* of
    /// the key, keeping untouched graphs' manifests byte-identical.
    pub fn set_degrees_gen(&mut self, gen: u32) {
        if gen == 0 {
            self.extra.remove(DEGREES_GEN_KEY);
        } else {
            self.extra.insert(DEGREES_GEN_KEY.to_string(), gen.to_string());
        }
    }

    /// File name of the degree table this manifest currently references.
    pub fn degree_file_current(&self) -> StorageResult<String> {
        Ok(Self::degree_file_at(self.degrees_gen()?))
    }

    /// Canonical file name of the index→id mapping table.
    pub fn mapping_file() -> &'static str {
        "mapping.bin"
    }

    /// Canonical file name of the id→index reverse mapping table.
    pub fn reverse_mapping_file() -> &'static str {
        "reverse_mapping.bin"
    }

    /// Serialise to the text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# NXgraph prepared-graph manifest");
        let _ = writeln!(s, "name = {}", self.name);
        let _ = writeln!(s, "num_vertices = {}", self.num_vertices);
        let _ = writeln!(s, "num_edges = {}", self.num_edges);
        let _ = writeln!(s, "num_intervals = {}", self.num_intervals);
        let _ = writeln!(s, "has_reverse = {}", self.has_reverse);
        for (k, v) in &self.extra {
            let _ = writeln!(s, "x.{k} = {v}");
        }
        s
    }

    /// Parse from the text format.
    pub fn from_text(text: &str) -> StorageResult<Self> {
        let mut name = None;
        let mut num_vertices = None;
        let mut num_edges = None;
        let mut num_intervals = None;
        let mut has_reverse = None;
        let mut extra = BTreeMap::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or(StorageError::Manifest {
                line: lineno + 1,
                reason: "missing '='".into(),
            })?;
            let key = key.trim();
            let value = value.trim();
            let parse_u64 = |v: &str| {
                v.parse::<u64>().map_err(|e| StorageError::Manifest {
                    line: lineno + 1,
                    reason: format!("bad integer {v:?}: {e}"),
                })
            };
            match key {
                "name" => name = Some(value.to_string()),
                "num_vertices" => num_vertices = Some(parse_u64(value)?),
                "num_edges" => num_edges = Some(parse_u64(value)?),
                "num_intervals" => {
                    let p = u32::try_from(parse_u64(value)?).ok().filter(|&p| p > 0);
                    num_intervals = Some(p.ok_or_else(|| StorageError::Manifest {
                        line: lineno + 1,
                        reason: format!("interval count {value:?} is not in 1..=2^32-1"),
                    })?)
                }
                "has_reverse" => {
                    has_reverse =
                        Some(value.parse::<bool>().map_err(|e| StorageError::Manifest {
                            line: lineno + 1,
                            reason: format!("bad bool {value:?}: {e}"),
                        })?)
                }
                k if k.starts_with("x.") => {
                    extra.insert(k[2..].to_string(), value.to_string());
                }
                other => {
                    return Err(StorageError::Manifest {
                        line: lineno + 1,
                        reason: format!("unknown key {other:?}"),
                    })
                }
            }
        }

        let missing = |what: &str| StorageError::Manifest {
            line: 0,
            reason: format!("missing required key {what:?}"),
        };
        Ok(Self {
            name: name.ok_or_else(|| missing("name"))?,
            num_vertices: num_vertices.ok_or_else(|| missing("num_vertices"))?,
            num_edges: num_edges.ok_or_else(|| missing("num_edges"))?,
            num_intervals: num_intervals.ok_or_else(|| missing("num_intervals"))?,
            has_reverse: has_reverse.unwrap_or(false),
            extra,
        })
    }

    /// Write the manifest onto a disk: tmp file first, then an atomic
    /// rename over [`MANIFEST_FILE`]. This is *the* commit point for every
    /// dynamic-graph mutation — a crash before the rename leaves the old
    /// manifest (and only files it references) fully intact, a crash after
    /// it leaves the new state; a torn manifest is impossible.
    pub fn save(&self, disk: &dyn Disk) -> StorageResult<()> {
        disk.write_all_to(MANIFEST_TMP_FILE, self.to_text().as_bytes())?;
        disk.rename(MANIFEST_TMP_FILE, MANIFEST_FILE)
    }

    /// Load the manifest from a disk.
    pub fn load(disk: &dyn Disk) -> StorageResult<Self> {
        let data = disk.read_all(MANIFEST_FILE)?;
        let text = String::from_utf8(data).map_err(|e| StorageError::Manifest {
            line: 0,
            reason: format!("manifest is not utf-8: {e}"),
        })?;
        Self::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn sample() -> GraphManifest {
        let mut m = GraphManifest::new("twitter-like", 41_700_000, 1_470_000_000, 24, true);
        m.extra.insert("generator".into(), "rmat".into());
        m
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        let back = GraphManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn disk_roundtrip() {
        let disk = MemDisk::new();
        sample().save(&disk).unwrap();
        assert_eq!(GraphManifest::load(&disk).unwrap(), sample());
    }

    #[test]
    fn rejects_garbage() {
        assert!(GraphManifest::from_text("nonsense line").is_err());
        assert!(GraphManifest::from_text("name = x\nnum_vertices = abc").is_err());
        assert!(GraphManifest::from_text("wrong_key = 1").is_err());
        // Missing required keys.
        assert!(GraphManifest::from_text("name = x").is_err());
    }

    #[test]
    fn interval_geometry() {
        let m = GraphManifest::new("g", 10, 0, 4, false);
        // ceil(10/4) = 3 per interval: [0,3) [3,6) [6,9) [9,10).
        assert_eq!(m.interval_len(), 3);
        assert_eq!(m.interval_range(0), (0, 3));
        assert_eq!(m.interval_range(3), (9, 10));
        assert_eq!(m.interval_of(0), 0);
        assert_eq!(m.interval_of(8), 2);
        assert_eq!(m.interval_of(9), 3);
    }

    #[test]
    fn interval_geometry_exact_division() {
        let m = GraphManifest::new("g", 12, 0, 4, false);
        assert_eq!(m.interval_len(), 3);
        assert_eq!(m.interval_range(3), (9, 12));
    }

    #[test]
    fn file_names_are_stable() {
        assert_eq!(GraphManifest::subshard_file(2, 7), "ss_2_7.bin");
        assert_eq!(GraphManifest::rev_subshard_file(0, 1), "rss_0_1.bin");
        assert_eq!(GraphManifest::interval_file(3), "interval_3.bin");
        assert_eq!(GraphManifest::hub_file(1, 2), "hub_1_2.bin");
        // Generation 0 is the prep-time base name; bumped generations and
        // delta blobs carry the chain position in the name.
        assert_eq!(GraphManifest::subshard_base_file(2, 7, false, 0), "ss_2_7.bin");
        assert_eq!(GraphManifest::subshard_base_file(2, 7, true, 0), "rss_2_7.bin");
        assert_eq!(GraphManifest::subshard_base_file(2, 7, false, 3), "ss_2_7.g3.bin");
        assert_eq!(
            GraphManifest::subshard_delta_file(2, 7, false, 0, 1),
            "ss_2_7.g0.d1.bin"
        );
        assert_eq!(
            GraphManifest::subshard_delta_file(0, 1, true, 2, 5),
            "rss_0_1.g2.d5.bin"
        );
    }

    #[test]
    fn chain_info_roundtrips_through_text() {
        let mut m = sample();
        assert_eq!(m.chain_info(2, 1, false).unwrap(), ChainInfo::default());
        let a = ChainInfo { gen: 1, deltas: 3, delta_bytes: 912 };
        let b = ChainInfo { gen: 2, deltas: 0, delta_bytes: 0 };
        m.set_chain_info(2, 1, false, a);
        m.set_chain_info(0, 4, true, b);
        let back = GraphManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(back.chain_info(2, 1, false).unwrap(), a);
        assert_eq!(back.chain_info(0, 4, true).unwrap(), b);
        assert_eq!(back.chain_info(2, 1, true).unwrap(), ChainInfo::default());
        let mut chains = back.chains().unwrap();
        chains.sort();
        assert_eq!(chains, vec![(0, 4, true, b), (2, 1, false, a)]);
        // Setting a cell back to the default removes the key entirely.
        let mut m2 = back.clone();
        m2.set_chain_info(2, 1, false, ChainInfo::default());
        m2.set_chain_info(0, 4, true, ChainInfo::default());
        assert!(m2.chains().unwrap().is_empty());
        assert_eq!(m2.to_text(), sample().to_text());
    }

    #[test]
    fn save_is_tmp_then_rename() {
        let disk = MemDisk::new();
        sample().save(&disk).unwrap();
        // The tmp name must not linger after a successful save.
        assert!(!disk.exists(MANIFEST_TMP_FILE));
        assert!(disk.exists(MANIFEST_FILE));
        assert_eq!(GraphManifest::load(&disk).unwrap(), sample());
    }

    #[test]
    fn degrees_gen_roundtrips_and_defaults() {
        let mut m = sample();
        assert_eq!(m.degrees_gen().unwrap(), 0);
        assert_eq!(m.degree_file_current().unwrap(), "degrees.bin");
        m.set_degrees_gen(4);
        assert_eq!(m.degrees_gen().unwrap(), 4);
        assert_eq!(m.degree_file_current().unwrap(), "degrees.g4.bin");
        let back = GraphManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(back.degrees_gen().unwrap(), 4);
        // Setting back to 0 removes the key, restoring byte-identity.
        m.set_degrees_gen(0);
        assert_eq!(m.to_text(), sample().to_text());
        assert_eq!(GraphManifest::degree_file_at(0), "degrees.bin");
        assert_eq!(GraphManifest::degree_file_at(2), "degrees.g2.bin");
    }

    #[test]
    fn malformed_degrees_gen_is_corrupt_not_zero() {
        let mut m = sample();
        m.extra.insert(DEGREES_GEN_KEY.into(), "banana".into());
        assert!(m.degrees_gen().is_err());
        assert!(m.degree_file_current().is_err());
    }

    #[test]
    fn malformed_chain_values_are_rejected() {
        for bad in ["three", "1:2", "1:2:3:4", "1:x:3"] {
            let mut m = sample();
            m.extra.insert("chain.ss_1_1".into(), bad.into());
            assert!(m.chain_info(1, 1, false).is_err(), "{bad:?}");
            assert!(m.chains().is_err(), "{bad:?}");
        }
        let mut m = sample();
        m.extra.insert("chain.bogus".into(), "1:1:1".into());
        assert!(m.chains().is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\nname = g\nnum_vertices = 1\nnum_edges = 0\nnum_intervals = 1\n";
        let m = GraphManifest::from_text(text).unwrap();
        assert_eq!(m.name, "g");
        assert!(!m.has_reverse);
    }
}
