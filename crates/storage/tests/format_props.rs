//! Property tests for the storage formats: arbitrary payloads must
//! round-trip, and arbitrary corruption must be detected.

use proptest::prelude::*;

use nxgraph_storage::format::{self, FileKind};
use nxgraph_storage::manifest::GraphManifest;
use nxgraph_storage::{Disk, MemDisk};

proptest! {
    #[test]
    fn blob_roundtrips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = Vec::new();
        format::write_blob(&mut buf, FileKind::Interval, &payload).unwrap();
        let range = format::parse_blob(&buf, FileKind::Interval, "p", true).unwrap();
        prop_assert_eq!(&buf[range], &payload[..]);
    }

    #[test]
    fn single_byte_corruption_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        format::write_blob(&mut buf, FileKind::Hub, &payload).unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= flip;
        // Any single-byte flip must fail decoding (magic, version, kind,
        // length, checksum or payload mismatch).
        prop_assert!(format::parse_blob(&buf, FileKind::Hub, "c", true).is_err());
    }

    #[test]
    fn truncation_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        keep_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        format::write_blob(&mut buf, FileKind::Degrees, &payload).unwrap();
        let keep = (buf.len() as f64 * keep_frac) as usize;
        if keep < buf.len() {
            buf.truncate(keep);
            prop_assert!(format::parse_blob(&buf, FileKind::Degrees, "t", true).is_err());
        }
    }

    #[test]
    fn u32_array_roundtrip(vals in proptest::collection::vec(any::<u32>(), 0..512)) {
        let bytes = format::encode_u32s(&vals);
        prop_assert_eq!(format::decode_u32s(&bytes).unwrap(), vals);
    }

    #[test]
    fn manifest_roundtrips(
        name in "[a-zA-Z0-9_-]{1,20}",
        n in 1u64..1_000_000,
        m in 0u64..10_000_000,
        p in 1u32..256,
        rev in any::<bool>(),
    ) {
        let mfst = GraphManifest::new(name, n, m, p, rev);
        let back = GraphManifest::from_text(&mfst.to_text()).unwrap();
        prop_assert_eq!(back, mfst);
    }

    #[test]
    fn manifest_interval_ranges_partition_the_id_space(
        n in 1u64..100_000,
        p in 1u32..64,
    ) {
        let mfst = GraphManifest::new("g", n, 0, p, false);
        let mut cursor = 0u64;
        for i in 0..p {
            let (s, e) = mfst.interval_range(i);
            prop_assert_eq!(s, cursor.min(n));
            prop_assert!(e >= s);
            prop_assert!(e <= n);
            cursor = e;
        }
        prop_assert_eq!(cursor, n);
        // Every vertex maps into the interval that contains it.
        for v in [0, n / 2, n - 1] {
            let i = mfst.interval_of(v);
            let (s, e) = mfst.interval_range(i);
            prop_assert!(s <= v && v < e, "v={} i={} range=({}, {})", v, i, s, e);
        }
    }

    #[test]
    fn memdisk_files_roundtrip(
        files in proptest::collection::btree_map(
            "[a-z0-9]{1,12}",
            proptest::collection::vec(any::<u8>(), 0..256),
            0..16,
        )
    ) {
        let disk = MemDisk::new();
        for (name, data) in &files {
            disk.write_all_to(name, data).unwrap();
        }
        prop_assert_eq!(disk.file_count(), files.len());
        for (name, data) in &files {
            prop_assert_eq!(&disk.read_all(name).unwrap(), data);
            prop_assert_eq!(disk.len_of(name).unwrap(), data.len() as u64);
        }
        let mut names = disk.list();
        names.sort();
        let want: Vec<String> = files.keys().cloned().collect();
        prop_assert_eq!(names, want);
    }
}
