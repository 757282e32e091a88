//! Chaos tests for the on-disk label store: every corruption of segment
//! or manifest bytes — random bit flips, truncations, garbage
//! extensions, and hand-crafted adversarial patches — must surface as a
//! typed [`StoreError`], never a panic, and a store that *does* open
//! must answer queries exactly like the pristine one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fsdl_graph::{generators, NodeId};
use fsdl_labels::{
    corrupt, partition, store, write_shard_stores, ForbiddenSetOracle, OpenMode, PartitionError,
    PartitionPlan, ShardStore, StoreError,
};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("fsdl-store-chaos-{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Mirrors the store's whole-file checksum (FNV-1a 64 folded to 32
/// bits) so adversarial tests can patch bytes *and* fix the checksum,
/// proving that semantic validation — not just the CRC — rejects lies.
fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Rewrites both checksums — the index CRC after the index block and the
/// trailing whole-file CRC — to match the (possibly tampered) body, so
/// the mutation survives every CRC gate. The index CRC sits at
/// `48 + n·16` with `n` read from the (possibly tampered) header; when a
/// header lie pushes that position out of range the index CRC is left
/// alone (the open fails on the length check before reading it).
fn refresh_crc(bytes: &mut [u8]) {
    let n = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    if let Some(index_end) = 48usize.checked_add(n.saturating_mul(16)) {
        if index_end + 4 <= bytes.len() {
            let crc = fnv32(&bytes[..index_end]);
            bytes[index_end..index_end + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let body_len = bytes.len() - 4;
    let crc = fnv32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
}

fn build_store(tag: &str) -> (fsdl_graph::Graph, ForbiddenSetOracle, PathBuf) {
    let g = generators::grid2d(5, 5);
    let dir = scratch_dir(tag);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    oracle.save(&dir).expect("save");
    (g, oracle, dir)
}

/// The randomized sweep: hundreds of bit flips, truncations, and
/// garbage extensions of the segment file. Every case either fails with
/// a typed error or opens and answers the probe matrix exactly like the
/// pristine store — the sweep itself asserts that; here we additionally
/// require that the mutation schedule actually rejected a healthy
/// majority (a sweep where everything "opened fine" would mean the
/// mutations never landed).
#[test]
fn segment_corruption_sweep_never_panics_or_lies() {
    let (g, _oracle, dir) = build_store("sweep");
    let scratch = scratch_dir("sweep-scratch");
    let n = g.num_vertices();
    let probes: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(3)
        .map(|s| (NodeId::from_index(s), NodeId::from_index((s * 7 + 1) % n)))
        .collect();
    let stats = corrupt::store_corruption_sweep(&dir, &scratch, &g, &probes, 240, 0x5eed);
    assert_eq!(stats.attempted, 240);
    assert_eq!(stats.attempted, stats.rejected + stats.opened_sound);
    assert!(
        stats.rejected > stats.attempted / 2,
        "only {}/{} mutations rejected — schedule too gentle",
        stats.rejected,
        stats.attempted
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The same sweep under a lazy open: the whole-file checksum gate is
/// gone, so payload corruptions survive to first touch — the per-label
/// checksum plus the oracle's recompute fallback must then keep every
/// probe answer bit-identical to the pristine store's. More opens
/// succeed than under eager (that is the point), but none may lie.
#[test]
fn lazy_segment_corruption_sweep_never_panics_or_lies() {
    let (g, _oracle, dir) = build_store("lazy-sweep");
    let scratch = scratch_dir("lazy-sweep-scratch");
    let n = g.num_vertices();
    let probes: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(3)
        .map(|s| (NodeId::from_index(s), NodeId::from_index((s * 7 + 1) % n)))
        .collect();
    let stats = corrupt::store_corruption_sweep_with(
        &dir,
        &scratch,
        &g,
        &probes,
        240,
        0x5eed,
        fsdl_labels::OpenMode::Lazy,
    );
    assert_eq!(stats.attempted, 240);
    assert_eq!(stats.attempted, stats.rejected + stats.opened_sound);
    // Payload flips (the bulk of the schedule) open fine under lazy and
    // must have been served soundly via first-touch validation.
    assert!(
        stats.opened_sound > 0,
        "no mutation survived to a lazy open — the sweep never exercised \
         first-touch validation"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Manifest-level failure modes all map to distinct typed errors.
#[test]
fn manifest_failure_modes_are_typed() {
    let (g, _oracle, dir) = build_store("manifest");
    let manifest_path = dir.join(store::MANIFEST_NAME);
    let pristine = std::fs::read(&manifest_path).unwrap();

    // Missing manifest: a directory that is not a store.
    std::fs::remove_file(&manifest_path).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::ManifestMissing { .. })
    ));

    // Garbage manifest.
    std::fs::write(&manifest_path, b"not a manifest at all\n").unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::ManifestCorrupt { .. })
    ));

    // Truncated manifest (checksum line gone).
    let cut = pristine.len() / 2;
    std::fs::write(&manifest_path, &pristine[..cut]).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::ManifestCorrupt { .. })
    ));

    // Manifest naming a generation whose segment is gone.
    std::fs::write(&manifest_path, &pristine).unwrap();
    let manifest = store::read_manifest(&dir).unwrap();
    std::fs::remove_file(dir.join(&manifest.segment)).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::SegmentMissing { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sets the segment's version field and fixes both checksums, so the
/// version gate itself, not the CRC, does any refusing.
fn patch_version(seg_path: &std::path::Path, version: u32) {
    let mut bytes = std::fs::read(seg_path).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    refresh_crc(&mut bytes);
    std::fs::write(seg_path, &bytes).unwrap();
}

/// A future format version is refused up front, and so are formats 2 and
/// 3: they hold self-contained labels (format 2 in the pre-row codec
/// layout) where format 4 holds level blocks and points records, and a
/// store is a derived artifact that is rebuilt, never read under the
/// wrong layout.
#[test]
fn version_skew_is_refused() {
    for found in [2u32, 3, 7] {
        let (g, _oracle, dir) = build_store("version");
        let seg_path = dir.join(&store::read_manifest(&dir).unwrap().segment);
        patch_version(&seg_path, found);
        let err = ForbiddenSetOracle::open(&dir, &g).expect_err("other version must not open");
        assert_eq!(err, StoreError::VersionUnsupported { found });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shard directory written at format 2 (or 3) is refused the same way
/// when a shard server opens it.
#[test]
fn format_2_shard_directory_is_refused() {
    let (_g, oracle, dir) = build_store("shard-version");
    let shards = dir.join("shards");
    write_shard_stores(&oracle, &shards, &PartitionPlan::contiguous(25, 2)).expect("shards");
    let shard = shards.join(partition::shard_dir_name(0));
    let seg_path = shard.join(&store::read_manifest(&shard).unwrap().segment);
    for found in [2u32, 3] {
        patch_version(&seg_path, found);
        for mode in [OpenMode::Eager, OpenMode::Lazy] {
            let Err(err) = ShardStore::open_with(&shard, mode) else {
                panic!("format {found} must not open");
            };
            assert!(
                matches!(
                    err,
                    PartitionError::Store(StoreError::VersionUnsupported { found: f }) if f == found
                ),
                "{err:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An index entry claiming a label extends past the payload is caught
/// at open time (with a valid CRC), so lazy per-query decodes can never
/// read out of bounds — the store-level face of the short-read fix.
#[test]
fn index_extent_lies_are_rejected_at_open() {
    let (g, _oracle, dir) = build_store("extent");
    let seg_path = dir.join(&store::read_manifest(&dir).unwrap().segment);
    let pristine = std::fs::read(&seg_path).unwrap();

    // Entry 0's bit length, at header + 8 bytes (after its offset word).
    let mut bytes = pristine.clone();
    bytes[56..64].copy_from_slice(&u64::MAX.to_le_bytes());
    refresh_crc(&mut bytes);
    std::fs::write(&seg_path, &bytes).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::SegmentCorrupt { .. })
    ));

    // Entry 0's byte offset pushed past the payload.
    let mut bytes = pristine.clone();
    bytes[48..56].copy_from_slice(&(1u64 << 40).to_le_bytes());
    refresh_crc(&mut bytes);
    std::fs::write(&seg_path, &bytes).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::SegmentCorrupt { .. })
    ));

    // Header lying about n (label count) no longer matches the file
    // length — also caught before any decode.
    let mut bytes = pristine;
    bytes[24..32].copy_from_slice(&10_000u64.to_le_bytes());
    refresh_crc(&mut bytes);
    std::fs::write(&seg_path, &bytes).unwrap();
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &g),
        Err(StoreError::SegmentCorrupt { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncation at every structurally interesting boundary — inside the
/// magic, the header, the index, the payload, and the checksum — is a
/// typed error, never a panic or an out-of-bounds read.
#[test]
fn truncation_at_every_boundary_is_typed() {
    let (g, _oracle, dir) = build_store("truncate");
    let seg_path = dir.join(&store::read_manifest(&dir).unwrap().segment);
    let pristine = std::fs::read(&seg_path).unwrap();
    let cuts = [
        0,
        4,                  // inside the magic
        12,                 // inside the header
        47,                 // one short of a full header
        48 + 8,             // inside the first index entry
        48 + 25 * 16 + 2,   // inside the index checksum (n = 25)
        pristine.len() / 2, // inside the payload
        pristine.len() - 1, // inside the checksum
    ];
    for &cut in &cuts {
        std::fs::write(&seg_path, &pristine[..cut]).unwrap();
        let err = ForbiddenSetOracle::open(&dir, &g).expect_err("truncated segment must not open");
        assert!(
            matches!(err, StoreError::SegmentCorrupt { .. }),
            "cut at {cut}: unexpected error {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutation schedules are deterministic in their seed (so chaos
/// failures reproduce) and cover all three mutation kinds.
#[test]
fn mutation_schedule_is_deterministic_and_diverse() {
    let a = corrupt::store_mutation_schedule(1000, 30, 7);
    let b = corrupt::store_mutation_schedule(1000, 30, 7);
    assert_eq!(a, b);
    let c = corrupt::store_mutation_schedule(1000, 30, 8);
    assert_ne!(a, c);
    let mut kinds = [false; 3];
    for m in &a {
        match m {
            corrupt::StoreMutation::FlipByteBit { .. } => kinds[0] = true,
            corrupt::StoreMutation::Truncate { .. } => kinds[1] = true,
            corrupt::StoreMutation::Extend { .. } => kinds[2] = true,
        }
    }
    assert_eq!(kinds, [true; 3]);
}

/// Where a segment's level blocks and points records lie: `(edge sets,
/// records)` as byte ranges of the file (header, index and index CRC
/// before them; the file CRC after).
fn payload_regions(bytes: &[u8]) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let n = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let payload = 48 + n * 16 + 4;
    let sets_len = u64::from_le_bytes(bytes[payload..payload + 8].try_into().unwrap()) as usize;
    let records = payload + 8 + sets_len;
    (payload..records, records..bytes.len() - 4)
}

/// Every single-bit flip in a lazily opened store's level blocks and
/// points records, byte by byte: a flip in a block is refused typed at
/// open (blocks are checksummed and read at every open), a flip in a
/// record opens and fails that record's checksum at first touch, where the
/// oracle recomputes the label — so every probe answers bit-identically.
#[test]
fn every_block_and_record_flip_is_typed_or_identical_under_lazy_open() {
    let g = generators::grid2d(3, 4);
    let dir = scratch_dir("region-sweep");
    ForbiddenSetOracle::new(&g, 1.0).save(&dir).expect("save");
    let scratch = scratch_dir("region-sweep-scratch");
    let seg_path = dir.join(&store::read_manifest(&dir).unwrap().segment);
    let (blocks, records) = payload_regions(&std::fs::read(&seg_path).unwrap());
    let probes: Vec<(NodeId, NodeId)> = (0..12)
        .map(|s| (NodeId::from_index(s), NodeId::from_index((s * 5 + 7) % 12)))
        .collect();
    for (region, range) in [("blocks", blocks), ("records", records)] {
        let flips: Vec<corrupt::StoreMutation> = range
            .map(|byte| corrupt::StoreMutation::FlipByteBit {
                byte,
                bit: (byte % 8) as u8,
            })
            .collect();
        let stats = corrupt::store_mutation_sweep(
            &dir,
            &scratch,
            &g,
            &probes,
            &flips,
            OpenMode::Lazy,
            region,
        );
        assert_eq!(stats.attempted, flips.len(), "{region}");
        let (typed, identical) = match region {
            "blocks" => (flips.len(), 0),
            _ => (0, flips.len()),
        };
        assert_eq!(
            (stats.rejected, stats.opened_sound),
            (typed, identical),
            "{region}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A points record or the edge sets cut short in place — its length in
/// the index (or the edge sets' length prefix) shrunk and every checksum
/// refreshed, so only the structure can object: a record fails at first
/// touch and is recomputed, the edge sets fail at open; never a panic or
/// a different answer, in either open mode.
#[test]
fn shortened_blocks_and_records_are_typed_or_identical() {
    let (g, oracle, dir) = build_store("shorten");
    let seg_path = dir.join(&store::read_manifest(&dir).unwrap().segment);
    let pristine = std::fs::read(&seg_path).unwrap();
    let n = g.num_vertices();
    let (blocks, _) = payload_regions(&pristine);
    let empty = fsdl_graph::FaultSet::empty();
    let mut cases = Vec::new();
    for v in [0usize, 7, 24] {
        let len_at = 48 + v * 16 + 8;
        let len = u64::from_le_bytes(pristine[len_at..len_at + 8].try_into().unwrap());
        for cut in [1, 8, 9, len] {
            let mut bytes = pristine.clone();
            bytes[len_at..len_at + 8].copy_from_slice(&(len - cut).to_le_bytes());
            cases.push((format!("record {v} short by {cut}"), bytes, false));
        }
    }
    let sets_len = (blocks.len() - 8) as u64;
    for cut in [1, 8, sets_len] {
        let mut bytes = pristine.clone();
        bytes[blocks.start..blocks.start + 8].copy_from_slice(&(sets_len - cut).to_le_bytes());
        cases.push((format!("edge sets short by {cut}"), bytes, true));
    }
    for (case, mut bytes, must_refuse) in cases {
        refresh_crc(&mut bytes);
        std::fs::write(&seg_path, &bytes).unwrap();
        for mode in [OpenMode::Eager, OpenMode::Lazy] {
            match ForbiddenSetOracle::open_with(&dir, &g, mode) {
                Err(err) => {
                    assert!(must_refuse, "{case}: {err}");
                    assert!(
                        matches!(err, StoreError::SegmentCorrupt { .. }),
                        "{case}: {err}"
                    );
                }
                Ok(opened) => {
                    assert!(!must_refuse, "{case} opened");
                    for s in (0..n).step_by(2) {
                        let (s, t) = (NodeId::from_index(s), NodeId::from_index(n - 1 - s));
                        assert_eq!(opened.query(s, t, &empty), oracle.query(s, t, &empty));
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
