//! Lazy-open contract tests: a store opened in [`OpenMode::Lazy`] must
//! answer every query bit-identically to the same store opened eagerly
//! (and to the in-memory oracle that wrote it), materialize only the
//! labels queries actually touch, and surface a corrupted *untouched*
//! label as a typed error at first touch — never a panic, and never a
//! wrong answer through the oracle (which recomputes from the graph).

use fsdl_graph::{generators, FaultSet, Graph, NodeId};
use fsdl_labels::{store, ForbiddenSetOracle, OpenMode};
use fsdl_testkit::Rng;

mod common;
use common::scratch_dir;

/// Probes every (s, t) pair on a stride with a deterministic mix of
/// vertex and edge faults, asserting the two oracles agree bit for bit.
fn assert_bit_identical(a: &ForbiddenSetOracle, b: &ForbiddenSetOracle, g: &Graph, seed: u64) {
    let n = g.num_vertices();
    let mut rng = Rng::seed_from_u64(seed);
    for s in (0..n).step_by(3) {
        for t in (0..n).step_by(5) {
            let mut f = FaultSet::empty();
            if rng.gen_bool(0.7) {
                f.forbid_vertex(NodeId::from_index(rng.gen_range(0..n)));
            }
            if rng.gen_bool(0.4) {
                let v = NodeId::from_index(rng.gen_range(0..n));
                if let Some(&w) = g.neighbors(v).first() {
                    let w = NodeId::new(w);
                    f.forbid_edge_unchecked(v.min(w), v.max(w));
                }
            }
            let (s, t) = (NodeId::from_index(s), NodeId::from_index(t));
            assert_eq!(
                a.query(s, t, &f),
                b.query(s, t, &f),
                "{s}->{t} faults {f:?}"
            );
        }
    }
}

#[test]
fn lazy_and_eager_answers_are_bit_identical_per_family() {
    let families: Vec<(&str, Graph)> = vec![
        ("cycle", generators::cycle(40)),
        ("grid", generators::grid2d(6, 6)),
        ("path", generators::path(30)),
        ("udg", generators::random_geometric(60, 0.25, 1)),
    ];
    for (name, g) in families {
        let dir = scratch_dir(name);
        let built = ForbiddenSetOracle::new(&g, 1.0);
        built.save(&dir).expect("save");
        let eager = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Eager).expect("eager open");
        let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).expect("lazy open");
        assert_bit_identical(&eager, &lazy, &g, 0xFACE ^ name.len() as u64);
        assert_bit_identical(&built, &lazy, &g, 0xBEEF ^ name.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn lazy_and_eager_agree_on_random_graphs() {
    fsdl_testkit::check("lazy/eager bit identity", 8, |rng| {
        let n = rng.gen_range(12..40usize);
        let g = generators::random_tree(n, rng.next_u64());
        let dir = scratch_dir("rand");
        ForbiddenSetOracle::new(&g, 1.0).save(&dir).expect("save");
        let eager = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Eager).expect("eager open");
        let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).expect("lazy open");
        assert_bit_identical(&eager, &lazy, &g, rng.next_u64());
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Lazy opens materialize only the labels queries touch; the residency
/// counters prove it and the stats report the mode.
#[test]
fn lazy_open_materializes_only_touched_labels() {
    let g = generators::grid2d(7, 7);
    let dir = scratch_dir("residency");
    ForbiddenSetOracle::new(&g, 1.0).save(&dir).expect("save");
    let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).expect("lazy open");
    let at_open = lazy.label_plane_stats();
    assert_eq!(at_open.resident_labels, 0, "open must not decode labels");
    assert_eq!(at_open.resident_label_bytes, 0);
    assert!(at_open.on_disk_label_bytes > 0);
    assert_eq!(at_open.open_mode, Some(OpenMode::Lazy));

    let f = FaultSet::from_vertices([NodeId::new(24)]);
    lazy.query(NodeId::new(0), NodeId::new(48), &f);
    let after_query = lazy.label_plane_stats();
    assert_eq!(
        after_query.resident_labels, 3,
        "one query touches exactly s, t, and the fault"
    );
    assert!(after_query.resident_label_bytes > 0);

    lazy.prewarm();
    let warmed = lazy.label_plane_stats();
    assert_eq!(warmed.resident_labels, 49);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Finds the byte range of label `v`'s points record by parsing the
/// segment header/index directly (n at 24..32, index entries of 16 bytes
/// — offset, length — from 48, payload after the 4-byte index CRC).
fn label_extent(bytes: &[u8], v: usize) -> (usize, usize) {
    let n = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let at = 48 + v * 16;
    let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
    let payload_start = 48 + n * 16 + 4;
    (payload_start + off, len)
}

/// A corruption confined to one label's payload bytes survives a lazy
/// open (only the index checksum is verified there) and must then fail
/// *typed* at that label's first decode — while every other label, and
/// every oracle answer (via the recompute fallback), stays intact.
#[test]
fn corrupted_untouched_label_fails_typed_at_first_touch() {
    let g = generators::grid2d(6, 6);
    let dir = scratch_dir("first-touch");
    ForbiddenSetOracle::new(&g, 1.0).save(&dir).expect("save");
    let manifest = store::read_manifest(&dir).expect("manifest");
    let seg_path = dir.join(&manifest.segment);
    let mut bytes = std::fs::read(&seg_path).unwrap();

    let victim = 17usize;
    let (start, len) = label_extent(&bytes, victim);
    assert!(len > 0);
    for b in &mut bytes[start..start + len] {
        *b ^= 0xFF; // destroy the whole label, checksum trailer included
    }
    std::fs::write(&seg_path, &bytes).unwrap();

    // Eager open verifies the whole-file checksum and refuses up front.
    assert!(matches!(
        store::Segment::open(&seg_path, OpenMode::Eager),
        Err(fsdl_labels::StoreError::SegmentCorrupt { .. })
    ));

    // Lazy open succeeds — the corruption is beyond what it validates.
    let segment = store::Segment::open(&seg_path, OpenMode::Lazy).expect("lazy open");
    // First touch of the victim: a typed decode error, no panic.
    segment
        .decode_label(NodeId::from_index(victim))
        .expect_err("corrupted label must fail its first-touch validation");
    // Neighbors decode clean: corruption does not bleed across labels.
    for v in [0usize, 16, 18, 35] {
        segment
            .decode_label(NodeId::from_index(v))
            .unwrap_or_else(|e| panic!("pristine label {v} failed to decode: {e}"));
    }

    // Through the oracle the bad label is recomputed from the graph, so
    // answers stay bit-identical to a fresh build.
    let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).expect("oracle lazy open");
    let fresh = ForbiddenSetOracle::new(&g, 1.0);
    let f = FaultSet::from_vertices([NodeId::from_index(victim)]);
    for s in (0..36).step_by(4) {
        let (s, t) = (NodeId::from_index(s), NodeId::from_index((s * 5 + 3) % 36));
        assert_eq!(lazy.query(s, t, &f), fresh.query(s, t, &f));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dynamic oracle threads the open mode through to its serving
/// generation and reports it in the stats.
#[test]
fn dynamic_open_with_lazy_serves_identically() {
    let g = generators::cycle(30);
    let dir = scratch_dir("dynamic");
    let mut oracle = fsdl_labels::DynamicOracle::new(&g, 1.0);
    oracle.delete_vertex(NodeId::new(3)).unwrap();
    oracle.save(&dir).expect("save");

    let eager = fsdl_labels::DynamicOracle::open(&dir, &g).expect("eager open");
    let lazy = fsdl_labels::DynamicOracle::open_with(&dir, &g, OpenMode::Lazy).expect("lazy open");
    assert_eq!(lazy.stats().label_open_mode, Some(OpenMode::Lazy));
    assert_eq!(eager.stats().label_open_mode, Some(OpenMode::Eager));
    for s in 0..30u32 {
        let t = (s * 7 + 1) % 30;
        assert_eq!(
            eager.try_distance(NodeId::new(s), NodeId::new(t)),
            lazy.try_distance(NodeId::new(s), NodeId::new(t)),
            "{s}->{t}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
