//! Persistence properties of the label store: save → open round trips
//! are bit-identical, the atomic write protocol survives a crash between
//! segment write and manifest swap, and the dynamic oracle resumes
//! mid-churn from disk with exactly the answers it would have given in
//! memory.

use fsdl_graph::{bfs, generators, FaultSet, Graph, NodeId};
use fsdl_labels::{store, DynamicError, DynamicOracle, ForbiddenSetOracle, StoreError};

mod common;
use common::{random_connected_graph, scratch_dir};

/// Asserts that `cold` (in-memory build) and `warm` (opened from disk)
/// answer a probe matrix bit-identically: labels decode to the same
/// bytes, so every query answer — distance, witness path, sketch size —
/// must match exactly.
fn assert_bit_identical(cold: &ForbiddenSetOracle, warm: &ForbiddenSetOracle, g: &Graph) {
    let n = g.num_vertices();
    for v in 0..n {
        let v = NodeId::from_index(v);
        assert_eq!(*cold.label(v), *warm.label(v), "label of {v} differs");
    }
    let s_step = (n / 7).max(1);
    let t_step = (n / 5).max(1);
    for s in (0..n).step_by(s_step) {
        for t in (0..n).step_by(t_step) {
            let (s, t) = (NodeId::from_index(s), NodeId::from_index(t));
            let fault = NodeId::from_index((s.index() + t.index() + 1) % n);
            let faults = FaultSet::from_vertices([fault]);
            assert_eq!(
                cold.query(s, t, &faults),
                warm.query(s, t, &faults),
                "{s}->{t} avoiding {fault} diverged"
            );
        }
    }
}

/// Save → open is bit-identical on all three experiment graph families
/// (the `fsdl build --store` acceptance bar), and a second save
/// publishes a new generation while pruning the old one.
#[test]
fn save_open_roundtrip_across_families() {
    let families: [(&str, Graph); 3] = [
        ("path", generators::path(64)),
        ("grid2d", generators::grid2d(8, 8)),
        ("udg", generators::random_geometric(60, 0.25, 1)),
    ];
    for (family, g) in &families {
        let dir = scratch_dir(&format!("family-{family}"));
        let cold = ForbiddenSetOracle::new(g, 1.0);
        let report = cold.save(&dir).expect("save succeeds");
        assert_eq!(report.generation, 1, "{family}");
        assert_eq!(report.labels, g.num_vertices(), "{family}");
        assert!(report.segment_bytes > 0, "{family}");

        let warm = ForbiddenSetOracle::open(&dir, g).expect("open succeeds");
        assert_eq!(warm.params(), cold.params(), "{family}: params differ");
        assert_bit_identical(&cold, &warm, g);

        // A second save publishes generation 2 and prunes generation 1.
        let report2 = cold.save(&dir).expect("second save succeeds");
        assert_eq!(report2.generation, 2, "{family}");
        assert!(
            !dir.join(store::segment_file_name(1)).exists(),
            "{family}: old generation not pruned"
        );
        assert!(dir.join(store::segment_file_name(2)).exists(), "{family}");
        let warm2 = ForbiddenSetOracle::open(&dir, g).expect("reopen succeeds");
        assert_bit_identical(&cold, &warm2, g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The crash-consistency guarantee: a crash (here, simply stopping)
/// after the new segment is durably written but *before* the manifest
/// swap leaves the previous generation current and openable — the new
/// segment is invisible until its manifest commits.
#[test]
fn crash_between_segment_write_and_manifest_swap_keeps_previous_generation() {
    let g = generators::grid2d(6, 6);
    let dir = scratch_dir("crash");
    let cold = ForbiddenSetOracle::new(&g, 1.0);
    cold.save(&dir).expect("initial save");

    // Simulate the crashed writer: generation 2's segment lands fully on
    // disk (as `write_generation` would put it there), but the process
    // dies before `write_manifest` — the commit point — runs.
    let records: Vec<Vec<u8>> = (0..g.num_vertices())
        .map(|v| fsdl_labels::edge_sets::points_record(&cold.label(NodeId::from_index(v))))
        .collect();
    store::write_segment(
        &dir,
        2,
        cold.params(),
        store::graph_fingerprint(&g),
        &fsdl_labels::EdgeSets::from_labeling(cold.labeling()).encode(),
        &records,
    )
    .expect("segment write");

    // The store still opens — on generation 1.
    let manifest = store::read_manifest(&dir).expect("manifest intact");
    assert_eq!(manifest.generation, 1);
    let warm = ForbiddenSetOracle::open(&dir, &g).expect("previous generation opens");
    assert_bit_identical(&cold, &warm, &g);

    // And the next successful save allocates a fresh generation number
    // past the orphaned segment, then prunes it.
    let report = cold.save(&dir).expect("post-crash save");
    assert_eq!(report.generation, 2);
    assert!(ForbiddenSetOracle::open(&dir, &g).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn temp file (crash mid-`write_all`, before the atomic rename)
/// is invisible to readers and cleaned up by the next save.
#[test]
fn torn_temp_file_is_ignored() {
    let g = generators::path(16);
    let dir = scratch_dir("torn");
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    oracle.save(&dir).expect("save");
    std::fs::write(dir.join(".tmp-seg-2.fsl"), b"half-written garbag").unwrap();
    let warm = ForbiddenSetOracle::open(&dir, &g).expect("open ignores temp files");
    assert_bit_identical(&oracle, &warm, &g);
    oracle.save(&dir).expect("second save");
    assert!(
        !dir.join(".tmp-seg-2.fsl").exists(),
        "stale temp file not pruned"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening a store against a different graph than it was built for is a
/// typed mismatch, not a wrong answer.
#[test]
fn open_against_wrong_graph_is_a_typed_mismatch() {
    let g = generators::grid2d(5, 5);
    let dir = scratch_dir("mismatch");
    ForbiddenSetOracle::new(&g, 1.0).save(&dir).expect("save");
    let other = generators::cycle(25); // same n, different edges
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &other),
        Err(StoreError::GraphMismatch { .. })
    ));
    let smaller = generators::grid2d(4, 4);
    assert!(matches!(
        ForbiddenSetOracle::open(&dir, &smaller),
        Err(StoreError::GraphMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: on random connected graphs, a saved-and-reopened oracle is
/// indistinguishable from the in-memory one, query by query.
#[test]
fn random_graph_roundtrips_bit_identically() {
    fsdl_testkit::check("random_graph_roundtrips_bit_identically", 8, |rng| {
        let g = random_connected_graph(rng, 20, 14);
        let dir = scratch_dir("prop");
        let cold = ForbiddenSetOracle::new(&g, 1.0);
        cold.save(&dir).expect("save");
        let warm = ForbiddenSetOracle::open(&dir, &g).expect("open");
        assert_bit_identical(&cold, &warm, &g);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Satellite: long random churn on the dynamic oracle — interleaved
/// vertex/edge deletions and restorations across several rebuild
/// generations — with every answer checked against
/// `bfs::pair_distance_avoiding` truth, and a mid-churn save → open
/// asserted to resume bit-identically (baked *and* buffered state).
#[test]
fn dynamic_churn_with_mid_churn_persistence() {
    fsdl_testkit::check("dynamic_churn_with_mid_churn_persistence", 6, |rng| {
        let g = random_connected_graph(rng, 16, 14);
        let n = g.num_vertices() as u32;
        let threshold = rng.gen_range(1usize..4);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, threshold);
        let mut live_faults = FaultSet::empty();
        let dir = scratch_dir("churn");
        let steps = rng.gen_range(24..48usize);
        for step in 0..steps {
            let op = rng.gen_range(0u32..5);
            let a = NodeId::new(rng.gen_range(0..n));
            let b = NodeId::new(rng.gen_range(0..n));
            match op {
                0 => {
                    oracle.delete_vertex(a).expect("in range");
                    live_faults.forbid_vertex(a);
                }
                1 => match oracle.restore_vertex(a) {
                    Ok(()) => {
                        live_faults.permit_vertex(a);
                    }
                    Err(e) => assert_eq!(e, DynamicError::VertexNotDeleted { v: a }),
                },
                2 => {
                    if a != b && g.has_edge(a, b) {
                        oracle.delete_edge(a, b).expect("edge exists");
                        live_faults.forbid_edge_unchecked(a, b);
                    }
                }
                3 if a != b => match oracle.restore_edge(a, b) {
                    Ok(()) => {
                        live_faults.permit_edge(a, b);
                    }
                    Err(e) => assert!(matches!(
                        e,
                        DynamicError::EdgeNotDeleted { .. } | DynamicError::NotAnEdge { .. }
                    )),
                },
                _ => {
                    let got = oracle.try_distance(a, b).expect("in range");
                    let truth = bfs::pair_distance_avoiding(&g, a, b, &live_faults);
                    match truth.finite() {
                        None => assert!(got.is_infinite(), "invented path {a}->{b}"),
                        Some(td) => {
                            let gd = got.finite().expect("missed path");
                            assert!(gd >= td);
                            assert!(f64::from(gd) <= 2.0 * f64::from(td) + 1e-9);
                        }
                    }
                }
            }
            // Twice per run: checkpoint mid-churn and prove the reopened
            // oracle answers every pair exactly like the live one.
            if step == steps / 3 || step == (2 * steps) / 3 {
                oracle.save(&dir).expect("mid-churn save");
                let reopened = DynamicOracle::open(&dir, &g).expect("mid-churn open");
                assert_eq!(reopened.buffered(), oracle.buffered());
                for s in 0..n {
                    for t in 0..n {
                        let (s, t) = (NodeId::new(s), NodeId::new(t));
                        assert_eq!(
                            oracle.try_distance(s, t),
                            reopened.try_distance(s, t),
                            "mid-churn resume diverged at {s}->{t}"
                        );
                    }
                }
            }
        }
        // Several generations should have been exercised on longer runs;
        // at minimum the oracle must still match truth at the end.
        let truth_check =
            bfs::pair_distance_avoiding(&g, NodeId::new(0), NodeId::new(n - 1), &live_faults);
        let got = oracle
            .try_distance(NodeId::new(0), NodeId::new(n - 1))
            .unwrap();
        match truth_check.finite() {
            None => assert!(got.is_infinite()),
            Some(td) => {
                let gd = got.finite().expect("missed path");
                assert!(gd >= td);
                assert!(f64::from(gd) <= 2.0 * f64::from(td) + 1e-9);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Attached stores persist rebuilds LSM-style: each rebuild publishes a
/// new generation, older generations are pruned, and reopening resumes
/// the exact answers.
#[test]
fn attached_store_persists_each_rebuild_as_a_generation() {
    let g = generators::cycle(24);
    let dir = scratch_dir("lsm");
    let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 1);
    let report = oracle.attach_store(&dir).expect("attach saves");
    assert_eq!(report.generation, 1);
    assert_eq!(oracle.store_dir().as_deref(), Some(dir.as_path()));

    // Two deletions exceed the threshold: rebuild + persisted generation.
    oracle.delete_vertex(NodeId::new(1)).expect("delete");
    oracle
        .delete_vertex(NodeId::new(2))
        .expect("delete + rebuild");
    assert_eq!(oracle.rebuilds(), 1);
    let manifest = store::read_manifest(&dir).expect("manifest");
    assert_eq!(manifest.generation, 2);
    assert!(manifest.baked.is_vertex_faulty(NodeId::new(1)));
    assert!(
        !dir.join(store::segment_file_name(1)).exists(),
        "generation 1 not pruned"
    );

    // A baked restoration rebuilds and persists again.
    oracle.restore_vertex(NodeId::new(1)).expect("restore");
    assert_eq!(store::read_manifest(&dir).expect("manifest").generation, 3);

    let reopened = DynamicOracle::open(&dir, &g).expect("open");
    for s in 0..24u32 {
        for t in 0..24u32 {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            assert_eq!(
                oracle.try_distance(s, t),
                reopened.try_distance(s, t),
                "{s}->{t}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `try_distance` surfaces out-of-range queries as typed errors while
/// `distance` (routed through it) keeps its documented panic, and the
/// degenerate all-deleted state still saves and reopens.
#[test]
fn try_distance_and_degenerate_states_roundtrip() {
    let g = generators::path(4);
    let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 1);
    assert_eq!(
        oracle.try_distance(NodeId::new(0), NodeId::new(9)),
        Err(DynamicError::VertexOutOfRange {
            v: NodeId::new(9),
            n: 4
        })
    );
    assert_eq!(
        oracle.try_distance(NodeId::new(7), NodeId::new(0)),
        Err(DynamicError::VertexOutOfRange {
            v: NodeId::new(7),
            n: 4
        })
    );

    // Delete everything: the placeholder labeling must save and reopen.
    for v in 0..4u32 {
        oracle.delete_vertex(NodeId::new(v)).expect("delete");
    }
    let dir = scratch_dir("degenerate");
    oracle.save(&dir).expect("save degenerate state");
    let reopened = DynamicOracle::open(&dir, &g).expect("open degenerate state");
    for s in 0..4u32 {
        for t in 0..4u32 {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            assert_eq!(oracle.try_distance(s, t), reopened.try_distance(s, t));
            assert!(reopened.try_distance(s, t).unwrap().is_infinite() || s == t);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
