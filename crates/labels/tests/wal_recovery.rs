//! Durability gate for the dynamic oracle: the deterministic crash-point
//! matrix (every injectable point of the WAL/store commit protocol) plus
//! the WAL chaos sweep, asserting that recovery is always either
//! bit-identical to an oracle that never crashed or a typed error —
//! zero panics, zero silent divergence.
//!
//! Crash injection is process-global one-shot state, so every test that
//! touches a store serializes on [`harness_lock`]; the matrix itself
//! iterates the points sequentially inside one test.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use fsdl_graph::{bfs, generators, FaultSet, Graph, GraphBuilder, NodeId};
use fsdl_labels::crash::{self, CrashPoint, ALL_CRASH_POINTS};
use fsdl_labels::{DynamicConfig, DynamicError, DynamicOracle, RebuildMode};
use fsdl_testkit::Rng;

mod common;
use common::corrupt::wal_corruption_sweep;
use common::{random_connected_graph, scratch_dir};

/// Serializes every store-touching test in this binary: the crash
/// injection in [`fsdl_labels::crash`] is global, and a concurrent
/// write path would consume (or trip over) another test's armed point.
fn harness_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asserts `got` and `expected` answer every ordered pair identically
/// (the "bit-identical or typed error" clause of the durability gate:
/// answers are a function of the recovered labeling + fault state, so
/// full-matrix equality is the divergence detector).
fn assert_answers_identical(got: &DynamicOracle, expected: &DynamicOracle, g: &Graph, tag: &str) {
    assert_eq!(
        got.current_faults(),
        expected.current_faults(),
        "{tag}: recovered fault set diverged"
    );
    let n = g.num_vertices();
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (NodeId::from_index(s), NodeId::from_index(t));
            assert_eq!(
                got.try_distance(s, t),
                expected.try_distance(s, t),
                "{tag}: {s}->{t} diverged after recovery"
            );
        }
    }
}

/// The deterministic crash-point matrix. One scripted update sequence on
/// a grid, with the third update crossing the rebuild threshold so that a
/// single "crash update" walks *every* point of the commit protocol: WAL
/// append, segment write, manifest swap, prune, WAL rotation. For each of
/// the 8 points: arm, crash, drop the wreck, reopen from disk, and demand
/// answers bit-identical to an oracle that never crashed — then keep
/// updating both and demand they stay identical.
#[test]
fn crash_point_matrix_recovers_bit_identically() {
    let _guard = harness_lock();
    let g = generators::grid2d(5, 5);
    let threshold = 2;
    // Updates before the crash point: two buffered, then the crasher.
    let d1 = NodeId::new(6);
    let e2 = (NodeId::new(12), NodeId::new(13));
    let d3 = NodeId::new(18);

    for point in ALL_CRASH_POINTS {
        let tag = format!("crash at {point}");
        let dir = scratch_dir(&format!("matrix-{point}"));
        let mut oracle = DynamicOracle::try_with_threshold(&g, 1.0, threshold).unwrap();
        oracle.attach_store(&dir).expect("attach");
        oracle.delete_vertex(d1).unwrap();
        oracle.delete_edge(e2.0, e2.1).unwrap();

        crash::arm(point);
        let err = oracle
            .delete_vertex(d3)
            .expect_err("the armed point must fail the update");
        crash::disarm();
        // WAL-append points reject before touching disk state for the
        // record; rebuild-path points fail the persist after the append.
        let wal_stage = matches!(
            point,
            CrashPoint::BeforeWalAppend | CrashPoint::MidWalAppend | CrashPoint::AfterWalAppend
        );
        match (&err, wal_stage) {
            (DynamicError::Wal { .. }, true) | (DynamicError::Persist { .. }, false) => {}
            _ => panic!("{tag}: unexpected error class {err:?}"),
        }
        drop(oracle);

        // The update is durable from the moment its record is fully on
        // disk: lost before/mid append, recovered from there on.
        let crasher_survives = !matches!(
            point,
            CrashPoint::BeforeWalAppend | CrashPoint::MidWalAppend
        );
        let recovered = DynamicOracle::open(&dir, &g)
            .unwrap_or_else(|e| panic!("{tag}: reopen failed with {e}"));
        let mut reference = DynamicOracle::try_with_threshold(&g, 1.0, threshold).unwrap();
        reference.delete_vertex(d1).unwrap();
        reference.delete_edge(e2.0, e2.1).unwrap();
        if crasher_survives {
            reference.delete_vertex(d3).unwrap();
        }
        assert_answers_identical(&recovered, &reference, &g, &tag);

        // Recovery must leave a fully serviceable oracle: keep updating
        // (including a restore and another threshold crossing) and stay
        // in lockstep with the never-crashed reference.
        let mut recovered = recovered;
        for step in [NodeId::new(2), NodeId::new(22), NodeId::new(11)] {
            recovered.delete_vertex(step).unwrap_or_else(|e| {
                panic!("{tag}: post-recovery delete of {step} failed with {e}")
            });
            reference.delete_vertex(step).unwrap();
        }
        recovered.restore_vertex(NodeId::new(2)).unwrap();
        reference.restore_vertex(NodeId::new(2)).unwrap();
        assert_answers_identical(&recovered, &reference, &g, &format!("{tag} (continued)"));

        // And the post-recovery store must itself reopen cleanly.
        drop(recovered);
        let reopened = DynamicOracle::open(&dir, &g)
            .unwrap_or_else(|e| panic!("{tag}: second reopen failed with {e}"));
        assert_answers_identical(&reopened, &reference, &g, &format!("{tag} (reopened)"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seed-driven randomized crash recovery over random graphs and update
/// scripts: crash a random update at a random WAL-append point and check
/// the recovered oracle against a reference that applied exactly the
/// surviving prefix.
#[test]
fn randomized_crash_recovery_matches_surviving_prefix() {
    let _guard = harness_lock();
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0x57A1_F00D ^ seed);
        run_randomized_case(&mut rng, seed);
    }
}

fn run_randomized_case(rng: &mut Rng, seed: u64) {
    let g = random_connected_graph(rng, 20, 10);
    let n = g.num_vertices();
    let threshold = rng.gen_range(1..4usize);
    let dir = scratch_dir(&format!("rand-{seed}"));
    let mut oracle = DynamicOracle::try_with_threshold(&g, 1.0, threshold).unwrap();
    oracle.attach_store(&dir).expect("attach");
    let mut reference = DynamicOracle::try_with_threshold(&g, 1.0, threshold).unwrap();

    // A script of distinct vertex deletions, crashing at a random step on
    // a random WAL-append point (the points every update passes through).
    let steps = rng.gen_range(1..(n - 1).max(2));
    let crash_at = rng.gen_range(0..steps);
    let point = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalAppend,
        CrashPoint::AfterWalAppend,
    ][rng.gen_range(0..3usize)];
    let mut deleted = Vec::new();
    let mut crashed = false;
    for step in 0..steps {
        // Pick a vertex not yet deleted.
        let v = loop {
            let v = NodeId::new(rng.gen_range(0..n as u32));
            if !deleted.contains(&v) {
                break v;
            }
        };
        deleted.push(v);
        if step == crash_at {
            crash::arm(point);
            let err = oracle.delete_vertex(v).expect_err("armed point must fire");
            crash::disarm();
            assert!(
                matches!(err, DynamicError::Wal { .. }),
                "seed {seed}: unexpected error {err:?}"
            );
            if point == CrashPoint::AfterWalAppend {
                reference.delete_vertex(v).unwrap();
            }
            crashed = true;
            break;
        }
        oracle.delete_vertex(v).unwrap();
        reference.delete_vertex(v).unwrap();
    }
    assert!(crashed);
    drop(oracle);
    let recovered = DynamicOracle::open(&dir, &g)
        .unwrap_or_else(|e| panic!("seed {seed}: reopen failed with {e}"));
    assert_answers_identical(&recovered, &reference, &g, &format!("seed {seed}"));
    if point == CrashPoint::MidWalAppend {
        // The torn frame must have been found and truncated, not silently
        // absorbed.
        let stats = recovered.stats();
        assert!(
            stats.replay_truncated_bytes > 0,
            "seed {seed}: mid-append crash left no torn tail to truncate"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL leg of the chaos harness: scheduled bit flips, truncations,
/// and extensions of the log file must recover to a true prefix of
/// history or fail typed — the sweep itself panics on any violation.
#[test]
fn wal_chaos_sweep_rejects_or_recovers_prefixes() {
    let _guard = harness_lock();
    let g = generators::grid2d(5, 5);
    let dir = scratch_dir("chaos");
    let scratch = scratch_dir("chaos-scratch");
    // High threshold: all updates stay in the WAL (the interesting case —
    // corruption can only attack un-folded history).
    let mut oracle = DynamicOracle::try_with_threshold(&g, 1.0, 50).unwrap();
    oracle.attach_store(&dir).expect("attach");
    for v in [7u32, 11, 13] {
        oracle.delete_vertex(NodeId::new(v)).unwrap();
    }
    oracle.delete_edge(NodeId::new(0), NodeId::new(1)).unwrap();
    oracle.restore_vertex(NodeId::new(11)).unwrap();
    drop(oracle);

    let probes: Vec<_> = (0..25)
        .step_by(3)
        .flat_map(|s| {
            (0..25)
                .step_by(4)
                .map(move |t| (NodeId::new(s), NodeId::new(t)))
        })
        .collect();
    let stats = wal_corruption_sweep(&dir, &scratch, &g, &probes, 160, 0xD15C);
    assert!(stats.attempted >= 150, "sweep barely ran: {stats:?}");
    assert!(
        stats.rejected + stats.opened_sound == stats.attempted,
        "sweep accounting broken: {stats:?}"
    );
    // Truncations land on frame boundaries often enough that some cases
    // must recover a shorter prefix rather than reject.
    assert!(
        stats.opened_sound > 0,
        "no prefix recoveries at all: {stats:?}"
    );
    assert!(stats.rejected > 0, "no typed rejections at all: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Background-mode durability: churn updates with background rebuilds
/// enabled, then reopen and check soundness — the recovered fault set and
/// answers must match an in-memory oracle holding the same faults.
/// (Fold *timing* under background scheduling is nondeterministic, so the
/// contract here is fault-set equality + answer equality, not equality of
/// the internal baked/buffered split.)
#[test]
fn background_mode_store_reopens_to_same_answers() {
    let _guard = harness_lock();
    let g = generators::grid2d(6, 6);
    let dir = scratch_dir("background");
    let mut oracle = DynamicOracle::try_with_config(
        &g,
        DynamicConfig {
            epsilon: 1.0,
            threshold: Some(2),
            mode: RebuildMode::Background,
            rebuild_workers: 1,
        },
    )
    .unwrap();
    oracle.attach_store(&dir).expect("attach");
    for v in [1u32, 8, 15, 22, 29, 30] {
        oracle.delete_vertex(NodeId::new(v)).unwrap();
    }
    oracle.restore_vertex(NodeId::new(15)).unwrap();
    oracle.wait_for_rebuild();
    let faults = oracle.current_faults();
    drop(oracle);

    let recovered = DynamicOracle::open(&dir, &g).expect("reopen");
    assert_eq!(recovered.current_faults(), faults, "fault set diverged");
    let mut reference = DynamicOracle::try_with_threshold(&g, 1.0, 100).unwrap();
    for v in faults.vertices() {
        reference.delete_vertex(v).unwrap();
    }
    for e in faults.edges() {
        reference.delete_edge(e.lo(), e.hi()).unwrap();
    }
    let n = g.num_vertices();
    for s in (0..n).step_by(2) {
        for t in (0..n).step_by(3) {
            let (s, t) = (NodeId::from_index(s), NodeId::from_index(t));
            assert_eq!(
                recovered.try_distance(s, t),
                reference.try_distance(s, t),
                "{s}->{t} diverged after background-mode recovery"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lineage of generation swaps, durable half: restoring a *baked* vertex
/// while a background rebuild is in flight is acknowledged, so the
/// background install — which started from the generation that still had
/// the vertex baked — must not bring it back, neither in memory after
/// `wait_for_rebuild()` nor on disk after drop + reopen. A round in which
/// the build was no longer in flight when the restore was issued proves
/// nothing and is skipped.
#[test]
fn baked_restore_during_background_rebuild_survives_install_and_reopen() {
    let _guard = harness_lock();
    let g = generators::grid2d(12, 12);
    let eps = 1.0;
    let mut raced = 0;
    for round in 0..3u32 {
        let dir = scratch_dir(&format!("lineage-{round}"));
        let mut oracle = DynamicOracle::try_with_config(
            &g,
            DynamicConfig {
                epsilon: eps,
                threshold: Some(2),
                mode: RebuildMode::Background,
                rebuild_workers: 1,
            },
        )
        .unwrap();
        oracle.attach_store(&dir).expect("attach");
        let victims: Vec<NodeId> = (0..6).map(|k| NodeId::new(14 + 21 * k + round)).collect();
        // Bake the first three.
        for &v in &victims[..3] {
            oracle.delete_vertex(v).unwrap();
        }
        oracle.wait_for_rebuild();
        assert_eq!(oracle.stats().baked, 3, "round {round}: setup must bake");
        // The sixth deletion starts a background build whose baked set
        // still contains `victims[0]`...
        for &v in &victims[3..] {
            oracle.delete_vertex(v).unwrap();
        }
        let in_flight = oracle.rebuild_in_flight();
        // ...which is restored while that build runs.
        oracle.restore_vertex(victims[0]).unwrap();
        oracle.wait_for_rebuild();
        if !in_flight {
            eprintln!("round {round}: the background build finished early; skipped");
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        raced += 1;
        let expected = FaultSet::from_vertices(victims[1..].iter().copied());
        let check = |oracle: &DynamicOracle, tag: &str| {
            assert_eq!(
                oracle.current_faults(),
                expected,
                "round {round} ({tag}): the acknowledged restore was lost"
            );
            for s in (0..g.num_vertices() as u32).step_by(7) {
                for t in (0..g.num_vertices() as u32).step_by(11) {
                    let (s, t) = (NodeId::new(s), NodeId::new(t));
                    let got = oracle.try_distance(s, t).unwrap();
                    match bfs::pair_distance_avoiding(&g, s, t, &expected).finite() {
                        None => assert!(got.is_infinite(), "{tag}: invented path {s}->{t}"),
                        Some(td) => {
                            let gd = got.finite().expect("missed path");
                            assert!(gd >= td, "{tag}: {s}->{t}: {gd} < {td}");
                            assert!(f64::from(gd) <= (1.0 + eps) * f64::from(td) + 1e-9);
                        }
                    }
                }
            }
        };
        check(&oracle, "after wait_for_rebuild");
        assert_eq!(
            oracle.stats().failed_rebuilds,
            0,
            "superseded is not failed"
        );
        drop(oracle);
        let reopened = DynamicOracle::open(&dir, &g).expect("reopen");
        check(&reopened, "after reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }
    eprintln!("{raced}/3 rounds overlapped a background build");
}

/// Crash-loop hygiene (the pruning satellite): orphaned `.tmp-` files and
/// stale WALs left by previous incarnations are removed by `open`, so a
/// crash loop cannot leak unbounded files into the store directory.
#[test]
fn open_prunes_tmp_artifacts_and_stale_wals() {
    let _guard = harness_lock();
    let g = generators::cycle(16);
    let dir = scratch_dir("prune");
    let mut oracle = DynamicOracle::try_with_threshold(&g, 1.0, 8).unwrap();
    oracle.attach_store(&dir).expect("attach");
    oracle.delete_vertex(NodeId::new(3)).unwrap();
    drop(oracle);

    // Litter the directory the way interrupted writers would.
    std::fs::write(dir.join(".tmp-000000-leftover"), b"junk").unwrap();
    std::fs::write(dir.join("wal-99.log"), b"stale").unwrap();
    std::fs::write(dir.join("seg-99.fsl"), b"orphan").unwrap();

    let recovered = DynamicOracle::open(&dir, &g).expect("reopen");
    assert_eq!(recovered.current_faults().len(), 1);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(".tmp-") || name == "wal-99.log" || name == "seg-99.fsl")
        .collect();
    assert!(leftovers.is_empty(), "litter survived open: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prune idempotence: `open` removes *stale* WALs, and only stale WALs.
/// Repeated open/drop cycles with no intervening updates must leave the
/// active `wal-*.log` in place, byte for byte, and keep replaying to the
/// same answers — a prune pass that "cleans up" the live log would turn
/// the next crash into silent fault loss.
#[test]
fn reopen_cycles_never_prune_the_active_wal() {
    let _guard = harness_lock();
    let g = generators::grid2d(5, 5);
    let dir = scratch_dir("prune-idem");
    // A high threshold keeps both updates buffered in the WAL: the live
    // log is load-bearing state, not yet baked into a segment.
    let mut oracle = DynamicOracle::try_with_threshold(&g, 1.0, 64).unwrap();
    oracle.attach_store(&dir).expect("attach");
    oracle.delete_vertex(NodeId::new(7)).unwrap();
    oracle
        .delete_edge(NodeId::new(12), NodeId::new(13))
        .unwrap();
    drop(oracle);

    let store_listing = |dir: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let baseline = store_listing(&dir);
    assert!(
        baseline.iter().any(|(name, bytes)| name.starts_with("wal-")
            && name.ends_with(".log")
            && !bytes.is_empty()),
        "setup must leave a non-empty active WAL; store held {:?}",
        baseline.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    let reference = DynamicOracle::open(&dir, &g).expect("reference open");
    assert_eq!(
        reference.current_faults().len(),
        2,
        "one vertex + one edge fault must replay from the WAL"
    );
    for cycle in 0..4 {
        let reopened = DynamicOracle::open(&dir, &g)
            .unwrap_or_else(|e| panic!("open cycle {cycle} failed: {e}"));
        assert_answers_identical(&reopened, &reference, &g, &format!("reopen cycle {cycle}"));
        drop(reopened);
        assert_eq!(
            store_listing(&dir),
            baseline,
            "open/drop cycle {cycle} changed the store (active WAL pruned or rewritten)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The typed-constructor satellite, exercised through the public API
/// surface used by the CLI.
#[test]
fn invalid_configs_surface_typed_errors_not_panics() {
    let g = generators::cycle(8);
    assert!(matches!(
        DynamicOracle::try_with_threshold(&g, 1.0, 0),
        Err(DynamicError::InvalidConfig { .. })
    ));
    assert!(matches!(
        DynamicOracle::try_new(&g, f64::NAN),
        Err(DynamicError::InvalidConfig { .. })
    ));
    let empty = GraphBuilder::new(0).build();
    assert!(matches!(
        DynamicOracle::try_with_config(&empty, DynamicConfig::default()),
        Err(DynamicError::InvalidConfig { .. })
    ));
    // The error is printable and carries the reason.
    let e = DynamicOracle::try_with_threshold(&g, 1.0, 0).unwrap_err();
    assert!(e.to_string().contains("threshold"));
    // A valid config still constructs, and an unused fault set is empty.
    let oracle = DynamicOracle::try_with_threshold(&g, 1.0, 3).unwrap();
    assert_eq!(oracle.current_faults(), FaultSet::empty());
}
