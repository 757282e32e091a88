//! Property tests for the extension layers: the dynamic oracle under random
//! update/query interleavings, the weighted oracle against Dijkstra, and
//! the pruned-vs-all-pairs label equivalence.

use fsdl_graph::{bfs, generators, FaultSet, Graph, GraphBuilder, NodeId};
use fsdl_labels::{
    DynamicConfig, DynamicError, DynamicOracle, ForbiddenSetOracle, Labeling, LabelingOptions,
    RebuildMode, SchemeParams, WeightedFaults, WeightedOracle,
};
use fsdl_testkit::Rng;

/// A random connected graph on `3..max_n` vertices: a random spanning
/// tree plus a handful of extra edges.
fn random_connected_graph(rng: &mut Rng, max_n: usize) -> Graph {
    let n = rng.gen_range(3..max_n);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        b.add_edge(p as u32, i as u32).expect("in range");
    }
    let extra = rng.gen_range(0..14usize);
    for _ in 0..extra {
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if a != c {
            b.add_edge(a, c).expect("in range");
        }
    }
    b.build()
}

#[test]
fn dynamic_oracle_tracks_truth() {
    fsdl_testkit::check("dynamic_oracle_tracks_truth", 16, |rng| {
        let g = random_connected_graph(rng, 18);
        let n = g.num_vertices() as u32;
        let threshold = rng.gen_range(1usize..6);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, threshold);
        let mut live_faults = FaultSet::empty();
        let steps = rng.gen_range(1..20usize);
        for _ in 0..steps {
            let op = rng.gen_range(0u32..4);
            let a = NodeId::new(rng.gen_range(0..n));
            let b = NodeId::new(rng.gen_range(0..n));
            match op {
                0 => {
                    oracle.delete_vertex(a).expect("in range");
                    live_faults.forbid_vertex(a);
                }
                1 => {
                    // Restoring a vertex that was never deleted is a typed
                    // error; restoring a live fault must succeed.
                    match oracle.restore_vertex(a) {
                        Ok(()) => {
                            live_faults.permit_vertex(a);
                        }
                        Err(e) => assert_eq!(e, DynamicError::VertexNotDeleted { v: a }),
                    }
                }
                2 => {
                    if g.has_edge(a, b) {
                        oracle.delete_edge(a, b).expect("edge exists");
                        live_faults.forbid_edge_unchecked(a, b);
                    }
                }
                _ => {
                    // Query and verify against truth.
                    let got = oracle.distance(a, b);
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
        }
    });
}

/// The update API rejects garbage instead of panicking: out-of-range
/// vertices, non-edges, and restores of never-deleted faults all come
/// back as typed `DynamicError`s, and the oracle keeps answering
/// correctly afterwards.
#[test]
fn dynamic_update_errors_leave_oracle_usable() {
    fsdl_testkit::check("dynamic_update_errors_leave_oracle_usable", 8, |rng| {
        let g = random_connected_graph(rng, 14);
        let n = g.num_vertices() as u32;
        let mut oracle = DynamicOracle::new(&g, 1.0);

        let beyond = NodeId::new(n + rng.gen_range(0..5u32));
        assert_eq!(
            oracle.delete_vertex(beyond),
            Err(DynamicError::VertexOutOfRange {
                v: beyond,
                n: n as usize
            })
        );
        assert_eq!(
            oracle.restore_vertex(beyond),
            Err(DynamicError::VertexOutOfRange {
                v: beyond,
                n: n as usize
            })
        );

        let a = NodeId::new(rng.gen_range(0..n));
        assert_eq!(
            oracle.restore_vertex(a),
            Err(DynamicError::VertexNotDeleted { v: a })
        );

        // Find a non-edge if one exists.
        let b = NodeId::new(rng.gen_range(0..n));
        if a != b && !g.has_edge(a, b) {
            assert_eq!(
                oracle.delete_edge(a, b),
                Err(DynamicError::NotAnEdge { a, b })
            );
            assert_eq!(
                oracle.restore_edge(a, b),
                Err(DynamicError::EdgeNotDeleted { a, b })
            );
        }

        // After all the rejected updates, failure-free answers still match
        // BFS soundness.
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        let got = oracle.distance(s, t);
        let truth = bfs::pair_distance_avoiding(&g, s, t, &FaultSet::empty());
        match truth.finite() {
            None => assert!(got.is_infinite()),
            Some(td) => {
                let gd = got.finite().expect("missed path");
                assert!(gd >= td);
                assert!(f64::from(gd) <= 2.0 * f64::from(td) + 1e-9);
            }
        }
    });
}

/// Lineage of generation swaps: a blocking fold that overlaps an in-flight
/// background rebuild (the mode was switched mid-flight) must not be
/// overwritten by the older background generation. Every deletion
/// acknowledged before, by, and after the blocking fold stays in
/// `current_faults()`, and distances match BFS on `G ∖ F`. A round in which
/// the background build was no longer in flight when the blocking fold was
/// issued proves nothing and is skipped.
#[test]
fn blocking_fold_overlapping_background_rebuild_keeps_every_delete() {
    let g = generators::grid2d(14, 14);
    let eps = 1.0;
    let mut raced = 0;
    for round in 0..4u32 {
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
        let victims: Vec<NodeId> = (0..6).map(|k| NodeId::new(17 + 29 * k + round)).collect();
        // The third deletion crosses the threshold and starts the
        // background build of `baked = {v0, v1, v2}`.
        for &v in &victims[..3] {
            oracle.delete_vertex(v).unwrap();
        }
        oracle.set_rebuild_mode(RebuildMode::Blocking);
        let in_flight = oracle.rebuild_in_flight();
        // Over the threshold in blocking mode: folds `{v0..v3}` inline.
        oracle.delete_vertex(victims[3]).unwrap();
        // Acknowledged against the blocking fold's generation.
        oracle.delete_vertex(victims[4]).unwrap();
        oracle.delete_vertex(victims[5]).unwrap();
        oracle.wait_for_rebuild();
        if !in_flight {
            eprintln!("round {round}: the background build finished early; skipped");
            continue;
        }
        raced += 1;
        let expected = FaultSet::from_vertices(victims.iter().copied());
        assert_eq!(
            oracle.current_faults(),
            expected,
            "round {round}: an acknowledged deletion was lost to the superseded build"
        );
        assert_eq!(
            oracle.stats().failed_rebuilds,
            0,
            "superseded is not failed"
        );
        for s in (0..g.num_vertices() as u32).step_by(11) {
            for t in (0..g.num_vertices() as u32).step_by(13) {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                let got = oracle.distance(s, t);
                match bfs::pair_distance_avoiding(&g, s, t, &expected).finite() {
                    None => assert!(got.is_infinite(), "invented path {s}->{t}"),
                    Some(td) => {
                        let gd = got.finite().expect("missed path");
                        assert!(gd >= td, "{s}->{t}: {gd} < {td}");
                        assert!(f64::from(gd) <= (1.0 + eps) * f64::from(td) + 1e-9);
                    }
                }
            }
        }
        // The oracle keeps working: the next crossing folds normally.
        oracle.delete_vertex(NodeId::new(3)).unwrap();
        assert_eq!(oracle.current_faults().len(), 7);
    }
    eprintln!("{raced}/4 rounds overlapped a background build");
}

#[test]
fn weighted_oracle_matches_dijkstra() {
    fsdl_testkit::check("weighted_oracle_matches_dijkstra", 16, |rng| {
        let g = random_connected_graph(rng, 14);
        let n = g.num_vertices();
        let edges: Vec<(u32, u32, u32)> = g
            .edges()
            .map(|e| (e.lo().raw(), e.hi().raw(), rng.gen_range(1..=3u32)))
            .collect();
        let oracle = WeightedOracle::new(n, &edges, 1.0);
        let s = NodeId::new(rng.gen_range(0..n as u32));
        let t = NodeId::new(rng.gen_range(0..n as u32));
        let fv = NodeId::new(rng.gen_range(0..n as u32));
        let faults = if fv == s || fv == t {
            WeightedFaults::none()
        } else {
            WeightedFaults {
                vertices: vec![fv],
                edges: vec![],
            }
        };
        // Ground truth: Dijkstra over the triples.
        let truth = {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
            for &(u, v, w) in &edges {
                if faults.vertices.contains(&NodeId::new(u))
                    || faults.vertices.contains(&NodeId::new(v))
                {
                    continue;
                }
                adj[u as usize].push((v as usize, u64::from(w)));
                adj[v as usize].push((u as usize, u64::from(w)));
            }
            let mut dist = vec![u64::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[s.index()] = 0;
            heap.push(Reverse((0u64, s.index())));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    if d + w < dist[v] {
                        dist[v] = d + w;
                        heap.push(Reverse((d + w, v)));
                    }
                }
            }
            dist[t.index()]
        };
        let got = oracle.distance(s, t, &faults);
        match truth {
            u64::MAX => assert!(got.is_infinite()),
            td => {
                let gd = got.finite().expect("missed weighted path");
                assert!(u64::from(gd) >= td);
                assert!(f64::from(gd) <= 2.0 * td as f64 + 1e-9);
            }
        }
    });
}

#[test]
fn all_pairs_labels_never_worse() {
    fsdl_testkit::check("all_pairs_labels_never_worse", 16, |rng| {
        // The paper-literal all-pairs labels produce a superset sketch, so
        // their answers are <= the pruned answers, and both stay sound.
        let g = random_connected_graph(rng, 14);
        let n = g.num_vertices() as u32;
        let params = SchemeParams::new(1.0, n as usize);
        let pruned = ForbiddenSetOracle::from_labeling(Labeling::build_with_options(
            &g,
            params.clone(),
            LabelingOptions { all_pairs: false },
        ));
        let full = ForbiddenSetOracle::from_labeling(Labeling::build_with_options(
            &g,
            params,
            LabelingOptions { all_pairs: true },
        ));
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        let fv = NodeId::new(rng.gen_range(0..n));
        let faults = if fv == s || fv == t {
            FaultSet::empty()
        } else {
            FaultSet::from_vertices([fv])
        };
        let dp = pruned.distance(s, t, &faults);
        let df = full.distance(s, t, &faults);
        assert!(df <= dp, "all-pairs answer {df} worse than pruned {dp}");
        let truth = bfs::pair_distance_avoiding(&g, s, t, &faults);
        match truth.finite() {
            None => {
                assert!(dp.is_infinite());
                assert!(df.is_infinite());
            }
            Some(td) => {
                assert!(df.finite().expect("sound") >= td);
                assert!(f64::from(dp.finite().expect("sound")) <= 2.0 * f64::from(td) + 1e-9);
            }
        }
    });
}
