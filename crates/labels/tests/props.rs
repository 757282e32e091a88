//! Property-based tests for the labeling scheme: codec round-trips on
//! arbitrary labels, and decoder soundness + stretch on arbitrary graphs
//! with arbitrary fault sets.

use fsdl_graph::{bfs, FaultSet, Graph, GraphBuilder, NodeId};
use fsdl_labels::codec::{decode, encode};
use fsdl_labels::failure_free::{query_failure_free, FailureFreeLabeling};
use fsdl_labels::{ForbiddenSetOracle, Label, LabelPoint, LevelLabel, RealEdge, VirtualEdge};
use fsdl_testkit::Rng;

/// Two distinct indices below `k >= 2`, in either order.
fn distinct_pair(rng: &mut Rng, k: u32) -> (u32, u32) {
    let a = rng.gen_range(0..k);
    (a, (a + rng.gen_range(1..k)) % k)
}

/// An arbitrary structurally-valid label (edge indices in range, no
/// self-loops, points sorted by id; rows in any order) for codec
/// round-trip testing.
fn random_label(rng: &mut Rng, n: u32) -> Label {
    let num_levels = rng.gen_range(1..5usize);
    let levels = (0..num_levels)
        .map(|_| {
            let mut points: Vec<LabelPoint> = (0..rng.gen_range(0..12usize))
                .map(|_| LabelPoint {
                    vertex: NodeId::new(rng.gen_range(0..n)),
                    dist: rng.gen_range(0..1000u32),
                    net_level: rng.gen_range(0..20u32),
                })
                .collect();
            points.sort_by_key(|p| p.vertex);
            points.dedup_by_key(|p| p.vertex);
            let k = points.len() as u32;
            let virtual_edges: Vec<VirtualEdge> = if k >= 2 {
                (0..rng.gen_range(0..10usize))
                    .map(|_| {
                        let (a, b) = distinct_pair(rng, k);
                        VirtualEdge {
                            a,
                            b,
                            dist: rng.gen_range(0..1000u32),
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let real_edges: Vec<RealEdge> = if k >= 2 {
                (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let (a, b) = distinct_pair(rng, k);
                        RealEdge { a, b }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            LevelLabel::new(points, virtual_edges, real_edges).expect("indices in range")
        })
        .collect();
    Label {
        owner: NodeId::new(rng.gen_range(0..n)),
        owner_net_level: rng.gen_range(0..20u32),
        first_level: rng.gen_range(2..6u32),
        levels,
    }
}

/// A random tree plus random extra edges: connected, arbitrary shape.
fn random_connectedish_graph(rng: &mut Rng) -> Graph {
    let n = rng.gen_range(2..24usize);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        b.add_edge(p as u32, i as u32).expect("in range");
    }
    for _ in 0..rng.gen_range(0..20usize) {
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if a != c {
            b.add_edge(a, c).expect("in range");
        }
    }
    b.build()
}

#[test]
fn codec_roundtrip_arbitrary_labels() {
    fsdl_testkit::check("codec_roundtrip_arbitrary_labels", 64, |rng| {
        let label = random_label(rng, 500);
        assert_eq!(label.validate(), Ok(()));
        let w = encode(&label, 500);
        let back = decode(w.as_bytes(), w.len_bits(), 500).expect("roundtrip");
        assert_eq!(back, label);
    });
}

#[test]
fn decoder_sound_and_within_stretch() {
    fsdl_testkit::check("decoder_sound_and_within_stretch", 24, |rng| {
        let g = random_connectedish_graph(rng);
        let n = g.num_vertices() as u32;
        let eps = 1.0;
        let oracle = ForbiddenSetOracle::new(&g, eps);
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        let mut faults = FaultSet::empty();
        for _ in 0..rng.gen_range(0..4usize) {
            let f = NodeId::new(rng.gen_range(0..n));
            if f != s && f != t {
                faults.forbid_vertex(f);
            }
        }
        let answer = oracle.distance(s, t, &faults);
        let truth = bfs::pair_distance_avoiding(&g, s, t, &faults);
        match truth.finite() {
            None => assert!(answer.is_infinite(), "invented a path"),
            Some(0) => assert_eq!(answer.finite(), Some(0)),
            Some(td) => {
                let ad = answer.finite().expect("spurious disconnection");
                assert!(ad >= td, "unsound: {ad} < {td}");
                assert!(
                    f64::from(ad) <= (1.0 + eps) * f64::from(td) + 1e-9,
                    "stretch: {ad} vs {td}"
                );
            }
        }
    });
}

#[test]
fn decoder_edge_faults_sound() {
    fsdl_testkit::check("decoder_edge_faults_sound", 24, |rng| {
        let g = random_connectedish_graph(rng);
        let n = g.num_vertices() as u32;
        let edges: Vec<_> = g.edges().collect();
        if edges.is_empty() {
            return;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let faults = FaultSet::from_edges(&g, [(e.lo(), e.hi())]);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        let answer = oracle.distance(s, t, &faults);
        let truth = bfs::pair_distance_avoiding(&g, s, t, &faults);
        match truth.finite() {
            None => assert!(answer.is_infinite()),
            Some(td) => {
                let ad = answer.finite().expect("spurious disconnection");
                assert!(ad >= td);
                assert!(f64::from(ad) <= 2.0 * f64::from(td) + 1e-9);
            }
        }
    });
}

#[test]
fn failure_free_scheme_within_stretch() {
    fsdl_testkit::check("failure_free_scheme_within_stretch", 24, |rng| {
        let g = random_connectedish_graph(rng);
        let eps = f64::from(rng.gen_range(1..5u32)) * 0.5;
        let n = g.num_vertices() as u32;
        let ff = FailureFreeLabeling::build(&g, eps);
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        let answer = query_failure_free(&ff.label_of(s), &ff.label_of(t));
        let truth = bfs::pair_distance_avoiding(&g, s, t, &FaultSet::empty());
        match truth.finite() {
            None => assert!(answer.is_infinite()),
            Some(td) => {
                let ad = answer.finite().expect("connected pair");
                assert!(ad >= td);
                assert!(
                    f64::from(ad) <= (1.0 + eps) * f64::from(td) + 1e-9,
                    "ff stretch {ad} vs {td} at eps {eps}"
                );
            }
        }
    });
}

#[test]
fn decoded_labels_always_validate() {
    fsdl_testkit::check("decoded_labels_always_validate", 24, |rng| {
        let g = random_connectedish_graph(rng);
        let n = g.num_vertices();
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let v = NodeId::new(rng.gen_range(0..n as u32));
        let label = oracle.label(v);
        assert_eq!(label.validate(), Ok(()));
        let w = encode(&label, n);
        let back = decode(w.as_bytes(), w.len_bits(), n).expect("roundtrip");
        assert_eq!(back.validate(), Ok(()));
    });
}

#[test]
fn sketch_edges_are_safe() {
    fsdl_testkit::check("sketch_edges_are_safe", 24, |rng| {
        // Lemma 2.3 operationally: every admitted sketch edge (x, y) has
        // d_{G\F}(x, y) == its weight.
        let g = random_connectedish_graph(rng);
        let n = g.num_vertices() as u32;
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);
        let mut faults = FaultSet::empty();
        for _ in 0..rng.gen_range(1..3usize) {
            let f = NodeId::new(rng.gen_range(0..n));
            if f != s && f != t {
                faults.forbid_vertex(f);
            }
        }
        if faults.is_empty() {
            return;
        }
        let sl = oracle.label(s);
        let tl = oracle.label(t);
        let fls: Vec<_> = faults.vertices().map(|f| oracle.label(f)).collect();
        let ql = fsdl_labels::QueryLabels {
            fault_vertices: fls.iter().map(|l| l.as_ref()).collect(),
            fault_edges: vec![],
        };
        let sketch = fsdl_labels::build_sketch(oracle.params(), &sl, &tl, &ql);
        for (a, b, w) in sketch.graph.edges() {
            assert!(
                !faults.is_vertex_faulty(a) && !faults.is_vertex_faulty(b),
                "edge incident to a fault admitted: {a}-{b}"
            );
            let d = bfs::pair_distance_avoiding(&g, a, b, &faults);
            assert_eq!(
                d.finite(),
                Some(w as u32),
                "unsafe sketch edge {a}-{b} weight {w}"
            );
        }
    });
}
