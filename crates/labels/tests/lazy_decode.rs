//! Differential suite for the decoder's lazy search against the reference
//! that materializes the sketch graph `H` and runs Dijkstra on it.
//!
//! On every input below:
//!
//! * (a) the search's `distance` equals the reference's, exactly;
//! * (b) its path is a walk in the reference `H` from `s` to `t` whose
//!   weights sum to that distance;
//! * (c) the search without a heuristic (`query_many_with_scratch` with
//!   the one target: `h ≡ 0`) finds the same distance as with `h` read
//!   from `L(t)`;
//! * (d) the distance is never below BFS on `G ∖ F`, hostile labels
//!   included — and none of it panics.
//!
//! Whole-answer properties of the search alone — independence from the
//! order of the fault labels, scratch reuse — have their own tests here
//! and in `scratch_identity.rs`.

use std::sync::Arc;

use fsdl_graph::{bfs, generators, Dist, Edge, FaultSet, Graph, NodeId};
use fsdl_labels::{
    build_sketch, query_many_with_scratch, query_reference, query_with_scratch, DecodeScratch,
    ForbiddenSetOracle, Label, LevelLabel, QueryLabels, RealEdge, SchemeParams, VirtualEdge,
};
use fsdl_testkit::Rng;

/// Asserts (a), (b) and (c) for one query and returns the common distance.
fn assert_matches_reference(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
    ctx: &str,
) -> Dist {
    let lazy = query_with_scratch(params, source, target, faults, scratch);
    let reference = query_reference(params, source, target, faults);
    assert_eq!(lazy.distance, reference.distance, "{ctx}: distance");
    assert_eq!(
        lazy.path.is_empty(),
        reference.path.is_empty(),
        "{ctx}: one path empty"
    );
    if !lazy.path.is_empty() {
        let h = build_sketch(params, source, target, faults);
        assert_eq!(lazy.path.first(), Some(&source.owner), "{ctx}: path start");
        assert_eq!(lazy.path.last(), Some(&target.owner), "{ctx}: path end");
        let length: u64 = lazy
            .path
            .windows(2)
            .map(|w| {
                h.edge_info
                    .get(&Edge::new(w[0], w[1]))
                    .unwrap_or_else(|| panic!("{ctx}: hop {}-{} is not an edge of H", w[0], w[1]))
                    .weight
            })
            .sum();
        // The reference path's length, which a widened (unrepresentable)
        // distance no longer shows.
        let reference_length: u64 = reference
            .path
            .windows(2)
            .map(|w| h.edge_info[&Edge::new(w[0], w[1])].weight)
            .sum();
        assert_eq!(length, reference_length, "{ctx}: path length");
        assert!(
            lazy.sketch_vertices <= h.graph.num_vertices(),
            "{ctx}: reached more vertices than H has"
        );
    }
    let blind = query_many_with_scratch(params, source, &[target], faults, scratch);
    assert_eq!(blind, vec![lazy.distance], "{ctx}: h = 0 disagrees");
    lazy.distance
}

/// A random forbidden set of `k` elements (vertices, and edges with
/// probability `edge_share`), duplicates and endpoints allowed, as label
/// handles plus the `FaultSet` BFS understands.
struct Faults {
    vertices: Vec<Arc<Label>>,
    edges: Vec<(Arc<Label>, Arc<Label>)>,
    set: FaultSet,
}

impl Faults {
    fn random(
        oracle: &ForbiddenSetOracle,
        g: &Graph,
        k: usize,
        edge_share: f64,
        rng: &mut Rng,
    ) -> Self {
        let n = g.num_vertices();
        let all_edges: Vec<Edge> = g.edges().collect();
        let mut faults = Faults {
            vertices: Vec::new(),
            edges: Vec::new(),
            set: FaultSet::empty(),
        };
        for _ in 0..k {
            if !all_edges.is_empty() && rng.gen_bool(edge_share) {
                let e = all_edges[rng.gen_range(0..all_edges.len())];
                // Either endpoint first: the decoder must not care.
                let (a, b) = if rng.gen_bool(0.5) {
                    (e.lo(), e.hi())
                } else {
                    (e.hi(), e.lo())
                };
                faults.edges.push((oracle.label(a), oracle.label(b)));
                faults.set.forbid_edge_unchecked(a, b);
            } else {
                let f = NodeId::from_index(rng.gen_range(0..n));
                faults.vertices.push(oracle.label(f));
                faults.set.forbid_vertex(f);
            }
        }
        faults
    }

    fn labels(&self) -> QueryLabels<'_> {
        QueryLabels {
            fault_vertices: self.vertices.iter().map(|l| &**l).collect(),
            fault_edges: self.edges.iter().map(|(a, b)| (&**a, &**b)).collect(),
        }
    }
}

fn families() -> Vec<(&'static str, Graph, f64)> {
    vec![
        ("grid 7x7", generators::grid2d(7, 7), 1.0),
        ("grid 5x9 eps 0.5", generators::grid2d(5, 9), 0.5),
        ("ladder 2x40", generators::grid2d(2, 40), 1.0),
        ("cycle 48", generators::cycle(48), 0.5),
        ("path 40", generators::path(40), 2.0),
        ("torus 6x6", generators::torus2d(6, 6), 1.0),
        ("spider 5x8", generators::spider(5, 8), 1.0),
        ("random tree 60", generators::random_tree(60, 9), 1.0),
        ("road 8x8", generators::road_network(8, 8, 0.2, 3), 1.0),
        (
            "geometric 70",
            generators::random_geometric(70, 0.2, 11),
            1.0,
        ),
        ("king grid 6x6", generators::king_grid(6, 6), 2.0),
        ("erdos-renyi 40", generators::erdos_renyi(40, 0.08, 5), 1.0),
        // Diameter well past the low-level ball radii: the levels are
        // local, and the sketch needs virtual edges in both directions.
        ("cycle 400", generators::cycle(400), 1.0),
        ("ladder 2x160", generators::grid2d(2, 160), 1.0),
    ]
}

/// Vertex and edge faults over the standard families and random graphs,
/// `|F| ∈ {0, 1, 2, 4, 16}`: covers disconnected pairs (trees, paths and
/// the sparse random graphs split readily), forbidden `s`/`t`, `s == t`
/// and duplicate fault entries as they come, plus a forced round of each.
#[test]
fn families_match_the_reference() {
    let mut scratch = DecodeScratch::new();
    for (name, g, eps) in families() {
        let oracle = ForbiddenSetOracle::new(&g, eps);
        let n = g.num_vertices();
        let mut infinite = 0usize;
        fsdl_testkit::check_seeded(name, 40, 0x1A2_DEC0DE, |rng| {
            let k = [0usize, 1, 2, 4, 16][rng.gen_range(0..5usize)];
            let faults = Faults::random(&oracle, &g, k, 0.3, rng);
            let mut s = NodeId::from_index(rng.gen_range(0..n));
            let mut t = NodeId::from_index(rng.gen_range(0..n));
            match rng.gen_range(0..8u32) {
                0 => t = s,
                1 if !faults.vertices.is_empty() => s = faults.vertices[0].owner,
                2 if !faults.vertices.is_empty() => t = faults.vertices[0].owner,
                _ => {}
            }
            let (ls, lt) = (oracle.label(s), oracle.label(t));
            let ctx = format!("{name}: {s}->{t} avoiding {:?}", faults.set);
            let d = assert_matches_reference(
                oracle.params(),
                &ls,
                &lt,
                &faults.labels(),
                &mut scratch,
                &ctx,
            );
            let truth = bfs::pair_distance_avoiding(&g, s, t, &faults.set);
            assert!(d >= truth, "{ctx}: {d} below the true {truth}");
            assert_eq!(d.is_finite(), truth.is_finite(), "{ctx}: connectivity");
            infinite += usize::from(d.is_infinite());
        });
        assert!(infinite < 40, "{name}: every case was unreachable");
    }
}

/// The same fault listed twice, an edge fault listed in both orientations,
/// and a vertex fault on an endpoint of a faulty edge.
#[test]
fn duplicate_fault_entries_match_the_reference() {
    let g = generators::grid2d(6, 6);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let label = |v: u32| oracle.label(NodeId::new(v));
    let (f, a, b) = (label(14), label(20), label(21));
    let faults = QueryLabels {
        fault_vertices: vec![&f, &f, &a],
        fault_edges: vec![(&a, &b), (&b, &a), (&a, &b)],
    };
    let mut scratch = DecodeScratch::new();
    for (s, t) in [(0u32, 35u32), (13, 15), (19, 22), (20, 0), (2, 2)] {
        let d = assert_matches_reference(
            oracle.params(),
            &label(s),
            &label(t),
            &faults,
            &mut scratch,
            &format!("{s}->{t}"),
        );
        let mut set = FaultSet::from_vertices([f.owner, a.owner]);
        set.forbid_edge_unchecked(a.owner, b.owner);
        let truth = bfs::pair_distance_avoiding(&g, NodeId::new(s), NodeId::new(t), &set);
        assert!(d >= truth, "{s}->{t}: {d} below {truth}");
    }
}

/// Rebuilds `label` with each level's points in a random order (edge
/// indices remapped to follow), so no point list is sorted. Every stored
/// distance stays true.
fn shuffled(label: &Label, rng: &mut Rng) -> Label {
    let levels = label
        .levels
        .iter()
        .map(|level| {
            let p = level.points.len();
            // `order[new] = old`, by Fisher-Yates.
            let mut order: Vec<usize> = (0..p).collect();
            for k in (1..p).rev() {
                order.swap(k, rng.gen_range(0..=k));
            }
            let mut new_index = vec![0u32; p];
            for (new, &old) in order.iter().enumerate() {
                new_index[old] = new as u32;
            }
            let at = |old: u32| new_index[old as usize];
            let virtual_edges: Vec<VirtualEdge> = level
                .virtual_edges()
                .map(|e| VirtualEdge {
                    a: at(e.a),
                    b: at(e.b),
                    dist: e.dist,
                })
                .collect();
            let real_edges: Vec<RealEdge> = level
                .real_edges()
                .map(|e| RealEdge {
                    a: at(e.a),
                    b: at(e.b),
                })
                .collect();
            LevelLabel::new(
                order.iter().map(|&old| level.points[old]).collect(),
                virtual_edges,
                real_edges,
            )
            .expect("a permutation keeps indices in range")
        })
        .collect();
    Label {
        levels,
        ..label.clone()
    }
}

/// A copy of `label` whose every level repeats one stored point (same
/// vertex, same distance) at the end of the list and hangs a copy of one
/// of its virtual edges on the repeat: the list is no longer strictly
/// sorted, and the vertex has arcs at two indices.
fn with_repeated_point(label: &Label) -> Label {
    let levels = label
        .levels
        .iter()
        .map(|level| {
            let Some(e) = level.virtual_edges().next() else {
                return level.clone();
            };
            let mut points = level.points.clone();
            points.push(points[e.a as usize]);
            let repeat = VirtualEdge {
                a: points.len() as u32 - 1,
                ..e
            };
            LevelLabel::new(
                points,
                level.virtual_edges().chain([repeat]).collect::<Vec<_>>(),
                level.real_edges().collect::<Vec<_>>(),
            )
            .expect("indices in range")
        })
        .collect();
    Label {
        levels,
        ..label.clone()
    }
}

/// A copy of `label` with the last point of every level dropped *after*
/// the level was built, so some edges index past the list.
fn truncated(label: &Label) -> Label {
    let mut label = label.clone();
    for level in &mut label.levels {
        level.points.pop();
    }
    label
}

/// Hand-built and hostile labels in every role: unsorted levels, repeated
/// points, edges indexing past a shortened list, and labels of another
/// labeling (unusable: wrong level range). Each only reorders or removes
/// what the builder stored, so the answer must match the reference and
/// stay at or above BFS.
#[test]
fn hostile_labels_match_the_reference_and_stay_sound() {
    let g = generators::grid2d(6, 7);
    let n = g.num_vertices();
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    // Another labeling of the same graph with a different `c`: its labels'
    // level range disagrees with `oracle.params()`.
    let stranger = ForbiddenSetOracle::new(&g, 0.25);
    assert_ne!(stranger.params().c(), oracle.params().c());
    let mut scratch = DecodeScratch::new();
    fsdl_testkit::check_seeded("hostile labels", 120, 0xBAD_1ABE1, |rng| {
        let disguise = |v: NodeId, rng: &mut Rng| -> Label {
            let honest = oracle.label(v);
            match rng.gen_range(0..6u32) {
                0 => shuffled(&honest, rng),
                1 => with_repeated_point(&honest),
                2 => truncated(&honest),
                3 => (*stranger.label(v)).clone(),
                _ => (*honest).clone(),
            }
        };
        let s = NodeId::from_index(rng.gen_range(0..n));
        let t = NodeId::from_index(rng.gen_range(0..n));
        let (ls, lt) = (disguise(s, rng), disguise(t, rng));
        let mut set = FaultSet::empty();
        let fault_labels: Vec<Label> = (0..rng.gen_range(0..4usize))
            .map(|_| {
                let f = NodeId::from_index(rng.gen_range(0..n));
                set.forbid_vertex(f);
                disguise(f, rng)
            })
            .collect();
        let edge_labels: Vec<(Label, Label)> = (0..rng.gen_range(0..2usize))
            .map(|_| {
                let a = NodeId::from_index(rng.gen_range(0..n));
                let b = g
                    .neighbor_ids(a)
                    .next()
                    .expect("grid vertex has a neighbour");
                set.forbid_edge_unchecked(a, b);
                (disguise(a, rng), disguise(b, rng))
            })
            .collect();
        let faults = QueryLabels {
            fault_vertices: fault_labels.iter().collect(),
            fault_edges: edge_labels.iter().map(|(a, b)| (a, b)).collect(),
        };
        let ctx = format!("{s}->{t} avoiding {set:?}");
        let d = assert_matches_reference(oracle.params(), &ls, &lt, &faults, &mut scratch, &ctx);
        let truth = bfs::pair_distance_avoiding(&g, s, t, &set);
        assert!(d >= truth, "{ctx}: {d} below the true {truth}");
    });
}

/// A center list that stores a vertex twice with different distances: the
/// later entry decides, as in the reference's map. The fault sits between
/// `s` and `t` on a long cycle, and its label repeats its two neighbours
/// on `t`'s side claiming they lie out of every ball (no certificate of
/// `s` or `t` is anchored there, so nothing else changes): with the lie
/// last `s` may step over the fault onto one of them, with the lie first
/// the protected ball is intact and the sketch goes round. (The label
/// lies, so only agreement with the reference is asserted, not
/// soundness.)
#[test]
fn later_duplicate_in_a_center_list_wins() {
    let g = generators::cycle(200);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let honest = oracle.label(NodeId::new(100));
    let mut scratch = DecodeScratch::new();
    for (s, t) in [(70u32, 130u32), (75, 128)] {
        let distances = [true, false].map(|lie_last| {
            let mut fault = (*honest).clone();
            for level in &mut fault.levels {
                // Appended, so the level's edges keep indexing the points
                // they were built on.
                let honest = level.points.clone();
                let lies = honest
                    .iter()
                    .filter(|p| [101, 102].contains(&p.vertex.raw()))
                    .map(|p| fsdl_labels::LabelPoint {
                        dist: p.dist + 1000,
                        ..*p
                    });
                level.points.extend(lies);
                if !lie_last {
                    level.points.extend(honest);
                }
            }
            let faults = QueryLabels {
                fault_vertices: vec![&fault],
                fault_edges: vec![],
            };
            assert_matches_reference(
                oracle.params(),
                &oracle.label(NodeId::new(s)),
                &oracle.label(NodeId::new(t)),
                &faults,
                &mut scratch,
                &format!("lie_last={lie_last} {s}->{t}"),
            )
        });
        assert_eq!(
            distances[0].finite(),
            Some(t - s),
            "{s}->{t}: over the fault"
        );
        assert_eq!(
            distances[1].finite(),
            Some(200 - (t - s)),
            "{s}->{t}: round"
        );
    }
}

/// An edge is stored once, in the row of its first endpoint, and walked
/// from either end. Hand-built: `s` reaches `b` by an owner edge, `t` is
/// reached from `a` by an owner edge, and the only link is the edge
/// `(a, b)` stored in `a`'s row — virtual in one variant, real in the
/// other — which the search meets at `b`.
#[test]
fn edges_are_walked_against_their_stored_direction() {
    let params = SchemeParams::new(1.0, 64);
    let lowest = params.c() + 1;
    assert!(params.lambda(lowest) >= 32);
    let point = |vertex: u32, dist: u32| fsdl_labels::LabelPoint {
        vertex: NodeId::new(vertex),
        dist,
        net_level: 0,
    };
    let label = |owner: u32, level: LevelLabel| Label {
        owner: NodeId::new(owner),
        owner_net_level: 0,
        first_level: lowest,
        levels: vec![level],
    };
    // `a` is stored beyond λ of `s`: no owner edge s-a.
    let points = vec![point(10, 1000), point(20, 5)];
    let links = [
        (
            LevelLabel::new(
                points.clone(),
                [VirtualEdge {
                    a: 0,
                    b: 1,
                    dist: 7,
                }],
                [],
            ),
            15,
        ),
        (LevelLabel::new(points, [], [RealEdge { a: 0, b: 1 }]), 9),
    ];
    let target = label(1, LevelLabel::new(vec![point(10, 3)], [], []).unwrap());
    let mut scratch = DecodeScratch::new();
    for (level, expected) in links {
        let source = label(0, level.unwrap());
        let d = assert_matches_reference(
            &params,
            &source,
            &target,
            &QueryLabels::none(),
            &mut scratch,
            "hand-built",
        );
        assert_eq!(d.finite(), Some(expected));
        let path = query_with_scratch(
            &params,
            &source,
            &target,
            &QueryLabels::none(),
            &mut scratch,
        )
        .path;
        assert_eq!(path, [0, 20, 10, 1].map(NodeId::new));
    }
}

/// The canonical witness: permuting `QueryLabels`, and swapping the
/// endpoints of an edge fault, leaves the whole answer unchanged — path
/// and both counters, not just the distance.
#[test]
fn answer_is_independent_of_fault_label_order() {
    let mut scratch = DecodeScratch::new();
    for (name, g, eps) in families().into_iter().take(6) {
        let oracle = ForbiddenSetOracle::new(&g, eps);
        let n = g.num_vertices();
        fsdl_testkit::check_seeded(name, 24, 0x0_2DE2, |rng| {
            let k = [2usize, 4, 8][rng.gen_range(0..3usize)];
            let mut faults = Faults::random(&oracle, &g, k, 0.4, rng);
            let (ls, lt) = (
                oracle.label(NodeId::from_index(rng.gen_range(0..n))),
                oracle.label(NodeId::from_index(rng.gen_range(0..n))),
            );
            let first =
                query_with_scratch(oracle.params(), &ls, &lt, &faults.labels(), &mut scratch);
            for _ in 0..3 {
                for k in (1..faults.vertices.len()).rev() {
                    faults.vertices.swap(k, rng.gen_range(0..=k));
                }
                for k in (1..faults.edges.len()).rev() {
                    faults.edges.swap(k, rng.gen_range(0..=k));
                }
                for (a, b) in &mut faults.edges {
                    if rng.gen_bool(0.5) {
                        std::mem::swap(a, b);
                    }
                }
                let again =
                    query_with_scratch(oracle.params(), &ls, &lt, &faults.labels(), &mut scratch);
                assert_eq!(first, again, "{name}: answer moved with the label order");
            }
        });
    }
}

/// Labels per family that [`labels_derived_from_a_segment_equal_the_built_ones`]
/// audits.
const AUDITED_PER_FAMILY: usize = 24;

/// The families of `family_matrix.rs` at its epsilons, and the four graphs
/// `benchmark/` runs (at epsilon 1).
fn matrix_and_benchmark_families() -> Vec<(&'static str, Graph, f64)> {
    vec![
        ("matrix torus 3x3x4", generators::torus3d(3, 3, 4), 2.0),
        (
            "matrix grid 8x8 with holes",
            generators::grid2d_with_holes(8, 8, |x, y| (3..5).contains(&x) && (3..5).contains(&y)),
            1.0,
        ),
        ("matrix ladder 16", generators::ladder(16), 0.5),
        ("matrix lollipop", generators::lollipop(6, 10), 1.0),
        ("matrix barbell", generators::barbell(5, 4), 1.0),
        ("matrix linf grid", generators::grid_linf(4, 3), 2.0),
        ("matrix half grid", generators::half_grid(4, 4), 3.0),
        ("matrix hypercube 4", generators::hypercube(4), 2.0),
        ("matrix star 24", generators::star(24), 1.0),
        (
            "matrix erdos-renyi 40",
            generators::erdos_renyi(40, 0.12, 5),
            1.0,
        ),
        ("bench grid 16x16", generators::grid2d(16, 16), 1.0),
        ("bench grid 20x20", generators::grid2d(20, 20), 1.0),
        ("bench ladder 256", generators::ladder(256), 1.0),
        ("bench grid 12x12", generators::grid2d(12, 12), 1.0),
    ]
}

/// A store keeps the level edge sets once and a points record per vertex;
/// the label it derives from the two must be the builder's: `codec::encode`
/// writes the same bits, and the completeness audit passes on it. Every
/// label of every family is compared whole; the encoding and the audit (a
/// BFS per stored waypoint) run on evenly spaced ones.
#[test]
fn labels_derived_from_a_segment_equal_the_built_ones() {
    use fsdl_labels::{audit, codec, store, OpenMode};
    let dir = std::env::temp_dir().join(format!("fsdl-derive-{}", std::process::id()));
    for (name, g, eps) in families()
        .into_iter()
        .chain(matrix_and_benchmark_families())
    {
        let _ = std::fs::remove_dir_all(&dir);
        let oracle = ForbiddenSetOracle::new(&g, eps);
        oracle.save(&dir).expect("save");
        let manifest = store::read_manifest(&dir).expect("manifest");
        let segment =
            store::Segment::open(&dir.join(&manifest.segment), OpenMode::Lazy).expect("open");
        let n = g.num_vertices();
        let stride = n.div_ceil(AUDITED_PER_FAMILY);
        let mut report = audit::AuditReport::default();
        for v in 0..n {
            let built = oracle.label(NodeId::from_index(v));
            let derived = segment
                .decode_label(NodeId::from_index(v))
                .unwrap_or_else(|e| panic!("{name}: v{v} does not derive: {e}"));
            // Equal labels encode to equal bits; the encoding is compared
            // outright on the audited ones.
            assert_eq!(derived, *built, "{name}: v{v}");
            if v % stride == 0 {
                let (want, got) = (codec::encode(&built, n), codec::encode(&derived, n));
                assert_eq!(got.len_bits(), want.len_bits(), "{name}: v{v}");
                assert_eq!(got.as_bytes(), want.as_bytes(), "{name}: v{v}");
                audit::audit_label(oracle.labeling(), &derived, &mut report);
            }
        }
        assert!(report.passed(), "{name}: {:?}", report.violations);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One level block of the edge sets' bytes, read naively (the layout is
/// in the `edge_sets` module docs): the net's ids in order, and per edge
/// kind each net row's arcs as `(target row, dist)` (`dist` 0 for a real
/// edge).
struct NaiveSet {
    net: Vec<u32>,
    virt: Vec<Vec<(u32, u32)>>,
    real: Vec<Vec<(u32, u32)>>,
}

fn naive_sets(bytes: &[u8]) -> Vec<NaiveSet> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 16; // first level, level count, header checksum
    let mut sets = Vec::new();
    for _ in 0..word(4) {
        let next = at + 8 + word(at); // block length (a u64 below 2^32)
        let p = word(at + 8);
        let net = (0..p).map(|k| word(at + 12 + 4 * k) as u32).collect();
        let mut pos = at + 12 + 8 * p;
        let mut rows = |weighted: bool| {
            let edges = word(pos);
            pos += 4;
            let mut rows = vec![Vec::new(); p];
            if edges > 0 {
                let (off, targets) = (pos, pos + 4 * (p + 1));
                let dists = targets + 4 * edges;
                for (a, row) in rows.iter_mut().enumerate() {
                    for k in word(off + 4 * a)..word(off + 4 * a + 4) {
                        let dist = if weighted { word(dists + 4 * k) } else { 0 };
                        row.push((word(targets + 4 * k) as u32, dist as u32));
                    }
                }
                pos = dists + if weighted { 4 * edges } else { 0 };
            }
            rows
        };
        let (virt, real) = (rows(true), rows(false));
        sets.push(NaiveSet { net, virt, real });
        at = next;
    }
    sets
}

/// A derived level is its points and their rows in the level's edge set:
/// its edges must be that set's arcs between two of its points,
/// renumbered, row by row — a filter the test does on the edge sets'
/// bytes. The derived label encodes to the built one's bits, and a
/// partial level compares equal to a self-contained level with the same
/// points and edges, and unequal once one edge differs.
#[test]
fn derived_levels_are_a_naive_restriction_of_the_edge_sets() {
    use fsdl_labels::{codec, store, OpenMode};
    let dir = std::env::temp_dir().join(format!("fsdl-naive-{}", std::process::id()));
    let mut partial_levels = 0;
    for (name, g, eps) in matrix_and_benchmark_families() {
        let _ = std::fs::remove_dir_all(&dir);
        let oracle = ForbiddenSetOracle::new(&g, eps);
        oracle.save(&dir).expect("save");
        let manifest = store::read_manifest(&dir).expect("manifest");
        let segment =
            store::Segment::open(&dir.join(&manifest.segment), OpenMode::Lazy).expect("open");
        let sets = naive_sets(segment.edge_sets_bytes());
        let n = g.num_vertices();
        for v in (0..n).step_by(n.div_ceil(8)) {
            let built = oracle.label(NodeId::from_index(v));
            let derived = segment.decode_label(NodeId::from_index(v)).expect("derive");
            let (want, got) = (codec::try_encode(&built, n), codec::try_encode(&derived, n));
            let (want, got) = (want.expect("encode"), got.expect("encode"));
            assert_eq!(got.len_bits(), want.len_bits(), "{name}: v{v}");
            assert_eq!(got.as_bytes(), want.as_bytes(), "{name}: v{v}");
            for (k, (level, set)) in derived.levels.iter().zip(&sets).enumerate() {
                let row_of = |p: &fsdl_labels::LabelPoint| {
                    set.net.binary_search(&p.vertex.raw()).expect("a net point")
                };
                let local = |row: u32| {
                    let row = row as usize;
                    level.points.iter().position(|p| row_of(p) == row)
                };
                let restrict = |rows: &[Vec<(u32, u32)>]| {
                    let mut edges = Vec::new();
                    for (a, p) in level.points.iter().enumerate() {
                        for &(b, dist) in &rows[row_of(p)] {
                            if let Some(b) = local(b) {
                                edges.push((a as u32, b as u32, dist));
                            }
                        }
                    }
                    edges
                };
                let virt: Vec<_> = level.virtual_edges().map(|e| (e.a, e.b, e.dist)).collect();
                let real: Vec<_> = level.real_edges().map(|e| (e.a, e.b, 0)).collect();
                assert_eq!(virt, restrict(&set.virt), "{name}: v{v} level {k}");
                assert_eq!(real, restrict(&set.real), "{name}: v{v} level {k}");
                let Some(first) = level.virtual_edges().next() else {
                    continue;
                };
                if level.points.len() == set.net.len() {
                    continue;
                }
                partial_levels += 1;
                let own = |edit: u32| {
                    let edges = level.virtual_edges().map(|e| VirtualEdge {
                        dist: e.dist + u32::from(e == first) * edit,
                        ..e
                    });
                    let edges: Vec<_> = edges.collect();
                    let real: Vec<_> = level.real_edges().collect();
                    LevelLabel::new(level.points.clone(), edges, real).expect("in range")
                };
                assert_eq!(own(0), *level, "{name}: v{v} level {k}");
                assert_ne!(own(1), *level, "{name}: v{v} level {k}");
            }
        }
    }
    assert!(partial_levels > 0, "no family stores part of a net");
    let _ = std::fs::remove_dir_all(&dir);
}
