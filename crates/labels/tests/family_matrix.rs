//! Family coverage matrix: every generator family the substrate ships gets
//! scheme-level behavioural checks — failure-free accuracy, single faults
//! around the structural center, and connectivity agreement — so no family
//! is "generate-only".

use fsdl_graph::{bfs, generators, FaultSet, Graph, NodeId};
use fsdl_labels::codec;
use fsdl_labels::ForbiddenSetOracle;

mod common;
use common::corrupt;

/// Codec round trip of every label of the family:
/// `decode(encode(L)) == L`.
fn roundtrip_family(oracle: &ForbiddenSetOracle, n: usize) {
    for v in 0..n {
        let label = oracle.label(NodeId::from_index(v));
        let w = codec::encode(&label, n);
        let back = codec::decode(w.as_bytes(), w.len_bits(), n);
        assert_eq!(back.as_ref(), Ok(&*label), "label {v}");
    }
}

/// Codec round trip of every label, then a corruption sweep for one
/// family: >= 1000 scheduled mutations of an encoded fault label, each of
/// which must either fail decoding with a typed `CodecError` or decode to
/// a valid label whose query answer is still sound.
/// `corrupt::corruption_sweep` panics with the seed and the offending
/// mutation on any violation.
fn corrupt_family(g: &Graph, eps: f64, seed: u64) {
    let oracle = ForbiddenSetOracle::new(g, eps);
    let n = g.num_vertices();
    roundtrip_family(&oracle, n);
    assert!(n >= 4, "family too small for a corruption sweep");
    let s = NodeId::new(0);
    let t = NodeId::from_index(n / 2);
    let fault = NodeId::from_index(n / 3);
    let donor = NodeId::from_index(2 * n / 3);
    let stats = corrupt::corruption_sweep(&oracle, s, t, fault, donor, 1000, seed);
    assert!(
        stats.attempted >= 990,
        "sweep seed {seed:#x}: only {} mutations attempted",
        stats.attempted
    );
    assert_eq!(
        stats.attempted,
        stats.rejected + stats.decoded_sound,
        "sweep seed {seed:#x}: unaccounted outcomes in {stats:?}"
    );
}

/// Shared checker: samples (s, t) pairs with the given fault set and
/// asserts soundness + stretch + exact disconnection reporting.
fn check_family(g: &Graph, eps: f64, faults: &FaultSet, s_step: usize, t_step: usize) {
    let oracle = ForbiddenSetOracle::new(g, eps);
    let n = g.num_vertices() as u32;
    for s in (0..n).step_by(s_step) {
        for t in (0..n).step_by(t_step) {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            if faults.is_vertex_faulty(s) || faults.is_vertex_faulty(t) {
                continue;
            }
            let answer = oracle.distance(s, t, faults);
            let truth = bfs::pair_distance_avoiding(g, s, t, faults);
            match truth.finite() {
                None => assert!(answer.is_infinite(), "{s}->{t} invented"),
                Some(td) => {
                    let ad = answer.finite().unwrap_or_else(|| panic!("{s}->{t} missed"));
                    assert!(ad >= td, "{s}->{t}: {ad} < {td}");
                    assert!(
                        f64::from(ad) <= (1.0 + eps) * f64::from(td) + 1e-9,
                        "{s}->{t}: stretch {ad}/{td}"
                    );
                }
            }
        }
    }
}

fn center_fault(g: &Graph) -> FaultSet {
    FaultSet::from_vertices([NodeId::from_index(g.num_vertices() / 2)])
}

#[test]
fn torus2d_family() {
    let g = generators::torus2d(6, 6);
    corrupt_family(&g, 1.0, 0xFA01);
    check_family(&g, 1.0, &FaultSet::empty(), 5, 7);
    check_family(&g, 1.0, &center_fault(&g), 5, 7);
}

#[test]
fn torus3d_family() {
    let g = generators::torus3d(3, 3, 4);
    corrupt_family(&g, 2.0, 0xFA02);
    check_family(&g, 2.0, &FaultSet::empty(), 3, 5);
    check_family(&g, 2.0, &center_fault(&g), 3, 5);
}

#[test]
fn road_network_family() {
    let g = generators::road_network(8, 8, 0.2, 3);
    corrupt_family(&g, 1.0, 0xFA03);
    check_family(&g, 1.0, &FaultSet::empty(), 5, 7);
    check_family(&g, 1.0, &center_fault(&g), 5, 7);
}

#[test]
fn grid_with_holes_family() {
    // A courtyard: the 2x2 center block is missing.
    let g = generators::grid2d_with_holes(8, 8, |x, y| (3..5).contains(&x) && (3..5).contains(&y));
    corrupt_family(&g, 1.0, 0xFA04);
    // Skip hole cells as endpoints (they are isolated).
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let f = FaultSet::from_vertices([NodeId::new(11)]);
    for s in (0..64u32).step_by(5) {
        for t in (0..64u32).step_by(7) {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            if f.is_vertex_faulty(s) || f.is_vertex_faulty(t) {
                continue;
            }
            let answer = oracle.distance(s, t, &f);
            let truth = bfs::pair_distance_avoiding(&g, s, t, &f);
            assert_eq!(answer.is_finite(), truth.is_finite(), "{s}->{t}");
            if let (Some(a), Some(td)) = (answer.finite(), truth.finite()) {
                assert!(a >= td && f64::from(a) <= 2.0 * f64::from(td) + 1e-9);
            }
        }
    }
}

#[test]
fn spider_family() {
    let g = generators::spider(5, 8);
    corrupt_family(&g, 1.0, 0xFA05);
    check_family(&g, 1.0, &FaultSet::empty(), 3, 4);
    // Fault the hub: everything disconnects across legs.
    let hub = FaultSet::from_vertices([NodeId::new(0)]);
    check_family(&g, 1.0, &hub, 3, 4);
}

#[test]
fn ladder_family() {
    let g = generators::ladder(16);
    corrupt_family(&g, 0.5, 0xFA06);
    check_family(&g, 0.5, &FaultSet::empty(), 3, 5);
    check_family(&g, 0.5, &center_fault(&g), 3, 5);
}

#[test]
fn lollipop_family() {
    let g = generators::lollipop(6, 10);
    corrupt_family(&g, 1.0, 0xFA07);
    check_family(&g, 1.0, &FaultSet::empty(), 2, 3);
    // Fault the clique-tail joint.
    check_family(&g, 1.0, &FaultSet::from_vertices([NodeId::new(5)]), 2, 3);
}

#[test]
fn barbell_family() {
    let g = generators::barbell(5, 4);
    corrupt_family(&g, 1.0, 0xFA08);
    check_family(&g, 1.0, &FaultSet::empty(), 2, 3);
    // Fault the middle of the bridge.
    check_family(&g, 1.0, &FaultSet::from_vertices([NodeId::new(7)]), 2, 3);
}

#[test]
fn linf_grid_family() {
    let g = generators::grid_linf(4, 3);
    corrupt_family(&g, 2.0, 0xFA09);
    check_family(&g, 2.0, &FaultSet::empty(), 5, 7);
    check_family(&g, 2.0, &center_fault(&g), 5, 7);
}

#[test]
fn half_grid_family() {
    let g = generators::half_grid(4, 4);
    corrupt_family(&g, 3.0, 0xFA0A);
    check_family(&g, 3.0, &FaultSet::empty(), 17, 23);
    check_family(&g, 3.0, &center_fault(&g), 17, 23);
}

#[test]
fn hypercube_contrast_family() {
    // alpha ~ log n: still correct, just expensive — tiny instance.
    let g = generators::hypercube(4);
    corrupt_family(&g, 2.0, 0xFA0B);
    check_family(&g, 2.0, &FaultSet::empty(), 3, 5);
    check_family(&g, 2.0, &center_fault(&g), 3, 5);
}

#[test]
fn star_contrast_family() {
    let g = generators::star(24);
    corrupt_family(&g, 1.0, 0xFA0C);
    check_family(&g, 1.0, &FaultSet::empty(), 3, 5);
    // Fault the hub: everything disconnects.
    let hub = FaultSet::from_vertices([NodeId::new(0)]);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    assert!(!oracle.connected(NodeId::new(1), NodeId::new(2), &hub));
}

#[test]
fn erdos_renyi_contrast_family() {
    // Not doubling-bounded; the scheme stays correct, only its size bound
    // is void.
    let g = generators::erdos_renyi(40, 0.12, 5);
    corrupt_family(&g, 1.0, 0xFA0D);
    check_family(&g, 1.0, &FaultSet::empty(), 3, 5);
    check_family(&g, 1.0, &center_fault(&g), 3, 5);
}
