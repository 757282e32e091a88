//! Regression tests for the decode-time distance clamp.
//!
//! Theorem 2.1 guarantees `δ(s, t, F) ≥ d_{G∖F}(s, t)` — the decoder may
//! only *over*estimate. A sketch path whose length exceeds `u32::MAX − 1`
//! cannot be represented by [`Dist`], so the decoder must widen it to
//! [`Dist::INFINITE`]; the old behaviour of clamping *down* to the largest
//! finite value returned an underestimate and silently broke soundness.
//!
//! A real graph forcing this would need billions of vertices, so the tests
//! hand-build labels under a huge-`n` schedule (`n = 2³³`, so level 31 with
//! `λ₃₁ = 2³² > u32::MAX` exists) in which `s` and `t` each store an owner
//! edge of weight ≈ `u32::MAX` to a shared waypoint `x`. The only sketch
//! path `s → x → t` then has length ≈ `2·u32::MAX`, which overflows `Dist`.

use fsdl_graph::{Dist, NodeId};
use fsdl_labels::{
    query, query_many, trace_query, Label, LabelPoint, LevelLabel, QueryLabels, SchemeParams,
};

/// The huge-`n` schedule: `ε = 1` gives `c = 3` (so `first_level = 4`), and
/// `n = 2³³` gives `top_level = 33`, making level 31 (`λ = 2³²`) available.
fn huge_params() -> SchemeParams {
    let p = SchemeParams::new(1.0, 1usize << 33);
    assert_eq!(p.c(), 3);
    assert_eq!(p.top_level(), 33);
    assert!(p.lambda(31) > u64::from(u32::MAX));
    p
}

/// A label for `owner` whose only content is a single level-31 point:
/// the shared waypoint `x` at exact distance `dist`.
fn spoke_label(owner: u32, x: u32, dist: u32) -> Label {
    let first_level = 4; // c + 1
    let spoke_level = 31;
    let mut levels = vec![LevelLabel::default(); (spoke_level - first_level + 1) as usize];
    levels[(spoke_level - first_level) as usize].points = vec![LabelPoint {
        vertex: NodeId::new(x),
        dist,
        net_level: spoke_level,
    }];
    Label {
        owner: NodeId::new(owner),
        owner_net_level: 0,
        first_level,
        levels,
    }
}

/// Sketch path `s → x → t` of total length `d1 + d2`.
fn spoke_pair(d1: u32, d2: u32) -> (Label, Label) {
    (spoke_label(0, 2, d1), spoke_label(1, 2, d2))
}

#[test]
fn unrepresentable_distance_widens_to_infinite() {
    let p = huge_params();
    // Each spoke fits u32; the two-hop path is ~2·u32::MAX and does not.
    let (s, t) = spoke_pair(u32::MAX - 2, u32::MAX - 2);
    let answer = query(&p, &s, &t, &QueryLabels::none());
    // The sketch genuinely connects s and t...
    assert!(answer.sketch_edges >= 2);
    // ...but the only path overflows Dist, so the sound answer is INFINITE
    // (an overestimate), never a clamped-down finite underestimate. The
    // witnessing sketch path is still reported for diagnostics.
    assert_eq!(answer.distance, Dist::INFINITE);
    assert_eq!(
        answer.path,
        vec![NodeId::new(0), NodeId::new(2), NodeId::new(1)]
    );
}

#[test]
fn representable_boundary_distance_stays_exact() {
    let p = huge_params();
    // d1 + d2 = u32::MAX - 1: the largest representable finite distance.
    let (s, t) = spoke_pair(1 << 31, (u32::MAX - 1) - (1 << 31));
    let answer = query(&p, &s, &t, &QueryLabels::none());
    assert_eq!(answer.distance.finite(), Some(u32::MAX - 1));
    // One more unit of length (= u32::MAX, the INFINITE sentinel) must
    // widen rather than masquerade as the sentinel-valued finite distance.
    let (s, t) = spoke_pair(1 << 31, u32::MAX - (1 << 31));
    let answer = query(&p, &s, &t, &QueryLabels::none());
    assert_eq!(answer.distance, Dist::INFINITE);
}

#[test]
fn query_many_widens_unrepresentable_distances() {
    let p = huge_params();
    // 3e9 + 3e9 ≈ 6e9 > u32::MAX ≈ 4.29e9: s → t overflows...
    let (s, t) = spoke_pair(3_000_000_000, 3_000_000_000);
    // ...while s → near = 3e9 + 7 is still representable.
    let near = spoke_label(3, 2, 7);
    let answers = query_many(&p, &s, &[&t, &near], &QueryLabels::none());
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[0], Dist::INFINITE);
    assert_eq!(answers[1].finite(), Some(3_000_000_007));
}

#[test]
fn trace_query_widens_unrepresentable_distances() {
    let p = huge_params();
    let (s, t) = spoke_pair(u32::MAX - 2, u32::MAX - 2);
    let trace = trace_query(&p, &s, &t, &QueryLabels::none());
    assert_eq!(trace.distance, Dist::INFINITE);
    // trace_query still reports the witnessing hops for diagnostics even
    // when the total length is unrepresentable.
    assert_eq!(trace.hops.len(), 2);
}

#[test]
fn dist_try_new_is_the_single_widening_point() {
    assert_eq!(Dist::try_new(0), Some(Dist::ZERO));
    assert_eq!(
        Dist::try_new(u64::from(u32::MAX) - 1).map(|d| d.finite()),
        Some(Some(u32::MAX - 1))
    );
    assert_eq!(Dist::try_new(u64::from(u32::MAX)), None);
    assert_eq!(Dist::try_new(u64::MAX), None);
}
