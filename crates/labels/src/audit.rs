//! Labeling invariant auditor.
//!
//! The scheme's guarantees rest on a chain of structural invariants
//! (schedule inequalities, net domination, ball membership, exact virtual
//! edge weights, waypoint presence) and on each label being complete: every
//! net point of its balls, every qualifying pair and every `G`-edge at the
//! lowest level stored. The test-suite checks them all; this
//! module packages the same checks as a public API so *users* can audit a
//! labeling on their own graphs — e.g. before deploying labels built on an
//! unfamiliar topology, or after modifying construction options.

use std::collections::{BTreeMap, BTreeSet};

use fsdl_graph::bfs::{self, BfsScratch};
use fsdl_graph::NodeId;

use crate::builder::Labeling;
use crate::label::Label;

/// Outcome of [`audit`]: per-check pass/fail with the first violation's
/// description.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Violations found (empty = all checks passed).
    pub violations: Vec<String>,
    /// Number of vertices whose labels were materialized and checked.
    pub vertices_checked: usize,
    /// Total stored points inspected.
    pub points_checked: usize,
    /// Total virtual edges inspected.
    pub edges_checked: usize,
}

impl AuditReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Violations collected before the audit stops.
const MAX_VIOLATIONS: usize = 16;

/// Audits `labeling` by materializing the labels of `samples` evenly-spaced
/// vertices and checking, against the graph:
///
/// 1. the parameter schedule invariants ([`crate::SchemeParams::verify_invariants`]);
/// 2. every stored point lies in the level's ball (`d ≤ rᵢ`) at the
///    level's net (`∈ N_{i−c−1}`) with its **exact** distance, and every
///    such point of the ball is stored;
/// 3. the virtual edges are exactly the pairs of stored points at
///    `d_G ≤ λᵢ` with a waypoint-level endpoint (any pair with `all_pairs`),
///    each with its **exact** weight;
/// 4. the real edges are exactly the edges of `G` between stored points at
///    the lowest level, and absent above it;
/// 5. the owner's nearest waypoint `M_{i−c}` is stored at every level (the
///    certificate anchor);
/// 6. labels structurally validate ([`crate::Label::validate`]).
///
/// Stops collecting after 16 violations.
pub fn audit(labeling: &Labeling, samples: usize) -> AuditReport {
    let mut report = AuditReport::default();
    let n = labeling.graph().num_vertices();
    if let Err(e) = labeling.params().verify_invariants() {
        report.violations.push(format!("schedule: {e}"));
    }
    let samples = samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let mut v = 0usize;
    while v < n && report.vertices_checked < samples && report.violations.len() < MAX_VIOLATIONS {
        audit_label(
            labeling,
            &labeling.label_of(NodeId::from_index(v)),
            &mut report,
        );
        v += stride;
    }
    report.violations.truncate(MAX_VIOLATIONS);
    report
}

/// Checks 2–6 of [`audit`] for one label of `labeling`, adding what it
/// finds to `report` — for a label that did not come from
/// [`Labeling::label_of`], such as one derived from a store's points
/// record ([`crate::EdgeSets::label`]).
pub fn audit_label(labeling: &Labeling, label: &Label, report: &mut AuditReport) {
    let g = labeling.graph();
    let params = labeling.params();
    let n = g.num_vertices();
    let clamp = |r: u64| u32::try_from(r.min(n as u64)).expect("n fits in u32");
    let owner = label.owner;
    report.vertices_checked += 1;
    if let Err(e) = label.validate() {
        report.violations.push(format!("{owner}: {e}"));
        return;
    }
    // Exact distances from the owner (one BFS covers all levels).
    let mut owner_scratch = BfsScratch::new(n);
    let ball = bfs::ball(
        g,
        owner,
        clamp(params.r(params.top_level())),
        &mut owner_scratch,
    );
    let mut pair_scratch = BfsScratch::new(n);
    for (i, level) in label.levels_iter() {
        let mut found = Vec::new();
        let mut fail = |what: String| found.push(format!("{owner} level {i}: {what}"));
        let r_i = clamp(params.r(i));
        let stored_net = labeling.stored_net(i);
        let waypoint_net = labeling.waypoint_net(i);
        let index_of = |v: NodeId| level.points.binary_search_by_key(&v, |p| p.vertex).ok();
        let vertex = |k: usize| level.points[k].vertex;
        for p in &level.points {
            match owner_scratch.last_dist(p.vertex) {
                Some(d) if d == p.dist => {}
                other => fail(format!(
                    "point {} distance {} vs true {other:?}",
                    p.vertex, p.dist
                )),
            }
            if p.dist > r_i {
                fail(format!("point {} outside ball", p.vertex));
            }
            if !labeling.nets().is_in_net(p.vertex, stored_net) {
                fail(format!("point {} below stored net", p.vertex));
            }
        }
        for m in ball.iter().take_while(|m| m.dist <= r_i) {
            if labeling.nets().is_in_net(m.vertex, stored_net) && index_of(m.vertex).is_none() {
                fail(format!("net point {} of the ball not stored", m.vertex));
            }
        }
        // Certificate anchor: nearest waypoint present.
        if !level.points.is_empty() && !level.points.iter().any(|p| p.net_level >= waypoint_net) {
            fail("no waypoint-level point stored".into());
        }
        // Every pair within λᵢ of a high point, with its distance.
        let mut pairs = BTreeMap::new();
        for (a, p) in level.points.iter().enumerate() {
            if labeling.all_pairs() || p.net_level >= waypoint_net {
                for m in bfs::ball(g, p.vertex, clamp(params.lambda(i)), &mut pair_scratch) {
                    match index_of(m.vertex) {
                        Some(b) if b != a => pairs.insert((a.min(b), a.max(b)), m.dist),
                        _ => None,
                    };
                }
            }
        }
        for e in level.virtual_edges() {
            let (a, b) = (e.a.min(e.b) as usize, e.a.max(e.b) as usize);
            let (x, y) = (vertex(a), vertex(b));
            match pairs.remove(&(a, b)) {
                Some(d) if d == e.dist => {}
                Some(d) => fail(format!("edge {x}-{y} weight {} vs true {d}", e.dist)),
                None => fail(format!(
                    "edge {x}-{y} is not a pair within lambda with a waypoint endpoint, \
                     or is stored twice"
                )),
            }
        }
        for (a, b) in pairs.into_keys() {
            fail(format!("virtual edge {}-{} missing", vertex(a), vertex(b)));
        }
        let mut edges = BTreeSet::new();
        if i == params.c() + 1 {
            for (a, p) in level.points.iter().enumerate() {
                let later = |w| index_of(w).filter(|&b| b > a).map(|b| (a, b));
                edges.extend(g.neighbor_ids(p.vertex).filter_map(later));
            }
        }
        for e in level.real_edges() {
            let (a, b) = (e.a.min(e.b) as usize, e.a.max(e.b) as usize);
            if !edges.remove(&(a, b)) {
                fail(format!(
                    "real edge {}-{} is not an edge of G at the lowest level, or is stored twice",
                    vertex(a),
                    vertex(b)
                ));
            }
        }
        for (a, b) in edges {
            fail(format!("real edge {}-{} missing", vertex(a), vertex(b)));
        }
        report.points_checked += level.points.len();
        report.edges_checked += level.num_virtual_edges();
        report.violations.extend(found);
        if report.violations.len() >= MAX_VIOLATIONS {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchemeParams;
    use fsdl_graph::generators;

    use crate::builder::LabelingOptions;
    use crate::label::{LevelLabel, RealEdge, VirtualEdge};
    use fsdl_graph::{Graph, GraphBuilder};

    /// Two paths of 60, one with chords every third vertex.
    fn two_components() -> Graph {
        let mut b = GraphBuilder::new(120);
        for v in (0..59).chain(60..119) {
            b.add_edge(v, v + 1).unwrap();
        }
        for v in (60..115).step_by(3) {
            b.add_edge(v, v + 4).unwrap();
        }
        b.build()
    }

    /// Local-regime graphs: balls that miss part of the net at low levels.
    fn local_graphs() -> Vec<Graph> {
        vec![
            generators::path(300),
            generators::cycle(400),
            generators::ladder(160),
            generators::random_geometric(150, 0.12, 7),
            two_components(),
        ]
    }

    #[test]
    fn healthy_labelings_pass() {
        let mut inputs = vec![
            (generators::grid2d(7, 7), 1.0),
            (generators::cycle(40), 0.5),
            (generators::balanced_tree(2, 4), 2.0),
        ];
        for g in local_graphs() {
            inputs.push((g.clone(), 1.0));
            inputs.push((g, 2.0));
        }
        for (g, eps) in inputs {
            let labeling = Labeling::build(&g, SchemeParams::new(eps, g.num_vertices()));
            let report = audit(&labeling, 6);
            assert!(report.passed(), "violations: {:?}", report.violations);
            assert!(report.points_checked > 0);
            assert!(report.vertices_checked > 0);
        }
    }

    #[test]
    fn all_pairs_labelings_pass_too() {
        let mut inputs = local_graphs();
        inputs.push(generators::grid2d(6, 6));
        for g in inputs {
            let labeling = Labeling::build_with_options(
                &g,
                SchemeParams::new(1.0, g.num_vertices()),
                LabelingOptions { all_pairs: true },
            );
            let report = audit(&labeling, 4);
            assert!(report.passed(), "violations: {:?}", report.violations);
        }
    }

    /// `level` without its point `drop_point`, its virtual edge
    /// `drop_virtual` and its real edge `drop_real` (positions in the flat
    /// lists), indices renumbered.
    fn without(
        level: &LevelLabel,
        drop_point: usize,
        drop_virtual: usize,
        drop_real: usize,
    ) -> LevelLabel {
        let keep = |a: u32, b: u32| a as usize != drop_point && b as usize != drop_point;
        let renumber = |a: u32| a - u32::from(a as usize > drop_point);
        let mut points = level.points.clone();
        if drop_point < points.len() {
            points.remove(drop_point);
        }
        let virt: Vec<VirtualEdge> = level
            .virtual_edges()
            .enumerate()
            .filter(|&(k, e)| k != drop_virtual && keep(e.a, e.b))
            .map(|(_, e)| VirtualEdge {
                a: renumber(e.a),
                b: renumber(e.b),
                dist: e.dist,
            })
            .collect();
        let real: Vec<RealEdge> = level
            .real_edges()
            .enumerate()
            .filter(|&(k, e)| k != drop_real && keep(e.a, e.b))
            .map(|(_, e)| RealEdge {
                a: renumber(e.a),
                b: renumber(e.b),
            })
            .collect();
        LevelLabel::new(points, virt, real).unwrap()
    }

    #[test]
    fn an_incomplete_label_fails() {
        let g = generators::path(40);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 40));
        let label = labeling.label_of(NodeId::new(20));
        let mut report = AuditReport::default();
        audit_label(&labeling, &label, &mut report);
        assert!(report.passed(), "violations: {:?}", report.violations);
        let lowest = &label.levels[0];
        let last = lowest.points.len() - 1;
        for (drop_point, drop_virtual, drop_real, expected) in [
            (usize::MAX, 0, usize::MAX, "virtual edge"),
            (usize::MAX, usize::MAX, 0, "real edge"),
            (last, usize::MAX, usize::MAX, "not stored"),
        ] {
            let mut cut = label.clone();
            cut.levels[0] = without(lowest, drop_point, drop_virtual, drop_real);
            let mut report = AuditReport::default();
            audit_label(&labeling, &cut, &mut report);
            assert!(
                report.violations.iter().any(|v| v.contains(expected)),
                "{expected}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn report_counts_accumulate() {
        let g = generators::path(32);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 32));
        let small = audit(&labeling, 2);
        let large = audit(&labeling, 8);
        assert!(large.points_checked > small.points_checked);
        assert!(large.vertices_checked >= small.vertices_checked);
    }
}
