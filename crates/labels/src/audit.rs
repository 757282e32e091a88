//! Labeling invariant auditor.
//!
//! The scheme's guarantees rest on a chain of structural invariants
//! (schedule inequalities, net domination, ball membership, exact virtual
//! edge weights, waypoint presence). The test-suite checks them all; this
//! module packages the same checks as a public API so *users* can audit a
//! labeling on their own graphs — e.g. before deploying labels built on an
//! unfamiliar topology, or after modifying construction options.

use fsdl_graph::bfs::{self, BfsScratch};
use fsdl_graph::{FaultSet, NodeId};

use crate::builder::Labeling;

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

/// Audits `labeling` by materializing the labels of `samples` evenly-spaced
/// vertices and checking, against the graph:
///
/// 1. the parameter schedule invariants ([`crate::SchemeParams::verify_invariants`]);
/// 2. every stored point lies in the level's ball (`d ≤ rᵢ`) at the
///    level's net (`∈ N_{i−c−1}`) with its **exact** distance;
/// 3. every virtual edge is `≤ λᵢ` with its **exact** weight and a
///    waypoint-level endpoint (unless built with `all_pairs`);
/// 4. the owner's nearest waypoint `M_{i−c}` is stored at every level (the
///    certificate anchor);
/// 5. labels structurally validate ([`crate::Label::validate`]).
///
/// Stops collecting after 16 violations.
pub fn audit(labeling: &Labeling, samples: usize) -> AuditReport {
    let mut report = AuditReport::default();
    let g = labeling.graph();
    let params = labeling.params();
    let n = g.num_vertices();
    if let Err(e) = params.verify_invariants() {
        report.violations.push(format!("schedule: {e}"));
    }
    let mut scratch = BfsScratch::new(n);
    let samples = samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let mut v = 0usize;
    let mut count = 0usize;
    'outer: while v < n && count < samples {
        let owner = NodeId::from_index(v);
        let label = labeling.label_of(owner);
        count += 1;
        if let Err(e) = label.validate() {
            report.violations.push(format!("{owner}: {e}"));
        }
        // Exact distances from the owner (one BFS covers all levels).
        let radius = u32::try_from(params.r(params.top_level()).min(n as u64)).expect("fits");
        let _ = bfs::ball(g, owner, radius, &mut scratch);
        for (i, level) in label.levels_iter() {
            let r_i = params.r(i).min(n as u64);
            let lambda_i = params.lambda(i);
            let stored_net = params.stored_net_level(i).min(labeling.nets().top_level());
            let waypoint_net = params
                .waypoint_net_level(i)
                .min(labeling.nets().top_level());
            for p in &level.points {
                report.points_checked += 1;
                match scratch.last_dist(p.vertex) {
                    Some(d) if d == p.dist => {}
                    other => {
                        report.violations.push(format!(
                            "{owner} level {i}: point {} distance {} vs true {:?}",
                            p.vertex, p.dist, other
                        ));
                    }
                }
                if u64::from(p.dist) > r_i {
                    report.violations.push(format!(
                        "{owner} level {i}: point {} outside ball",
                        p.vertex
                    ));
                }
                if !labeling.nets().is_in_net(p.vertex, stored_net) {
                    report.violations.push(format!(
                        "{owner} level {i}: point {} below stored net",
                        p.vertex
                    ));
                }
                if report.violations.len() >= 16 {
                    break 'outer;
                }
            }
            // Certificate anchor: nearest waypoint present.
            if !level.points.is_empty() && !level.points.iter().any(|p| p.net_level >= waypoint_net)
            {
                report
                    .violations
                    .push(format!("{owner} level {i}: no waypoint-level point stored"));
            }
            for e in level.virtual_edges() {
                report.edges_checked += 1;
                let x = level.points[e.a as usize].vertex;
                let y = level.points[e.b as usize].vertex;
                if u64::from(e.dist) > lambda_i {
                    report.violations.push(format!(
                        "{owner} level {i}: edge {x}-{y} longer than lambda"
                    ));
                }
                let true_d = bfs::pair_distance_avoiding(g, x, y, &FaultSet::empty());
                if true_d.finite() != Some(e.dist) {
                    report.violations.push(format!(
                        "{owner} level {i}: edge {x}-{y} weight {} vs true {true_d}",
                        e.dist
                    ));
                }
                if report.violations.len() >= 16 {
                    break 'outer;
                }
            }
        }
        v += stride;
    }
    report.vertices_checked = count;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchemeParams;
    use fsdl_graph::generators;

    #[test]
    fn healthy_labelings_pass() {
        for (g, eps) in [
            (generators::grid2d(7, 7), 1.0),
            (generators::cycle(40), 0.5),
            (generators::balanced_tree(2, 4), 2.0),
        ] {
            let labeling = Labeling::build(&g, SchemeParams::new(eps, g.num_vertices()));
            let report = audit(&labeling, 6);
            assert!(report.passed(), "violations: {:?}", report.violations);
            assert!(report.points_checked > 0);
            assert!(report.vertices_checked > 0);
        }
    }

    #[test]
    fn all_pairs_labelings_pass_too() {
        let g = generators::grid2d(6, 6);
        let labeling = Labeling::build_with_options(
            &g,
            SchemeParams::new(1.0, 36),
            crate::builder::LabelingOptions { all_pairs: true },
        );
        assert!(audit(&labeling, 4).passed());
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
