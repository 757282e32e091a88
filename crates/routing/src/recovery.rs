//! Fleet-level fast-recovery simulation: the paper's failure-propagation
//! protocol.
//!
//! The paper's applications section sketches how forbidden-set routing
//! recovers from failures without global route maintenance: every router
//! keeps a local failed-set `F_u`; failure knowledge spreads by probing
//! (a router discovers a dead neighbour when forwarding to it fails) and by
//! *piggybacking* (knowledge rides on packets, so "all routers on this path
//! will learn about the failure"). A packet that reaches a better-informed
//! router is immediately rerouted with a fresh label query.
//!
//! [`RecoverySim`] implements exactly that protocol on top of the
//! [`Network`] simulator, so the evaluation can measure how quickly the
//! fleet converges to full awareness and how delivery quality behaves
//! during the transient.

use fsdl_graph::{FaultSet, NodeId};
use fsdl_labels::DecodeScratch;

use crate::simulator::{Network, RouteFailure};

/// Outcome of one packet in the recovery simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketOutcome {
    /// Every vertex visited.
    pub path: Vec<NodeId>,
    /// Edges traversed.
    pub hops: usize,
    /// Header recomputations en route (discoveries or better-informed
    /// routers).
    pub reroutes: usize,
    /// Routers whose local knowledge grew because of this packet.
    pub routers_informed: usize,
}

/// A network of routers with *per-router* failure knowledge, converging via
/// probing and piggybacking.
#[derive(Debug)]
pub struct RecoverySim {
    network: Network,
    ground_truth: FaultSet,
    knowledge: Vec<FaultSet>,
    /// Decode buffers reused across every replan query the simulation
    /// issues — the rerouting loop is exactly the serving-loop shape the
    /// allocation-free fast path exists for.
    scratch: DecodeScratch,
}

impl RecoverySim {
    /// Creates the simulation over `network` with no failures yet.
    pub fn new(network: Network) -> Self {
        let n = network.labeling().graph().num_vertices();
        RecoverySim {
            network,
            ground_truth: FaultSet::empty(),
            knowledge: vec![FaultSet::empty(); n],
            scratch: DecodeScratch::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The real (global) failure set.
    pub fn ground_truth(&self) -> &FaultSet {
        &self.ground_truth
    }

    /// Fails a vertex. Only its *neighbours* would notice by probing; here
    /// nobody is informed until traffic discovers it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fail_vertex(&mut self, v: NodeId) {
        assert!(
            self.network.labeling().graph().contains(v),
            "vertex out of range"
        );
        self.ground_truth.forbid_vertex(v);
    }

    /// Fails an edge.
    ///
    /// # Panics
    ///
    /// Panics if `{a, b}` is not an edge of the graph.
    pub fn fail_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(
            self.network.labeling().graph().has_edge(a, b),
            "not an edge of the graph"
        );
        self.ground_truth.forbid_edge_unchecked(a, b);
    }

    /// Recovers a vertex: removed from the ground truth and from every
    /// router's knowledge (the paper's recovery propagation, simplified to
    /// an instant broadcast — the interesting transient is failure, not
    /// recovery).
    pub fn recover_vertex(&mut self, v: NodeId) {
        self.ground_truth.permit_vertex(v);
        for k in &mut self.knowledge {
            k.permit_vertex(v);
        }
    }

    /// Fraction of `(live router, failure)` pairs where the router already
    /// knows the failure — 1.0 means the fleet has fully converged.
    pub fn awareness(&self) -> f64 {
        let faults: Vec<_> = self.ground_truth.vertices().collect();
        let fault_edges: Vec<_> = self.ground_truth.edges().collect();
        let total_items = faults.len() + fault_edges.len();
        if total_items == 0 {
            return 1.0;
        }
        let mut known = 0usize;
        let mut live = 0usize;
        for (r, k) in self.knowledge.iter().enumerate() {
            if self.ground_truth.is_vertex_faulty(NodeId::from_index(r)) {
                continue;
            }
            live += 1;
            known += faults.iter().filter(|&&f| k.is_vertex_faulty(f)).count();
            known += fault_edges
                .iter()
                .filter(|e| k.is_edge_faulty(e.lo(), e.hi()))
                .count();
        }
        if live == 0 {
            1.0
        } else {
            known as f64 / (live * total_items) as f64
        }
    }

    /// Sends one packet from `s` to `t` using only local knowledge:
    /// `s` computes the header from `F_s`; every visited router merges the
    /// packet's carried knowledge (and vice versa), rerouting whenever it
    /// knows strictly more than the packet or a probe fails.
    ///
    /// # Errors
    ///
    /// `Unreachable` when `t` cannot be reached given what was learned
    /// (which equals true unreachability once awareness suffices);
    /// `ForbiddenEndpoint` for failed endpoints;
    /// [`RouteFailure::NoProgress`] / [`RouteFailure::InvalidPort`] when a
    /// scheme invariant is violated (surfaced rather than panicking).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn send(&mut self, s: NodeId, t: NodeId) -> Result<PacketOutcome, RouteFailure> {
        let g = self.network.labeling().graph();
        assert!(g.contains(s) && g.contains(t), "endpoint out of range");
        if self.ground_truth.is_vertex_faulty(s) || self.ground_truth.is_vertex_faulty(t) {
            return Err(RouteFailure::ForbiddenEndpoint);
        }
        let mut carried = self.knowledge[s.index()].clone();
        let mut path = vec![s];
        let mut cur = s;
        let mut reroutes = 0usize;
        let mut informed = 0usize;
        let budget = self.ground_truth.len() * 2 + 4;
        'replan: loop {
            let answer = self
                .network
                .oracle()
                .query_with(cur, t, &carried, &mut self.scratch);
            if answer.distance.is_infinite() {
                // Share what the packet learned before dropping it.
                self.merge_into_router(cur, &carried, &mut informed);
                return Err(RouteFailure::Unreachable);
            }
            for &waypoint in answer.path.iter().skip(1) {
                while cur != waypoint {
                    // Knowledge exchange at the current router.
                    let grew_packet = merge(&mut carried, &self.knowledge[cur.index()]);
                    self.merge_into_router(cur, &carried.clone(), &mut informed);
                    if grew_packet {
                        // Better-informed router: recompute immediately
                        // (the paper's "make a new query" step).
                        reroutes += 1;
                        if reroutes > budget {
                            return Err(RouteFailure::NoProgress { at: cur, reroutes });
                        }
                        continue 'replan;
                    }
                    let next = self.network.next_hop(cur, waypoint)?;
                    if self.ground_truth.blocks_traversal(cur, next) {
                        // Probe failed: discover and replan from here.
                        if self.ground_truth.is_vertex_faulty(next) {
                            carried.forbid_vertex(next);
                        }
                        if self.ground_truth.is_edge_faulty(cur, next) {
                            carried.forbid_edge_unchecked(cur, next);
                        }
                        self.merge_into_router(cur, &carried.clone(), &mut informed);
                        reroutes += 1;
                        if reroutes > budget {
                            return Err(RouteFailure::NoProgress { at: cur, reroutes });
                        }
                        continue 'replan;
                    }
                    path.push(next);
                    cur = next;
                }
            }
            // Delivered: the destination also learns.
            self.merge_into_router(t, &carried, &mut informed);
            return Ok(PacketOutcome {
                hops: path.len() - 1,
                path,
                reroutes,
                routers_informed: informed,
            });
        }
    }

    fn merge_into_router(&mut self, r: NodeId, carried: &FaultSet, informed: &mut usize) {
        if merge(&mut self.knowledge[r.index()], carried) {
            *informed += 1;
        }
    }
}

/// Merges `src` into `dst`; returns `true` if `dst` grew.
fn merge(dst: &mut FaultSet, src: &FaultSet) -> bool {
    let mut grew = false;
    for v in src.vertices() {
        grew |= dst.forbid_vertex(v);
    }
    for e in src.edges() {
        grew |= dst.forbid_edge_unchecked(e.lo(), e.hi());
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;

    #[test]
    fn traffic_spreads_failure_knowledge() {
        let g = generators::cycle(24);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_vertex(NodeId::new(6));
        assert_eq!(sim.awareness(), 0.0);
        // A packet aimed through the failure discovers it and informs every
        // router on its realized path.
        let out = sim.send(NodeId::new(2), NodeId::new(10)).unwrap();
        assert!(out.reroutes >= 1);
        assert!(out.routers_informed > 0);
        assert!(sim.awareness() > 0.0);
        // The sender now knows; its next packet routes around directly.
        let out2 = sim.send(NodeId::new(2), NodeId::new(10)).unwrap();
        assert_eq!(out2.reroutes, 0);
    }

    #[test]
    fn awareness_converges_under_traffic() {
        let g = generators::grid2d(6, 6);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_vertex(NodeId::new(14));
        sim.fail_vertex(NodeId::new(21));
        let mut last = 0.0;
        for k in 0..60u32 {
            let s = NodeId::new((k * 7) % 36);
            let t = NodeId::new((k * 13 + 5) % 36);
            if sim.ground_truth().is_vertex_faulty(s) || sim.ground_truth().is_vertex_faulty(t) {
                continue;
            }
            let _ = sim.send(s, t);
            let a = sim.awareness();
            assert!(a >= last - 1e-12, "awareness must be monotone");
            last = a;
        }
        assert!(last > 0.5, "traffic should spread knowledge (got {last})");
    }

    #[test]
    fn delivered_packets_avoid_all_real_faults() {
        let g = generators::grid2d(5, 5);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_vertex(NodeId::new(12));
        for k in 0..20u32 {
            let s = NodeId::new((k * 3) % 25);
            let t = NodeId::new((k * 11 + 1) % 25);
            if s == NodeId::new(12) || t == NodeId::new(12) {
                continue;
            }
            if let Ok(out) = sim.send(s, t) {
                for w in out.path.windows(2) {
                    assert!(!sim.ground_truth().blocks_traversal(w[0], w[1]));
                }
                assert_eq!(out.path.last(), Some(&t));
            }
        }
    }

    #[test]
    fn recovery_clears_knowledge() {
        let g = generators::cycle(12);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_vertex(NodeId::new(3));
        let _ = sim.send(NodeId::new(1), NodeId::new(5));
        assert!(sim.awareness() > 0.0);
        sim.recover_vertex(NodeId::new(3));
        assert_eq!(sim.awareness(), 1.0); // vacuously: no faults left
        let out = sim.send(NodeId::new(1), NodeId::new(5)).unwrap();
        assert_eq!(out.hops, 4);
    }

    #[test]
    fn edge_failures_discovered() {
        let g = generators::cycle(16);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_edge(NodeId::new(4), NodeId::new(5));
        let out = sim.send(NodeId::new(2), NodeId::new(8)).unwrap();
        assert!(out.reroutes >= 1);
        for w in out.path.windows(2) {
            assert!(!sim.ground_truth().is_edge_faulty(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_discovered_late() {
        let g = generators::path(9);
        let mut sim = RecoverySim::new(Network::new(&g, 1.0));
        sim.fail_vertex(NodeId::new(4));
        assert_eq!(
            sim.send(NodeId::new(0), NodeId::new(8)),
            Err(RouteFailure::Unreachable)
        );
        // The sender learned the failure in the process.
        assert!(sim.awareness() > 0.0);
    }
}
