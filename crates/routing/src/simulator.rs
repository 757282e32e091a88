//! Message-passing simulation of the forbidden-set routing scheme.
//!
//! A packet from `s` to `t` under forbidden set `F` carries a *header*: the
//! sequence of waypoints of the sketch-graph path computed by the label
//! decoder (length `O((1+ε⁻¹)^{2α} log n)` vertex names, as in the paper).
//! Each intermediate vertex forwards toward the next waypoint using only
//! its local routing table; per Theorem 2.7 every vertex on the shortest
//! path between consecutive waypoints has the waypoint in its table, and —
//! because admitted sketch edges are *safe* — no forwarding step ever
//! touches a forbidden vertex or edge. The simulator verifies both claims
//! at every hop and reports the realized hop count, so routing stretch is
//! measured end to end.

use std::sync::{Arc, OnceLock};

use fsdl_graph::{FaultSet, Graph, NodeId};
use fsdl_labels::{ForbiddenSetOracle, Labeling};
use fsdl_nets::ceil_log2;

use crate::table::{RoutingScheme, RoutingTable};

/// Why a routed packet failed to reach its destination.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteFailure {
    /// The decoder reported `s` and `t` disconnected in `G ∖ F`.
    Unreachable,
    /// An endpoint is itself forbidden.
    ForbiddenEndpoint,
    /// A vertex lacked a table entry for the next waypoint (would violate
    /// Theorem 2.7; surfaced for auditability rather than panicking).
    MissingTableEntry {
        /// The forwarding vertex.
        at: NodeId,
        /// The waypoint it could not resolve.
        waypoint: NodeId,
    },
    /// A forwarding step attempted to traverse a forbidden vertex or edge
    /// (would violate edge safety; surfaced for auditability).
    TraversedFault {
        /// The forwarding vertex.
        from: NodeId,
        /// The forbidden next hop.
        to: NodeId,
    },
    /// A routing table named a port with no corresponding neighbour (a
    /// corrupted or stale table; surfaced for auditability).
    InvalidPort {
        /// The forwarding vertex.
        at: NodeId,
        /// The dangling port number.
        port: usize,
    },
    /// Rerouting stopped making progress: either a reroute was triggered
    /// without learning a new fault, or the reroute budget (each reroute
    /// must discover at least one new fault) was exhausted.
    NoProgress {
        /// The vertex where progress stalled.
        at: NodeId,
        /// Reroutes performed before stalling.
        reroutes: usize,
    },
}

impl std::fmt::Display for RouteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteFailure::Unreachable => write!(f, "destination unreachable in G \\ F"),
            RouteFailure::ForbiddenEndpoint => write!(f, "source or destination is forbidden"),
            RouteFailure::MissingTableEntry { at, waypoint } => {
                write!(f, "no table entry at {at} for waypoint {waypoint}")
            }
            RouteFailure::TraversedFault { from, to } => {
                write!(f, "forwarding {from} -> {to} would traverse a fault")
            }
            RouteFailure::InvalidPort { at, port } => {
                write!(f, "table at {at} names invalid port {port}")
            }
            RouteFailure::NoProgress { at, reroutes } => {
                write!(f, "rerouting stalled at {at} after {reroutes} reroutes")
            }
        }
    }
}

/// Outcome of adaptive routing with en-route failure discovery
/// ([`Network::route_adaptive`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveDelivery {
    /// Every vertex visited, from `s` to `t` inclusive (may backtrack).
    pub path: Vec<NodeId>,
    /// Number of edges traversed.
    pub hops: usize,
    /// How many times an en-route router recomputed the header after
    /// discovering a failure.
    pub reroutes: usize,
    /// The failures discovered along the way (subset of the global set).
    pub discovered: usize,
}

/// A successfully delivered packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Every vertex visited, from `s` to `t` inclusive.
    pub path: Vec<NodeId>,
    /// Number of edges traversed (`path.len() - 1`).
    pub hops: usize,
    /// The header carried by the packet (waypoint sequence).
    pub header: Vec<NodeId>,
    /// Header size in bits (`|header| × ⌈log n⌉`).
    pub header_bits: usize,
}

/// A simulated network running the forbidden-set routing scheme.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, FaultSet, NodeId};
/// use fsdl_routing::Network;
///
/// let g = generators::cycle(24);
/// let net = Network::new(&g, 1.0);
/// let faults = FaultSet::from_vertices([NodeId::new(1)]);
/// let d = net.route(NodeId::new(0), NodeId::new(3), &faults).unwrap();
/// assert_eq!(d.path.first(), Some(&NodeId::new(0)));
/// assert_eq!(d.path.last(), Some(&NodeId::new(3)));
/// assert!(d.hops >= 21); // forced the long way around the ring
/// ```
#[derive(Debug)]
pub struct Network {
    oracle: ForbiddenSetOracle,
    tables: Box<[OnceLock<Arc<RoutingTable>>]>,
}

impl Network {
    /// Builds the network state (labels + routing tables) for `g` with
    /// precision `epsilon`. The network is `Send + Sync` — one instance can
    /// serve routing requests from many threads (tables, like labels, are
    /// memoized in a per-vertex `OnceLock` arena).
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty or `epsilon` is not positive finite.
    pub fn new(g: &Graph, epsilon: f64) -> Self {
        Self::from_oracle(ForbiddenSetOracle::new(g, epsilon))
    }

    /// Wraps an existing oracle — notably one warm-started from a label
    /// store via [`ForbiddenSetOracle::open`], so a network can begin
    /// serving without rebuilding any labels. Routing tables are still
    /// derived on demand from the (store-decoded or freshly built) labels.
    pub fn from_oracle(oracle: ForbiddenSetOracle) -> Self {
        let n = oracle.labeling().graph().num_vertices();
        Network {
            oracle,
            tables: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The oracle (decoder side) used to compute headers.
    pub fn oracle(&self) -> &ForbiddenSetOracle {
        &self.oracle
    }

    /// The labeling underlying this network.
    pub fn labeling(&self) -> &Labeling {
        self.oracle.labeling()
    }

    /// Returns (materializing and memoizing) the routing table of `v`.
    ///
    /// Thread-safe: the table is built at most once; later calls are
    /// lock-free pointer clones.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn table(&self, v: NodeId) -> Arc<RoutingTable> {
        self.tables[v.index()]
            .get_or_init(|| {
                let scheme = RoutingScheme::new(self.oracle.labeling());
                Arc::new(scheme.table_of(v))
            })
            .clone()
    }

    /// One forwarding step: the neighbour of `at` behind the port its
    /// table names toward `waypoint`. Callers apply their own fault check
    /// to the step.
    pub(crate) fn next_hop(&self, at: NodeId, waypoint: NodeId) -> Result<NodeId, RouteFailure> {
        let port = self
            .table(at)
            .port_toward(waypoint)
            .ok_or(RouteFailure::MissingTableEntry { at, waypoint })?;
        let port = port as usize;
        let g = self.oracle.labeling().graph();
        g.neighbor_at_port(at, port)
            .ok_or(RouteFailure::InvalidPort { at, port })
    }

    /// Routes a packet from `s` to `t` under forbidden set `F`.
    ///
    /// # Errors
    ///
    /// Returns a [`RouteFailure`] when delivery is impossible (disconnected,
    /// forbidden endpoint) or — which the test-suite asserts never happens —
    /// when a scheme invariant is violated.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn route(&self, s: NodeId, t: NodeId, faults: &FaultSet) -> Result<Delivery, RouteFailure> {
        let g = self.oracle.labeling().graph();
        assert!(g.contains(s) && g.contains(t), "endpoint out of range");
        if faults.is_vertex_faulty(s) || faults.is_vertex_faulty(t) {
            return Err(RouteFailure::ForbiddenEndpoint);
        }
        // Header computation: the source queries the decoder with the labels
        // of s, t, F (exactly the information the model grants it).
        let answer = self.oracle.query(s, t, faults);
        if answer.distance.is_infinite() {
            return Err(RouteFailure::Unreachable);
        }
        let header = answer.path.clone();
        let n = g.num_vertices();
        let header_bits = header.len() * ceil_log2(n).max(1) as usize;

        let mut path = vec![s];
        let mut cur = s;
        for &waypoint in header.iter().skip(1) {
            while cur != waypoint {
                let next = self.next_hop(cur, waypoint)?;
                if faults.blocks_traversal(cur, next) {
                    return Err(RouteFailure::TraversedFault {
                        from: cur,
                        to: next,
                    });
                }
                path.push(next);
                cur = next;
            }
        }
        debug_assert_eq!(cur, t, "header must end at the destination");
        Ok(Delivery {
            hops: path.len() - 1,
            path,
            header,
            header_bits,
        })
    }
}

impl Network {
    /// The paper's fast-recovery scenario: routers learn about failures
    /// lazily. The source computes a header knowing only `known` (a subset
    /// of the real failures `ground_truth`); whenever a forwarding step
    /// would traverse an element of `ground_truth` the current router
    /// *discovers* it (probing the neighbour), adds it to its local
    /// forbidden set, recomputes the header from labels — no global route
    /// maintenance — and forwarding continues. The packet is dropped only
    /// if `t` is genuinely unreachable in `G ∖ ground_truth`.
    ///
    /// Returns the realized walk; `Err` mirrors [`Network::route`]:
    /// `Unreachable` when no surviving path exists (possibly discovered
    /// mid-route), `ForbiddenEndpoint` for failed endpoints, and
    /// [`RouteFailure::NoProgress`] when discovery stops learning new
    /// faults (a scheme-invariant violation, surfaced as a typed error
    /// rather than a panic).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn route_adaptive(
        &self,
        s: NodeId,
        t: NodeId,
        known: &FaultSet,
        ground_truth: &FaultSet,
    ) -> Result<AdaptiveDelivery, RouteFailure> {
        let g = self.oracle.labeling().graph();
        assert!(g.contains(s) && g.contains(t), "endpoint out of range");
        if ground_truth.is_vertex_faulty(s) || ground_truth.is_vertex_faulty(t) {
            return Err(RouteFailure::ForbiddenEndpoint);
        }
        let mut known = known.clone();
        let mut path = vec![s];
        let mut cur = s;
        let mut reroutes = 0usize;
        let mut discovered = 0usize;
        // |F| + 1 header computations suffice: each reroute is triggered by
        // discovering at least one new fault.
        let max_reroutes = ground_truth.len() + 2;
        'replan: loop {
            let answer = self.oracle.query(cur, t, &known);
            if answer.distance.is_infinite() {
                return Err(RouteFailure::Unreachable);
            }
            for &waypoint in answer.path.iter().skip(1) {
                while cur != waypoint {
                    let next = self.next_hop(cur, waypoint)?;
                    if ground_truth.blocks_traversal(cur, next) {
                        // Discover what blocked us and replan from here.
                        let mut learned = false;
                        if ground_truth.is_vertex_faulty(next) && !known.is_vertex_faulty(next) {
                            known.forbid_vertex(next);
                            learned = true;
                        }
                        if ground_truth.is_edge_faulty(cur, next)
                            && !known.is_edge_faulty(cur, next)
                        {
                            known.forbid_edge_unchecked(cur, next);
                            learned = true;
                        }
                        if !learned {
                            // Forwarding into a fault that was already known:
                            // replanning would repeat the same step forever.
                            return Err(RouteFailure::NoProgress { at: cur, reroutes });
                        }
                        discovered += 1;
                        reroutes += 1;
                        if reroutes > max_reroutes {
                            return Err(RouteFailure::NoProgress { at: cur, reroutes });
                        }
                        continue 'replan;
                    }
                    path.push(next);
                    cur = next;
                }
            }
            debug_assert_eq!(cur, t, "header must end at the destination");
            return Ok(AdaptiveDelivery {
                hops: path.len() - 1,
                path,
                reroutes,
                discovered,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::{bfs, generators};

    fn assert_route_ok(net: &Network, g: &Graph, s: u32, t: u32, f: &FaultSet, eps: f64) {
        let s = NodeId::new(s);
        let t = NodeId::new(t);
        let truth = bfs::pair_distance_avoiding(g, s, t, f);
        match net.route(s, t, f) {
            Ok(d) => {
                let td = truth.finite().expect("route succeeded but truth infinite");
                assert_eq!(d.path.first(), Some(&s));
                assert_eq!(d.path.last(), Some(&t));
                // Every hop is a real edge, fault-free.
                for w in d.path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                    assert!(!f.blocks_traversal(w[0], w[1]));
                }
                if td > 0 {
                    let stretch = d.hops as f64 / f64::from(td);
                    assert!(
                        stretch <= 1.0 + eps + 1e-9,
                        "routing stretch {stretch} for {s}->{t}"
                    );
                }
            }
            Err(RouteFailure::Unreachable) => {
                assert!(truth.is_infinite(), "spurious unreachable {s}->{t}");
            }
            Err(e) => panic!("routing invariant violated: {e}"),
        }
    }

    #[test]
    fn cycle_with_fault_routes_around() {
        let g = generators::cycle(20);
        let net = Network::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(2)]);
        for s in 0..20u32 {
            for t in 0..20u32 {
                if s == 2 || t == 2 {
                    continue;
                }
                assert_route_ok(&net, &g, s, t, &f, 1.0);
            }
        }
    }

    #[test]
    fn grid_with_wall_routes_through_gap() {
        let w = 7usize;
        let g = generators::grid2d(w, 7);
        let net = Network::new(&g, 1.0);
        let mut f = FaultSet::empty();
        for y in 1..7u32 {
            f.forbid_vertex(NodeId::new(y * w as u32 + 3));
        }
        for s in [0u32, 21, 42] {
            for t in [6u32, 27, 48] {
                assert_route_ok(&net, &g, s, t, &f, 1.0);
            }
        }
    }

    #[test]
    fn failure_free_routing_is_near_shortest() {
        let g = generators::grid2d(6, 6);
        let net = Network::new(&g, 0.5);
        let f = FaultSet::empty();
        for s in (0..36u32).step_by(5) {
            for t in (0..36u32).step_by(7) {
                assert_route_ok(&net, &g, s, t, &f, 0.5);
            }
        }
    }

    #[test]
    fn edge_fault_routing() {
        let g = generators::cycle(16);
        let net = Network::new(&g, 1.0);
        let f = FaultSet::from_edges(&g, [(NodeId::new(0), NodeId::new(1))]);
        let d = net.route(NodeId::new(0), NodeId::new(1), &f).unwrap();
        assert_eq!(d.hops, 15);
    }

    #[test]
    fn forbidden_endpoint_rejected() {
        let g = generators::path(6);
        let net = Network::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(0)]);
        assert_eq!(
            net.route(NodeId::new(0), NodeId::new(3), &f),
            Err(RouteFailure::ForbiddenEndpoint)
        );
    }

    #[test]
    fn unreachable_reported() {
        let g = generators::path(7);
        let net = Network::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(3)]);
        assert_eq!(
            net.route(NodeId::new(0), NodeId::new(6), &f),
            Err(RouteFailure::Unreachable)
        );
    }

    #[test]
    fn self_route_is_trivial() {
        let g = generators::grid2d(4, 4);
        let net = Network::new(&g, 1.0);
        let d = net
            .route(NodeId::new(5), NodeId::new(5), &FaultSet::empty())
            .unwrap();
        assert_eq!(d.hops, 0);
        assert_eq!(d.path, vec![NodeId::new(5)]);
    }

    #[test]
    fn header_bits_accounting() {
        let g = generators::cycle(32);
        let net = Network::new(&g, 1.0);
        let d = net
            .route(NodeId::new(0), NodeId::new(16), &FaultSet::empty())
            .unwrap();
        assert_eq!(d.header_bits, d.header.len() * 5);
    }

    #[test]
    fn adaptive_routing_discovers_and_delivers() {
        let g = generators::cycle(24);
        let net = Network::new(&g, 1.0);
        // The source knows nothing; v2 has actually failed.
        let truth = FaultSet::from_vertices([NodeId::new(2)]);
        let d = net
            .route_adaptive(NodeId::new(0), NodeId::new(5), &FaultSet::empty(), &truth)
            .unwrap();
        assert_eq!(d.path.last(), Some(&NodeId::new(5)));
        assert_eq!(d.reroutes, 1);
        assert_eq!(d.discovered, 1);
        // The walk headed toward v2, bounced at v1, and went the long way:
        // strictly more hops than the omniscient route (21), but delivered.
        assert!(d.hops >= 21);
        for w in d.path.windows(2) {
            assert!(!truth.blocks_traversal(w[0], w[1]));
        }
    }

    #[test]
    fn adaptive_routing_with_full_knowledge_matches_plain() {
        let g = generators::grid2d(6, 6);
        let net = Network::new(&g, 1.0);
        let truth = FaultSet::from_vertices([NodeId::new(14), NodeId::new(21)]);
        let plain = net.route(NodeId::new(0), NodeId::new(35), &truth).unwrap();
        let adaptive = net
            .route_adaptive(NodeId::new(0), NodeId::new(35), &truth, &truth)
            .unwrap();
        assert_eq!(adaptive.reroutes, 0);
        assert_eq!(adaptive.hops, plain.hops);
        assert_eq!(adaptive.path, plain.path);
    }

    #[test]
    fn adaptive_routing_detects_disconnection_late() {
        let g = generators::path(10);
        let net = Network::new(&g, 1.0);
        let truth = FaultSet::from_vertices([NodeId::new(5)]);
        // Unknown wall: the packet walks toward it, discovers it, and only
        // then learns t is unreachable.
        assert_eq!(
            net.route_adaptive(NodeId::new(0), NodeId::new(9), &FaultSet::empty(), &truth),
            Err(RouteFailure::Unreachable)
        );
    }

    #[test]
    fn adaptive_routing_edge_fault_discovery() {
        let g = generators::cycle(16);
        let net = Network::new(&g, 1.0);
        let truth = FaultSet::from_edges(&g, [(NodeId::new(3), NodeId::new(4))]);
        let d = net
            .route_adaptive(NodeId::new(0), NodeId::new(8), &FaultSet::empty(), &truth)
            .unwrap();
        assert_eq!(d.discovered, 1);
        for w in d.path.windows(2) {
            assert!(!truth.is_edge_faulty(w[0], w[1]));
        }
    }

    #[test]
    fn adaptive_forbidden_endpoint() {
        let g = generators::path(5);
        let net = Network::new(&g, 1.0);
        let truth = FaultSet::from_vertices([NodeId::new(4)]);
        assert_eq!(
            net.route_adaptive(NodeId::new(0), NodeId::new(4), &FaultSet::empty(), &truth),
            Err(RouteFailure::ForbiddenEndpoint)
        );
    }

    #[test]
    fn tables_are_memoized() {
        let g = generators::path(10);
        let net = Network::new(&g, 1.0);
        let a = net.table(NodeId::new(4));
        let b = net.table(NodeId::new(4));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn network_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
    }

    #[test]
    fn concurrent_routing_matches_sequential() {
        let g = generators::grid2d(5, 5);
        let net = Network::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(12)]);
        let pairs: Vec<(u32, u32)> = (0..25u32).step_by(3).map(|s| (s, 24 - s)).collect();
        let sequential: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| net.route(NodeId::new(s), NodeId::new(t), &f))
            .collect();
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(s, t)| {
                    let net = &net;
                    let f = &f;
                    scope.spawn(move || net.route(NodeId::new(s), NodeId::new(t), f))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(concurrent, sequential);
    }
}
