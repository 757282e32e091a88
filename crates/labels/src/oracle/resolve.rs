//! The query front-end: `(s, t, F)` in, the labels the decoder reads out.
//!
//! Theorem 2.1 makes `δ(s, t, F)` a function of the `2 + |F|` labels
//! alone, wherever they live. The decoder is one function
//! ([`crate::query_with_scratch`]); this module is the one step in front
//! of it, shared by every holder of labels — [`crate::ForbiddenSetOracle`]
//! (arena or segment), the shard router's gathered-label map, the CLI's
//! trace — so a query is well-formed, or not, by the same rule and in the
//! same words everywhere.
//!
//! ## The rule
//!
//! Checks run in one order and the first failure is the error: `s`, then
//! `t` (every target, in the order given, for a one-to-many query), then
//! the forbidden vertices in ascending id order, then the forbidden edges
//! in ascending `(lo, hi)` order — for each edge `lo` in range, `hi` in
//! range, `{lo, hi}` an edge of `G`. Ascending order makes the error (and
//! the order the labels reach the decoder in) a function of the *set* `F`,
//! not of a [`FaultSet`]'s per-instance iteration order.
//!
//! A fault that fails its check names nothing in `G`, so removing it
//! cannot change `G ∖ F`. [`Malformed::Reject`] (the strict entry points,
//! every network front) answers with the [`OracleError`];
//! [`Malformed::Skip`] (the lenient entry points) is the *same walk* that
//! drops the element and goes on, so its answer is exactly the answer for
//! the well-formed subset of `F`. An out-of-range endpoint is an error
//! under both: there is no query left to answer.
//!
//! What differs between holders is only the [`LabelSource`]: where `L(v)`
//! comes from, and how "`{a, b}` is an edge of `G`" is decided — from the
//! graph where there is one, from the lowest level of `L(a)` (which
//! stores every edge at `a`, see [`crate::LevelLabel::has_real_edge`])
//! where there is not.

use fsdl_graph::{Edge, FaultSet, NodeId};

use crate::decode::QueryLabels;
use crate::label::Label;

/// A malformed query `(s, t, F)`, as every front reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleError {
    /// A referenced vertex (endpoint, target, or fault) is not a vertex of
    /// the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        v: NodeId,
        /// The graph's vertex count.
        n: usize,
    },
    /// A forbidden edge is not an edge of the graph.
    FaultEdgeNotInGraph {
        /// Smaller endpoint.
        a: NodeId,
        /// Larger endpoint.
        b: NodeId,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::VertexOutOfRange { v, n } => {
                write!(f, "{v} is out of range for a graph with {n} vertices")
            }
            OracleError::FaultEdgeNotInGraph { a, b } => {
                write!(f, "forbidden edge ({a}, {b}) is not an edge of the graph")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// The range check every id of a request goes through.
///
/// # Errors
///
/// [`OracleError::VertexOutOfRange`] unless `v` is one of `n` vertices.
pub fn check_vertex(n: usize, v: NodeId) -> Result<(), OracleError> {
    if v.index() < n {
        Ok(())
    } else {
        Err(OracleError::VertexOutOfRange { v, n })
    }
}

/// What the resolver asks of a holder of labels. Only ids that passed
/// [`check_vertex`] are ever handed to it.
pub trait LabelSource {
    /// What stands for `L(v)`: `&Label` for a source that holds labels;
    /// anything else for a pass that only needs the walk (the router
    /// plans its scatter with a source that records the ids asked for).
    type Label;

    /// `L(v)`.
    fn label(&mut self, v: NodeId) -> Self::Label;

    /// Is `{a, b}` an edge of `G`? `label_a` is `L(a)`, for sources that
    /// have no graph to ask.
    fn is_edge(&self, a: NodeId, b: NodeId, label_a: &Self::Label) -> bool;
}

/// What becomes of a fault that names nothing in `G` (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Malformed {
    /// The query is rejected with the element's [`OracleError`].
    Reject,
    /// The element is dropped; the rest of `F` is resolved as usual.
    Skip,
}

/// A resolved query: what stands for `L(s)`, for `L(t)` (one label, or
/// one per target of a one-to-many query) and, in the canonical
/// (ascending id) order, for the labels of the well-formed part of `F`.
#[derive(Clone, Debug)]
pub struct Resolved<L, T = L> {
    /// `L(s)`.
    pub source: L,
    /// `L(t)`.
    pub target: T,
    /// Labels of the forbidden vertices.
    pub fault_vertices: Vec<L>,
    /// Labels of the two endpoints (`lo`, `hi`) of each forbidden edge.
    pub fault_edges: Vec<(L, L)>,
}

impl<'a, T> Resolved<&'a Label, T> {
    /// The decoder's arguments: `L(s)`, `L(t)`, and the labels of `F`.
    pub fn into_labels(self) -> (&'a Label, T, QueryLabels<'a>) {
        let faults = QueryLabels {
            fault_vertices: self.fault_vertices,
            fault_edges: self.fault_edges,
        };
        (self.source, self.target, faults)
    }
}

/// Resolves the query `(s, t, F)` on an `n`-vertex graph against
/// `source`.
///
/// # Errors
///
/// The first failed check, in the module docs' order.
pub fn resolve<S: LabelSource>(
    n: usize,
    source: &mut S,
    s: NodeId,
    t: NodeId,
    faults: &FaultSet,
    on_malformed: Malformed,
) -> Result<Resolved<S::Label>, OracleError> {
    let mut walk = Walk {
        n,
        source,
        on_malformed,
    };
    let (source, target) = (walk.endpoint(s)?, walk.endpoint(t)?);
    walk.faults(source, target, faults)
}

/// [`resolve`] for a one-to-many query `(s, {tᵢ}, F)`.
///
/// # Errors
///
/// The first failed check, in the module docs' order.
pub fn resolve_many<S: LabelSource>(
    n: usize,
    source: &mut S,
    s: NodeId,
    targets: &[NodeId],
    faults: &FaultSet,
    on_malformed: Malformed,
) -> Result<Resolved<S::Label, Vec<S::Label>>, OracleError> {
    let mut walk = Walk {
        n,
        source,
        on_malformed,
    };
    let source = walk.endpoint(s)?;
    let targets = targets.iter().map(|&t| walk.endpoint(t));
    let targets = targets.collect::<Result<_, _>>()?;
    walk.faults(source, targets, faults)
}

/// One pass over a query's ids, in the module docs' order.
struct Walk<'s, S> {
    n: usize,
    source: &'s mut S,
    on_malformed: Malformed,
}

impl<S: LabelSource> Walk<'_, S> {
    fn endpoint(&mut self, v: NodeId) -> Result<S::Label, OracleError> {
        check_vertex(self.n, v)?;
        Ok(self.source.label(v))
    }

    /// The verdict on a fault that failed a check: the error, or "skip".
    fn malformed(&self, e: OracleError) -> Result<(), OracleError> {
        match self.on_malformed {
            Malformed::Reject => Err(e),
            Malformed::Skip => Ok(()),
        }
    }

    /// `L(v)` for a vertex a fault names; `None` when it is skipped.
    fn fault_vertex(&mut self, v: NodeId) -> Result<Option<S::Label>, OracleError> {
        match check_vertex(self.n, v) {
            Ok(()) => Ok(Some(self.source.label(v))),
            Err(e) => self.malformed(e).map(|()| None),
        }
    }

    /// Walks `F`, completing the query whose endpoints resolved to
    /// `source` and `target`.
    fn faults<T>(
        &mut self,
        source: S::Label,
        target: T,
        faults: &FaultSet,
    ) -> Result<Resolved<S::Label, T>, OracleError> {
        let mut vertices: Vec<NodeId> = faults.vertices().collect();
        vertices.sort_unstable();
        let mut edges: Vec<Edge> = faults.edges().collect();
        edges.sort_unstable();
        let mut labels = Resolved {
            source,
            target,
            fault_vertices: Vec::with_capacity(vertices.len()),
            fault_edges: Vec::with_capacity(edges.len()),
        };
        for v in vertices {
            labels.fault_vertices.extend(self.fault_vertex(v)?);
        }
        for e in edges {
            let (a, b) = (e.lo(), e.hi());
            let (Some(la), Some(lb)) = (self.fault_vertex(a)?, self.fault_vertex(b)?) else {
                continue;
            };
            if self.source.is_edge(a, b, &la) {
                labels.fault_edges.push((la, lb));
            } else {
                self.malformed(OracleError::FaultEdgeNotInGraph { a, b })?;
            }
        }
        Ok(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the ids asked for; `{a, b}` is an edge iff `b = a + 1`.
    struct Path(Vec<u32>);

    impl LabelSource for Path {
        type Label = u32;

        fn label(&mut self, v: NodeId) -> u32 {
            self.0.push(v.raw());
            v.raw()
        }

        fn is_edge(&self, a: NodeId, b: NodeId, label_a: &u32) -> bool {
            assert_eq!(*label_a, a.raw());
            b.raw() == a.raw() + 1
        }
    }

    fn faults(vertices: &[u32], edges: &[(u32, u32)]) -> FaultSet {
        let mut f = FaultSet::from_vertices(vertices.iter().map(|&v| NodeId::new(v)));
        for &(a, b) in edges {
            f.forbid_edge_unchecked(NodeId::new(a), NodeId::new(b));
        }
        f
    }

    fn run(
        s: u32,
        t: u32,
        f: &FaultSet,
        on_malformed: Malformed,
    ) -> Result<Resolved<u32>, OracleError> {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        resolve(10, &mut Path(Vec::new()), s, t, f, on_malformed)
    }

    #[test]
    fn labels_come_out_in_ascending_order_whatever_the_insertion_order() {
        let f = faults(&[7, 2, 5], &[(4, 3), (0, 1)]);
        let resolved = run(9, 8, &f, Malformed::Reject).unwrap();
        assert_eq!((resolved.source, resolved.target), (9, 8));
        assert_eq!(resolved.fault_vertices, vec![2, 5, 7]);
        assert_eq!(resolved.fault_edges, vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn the_first_failed_check_is_the_error() {
        let oor = |v: u32| OracleError::VertexOutOfRange {
            v: NodeId::new(v),
            n: 10,
        };
        // s before t before F; fault vertices ascending, before edges;
        // per edge lo, hi, then the edge itself.
        let f = faults(&[30, 20], &[(0, 5), (2, 40)]);
        assert_eq!(run(50, 60, &f, Malformed::Reject).unwrap_err(), oor(50));
        assert_eq!(run(0, 60, &f, Malformed::Reject).unwrap_err(), oor(60));
        assert_eq!(run(0, 1, &f, Malformed::Reject).unwrap_err(), oor(20));
        let f = faults(&[], &[(2, 40), (0, 5)]);
        assert_eq!(
            run(0, 1, &f, Malformed::Reject).unwrap_err(),
            OracleError::FaultEdgeNotInGraph {
                a: NodeId::new(0),
                b: NodeId::new(5)
            }
        );
        let f = faults(&[], &[(2, 40), (0, 1)]);
        assert_eq!(run(0, 1, &f, Malformed::Reject).unwrap_err(), oor(40));
    }

    #[test]
    fn skip_is_the_same_walk_minus_the_malformed_elements() {
        let f = faults(&[30, 4], &[(0, 5), (2, 40), (6, 7)]);
        let resolved = run(0, 1, &f, Malformed::Skip).unwrap();
        assert_eq!(resolved.fault_vertices, vec![4]);
        assert_eq!(resolved.fault_edges, vec![(6, 7)]);
        // An out-of-range endpoint leaves no query to answer.
        assert!(run(0, 10, &f, Malformed::Skip).is_err());
    }

    #[test]
    fn one_to_many_checks_targets_in_the_order_given_and_asks_once_per_id() {
        let mut source = Path(Vec::new());
        let ids = |raw: &[u32]| raw.iter().map(|&v| NodeId::new(v)).collect::<Vec<_>>();
        let f = faults(&[3], &[]);
        let resolved = resolve_many(
            10,
            &mut source,
            NodeId::new(1),
            &ids(&[8, 2]),
            &f,
            Malformed::Reject,
        )
        .unwrap();
        assert_eq!((resolved.source, resolved.target), (1, vec![8, 2]));
        assert_eq!(resolved.fault_vertices, vec![3]);
        assert_eq!(source.0, vec![1, 8, 2, 3]);
        let err = resolve_many(
            10,
            &mut source,
            NodeId::new(1),
            &ids(&[12, 11]),
            &faults(&[99], &[]),
            Malformed::Reject,
        )
        .unwrap_err();
        assert_eq!(
            err,
            OracleError::VertexOutOfRange {
                v: NodeId::new(12),
                n: 10
            }
        );
    }
}
