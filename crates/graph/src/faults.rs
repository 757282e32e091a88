//! Forbidden (faulty) sets of vertices and edges.
//!
//! A forbidden set `F ⊂ V(G) ∪ E(G)` is the query-time input shared by every
//! component of the system: the exact baseline computes `d_{G∖F}` by BFS, the
//! labeling scheme's decoder receives the labels of the elements of `F`, and
//! the routing simulator refuses to traverse anything in `F`.

use std::collections::HashSet;

use crate::csr::Graph;
use crate::ids::{Edge, NodeId};

/// A set of forbidden vertices and edges.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, FaultSet, NodeId};
///
/// let g = generators::cycle(5);
/// let mut f = FaultSet::empty();
/// f.forbid_vertex(NodeId::new(2));
/// f.forbid_edge_unchecked(NodeId::new(0), NodeId::new(1));
/// assert!(f.is_vertex_faulty(NodeId::new(2)));
/// assert!(f.is_edge_faulty(NodeId::new(1), NodeId::new(0)));
/// assert_eq!(f.len(), 2);
/// # let _ = g;
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    vertices: HashSet<NodeId>,
    edges: HashSet<Edge>,
}

impl FaultSet {
    /// The empty forbidden set (failure-free queries).
    pub fn empty() -> Self {
        FaultSet::default()
    }

    /// Builds a vertex-only forbidden set.
    pub fn from_vertices<I: IntoIterator<Item = NodeId>>(vertices: I) -> Self {
        FaultSet {
            vertices: vertices.into_iter().collect(),
            edges: HashSet::new(),
        }
    }

    /// Builds an edge-only forbidden set, validating each edge against `g`.
    ///
    /// # Panics
    ///
    /// Panics if some pair is not an edge of `g`; use
    /// [`FaultSet::forbid_edge_unchecked`] to skip validation.
    pub fn from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(g: &Graph, edges: I) -> Self {
        let mut f = FaultSet::empty();
        for (a, b) in edges {
            assert!(g.has_edge(a, b), "({a}, {b}) is not an edge of the graph");
            f.forbid_edge_unchecked(a, b);
        }
        f
    }

    /// Marks a vertex as forbidden. Returns `true` if it was newly inserted.
    pub fn forbid_vertex(&mut self, v: NodeId) -> bool {
        self.vertices.insert(v)
    }

    /// Marks an edge as forbidden without checking it exists in any graph.
    /// Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn forbid_edge_unchecked(&mut self, a: NodeId, b: NodeId) -> bool {
        self.edges.insert(Edge::new(a, b))
    }

    /// Un-forbids a vertex (e.g., a recovered router). Returns `true` if it
    /// was present.
    pub fn permit_vertex(&mut self, v: NodeId) -> bool {
        self.vertices.remove(&v)
    }

    /// Un-forbids an edge. Returns `true` if it was present.
    pub fn permit_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.edges.remove(&Edge::new(a, b))
    }

    /// Is `v` forbidden?
    #[inline]
    pub fn is_vertex_faulty(&self, v: NodeId) -> bool {
        self.vertices.contains(&v)
    }

    /// Is the edge `{a, b}` forbidden (as an *edge* fault; faulty endpoints
    /// are reported by [`FaultSet::is_vertex_faulty`])?
    #[inline]
    pub fn is_edge_faulty(&self, a: NodeId, b: NodeId) -> bool {
        !self.edges.is_empty() && self.edges.contains(&Edge::new(a, b))
    }

    /// Returns `true` if traversing edge `{a, b}` is blocked for any reason:
    /// the edge itself, or either endpoint, is forbidden.
    pub fn blocks_traversal(&self, a: NodeId, b: NodeId) -> bool {
        self.is_vertex_faulty(a) || self.is_vertex_faulty(b) || self.is_edge_faulty(a, b)
    }

    /// Number of forbidden elements `|F|` (vertices plus edges).
    pub fn len(&self) -> usize {
        self.vertices.len() + self.edges.len()
    }

    /// `true` when nothing is forbidden.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Iterates over the forbidden vertices (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.vertices.iter().copied()
    }

    /// Iterates over the forbidden edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }
}

impl Extend<NodeId> for FaultSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        self.vertices.extend(iter);
    }
}

impl FromIterator<NodeId> for FaultSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        FaultSet::from_vertices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn empty_set() {
        let f = FaultSet::empty();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(!f.is_vertex_faulty(NodeId::new(0)));
        assert!(!f.is_edge_faulty(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn vertex_faults() {
        let mut f = FaultSet::from_vertices([NodeId::new(1), NodeId::new(2)]);
        assert_eq!(f.len(), 2);
        assert!(f.is_vertex_faulty(NodeId::new(1)));
        assert!(f.permit_vertex(NodeId::new(1)));
        assert!(!f.is_vertex_faulty(NodeId::new(1)));
        assert!(!f.permit_vertex(NodeId::new(1)));
    }

    #[test]
    fn edge_faults_canonical() {
        let g = generators::path(3);
        let f = FaultSet::from_edges(&g, [(NodeId::new(1), NodeId::new(0))]);
        assert!(f.is_edge_faulty(NodeId::new(0), NodeId::new(1)));
        assert!(f.is_edge_faulty(NodeId::new(1), NodeId::new(0)));
        assert!(!f.is_edge_faulty(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn from_edges_validates() {
        let g = generators::path(3);
        let _ = FaultSet::from_edges(&g, [(NodeId::new(0), NodeId::new(2))]);
    }

    #[test]
    fn blocks_traversal_combines() {
        let mut f = FaultSet::empty();
        f.forbid_vertex(NodeId::new(5));
        f.forbid_edge_unchecked(NodeId::new(1), NodeId::new(2));
        assert!(f.blocks_traversal(NodeId::new(5), NodeId::new(6)));
        assert!(f.blocks_traversal(NodeId::new(2), NodeId::new(1)));
        assert!(!f.blocks_traversal(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn duplicate_inserts() {
        let mut f = FaultSet::empty();
        assert!(f.forbid_vertex(NodeId::new(1)));
        assert!(!f.forbid_vertex(NodeId::new(1)));
        assert!(f.forbid_edge_unchecked(NodeId::new(1), NodeId::new(2)));
        assert!(!f.forbid_edge_unchecked(NodeId::new(2), NodeId::new(1)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn iterators_and_collect() {
        let f: FaultSet = [NodeId::new(3), NodeId::new(7)].into_iter().collect();
        let mut vs: Vec<u32> = f.vertices().map(NodeId::raw).collect();
        vs.sort_unstable();
        assert_eq!(vs, vec![3, 7]);
        assert_eq!(f.edges().count(), 0);
        let mut f2 = FaultSet::empty();
        f2.extend([NodeId::new(1)]);
        assert!(f2.is_vertex_faulty(NodeId::new(1)));
    }
}
