//! A small mutable weighted graph with Dijkstra — the "sketch graph" `H`
//! that the decoder assembles from labels at query time.
//!
//! The sketch graph's vertex universe is tiny (`O((1+1/ε)^{2α}·|F| log n)`
//! vertices), so it uses an adjacency list keyed by dense interned indices,
//! with the interning map from [`NodeId`]s maintained by the caller-facing
//! API.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::NodeId;
use crate::intern::Interner;

/// Multiply-xor hasher for the `u64` edge keys of the dedup index: the
/// keys are already well-mixed pairs of dense indices, so a single
/// multiply beats SipHash on the per-edge hot path. Not
/// collision-resistant against adversaries — fine for a dedup cache whose
/// collisions only cost probes, never correctness.
#[derive(Default)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type EdgeIndex = HashMap<u64, (u32, u32), BuildHasherDefault<EdgeKeyHasher>>;

/// A mutable, weighted, undirected multigraph over interned [`NodeId`]s.
///
/// Parallel edges are collapsed to the minimum weight. Weights are `u64`
/// (virtual-edge weights are `d_G` distances, far below `u64::MAX`).
///
/// # Examples
///
/// ```
/// use fsdl_graph::{SketchGraph, NodeId};
///
/// let mut h = SketchGraph::new();
/// h.add_edge(NodeId::new(0), NodeId::new(5), 3);
/// h.add_edge(NodeId::new(5), NodeId::new(9), 4);
/// h.add_edge(NodeId::new(0), NodeId::new(5), 10); // worse parallel edge
/// assert_eq!(h.shortest_distance(NodeId::new(0), NodeId::new(9)), Some(7));
/// assert_eq!(h.shortest_distance(NodeId::new(0), NodeId::new(77)), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SketchGraph {
    ids: Interner,
    /// Dedup index: canonical edge key → positions of the two directed
    /// copies in `adj`, replacing a linear adjacency scan per insertion.
    edge_slots: EdgeIndex,
    /// Adjacency rows by dense index.
    adj: Vec<Vec<(u32, u64)>>,
}

impl SketchGraph {
    /// Creates an empty sketch graph.
    pub fn new() -> Self {
        SketchGraph::default()
    }

    /// Interns `v`, returning its dense index; inserts it if new.
    pub fn intern(&mut self, v: NodeId) -> u32 {
        let idx = self.ids.intern(v);
        if self.adj.len() < self.ids.len() {
            self.adj.push(Vec::new());
        }
        idx
    }

    /// Returns the dense index of `v` if it has been interned.
    pub fn index_of(&self, v: NodeId) -> Option<u32> {
        self.ids.index_of(v)
    }

    /// Number of interned vertices.
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of (deduplicated) undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Returns `true` if `v` has been interned.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index_of(v).is_some()
    }

    /// Adds the undirected edge `{a, b}` with the given weight. Parallel
    /// edges keep the smaller weight. Self-loops are ignored.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: u64) {
        if a == b {
            return;
        }
        let ia = self.intern(a);
        let ib = self.intern(b);
        let (lo, hi) = if ia <= ib { (ia, ib) } else { (ib, ia) };
        let key = (u64::from(lo) << 32) | u64::from(hi);
        match self.edge_slots.entry(key) {
            // Collapse parallel edges to the min weight, updating both
            // directed copies in place so adjacency order is unchanged.
            Entry::Occupied(e) => {
                let (pos_lo, pos_hi) = *e.get();
                let slot = &mut self.adj[lo as usize][pos_lo as usize].1;
                if *slot <= weight {
                    return;
                }
                *slot = weight;
                self.adj[hi as usize][pos_hi as usize].1 = weight;
            }
            Entry::Vacant(e) => {
                e.insert((
                    self.adj[lo as usize].len() as u32,
                    self.adj[hi as usize].len() as u32,
                ));
                self.adj[ia as usize].push((ib, weight));
                self.adj[ib as usize].push((ia, weight));
            }
        }
    }

    /// Single-pair Dijkstra; returns the shortest-path weight or `None` when
    /// `t` is unreachable or either endpoint was never interned.
    pub fn shortest_distance(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.shortest_path(s, t).map(|(d, _)| d)
    }

    /// Single-pair Dijkstra returning `(distance, path)` where `path` is the
    /// sequence of original [`NodeId`]s from `s` to `t` inclusive.
    ///
    /// Deterministic: ties are broken by smaller dense index, which follows
    /// insertion order.
    pub fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<(u64, Vec<NodeId>)> {
        let is = self.index_of(s)?;
        let it = self.index_of(t)?;
        let (dist, prev) = self.dijkstra(is, Some(it));
        if dist[it as usize] == u64::MAX {
            return None;
        }
        let mut path = vec![self.ids.name(it)];
        let mut cur = it;
        while cur != is {
            cur = prev[cur as usize];
            path.push(self.ids.name(cur));
        }
        path.reverse();
        Some((dist[it as usize], path))
    }

    /// Dijkstra from dense index `is`, stopping once `target` is settled;
    /// returns `(dist, prev)` by dense index (`u64::MAX` for unreached).
    fn dijkstra(&self, is: u32, target: Option<u32>) -> (Vec<u64>, Vec<u32>) {
        let mut dist = vec![u64::MAX; self.ids.len()];
        let mut prev = vec![u32::MAX; self.ids.len()];
        let mut heap = BinaryHeap::new();
        dist[is as usize] = 0;
        heap.push(Reverse((0, is)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if Some(u) == target {
                break;
            }
            for &(w, weight) in &self.adj[u as usize] {
                let nd = d.saturating_add(weight);
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    prev[w as usize] = u;
                    heap.push(Reverse((nd, w)));
                }
            }
        }
        (dist, prev)
    }

    /// Single-source Dijkstra: the distance from `s` to every interned
    /// vertex (`u64::MAX` for unreachable), indexed by dense intern index,
    /// or `None` if `s` was never interned. Use [`SketchGraph::index_of`]
    /// to address the result.
    pub fn distances_from(&self, s: NodeId) -> Option<Vec<u64>> {
        let is = self.index_of(s)?;
        Some(self.dijkstra(is, None).0)
    }

    /// Iterates over all edges as `(a, b, weight)` with each undirected edge
    /// reported once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.adj.iter().enumerate().flat_map(move |(i, nbrs)| {
            nbrs.iter()
                .filter(move |&&(j, _)| j as usize > i)
                .map(move |&(j, w)| (self.ids.name(i as u32), self.ids.name(j), w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph_queries() {
        let h = SketchGraph::new();
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.shortest_distance(v(0), v(1)), None);
    }

    #[test]
    fn single_vertex() {
        let mut h = SketchGraph::new();
        h.intern(v(3));
        assert_eq!(h.shortest_distance(v(3), v(3)), Some(0));
    }

    #[test]
    fn parallel_edges_keep_min() {
        let mut h = SketchGraph::new();
        h.add_edge(v(0), v(1), 9);
        h.add_edge(v(1), v(0), 4);
        h.add_edge(v(0), v(1), 7);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(h.shortest_distance(v(0), v(1)), Some(4));
    }

    #[test]
    fn self_loops_ignored() {
        let mut h = SketchGraph::new();
        h.add_edge(v(2), v(2), 1);
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn dijkstra_picks_light_path() {
        let mut h = SketchGraph::new();
        h.add_edge(v(0), v(1), 1);
        h.add_edge(v(1), v(2), 1);
        h.add_edge(v(0), v(2), 5);
        let (d, path) = h.shortest_path(v(0), v(2)).unwrap();
        assert_eq!(d, 2);
        assert_eq!(path, vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut h = SketchGraph::new();
        h.add_edge(v(0), v(1), 1);
        h.add_edge(v(5), v(6), 1);
        assert_eq!(h.shortest_distance(v(0), v(6)), None);
    }

    #[test]
    fn path_endpoints_inclusive() {
        let mut h = SketchGraph::new();
        h.add_edge(v(10), v(20), 3);
        let (d, path) = h.shortest_path(v(10), v(20)).unwrap();
        assert_eq!(d, 3);
        assert_eq!(path.first(), Some(&v(10)));
        assert_eq!(path.last(), Some(&v(20)));
    }

    #[test]
    fn edges_iterator() {
        let mut h = SketchGraph::new();
        h.add_edge(v(0), v(1), 2);
        h.add_edge(v(1), v(2), 3);
        let mut edges: Vec<_> = h.edges().collect();
        edges.sort();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (v(0), v(1), 2));
    }

    #[test]
    fn distances_from_matches_pairwise() {
        let mut h = SketchGraph::new();
        h.add_edge(v(0), v(1), 2);
        h.add_edge(v(1), v(2), 3);
        h.add_edge(v(0), v(2), 10);
        h.intern(v(9)); // isolated
        let d = h.distances_from(v(0)).unwrap();
        for target in [v(0), v(1), v(2), v(9)] {
            let idx = h.index_of(target).unwrap() as usize;
            let pair = h.shortest_distance(v(0), target);
            match pair {
                Some(p) => assert_eq!(d[idx], p),
                None => assert_eq!(d[idx], u64::MAX),
            }
        }
        assert!(h.distances_from(v(42)).is_none());
    }

    #[test]
    fn large_random_dijkstra_matches_bfs_on_unit_weights() {
        // With all weights 1, Dijkstra must agree with BFS hop counts.
        use crate::{bfs, generators};
        let g = generators::grid2d(7, 7);
        let mut h = SketchGraph::new();
        for e in g.edges() {
            h.add_edge(e.lo(), e.hi(), 1);
        }
        let d = bfs::distances(&g, v(0));
        for t in g.vertices() {
            assert_eq!(
                h.shortest_distance(v(0), t),
                Some(d[t.index()].raw() as u64)
            );
        }
    }
}
