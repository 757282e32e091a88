//! The lower-bound graph family `F_{n,α}` of Theorem 3.1.
//!
//! For even `d ≥ 2` and `p ≥ 2`, the family consists of every graph `G'`
//! with `H_{p,d} ⊆ G' ⊆ G_{p,d}`, where `G_{p,d}` is the `d`-dimensional
//! `ℓ∞` grid and `H_{p,d}` keeps only the `ℓ∞`-edges with `ℓ₁`-offset
//! `≤ d/2`. Every member has `n = p^d` vertices and doubling dimension
//! `≤ α = 2d` (because `H` is a 2-spanner of `G`), and the family has
//! `2^{|E(G)|−|E(H)|} = 2^{Ω(2^{α/2} n)}` members — which forces
//! `Ω(2^{α/2})`-bit labels for forbidden-set connectivity.

use fsdl_graph::rng::Rng;
use fsdl_graph::{generators, Graph, GraphBuilder, NodeId};

/// The lower-bound family `F_{n,α}` with parameters `(p, d)`.
///
/// # Examples
///
/// ```
/// use fsdl_bounds::LowerBoundFamily;
///
/// let fam = LowerBoundFamily::new(3, 4);
/// assert_eq!(fam.num_vertices(), 81);
/// assert_eq!(fam.alpha(), 8); // alpha = 2d
/// assert!(fam.log2_size() > 0);
/// let member = fam.random_member(42);
/// assert!(fam.contains(&member));
/// ```
#[derive(Clone, Debug)]
pub struct LowerBoundFamily {
    p: usize,
    d: usize,
    full: Graph,
    spanner: Graph,
    /// Edges of `G ∖ H`, each independently present/absent in a member.
    free_edges: Vec<(NodeId, NodeId)>,
}

impl LowerBoundFamily {
    /// Creates the family for side `p` and (even) dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 2`, `d < 2`, or `d` is odd (the paper's construction
    /// requires even `d`).
    pub fn new(p: usize, d: usize) -> Self {
        assert!(p >= 2, "grid side must be at least 2");
        assert!(
            d >= 2 && d.is_multiple_of(2),
            "dimension must be even and >= 2"
        );
        let full = generators::grid_linf(p, d);
        let spanner = generators::half_grid(p, d);
        let free_edges: Vec<(NodeId, NodeId)> = full
            .edges()
            .filter(|e| !spanner.has_edge(e.lo(), e.hi()))
            .map(|e| (e.lo(), e.hi()))
            .collect();
        LowerBoundFamily {
            p,
            d,
            full,
            spanner,
            free_edges,
        }
    }

    /// Grid side `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Grid dimension `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The doubling-dimension bound `α = 2d` the paper assigns to the
    /// family.
    pub fn alpha(&self) -> usize {
        2 * self.d
    }

    /// `n = p^d`.
    pub fn num_vertices(&self) -> usize {
        self.full.num_vertices()
    }

    /// The supergraph `G_{p,d}`.
    pub fn full_graph(&self) -> &Graph {
        &self.full
    }

    /// The spanner `H_{p,d}` contained in every member.
    pub fn spanner(&self) -> &Graph {
        &self.spanner
    }

    /// The free edges `E(G) ∖ E(H)` (each member independently keeps an
    /// arbitrary subset).
    pub fn free_edges(&self) -> &[(NodeId, NodeId)] {
        &self.free_edges
    }

    /// `log₂ |F_{n,α}| = |E(G)| − |E(H)|`: the information content of the
    /// family in bits.
    pub fn log2_size(&self) -> usize {
        self.free_edges.len()
    }

    /// The paper's per-label lower bound `⌈log₂|F|⌉ / n` in bits: at least
    /// one label of any forbidden-set connectivity scheme for the family
    /// must be this long.
    pub fn per_label_lower_bound_bits(&self) -> f64 {
        self.log2_size() as f64 / self.num_vertices() as f64
    }

    /// Samples a uniform member: `H` plus an independent coin per free edge.
    pub fn random_member(&self, seed: u64) -> Graph {
        let mut rng = Rng::seed_from_u64(seed);
        self.member_from_bits(|_| rng.gen_bool(0.5))
    }

    /// Builds the member selected by a predicate over free-edge indices
    /// (the "codeword → graph" map of the counting argument).
    pub fn member_from_bits<F: FnMut(usize) -> bool>(&self, mut keep: F) -> Graph {
        let mut b = GraphBuilder::new(self.num_vertices());
        for e in self.spanner.edges() {
            b.add_edge(e.lo().raw(), e.hi().raw()).expect("valid edge");
        }
        for (k, &(u, v)) in self.free_edges.iter().enumerate() {
            if keep(k) {
                b.add_edge(u.raw(), v.raw()).expect("valid edge");
            }
        }
        b.build()
    }

    /// Is `g` a member of the family (`H ⊆ g ⊆ G`)?
    pub fn contains(&self, g: &Graph) -> bool {
        if g.num_vertices() != self.num_vertices() {
            return false;
        }
        for e in self.spanner.edges() {
            if !g.has_edge(e.lo(), e.hi()) {
                return false;
            }
        }
        for e in g.edges() {
            if !self.full.has_edge(e.lo(), e.hi()) {
                return false;
            }
        }
        true
    }

    /// Evaluates the numeric lower bound `Ω(2^{α/2} + log n)` for this
    /// family's parameters: `max(2^{α/2}·cn, log₂(n−2))` where the paper's
    /// constant `cn` comes from `m_{p,d} ≥ 2^{d-1} p^d` edge counting. We
    /// report the exact computable form `(|E(G)|−|E(H)|)/n`.
    pub fn lower_bound_bits(&self) -> f64 {
        let counting = self.per_label_lower_bound_bits();
        let path_bound = ((self.num_vertices().saturating_sub(2)).max(2) as f64).log2();
        counting.max(path_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::connectivity;

    #[test]
    fn family_shape_d2() {
        let fam = LowerBoundFamily::new(4, 2);
        assert_eq!(fam.num_vertices(), 16);
        assert_eq!(fam.alpha(), 4);
        // In 2-D, H keeps only axis moves (l1 <= 1), so free edges are the
        // diagonals.
        let diagonals = fam.full_graph().num_edges() - fam.spanner().num_edges();
        assert_eq!(fam.log2_size(), diagonals);
        assert!(fam.log2_size() > 0);
    }

    #[test]
    fn members_contain_spanner_and_stay_in_full() {
        let fam = LowerBoundFamily::new(3, 2);
        for seed in 0..5 {
            let m = fam.random_member(seed);
            assert!(fam.contains(&m));
            assert!(
                connectivity::is_connected(&m),
                "H is connected, so members are"
            );
        }
    }

    #[test]
    fn extreme_members() {
        let fam = LowerBoundFamily::new(3, 2);
        let min = fam.member_from_bits(|_| false);
        assert_eq!(min.num_edges(), fam.spanner().num_edges());
        let max = fam.member_from_bits(|_| true);
        assert_eq!(max.num_edges(), fam.full_graph().num_edges());
    }

    #[test]
    fn member_bits_roundtrip() {
        let fam = LowerBoundFamily::new(3, 2);
        let pattern: Vec<bool> = (0..fam.log2_size()).map(|k| k % 3 == 0).collect();
        let m = fam.member_from_bits(|k| pattern[k]);
        // Recover the pattern from the member.
        for (k, &(u, v)) in fam.free_edges().iter().enumerate() {
            assert_eq!(m.has_edge(u, v), pattern[k]);
        }
    }

    #[test]
    fn counting_bound_grows_with_dimension() {
        let d2 = LowerBoundFamily::new(3, 2);
        let d4 = LowerBoundFamily::new(3, 4);
        assert!(
            d4.per_label_lower_bound_bits() > d2.per_label_lower_bound_bits(),
            "per-label bound must grow with alpha"
        );
    }

    #[test]
    fn lower_bound_includes_log_n() {
        // For a family with few free edges relative to n the log n term
        // dominates.
        let fam = LowerBoundFamily::new(8, 2);
        assert!(fam.lower_bound_bits() >= ((fam.num_vertices() - 2) as f64).log2() - 1.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dimension_rejected() {
        let _ = LowerBoundFamily::new(3, 3);
    }

    #[test]
    fn non_members_rejected() {
        let fam = LowerBoundFamily::new(3, 2);
        // Missing a spanner edge.
        let bad = GraphBuilder::new(9).build();
        assert!(!fam.contains(&bad));
        // Extra edge outside G (long chord).
        let mut b = GraphBuilder::new(9);
        for e in fam.full_graph().edges() {
            b.add_edge(e.lo().raw(), e.hi().raw()).unwrap();
        }
        b.add_edge(0, 8).unwrap(); // corner to corner: not an l-inf-1 edge
        assert!(!fam.contains(&b.build()));
    }
}
