//! Label construction (the scheme's *marker* algorithm).
//!
//! [`Labeling::build`] preprocesses the graph once: it constructs the net
//! hierarchy and verifies the parameter schedule. Individual labels are then
//! *materialized on demand* by [`Labeling::label_of`] — semantically the
//! label is a fixed per-vertex artifact (encode it with [`crate::codec`] to
//! get its canonical bit string), but holding all `n` labels in memory
//! simultaneously is pointless for a *distributed* data structure in which
//! each node stores only its own label. Materialization is deterministic,
//! so repeated calls yield identical labels.
//!
//! Whether two stored points are joined in `H_i(v)` depends on the pair
//! alone, so the edges of `L_i(v)` are one per-level edge set `Eᵢ`
//! restricted to `v`'s points, and a level is its points plus their rows
//! in `Eᵢ`:
//!
//! 1. `Eᵢ` is enumerated once per labeling, by the first label that needs
//!    it, over the whole stored net `N_{i−c−1}`: a BFS truncated at `λᵢ`
//!    from every waypoint point `x ∈ N_{i−c}` finds its virtual-edge
//!    partners, and at the lowest level the real edges of `G` are read
//!    off the adjacency lists;
//! 2. `L_i(v)` is one BFS of `B(v, rᵢ)` from `v`, which gives the stored
//!    points `N_{i−c−1} ∩ B(v, rᵢ)` with exact distances — the paper's
//!    vertex set of `H_i(v)` (plus the implicit owner edges) — and the
//!    row of each in `Eᵢ`, whose rows every level shares.
//!
//! The edge sets cost `Σ_i Σ_{x ∈ N_{i−c}} |B(x, λᵢ)|` BFS work, paid by
//! the first label of a labeling; every label then costs
//! `Σ_i |B(v, rᵢ)|` BFS work plus a binary search per point —
//! polynomial, and measured by `exp_t10_preproc`. The same
//! [`LevelLabel::restricted_to`] derives a label from a stored points
//! record ([`crate::EdgeSets`]): a store keeps `Eᵢ` once per generation
//! and only the point lists per vertex, and a labeling that wraps a store
//! builds its net hierarchy only if a label must be rebuilt.

use std::sync::OnceLock;

use fsdl_graph::bfs::{self, BfsScratch};
use fsdl_graph::{Graph, NodeId};
use fsdl_nets::{parallel, NetHierarchy};

use crate::label::{Label, LabelPoint, LevelLabel, RealEdge, VirtualEdge};
use crate::params::SchemeParams;

/// Errors from [`Labeling::try_build`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The graph has no vertices.
    EmptyGraph,
    /// `params.n()` does not match the graph's vertex count.
    VertexCountMismatch {
        /// Vertex count the schedule was derived for.
        params_n: usize,
        /// The graph's actual vertex count.
        graph_n: usize,
    },
    /// The parameter schedule violates its invariants (only possible with
    /// hand-built schedules).
    InvalidSchedule(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyGraph => write!(f, "labeling needs a nonempty graph"),
            BuildError::VertexCountMismatch { params_n, graph_n } => write!(
                f,
                "params were derived for {params_n} vertices but the graph has {graph_n}"
            ),
            BuildError::InvalidSchedule(e) => write!(f, "parameter schedule invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Reusable BFS buffer for label materialization: the one ball scan per
/// level. A build worker creates one [`LabelScratch`] and amortizes it
/// across every label it materializes ([`Labeling::label_of_with`],
/// [`Labeling::materialize_all`]).
#[derive(Clone, Debug)]
pub struct LabelScratch {
    ball: BfsScratch,
}

impl LabelScratch {
    /// Scratch sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        LabelScratch {
            ball: BfsScratch::new(n),
        }
    }
}

/// Mean per-level label contents over sampled vertices (see
/// [`Labeling::level_report`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelReport {
    /// The label level `i`.
    pub level: u32,
    /// Mean stored points at this level.
    pub mean_points: f64,
    /// Mean virtual edges at this level.
    pub mean_virtual_edges: f64,
    /// Mean real edges at this level (lowest level only).
    pub mean_real_edges: f64,
}

/// The preprocessed labeling of a graph: parameters + net hierarchy, from
/// which any vertex's label can be materialized.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, NodeId};
/// use fsdl_labels::{Labeling, SchemeParams};
///
/// let g = generators::path(64);
/// let labeling = Labeling::build(&g, SchemeParams::new(1.0, 64));
/// let label = labeling.label_of(NodeId::new(10));
/// assert_eq!(label.owner, NodeId::new(10));
/// assert!(label.stats().points > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Labeling {
    graph: Graph,
    params: SchemeParams,
    /// Built by [`Labeling::try_build`]; left for the first reader by a
    /// labeling that wraps a store, whose served labels need no net.
    pub(crate) nets: OnceLock<NetHierarchy>,
    all_pairs: bool,
    /// Per label level `i`: `Eᵢ`, once enumerated (see the module docs).
    edge_sets: Vec<OnceLock<LevelLabel>>,
}

/// Construction options for [`Labeling::build_with_options`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LabelingOptions {
    /// Store *every* virtual-edge pair of stored points (the paper's
    /// literal `E(H_i(v))`), instead of only pairs with at least one
    /// endpoint at waypoint net level `N_{i−c}`. The pruned default keeps
    /// every edge the existence proof uses (see the module docs) and is
    /// roughly a `2^α` factor smaller; this flag exists for the ablation
    /// experiment that measures the difference.
    pub all_pairs: bool,
}

impl Labeling {
    /// Preprocesses `g`: builds the net hierarchy and validates the
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty, if `params.n()` does not match the graph, or
    /// if the schedule violates its invariants (cannot happen for schedules
    /// from [`SchemeParams::new`]).
    pub fn build(g: &Graph, params: SchemeParams) -> Self {
        Self::build_with_options(g, params, LabelingOptions::default())
    }

    /// Like [`Labeling::build`] with explicit [`LabelingOptions`].
    ///
    /// # Panics
    ///
    /// Same as [`Labeling::build`].
    pub fn build_with_options(g: &Graph, params: SchemeParams, options: LabelingOptions) -> Self {
        match Self::try_build_with_options(g, params, options) {
            Ok(labeling) => labeling,
            Err(BuildError::EmptyGraph) => panic!("labeling needs a nonempty graph"),
            Err(BuildError::VertexCountMismatch { .. }) => {
                panic!("params were derived for a different vertex count")
            }
            Err(BuildError::InvalidSchedule(e)) => {
                panic!("parameter schedule violates its invariants: {e}")
            }
        }
    }

    /// Fallible variant of [`Labeling::build`] for callers that prefer
    /// `Result` over panics (e.g. when parameters come from user input).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for an empty graph, a vertex-count
    /// mismatch, or an invalid hand-built schedule.
    pub fn try_build(g: &Graph, params: SchemeParams) -> Result<Self, BuildError> {
        Self::try_build_with_options(g, params, LabelingOptions::default())
    }

    /// Fallible variant of [`Labeling::build_with_options`].
    ///
    /// # Errors
    ///
    /// Same as [`Labeling::try_build`].
    pub fn try_build_with_options(
        g: &Graph,
        params: SchemeParams,
        options: LabelingOptions,
    ) -> Result<Self, BuildError> {
        let labeling = Self::without_nets(g, params, options)?;
        labeling.nets();
        Ok(labeling)
    }

    /// [`Labeling::try_build_with_options`] without building the net
    /// hierarchy: the first reader of [`Labeling::nets`] builds it. For a
    /// labeling that wraps a store, whose labels are derived, not built.
    pub(crate) fn without_nets(
        g: &Graph,
        params: SchemeParams,
        options: LabelingOptions,
    ) -> Result<Self, BuildError> {
        if g.num_vertices() == 0 {
            return Err(BuildError::EmptyGraph);
        }
        if params.n() != g.num_vertices() {
            return Err(BuildError::VertexCountMismatch {
                params_n: params.n(),
                graph_n: g.num_vertices(),
            });
        }
        params
            .verify_invariants()
            .map_err(BuildError::InvalidSchedule)?;
        let edge_sets = params.levels().map(|_| OnceLock::new()).collect();
        Ok(Labeling {
            graph: g.clone(),
            params,
            nets: OnceLock::new(),
            all_pairs: options.all_pairs,
            edge_sets,
        })
    }

    /// The parameter schedule in force.
    pub fn params(&self) -> &SchemeParams {
        &self.params
    }

    /// The underlying net hierarchy (built here first for a labeling that
    /// wraps a store).
    pub fn nets(&self) -> &NetHierarchy {
        self.nets.get_or_init(|| NetHierarchy::build(&self.graph))
    }

    /// The graph this labeling was built for (an owned copy of the input;
    /// the CSR representation is cheap to clone relative to preprocessing).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Net level whose points are stored at label level `i`, clamped to the
    /// hierarchy's top (relevant only for graphs smaller than `2^{c+1}`).
    pub(crate) fn stored_net(&self, i: u32) -> u32 {
        self.params.stored_net_level(i).min(self.nets().top_level())
    }

    /// Waypoint net level at label level `i`, clamped likewise.
    pub(crate) fn waypoint_net(&self, i: u32) -> u32 {
        self.params
            .waypoint_net_level(i)
            .min(self.nets().top_level())
    }

    /// Whether every pair of stored points within `λᵢ` is an edge, not only
    /// those with a waypoint endpoint ([`LabelingOptions::all_pairs`]).
    pub(crate) fn all_pairs(&self) -> bool {
        self.all_pairs
    }

    /// Materializes the label `L(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn label_of(&self, v: NodeId) -> Label {
        let mut scratch = LabelScratch::new(self.graph.num_vertices());
        self.label_of_with(v, &mut scratch)
    }

    /// [`Labeling::label_of`] with caller-provided BFS scratch, so build
    /// loops materializing many labels allocate the buffers once. The label
    /// is identical to the one `label_of` returns.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn label_of_with(&self, v: NodeId, scratch: &mut LabelScratch) -> Label {
        assert!(self.graph.contains(v), "vertex out of range");
        let first_level = self.params.c() + 1;
        let mut levels = Vec::with_capacity(self.params.num_levels());
        for i in self.params.levels() {
            levels.push(self.build_level(v, i, &mut scratch.ball));
        }
        Label {
            owner: v,
            owner_net_level: self.nets().level_of(v),
            first_level,
            levels,
        }
    }

    /// Materializes the labels of *all* vertices, fanned out over
    /// `available_parallelism` scoped threads with per-worker BFS scratch.
    /// Labels are returned in vertex-index order and are bit-identical to
    /// `n` sequential [`Labeling::label_of`] calls (materialization is
    /// deterministic and per-vertex independent).
    pub fn materialize_all(&self) -> Vec<Label> {
        self.materialize_all_workers(parallel::default_workers(self.graph.num_vertices()))
    }

    /// [`Labeling::materialize_all`] with an explicit worker count
    /// (`workers == 0` means available parallelism, `1` builds sequentially
    /// on the calling thread; see [`parallel::resolve_workers`]). Workers
    /// that need a level's edge set while another enumerates it wait for
    /// that one.
    pub fn materialize_all_workers(&self, workers: usize) -> Vec<Label> {
        let n = self.graph.num_vertices();
        parallel::run_indexed_with(
            n,
            parallel::resolve_workers(workers, n),
            || LabelScratch::new(n),
            |scratch, v| self.label_of_with(NodeId::from_index(v), scratch),
        )
    }

    /// `L_i(v)`: the stored points of `B(v, rᵢ)`, sorted by vertex id, and
    /// their rows in `Eᵢ`.
    fn build_level(&self, v: NodeId, i: u32, scratch: &mut BfsScratch) -> LevelLabel {
        let (nets, stored_net) = (self.nets(), self.stored_net(i));
        let r_i = clamp_radius(self.params.r(i), self.graph.num_vertices());
        let ball = bfs::ball(&self.graph, v, r_i, scratch);
        let mut points: Vec<LabelPoint> = ball
            .iter()
            .filter(|m| nets.is_in_net(m.vertex, stored_net))
            .map(|m| LabelPoint {
                vertex: m.vertex,
                dist: m.dist,
                net_level: nets.level_of(m.vertex),
            })
            .collect();
        points.sort_unstable_by_key(|p| p.vertex);
        self.level_edges(i)
            .restricted_to(points)
            .expect("a ball's stored points are distinct points of the stored net")
    }

    /// `Eᵢ`, as the level over the whole stored net whose rows every built
    /// level of `i` indexes; enumerated by the first label built that
    /// needs it, never by [`Labeling::try_build`]. A labeling that wraps a
    /// store enumerates it only to rebuild a label whose record failed.
    pub(crate) fn level_edges(&self, i: u32) -> &LevelLabel {
        self.edge_sets[(i - self.params.c() - 1) as usize]
            .get_or_init(|| self.enumerate_level_edges(i))
    }

    /// Enumerates `Eᵢ` over the whole stored net `N_{i−c−1}`, as the rows
    /// of a level whose points are that net in id order (their `dist` is
    /// unused, 0): every pair `(x, y)` with `d_G(x, y) ≤ λᵢ` and an endpoint
    /// at waypoint net level (any pair under `all_pairs`), found by a
    /// `λᵢ`-truncated BFS from each such endpoint, and at the lowest level
    /// the edges of `G`.
    fn enumerate_level_edges(&self, i: u32) -> LevelLabel {
        let n = self.graph.num_vertices();
        let lambda_i = clamp_radius(self.params.lambda(i), n);
        let (nets, waypoint_net) = (self.nets(), self.waypoint_net(i));
        let points: Vec<LabelPoint> = nets
            .net_points(self.stored_net(i))
            .map(|x| LabelPoint {
                vertex: x,
                dist: 0,
                net_level: nets.level_of(x),
            })
            .collect();
        let mut index_of = vec![u32::MAX; n];
        for (k, p) in (0u32..).zip(&points) {
            index_of[p.vertex.index()] = k;
        }
        let is_high = |k: u32| self.all_pairs || points[k as usize].net_level >= waypoint_net;
        let mut scratch = BfsScratch::new(n);
        let mut virtual_edges = Vec::new();
        for (a, p) in (0u32..).zip(&points).filter(|&(a, _)| is_high(a)) {
            for m in bfs::ball(&self.graph, p.vertex, lambda_i, &mut scratch) {
                let b = index_of[m.vertex.index()];
                // A pair of two high points is found from both ends: keep
                // the copy found from the lower index.
                if b != u32::MAX && b != a && !(b < a && is_high(b)) {
                    let (a, b) = (a.min(b), a.max(b));
                    virtual_edges.push(VirtualEdge { a, b, dist: m.dist });
                }
            }
        }
        virtual_edges.sort_unstable_by_key(|e| (e.a, e.b));
        let mut real_edges = Vec::new();
        if i == self.params.c() + 1 {
            for (a, p) in (0u32..).zip(&points) {
                for w in self.graph.neighbor_ids(p.vertex) {
                    let b = index_of[w.index()];
                    if w > p.vertex && b != u32::MAX {
                        real_edges.push(RealEdge { a, b });
                    }
                }
            }
        }
        LevelLabel::new(points, virtual_edges, real_edges)
            .expect("edge endpoints are indices into the point list")
    }

    /// Convenience: materializes and bit-encodes `L(v)`, returning its
    /// length in bits under the canonical codec.
    pub fn label_bits(&self, v: NodeId) -> usize {
        crate::codec::encoded_bits(&self.label_of(v), self.graph.num_vertices())
    }

    /// Per-level size breakdown averaged over `samples` evenly-spaced
    /// vertices: for each label level `i`, the mean number of stored
    /// points, virtual edges, and real edges. Shows *where* the label
    /// bits live (the low levels dominate — the `(O(1)/ε)^{2α}` constant).
    pub fn level_report(&self, samples: usize) -> Vec<LevelReport> {
        let n = self.graph.num_vertices();
        let samples = samples.clamp(1, n);
        let stride = (n / samples).max(1);
        let mut reports: Vec<LevelReport> = self
            .params
            .levels()
            .map(|level| LevelReport {
                level,
                mean_points: 0.0,
                mean_virtual_edges: 0.0,
                mean_real_edges: 0.0,
            })
            .collect();
        let mut count = 0usize;
        let mut v = 0usize;
        while v < n && count < samples {
            let label = self.label_of(NodeId::from_index(v));
            for (k, (_, level)) in label.levels_iter().enumerate() {
                reports[k].mean_points += level.points.len() as f64;
                reports[k].mean_virtual_edges += level.num_virtual_edges() as f64;
                reports[k].mean_real_edges += level.num_real_edges() as f64;
            }
            count += 1;
            v += stride;
        }
        for r in &mut reports {
            r.mean_points /= count as f64;
            r.mean_virtual_edges /= count as f64;
            r.mean_real_edges /= count as f64;
        }
        reports
    }
}

/// Radii from the schedule are `u64` and can exceed any graph distance;
/// clamp to `n` (distances are `< n`).
fn clamp_radius(r: u64, n: usize) -> u32 {
    u32::try_from(r.min(n as u64)).expect("n fits in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;

    fn build_path() -> (fsdl_graph::Graph, SchemeParams) {
        let g = generators::path(40);
        let p = SchemeParams::new(1.0, 40);
        (g, p)
    }

    #[test]
    fn owner_and_levels() {
        let (g, p) = build_path();
        let labeling = Labeling::build(&g, p.clone());
        let l = labeling.label_of(NodeId::new(7));
        assert_eq!(l.owner, NodeId::new(7));
        assert_eq!(l.first_level, p.c() + 1);
        assert_eq!(l.levels.len(), p.num_levels());
    }

    #[test]
    fn points_are_sorted_with_exact_distances() {
        let (g, p) = build_path();
        let labeling = Labeling::build(&g, p);
        let v = NodeId::new(20);
        let l = labeling.label_of(v);
        for (_, level) in l.levels_iter() {
            for w in level.points.windows(2) {
                assert!(w[0].vertex < w[1].vertex);
            }
            for pt in &level.points {
                // On a path the distance is |id difference|.
                assert_eq!(pt.dist, v.raw().abs_diff(pt.vertex.raw()));
            }
        }
    }

    #[test]
    fn stored_points_respect_net_and_radius() {
        let g = generators::grid2d(8, 8);
        let p = SchemeParams::new(2.0, 64);
        let labeling = Labeling::build(&g, p.clone());
        let v = NodeId::new(27);
        let l = labeling.label_of(v);
        for (i, level) in l.levels_iter() {
            let r_i = p.r(i).min(64);
            let stored = p.stored_net_level(i).min(labeling.nets().top_level());
            for pt in &level.points {
                assert!(u64::from(pt.dist) <= r_i, "point outside ball at level {i}");
                assert!(
                    labeling.nets().is_in_net(pt.vertex, stored),
                    "point below stored net at level {i}"
                );
                assert_eq!(pt.net_level, labeling.nets().level_of(pt.vertex));
            }
        }
    }

    #[test]
    fn virtual_edges_are_short_exact_and_have_high_endpoint() {
        let g = generators::grid2d(8, 8);
        let p = SchemeParams::new(2.0, 64);
        let labeling = Labeling::build(&g, p.clone());
        let l = labeling.label_of(NodeId::new(0));
        for (i, level) in l.levels_iter() {
            let wp = p.waypoint_net_level(i).min(labeling.nets().top_level());
            for e in level.virtual_edges() {
                let x = &level.points[e.a as usize];
                let y = &level.points[e.b as usize];
                assert!(e.a < e.b, "canonical orientation");
                assert!(u64::from(e.dist) <= p.lambda(i));
                assert!(
                    x.net_level >= wp || y.net_level >= wp,
                    "no waypoint endpoint at level {i}"
                );
                // Exact weight.
                let d = fsdl_graph::bfs::pair_distance_avoiding(
                    &g,
                    x.vertex,
                    y.vertex,
                    &fsdl_graph::FaultSet::empty(),
                );
                assert_eq!(d.finite(), Some(e.dist));
            }
        }
    }

    #[test]
    fn virtual_edges_deduplicated() {
        let g = generators::grid2d(6, 6);
        let labeling = Labeling::build(&g, SchemeParams::new(2.0, 36));
        let l = labeling.label_of(NodeId::new(14));
        for (_, level) in l.levels_iter() {
            let mut keys: Vec<(u32, u32)> = level.virtual_edges().map(|e| (e.a, e.b)).collect();
            let before = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), before, "duplicate virtual edges");
        }
    }

    #[test]
    fn real_edges_only_at_lowest_level_and_match_graph() {
        let g = generators::grid2d(8, 8);
        let p = SchemeParams::new(2.0, 64);
        let labeling = Labeling::build(&g, p.clone());
        let l = labeling.label_of(NodeId::new(9));
        for (i, level) in l.levels_iter() {
            if i == p.c() + 1 {
                assert!(level.num_real_edges() > 0);
                for e in level.real_edges() {
                    let u = level.points[e.a as usize].vertex;
                    let w = level.points[e.b as usize].vertex;
                    assert!(g.has_edge(u, w), "stored non-edge at lowest level");
                }
            } else {
                assert_eq!(level.num_real_edges(), 0, "real edges at level {i}");
            }
        }
    }

    #[test]
    fn lowest_level_contains_whole_ball_with_all_edges() {
        // At level c+1 the stored net is N_0 = V, so all edges of G inside
        // the ball must be present.
        let g = generators::cycle(20);
        let p = SchemeParams::new(2.0, 20);
        let labeling = Labeling::build(&g, p.clone());
        let v = NodeId::new(5);
        let l = labeling.label_of(v);
        let low = l.level(p.c() + 1).unwrap();
        let ids: std::collections::HashSet<NodeId> =
            low.points.iter().map(|pt| pt.vertex).collect();
        let mut expected = 0usize;
        for e in g.edges() {
            if ids.contains(&e.lo()) && ids.contains(&e.hi()) {
                expected += 1;
            }
        }
        assert_eq!(low.num_real_edges(), expected);
    }

    #[test]
    fn materialization_is_deterministic() {
        let g = generators::random_geometric(120, 0.12, 17);
        let labeling = Labeling::build(&g, SchemeParams::new(2.0, 120));
        let a = labeling.label_of(NodeId::new(60));
        let b = labeling.label_of(NodeId::new(60));
        assert_eq!(a, b);
    }

    #[test]
    fn saturated_levels_share_their_edge_rows() {
        use std::sync::Arc;
        // Every ball of the 8x8 grid holds the whole net at every level;
        // the ladder's balls hold it at some levels of some labels only.
        // Whichever worker builds a label, every level has the level's edge
        // rows themselves, and only a level that stores part of the net
        // keeps a row list.
        for (g, all_whole) in [
            (generators::grid2d(8, 8), true),
            (generators::ladder(256), false),
        ] {
            let n = g.num_vertices();
            for workers in [1, 4] {
                let labeling = Labeling::build(&g, SchemeParams::new(1.0, n));
                let labels = labeling.materialize_all_workers(workers);
                let (mut whole, mut partial) = (0, 0);
                for (i, set) in labeling
                    .params
                    .levels()
                    .map(|i| (i, labeling.level_edges(i)))
                {
                    for label in &labels {
                        let level = label.level(i).unwrap();
                        let is_whole = level.points.len() == set.points.len();
                        assert!(Arc::ptr_eq(&level.virt, &set.virt));
                        assert!(Arc::ptr_eq(&level.real, &set.real));
                        assert_eq!(level.rows.is_none(), is_whole, "{n}, {workers} workers");
                        *(if is_whole { &mut whole } else { &mut partial }) += 1;
                    }
                }
                assert!(
                    whole > 0 && (partial == 0) == all_whole,
                    "{whole} / {partial}"
                );
            }
        }
        // Whole or partial, a label reads the same as on a fresh labeling,
        // whose first label enumerates the edge sets.
        let g = generators::grid2d(8, 8);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 64));
        let _ = labeling.label_of(NodeId::new(0));
        let b = labeling.label_of(NodeId::new(63));
        let fresh = Labeling::build(&g, SchemeParams::new(1.0, 64));
        assert_eq!(fresh.label_of(NodeId::new(63)), b);
        // Local levels (the ball misses part of the net) are per vertex.
        let g = generators::path(300);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 300));
        let (a, b) = (
            labeling.label_of(NodeId::new(10)),
            labeling.label_of(NodeId::new(200)),
        );
        assert_ne!(a.levels[0].rows, b.levels[0].rows);
        assert_ne!(
            a.levels[0].virtual_edges().count(),
            b.levels[0].virtual_edges().count()
        );
    }

    #[test]
    fn resident_bytes_stay_within_the_flat_edge_layout() {
        // The rows-plus-transpose layout of an edge set must cost what flat
        // `(a, b, dist)` and `(a, b)` structs did — 12 and 8 bytes an edge
        // — plus a term in the points (the point itself and four row
        // offsets) and a constant per level. A label holds only its points
        // and, at a level that stores part of the net, their rows.
        use std::mem::size_of;
        for g in [
            generators::grid2d(8, 8),
            generators::path(200),
            generators::random_geometric(120, 0.12, 17),
        ] {
            let n = g.num_vertices();
            let labeling = Labeling::build(&g, SchemeParams::new(1.0, n));
            for v in [0, n / 2, n - 1] {
                let label = labeling.label_of(NodeId::from_index(v));
                let rows = |l: &LevelLabel| l.rows.as_deref().map_or(0, <[u32]>::len);
                let own =
                    |l: &LevelLabel| size_of::<LevelLabel>() + 12 * l.points.len() + 4 * rows(l);
                let own: usize = label.levels.iter().map(own).sum();
                assert_eq!(label.resident_bytes(), (size_of::<Label>() + own) as u64);
            }
            for i in labeling.params.levels() {
                let set = labeling.level_edges(i);
                let (virt, real) = (set.num_virtual_edges(), set.num_real_edges());
                let bound = 12 * virt + 8 * real + (12 + 4 * 4) * set.points.len() + 256 + 64;
                let bytes = set.resident_bytes(true);
                assert!(
                    bytes <= bound as u64,
                    "n={n} level {i}: {bytes} bytes resident, bound {bound}"
                );
                // And not wildly below it either: the accounting sees the rows.
                assert!(bytes >= (12 * virt + 8 * real) as u64);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_materialization() {
        let g = generators::grid2d(7, 7);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 49));
        let mut scratch = LabelScratch::new(49);
        for v in [0u32, 13, 24, 48] {
            assert_eq!(
                labeling.label_of_with(NodeId::new(v), &mut scratch),
                labeling.label_of(NodeId::new(v)),
                "v{v}"
            );
        }
    }

    #[test]
    fn materialize_all_is_bit_identical_across_worker_counts() {
        let g = generators::random_geometric(90, 0.14, 5);
        let labeling = Labeling::build(&g, SchemeParams::new(2.0, 90));
        let seq = labeling.materialize_all_workers(1);
        assert_eq!(seq.len(), 90);
        for workers in [2, 4, 8] {
            assert_eq!(
                labeling.materialize_all_workers(workers),
                seq,
                "workers = {workers}"
            );
        }
        // Index order: labels[v] belongs to vertex v.
        for (v, l) in seq.iter().enumerate() {
            assert_eq!(l.owner, NodeId::from_index(v));
        }
        assert_eq!(seq[31], labeling.label_of(NodeId::new(31)));
    }

    #[test]
    fn nearest_waypoint_is_stored() {
        // The certificate needs M_{i-c}(v) present among v's stored points
        // at every level.
        let g = generators::grid2d(10, 10);
        let p = SchemeParams::new(1.0, 100);
        let labeling = Labeling::build(&g, p.clone());
        for vr in [0u32, 33, 99] {
            let v = NodeId::new(vr);
            let l = labeling.label_of(v);
            for (i, level) in l.levels_iter() {
                let wp = p.waypoint_net_level(i).min(labeling.nets().top_level());
                let best = level
                    .points
                    .iter()
                    .filter(|pt| pt.net_level >= wp)
                    .map(|pt| pt.dist)
                    .min();
                let (_, d) = labeling.nets().nearest(v, wp).expect("connected");
                assert_eq!(best, Some(d), "waypoint missing at level {i} for v{vr}");
            }
        }
    }

    #[test]
    fn try_build_errors() {
        let g = generators::path(10);
        assert!(matches!(
            Labeling::try_build(&g, SchemeParams::new(1.0, 11)),
            Err(BuildError::VertexCountMismatch {
                params_n: 11,
                graph_n: 10
            })
        ));
        assert!(Labeling::try_build(&g, SchemeParams::new(1.0, 10)).is_ok());
        let empty = fsdl_graph::GraphBuilder::new(0).build();
        assert!(matches!(
            Labeling::try_build(&empty, SchemeParams::new(1.0, 10)),
            Err(BuildError::EmptyGraph)
        ));
        let err = BuildError::InvalidSchedule("x".into());
        assert!(err.to_string().contains("invalid"));
    }

    #[test]
    fn level_report_shape() {
        let g = generators::grid2d(8, 8);
        let p = SchemeParams::new(1.0, 64);
        let labeling = Labeling::build(&g, p.clone());
        let report = labeling.level_report(4);
        assert_eq!(report.len(), p.num_levels());
        assert_eq!(report[0].level, p.c() + 1);
        // Only the lowest level has real edges.
        assert!(report[0].mean_real_edges > 0.0);
        for r in &report[1..] {
            assert_eq!(r.mean_real_edges, 0.0);
        }
        // The low levels dominate point counts on a small graph.
        assert!(report[0].mean_points >= report.last().unwrap().mean_points);
    }

    #[test]
    #[should_panic(expected = "different vertex count")]
    fn mismatched_params_rejected() {
        let g = generators::path(10);
        let _ = Labeling::build(&g, SchemeParams::new(1.0, 11));
    }

    #[test]
    fn single_vertex_graph_labels() {
        let g = fsdl_graph::GraphBuilder::new(1).build();
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 1));
        let l = labeling.label_of(NodeId::new(0));
        assert_eq!(l.owner, NodeId::new(0));
        for (_, level) in l.levels_iter() {
            assert_eq!(level.points.len(), 1);
            assert_eq!(level.num_virtual_edges(), 0);
        }
    }
}
