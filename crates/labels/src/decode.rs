//! The decoder: answers forbidden-set distance queries from labels alone.
//!
//! A query `(s, t, F)` receives `L(s)`, `L(t)` and the labels of every
//! forbidden vertex and edge, and *no other information about the graph*.
//! Following the paper, the decoder
//!
//! 1. assembles the sketch graph `H` from the level graphs `H_i(v)` encoded
//!    in the labels of `F̄ = {s, t} ∪ F`, admitting a level-`i` edge only if
//!    it is certifiably outside the protected ball `PB_i(f) = B(f, λᵢ)` of
//!    every fault `f` (so the underlying path avoids `F`; Lemma 2.3), and
//!    admitting a lowest-level real edge only when neither endpoint nor the
//!    edge itself is forbidden;
//! 2. runs Dijkstra from `s` to `t` in `H` and returns the result, which is
//!    `≥ d_{G∖F}(s,t)` always and `≤ (1+ε)·d_{G∖F}(s,t)` by Lemma 2.4.
//!
//! ## Protected-ball certificates
//!
//! For an endpoint `x` that is a stored net point, membership in `PB_i(f)`
//! is decided *exactly* from `f`'s level-`i` point list (absence means
//! `d_G(f,x) > rᵢ > λᵢ`). For an endpoint that is a label owner (`s`, `t`,
//! or a fault), the decoder uses a certified lower bound via the owner's
//! nearest stored point `x*`: `est = d(f, x*) − d(owner, x*) ≤ d(f, owner)`,
//! reading `d(f, x*)` from `f`'s label. Admitting on `est > λᵢ` is sound;
//! the enlarged clearance radius `μᵢ = λᵢ + 3ρᵢ` (see [`SchemeParams`])
//! keeps the existence analysis intact. Edge faults contribute their
//! canonical (smaller-id) endpoint as a protected-ball center — any short
//! path through the faulty edge must visit that endpoint — while their
//! endpoints remain usable by lowest-level real edges.

use std::collections::{HashMap, HashSet};

use fsdl_graph::{DijkstraScratch, Dist, Edge, NodeId, SketchGraph};

use crate::label::{Label, LabelPoint};
use crate::params::SchemeParams;

/// Where a sketch edge came from: the level that admitted it and whether it
/// is a real (weight-1) graph edge or a virtual (shortest-path) edge. Used
/// by the trace experiments that reproduce the paper's Figures 1 and 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeProvenance {
    /// The label level `i` that admitted the (minimum-weight copy of the)
    /// edge.
    pub level: u32,
    /// `true` for lowest-level real edges of `G`.
    pub real: bool,
    /// The edge weight (`d_G` between the endpoints).
    pub weight: u64,
}

/// The sketch graph `H(s, t, F)` with provenance, as assembled by
/// [`build_sketch`].
#[derive(Clone, Debug)]
pub struct Sketch {
    /// The weighted sketch graph `H`.
    pub graph: SketchGraph,
    /// The forbidden vertices named by the query.
    pub forbidden: HashSet<NodeId>,
    /// Provenance of each admitted edge (keyed by canonical endpoints).
    pub edge_info: HashMap<Edge, EdgeProvenance>,
}

/// The labels given to the decoder for one query `(s, t, F)`.
#[derive(Clone, Debug, Default)]
pub struct QueryLabels<'a> {
    /// Labels of forbidden vertices.
    pub fault_vertices: Vec<&'a Label>,
    /// Labels of the two endpoints of each forbidden edge.
    pub fault_edges: Vec<(&'a Label, &'a Label)>,
}

impl<'a> QueryLabels<'a> {
    /// A failure-free query input.
    pub fn none() -> Self {
        QueryLabels::default()
    }

    /// `|F|`: number of forbidden elements.
    pub fn len(&self) -> usize {
        self.fault_vertices.len() + self.fault_edges.len()
    }

    /// `true` when the forbidden set is empty.
    pub fn is_empty(&self) -> bool {
        self.fault_vertices.is_empty() && self.fault_edges.is_empty()
    }

    /// Puts the fault labels in ascending owner-id order. Among equally
    /// short witness paths the decoder reports the one its sketch meets
    /// first, and the sketch is built in the order of these vectors — so
    /// whoever gathers labels by walking an unordered
    /// [`fsdl_graph::FaultSet`] calls this, and equal fault sets give
    /// equal paths however they were built or transported.
    pub fn sort_by_owner(&mut self) {
        self.fault_vertices.sort_unstable_by_key(|l| l.owner);
        self.fault_edges
            .sort_unstable_by_key(|(a, b)| (a.owner, b.owner));
    }
}

/// The decoder's answer to one query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The `(1+ε)`-approximate distance `δ(s,t,F)`; [`Dist::INFINITE`] when
    /// `s` and `t` are not connected in `G ∖ F` (or an endpoint is
    /// forbidden).
    pub distance: Dist,
    /// The witnessing path in the sketch graph `H` (a sequence of graph
    /// vertices starting at `s` and ending at `t`, each consecutive pair
    /// joined by a safe virtual or real edge). Empty when unreachable.
    pub path: Vec<NodeId>,
    /// Size of the sketch graph that was built (for Lemma 2.6 accounting).
    pub sketch_vertices: usize,
    /// Number of admitted sketch edges.
    pub sketch_edges: usize,
}

/// Reusable buffers for the allocation-free decode fast path.
///
/// One scratch owns everything a query would otherwise allocate: the
/// sketch-graph arena and intern table, the Dijkstra queue (heap or Dial
/// buckets), the sorted forbidden sets, the provider dedup mask, and the
/// per-level center directory. After a few warm-up queries every buffer has
/// grown to the working-set size and [`query_with_scratch`] allocates
/// nothing but the returned answer.
///
/// A scratch carries no query state between calls by construction: every
/// decode begins by bumping the generation counter and clearing all buffers
/// (capacity-retained), so a scratch previously used against a *different*
/// labeling — or left mid-state by a panicking caller — is reset rather
/// than trusted.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, NodeId};
/// use fsdl_labels::{query, query_with_scratch, DecodeScratch, Labeling, QueryLabels, SchemeParams};
///
/// let g = generators::cycle(16);
/// let labeling = Labeling::build(&g, SchemeParams::new(1.0, 16));
/// let (ls, lt) = (labeling.label_of(NodeId::new(0)), labeling.label_of(NodeId::new(3)));
/// let mut scratch = DecodeScratch::new();
/// for _ in 0..3 {
///     let warm = query_with_scratch(
///         labeling.params(), &ls, &lt, &QueryLabels::none(), &mut scratch,
///     );
///     assert_eq!(warm, query(labeling.params(), &ls, &lt, &QueryLabels::none()));
/// }
/// ```
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Generation counter: bumped at the start of every decode so state is
    /// invalidated wholesale, never selectively trusted across queries.
    epoch: u64,
    sketch: SketchGraph,
    dijkstra: DijkstraScratch,
    /// Sorted, deduplicated — membership via binary search.
    forbidden_vertices: Vec<NodeId>,
    /// Sorted, deduplicated — membership via binary search.
    forbidden_edges: Vec<Edge>,
    seen_owners: Vec<NodeId>,
    /// Per chain position: is this label the first occurrence of its owner
    /// *and* usable? Mirrors the allocating path's provider dedup.
    provider_mask: Vec<bool>,
    /// Per-level directory of protected-ball centers.
    center_kinds: Vec<(NodeId, CenterKind)>,
    /// Per provider-level point admission masks: bit `k` of point `p`'s
    /// word group is set when `p` is *near* center `k` (inside its
    /// protected ball at this level). Filled by one sorted merge per
    /// center instead of per-edge searches.
    near_points: Vec<u64>,
    /// The owner-endpoint near mask (one word group), same bit layout.
    near_owner: Vec<u64>,
    /// Edge provenance, filled only when tracing asks for it.
    edge_info: HashMap<Edge, EdgeProvenance>,
    /// Buffer for the batched word-parallel varint reader used when a
    /// label is materialized from a segment on the query path.
    varints: crate::codec::VarintScratch,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow during the first queries.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Number of decodes begun with this scratch (each one starts a new
    /// generation; useful for asserting reuse in tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drops all cached query state, retaining buffer capacity. Every
    /// decode entry point calls this first, so explicit calls are only
    /// needed to release sensitive state early.
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.sketch.reset();
        self.forbidden_vertices.clear();
        self.forbidden_edges.clear();
        self.seen_owners.clear();
        self.provider_mask.clear();
        self.center_kinds.clear();
        self.near_points.clear();
        self.near_owner.clear();
        self.edge_info.clear();
    }

    /// The varint batch buffer, for materializing segment labels on the
    /// query path without allocating per label.
    pub(crate) fn varints_mut(&mut self) -> &mut crate::codec::VarintScratch {
        &mut self.varints
    }

    /// Is `v` one of the forbidden vertices of the query just decoded?
    pub(crate) fn is_forbidden(&self, v: NodeId) -> bool {
        self.forbidden_vertices.binary_search(&v).is_ok()
    }

    pub(crate) fn sketch(&self) -> &SketchGraph {
        &self.sketch
    }

    pub(crate) fn edge_info(&self) -> &HashMap<Edge, EdgeProvenance> {
        &self.edge_info
    }

    /// Split borrow for running Dijkstra on the assembled sketch.
    pub(crate) fn sketch_and_dijkstra(&mut self) -> (&SketchGraph, &mut DijkstraScratch) {
        (&self.sketch, &mut self.dijkstra)
    }
}

/// How a protected-ball center participates in edge admission at one level.
#[derive(Clone, Copy, Debug)]
enum CenterKind {
    /// The center's ball cannot be checked (unusable label, or a point list
    /// that is not strictly sorted so binary search would be unsound):
    /// vetoes every edge — the conservative, sound direction.
    Veto,
    /// Strictly sorted level points, searched in place. A missing level
    /// stores no points, so every lookup certifies "far" — exactly like
    /// the allocating path's empty map.
    Points,
}

/// Answers the query `(s, t, F)` from labels alone.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, NodeId};
/// use fsdl_labels::{query, Labeling, QueryLabels, SchemeParams};
///
/// let g = generators::cycle(16);
/// let labeling = Labeling::build(&g, SchemeParams::new(1.0, 16));
/// let (ls, lt, lf) = (
///     labeling.label_of(NodeId::new(0)),
///     labeling.label_of(NodeId::new(3)),
///     labeling.label_of(NodeId::new(1)),
/// );
/// let faults = QueryLabels { fault_vertices: vec![&lf], fault_edges: vec![] };
/// let answer = query(labeling.params(), &ls, &lt, &faults);
/// assert_eq!(answer.distance.finite(), Some(13)); // the long way round
/// ```
///
/// # Robustness
///
/// The decoder never panics on label *content*. Labels whose level range
/// disagrees with `params` (mixing labelings, or hand-built labels) are
/// handled conservatively and soundly: such a label contributes no sketch
/// edges, and if it names a fault, every candidate edge is suppressed —
/// the answer can only move toward `INFINITE`, never below
/// `d_{G∖F}(s,t)`. Out-of-range edge endpoint indices (impossible for
/// labels from [`crate::codec::decode`], which validates them) are
/// skipped rather than indexed.
pub fn query(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
) -> QueryAnswer {
    query_with_scratch(params, source, target, faults, &mut DecodeScratch::new())
}

/// [`query`] on the *allocating* decode path: per-query hash maps and a
/// fresh sketch graph, with only the Dijkstra buffers reused. Kept verbatim
/// as the differential reference for [`query_with_scratch`] — the T14
/// latency experiment asserts bit-identity between the two and measures
/// one against the other. Same answer as [`query`], bit for bit.
pub fn query_with(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
    scratch: &mut DijkstraScratch,
) -> QueryAnswer {
    let sketch = build_sketch(params, source, target, faults);
    let (h, forbidden) = (&sketch.graph, &sketch.forbidden);
    let s = source.owner;
    let t = target.owner;
    if forbidden.contains(&s) || forbidden.contains(&t) {
        return QueryAnswer {
            distance: Dist::INFINITE,
            path: Vec::new(),
            sketch_vertices: h.num_vertices(),
            sketch_edges: h.num_edges(),
        };
    }
    if s == t {
        return QueryAnswer {
            distance: Dist::ZERO,
            path: vec![s],
            sketch_vertices: h.num_vertices(),
            sketch_edges: h.num_edges(),
        };
    }
    match h.shortest_path_with(s, t, scratch) {
        Some((d, path)) => QueryAnswer {
            // A finite sketch distance that does not fit in `Dist` must
            // widen to INFINITE (an overestimate stays sound); clamping
            // down would return a finite underestimate and break the
            // Theorem 2.1 lower-bound guarantee.
            distance: Dist::try_new(d).unwrap_or(Dist::INFINITE),
            path,
            sketch_vertices: h.num_vertices(),
            sketch_edges: h.num_edges(),
        },
        None => QueryAnswer {
            distance: Dist::INFINITE,
            path: Vec::new(),
            sketch_vertices: h.num_vertices(),
            sketch_edges: h.num_edges(),
        },
    }
}

/// [`query`] with a caller-provided [`DecodeScratch`] — the allocation-free
/// fast path for serving loops, where each worker reuses one scratch across
/// many queries. Same answer as [`query`] and [`query_with`], bit for bit:
/// sorted-slice point lookups replace the per-center hash maps (sound
/// because [`Label::validate`] guarantees strictly sorted point lists, and
/// any list that is not is conservatively treated as unverifiable), and
/// the sketch Dijkstra runs on a Dial bucket queue that settles vertices
/// in the same `(distance, index)` order as the heap.
pub fn query_with_scratch(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> QueryAnswer {
    build_sketch_scratch(params, source, &[target], faults, false, scratch);
    let (s, t) = (source.owner, target.owner);
    let sketch_vertices = scratch.sketch.num_vertices();
    let sketch_edges = scratch.sketch.num_edges();
    if scratch.is_forbidden(s) || scratch.is_forbidden(t) {
        return QueryAnswer {
            distance: Dist::INFINITE,
            path: Vec::new(),
            sketch_vertices,
            sketch_edges,
        };
    }
    if s == t {
        return QueryAnswer {
            distance: Dist::ZERO,
            path: vec![s],
            sketch_vertices,
            sketch_edges,
        };
    }
    let (sketch, dijkstra) = scratch.sketch_and_dijkstra();
    match sketch.shortest_path_with(s, t, dijkstra) {
        Some((d, path)) => QueryAnswer {
            // Widen unrepresentable finite distances to INFINITE (sound
            // overestimate), never clamp down — as in [`query_with`].
            distance: Dist::try_new(d).unwrap_or(Dist::INFINITE),
            path,
            sketch_vertices,
            sketch_edges,
        },
        None => QueryAnswer {
            distance: Dist::INFINITE,
            path: Vec::new(),
            sketch_vertices,
            sketch_edges,
        },
    }
}

/// [`query_many`] with a caller-provided [`DecodeScratch`]; same answers,
/// bit for bit, without the per-call sketch and dedup allocations.
pub fn query_many_with_scratch(
    params: &SchemeParams,
    source: &Label,
    targets: &[&Label],
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> Vec<Dist> {
    // Duplicate targets need no pre-dedup here: the provider mask keeps the
    // first occurrence of each owner and interning is idempotent, so the
    // assembled sketch matches `query_many`'s exactly.
    build_sketch_scratch(params, source, targets, faults, false, scratch);
    let s = source.owner;
    let source_forbidden = scratch.is_forbidden(s);
    let have_table = !source_forbidden && {
        let (sketch, dijkstra) = scratch.sketch_and_dijkstra();
        sketch.distances_from_with(s, dijkstra)
    };
    targets
        .iter()
        .map(|t| {
            if source_forbidden || scratch.is_forbidden(t.owner) {
                return Dist::INFINITE;
            }
            if t.owner == s {
                return Dist::ZERO;
            }
            if !have_table {
                return Dist::INFINITE;
            }
            match scratch
                .sketch
                .index_of(t.owner)
                .and_then(|idx| scratch.dijkstra.distance_at(idx as usize))
            {
                // Widen unrepresentable finite distances to INFINITE
                // (sound overestimate), never clamp down.
                Some(d) => Dist::try_new(d).unwrap_or(Dist::INFINITE),
                None => Dist::INFINITE,
            }
        })
        .collect()
}

/// Answers one-to-many queries `(s, tᵢ, F)` for a batch of targets with a
/// *single* sketch construction and a *single* Dijkstra pass.
///
/// The sketch built from `{s} ∪ {tᵢ} ∪ F` is a superset of each individual
/// `(s, tᵢ, F)` sketch, so every per-target answer is at most the
/// single-query answer (still `≤ (1+ε)·d_{G∖F}`) and — because edge
/// admission is independent of which labels contributed — still safe
/// (`≥ d_{G∖F}`). This is the paper's hand-held-device usage pattern:
/// download the labels for your region once, then answer all local queries.
///
/// Returns one distance per target, in order. Inconsistent labels are
/// handled as in [`query`]: conservatively, soundly, and without
/// panicking.
pub fn query_many(
    params: &SchemeParams,
    source: &Label,
    targets: &[&Label],
    faults: &QueryLabels<'_>,
) -> Vec<Dist> {
    let s = source.owner;
    // Dedupe repeated target labels by owner before sketch assembly: a
    // batch often names the same region repeatedly, and each duplicate
    // would otherwise be carried through provider collection.
    let mut endpoints: Vec<&Label> = Vec::with_capacity(targets.len() + 1);
    let mut distinct: HashSet<NodeId> = HashSet::with_capacity(targets.len() + 1);
    distinct.insert(s);
    endpoints.push(source);
    for t in targets {
        if distinct.insert(t.owner) {
            endpoints.push(t);
        }
    }
    let sketch = build_sketch_from(params, &endpoints, faults);
    let (h, forbidden) = (&sketch.graph, &sketch.forbidden);
    // Loop-invariant over targets: hoisted out of the per-target closure.
    let source_forbidden = forbidden.contains(&s);
    let dist_table = if source_forbidden {
        None
    } else {
        h.distances_from(s)
    };
    targets
        .iter()
        .map(|t| {
            if source_forbidden || forbidden.contains(&t.owner) {
                return Dist::INFINITE;
            }
            if t.owner == s {
                return Dist::ZERO;
            }
            match (&dist_table, h.index_of(t.owner)) {
                (Some(table), Some(idx)) => {
                    let d = table[idx as usize];
                    if d == u64::MAX {
                        Dist::INFINITE
                    } else {
                        // Widen unrepresentable finite distances to
                        // INFINITE (sound overestimate), never clamp down.
                        Dist::try_new(d).unwrap_or(Dist::INFINITE)
                    }
                }
                _ => Dist::INFINITE,
            }
        })
        .collect()
}

/// Builds the sketch graph `H(s, t, F)` from the labels (exposed for tests,
/// the routing layer, and the trace experiments).
pub fn build_sketch(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
) -> Sketch {
    build_sketch_from(params, &[source, target], faults)
}

/// Core sketch assembly over an arbitrary set of endpoint labels (two for a
/// plain query, `1 + |targets|` for [`query_many`]).
fn build_sketch_from(
    params: &SchemeParams,
    endpoints: &[&Label],
    faults: &QueryLabels<'_>,
) -> Sketch {
    // A label is usable only when its level range agrees with `params`;
    // anything else (a label from a different labeling, or hand-built
    // data) must not feed edges into H.
    let usable = |l: &Label| l.first_level == params.c() + 1;

    // Collect F-bar: all labels whose level graphs feed H, deduplicated by
    // owner. Unusable labels contribute no level graphs (sound: fewer
    // sketch edges can only overestimate).
    let mut providers: Vec<&Label> = Vec::new();
    let mut seen: HashSet<NodeId> = HashSet::new();
    for l in endpoints
        .iter()
        .copied()
        .chain(faults.fault_vertices.iter().copied())
        .chain(faults.fault_edges.iter().flat_map(|(a, b)| [*a, *b]))
    {
        if seen.insert(l.owner) && usable(l) {
            providers.push(l);
        }
    }

    let forbidden_vertices: HashSet<NodeId> =
        faults.fault_vertices.iter().map(|l| l.owner).collect();
    let forbidden_edges: HashSet<Edge> = faults
        .fault_edges
        .iter()
        .map(|(a, b)| Edge::new(a.owner, b.owner))
        .collect();

    // Protected-ball centers: every forbidden vertex, plus the canonical
    // (smaller-id) endpoint of every forbidden edge.
    let mut centers: Vec<&Label> = faults.fault_vertices.clone();
    for (a, b) in &faults.fault_edges {
        centers.push(if a.owner <= b.owner { a } else { b });
    }

    let mut h = SketchGraph::new();
    let mut edge_info: HashMap<Edge, EdgeProvenance> = HashMap::new();
    for l in endpoints {
        h.intern(l.owner);
    }

    for i in params.levels() {
        let lambda = params.lambda(i);
        // Exact distance maps of each center at this level. A center whose
        // label is unusable gets `None`: its protected ball cannot be
        // checked, so no edge may be admitted while it is present (the
        // conservative, sound direction).
        let center_maps: Vec<(NodeId, Option<HashMap<NodeId, u32>>)> = centers
            .iter()
            .map(|c| {
                let map = usable(c).then(|| {
                    c.level(i)
                        .map(|lvl| {
                            lvl.points
                                .iter()
                                .map(|p| (p.vertex, p.dist))
                                .collect::<HashMap<_, _>>()
                        })
                        .unwrap_or_default()
                });
                (c.owner, map)
            })
            .collect();

        for label in &providers {
            let Some(level) = label.level(i) else {
                continue;
            };
            // The owner's nearest stored point, for the est-certificate.
            let anchor = level
                .points
                .iter()
                .min_by_key(|p| (p.dist, p.vertex))
                .map(|p| (p.vertex, p.dist));

            // Owner edges (owner, x) for stored points within lambda.
            for p in &level.points {
                if p.vertex == label.owner || u64::from(p.dist) > lambda {
                    continue;
                }
                if edge_admitted(
                    Endpoint::Special {
                        vertex: label.owner,
                        anchor,
                    },
                    Endpoint::NetPoint(p.vertex),
                    lambda,
                    &center_maps,
                ) {
                    h.add_edge(label.owner, p.vertex, u64::from(p.dist));
                    record_edge(
                        &mut edge_info,
                        label.owner,
                        p.vertex,
                        i,
                        false,
                        u64::from(p.dist),
                    );
                }
            }

            // Virtual edges between stored points. Indices are validated
            // by the codec and `Label::validate`; skip (never index past
            // the point list) if a hand-built label violates that.
            for e in &level.virtual_edges {
                let (Some(px), Some(py)) = (
                    level.points.get(e.a as usize),
                    level.points.get(e.b as usize),
                ) else {
                    continue;
                };
                let (x, y) = (px.vertex, py.vertex);
                if edge_admitted(
                    Endpoint::NetPoint(x),
                    Endpoint::NetPoint(y),
                    lambda,
                    &center_maps,
                ) {
                    h.add_edge(x, y, u64::from(e.dist));
                    record_edge(&mut edge_info, x, y, i, false, u64::from(e.dist));
                }
            }

            // Lowest-level real edges: admitted when untouched by F.
            for e in &level.real_edges {
                let (Some(pu), Some(pw)) = (
                    level.points.get(e.a as usize),
                    level.points.get(e.b as usize),
                ) else {
                    continue;
                };
                let (u, w) = (pu.vertex, pw.vertex);
                if forbidden_vertices.contains(&u) || forbidden_vertices.contains(&w) {
                    continue;
                }
                if !forbidden_edges.is_empty() && forbidden_edges.contains(&Edge::new(u, w)) {
                    continue;
                }
                h.add_edge(u, w, 1);
                record_edge(&mut edge_info, u, w, i, true, 1);
            }
        }
    }

    Sketch {
        graph: h,
        forbidden: forbidden_vertices,
        edge_info,
    }
}

/// Sketch assembly into a [`DecodeScratch`], allocation-free after
/// warm-up. The endpoint set is `{source} ∪ extra_endpoints` (one extra for
/// a plain query, the target batch for [`query_many_with_scratch`]).
/// Produces the same sketch as [`build_sketch_from`] — same intern order,
/// same `add_edge` sequence — with provenance recorded only when `record`
/// is set (the tracing path).
pub(crate) fn build_sketch_scratch(
    params: &SchemeParams,
    source: &Label,
    extra_endpoints: &[&Label],
    faults: &QueryLabels<'_>,
    record: bool,
    scratch: &mut DecodeScratch,
) {
    scratch.reset();
    let DecodeScratch {
        sketch,
        forbidden_vertices,
        forbidden_edges,
        seen_owners,
        provider_mask,
        center_kinds,
        near_points,
        near_owner,
        edge_info,
        ..
    } = scratch;
    let usable = |l: &Label| l.first_level == params.c() + 1;

    // The F-bar chain, in the same order the allocating path walks it.
    let chain = || {
        std::iter::once(source)
            .chain(extra_endpoints.iter().copied())
            .chain(faults.fault_vertices.iter().copied())
            .chain(faults.fault_edges.iter().flat_map(|(a, b)| [*a, *b]))
    };

    // Provider mask: first occurrence of an owner wins; unusable labels
    // contribute no level graphs (sound: fewer sketch edges can only
    // overestimate). The chain is short, so the linear dedup scan beats a
    // hash set without allocating.
    for l in chain() {
        let first = !seen_owners.contains(&l.owner);
        if first {
            seen_owners.push(l.owner);
        }
        provider_mask.push(first && usable(l));
    }

    for l in &faults.fault_vertices {
        forbidden_vertices.push(l.owner);
    }
    forbidden_vertices.sort_unstable();
    forbidden_vertices.dedup();
    for (a, b) in &faults.fault_edges {
        forbidden_edges.push(Edge::new(a.owner, b.owner));
    }
    forbidden_edges.sort_unstable();
    forbidden_edges.dedup();

    sketch.intern(source.owner);
    for l in extra_endpoints {
        sketch.intern(l.owner);
    }

    let num_centers = faults.fault_vertices.len() + faults.fault_edges.len();
    // One mask word group holds a near/far bit per center.
    let words = num_centers.div_ceil(64);
    for i in params.levels() {
        let lambda = params.lambda(i);
        center_kinds.clear();
        let mut any_veto = false;
        for k in 0..num_centers {
            let c = center_label(faults, k);
            let kind = if !usable(c) {
                CenterKind::Veto
            } else {
                match c.level(i) {
                    None => CenterKind::Points,
                    Some(lvl) if strictly_sorted(&lvl.points) => CenterKind::Points,
                    Some(_) => CenterKind::Veto,
                }
            };
            any_veto |= matches!(kind, CenterKind::Veto);
            center_kinds.push((c.owner, kind));
        }

        for (pos, label) in chain().enumerate() {
            if !provider_mask[pos] {
                continue;
            }
            let Some(level) = label.level(i) else {
                continue;
            };
            // The owner's nearest stored point, for the est-certificate.
            let anchor = level
                .points
                .iter()
                .min_by_key(|p| (p.dist, p.vertex))
                .map(|p| (p.vertex, p.dist));

            // Admission strategy for this provider level. With centers
            // present and none vetoing, precompute per-point near masks by
            // merging the (sorted) provider and center point lists — one
            // linear pass per center instead of a search per candidate
            // edge. Edge (x, y) is then admitted iff no center is near
            // both endpoints: `near[x] & near[y] == 0`, the pointwise
            // complement of `edge_admitted`'s ∀-centers test. Providers
            // with out-of-order points (hand-built labels) fall back to
            // per-edge searches, which impose no order.
            let merged = num_centers > 0 && !any_veto && sorted_nondecreasing(&level.points) && {
                near_points.clear();
                near_points.resize(level.points.len() * words, 0);
                near_owner.clear();
                near_owner.resize(words, 0);
                for (k, &(center, _)) in center_kinds.iter().enumerate() {
                    let cpoints = center_points(faults, k, i);
                    let (w, bit) = (k / 64, 1u64 << (k % 64));
                    let owner_endpoint = Endpoint::Special {
                        vertex: label.owner,
                        anchor,
                    };
                    if !endpoint_far_sorted(owner_endpoint, center, cpoints, lambda) {
                        near_owner[w] |= bit;
                    }
                    let mut b = 0usize;
                    for (pi, p) in level.points.iter().enumerate() {
                        while b < cpoints.len() && cpoints[b].vertex < p.vertex {
                            b += 1;
                        }
                        let near = p.vertex == center
                            || (b < cpoints.len()
                                && cpoints[b].vertex == p.vertex
                                && u64::from(cpoints[b].dist) <= lambda);
                        if near {
                            near_points[pi * words + w] |= bit;
                        }
                    }
                }
                true
            };
            let row = |pi: usize| &near_points[pi * words..(pi + 1) * words];
            let disjoint = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & y == 0);

            // Owner and virtual edges are all vetoed when any center's
            // ball is uncheckable; real edges below don't go through
            // admission and are still processed.
            if !any_veto {
                // Owner edges (owner, x) for stored points within lambda.
                for (pi, p) in level.points.iter().enumerate() {
                    if p.vertex == label.owner || u64::from(p.dist) > lambda {
                        continue;
                    }
                    let admitted = if num_centers == 0 {
                        true
                    } else if merged {
                        disjoint(near_owner, row(pi))
                    } else {
                        edge_admitted_sorted(
                            Endpoint::Special {
                                vertex: label.owner,
                                anchor,
                            },
                            Endpoint::NetPoint(p.vertex),
                            lambda,
                            i,
                            faults,
                            center_kinds,
                        )
                    };
                    if admitted {
                        sketch.add_edge(label.owner, p.vertex, u64::from(p.dist));
                        if record {
                            record_edge(
                                edge_info,
                                label.owner,
                                p.vertex,
                                i,
                                false,
                                u64::from(p.dist),
                            );
                        }
                    }
                }

                // Virtual edges between stored points. Indices are
                // validated by the codec and `Label::validate`; skip
                // (never index past the point list) if a hand-built label
                // violates that.
                for e in &level.virtual_edges {
                    let (Some(px), Some(py)) = (
                        level.points.get(e.a as usize),
                        level.points.get(e.b as usize),
                    ) else {
                        continue;
                    };
                    let (x, y) = (px.vertex, py.vertex);
                    let admitted = if num_centers == 0 {
                        true
                    } else if merged {
                        disjoint(row(e.a as usize), row(e.b as usize))
                    } else {
                        edge_admitted_sorted(
                            Endpoint::NetPoint(x),
                            Endpoint::NetPoint(y),
                            lambda,
                            i,
                            faults,
                            center_kinds,
                        )
                    };
                    if admitted {
                        sketch.add_edge(x, y, u64::from(e.dist));
                        if record {
                            record_edge(edge_info, x, y, i, false, u64::from(e.dist));
                        }
                    }
                }
            }

            // Lowest-level real edges: admitted when untouched by F.
            for e in &level.real_edges {
                let (Some(pu), Some(pw)) = (
                    level.points.get(e.a as usize),
                    level.points.get(e.b as usize),
                ) else {
                    continue;
                };
                let (u, w) = (pu.vertex, pw.vertex);
                if forbidden_vertices.binary_search(&u).is_ok()
                    || forbidden_vertices.binary_search(&w).is_ok()
                {
                    continue;
                }
                if !forbidden_edges.is_empty()
                    && forbidden_edges.binary_search(&Edge::new(u, w)).is_ok()
                {
                    continue;
                }
                sketch.add_edge(u, w, 1);
                if record {
                    record_edge(edge_info, u, w, i, true, 1);
                }
            }
        }
    }
}

/// The `k`-th protected-ball center label: forbidden vertices first, then
/// the canonical (smaller-id) endpoint of each forbidden edge — the same
/// order the allocating path materializes its `centers` vector in.
fn center_label<'a>(faults: &QueryLabels<'a>, k: usize) -> &'a Label {
    let nv = faults.fault_vertices.len();
    if k < nv {
        faults.fault_vertices[k]
    } else {
        let (a, b) = faults.fault_edges[k - nv];
        if a.owner <= b.owner {
            a
        } else {
            b
        }
    }
}

/// The `k`-th center's level-`i` point slice (empty when the level is
/// absent — absence of a point then certifies "far", exactly like the
/// allocating path's empty map).
fn center_points<'a>(faults: &QueryLabels<'a>, k: usize, level: u32) -> &'a [LabelPoint] {
    center_label(faults, k)
        .level(level)
        .map(|lvl| lvl.points.as_slice())
        .unwrap_or(&[])
}

/// Point lists must be strictly sorted by vertex for binary search to be
/// exact; [`Label::validate`] enforces this for decoded labels, but the
/// decoder re-checks so hand-built labels degrade soundly (to a veto)
/// instead of silently missing entries.
fn strictly_sorted(points: &[LabelPoint]) -> bool {
    points.windows(2).all(|w| w[0].vertex < w[1].vertex)
}

/// Weaker order check for the merge-based admission pass: the *provider's*
/// points only need to be non-decreasing for the two-pointer merge to
/// visit every center entry (duplicates are fine — the merge cursor
/// simply stays put).
fn sorted_nondecreasing(points: &[LabelPoint]) -> bool {
    points.windows(2).all(|w| w[0].vertex <= w[1].vertex)
}

/// Looks up `v` in a strictly sorted point list, returning its stored
/// distance. Galloping search: probe exponentially to bracket `v`, then
/// binary-search the bracket — for the short lists of the common small-`|F|`
/// case this touches fewer cache lines than a full-width binary search.
fn lookup_sorted(points: &[LabelPoint], v: NodeId) -> Option<u32> {
    let mut hi = 1usize;
    while hi < points.len() && points[hi].vertex < v {
        hi <<= 1;
    }
    let lo = hi >> 1;
    // points[hi] (when in range) satisfies vertex >= v, so keep it in the
    // searched bracket.
    let end = if hi < points.len() {
        hi + 1
    } else {
        points.len()
    };
    points[lo..end]
        .binary_search_by_key(&v, |p| p.vertex)
        .ok()
        .map(|k| points[lo + k].dist)
}

/// [`edge_admitted`] over sorted point slices read directly from the fault
/// labels — no per-level maps. Center `k`'s kind comes from the scratch
/// directory; its points are resolved on the fly via [`center_points`].
fn edge_admitted_sorted(
    x: Endpoint,
    y: Endpoint,
    lambda: u64,
    level: u32,
    faults: &QueryLabels<'_>,
    centers: &[(NodeId, CenterKind)],
) -> bool {
    centers
        .iter()
        .enumerate()
        .all(|(k, &(center, kind))| match kind {
            CenterKind::Veto => false,
            CenterKind::Points => {
                let points = center_points(faults, k, level);
                endpoint_far_sorted(x, center, points, lambda)
                    || endpoint_far_sorted(y, center, points, lambda)
            }
        })
}

/// [`endpoint_far`] over a strictly sorted point slice: same certificates,
/// binary search instead of hashing.
fn endpoint_far_sorted(e: Endpoint, center: NodeId, points: &[LabelPoint], lambda: u64) -> bool {
    match e {
        Endpoint::NetPoint(x) => {
            if x == center {
                return false;
            }
            match lookup_sorted(points, x) {
                // Stored net points within r_i are all in the center's
                // list; absence certifies d > r_i > lambda.
                None => true,
                Some(d) => u64::from(d) > lambda,
            }
        }
        Endpoint::Special { vertex, anchor } => {
            if vertex == center {
                return false;
            }
            // If the owner happens to be a stored net point itself, its own
            // presence/absence in the center list is already exact.
            if let Some(d) = lookup_sorted(points, vertex) {
                return u64::from(d) > lambda;
            }
            let Some((xstar, d_ux)) = anchor else {
                // No stored point at all (isolated region): cannot certify.
                return false;
            };
            match lookup_sorted(points, xstar) {
                // d(center, x*) > r_i, hence
                // d(center, owner) >= d(center, x*) - d(owner, x*)
                //                  >  r_i - rho_i > lambda.
                None => true,
                Some(d_fx) => u64::from(d_fx).saturating_sub(u64::from(d_ux)) > lambda,
            }
        }
    }
}

/// Records provenance for the minimum-weight copy of an admitted edge.
fn record_edge(
    info: &mut HashMap<Edge, EdgeProvenance>,
    a: NodeId,
    b: NodeId,
    level: u32,
    real: bool,
    weight: u64,
) {
    if a == b {
        return;
    }
    let key = Edge::new(a, b);
    let entry = EdgeProvenance {
        level,
        real,
        weight,
    };
    info.entry(key)
        .and_modify(|e| {
            if weight < e.weight {
                *e = entry;
            }
        })
        .or_insert(entry);
}

/// One endpoint of a candidate sketch edge, for protected-ball checking.
#[derive(Clone, Copy, Debug)]
enum Endpoint {
    /// A stored net point: exact membership via the center's point map.
    NetPoint(NodeId),
    /// A label owner: certified via its nearest stored point
    /// `anchor = (x*, d(owner, x*))`.
    Special {
        vertex: NodeId,
        anchor: Option<(NodeId, u32)>,
    },
}

/// Is the candidate edge `(x, y)` (of length `≤ λ`) admissible: for every
/// protected-ball center, at least one endpoint certifiably outside
/// `B(center, λ)`? A center with no usable point map (`None`) can never
/// certify anything, so it vetoes every edge.
fn edge_admitted(
    x: Endpoint,
    y: Endpoint,
    lambda: u64,
    center_maps: &[(NodeId, Option<HashMap<NodeId, u32>>)],
) -> bool {
    center_maps.iter().all(|(center, map)| match map {
        None => false,
        Some(map) => endpoint_far(x, *center, map, lambda) || endpoint_far(y, *center, map, lambda),
    })
}

/// Certifies `d_G(endpoint, center) > λ` from label data (sound: never
/// returns `true` when the endpoint is actually inside the protected ball).
fn endpoint_far(
    e: Endpoint,
    center: NodeId,
    center_map: &HashMap<NodeId, u32>,
    lambda: u64,
) -> bool {
    match e {
        Endpoint::NetPoint(x) => {
            if x == center {
                return false;
            }
            match center_map.get(&x) {
                // Stored net points within r_i are all in the center's map;
                // absence certifies d > r_i > lambda.
                None => true,
                Some(&d) => u64::from(d) > lambda,
            }
        }
        Endpoint::Special { vertex, anchor } => {
            if vertex == center {
                return false;
            }
            // If the owner happens to be a stored net point itself, its own
            // presence/absence in the center map is already exact.
            if let Some(&d) = center_map.get(&vertex) {
                return u64::from(d) > lambda;
            }
            let Some((xstar, d_ux)) = anchor else {
                // No stored point at all (isolated region): cannot certify.
                return false;
            };
            match center_map.get(&xstar) {
                // d(center, x*) > r_i, hence
                // d(center, owner) >= d(center, x*) - d(owner, x*)
                //                  >  r_i - rho_i > lambda.
                None => true,
                Some(&d_fx) => u64::from(d_fx).saturating_sub(u64::from(d_ux)) > lambda,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(u32, u32)]) -> HashMap<NodeId, u32> {
        entries.iter().map(|&(v, d)| (NodeId::new(v), d)).collect()
    }

    #[test]
    fn net_point_far_by_absence() {
        let m = map(&[(1, 3)]);
        assert!(endpoint_far(
            Endpoint::NetPoint(NodeId::new(9)),
            NodeId::new(0),
            &m,
            8
        ));
    }

    #[test]
    fn net_point_near_by_presence() {
        let m = map(&[(1, 3)]);
        assert!(!endpoint_far(
            Endpoint::NetPoint(NodeId::new(1)),
            NodeId::new(0),
            &m,
            8
        ));
        assert!(endpoint_far(
            Endpoint::NetPoint(NodeId::new(1)),
            NodeId::new(0),
            &m,
            2
        ));
    }

    #[test]
    fn center_itself_is_never_far() {
        let m = map(&[]);
        assert!(!endpoint_far(
            Endpoint::NetPoint(NodeId::new(4)),
            NodeId::new(4),
            &m,
            8
        ));
        assert!(!endpoint_far(
            Endpoint::Special {
                vertex: NodeId::new(4),
                anchor: Some((NodeId::new(1), 0))
            },
            NodeId::new(4),
            &m,
            8
        ));
    }

    #[test]
    fn special_certificate_lower_bound() {
        // anchor x* = v1 with d(owner, x*) = 2; center knows d(center, x*) = 12.
        // est = 12 - 2 = 10 > lambda 8 -> far.
        let m = map(&[(1, 12)]);
        let sp = Endpoint::Special {
            vertex: NodeId::new(7),
            anchor: Some((NodeId::new(1), 2)),
        };
        assert!(endpoint_far(sp, NodeId::new(0), &m, 8));
        // est = 12 - 5 = 7 <= 8 -> cannot certify.
        let sp = Endpoint::Special {
            vertex: NodeId::new(7),
            anchor: Some((NodeId::new(1), 5)),
        };
        assert!(!endpoint_far(sp, NodeId::new(0), &m, 8));
    }

    #[test]
    fn special_without_anchor_is_conservative() {
        let m = map(&[]);
        let sp = Endpoint::Special {
            vertex: NodeId::new(7),
            anchor: None,
        };
        assert!(!endpoint_far(sp, NodeId::new(0), &m, 8));
    }

    #[test]
    fn special_exact_when_owner_is_stored() {
        let m = map(&[(7, 20)]);
        let sp = Endpoint::Special {
            vertex: NodeId::new(7),
            anchor: Some((NodeId::new(1), 0)),
        };
        assert!(endpoint_far(sp, NodeId::new(0), &m, 8));
        let m = map(&[(7, 5)]);
        assert!(!endpoint_far(sp, NodeId::new(0), &m, 8));
    }

    #[test]
    fn admission_requires_one_far_endpoint_per_center() {
        let centers = vec![
            (NodeId::new(100), Some(map(&[(1, 3), (2, 20)]))),
            (NodeId::new(101), Some(map(&[(1, 20), (2, 3)]))),
        ];
        let x = Endpoint::NetPoint(NodeId::new(1));
        let y = Endpoint::NetPoint(NodeId::new(2));
        // Center 100: x near (3 <= 8), y far (20 > 8). Center 101: x far, y
        // near. Both centers have a far endpoint -> admitted.
        assert!(edge_admitted(x, y, 8, &centers));
        // With lambda 25 nothing is far -> rejected.
        assert!(!edge_admitted(x, y, 25, &centers));
        // No centers -> always admitted.
        assert!(edge_admitted(x, y, 8, &[]));
    }

    #[test]
    fn unverifiable_center_vetoes_every_edge() {
        // A fault whose label cannot be checked (level-range mismatch)
        // must suppress all edges: distances can only overestimate.
        let centers = vec![(NodeId::new(100), None)];
        let x = Endpoint::NetPoint(NodeId::new(1));
        let y = Endpoint::NetPoint(NodeId::new(2));
        assert!(!edge_admitted(x, y, 8, &centers));
    }

    fn points(entries: &[(u32, u32)]) -> Vec<LabelPoint> {
        entries
            .iter()
            .map(|&(v, d)| LabelPoint {
                vertex: NodeId::new(v),
                dist: d,
                net_level: 0,
            })
            .collect()
    }

    #[test]
    fn lookup_sorted_matches_linear_scan() {
        // Exercise galloping across list lengths and probe positions,
        // including the bracket boundary where points[hi].vertex == v.
        for len in 0usize..20 {
            let pts = points(
                &(0..len)
                    .map(|k| (3 * k as u32 + 1, k as u32))
                    .collect::<Vec<_>>(),
            );
            for v in 0..70u32 {
                let expected = pts
                    .iter()
                    .find(|p| p.vertex == NodeId::new(v))
                    .map(|p| p.dist);
                assert_eq!(
                    lookup_sorted(&pts, NodeId::new(v)),
                    expected,
                    "len {len}, probe {v}"
                );
            }
        }
    }

    #[test]
    fn endpoint_far_sorted_agrees_with_hash_maps() {
        let entries = [(1u32, 3u32), (5, 12), (7, 20), (9, 1)];
        let mut sorted = entries;
        sorted.sort();
        let m = map(&entries);
        let pts = points(&sorted);
        let endpoints = [
            Endpoint::NetPoint(NodeId::new(1)),
            Endpoint::NetPoint(NodeId::new(2)),
            Endpoint::NetPoint(NodeId::new(9)),
            Endpoint::Special {
                vertex: NodeId::new(7),
                anchor: Some((NodeId::new(5), 2)),
            },
            Endpoint::Special {
                vertex: NodeId::new(42),
                anchor: Some((NodeId::new(5), 2)),
            },
            Endpoint::Special {
                vertex: NodeId::new(42),
                anchor: None,
            },
        ];
        for e in endpoints {
            for lambda in [0u64, 2, 8, 25] {
                for center in [NodeId::new(0), NodeId::new(7), NodeId::new(42)] {
                    assert_eq!(
                        endpoint_far_sorted(e, center, &pts, lambda),
                        endpoint_far(e, center, &m, lambda),
                        "{e:?} center {center:?} lambda {lambda}"
                    );
                }
            }
        }
    }

    #[test]
    fn strictly_sorted_rejects_duplicates_and_disorder() {
        assert!(strictly_sorted(&points(&[])));
        assert!(strictly_sorted(&points(&[(3, 0)])));
        assert!(strictly_sorted(&points(&[(1, 5), (2, 0), (9, 3)])));
        assert!(!strictly_sorted(&points(&[(2, 0), (2, 1)])));
        assert!(!strictly_sorted(&points(&[(5, 0), (1, 0)])));
    }

    #[test]
    fn scratch_epoch_advances_per_reset() {
        let mut scratch = DecodeScratch::new();
        assert_eq!(scratch.epoch(), 0);
        scratch.reset();
        scratch.reset();
        assert_eq!(scratch.epoch(), 2);
    }
}
