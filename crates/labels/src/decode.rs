//! The decoder: answers forbidden-set distance queries from labels alone.
//!
//! A query `(s, t, F)` receives `L(s)`, `L(t)` and the labels of every
//! forbidden vertex and edge, and *no other information about the graph*.
//! Following the paper, the answer is the distance from `s` to `t` in the
//! sketch graph `H`:
//!
//! 1. `H` is the union of the level graphs `H_i(v)` encoded in the labels
//!    of `F̄ = {s, t} ∪ F`, admitting a level-`i` edge only if it is
//!    certifiably outside the protected ball `PB_i(f) = B(f, λᵢ)` of every
//!    fault `f` (so the underlying path avoids `F`; Lemma 2.3), and
//!    admitting a lowest-level real edge only when neither endpoint nor the
//!    edge itself is forbidden;
//! 2. `d_H(s, t)` is `≥ d_{G∖F}(s,t)` always and `≤ (1+ε)·d_{G∖F}(s,t)` by
//!    Lemma 2.4.
//!
//! Two implementations compute it. The one every caller gets — [`query`],
//! [`query_many`], their `_with_scratch` forms, and through them
//! the oracle, the servers and the CLI — never builds `H`: it searches the
//! label levels directly, listing the admitted edges at a vertex only when
//! the search expands it (the `search` module; [`DecodeScratch`] holds its
//! buffers). The other, kept in this file, materializes all of `H` as a
//! [`SketchGraph`] and runs Dijkstra on it: [`build_sketch`],
//! [`query_reference`] and [`query_many_reference`]. It is the frozen differential
//! reference for the search, and what the trace, the Figure 1 experiment
//! and the Lemma 2.6 size accounting read, since those are about `H`
//! itself.
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

use fsdl_graph::{Dist, Edge, NodeId, SketchGraph};

use crate::label::Label;
use crate::params::SchemeParams;
pub use crate::search::DecodeScratch;

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
    ///
    /// Among equally short paths the decoder reports a canonical one: its
    /// search expands vertices in `(g + h, h, vertex id)` order — `g` the
    /// distance from `s`, `h` the stored `d_G` to `t` — and a vertex keeps
    /// the first parent that gave it its final `g`. That makes the path a
    /// function of `H` alone: permuting [`QueryLabels`], or swapping the
    /// endpoints of an edge fault, leaves the whole answer unchanged.
    pub path: Vec<NodeId>,
    /// Number of sketch vertices the search reached (`s` included). The
    /// whole of `H` — what Lemma 2.6 bounds — is [`build_sketch`]'s to
    /// count.
    pub sketch_vertices: usize,
    /// Number of admitted sketch edges the search relaxed, parallel copies
    /// (the same edge stored in several labels or levels) each counted.
    pub sketch_edges: usize,
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

/// [`query`] by the book: materialize all of `H` with [`build_sketch`],
/// then Dijkstra. The frozen differential reference for the search behind
/// [`query_with_scratch`] — same `distance`, always; the witness path may
/// be a different equally short one (ties go to the vertex `H` interned
/// first), and the two `sketch_*` fields count all of `H` here. The T14
/// latency experiment measures one against the other.
pub fn query_reference(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
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
    match h.shortest_path(s, t) {
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
/// path for serving loops, where each worker reuses one scratch across many
/// queries. Same answer as [`query`], bit for bit, and the same `distance`
/// as the reference [`query_reference`].
pub fn query_with_scratch(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> QueryAnswer {
    crate::search::query(params, source, target, faults, scratch)
}

/// [`query_many`] with a caller-provided [`DecodeScratch`]; same
/// distances, bit for bit, without the per-call allocations.
pub fn query_many_with_scratch(
    params: &SchemeParams,
    source: &Label,
    targets: &[&Label],
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> Vec<Dist> {
    crate::search::query_many(params, source, targets, faults, scratch)
}

/// Answers one-to-many queries `(s, tᵢ, F)` for a batch of targets with a
/// *single* search from `s`, run (without a heuristic) until every target
/// is settled.
///
/// The sketch defined by `{s} ∪ {tᵢ} ∪ F` is a superset of each individual
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
    query_many_with_scratch(params, source, targets, faults, &mut DecodeScratch::new())
}

/// [`query_many`] by the book: one sketch from all the labels, one
/// Dijkstra pass over it. The differential reference for the one-to-many
/// search; same distances.
pub fn query_many_reference(
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
/// plain query, `1 + |targets|` for [`query_many_reference`]).
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
        .filter(|(a, b)| a.owner != b.owner)
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

            // Virtual edges between stored points. Indices were in range
            // when the level was built; skip (never index past the point
            // list) if it has been shortened since.
            for e in level.virtual_edges() {
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
            for e in level.real_edges() {
                let (Some(pu), Some(pw)) = (
                    level.points.get(e.a as usize),
                    level.points.get(e.b as usize),
                ) else {
                    continue;
                };
                let (u, w) = (pu.vertex, pw.vertex);
                if u == w || forbidden_vertices.contains(&u) || forbidden_vertices.contains(&w) {
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
}
