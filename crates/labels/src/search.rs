//! The production decoder: a lazy goal-directed search run directly on the
//! label levels.
//!
//! The sketch graph `H(s, t, F)` of [`crate::decode`] is never built. A
//! query needs one shortest path in it, and every arc of `H` out of a
//! vertex `x` can be listed from the labels alone: look `x` up in each
//! level of each label of `F̄ = {s, t} ∪ F`, and read its row of the level's
//! virtual and real edges (both directions — see [`crate::LevelLabel`]),
//! plus the owner edge to or from the label's owner. Each listed arc takes
//! the same protected-ball admission test as in the reference builder, so
//! the arcs relaxed are exactly the edges of `H` at `x`, and the distance
//! found is `d_H(s, t)` bit for bit.
//!
//! ## The heuristic
//!
//! The frontier is ordered by `g + h`, where `h(x) = d_G(x, t)` is read
//! from `L(t)`'s point lists (0 for a vertex `L(t)` does not store, and
//! for `t` itself). Every edge of `H` weighs exactly `d_G` of its
//! endpoints and `d_G ≤ d_{G∖F} ≤ d_H`, so `h` never overestimates the
//! remaining distance: the first time `t` leaves the frontier its `g` is
//! `d_H(s, t)`. On builder-made labels `h` is also consistent wherever it
//! is nonzero; the zeros make it inconsistent, so a vertex may re-enter
//! the frontier when its `g` improves. (A hand-built `L(t)` whose stored
//! distances are not `d_G` can make `h` overestimate; the answer is then
//! still the length of a walk in `H`, so still `≥ d_{G∖F}` for sound
//! labels, but not necessarily the shortest. For the same reason a vertex
//! missing from `L(t)` gets 0 and not the radius of the level that would
//! have stored it: that bound holds only for complete levels.) Without
//! faults the search walks almost straight to `t`; with faults it is what
//! keeps the number of expanded vertices — each one a scan of its rows in
//! `2 + |F|` labels — far below the number of vertices of `H`.
//!
//! ## The canonical witness path
//!
//! The frontier is a set ordered by `(g + h, h, vertex id)`, and a
//! vertex's parent changes only on a strict improvement of `g`. Which
//! vertex is expanded next, and hence the whole run — the path, the
//! distance and both counters of [`QueryAnswer`] — is a function of the
//! multiset of admitted arcs alone: not of the order the fault labels were
//! handed in, nor of which endpoint of an edge fault came first.
//!
//! ## One search, two uses
//!
//! [`query_many`] is the same routine with `h ≡ 0`, run until every
//! requested target has left the frontier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fsdl_graph::{Dist, Edge, Interner, NodeId};

use crate::decode::{QueryAnswer, QueryLabels};
use crate::label::{Label, LabelPoint};
use crate::params::SchemeParams;

/// `g` of a vertex no admitted arc has reached.
const UNREACHED: u64 = u64::MAX;
/// `h` of a vertex whose heuristic has not been looked up yet.
const UNSET: u64 = u64::MAX;

/// Search state of one interned vertex.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Length of the best walk from the source found so far.
    g: u64,
    /// The heuristic, looked up once when the vertex is first reached.
    h: u64,
    /// Intern index of the vertex the best walk arrives from.
    parent: u32,
    /// A target of a one-to-many search that has not left the frontier.
    wanted: bool,
}

const FRESH: Node = Node {
    g: UNREACHED,
    h: UNSET,
    parent: u32::MAX,
    wanted: false,
};

/// A frontier entry, least first: `(g + h, h, vertex, intern index)`.
type Entry = Reverse<(u64, u64, NodeId, u32)>;

/// The part of the scratch the search mutates while it runs.
#[derive(Debug, Default)]
struct Frontier {
    ids: Interner,
    /// Parallel to the interner's indices.
    nodes: Vec<Node>,
    heap: BinaryHeap<Entry>,
    /// Vertices with a finite `g` (the source included).
    reached: usize,
    /// Admitted arcs scanned out of expanded vertices.
    relaxed: usize,
}

impl Frontier {
    fn intern(&mut self, v: NodeId) -> u32 {
        let idx = self.ids.intern(v);
        if self.nodes.len() < self.ids.len() {
            self.nodes.push(FRESH);
        }
        idx
    }
}

/// What the plan records per (provider label, level).
#[derive(Clone, Copy, Debug)]
struct ProviderLevel {
    /// The point list is strictly sorted by vertex, so a binary search
    /// finds a vertex's one occurrence; otherwise (hand-built labels) the
    /// list is scanned and every occurrence counts, as in the reference.
    sorted: bool,
    /// Start of this level's block in [`Plan::near`].
    masks: usize,
}

/// Everything about a query that is fixed before the first expansion.
#[derive(Debug, Default)]
struct Plan {
    /// Sorted, deduplicated — membership via binary search.
    forbidden_vertices: Vec<NodeId>,
    /// Sorted, deduplicated — membership via binary search.
    forbidden_edges: Vec<Edge>,
    seen_owners: Vec<NodeId>,
    /// Chain positions of the labels whose level graphs feed `H`: the
    /// first occurrence of each owner, if its level range is usable.
    providers: Vec<usize>,
    /// `providers.len() × num_levels` entries.
    levels: Vec<ProviderLevel>,
    /// Words per near mask: one bit per protected-ball center. Zero when
    /// there are no centers (every arc passes) or [`Plan::veto`] is set.
    words: usize,
    /// A center's label is unusable, so its protected balls cannot be
    /// checked: every owner and virtual arc is refused — the conservative,
    /// sound direction. Real arcs do not go through admission.
    veto: bool,
    /// Per interned vertex and level, the centers whose protected ball
    /// holds the vertex: rows of `num_levels × words`, by intern index.
    near_by_vertex: Vec<u64>,
    /// The same masks gathered per provider level, indexed like its point
    /// list so an arc is tested with two loads. A block is `words`-sized
    /// rows: the owner's mask (by certificate), the intersection of all
    /// point masks, then one mask per point.
    near: Vec<u64>,
    /// Per (level, center): is the center's point list strictly sorted?
    center_sorted: Vec<bool>,
}

impl Plan {
    fn is_forbidden(&self, v: NodeId) -> bool {
        self.forbidden_vertices.binary_search(&v).is_ok()
    }

    fn masks(&self, level: ProviderLevel, num_points: usize) -> Masks<'_> {
        Masks {
            rows: &self.near[level.masks..level.masks + (2 + num_points) * self.words],
            words: self.words,
        }
    }
}

/// One provider level's block of [`Plan::near`]. With `words == 0` every
/// row is empty and every test passes.
#[derive(Clone, Copy)]
struct Masks<'p> {
    rows: &'p [u64],
    words: usize,
}

impl<'p> Masks<'p> {
    fn row(self, r: usize) -> &'p [u64] {
        &self.rows[r * self.words..(r + 1) * self.words]
    }

    /// Centers the label's owner cannot be certified far from.
    fn owner(self) -> &'p [u64] {
        self.row(0)
    }

    /// Centers near *every* point of the level: an endpoint near one of
    /// them has no admissible arc here, so its rows need no scan.
    fn all(self) -> &'p [u64] {
        self.row(1)
    }

    fn point(self, pi: usize) -> &'p [u64] {
        self.row(2 + pi)
    }
}

/// The candidate edge between two endpoints is admitted iff no center is
/// near both.
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// The labels of `F̄`, in the order the reference builder walks them:
/// source, targets, fault vertices, then both ends of each fault edge.
#[derive(Clone, Copy)]
struct Chain<'q, 'a> {
    source: &'a Label,
    targets: &'q [&'a Label],
    faults: &'q QueryLabels<'a>,
}

impl<'a> Chain<'_, 'a> {
    fn len(&self) -> usize {
        1 + self.targets.len()
            + self.faults.fault_vertices.len()
            + 2 * self.faults.fault_edges.len()
    }

    fn label(&self, pos: usize) -> &'a Label {
        let Some(pos) = pos.checked_sub(1) else {
            return self.source;
        };
        if let Some(t) = self.targets.get(pos) {
            return t;
        }
        let pos = pos - self.targets.len();
        if let Some(f) = self.faults.fault_vertices.get(pos) {
            return f;
        }
        let pos = pos - self.faults.fault_vertices.len();
        let (a, b) = self.faults.fault_edges[pos / 2];
        [a, b][pos % 2]
    }

    fn num_centers(&self) -> usize {
        self.faults.len()
    }

    /// The `k`-th protected-ball center: forbidden vertices first, then
    /// the canonical (smaller-id) endpoint of each forbidden edge.
    fn center(&self, k: usize) -> &'a Label {
        let nv = self.faults.fault_vertices.len();
        if k < nv {
            return self.faults.fault_vertices[k];
        }
        let (a, b) = self.faults.fault_edges[k - nv];
        if a.owner <= b.owner {
            a
        } else {
            b
        }
    }
}

/// Reusable buffers for the decoder.
///
/// One scratch owns everything a query would otherwise allocate: the
/// per-vertex search state and its intern table, the frontier heap, the
/// sorted forbidden sets, and the admission masks. After a few warm-up
/// queries every buffer has grown to the working-set size and
/// [`crate::query_with_scratch`] allocates nothing but the returned answer.
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
    plan: Plan,
    frontier: Frontier,
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
        let Plan {
            forbidden_vertices,
            forbidden_edges,
            seen_owners,
            providers,
            levels,
            words,
            veto,
            near_by_vertex,
            near,
            center_sorted,
        } = &mut self.plan;
        forbidden_vertices.clear();
        forbidden_edges.clear();
        seen_owners.clear();
        providers.clear();
        levels.clear();
        (*words, *veto) = (0, false);
        near_by_vertex.clear();
        near.clear();
        center_sorted.clear();
        let Frontier {
            ids,
            nodes,
            heap,
            reached,
            relaxed,
        } = &mut self.frontier;
        ids.reset();
        nodes.clear();
        heap.clear();
        (*reached, *relaxed) = (0, 0);
    }

    /// Resets, then records who provides level graphs and what is
    /// forbidden — all the early exits need.
    fn begin(&mut self, params: &SchemeParams, chain: Chain<'_, '_>) {
        self.reset();
        let plan = &mut self.plan;
        // First occurrence of an owner wins; unusable labels contribute no
        // level graphs (sound: fewer arcs can only overestimate). The
        // chain is short, so the linear dedup scan beats a hash set
        // without allocating.
        for pos in 0..chain.len() {
            let l = chain.label(pos);
            if !plan.seen_owners.contains(&l.owner) {
                plan.seen_owners.push(l.owner);
                if usable(params, l) {
                    plan.providers.push(pos);
                }
            }
        }
        let faults = chain.faults;
        plan.forbidden_vertices
            .extend(faults.fault_vertices.iter().map(|l| l.owner));
        plan.forbidden_vertices.sort_unstable();
        plan.forbidden_vertices.dedup();
        plan.forbidden_edges.extend(
            faults
                .fault_edges
                .iter()
                .filter(|(a, b)| a.owner != b.owner)
                .map(|(a, b)| Edge::new(a.owner, b.owner)),
        );
        plan.forbidden_edges.sort_unstable();
        plan.forbidden_edges.dedup();
    }

    /// Fills in the per-level facts of the plan: which point lists can be
    /// binary-searched and, when there are centers, the near masks.
    fn plan_levels(&mut self, params: &SchemeParams, chain: Chain<'_, '_>) {
        let DecodeScratch { plan, frontier, .. } = self;
        let num_centers = chain.num_centers();
        let num_levels = params.num_levels();
        plan.veto = (0..num_centers).any(|k| !usable(params, chain.center(k)));
        if !plan.veto {
            plan.words = num_centers.div_ceil(64);
        }
        let words = plan.words;
        let stride = num_levels * words;

        // Near masks by vertex. A vertex is near center `k` at level `i`
        // iff it *is* the center or the center's level-`i` list stores it
        // within `λᵢ`; absence certifies `d > rᵢ > λᵢ`. One pass over each
        // center's lists, whatever their order; a later duplicate
        // overrides an earlier one, like the reference's map.
        if words > 0 {
            for (li, i) in params.levels().enumerate() {
                let lambda = params.lambda(i);
                for k in 0..num_centers {
                    let center = chain.center(k);
                    let (w, bit) = (li * words + k / 64, 1u64 << (k % 64));
                    let mut set_near = |v: NodeId, near: bool| {
                        let at = frontier.intern(v) as usize * stride + w;
                        if plan.near_by_vertex.len() <= at {
                            plan.near_by_vertex.resize((at / stride + 1) * stride, 0);
                        }
                        let cell = &mut plan.near_by_vertex[at];
                        *cell = if near { *cell | bit } else { *cell & !bit };
                    };
                    let points = level_points(center, i);
                    for p in points {
                        set_near(p.vertex, u64::from(p.dist) <= lambda);
                    }
                    set_near(center.owner, true);
                    plan.center_sorted.push(strictly_sorted(points));
                }
            }
        }

        for &pos in &plan.providers {
            let label = chain.label(pos);
            for (li, i) in params.levels().enumerate() {
                let masks = plan.near.len();
                let Some(level) = label.level(i) else {
                    plan.levels.push(ProviderLevel {
                        sorted: true,
                        masks,
                    });
                    continue;
                };
                let points = &level.points;
                plan.levels.push(ProviderLevel {
                    sorted: strictly_sorted(points),
                    masks,
                });
                if words == 0 {
                    continue;
                }
                plan.near.resize(masks + (2 + points.len()) * words, 0);
                let (head, rows) = plan.near[masks..].split_at_mut(2 * words);
                let (owner, all) = head.split_at_mut(words);
                all.fill(u64::MAX);
                for (p, row) in points.iter().zip(rows.chunks_exact_mut(words)) {
                    let by_vertex = frontier
                        .ids
                        .index_of(p.vertex)
                        .map(|idx| idx as usize * stride + li * words)
                        .and_then(|at| plan.near_by_vertex.get(at..at + words));
                    if let Some(mask) = by_vertex {
                        row.copy_from_slice(mask);
                    }
                    for (a, r) in all.iter_mut().zip(row.iter()) {
                        *a &= r;
                    }
                }
                // The owner is not a stored net point of anyone's list in
                // general; it is certified far through its nearest stored
                // point.
                let anchor = points
                    .iter()
                    .min_by_key(|p| (p.dist, p.vertex))
                    .map(|p| (p.vertex, p.dist));
                let lambda = params.lambda(i);
                for k in 0..num_centers {
                    let center = chain.center(k);
                    let sorted = plan.center_sorted[li * num_centers + k];
                    let far = owner_far(
                        label.owner,
                        anchor,
                        center.owner,
                        |v| lookup(level_points(center, i), sorted, v),
                        lambda,
                    );
                    if !far {
                        owner[k / 64] |= 1u64 << (k % 64);
                    }
                }
            }
        }
    }
}

/// A label is usable only when its level range agrees with `params`;
/// anything else (a label from a different labeling, or hand-built data)
/// must not feed arcs into the search.
fn usable(params: &SchemeParams, l: &Label) -> bool {
    l.first_level == params.c() + 1
}

/// A label's level-`i` point list (empty when the level is absent —
/// absence of a point then certifies "far", exactly like the reference
/// builder's empty map).
fn level_points(label: &Label, i: u32) -> &[LabelPoint] {
    label.level(i).map_or(&[], |lvl| lvl.points.as_slice())
}

/// Binary search over a point list is exact only when it is strictly
/// sorted by vertex; [`Label::validate`] enforces this for decoded labels,
/// but the decoder re-checks so hand-built labels take the scanning path
/// instead of silently missing entries.
fn strictly_sorted(points: &[LabelPoint]) -> bool {
    points.windows(2).all(|w| w[0].vertex < w[1].vertex)
}

/// The stored distance of `v` in a point list: by binary search when the
/// list is strictly sorted, else the last matching entry — what the
/// reference builder's map, collected in list order, would hold.
fn lookup(points: &[LabelPoint], sorted: bool, v: NodeId) -> Option<u32> {
    if sorted {
        let at = points.binary_search_by_key(&v, |p| p.vertex).ok()?;
        Some(points[at].dist)
    } else {
        points.iter().rev().find(|p| p.vertex == v).map(|p| p.dist)
    }
}

/// Every index at which `x` occurs in a point list.
fn occurrences(points: &[LabelPoint], sorted: bool, x: NodeId) -> impl Iterator<Item = usize> + '_ {
    let (hit, scanned) = if sorted {
        (points.binary_search_by_key(&x, |p| p.vertex).ok(), &[][..])
    } else {
        (None, points)
    };
    let scan = scanned
        .iter()
        .enumerate()
        .filter(move |(_, p)| p.vertex == x)
        .map(|(pi, _)| pi);
    hit.into_iter().chain(scan)
}

/// Certifies `d_G(owner, center) > λ` for a label owner from label data
/// (sound: never `true` when the owner is inside the protected ball).
/// `center_dist` reads the center's own level list. The same certificate
/// as the reference builder's `endpoint_far` on a special endpoint.
fn owner_far(
    owner: NodeId,
    anchor: Option<(NodeId, u32)>,
    center: NodeId,
    center_dist: impl Fn(NodeId) -> Option<u32>,
    lambda: u64,
) -> bool {
    if owner == center {
        return false;
    }
    // If the owner happens to be a stored net point itself, its own
    // presence in the center's list is already exact.
    if let Some(d) = center_dist(owner) {
        return u64::from(d) > lambda;
    }
    let Some((xstar, d_ux)) = anchor else {
        // No stored point at all (isolated region): cannot certify.
        return false;
    };
    match center_dist(xstar) {
        // d(center, x*) > r_i, hence
        // d(center, owner) >= d(center, x*) - d(owner, x*)
        //                  >  r_i - rho_i > lambda.
        None => true,
        Some(d_fx) => u64::from(d_fx).saturating_sub(u64::from(d_ux)) > lambda,
    }
}

/// `h(x) = d_G(x, t)` as `L(t)` stores it, else 0.
struct Heuristic<'p, 'a> {
    target: &'a Label,
    /// The target's entries of [`Plan::levels`]; empty when the target
    /// provides nothing (unusable label) and for one-to-many searches, so
    /// `h ≡ 0`.
    levels: &'p [ProviderLevel],
}

impl Heuristic<'_, '_> {
    fn at(&self, x: NodeId) -> u64 {
        if x == self.target.owner {
            return 0;
        }
        // Lowest level first: it stores the densest net. The distance is
        // the same `d_G` at whichever level stores `x`.
        self.levels
            .iter()
            .zip(&self.target.levels)
            .filter(|(facts, _)| facts.sorted)
            .find_map(|(_, level)| level.dist_to(x))
            .map_or(0, u64::from)
    }
}

/// One expansion's view of the query.
struct Expansion<'p, 'q, 'a> {
    params: &'p SchemeParams,
    chain: Chain<'q, 'a>,
    plan: &'p Plan,
    heuristic: Heuristic<'p, 'a>,
    /// Intern index of the single target, whose tentative `g` bounds what
    /// is worth queueing; `None` for one-to-many searches.
    goal: Option<u32>,
}

impl Expansion<'_, '_, '_> {
    /// Relaxes every admitted arc of `H` out of `x`.
    fn expand(&self, frontier: &mut Frontier, x: NodeId, xi: u32) {
        let plan = self.plan;
        let gx = frontier.nodes[xi as usize].g;
        let mut relax = |y: NodeId, weight: u64| {
            frontier.relaxed += 1;
            let yi = frontier.intern(y);
            let g = gx.saturating_add(weight);
            let node = &mut frontier.nodes[yi as usize];
            if g >= node.g {
                return;
            }
            if node.g == UNREACHED {
                frontier.reached += 1;
            }
            if node.h == UNSET {
                node.h = self.heuristic.at(y);
            }
            (node.g, node.parent) = (g, xi);
            let (f, h) = (g.saturating_add(node.h), node.h);
            // An entry that sorts after the target's own can never be
            // popped before the search ends; the vertex is queued again
            // if its `g` improves.
            let bound = self
                .goal
                .map_or(u64::MAX, |ti| frontier.nodes[ti as usize].g);
            if f <= bound {
                frontier.heap.push(Reverse((f, h, y, yi)));
            }
        };
        let x_forbidden = plan.is_forbidden(x);
        let num_levels = self.params.num_levels();
        for (provider, &pos) in plan.providers.iter().enumerate() {
            let label = self.chain.label(pos);
            let facts = &plan.levels[provider * num_levels..(provider + 1) * num_levels];
            for (i, &facts) in self.params.levels().zip(facts) {
                let Some(level) = label.level(i) else {
                    continue;
                };
                let lambda = self.params.lambda(i);
                let points = &level.points;
                let masks = plan.masks(facts, points.len());
                let admit_owner = !plan.veto && disjoint(masks.owner(), masks.all());

                // Owner edges, from the owner: every stored point within λ.
                if label.owner == x && admit_owner {
                    for (pi, p) in points.iter().enumerate() {
                        if p.vertex != x
                            && u64::from(p.dist) <= lambda
                            && disjoint(masks.owner(), masks.point(pi))
                        {
                            relax(p.vertex, u64::from(p.dist));
                        }
                    }
                }

                for px in occurrences(points, facts.sorted, x) {
                    let near_x = masks.point(px);
                    // The owner edge, from the stored point's side.
                    let p = points[px];
                    if label.owner != x
                        && admit_owner
                        && u64::from(p.dist) <= lambda
                        && disjoint(masks.owner(), near_x)
                    {
                        relax(label.owner, u64::from(p.dist));
                    }
                    // Virtual edges: the rows of the level's points in its
                    // edge set, each arc's other end mapped to its index
                    // by a search of the level's row list. Endpoint indices
                    // were in range when the level was built; skip (never
                    // index past the point list) if it has been shortened
                    // since.
                    if !plan.veto && disjoint(near_x, masks.all()) {
                        let rows = level.virtual_rows();
                        let out = rows.outgoing(px).map(|arc| (arc.b, arc.dist));
                        let inc = rows.incoming(px).map(|(a, arc)| (a, arc.dist));
                        for (other, dist) in out.chain(inc) {
                            if let Some(q) = points.get(other as usize) {
                                if disjoint(near_x, masks.point(other as usize)) {
                                    relax(q.vertex, u64::from(dist));
                                }
                            }
                        }
                    }
                    // Lowest-level real edges: admitted when untouched by F.
                    if !x_forbidden {
                        let rows = level.real_rows();
                        let out = rows.outgoing(px);
                        let inc = rows.incoming(px).map(|(a, _)| a);
                        for other in out.chain(inc) {
                            let Some(q) = points.get(other as usize) else {
                                continue;
                            };
                            let y = q.vertex;
                            if y == x || plan.is_forbidden(y) {
                                continue;
                            }
                            if !plan.forbidden_edges.is_empty()
                                && plan.forbidden_edges.binary_search(&Edge::new(x, y)).is_ok()
                            {
                                continue;
                            }
                            relax(y, 1);
                        }
                    }
                }
            }
        }
    }
}

/// Runs the search from `source` until `done` says so or the frontier is
/// empty. `done` sees each vertex as it leaves the frontier, before it is
/// expanded.
fn run(
    frontier: &mut Frontier,
    expansion: &Expansion<'_, '_, '_>,
    source: NodeId,
    mut done: impl FnMut(&mut Frontier, u32) -> bool,
) {
    let si = frontier.intern(source);
    let h = expansion.heuristic.at(source);
    let node = &mut frontier.nodes[si as usize];
    (node.g, node.h) = (0, h);
    frontier.reached = 1;
    frontier.heap.push(Reverse((h, h, source, si)));
    while let Some(Reverse((f, _, x, xi))) = frontier.heap.pop() {
        let node = frontier.nodes[xi as usize];
        if f != node.g.saturating_add(node.h) {
            continue; // superseded by a shorter route
        }
        if done(frontier, xi) {
            break;
        }
        expansion.expand(frontier, x, xi);
    }
}

/// A sketch distance as a [`Dist`]: finite distances that do not fit widen
/// to INFINITE (a sound overestimate), never clamp down — that would be a
/// finite underestimate and break the Theorem 2.1 lower bound.
fn widen(g: u64) -> Dist {
    Dist::try_new(g).unwrap_or(Dist::INFINITE)
}

/// The single-pair query: see [`crate::query_with_scratch`].
pub(crate) fn query(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> QueryAnswer {
    let chain = Chain {
        source,
        targets: &[target],
        faults,
    };
    scratch.begin(params, chain);
    let (s, t) = (source.owner, target.owner);
    let unreachable = |sketch_vertices, sketch_edges| QueryAnswer {
        distance: Dist::INFINITE,
        path: Vec::new(),
        sketch_vertices,
        sketch_edges,
    };
    if scratch.plan.is_forbidden(s) || scratch.plan.is_forbidden(t) {
        return unreachable(0, 0);
    }
    if s == t {
        return QueryAnswer {
            distance: Dist::ZERO,
            path: vec![s],
            sketch_vertices: 1,
            sketch_edges: 0,
        };
    }
    scratch.plan_levels(params, chain);
    let DecodeScratch { plan, frontier, .. } = scratch;
    let num_levels = params.num_levels();
    // The target's plan entries, if it provides (chain position 1).
    let target_levels = plan
        .providers
        .iter()
        .position(|&pos| pos == 1)
        .map_or(&[][..], |pi| {
            &plan.levels[pi * num_levels..(pi + 1) * num_levels]
        });
    let ti = frontier.intern(t);
    let expansion = Expansion {
        params,
        chain,
        plan,
        heuristic: Heuristic {
            target,
            levels: target_levels,
        },
        goal: Some(ti),
    };
    run(frontier, &expansion, s, |_, xi| xi == ti);
    let g = frontier.nodes[ti as usize].g;
    if g == UNREACHED {
        return unreachable(frontier.reached, frontier.relaxed);
    }
    // Parents were set on strict improvements only, so they lead back to
    // the source; the bound guards the walk against a scratch bug, not
    // against label content.
    let mut path = vec![t];
    let mut cur = ti;
    while frontier.ids.name(cur) != s && path.len() <= frontier.nodes.len() {
        cur = frontier.nodes[cur as usize].parent;
        path.push(frontier.ids.name(cur));
    }
    path.reverse();
    QueryAnswer {
        distance: widen(g),
        path,
        sketch_vertices: frontier.reached,
        sketch_edges: frontier.relaxed,
    }
}

/// The one-to-many query: see [`crate::query_many_with_scratch`].
pub(crate) fn query_many(
    params: &SchemeParams,
    source: &Label,
    targets: &[&Label],
    faults: &QueryLabels<'_>,
    scratch: &mut DecodeScratch,
) -> Vec<Dist> {
    let chain = Chain {
        source,
        targets,
        faults,
    };
    scratch.begin(params, chain);
    let s = source.owner;
    if scratch.plan.is_forbidden(s) {
        return vec![Dist::INFINITE; targets.len()];
    }
    scratch.plan_levels(params, chain);
    let DecodeScratch { plan, frontier, .. } = scratch;
    let mut wanted = 0usize;
    for t in targets {
        if t.owner != s && !plan.is_forbidden(t.owner) {
            let ti = frontier.intern(t.owner) as usize;
            wanted += usize::from(!std::mem::replace(&mut frontier.nodes[ti].wanted, true));
        }
    }
    if wanted > 0 {
        let expansion = Expansion {
            params,
            chain,
            plan,
            heuristic: Heuristic {
                target: source,
                levels: &[],
            },
            goal: None,
        };
        run(frontier, &expansion, s, |frontier, xi| {
            // With `h ≡ 0` the order is Dijkstra's: a vertex leaves the
            // frontier once, with its final distance.
            wanted -= usize::from(std::mem::take(&mut frontier.nodes[xi as usize].wanted));
            wanted == 0
        });
    }
    targets
        .iter()
        .map(|t| {
            if plan.is_forbidden(t.owner) {
                return Dist::INFINITE;
            }
            if t.owner == s {
                return Dist::ZERO;
            }
            match frontier.ids.index_of(t.owner) {
                Some(ti) if frontier.nodes[ti as usize].g != UNREACHED => {
                    widen(frontier.nodes[ti as usize].g)
                }
                _ => Dist::INFINITE,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn strictly_sorted_rejects_duplicates_and_disorder() {
        assert!(strictly_sorted(&points(&[])));
        assert!(strictly_sorted(&points(&[(3, 0)])));
        assert!(strictly_sorted(&points(&[(1, 5), (2, 0), (9, 3)])));
        assert!(!strictly_sorted(&points(&[(2, 0), (2, 1)])));
        assert!(!strictly_sorted(&points(&[(5, 0), (1, 0)])));
    }

    #[test]
    fn lookup_and_occurrences_agree_with_a_scan() {
        let sorted = points(&[(1, 3), (5, 12), (7, 20), (9, 1)]);
        let messy = points(&[(7, 20), (1, 3), (7, 4), (5, 12)]);
        for v in 0..11u32 {
            let v = NodeId::new(v);
            let scan: Vec<usize> = (0..4).filter(|&k| sorted[k].vertex == v).collect();
            assert_eq!(occurrences(&sorted, true, v).collect::<Vec<_>>(), scan);
            assert_eq!(
                lookup(&sorted, true, v),
                scan.last().map(|&k| sorted[k].dist)
            );
            let scan: Vec<usize> = (0..4).filter(|&k| messy[k].vertex == v).collect();
            assert_eq!(occurrences(&messy, false, v).collect::<Vec<_>>(), scan);
            // The last duplicate wins, as in a map collected in list order.
            assert_eq!(
                lookup(&messy, false, v),
                scan.last().map(|&k| messy[k].dist)
            );
        }
    }

    #[test]
    fn owner_certificate_lower_bound() {
        let list = points(&[(1, 12), (7, 5)]);
        let dist = |v| lookup(&list, true, v);
        let (owner, center) = (NodeId::new(3), NodeId::new(0));
        // est = d(center, x*) − d(owner, x*) = 12 − 2 = 10 > 8 → far.
        assert!(owner_far(owner, Some((NodeId::new(1), 2)), center, dist, 8));
        // est = 12 − 5 = 7 ≤ 8 → cannot certify.
        assert!(!owner_far(
            owner,
            Some((NodeId::new(1), 5)),
            center,
            dist,
            8
        ));
        // An anchor the center does not store is beyond r > λ.
        assert!(owner_far(owner, Some((NodeId::new(2), 0)), center, dist, 8));
        // No anchor, or the owner is the center: never far.
        assert!(!owner_far(owner, None, center, dist, 8));
        assert!(!owner_far(
            center,
            Some((NodeId::new(2), 0)),
            center,
            dist,
            8
        ));
        // A stored owner is decided exactly, anchor or not.
        assert!(!owner_far(
            NodeId::new(7),
            Some((NodeId::new(2), 0)),
            center,
            dist,
            8
        ));
        assert!(owner_far(NodeId::new(7), None, center, dist, 4));
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
