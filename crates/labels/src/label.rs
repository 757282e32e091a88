//! The per-vertex label data structures.
//!
//! A vertex label `L(v)` is a list of level labels `L_i(v)`, `i ∈ I`; each
//! level label encodes the weighted graph `H_i(v)`:
//!
//! * **points** — the vertices of `H_i(v)`: every net point of
//!   `N_{i−c−1} ∩ B(v, rᵢ)`, stored with its exact distance from `v` and its
//!   maximal net level. The implicit *owner edges* `(v, x)` of the paper are
//!   exactly the points with `d_G(v, x) ≤ λᵢ`.
//! * **virtual edges** — pairs `(x, y)` of stored points with
//!   `d_G(x, y) ≤ λᵢ`, weighted by `d_G(x, y)`. Following the analysis (only
//!   edges with a waypoint endpoint are ever used), we store a pair only
//!   when at least one endpoint lies in `N_{i−c}` — an optimization that
//!   keeps every edge the existence proof needs while shrinking labels by
//!   roughly a `2^α` factor.
//! * **real edges** — at the lowest level `c+1` only: the edges of `G`
//!   inside `B(v, r_{c+1})`, stored as index pairs into the point list.
//!
//! Both kinds of edge are held as rows by first endpoint plus a transpose
//! (`EdgeRows`), not as flat lists: the decoder expands one vertex at a
//! time and needs that vertex's edges, in both directions, without walking
//! the level. A built or derived level holds no rows of its own: it is its
//! points plus, per point, that point's row in its level's one edge set
//! `Eᵢ` ([`crate::EdgeSets`]), and its edges are `Eᵢ`'s arcs between two
//! of its points. Only [`LevelLabel::new`] and the codec's decoder build
//! rows over a level's own points. [`LevelLabel::virtual_edges`] and
//! [`LevelLabel::real_edges`] read the flat lists back.

use std::sync::Arc;

use fsdl_graph::NodeId;

use crate::codec::CodecError;

/// One stored net point of a level label, with its exact distance from the
/// label's owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelPoint {
    /// The net point (a vertex of `G`).
    pub vertex: NodeId,
    /// Exact `d_G(owner, vertex)`.
    pub dist: u32,
    /// The largest `j` with `vertex ∈ N_j` (its maximal net level).
    pub net_level: u32,
}

/// A virtual edge between two stored points (indices into
/// [`LevelLabel::points`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtualEdge {
    /// Index of the first endpoint in the level's point list.
    pub a: u32,
    /// Index of the second endpoint in the level's point list.
    pub b: u32,
    /// Exact `d_G` between the endpoints (`≤ λᵢ`).
    pub dist: u32,
}

/// A weight-1 edge of `G` stored at the lowest level (indices into
/// [`LevelLabel::points`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RealEdge {
    /// Index of the first endpoint in the level's point list.
    pub a: u32,
    /// Index of the second endpoint in the level's point list.
    pub b: u32,
}

/// One arc of an edge row: whatever an edge `(a, b)` stores besides its
/// row index `a`.
pub(crate) trait RowArc: Copy + Default {
    /// The edge's second endpoint `b` (an index into the point list).
    fn target(self) -> u32;
    /// The same arc with second endpoint `b`.
    fn with_target(self, b: u32) -> Self;
}

/// A virtual edge `(a, b, dist)` seen from its row `a`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VirtualArc {
    pub(crate) b: u32,
    pub(crate) dist: u32,
}

impl RowArc for VirtualArc {
    fn target(self) -> u32 {
        self.b
    }

    fn with_target(self, b: u32) -> Self {
        VirtualArc { b, ..self }
    }
}

/// A real edge `(a, b)` seen from its row `a` is just `b`.
impl RowArc for u32 {
    fn target(self) -> u32 {
        self
    }

    fn with_target(self, b: u32) -> Self {
        b
    }
}

/// The edges of one kind at one level, stored so that *both* directions
/// of a point are one contiguous scan — what the decoder's search needs to
/// expand a vertex without touching the rest of the level.
///
/// Edge `(a, b, …)` is stored once, as an arc in row `a` (`fwd`, rows
/// delimited by `off`, so `a` costs no bytes); the transpose lists, per
/// point `b`, the positions in `fwd` of the arcs that end at `b`. That is
/// `size_of::<T>() + 4` bytes per edge — 12 for a virtual edge, 8 for a
/// real one, the same as the flat `(a, b, dist)` / `(a, b)` structs — plus
/// `2·(P+1)` offsets. All four vectors are empty when there are no edges.
///
/// Invariants (established by [`EdgeRows::from_rows`], relied on by the
/// accessors; the fields never change afterwards): `off` and `tin_off`
/// are non-decreasing with `P + 1` entries ending at `fwd.len()`; every
/// `tin` entry is a position in `fwd`; each `tin` row is ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeRows<T> {
    off: Vec<u32>,
    fwd: Vec<T>,
    tin_off: Vec<u32>,
    tin: Vec<u32>,
}

impl<T: RowArc> EdgeRows<T> {
    /// Groups `edges` (pairs of row index `a` and arc) into rows by a
    /// stable sort on `a` and builds the transpose: a list already sorted
    /// by `a`, as the builder's is, keeps exactly its order.
    fn build(num_points: usize, edges: impl Iterator<Item = (u32, T)>) -> Result<Self, String> {
        let mut edges: Vec<(u32, T)> = edges.collect();
        let past = |&(a, arc): &(u32, T)| a.max(arc.target()) as usize >= num_points;
        if let Some(&(a, arc)) = edges.iter().find(|e| past(e)) {
            let b = arc.target();
            return Err(format!(
                "edge ({a}, {b}) indexes past the {num_points} stored points"
            ));
        }
        if edges.len() > u32::MAX as usize {
            return Err("more than u32::MAX edges at one level".into());
        }
        edges.sort_by_key(|&(a, _)| a);
        let mut off = vec![0u32; num_points + 1];
        for &(a, _) in &edges {
            off[a as usize + 1] += 1;
        }
        for k in 1..=num_points {
            off[k] += off[k - 1];
        }
        Ok(EdgeRows::from_rows(
            off,
            edges.into_iter().map(|(_, arc)| arc).collect(),
        ))
    }

    /// Rows already laid out — `off` with `P + 1` non-decreasing entries
    /// ending at `fwd.len()`, every arc's target `< P` — so only the
    /// transpose is built. This is how the codec fills a level: its bytes
    /// carry the row lengths, so a decoded level is never grouped.
    pub(crate) fn from_rows(off: Vec<u32>, fwd: Vec<T>) -> Self {
        if fwd.is_empty() {
            return EdgeRows::default();
        }
        let num_points = off.len() - 1;
        debug_assert_eq!(off[num_points] as usize, fwd.len());
        // Counts land two slots up, so that after the prefix sum
        // `tin_off[b + 1]` is row `b`'s start, the scatter below can use
        // it as the row's write cursor, and what remains is the offset
        // array with one stale slot at the end.
        let mut tin_off = vec![0u32; num_points + 2];
        for arc in &fwd {
            debug_assert!((arc.target() as usize) < num_points);
            tin_off[arc.target() as usize + 2] += 1;
        }
        for k in 1..=num_points {
            tin_off[k + 1] += tin_off[k];
        }
        let mut tin = vec![0u32; fwd.len()];
        for (pos, arc) in fwd.iter().enumerate() {
            let at = &mut tin_off[arc.target() as usize + 1];
            tin[*at as usize] = pos as u32;
            *at += 1;
        }
        tin_off.pop();
        EdgeRows {
            off,
            fwd,
            tin_off,
            tin,
        }
    }

    /// Number of edges.
    pub(crate) fn len(&self) -> usize {
        self.fwd.len()
    }

    /// The row offsets: `P + 1` entries, or none when there are no edges.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.off
    }

    /// Every arc, row after row.
    pub(crate) fn arcs(&self) -> &[T] {
        &self.fwd
    }

    /// The slice of `items` that `offsets` assigns to row `row` (empty for
    /// a row the level was not built with).
    fn row<'a, U>(offsets: &[u32], items: &'a [U], row: usize) -> &'a [U] {
        match offsets.get(row..).and_then(|o| o.get(..2)) {
            Some(&[lo, hi]) => &items[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The arcs of the edges `(a, ·)`, in stored order.
    pub(crate) fn outgoing(&self, a: usize) -> &[T] {
        Self::row(&self.off, &self.fwd, a)
    }

    /// The edges `(·, b)` out of rows `from` and above, as `(a, arc)` with
    /// `a` ascending. `a` is recovered from the row offsets by a cursor
    /// that starts at `from` and only moves forward (positions within a
    /// transpose row ascend), so a whole scan costs the in-degree plus at
    /// most one pass over the offsets from `from` on.
    pub(crate) fn incoming(&self, b: usize, from: usize) -> impl Iterator<Item = (u32, T)> + '_ {
        let positions = Self::row(&self.tin_off, &self.tin, b);
        let skip = match self.off.get(from) {
            Some(_) if from == 0 => 0,
            Some(&start) => positions.partition_point(|&pos| pos < start),
            None => positions.len(),
        };
        let mut a = from;
        positions[skip..].iter().map(move |&pos| {
            while self.off[a + 1] <= pos {
                a += 1;
            }
            (a as u32, self.fwd[pos as usize])
        })
    }

    /// Bytes held, this struct included (by length, not capacity).
    fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>()
            + self.fwd.len() * size_of::<T>()
            + (self.off.len() + self.tin_off.len() + self.tin.len()) * size_of::<u32>())
            as u64
    }
}

/// One edge kind of a level as the level sees it: row `a` is point `a`'s
/// row in `set`, keeping the arcs whose other end is one of the level's
/// points, renumbered to its index. Without a row list (own rows, or a
/// whole net's) this is `set` itself.
#[derive(Clone, Copy)]
pub(crate) struct LevelRows<'a, T> {
    set: &'a EdgeRows<T>,
    rows: Option<&'a [u32]>,
}

impl<'a, T: RowArc> LevelRows<'a, T> {
    /// The row of point `a` in `set`; past every row if there is no
    /// point `a`.
    fn net_row(self, a: usize) -> usize {
        self.rows
            .map_or(a, |rows| rows.get(a).map_or(usize::MAX, |&r| r as usize))
    }

    /// The arcs of the edges `(a, ·)`, in stored order.
    pub(crate) fn outgoing(self, a: usize) -> impl Iterator<Item = T> + 'a {
        let arcs = self.set.outgoing(self.net_row(a));
        // An edge set's row holds targets above the row, ascending.
        let mut from = a + 1;
        arcs.iter().filter_map(move |&arc| {
            Some(arc.with_target(seek(self.rows, &mut from, arc.target())?))
        })
    }

    /// The edges `(·, b)`, as `(a, arc)` with `a` ascending.
    pub(crate) fn incoming(self, b: usize) -> impl Iterator<Item = (u32, T)> + 'a {
        // No arc from below the level's first row can be the level's.
        let first = self
            .rows
            .and_then(<[u32]>::first)
            .map_or(0, |&r| r as usize);
        let mut from = 0;
        let arcs = self.set.incoming(self.net_row(b), first);
        arcs.filter_map(move |(a, arc)| {
            Some((seek(self.rows, &mut from, a)?, arc.with_target(b as u32)))
        })
    }

    /// Every edge as `(a, arc)`, row by row.
    pub(crate) fn iter(self) -> impl Iterator<Item = (u32, T)> + 'a {
        let num_rows = self.set.offsets().len().saturating_sub(1);
        (0..self.rows.map_or(num_rows, <[u32]>::len))
            .flat_map(move |a| self.outgoing(a).map(move |arc| (a as u32, arc)))
    }

    /// Number of edges.
    pub(crate) fn len(self) -> usize {
        self.rows.map_or(self.set.len(), |_| self.iter().count())
    }

    /// Number of edges `(a, ·)`.
    pub(crate) fn row_len(self, a: usize) -> usize {
        self.rows
            .map_or(self.set.outgoing(a).len(), |_| self.outgoing(a).count())
    }
}

/// The index of `row` in the ascending `rows` (`row` itself without a
/// row list), looked for from `*from` on, which moves past `row`:
/// ascending lookups from one cursor, each costing the logarithm of the
/// entries it skips.
fn seek(rows: Option<&[u32]>, from: &mut usize, row: u32) -> Option<u32> {
    let Some(rows) = rows else {
        return Some(row);
    };
    if rows.get(*from) != Some(&row) {
        // Gallop: probe `rest[0], rest[1], rest[3], rest[7], …` while they
        // are below `row`, then search between the last two probes.
        let rest = rows.get(*from..).unwrap_or_default();
        let mut bound = 1;
        while bound <= rest.len() && rest[bound - 1] < row {
            bound *= 2;
        }
        let lo = bound / 2;
        *from += lo + rest[lo..rest.len().min(bound - 1)].partition_point(|&r| r < row);
        if rows.get(*from) != Some(&row) {
            return None;
        }
    }
    *from += 1;
    Some(*from as u32 - 1)
}

/// The level-`i` slice `L_i(v)` of a label, encoding `H_i(v)`.
///
/// The point list is public and indexable; the edges refer to it by index
/// and are read back through [`LevelLabel::virtual_edges`] and
/// [`LevelLabel::real_edges`]. A level the builder materializes or derives
/// from a points record ([`crate::EdgeSets`]) is its points plus, per
/// point, its row in the level's one edge set `Eᵢ`, whose rows it shares
/// behind an [`Arc`] with every level of the generation: its edges are
/// `Eᵢ`'s arcs between two of its points. A level that stores the whole
/// net needs no row list (point `k` is row `k`). Only [`LevelLabel::new`]
/// and a label read back by [`crate::codec`] own rows over their own
/// points. Levels compare by points and edges, not by how they are held.
#[derive(Clone, Debug, Default)]
pub struct LevelLabel {
    /// Stored points, sorted by vertex id (canonical order for encoding).
    pub points: Vec<LabelPoint>,
    /// Per point, its row in `virt` and `real`, ascending; `None` when
    /// point `k` is row `k`.
    pub(crate) rows: Option<Box<[u32]>>,
    /// Virtual edges, as rows.
    pub(crate) virt: Arc<EdgeRows<VirtualArc>>,
    /// Real edges of `G` (lowest level only; empty at other levels).
    pub(crate) real: Arc<EdgeRows<u32>>,
}

impl PartialEq for LevelLabel {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
            && self.virtual_edges().eq(other.virtual_edges())
            && self.real_edges().eq(other.real_edges())
    }
}

impl LevelLabel {
    /// Builds a level from its points and flat edge lists — the one way
    /// to make a level with edges outside this crate (the codec fills the
    /// rows straight from its bytes). Edges are kept grouped by their
    /// first endpoint index `a` (a stable sort: lists already ordered by
    /// `a`, as the builder produces them, are read back unchanged).
    ///
    /// # Errors
    ///
    /// Returns a [`LabelInvalid`] (with `level_index` 0 — a level does not
    /// know its place in a label) when an edge endpoint is not an index
    /// into `points`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsdl_graph::NodeId;
    /// use fsdl_labels::{LabelPoint, LevelLabel, VirtualEdge};
    ///
    /// let point = |v, dist| LabelPoint { vertex: NodeId::new(v), dist, net_level: 0 };
    /// let points = vec![point(2, 0), point(5, 3), point(9, 7)];
    /// let edge = VirtualEdge { a: 0, b: 2, dist: 7 };
    /// let level = LevelLabel::new(points.clone(), [edge], []).unwrap();
    /// assert_eq!(level.virtual_edges().collect::<Vec<_>>(), vec![edge]);
    /// assert!(LevelLabel::new(points, [VirtualEdge { a: 0, b: 3, dist: 1 }], []).is_err());
    /// ```
    pub fn new<V, R>(
        points: Vec<LabelPoint>,
        virtual_edges: V,
        real_edges: R,
    ) -> Result<Self, LabelInvalid>
    where
        V: IntoIterator<Item = VirtualEdge>,
        R: IntoIterator<Item = RealEdge>,
    {
        let fail = |kind: &str, message: String| LabelInvalid {
            level_index: 0,
            message: format!("{kind} {message}"),
        };
        let virt = EdgeRows::build(
            points.len(),
            virtual_edges.into_iter().map(|e| {
                (
                    e.a,
                    VirtualArc {
                        b: e.b,
                        dist: e.dist,
                    },
                )
            }),
        )
        .map_err(|m| fail("virtual", m))?;
        let real = EdgeRows::build(points.len(), real_edges.into_iter().map(|e| (e.a, e.b)))
            .map_err(|m| fail("real", m))?;
        Ok(Self::with_own_rows(points, virt, real))
    }

    /// A level whose rows are over its own points (no row list).
    pub(crate) fn with_own_rows(
        points: Vec<LabelPoint>,
        virt: EdgeRows<VirtualArc>,
        real: EdgeRows<u32>,
    ) -> Self {
        LevelLabel {
            points,
            rows: None,
            virt: Arc::new(virt),
            real: Arc::new(real),
        }
    }

    /// The level `points` induce in `self`, a level edge set — its points
    /// are a whole stored net in id order, over its own rows: `points`
    /// must be a strictly ascending subset of it. Each point's `net_level`
    /// is taken from `self` (what the caller put there is ignored), its
    /// `dist` is kept. The level shares `self`'s rows behind the same
    /// [`Arc`]s and records each point's row; a list that is the whole net
    /// records none — once every id has been checked, never on the count
    /// alone.
    ///
    /// This is the inner loop of label derivation from untrusted bytes
    /// ([`crate::EdgeSets::label`]) as well as of the builder, so it
    /// trusts nothing: one binary search per point, from a cursor that
    /// only moves forward.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] (at bit 0: the level does not know where its
    /// points came from) naming the first point that is not in the net or
    /// not above its predecessor.
    pub(crate) fn restricted_to(
        &self,
        mut points: Vec<LabelPoint>,
    ) -> Result<LevelLabel, CodecError> {
        debug_assert!(self.rows.is_none(), "an edge set indexes its own rows");
        let net = &self.points;
        let rows = if points.len() == net.len() {
            for (p, q) in points.iter_mut().zip(net) {
                if p.vertex != q.vertex {
                    return Err(CodecError::new(
                        0,
                        format!(
                            "whole-net point list holds {} where the net has {}",
                            p.vertex, q.vertex
                        ),
                    ));
                }
                p.net_level = q.net_level;
            }
            None
        } else {
            let mut rows = Vec::with_capacity(points.len());
            let mut next = 0usize;
            for p in &mut points {
                let Ok(at) = net[next..].binary_search_by_key(&p.vertex, |q| q.vertex) else {
                    let message = if net.binary_search_by_key(&p.vertex, |q| q.vertex).is_ok() {
                        format!("point {} is not above its predecessor", p.vertex)
                    } else {
                        format!("point {} is not in the level's net", p.vertex)
                    };
                    return Err(CodecError::new(0, message));
                };
                let row = next + at;
                p.net_level = net[row].net_level;
                rows.push(row as u32);
                next = row + 1;
            }
            Some(rows.into_boxed_slice())
        };
        Ok(LevelLabel {
            points,
            rows,
            virt: Arc::clone(&self.virt),
            real: Arc::clone(&self.real),
        })
    }

    /// The virtual edges as rows over this level's points.
    pub(crate) fn virtual_rows(&self) -> LevelRows<'_, VirtualArc> {
        LevelRows {
            set: &self.virt,
            rows: self.rows.as_deref(),
        }
    }

    /// The real edges as rows over this level's points.
    pub(crate) fn real_rows(&self) -> LevelRows<'_, u32> {
        LevelRows {
            set: &self.real,
            rows: self.rows.as_deref(),
        }
    }

    /// The virtual edges, grouped by first endpoint index.
    pub fn virtual_edges(&self) -> impl Iterator<Item = VirtualEdge> + '_ {
        self.virtual_rows().iter().map(|(a, arc)| VirtualEdge {
            a,
            b: arc.b,
            dist: arc.dist,
        })
    }

    /// Number of virtual edges.
    pub fn num_virtual_edges(&self) -> usize {
        self.virtual_rows().len()
    }

    /// The real edges, grouped by first endpoint index.
    pub fn real_edges(&self) -> impl Iterator<Item = RealEdge> + '_ {
        self.real_rows().iter().map(|(a, b)| RealEdge { a, b })
    }

    /// Number of real edges.
    pub fn num_real_edges(&self) -> usize {
        self.real_rows().len()
    }

    /// Whether `{a, b}` is stored as a real edge at this level. At the
    /// lowest level of `L(a)` that is exactly "`{a, b}` is an edge of `G`":
    /// every edge at the owner lies inside its ball. This is how a holder
    /// of labels alone (the router) validates a fault edge.
    pub fn has_real_edge(&self, a: NodeId, b: NodeId) -> bool {
        let index = |v: NodeId| self.points.binary_search_by_key(&v, |p| p.vertex).ok();
        let (Some(ia), Some(ib)) = (index(a), index(b)) else {
            return false;
        };
        // Builder-made rows run low index -> high; an untrusted label may
        // store either direction.
        let joins =
            |from: usize, to: usize| self.real_rows().outgoing(from).any(|b| b == to as u32);
        joins(ia, ib) || joins(ib, ia)
    }

    /// Bytes held: the struct, the point list and the row list (by
    /// length), plus the edge rows it indexes when `with_edges`.
    pub(crate) fn resident_bytes(&self, with_edges: bool) -> u64 {
        let rows = self.rows.as_deref().map_or(0, <[u32]>::len);
        let own = std::mem::size_of::<LevelLabel>() + 12 * self.points.len() + 4 * rows;
        let edges = self.virt.resident_bytes() + self.real.resident_bytes();
        own as u64 + u64::from(with_edges) * edges
    }

    /// Looks up a stored point by vertex id (binary search: points are
    /// sorted by id).
    pub fn find_point(&self, v: NodeId) -> Option<&LabelPoint> {
        self.points
            .binary_search_by_key(&v, |p| p.vertex)
            .ok()
            .map(|idx| &self.points[idx])
    }

    /// Exact `d_G(owner, v)` if `v` is stored at this level.
    pub fn dist_to(&self, v: NodeId) -> Option<u32> {
        self.find_point(v).map(|p| p.dist)
    }
}

/// A complete vertex label `L(v)`.
///
/// This is the *only* information about `G` the decoder may touch: queries
/// are answered from labels alone ([`crate::decode`]), exactly as the
/// distributed model demands.
#[derive(Clone, Debug, PartialEq)]
pub struct Label {
    /// The vertex this label belongs to.
    pub owner: NodeId,
    /// The owner's maximal net level (used by the protected-ball
    /// certificate).
    pub owner_net_level: u32,
    /// The lowest level `c + 1` (levels are `first_level..first_level +
    /// levels.len()`).
    pub first_level: u32,
    /// Level labels for `i = first_level, first_level+1, …`.
    pub levels: Vec<LevelLabel>,
}

/// A structural problem found by [`Label::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelInvalid {
    /// The level index (into [`Label::levels`]) of the problem.
    pub level_index: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for LabelInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid label (level {}): {}",
            self.level_index, self.message
        )
    }
}

impl std::error::Error for LabelInvalid {}

impl Label {
    /// Structurally validates a label (e.g. one decoded from an untrusted
    /// bit string): point lists sorted and duplicate-free, edge indices in
    /// range, edges free of self-loops. The decoder assumes these
    /// invariants, so callers receiving labels from outside should validate
    /// first.
    ///
    /// # Errors
    ///
    /// Returns the first [`LabelInvalid`] found.
    pub fn validate(&self) -> Result<(), LabelInvalid> {
        for (k, level) in self.levels.iter().enumerate() {
            let fail = |message: String| LabelInvalid {
                level_index: k,
                message,
            };
            for w in level.points.windows(2) {
                if w[0].vertex >= w[1].vertex {
                    return Err(fail(format!(
                        "points not strictly sorted at {}",
                        w[1].vertex
                    )));
                }
            }
            // Indices were in range when the level was built, but the
            // point list is public and may have been shortened since.
            let np = level.points.len() as u32;
            for e in level.virtual_edges() {
                if e.a >= np || e.b >= np {
                    return Err(fail("virtual edge index out of range".into()));
                }
                if e.a == e.b {
                    return Err(fail("virtual self-loop".into()));
                }
            }
            for e in level.real_edges() {
                if e.a >= np || e.b >= np {
                    return Err(fail("real edge index out of range".into()));
                }
                if e.a == e.b {
                    return Err(fail("real self-loop".into()));
                }
            }
        }
        Ok(())
    }

    /// The level label `L_i(owner)`, or `None` if `i` is outside `I`.
    pub fn level(&self, i: u32) -> Option<&LevelLabel> {
        let idx = i.checked_sub(self.first_level)? as usize;
        self.levels.get(idx)
    }

    /// Iterates over `(i, L_i)` pairs.
    pub fn levels_iter(&self) -> impl Iterator<Item = (u32, &LevelLabel)> {
        self.levels
            .iter()
            .enumerate()
            .map(move |(k, l)| (self.first_level + k as u32, l))
    }

    /// Size accounting used by the evaluation: numbers of stored points and
    /// edges across all levels.
    pub fn stats(&self) -> LabelStats {
        let mut s = LabelStats::default();
        for l in &self.levels {
            s.points += l.points.len();
            s.virtual_edges += l.num_virtual_edges();
            s.real_edges += l.num_real_edges();
            s.max_level_points = s.max_level_points.max(l.points.len());
        }
        s.levels = self.levels.len();
        s
    }

    /// Estimated heap footprint of what this label holds itself, in
    /// bytes: the struct, and per level its point list and row list (by
    /// length, not capacity — a stable estimate independent of allocator
    /// growth policy). The edge rows its levels index are not counted:
    /// a built or derived label shares its generation's level edge sets,
    /// which [`crate::LabelPlaneStats`] counts once.
    pub fn resident_bytes(&self) -> u64 {
        let levels: u64 = self.levels.iter().map(|l| l.resident_bytes(false)).sum();
        std::mem::size_of::<Label>() as u64 + levels
    }
}

/// Size statistics of a [`Label`] (see [`Label::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Number of levels `|I|`.
    pub levels: usize,
    /// Total stored points over all levels.
    pub points: usize,
    /// Total virtual edges over all levels.
    pub virtual_edges: usize,
    /// Total real edges (lowest level).
    pub real_edges: usize,
    /// Largest single-level point count.
    pub max_level_points: usize,
}

impl LabelStats {
    /// Total entries (points + edges), a codec-independent size proxy.
    pub fn entries(&self) -> usize {
        self.points + self.virtual_edges + self.real_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<LabelPoint> {
        let point = |v, dist, net_level| LabelPoint {
            vertex: NodeId::new(v),
            dist,
            net_level,
        };
        vec![point(2, 0, 4), point(5, 3, 1), point(9, 7, 2)]
    }

    /// A label of vertex 2 from level 3 on.
    fn label_of(levels: Vec<LevelLabel>) -> Label {
        Label {
            owner: NodeId::new(2),
            owner_net_level: 4,
            first_level: 3,
            levels,
        }
    }

    const SAMPLE_EDGE: VirtualEdge = VirtualEdge {
        a: 0,
        b: 2,
        dist: 7,
    };

    fn sample_level() -> LevelLabel {
        LevelLabel::new(sample_points(), [SAMPLE_EDGE], []).unwrap()
    }

    #[test]
    fn find_point_binary_search() {
        let l = sample_level();
        assert_eq!(l.find_point(NodeId::new(5)).unwrap().dist, 3);
        assert_eq!(l.dist_to(NodeId::new(9)), Some(7));
        assert_eq!(l.dist_to(NodeId::new(4)), None);
    }

    #[test]
    fn label_level_indexing() {
        let label = label_of(vec![sample_level(), LevelLabel::default()]);
        assert!(label.level(2).is_none());
        assert!(label.level(3).is_some());
        assert!(label.level(4).is_some());
        assert!(label.level(5).is_none());
        let collected: Vec<u32> = label.levels_iter().map(|(i, _)| i).collect();
        assert_eq!(collected, vec![3, 4]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let label = label_of(vec![sample_level()]);
        assert_eq!(label.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unsorted_points() {
        let mut level = sample_level();
        level.points.swap(0, 2);
        let label = label_of(vec![level]);
        let err = label.validate().unwrap_err();
        assert!(err.message.contains("sorted"), "{err}");
    }

    #[test]
    fn constructor_rejects_out_of_range_edges() {
        let bad = VirtualEdge {
            a: 1,
            b: 9,
            dist: 2,
        };
        let err = LevelLabel::new(sample_points(), [SAMPLE_EDGE, bad], []).unwrap_err();
        assert!(err.message.contains("virtual"), "{err}");
        let err = LevelLabel::new(sample_points(), [], [RealEdge { a: 3, b: 0 }]).unwrap_err();
        assert!(err.message.contains("real"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_edges() {
        // In range when built, out of range once the public point list
        // is shortened.
        let mut level = sample_level();
        level.points.pop();
        let label = label_of(vec![level]);
        assert!(label.validate().is_err());
        let level = LevelLabel::new(sample_points(), [], [RealEdge { a: 1, b: 1 }]).unwrap();
        let label = label_of(vec![level]);
        assert!(label.validate().unwrap_err().message.contains("self-loop"));
    }

    #[test]
    fn rows_keep_sorted_lists_and_group_unsorted_ones() {
        let e = |a, b, dist| VirtualEdge { a, b, dist };
        let sorted = [e(0, 1, 3), e(0, 2, 7), e(1, 2, 4)];
        let level = LevelLabel::new(sample_points(), sorted, []).unwrap();
        assert_eq!(level.virtual_edges().collect::<Vec<_>>(), sorted);
        // Unsorted input, a reversed pair and a self-loop: grouped by `a`,
        // order within a row kept.
        let messy = [e(2, 0, 7), e(0, 2, 7), e(1, 1, 0), e(0, 1, 3)];
        let level = LevelLabel::new(sample_points(), messy, []).unwrap();
        assert_eq!(
            level.virtual_edges().collect::<Vec<_>>(),
            [e(0, 2, 7), e(0, 1, 3), e(1, 1, 0), e(2, 0, 7)]
        );
        // Both directions of every point, with `a` recovered for the
        // incoming side.
        let out = |a| level.virt.outgoing(a).to_vec();
        let arc = |b, dist| VirtualArc { b, dist };
        assert_eq!(out(0), [arc(2, 7), arc(1, 3)]);
        assert_eq!(out(3), []);
        let inc = |b| level.virt.incoming(b, 0).collect::<Vec<_>>();
        assert_eq!(inc(0), [(2, arc(0, 7))]);
        assert_eq!(inc(1), [(0, arc(1, 3)), (1, arc(1, 0))]);
        assert_eq!(inc(2), [(0, arc(2, 7))]);
        assert_eq!(inc(3), []);
        // Arcs out of rows below `from` are skipped.
        assert_eq!(
            level.virt.incoming(1, 1).collect::<Vec<_>>(),
            [(1, arc(1, 0))]
        );
        assert_eq!(level.virt.incoming(0, 3).count(), 0);
        // No edges, no rows: equal to the default level with these points.
        let bare = LevelLabel::new(sample_points(), [], []).unwrap();
        assert_eq!(*bare.virt, EdgeRows::default());
    }

    /// A level with a row list sees, in both directions, exactly the set's
    /// arcs between two of its points, renumbered, in the set's order.
    #[test]
    fn a_row_list_filters_the_set_rows_in_both_directions() {
        let point = |v| LabelPoint {
            vertex: NodeId::new(v),
            dist: 0,
            net_level: 0,
        };
        let e = |a, b| VirtualEdge { a, b, dist: a + b };
        let edges = [
            e(0, 2),
            e(0, 3),
            e(1, 2),
            e(1, 4),
            e(2, 3),
            e(2, 4),
            e(3, 5),
            e(4, 5),
        ];
        let set = LevelLabel::new((0..6).map(point).collect(), edges, []).unwrap();
        let level = set
            .restricted_to(vec![point(1), point(2), point(4)])
            .unwrap();
        assert_eq!(level.rows.as_deref(), Some(&[1, 2, 4][..]));
        let arc = |b, dist| VirtualArc { b, dist };
        let rows = level.virtual_rows();
        let out = |a| rows.outgoing(a).collect::<Vec<_>>();
        assert_eq!(
            [out(0), out(1), out(2), out(3)],
            [vec![arc(1, 3), arc(2, 5)], vec![arc(2, 6)], vec![], vec![]]
        );
        let inc = |b| rows.incoming(b).collect::<Vec<_>>();
        assert_eq!(inc(1), [(0, arc(1, 3))]);
        assert_eq!(inc(2), [(0, arc(2, 5)), (1, arc(2, 6))]);
        assert_eq!((inc(0), inc(3)), (vec![], vec![]));
        assert_eq!(level.num_virtual_edges(), 3);
        assert!(!level.virtual_edges().any(|e| e.a == e.b));
    }

    #[test]
    fn stats_accumulate() {
        let label = label_of(vec![sample_level(), sample_level()]);
        let s = label.stats();
        assert_eq!(s.levels, 2);
        assert_eq!(s.points, 6);
        assert_eq!(s.virtual_edges, 2);
        assert_eq!(s.real_edges, 0);
        assert_eq!(s.max_level_points, 3);
        assert_eq!(s.entries(), 8);
    }
}
