//! The aggregated forbidden-set distance oracle — a concurrent serving
//! engine.
//!
//! The paper observes that storing every vertex's label in one table yields
//! a centralized `(1+ε)` forbidden-set distance oracle of size `n ×` label
//! length. [`ForbiddenSetOracle`] is that table, with labels materialized
//! lazily into a lock-free arena of `OnceLock` slots: a query `(s, t, F)`
//! loads the `|F| + 2` relevant labels and runs the pure label
//! [decoder](crate::decode) — the graph is consulted only to *validate* the
//! fault set, never to answer, which tests assert by construction.
//!
//! Which queries are well-formed, the strict/lenient relation and the
//! order the labels reach the decoder in are the [`resolve`] module's:
//! every entry point here is that one walk over the arena, then the
//! decoder. The shard router runs the same walk over labels it fetched.
//!
//! ## Concurrency model
//!
//! The oracle is `Send + Sync` and is designed to be shared (`&oracle` or
//! `Arc<oracle>`) across serving threads:
//!
//! * each vertex's label lives in a dedicated `OnceLock<Arc<Label>>` slot —
//!   first use materializes it (at most once, even under races), later uses
//!   are lock-free pointer loads;
//! * materialization is deterministic, so whichever thread wins the race
//!   stores the same bytes a sequential run would;
//! * [`ForbiddenSetOracle::query_batch`] fans a query batch across scoped
//!   threads, each worker reusing one [`DecodeScratch`] (the
//!   allocation-free decode fast path), and merges answers in input order,
//!   so the batch output is bit-identical to a sequential loop.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use fsdl_graph::{Dist, FaultSet, Graph, NodeId};

use crate::builder::{Labeling, LabelingOptions};
use crate::decode::{self, DecodeScratch, QueryAnswer, QueryLabels};
use crate::edge_sets::{self, EdgeSets};
use crate::label::Label;
use crate::params::SchemeParams;
use crate::store::{self, OpenMode, Segment, StoreError, StoreReport};

pub mod resolve;
pub use resolve::OracleError;
use resolve::{LabelSource, Malformed};

/// Label slots per arena cache line: a `OnceLock<Arc<Label>>` is 16
/// bytes (one pointer plus the init state), so four fill a 64-byte line
/// exactly on 64-bit targets.
const SLOTS_PER_LINE: usize = 4;

/// One cache line of label slots. Aligning groups to 64 bytes anchors
/// the arena on a line boundary, so the line a slot lands on is a pure
/// function of its vertex index — neighboring vertices (which queries
/// touch together) share lines, and a slot never straddles two.
#[derive(Debug, Default)]
#[repr(align(64))]
struct SlotLine([OnceLock<Arc<Label>>; SLOTS_PER_LINE]);

/// The lock-free label arena: `n` `OnceLock` slots in cache-aligned
/// groups. Supports exactly what serving needs — indexed access and a
/// residency scan.
#[derive(Debug)]
struct LabelArena {
    lines: Box<[SlotLine]>,
    len: usize,
}

impl LabelArena {
    fn new(n: usize) -> Self {
        LabelArena {
            lines: (0..n.div_ceil(SLOTS_PER_LINE))
                .map(|_| SlotLine::default())
                .collect(),
            len: n,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn slot(&self, k: usize) -> &OnceLock<Arc<Label>> {
        &self.lines[k / SLOTS_PER_LINE].0[k % SLOTS_PER_LINE]
    }

    /// `(materialized labels, their own bytes)` currently resident.
    fn resident(&self) -> (u64, u64) {
        let labels = (0..self.len).filter_map(|k| self.slot(k).get());
        labels.fold((0, 0), |(count, bytes), label| {
            (count + 1, bytes + label.resident_bytes())
        })
    }
}

/// Residency snapshot of an oracle's label plane: how many labels are
/// materialized in the arena (and their estimated heap footprint) versus
/// the on-disk payload backing them. The lazy-open win — serving at
/// O(touched labels) residency — is observable here and through
/// `fsdl stats --store`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelPlaneStats {
    /// Labels currently materialized in the arena.
    pub resident_labels: u64,
    /// Estimated heap bytes of the materialized labels: each label's own
    /// point and row lists ([`Label::resident_bytes`]), plus — once any
    /// label is resident — the generation's level edge sets they index,
    /// counted once: the segment's, or the labeling's for an in-memory
    /// build.
    pub resident_label_bytes: u64,
    /// On-disk label payload bytes (0 for in-memory builds).
    pub on_disk_label_bytes: u64,
    /// How the backing segment was opened; `None` for in-memory builds.
    pub open_mode: Option<OpenMode>,
    /// True when the segment payload is served from a memory map.
    pub mapped: bool,
}

/// A centralized `(1+ε)`-approximate forbidden-set distance oracle backed by
/// the labeling scheme.
///
/// # Malformed fault sets
///
/// The lenient entry points ([`ForbiddenSetOracle::query`],
/// [`ForbiddenSetOracle::distance`], [`ForbiddenSetOracle::distances_to`])
/// never panic on a malformed `FaultSet`: a forbidden vertex outside the
/// graph, or a forbidden edge that is not an edge of the graph, names
/// nothing in `G` — removing it cannot change `G ∖ F` — so such elements
/// are ignored and the answer is *exactly* the answer for the well-formed
/// subset of `F`. Use [`ForbiddenSetOracle::try_query`] /
/// [`ForbiddenSetOracle::try_distances_to`] to reject malformed input with
/// a typed [`OracleError`] instead. Both are one walk over `(s, t, F)`,
/// [`resolve`], which states the rule.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, FaultSet, NodeId};
/// use fsdl_labels::ForbiddenSetOracle;
///
/// let g = generators::cycle(32);
/// let oracle = ForbiddenSetOracle::new(&g, 1.0);
/// let f = FaultSet::from_vertices([NodeId::new(1)]);
/// let d = oracle.distance(NodeId::new(0), NodeId::new(2), &f);
/// // The cycle detour 0-31-30-...-2 has length 30; the answer is a
/// // (1+eps)-approximation of it.
/// assert!(d.finite().unwrap() >= 30);
/// assert!(d.finite().unwrap() <= 45);
/// ```
#[derive(Debug)]
pub struct ForbiddenSetOracle {
    labeling: Labeling,
    slots: LabelArena,
    /// When warm-started from a [`store`], labels decode lazily from this
    /// segment instead of being recomputed; `None` for in-memory builds.
    segment: Option<Arc<Segment>>,
}

impl ForbiddenSetOracle {
    /// Builds the oracle for `g` with precision `epsilon` (paper parameter
    /// schedule).
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty or `epsilon` is not positive finite.
    pub fn new(g: &Graph, epsilon: f64) -> Self {
        let params = SchemeParams::new(epsilon, g.num_vertices());
        Self::with_params(g, params)
    }

    /// Builds the oracle with an explicit parameter schedule.
    pub fn with_params(g: &Graph, params: SchemeParams) -> Self {
        Self::from_labeling(Labeling::build(g, params))
    }

    /// Wraps an existing labeling (e.g. one built with non-default
    /// [`crate::LabelingOptions`]).
    pub fn from_labeling(labeling: Labeling) -> Self {
        let n = labeling.graph().num_vertices();
        ForbiddenSetOracle {
            labeling,
            slots: LabelArena::new(n),
            segment: None,
        }
    }

    /// Warm-starts the oracle from the label store at `dir`, previously
    /// written by [`ForbiddenSetOracle::save`] (or `fsdl build --store`).
    /// The expensive per-vertex label construction is skipped entirely:
    /// labels decode lazily from the segment into the arena, and the
    /// answers are bit-identical to a fresh in-memory build.
    ///
    /// Equivalent to [`ForbiddenSetOracle::open_with`] in
    /// [`OpenMode::Eager`]: the whole segment is read and checksummed up
    /// front.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] for every failure mode — missing or corrupt
    /// manifest/segment, format version skew, a store built for a
    /// different graph, or an invalid parameter schedule. Never panics on
    /// untrusted on-disk bytes.
    pub fn open(dir: &Path, g: &Graph) -> Result<Self, StoreError> {
        Self::open_with(dir, g, OpenMode::Eager)
    }

    /// [`ForbiddenSetOracle::open`] with an explicit [`OpenMode`]. Under
    /// [`OpenMode::Lazy`] the segment is memory-mapped (owned-read
    /// fallback) and only its header + index are validated at open;
    /// label payload bytes stay on disk until a query touches them, so
    /// open-to-first-query cost is O(touched labels) instead of O(n).
    /// Answers are bit-identical across modes: a label that fails its
    /// first-touch validation is recomputed from the graph (the same
    /// reject-or-sound fallback the eager path has always had).
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`]; see [`ForbiddenSetOracle::open`].
    pub fn open_with(dir: &Path, g: &Graph, mode: OpenMode) -> Result<Self, StoreError> {
        let manifest = store::read_manifest(dir)?;
        let segment = Segment::open(&dir.join(&manifest.segment), mode)?;
        Self::from_segment(g, Arc::new(segment))
    }

    /// Wraps an already-read segment around `g` (shared with
    /// [`crate::DynamicOracle`]'s open path, which reads the segment
    /// against a reconstructed base subgraph).
    pub(crate) fn from_segment(g: &Graph, segment: Arc<Segment>) -> Result<Self, StoreError> {
        let expected = store::graph_fingerprint(g);
        let found = segment.graph_fingerprint();
        if expected != found {
            return Err(StoreError::GraphMismatch { expected, found });
        }
        if segment.num_labels() != g.num_vertices() {
            return Err(StoreError::SegmentCorrupt {
                path: segment.path().to_path_buf(),
                message: format!(
                    "segment holds {} labels for a {}-vertex graph",
                    segment.num_labels(),
                    g.num_vertices()
                ),
            });
        }
        let params = segment.params()?;
        segment
            .edge_sets()
            .check_schedule(&params)
            .map_err(|message| StoreError::SegmentCorrupt {
                path: segment.path().to_path_buf(),
                message,
            })?;
        // Served labels are derived from the segment: the net hierarchy
        // is built only if a failed record makes a label be rebuilt.
        let labeling =
            Labeling::without_nets(g, params, LabelingOptions::default()).map_err(|e| {
                StoreError::ParamsInvalid {
                    message: e.to_string(),
                }
            })?;
        let n = g.num_vertices();
        Ok(ForbiddenSetOracle {
            labeling,
            slots: LabelArena::new(n),
            segment: Some(segment),
        })
    }

    /// Persists every label to the store at `dir` as a new generation:
    /// segment written durably first (temp file + `fsync` + atomic
    /// rename), manifest swapped second, older generations pruned last —
    /// so a crash at any point leaves a previously published generation
    /// openable. The segment holds the level edge sets once and a points
    /// record per vertex; no self-contained label is encoded. The write
    /// path is fallible end to end (typed I/O errors); it never panics.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] on I/O failure.
    pub fn save(&self, dir: &Path) -> Result<StoreReport, StoreError> {
        store::write_generation(
            dir,
            self.params(),
            store::graph_fingerprint(self.labeling.graph()),
            &EdgeSets::from_labeling(&self.labeling).encode(),
            &self.point_records(),
            &FaultSet::empty(),
            &FaultSet::empty(),
            None,
        )
    }

    /// Materializes and encodes the label of one vertex through the
    /// fallible codec path — the canonical wire form a `label-fetch`
    /// reply carries (a shard derives it from its stored points record
    /// and gets these bytes). Deterministic: the same
    /// oracle always yields the same bytes for `v`.
    ///
    /// # Errors
    ///
    /// Relays the codec's typed failure (never expected for in-range
    /// vertices of a well-formed labeling).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range (as [`ForbiddenSetOracle::query`]
    /// does; range-check first when serving untrusted ids).
    pub fn encoded_label(&self, v: NodeId) -> Result<(Vec<u8>, usize), StoreError> {
        let n = self.slots.len();
        let label = self.label(v);
        let w = crate::codec::try_encode(&label, n)?;
        Ok((w.as_bytes().to_vec(), w.len_bits()))
    }

    /// Materializes (in parallel) every label and returns its points
    /// record ([`edge_sets::points_record`]), in vertex order — what a
    /// store keeps per vertex.
    pub(crate) fn point_records(&self) -> Vec<Vec<u8>> {
        self.prewarm();
        (0..self.slots.len())
            .map(|v| edge_sets::points_record(&self.label(NodeId::from_index(v))))
            .collect()
    }

    /// Derives `v`'s label from the attached segment, if any. Returns
    /// `None` (so callers fall back to in-memory materialization — still
    /// sound, merely slower) when there is no segment, the points record
    /// fails its checksum or derivation (which covers every
    /// [`Label::validate`] condition and refuses a record that is not
    /// `v`'s: on-disk bytes are untrusted even after the segment checksum
    /// passed). Under a lazy open this is the first-touch
    /// validation point: corrupt record bytes surface as a typed failure
    /// here, never a panic, and the fallback keeps the answer
    /// bit-identical.
    fn segment_label(&self, v: NodeId) -> Option<Label> {
        self.segment.as_deref()?.decode_label(v).ok()
    }

    /// Residency snapshot: materialized labels and bytes versus the
    /// on-disk payload (see [`LabelPlaneStats`]). O(n) over the arena plus
    /// the levels of every resident label.
    pub fn label_plane_stats(&self) -> LabelPlaneStats {
        let (resident_labels, mut resident_label_bytes) = self.slots.resident();
        if resident_labels > 0 {
            resident_label_bytes += match self.segment.as_deref() {
                Some(segment) => segment.edge_sets().resident_bytes(),
                // Every level's set is enumerated once a label is built.
                None => EdgeSets::from_labeling(&self.labeling).resident_bytes(),
            };
        }
        LabelPlaneStats {
            resident_labels,
            resident_label_bytes,
            on_disk_label_bytes: self.segment.as_deref().map_or(0, Segment::payload_bytes),
            open_mode: self.segment.as_deref().map(Segment::open_mode),
            mapped: self.segment.as_deref().is_some_and(Segment::is_mapped),
        }
    }

    /// The underlying labeling (marker side).
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The parameter schedule in force.
    pub fn params(&self) -> &SchemeParams {
        self.labeling.params()
    }

    /// Returns (materializing and memoizing on first use) the label of `v`.
    ///
    /// Thread-safe: under concurrent first use the label is materialized at
    /// most once; every later call is a lock-free pointer clone.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> Arc<Label> {
        self.slot_label(v).clone()
    }

    /// [`ForbiddenSetOracle::label`], for serving loops that hold a
    /// [`DecodeScratch`]. Deriving a label from a segment needs no scratch
    /// any more; the parameter stays because `benchmark/` calls this.
    pub fn label_with(&self, v: NodeId, _scratch: &mut DecodeScratch) -> Arc<Label> {
        self.slot_label(v).clone()
    }

    fn slot_label(&self, v: NodeId) -> &Arc<Label> {
        assert!(
            v.index() < self.slots.len(),
            "{v} is out of range for a graph with {} vertices",
            self.slots.len()
        );
        self.slots.slot(v.index()).get_or_init(|| {
            Arc::new(
                self.segment_label(v)
                    .unwrap_or_else(|| self.labeling.label_of(v)),
            )
        })
    }

    /// Eagerly materializes every label into the arena over
    /// `available_parallelism` scoped threads (idempotent; already-filled
    /// slots are kept). Serving threads then never pay materialization
    /// latency.
    pub fn prewarm(&self) {
        let n = self.slots.len();
        self.prewarm_workers(fsdl_nets::parallel::default_workers(n));
    }

    /// [`ForbiddenSetOracle::prewarm`] with an explicit worker count
    /// (`workers == 0` means available parallelism, `1` materializes
    /// sequentially; see [`fsdl_nets::parallel::resolve_workers`]) — what
    /// `fsdl build --threads` and `fsdl label --threads` set. The arena
    /// contents are independent of the worker count because
    /// materialization is deterministic per vertex.
    pub fn prewarm_workers(&self, workers: usize) {
        let n = self.slots.len();
        fsdl_nets::parallel::run_indexed_with(
            n,
            fsdl_nets::parallel::resolve_workers(workers, n),
            || crate::builder::LabelScratch::new(n),
            |scratch, v| {
                let id = NodeId::from_index(v);
                self.slots.slot(v).get_or_init(|| {
                    Arc::new(
                        self.segment_label(id)
                            .unwrap_or_else(|| self.labeling.label_of_with(id, scratch)),
                    )
                });
            },
        );
    }

    /// Answers the forbidden-set distance query `(s, t, F)` with the full
    /// decoder output (distance, witness path, sketch size). Malformed
    /// fault elements are ignored (exactly; see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn query(&self, s: NodeId, t: NodeId, faults: &FaultSet) -> QueryAnswer {
        self.query_with(s, t, faults, &mut DecodeScratch::new())
    }

    /// Strict variant of [`ForbiddenSetOracle::query`]: rejects out-of-range
    /// vertices and non-edge edge faults with a typed error instead of
    /// panicking or ignoring.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] naming the first malformed element.
    pub fn try_query(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
    ) -> Result<QueryAnswer, OracleError> {
        self.try_query_with(s, t, faults, &mut DecodeScratch::new())
    }

    /// Strict variant of [`ForbiddenSetOracle::query_with`]: the typed
    /// validation of [`ForbiddenSetOracle::try_query`] combined with the
    /// caller-provided [`DecodeScratch`] of the zero-allocation fast path.
    /// This is the network-serving hot path: a connection handler reuses
    /// one scratch across every request it answers while untrusted query
    /// input still gets a typed rejection, never a panic.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] naming the first malformed element.
    pub fn try_query_with(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
        scratch: &mut DecodeScratch,
    ) -> Result<QueryAnswer, OracleError> {
        self.answer(s, t, faults, Malformed::Reject, scratch)
    }

    /// [`ForbiddenSetOracle::query`] with a caller-provided
    /// [`DecodeScratch`] — the per-worker hot path of
    /// [`ForbiddenSetOracle::query_batch`], also usable directly by serving
    /// loops that answer many queries on one thread. Same answer as
    /// [`ForbiddenSetOracle::query`], bit for bit.
    pub fn query_with(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
        scratch: &mut DecodeScratch,
    ) -> QueryAnswer {
        self.answer(s, t, faults, Malformed::Skip, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The labels the decoder reads for `(s, t, F)` — `L(s)`, `L(t)` and
    /// the [`QueryLabels`] of `F` in canonical order, borrowed from the
    /// arena — for callers that run something other than the production
    /// search over them (the trace, the reference decoder). Strict, like
    /// [`ForbiddenSetOracle::try_query`].
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] naming the first malformed element.
    pub fn resolve(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
    ) -> Result<(&Label, &Label, QueryLabels<'_>), OracleError> {
        self.resolved(s, t, faults, Malformed::Reject)
    }

    fn resolved(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
        on_malformed: Malformed,
    ) -> Result<(&Label, &Label, QueryLabels<'_>), OracleError> {
        let (n, mut arena) = (self.slots.len(), Arena(self));
        Ok(resolve::resolve(n, &mut arena, s, t, faults, on_malformed)?.into_labels())
    }

    /// Every single-pair entry point: [`resolve`] the labels, decode.
    fn answer(
        &self,
        s: NodeId,
        t: NodeId,
        faults: &FaultSet,
        on_malformed: Malformed,
        scratch: &mut DecodeScratch,
    ) -> Result<QueryAnswer, OracleError> {
        let (source, target, fault_labels) = self.resolved(s, t, faults, on_malformed)?;
        Ok(decode::query_with_scratch(
            self.params(),
            source,
            target,
            &fault_labels,
            scratch,
        ))
    }

    /// The `(1+ε)`-approximate distance `δ(s, t, F)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn distance(&self, s: NodeId, t: NodeId, faults: &FaultSet) -> Dist {
        self.query(s, t, faults).distance
    }

    /// Answers a batch of queries, fanning the work across
    /// `available_parallelism` scoped threads with per-worker Dijkstra
    /// scratch. Answers come back in input order and are bit-identical to a
    /// sequential `query` loop (the only shared mutable state is the label
    /// arena, whose fills are deterministic).
    ///
    /// # Panics
    ///
    /// Panics if any `s` or `t` is out of range (malformed fault elements
    /// are ignored, as in [`ForbiddenSetOracle::query`]).
    pub fn query_batch(&self, queries: &[(NodeId, NodeId, FaultSet)]) -> Vec<QueryAnswer> {
        self.query_batch_workers(queries, fsdl_nets::parallel::default_workers(queries.len()))
    }

    /// [`ForbiddenSetOracle::query_batch`] with an explicit worker count
    /// (`workers == 0` means available parallelism, `1` answers
    /// sequentially on the calling thread; see
    /// [`fsdl_nets::parallel::resolve_workers`]).
    pub fn query_batch_workers(
        &self,
        queries: &[(NodeId, NodeId, FaultSet)],
        workers: usize,
    ) -> Vec<QueryAnswer> {
        fsdl_nets::parallel::run_indexed_with(
            queries.len(),
            fsdl_nets::parallel::resolve_workers(workers, queries.len()),
            DecodeScratch::new,
            |scratch, k| {
                let (s, t, faults) = &queries[k];
                self.query_with(*s, *t, faults, scratch)
            },
        )
    }

    /// One-to-many distances: `δ(s, tᵢ, F)` for every target, computed with
    /// a single sketch construction and Dijkstra pass (see
    /// [`decode::query_many`]). Answers are still within `1 + ε` of
    /// `d_{G∖F}(s, tᵢ)`. Malformed fault elements are ignored (exactly; see
    /// the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `s` or any target is out of range.
    pub fn distances_to(&self, s: NodeId, targets: &[NodeId], faults: &FaultSet) -> Vec<Dist> {
        self.distances_to_with(s, targets, faults, &mut DecodeScratch::new())
    }

    /// [`ForbiddenSetOracle::distances_to`] with a caller-provided
    /// [`DecodeScratch`]; same answers, bit for bit, reusing the scratch's
    /// buffers across calls.
    pub fn distances_to_with(
        &self,
        s: NodeId,
        targets: &[NodeId],
        faults: &FaultSet,
        scratch: &mut DecodeScratch,
    ) -> Vec<Dist> {
        self.distances(s, targets, faults, Malformed::Skip, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Strict variant of [`ForbiddenSetOracle::distances_to`].
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] naming the first malformed element.
    pub fn try_distances_to(
        &self,
        s: NodeId,
        targets: &[NodeId],
        faults: &FaultSet,
    ) -> Result<Vec<Dist>, OracleError> {
        let scratch = &mut DecodeScratch::new();
        self.distances(s, targets, faults, Malformed::Reject, scratch)
    }

    /// Every one-to-many entry point: [`resolve`] the labels, decode.
    fn distances(
        &self,
        s: NodeId,
        targets: &[NodeId],
        faults: &FaultSet,
        on_malformed: Malformed,
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<Dist>, OracleError> {
        let (n, mut arena) = (self.slots.len(), Arena(self));
        let (source, targets, fault_labels) =
            resolve::resolve_many(n, &mut arena, s, targets, faults, on_malformed)?.into_labels();
        Ok(decode::query_many_with_scratch(
            self.params(),
            source,
            &targets,
            &fault_labels,
            scratch,
        ))
    }

    /// Forbidden-set connectivity: are `s` and `t` connected in `G ∖ F`?
    ///
    /// This is the "very large ε" special case the paper's lower bound
    /// (Theorem 3.1) applies to: any scheme answering these queries needs
    /// `Ω(2^{α/2} + log n)`-bit labels.
    pub fn connected(&self, s: NodeId, t: NodeId, faults: &FaultSet) -> bool {
        self.distance(s, t, faults).is_finite()
    }

    /// Total oracle size in bits: the sum of all `n` encoded label lengths.
    /// Expensive (encodes every label, fanned out over scoped threads
    /// without touching the memoization arena); used by the size
    /// experiments.
    pub fn total_bits(&self) -> u64 {
        let n = self.labeling.graph().num_vertices();
        let labeling = &self.labeling;
        fsdl_nets::parallel::run_indexed(n, |v| labeling.label_bits(NodeId::from_index(v)) as u64)
            .into_iter()
            .sum()
    }
}

/// The oracle as the resolver's [`LabelSource`]: labels borrowed from the
/// arena for as long as the oracle lives (no `Arc` traffic per query),
/// edges asked of the graph.
struct Arena<'a>(&'a ForbiddenSetOracle);

impl<'a> LabelSource for Arena<'a> {
    type Label = &'a Label;

    fn label(&mut self, v: NodeId) -> &'a Label {
        self.0.slot_label(v)
    }

    fn is_edge(&self, a: NodeId, b: NodeId, _: &&'a Label) -> bool {
        self.0.labeling.graph().has_edge(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::{bfs, generators};

    #[test]
    fn failure_free_queries_are_upper_bounds_with_stretch() {
        let g = generators::grid2d(6, 6);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let empty = FaultSet::empty();
        for s in [0u32, 14, 35] {
            for t in 0..36u32 {
                let d = oracle.distance(NodeId::new(s), NodeId::new(t), &empty);
                let truth = bfs::pair_distance_avoiding(&g, NodeId::new(s), NodeId::new(t), &empty)
                    .finite()
                    .unwrap();
                let dd = d.finite().expect("connected graph");
                assert!(dd >= truth, "{s}->{t}: {dd} < {truth}");
                assert!(
                    f64::from(dd) <= 2.0 * f64::from(truth) + 1e-9,
                    "{s}->{t}: stretch {dd}/{truth}"
                );
            }
        }
    }

    #[test]
    fn faulty_endpoint_is_infinite() {
        let g = generators::path(10);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(0)]);
        assert!(oracle
            .distance(NodeId::new(0), NodeId::new(5), &f)
            .is_infinite());
        assert!(oracle
            .distance(NodeId::new(5), NodeId::new(0), &f)
            .is_infinite());
    }

    #[test]
    fn disconnection_detected() {
        let g = generators::path(9);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(4)]);
        assert!(!oracle.connected(NodeId::new(0), NodeId::new(8), &f));
        assert!(oracle.connected(NodeId::new(0), NodeId::new(3), &f));
        assert!(oracle.connected(NodeId::new(5), NodeId::new(8), &f));
    }

    #[test]
    fn label_cache_returns_same_arc() {
        let g = generators::cycle(8);
        let oracle = ForbiddenSetOracle::new(&g, 2.0);
        let a = oracle.label(NodeId::new(3));
        let b = oracle.label(NodeId::new(3));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn prewarm_fills_the_arena_deterministically() {
        let g = generators::grid2d(5, 5);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let early = oracle.label(NodeId::new(7));
        oracle.prewarm_workers(4);
        // Already-filled slots are kept; new slots match fresh
        // materialization.
        assert!(Arc::ptr_eq(&early, &oracle.label(NodeId::new(7))));
        for v in 0..25u32 {
            assert_eq!(
                *oracle.label(NodeId::new(v)),
                oracle.labeling().label_of(NodeId::new(v))
            );
        }
    }

    #[test]
    fn resident_bytes_count_shared_edge_rows_once() {
        // Every label indexes its level's one edge set: the plane counts
        // each label's points and row lists, and the edge sets once.
        for g in [generators::grid2d(5, 5), generators::ladder(64)] {
            let oracle = ForbiddenSetOracle::new(&g, 1.0);
            assert_eq!(oracle.label_plane_stats().resident_label_bytes, 0);
            oracle.prewarm_workers(1);
            let stats = oracle.label_plane_stats();
            let n = g.num_vertices();
            let own: u64 = (0..n)
                .map(|v| oracle.label(NodeId::from_index(v)).resident_bytes())
                .sum();
            let sets = EdgeSets::from_labeling(oracle.labeling()).resident_bytes();
            assert_eq!(stats.resident_labels, n as u64);
            assert_eq!(stats.resident_label_bytes, own + sets);
        }
    }

    /// A lazy open builds no net hierarchy, nor does a query on intact
    /// records; a record that fails makes the recompute fallback build
    /// it, and the answer is the in-memory build's, bit for bit.
    #[test]
    fn only_the_recompute_fallback_builds_the_hierarchy() {
        let g = generators::ladder(32);
        let built = ForbiddenSetOracle::new(&g, 1.0);
        let dir = std::env::temp_dir().join(format!("fsdl-oracle-nets-{}", std::process::id()));
        built.save(&dir).unwrap();
        let (s, t, victim) = (NodeId::new(3), NodeId::new(60), NodeId::new(20));
        let f = FaultSet::from_vertices([victim]);
        let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).unwrap();
        assert_eq!(lazy.query(s, t, &f), built.query(s, t, &f));
        assert!(lazy.labeling.nets.get().is_none());
        drop(lazy);
        // Flip a byte of the victim's points record (header and index
        // layout: `crate::store`).
        let path = dir.join(store::read_manifest(&dir).unwrap().segment);
        let mut bytes = std::fs::read(&path).unwrap();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let at = 48 + word(24) * 16 + 4 + word(48 + victim.index() * 16);
        bytes[at + 1] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let lazy = ForbiddenSetOracle::open_with(&dir, &g, OpenMode::Lazy).unwrap();
        assert!(lazy.segment_label(victim).is_none());
        assert!(lazy.labeling.nets.get().is_none());
        assert_eq!(lazy.query(s, t, &f), built.query(s, t, &f));
        assert!(lazy.labeling.nets.get().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_edge_fault_is_ignored_exactly() {
        // (0, 4) is not an edge of the path, so forbidding it cannot change
        // G \ F: the lenient API answers as if F were empty.
        let g = generators::path(5);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let mut f = FaultSet::empty();
        f.forbid_edge_unchecked(NodeId::new(0), NodeId::new(4));
        let with = oracle.query(NodeId::new(0), NodeId::new(4), &f);
        let without = oracle.query(NodeId::new(0), NodeId::new(4), &FaultSet::empty());
        assert_eq!(with.distance, without.distance);
    }

    #[test]
    fn out_of_range_fault_vertex_is_ignored_exactly() {
        let g = generators::path(5);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(77)]);
        let d = oracle.distance(NodeId::new(0), NodeId::new(4), &f);
        assert_eq!(
            d,
            oracle.distance(NodeId::new(0), NodeId::new(4), &FaultSet::empty())
        );
        assert_eq!(
            oracle.distances_to(NodeId::new(0), &[NodeId::new(4)], &f),
            vec![d]
        );
    }

    #[test]
    fn try_query_rejects_malformed_faults() {
        let g = generators::path(5);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let mut f = FaultSet::empty();
        f.forbid_edge_unchecked(NodeId::new(0), NodeId::new(4));
        assert_eq!(
            oracle.try_query(NodeId::new(0), NodeId::new(4), &f),
            Err(OracleError::FaultEdgeNotInGraph {
                a: NodeId::new(0),
                b: NodeId::new(4)
            })
        );
        let far = FaultSet::from_vertices([NodeId::new(99)]);
        assert_eq!(
            oracle.try_query(NodeId::new(0), NodeId::new(4), &far),
            Err(OracleError::VertexOutOfRange {
                v: NodeId::new(99),
                n: 5
            })
        );
        assert_eq!(
            oracle.try_query(NodeId::new(0), NodeId::new(9), &FaultSet::empty()),
            Err(OracleError::VertexOutOfRange {
                v: NodeId::new(9),
                n: 5
            })
        );
        let ok = oracle
            .try_query(NodeId::new(0), NodeId::new(4), &FaultSet::empty())
            .unwrap();
        assert_eq!(ok.distance.finite(), Some(4));
    }

    #[test]
    fn try_distances_to_rejects_bad_targets() {
        let g = generators::path(6);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        assert_eq!(
            oracle.try_distances_to(
                NodeId::new(0),
                &[NodeId::new(2), NodeId::new(42)],
                &FaultSet::empty()
            ),
            Err(OracleError::VertexOutOfRange {
                v: NodeId::new(42),
                n: 6
            })
        );
        let out = oracle
            .try_distances_to(NodeId::new(0), &[NodeId::new(2)], &FaultSet::empty())
            .unwrap();
        assert_eq!(out[0].finite(), Some(2));
    }

    #[test]
    fn oracle_error_display() {
        let e = OracleError::VertexOutOfRange {
            v: NodeId::new(9),
            n: 4,
        };
        assert!(e.to_string().contains("out of range"));
        let e = OracleError::FaultEdgeNotInGraph {
            a: NodeId::new(1),
            b: NodeId::new(3),
        };
        assert!(e.to_string().contains("not an edge"));
    }

    #[test]
    fn query_batch_matches_sequential_bit_for_bit() {
        let g = generators::grid2d(6, 6);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let mut queries = Vec::new();
        for s in (0..36u32).step_by(5) {
            for t in (0..36u32).step_by(7) {
                let f = FaultSet::from_vertices([NodeId::new((s + t + 1) % 36)]);
                queries.push((NodeId::new(s), NodeId::new(t), f));
            }
        }
        let sequential: Vec<QueryAnswer> = queries
            .iter()
            .map(|(s, t, f)| oracle.query(*s, *t, f))
            .collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                oracle.query_batch_workers(&queries, workers),
                sequential,
                "workers = {workers}"
            );
        }
        assert_eq!(oracle.query_batch(&queries), sequential);
        assert!(oracle.query_batch(&[]).is_empty());
    }

    #[test]
    fn witness_path_is_independent_of_fault_insertion_order() {
        // Equal fault sets must give equal answers — witness path
        // included — however they were assembled. `FaultSet` iterates in
        // per-instance hash order, so the fault labels reach the decoder
        // in a different order from one instance to the next; its
        // canonical tie-break makes that invisible. These cases (found by
        // search: equally short sketch paths, on a graph long enough for
        // labels to be local) are ones where the order once decided.
        let g = generators::grid2d(3, 150);
        let oracle = ForbiddenSetOracle::new(&g, 2.0);
        let mut scratch = DecodeScratch::new();
        let cases: [(u32, u32, &[u32]); 10] = [
            (431, 27, &[282, 382]),
            (87, 440, &[99, 254]),
            (58, 418, &[109, 236]),
            (11, 419, &[224, 399]),
            (30, 431, &[202, 372]),
            (34, 436, &[138, 262]),
            (33, 427, &[102, 174, 185, 250]),
            (27, 432, &[108, 214, 243, 328]),
            (15, 408, &[148, 180, 355, 390]),
            (26, 414, &[103, 175, 187, 222]),
        ];
        for (s, t, ids) in cases {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            let ascending = FaultSet::from_vertices(ids.iter().map(|&v| NodeId::new(v)));
            let expected = oracle.query_with(s, t, &ascending, &mut scratch);
            assert!(expected.path.len() > 2, "{s}->{t}: a real witness path");
            // Fresh instances (fresh hash seeds), descending insertion.
            for _ in 0..4 {
                let mut descending = FaultSet::empty();
                for &v in ids.iter().rev() {
                    descending.forbid_vertex(NodeId::new(v));
                }
                assert_eq!(ascending, descending);
                let got = oracle.query_with(s, t, &descending, &mut scratch);
                assert_eq!(got, expected, "{s}->{t} with faults {ids:?}");
            }
        }
    }

    #[test]
    fn distances_to_matches_individual_queries_and_truth() {
        let g = generators::grid2d(7, 7);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(24), NodeId::new(10)]);
        let s = NodeId::new(0);
        let targets: Vec<NodeId> = (0..49u32).step_by(3).map(NodeId::new).collect();
        let batch = oracle.distances_to(s, &targets, &f);
        assert_eq!(batch.len(), targets.len());
        for (k, &t) in targets.iter().enumerate() {
            let single = oracle.distance(s, t, &f);
            let truth = bfs::pair_distance_avoiding(&g, s, t, &f);
            // Batch uses a superset sketch: at least as good as the single
            // query, still sound.
            match truth.finite() {
                None => assert!(batch[k].is_infinite(), "t = {t}"),
                Some(td) => {
                    let bd = batch[k].finite().expect("connected");
                    assert!(bd >= td, "unsound batch answer for {t}");
                    assert!(
                        bd <= single.finite().unwrap_or(u32::MAX),
                        "batch worse than single for {t}"
                    );
                    assert!(f64::from(bd) <= 2.0 * f64::from(td) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn distances_to_handles_faulty_and_self_targets() {
        let g = generators::path(12);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(6)]);
        let s = NodeId::new(2);
        let out = oracle.distances_to(s, &[NodeId::new(2), NodeId::new(6), NodeId::new(11)], &f);
        assert_eq!(out[0].finite(), Some(0)); // self
        assert!(out[1].is_infinite()); // the fault itself
        assert!(out[2].is_infinite()); // cut off by the fault
    }

    #[test]
    fn distances_to_empty_targets() {
        let g = generators::path(4);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        assert!(oracle
            .distances_to(NodeId::new(0), &[], &FaultSet::empty())
            .is_empty());
    }

    #[test]
    fn distances_to_dedupes_repeated_targets() {
        let g = generators::cycle(16);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let f = FaultSet::from_vertices([NodeId::new(1)]);
        let s = NodeId::new(0);
        let t = NodeId::new(4);
        let repeated = oracle.distances_to(s, &[t, t, t, s], &f);
        let single = oracle.distances_to(s, &[t, s], &f);
        assert_eq!(repeated, vec![single[0], single[0], single[0], single[1]]);
    }

    #[test]
    fn total_bits_positive() {
        let g = generators::path(12);
        let oracle = ForbiddenSetOracle::new(&g, 2.0);
        let total = oracle.total_bits();
        assert!(total > 0);
        // Parallel sum equals the sequential sum.
        let seq: u64 = (0..12u32)
            .map(|v| oracle.labeling().label_bits(NodeId::new(v)) as u64)
            .sum();
        assert_eq!(total, seq);
    }

    #[test]
    fn reused_and_cross_oracle_scratch_match_fresh_queries() {
        let g1 = generators::grid2d(5, 5);
        let g2 = generators::cycle(30);
        let o1 = ForbiddenSetOracle::new(&g1, 1.0);
        let o2 = ForbiddenSetOracle::new(&g2, 0.5);
        let mut scratch = DecodeScratch::new();
        for k in 0..10u32 {
            let f = FaultSet::from_vertices([NodeId::new((k + 3) % 25)]);
            let (s, t) = (NodeId::new(k % 25), NodeId::new((k * 7) % 25));
            assert_eq!(o1.query_with(s, t, &f, &mut scratch), o1.query(s, t, &f));
            // Hand the same scratch to a different oracle mid-stream: no
            // state may leak between labelings.
            let (s2, t2) = (NodeId::new(k % 30), NodeId::new((k * 11) % 30));
            let empty = FaultSet::empty();
            assert_eq!(
                o2.query_with(s2, t2, &empty, &mut scratch),
                o2.query(s2, t2, &empty)
            );
            // distances_to through the same scratch as well.
            let targets = [t, s, NodeId::new(24)];
            assert_eq!(
                o1.distances_to_with(s, &targets, &f, &mut scratch),
                o1.distances_to(s, &targets, &f)
            );
        }
        assert!(scratch.epoch() >= 30);
    }

    #[test]
    fn oracle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ForbiddenSetOracle>();
        assert_send_sync::<Labeling>();
        assert_send_sync::<crate::SchemeParams>();
        assert_send_sync::<Label>();
        assert_send_sync::<OracleError>();
    }
}
