//! The fully-dynamic distance oracle byproduct.
//!
//! Abraham, Chechik & Gavoille (STOC 2012) observed that any `(1+ε)`
//! forbidden-set labeling scheme yields a fully dynamic `(1+ε)` distance
//! oracle: buffer deletions in a forbidden set `F` answered at query time,
//! and when `|F|` exceeds a threshold (`√n` balances the `|F|²` query cost
//! against the rebuild cost), rebuild the labeling on the surviving graph.
//! The paper cites this combination explicitly as giving, for doubling
//! dimension `α`, a dynamic oracle of size `Õ((1+ε⁻¹)^{2α} n)` with
//! `Õ(n^{1/2})` worst-case query/update time.
//!
//! [`DynamicOracle`] implements deletions and re-insertions of vertices and
//! edges of the original graph `G` (the live graph is always `G ∖ F`). A
//! fault lives in exactly one of two sets: *baked* into the serving
//! labeling, or in the decoder-side *buffer*. Every decision about the two
//! is written once:
//!
//! * **One ledger.** The private `Ledger` holds `(baked, buffer)` and the
//!   update rules: `plan` validates a [`WalRecord`] and says what the step
//!   requires, `commit` applies it. A live update is *plan → WAL append →
//!   commit*: with a store attached the record is checksummed and
//!   `fsync`'d ([`crate::wal`]) before anything in memory changes, and a
//!   failed append rejects the update. [`DynamicOracle::open`] feeds the
//!   surviving records through the same two calls, folding where
//!   [`RebuildMode::Blocking`] folds, so the recovered baked/buffered
//!   split — and with it the labeling and every answer — is bit-identical
//!   to the pre-crash one in that mode.
//! * **One build, one persist, one publish.** `build_generation` labels
//!   `G ∖ baked`; `persist` writes a store generation, rotates the log and
//!   records the generation; `publish` swaps the serving state and counts
//!   the rebuild. A blocking rebuild (threshold crossing, baked
//!   restoration, explicit [`DynamicOracle::rebuild`], recovery past a
//!   fold) publishes inside the triggering call and then persists, so a
//!   persist failure leaves memory advanced and the store on its previous
//!   generation ([`DynamicError::Persist`]). In
//!   [`RebuildMode::Background`] the threshold rebuild runs on its own
//!   thread while the current generation keeps serving: it persists first
//!   and publishes only on success, so a failed build (injected fault,
//!   persist error, panic) is discarded, surfaces once as
//!   [`DynamicError::RebuildFailed`] on the next update, and retries back
//!   off exponentially. The two modes differ only in *who* calls `publish`
//!   and whether the update waits for it; queries touch nothing but an
//!   `Arc` swap lock held for `O(1)` per install.
//! * **Lineage.** The background thread builds from a snapshot of the
//!   serving state and may publish only over a descendant of it: the same
//!   generation, with every fault it folded still in the buffer. Deletions
//!   that arrived meanwhile carry over into the new buffer; if a blocking
//!   rebuild replaced the generation, or a folded fault was restored, the
//!   build is superseded — discarded under the commit lock, not counted as
//!   a failure — and the next over-threshold update starts a fresh one. No
//!   update ever waits for an in-flight build and none is overwritten by
//!   one.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fsdl_graph::subgraph::{self, Subgraph};
use fsdl_graph::{Dist, FaultSet, Graph, NodeId};

use crate::crash::{self, CrashPoint};
use crate::decode::DecodeScratch;
use crate::oracle::{ForbiddenSetOracle, OracleError};
use crate::params::SchemeParams;
use crate::store::{self, OpenMode, Segment, StoreError, StoreReport};
use crate::wal::{ReplayReport, Wal, WalError, WalRecord};

/// Typed errors for [`DynamicOracle`] update operations.
///
/// The update API is fallible rather than panicking: a production oracle
/// receives deletions/restorations from callers it does not control, and
/// an out-of-range id or a restore of something that was never deleted
/// must be reportable without tearing the service down.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicError {
    /// The vertex id is not a vertex of the original graph.
    VertexOutOfRange {
        /// The offending id.
        v: NodeId,
        /// Number of vertices in the original graph.
        n: usize,
    },
    /// The endpoint pair is not an edge of the original graph.
    NotAnEdge {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// `restore_vertex` on a vertex that is not currently deleted.
    VertexNotDeleted {
        /// The vertex.
        v: NodeId,
    },
    /// `restore_edge` on an edge that is not currently deleted.
    EdgeNotDeleted {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// An update succeeded in memory but persisting the resulting rebuild
    /// to the attached store failed. The in-memory oracle is consistent
    /// and the store still holds its previous (older but openable)
    /// generation.
    Persist {
        /// The underlying [`crate::StoreError`], stringified.
        message: String,
    },
    /// The constructor was handed an unusable configuration (zero
    /// threshold, empty graph, non-positive or non-finite ε).
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
    /// Appending the update to the write-ahead log failed, so the update
    /// was rejected *before* touching memory (durability would otherwise
    /// silently lapse). Includes injected crash points, after which the
    /// oracle must be treated as crashed — drop it and reopen.
    Wal {
        /// The underlying [`crate::WalError`], stringified.
        message: String,
    },
    /// A background rebuild failed since the last update (build fault,
    /// persist error, or panic). The update that received this error was
    /// still applied; the oracle keeps serving the previous generation
    /// with the decoder-side buffer and will retry the rebuild with
    /// backoff.
    RebuildFailed {
        /// Why the rebuild failed.
        message: String,
    },
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // One wording for an id outside the graph, whichever engine
            // is asked: the resolver's.
            DynamicError::VertexOutOfRange { v, n } => {
                OracleError::VertexOutOfRange { v: *v, n: *n }.fmt(f)
            }
            DynamicError::NotAnEdge { a, b } => {
                write!(f, "{{{a}, {b}}} is not an edge of the original graph")
            }
            DynamicError::VertexNotDeleted { v } => {
                write!(f, "vertex {v} is not currently deleted")
            }
            DynamicError::EdgeNotDeleted { a, b } => {
                write!(f, "edge {{{a}, {b}}} is not currently deleted")
            }
            DynamicError::Persist { message } => {
                write!(f, "rebuild succeeded but persisting it failed: {message}")
            }
            DynamicError::InvalidConfig { message } => {
                write!(f, "invalid dynamic oracle configuration: {message}")
            }
            DynamicError::Wal { message } => {
                write!(
                    f,
                    "write-ahead log append failed (update rejected): {message}"
                )
            }
            DynamicError::RebuildFailed { message } => {
                write!(
                    f,
                    "background rebuild failed (still serving the previous \
                     generation; will retry): {message}"
                )
            }
        }
    }
}

impl std::error::Error for DynamicError {}

/// How threshold rebuilds are scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebuildMode {
    /// Rebuild synchronously inside the triggering update (the paper's
    /// model, and the default: update latency pays the rebuild, recovery
    /// is bit-identical, rebuild counts are deterministic).
    #[default]
    Blocking,
    /// Rebuild on a background thread while the current generation keeps
    /// serving; the triggering update returns immediately.
    Background,
}

/// Construction-time configuration for [`DynamicOracle::try_with_config`].
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// The scheme's precision `ε`.
    pub epsilon: f64,
    /// Rebuild threshold; `None` means the default `⌈√n⌉`.
    pub threshold: Option<usize>,
    /// Rebuild scheduling.
    pub mode: RebuildMode,
    /// Worker threads for background rebuilds; `0` means "all cores but
    /// one" (leaving one for the serving path).
    pub rebuild_workers: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            epsilon: 1.0,
            threshold: None,
            mode: RebuildMode::Blocking,
            rebuild_workers: 0,
        }
    }
}

/// Rebuild / WAL health counters, the service-facing view of the oracle
/// (`fsdl stats --store`, `exp_t16_wal`'s availability gate).
#[non_exhaustive]
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicStats {
    /// Total rebuilds installed (blocking + background).
    pub rebuilds: u64,
    /// Rebuilds installed by the background thread.
    pub background_rebuilds: u64,
    /// Background rebuilds that failed (build fault, persist error, or
    /// panic) and were discarded.
    pub failed_rebuilds: u64,
    /// Wall-clock duration of the most recent installed rebuild, in
    /// milliseconds (0 when none has run).
    pub last_rebuild_ms: f64,
    /// Whether a background rebuild is currently in flight.
    pub rebuild_in_flight: bool,
    /// Buffered (decoder-side) faults right now.
    pub buffered: usize,
    /// Faults baked into the serving labeling.
    pub baked: usize,
    /// The rebuild threshold.
    pub threshold: usize,
    /// Store generation currently persisted (0 = no store attached or
    /// nothing persisted yet).
    pub store_generation: u64,
    /// WAL records appended or replayed since the last rotation.
    pub wal_records_since_rotation: u64,
    /// WAL bytes (past the header) since the last rotation.
    pub wal_bytes_since_rotation: u64,
    /// Buffered faults carried over across the most recent background
    /// install (updates that arrived mid-rebuild).
    pub carry_over_depth: u64,
    /// Records replayed from the WAL by [`DynamicOracle::open`].
    pub replayed_records: u64,
    /// Torn-tail bytes truncated during that replay.
    pub replay_truncated_bytes: u64,
    /// Queries that blocked on the serving lock *while a background
    /// build was running*. Structurally zero: the build holds its own
    /// gate, never the serving lock — this counter is the availability
    /// gate's witness.
    pub blocked_on_rebuild: u64,
    /// Queries that found the serving lock contended (colliding with an
    /// `O(1)` install swap; sub-microsecond, and not rebuild-induced).
    pub serving_swaps_contended: u64,
    /// Labels currently materialized in the serving generation's arena
    /// (see [`crate::LabelPlaneStats`]).
    pub resident_labels: u64,
    /// Estimated heap bytes of those materialized labels.
    pub resident_label_bytes: u64,
    /// On-disk label payload bytes of the serving generation's segment
    /// (0 when the generation was built in memory).
    pub on_disk_label_bytes: u64,
    /// How the serving generation's segment was opened; `None` for
    /// in-memory generations.
    pub label_open_mode: Option<OpenMode>,
}

/// One immutable installed generation: the surviving graph the labeling
/// was built on, the labeling itself, and the faults folded into it.
#[derive(Debug)]
struct GenerationState {
    base: Subgraph,
    oracle: ForbiddenSetOracle,
    baked: FaultSet,
}

/// What queries read: the current generation plus the decoder-side
/// buffer. Swapped atomically (behind a briefly-held write lock) on every
/// update and install.
#[derive(Debug)]
struct ServingState {
    generation: Arc<GenerationState>,
    buffer: FaultSet,
}

/// Durable-commit state: everything an update must serialize on. Queries
/// never touch this lock.
#[derive(Debug, Default)]
struct CommitState {
    store_dir: Option<PathBuf>,
    wal: Option<Wal>,
    /// Generation currently named by the manifest (0 = none yet).
    generation: u64,
}

impl CommitState {
    /// Appends `record` to the WAL (the durability handshake: nothing is
    /// applied in memory until this succeeds). No-op without a store.
    fn append(&mut self, record: WalRecord) -> Result<(), DynamicError> {
        if self.store_dir.is_none() {
            return Ok(());
        }
        match self.wal.as_mut() {
            Some(w) => w.append(record).map_err(|e| DynamicError::Wal {
                message: e.to_string(),
            }),
            None => Err(DynamicError::Wal {
                message: "log unavailable after a failed rotation; \
                          re-attach the store to restore durability"
                    .into(),
            }),
        }
    }
}

/// Background-rebuild control block.
#[derive(Debug, Default)]
struct RebuildCtl {
    running: bool,
    handle: Option<JoinHandle<()>>,
    /// A failure waiting to surface on the next update.
    failure: Option<String>,
    consecutive_failures: u32,
    /// Earliest instant the next background attempt may start (backoff).
    not_before: Option<Instant>,
}

#[derive(Debug, Default)]
struct Counters {
    rebuilds: AtomicU64,
    background_rebuilds: AtomicU64,
    failed_rebuilds: AtomicU64,
    last_rebuild_nanos: AtomicU64,
    carry_over_depth: AtomicU64,
    blocked_on_rebuild: AtomicU64,
    serving_swaps_contended: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    original: Graph,
    epsilon: f64,
    threshold: usize,
    background: AtomicBool,
    rebuild_workers: AtomicUsize,
    /// True exactly while a background *build* is computing (cleared
    /// before the install swap) — the availability gate's reference.
    build_in_flight: AtomicBool,
    serving: RwLock<Arc<ServingState>>,
    commit: Mutex<CommitState>,
    rebuild: Mutex<RebuildCtl>,
    counters: Counters,
    replay: Option<ReplayReport>,
    inject_build_errors: AtomicUsize,
    inject_build_panics: AtomicUsize,
}

/// A fully dynamic `(1+ε)` distance oracle over `G ∖ F` with buffered
/// updates, periodic (optionally background) rebuilds, and write-ahead
/// logged durability when a store is attached.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, NodeId};
/// use fsdl_labels::DynamicOracle;
///
/// let g = generators::cycle(24);
/// let mut oracle = DynamicOracle::new(&g, 1.0);
/// oracle.delete_vertex(NodeId::new(1)).unwrap();
/// let d = oracle.distance(NodeId::new(0), NodeId::new(2)).finite().unwrap();
/// assert!(d >= 22); // forced the long way around
/// oracle.restore_vertex(NodeId::new(1)).unwrap();
/// assert_eq!(oracle.distance(NodeId::new(0), NodeId::new(2)).finite(), Some(2));
/// ```
#[derive(Debug)]
pub struct DynamicOracle {
    inner: Arc<Inner>,
}

/// Backoff after `failures` consecutive background failures: 10 ms
/// doubling, capped at 1 s.
fn backoff_after(failures: u32) -> Duration {
    let ms = 10u64.saturating_mul(1u64 << failures.saturating_sub(1).min(10));
    Duration::from_millis(ms.min(1_000))
}

/// The default rebuild threshold `⌈√n⌉`.
fn default_threshold(g: &Graph) -> usize {
    ((g.num_vertices() as f64).sqrt().ceil() as usize).max(1)
}

fn check_vertex(g: &Graph, v: NodeId) -> Result<(), DynamicError> {
    if g.contains(v) {
        Ok(())
    } else {
        Err(DynamicError::VertexOutOfRange {
            v,
            n: g.num_vertices(),
        })
    }
}

/// Adds every fault of `extra` to `baked`.
fn fold_into(baked: &mut FaultSet, extra: &FaultSet) {
    for v in extra.vertices() {
        baked.forbid_vertex(v);
    }
    for e in extra.edges() {
        baked.forbid_edge_unchecked(e.lo(), e.hi());
    }
}

/// The faults of `a` not present in `b` (the carry-over computation).
fn fault_difference(a: &FaultSet, b: &FaultSet) -> FaultSet {
    let mut out = FaultSet::empty();
    for v in a.vertices() {
        if !b.is_vertex_faulty(v) {
            out.forbid_vertex(v);
        }
    }
    for e in a.edges() {
        if !b.is_edge_faulty(e.lo(), e.hi()) {
            out.forbid_edge_unchecked(e.lo(), e.hi());
        }
    }
    out
}

/// What one update requires beyond an edit of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Deleting what is already deleted: nothing to log, nothing to apply.
    Noop,
    /// Only the buffer changes.
    Buffer,
    /// The deletion takes the buffer past the threshold: fold and rebuild,
    /// inside the update when blocking, on the background thread otherwise.
    Threshold,
    /// A baked fault comes back, so the labeling no longer matches: fold
    /// and rebuild inside the update.
    BakedRestore,
    /// An explicit [`DynamicOracle::rebuild`].
    Fold,
}

/// Where every current fault lives, and the only copy of the update rules.
/// Pure: no labeling, no log, no lock — the live path and WAL replay drive
/// it identically.
struct Ledger<'a> {
    baked: Cow<'a, FaultSet>,
    buffer: FaultSet,
}

impl Ledger<'_> {
    /// Validates `record` against the original graph `g` and the current
    /// split, and says what applying it requires. Changes nothing.
    fn plan(&self, g: &Graph, threshold: usize, record: WalRecord) -> Result<Step, DynamicError> {
        let (delete, buffered, baked, not_deleted) = match record {
            WalRecord::Fold => return Ok(Step::Fold),
            WalRecord::DeleteVertex(v) | WalRecord::RestoreVertex(v) => {
                check_vertex(g, v)?;
                (
                    matches!(record, WalRecord::DeleteVertex(_)),
                    self.buffer.is_vertex_faulty(v),
                    self.baked.is_vertex_faulty(v),
                    DynamicError::VertexNotDeleted { v },
                )
            }
            WalRecord::DeleteEdge(a, b) | WalRecord::RestoreEdge(a, b) => {
                check_vertex(g, a)?;
                check_vertex(g, b)?;
                let delete = matches!(record, WalRecord::DeleteEdge(..));
                if delete && !g.has_edge(a, b) {
                    return Err(DynamicError::NotAnEdge { a, b });
                }
                (
                    delete,
                    self.buffer.is_edge_faulty(a, b),
                    self.baked.is_edge_faulty(a, b),
                    DynamicError::EdgeNotDeleted { a, b },
                )
            }
        };
        Ok(match (delete, buffered, baked) {
            (true, false, false) if self.buffer.len() >= threshold => Step::Threshold,
            (true, false, false) => Step::Buffer,
            (true, ..) => Step::Noop,
            (false, true, _) => Step::Buffer,
            (false, false, true) => Step::BakedRestore,
            (false, false, false) => return Err(not_deleted),
        })
    }

    /// Applies a planned `record`, then folds the buffer into the baked
    /// set when `fold` is set. Returns whether the baked set changed (the
    /// serving labeling is then stale).
    fn commit(&mut self, record: WalRecord, fold: bool) -> bool {
        let mut stale = false;
        match record {
            WalRecord::DeleteVertex(v) => {
                self.buffer.forbid_vertex(v);
            }
            WalRecord::DeleteEdge(a, b) => {
                self.buffer.forbid_edge_unchecked(a, b);
            }
            WalRecord::RestoreVertex(v) => {
                stale = !self.buffer.permit_vertex(v) && self.baked.to_mut().permit_vertex(v);
            }
            WalRecord::RestoreEdge(a, b) => {
                stale = !self.buffer.permit_edge(a, b) && self.baked.to_mut().permit_edge(a, b);
            }
            WalRecord::Fold => {}
        }
        if fold && !self.buffer.is_empty() {
            fold_into(self.baked.to_mut(), &self.buffer);
            self.buffer = FaultSet::empty();
            stale = true;
        }
        stale
    }
}

/// The graph a labeling of `base` is built on: `base` itself, or a
/// 1-vertex placeholder once everything is deleted (queries then all
/// return INFINITE via the mapping checks).
fn labeled_graph(base: &Subgraph) -> Cow<'_, Graph> {
    if base.graph.num_vertices() == 0 {
        Cow::Owned(fsdl_graph::GraphBuilder::new(1).build())
    } else {
        Cow::Borrowed(&base.graph)
    }
}

/// Builds the labeling for `original ∖ baked`. `prewarm_workers > 0`
/// materializes every label eagerly on that many threads (the background
/// path); `0` leaves labels lazy (the blocking path, where persistence
/// prewarms anyway).
fn build_generation(
    original: &Graph,
    baked: FaultSet,
    epsilon: f64,
    prewarm_workers: usize,
) -> GenerationState {
    let base = subgraph::remove_faults(original, &baked);
    let labeled = labeled_graph(&base);
    let params = SchemeParams::new(epsilon, labeled.num_vertices());
    let oracle = ForbiddenSetOracle::with_params(&labeled, params);
    if prewarm_workers > 0 {
        oracle.prewarm_workers(prewarm_workers);
    }
    GenerationState {
        base,
        oracle,
        baked,
    }
}

fn fire_store(point: CrashPoint) -> Result<(), StoreError> {
    crash::fire(point).map_err(|p| {
        StoreError::Wal(WalError::Injected {
            point: p.name().to_string(),
        })
    })
}

impl Inner {
    // ----- lock helpers (panic-free on poisoning: a poisoned thread must
    // degrade, not cascade) -----

    fn lock_commit(&self) -> MutexGuard<'_, CommitState> {
        self.commit.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_rebuild(&self) -> MutexGuard<'_, RebuildCtl> {
        self.rebuild.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The query path's snapshot: an `Arc` clone out of the serving lock.
    /// Never touches the commit or rebuild locks — contention can only
    /// come from an `O(1)` install swap, and is counted to prove it.
    fn snapshot(&self) -> Arc<ServingState> {
        match self.serving.try_read() {
            Ok(s) => Arc::clone(&s),
            Err(std::sync::TryLockError::Poisoned(e)) => Arc::clone(&e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => {
                let c = &self.counters;
                c.serving_swaps_contended.fetch_add(1, Ordering::Relaxed);
                if self.build_in_flight.load(Ordering::Relaxed) {
                    c.blocked_on_rebuild.fetch_add(1, Ordering::Relaxed);
                }
                let guard = self.serving.read().unwrap_or_else(|e| e.into_inner());
                Arc::clone(&guard)
            }
        }
    }

    /// Swaps in a new serving state (commit lock must be held by the
    /// caller — updates and installs serialize there).
    fn install(&self, generation: Arc<GenerationState>, buffer: FaultSet) {
        let next = Arc::new(ServingState { generation, buffer });
        *self.serving.write().unwrap_or_else(|e| e.into_inner()) = next;
    }

    /// Installs a rebuilt `generation` with its carry-over `buffer` and
    /// counts the rebuild that began at `started`. Commit lock held.
    fn publish(&self, generation: Arc<GenerationState>, buffer: FaultSet, started: Instant) {
        self.install(generation, buffer);
        self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.counters
            .last_rebuild_nanos
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// The blocking rebuild: labels `original ∖ ledger.baked` and
    /// publishes it with `ledger.buffer`. Commit lock held.
    fn rebuild_to(&self, ledger: Ledger<'_>) -> Arc<GenerationState> {
        let started = Instant::now();
        let baked = ledger.baked.into_owned();
        let generation = Arc::new(build_generation(&self.original, baked, self.epsilon, 0));
        self.publish(Arc::clone(&generation), ledger.buffer, started);
        generation
    }

    /// Writes `generation` + `buffer` to `dir` as a new store generation.
    /// When `dir` is the attached store the new manifest subsumes the log,
    /// so the WAL is rotated and the store generation recorded too. On
    /// failure the store keeps its previous generation; if the rotation
    /// itself failed, the WAL stays unavailable so subsequent updates fail
    /// fast rather than silently losing durability.
    fn persist(
        &self,
        commit: &mut CommitState,
        dir: &Path,
        generation: &GenerationState,
        buffer: &FaultSet,
    ) -> Result<StoreReport, StoreError> {
        let oracle = &generation.oracle;
        let report = store::write_generation(
            dir,
            oracle.params(),
            store::graph_fingerprint(oracle.labeling().graph()),
            &crate::EdgeSets::from_labeling(oracle.labeling()).encode(),
            &oracle.point_records(),
            &generation.baked,
            buffer,
            Some(self.threshold),
        )?;
        if commit.store_dir.as_deref() == Some(dir) {
            // The manifest swap already pruned the stale log file.
            commit.wal = None;
            fire_store(CrashPoint::BeforeWalRotate)?;
            let wal = Wal::create(dir, report.generation)?;
            fire_store(CrashPoint::AfterWalRotate)?;
            commit.wal = Some(wal);
            commit.generation = report.generation;
        }
        Ok(report)
    }

    /// [`Inner::persist`] to the attached store; no-op without one.
    fn persist_attached(
        &self,
        commit: &mut CommitState,
        generation: &GenerationState,
        buffer: &FaultSet,
    ) -> Result<(), StoreError> {
        match commit.store_dir.clone() {
            Some(dir) => self.persist(commit, &dir, generation, buffer).map(drop),
            None => Ok(()),
        }
    }
}

impl DynamicOracle {
    /// Creates the oracle over `g` with precision `epsilon` and the default
    /// `⌈√n⌉` rebuild threshold.
    ///
    /// # Panics
    ///
    /// Panics on an unusable configuration; [`DynamicOracle::try_new`] is
    /// the typed-error variant.
    pub fn new(g: &Graph, epsilon: f64) -> Self {
        Self::try_new(g, epsilon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the oracle with an explicit rebuild threshold (the harness
    /// sweeps this to show the `√n` balance point).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`, `g` is empty, or `epsilon` is invalid;
    /// [`DynamicOracle::try_with_threshold`] is the typed-error variant.
    pub fn with_threshold(g: &Graph, epsilon: f64, threshold: usize) -> Self {
        Self::try_with_threshold(g, epsilon, threshold).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DynamicOracle::new`].
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidConfig`] for an empty graph or an invalid
    /// `epsilon`.
    pub fn try_new(g: &Graph, epsilon: f64) -> Result<Self, DynamicError> {
        Self::try_with_config(
            g,
            DynamicConfig {
                epsilon,
                ..DynamicConfig::default()
            },
        )
    }

    /// Fallible [`DynamicOracle::with_threshold`].
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidConfig`] when `threshold == 0`, `g` is
    /// empty, or `epsilon` is not positive finite.
    pub fn try_with_threshold(
        g: &Graph,
        epsilon: f64,
        threshold: usize,
    ) -> Result<Self, DynamicError> {
        Self::try_with_config(
            g,
            DynamicConfig {
                epsilon,
                threshold: Some(threshold),
                ..DynamicConfig::default()
            },
        )
    }

    /// Creates the oracle from a full [`DynamicConfig`] (rebuild mode,
    /// worker count, threshold).
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidConfig`] for any unusable setting.
    pub fn try_with_config(g: &Graph, config: DynamicConfig) -> Result<Self, DynamicError> {
        let invalid = |message: String| DynamicError::InvalidConfig { message };
        if g.num_vertices() == 0 {
            return Err(invalid("the graph has no vertices".into()));
        }
        if !(config.epsilon.is_finite() && config.epsilon > 0.0) {
            return Err(invalid(format!(
                "epsilon must be positive finite, got {}",
                config.epsilon
            )));
        }
        if config.threshold == Some(0) {
            return Err(invalid("rebuild threshold must be positive".into()));
        }
        let generation = build_generation(g, FaultSet::empty(), config.epsilon, 0);
        Ok(Self::assemble(
            g,
            &config,
            generation,
            FaultSet::empty(),
            CommitState::default(),
            None,
        ))
    }

    /// The one place an [`Inner`] is put together. `config.threshold` is
    /// validated by the caller; `None` resolves to `⌈√n⌉` here.
    fn assemble(
        original: &Graph,
        config: &DynamicConfig,
        generation: GenerationState,
        buffer: FaultSet,
        commit: CommitState,
        replay: Option<ReplayReport>,
    ) -> Self {
        let serving = ServingState {
            generation: Arc::new(generation),
            buffer,
        };
        DynamicOracle {
            inner: Arc::new(Inner {
                original: original.clone(),
                epsilon: config.epsilon,
                threshold: config
                    .threshold
                    .unwrap_or_else(|| default_threshold(original)),
                background: AtomicBool::new(config.mode == RebuildMode::Background),
                rebuild_workers: AtomicUsize::new(config.rebuild_workers),
                build_in_flight: AtomicBool::new(false),
                serving: RwLock::new(Arc::new(serving)),
                commit: Mutex::new(commit),
                rebuild: Mutex::new(RebuildCtl::default()),
                counters: Counters::default(),
                replay,
                inject_build_errors: AtomicUsize::new(0),
                inject_build_panics: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of buffered (not yet baked) faults.
    pub fn buffered(&self) -> usize {
        self.inner.snapshot().buffer.len()
    }

    /// Number of vertices of the original graph — the id space every
    /// update and query uses, regardless of how many vertices the current
    /// fault set has removed.
    pub fn num_vertices(&self) -> usize {
        self.inner.original.num_vertices()
    }

    /// Number of rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.inner.counters.rebuilds.load(Ordering::Relaxed) as usize
    }

    /// The current full fault set (baked + buffered).
    pub fn current_faults(&self) -> FaultSet {
        let snap = self.inner.snapshot();
        let mut f = snap.generation.baked.clone();
        fold_into(&mut f, &snap.buffer);
        f
    }

    /// Switches the rebuild scheduling mode (takes effect at the next
    /// threshold crossing; an in-flight background rebuild finishes
    /// regardless).
    pub fn set_rebuild_mode(&mut self, mode: RebuildMode) {
        self.inner
            .background
            .store(mode == RebuildMode::Background, Ordering::SeqCst);
    }

    /// Whether a background rebuild is currently in flight.
    pub fn rebuild_in_flight(&self) -> bool {
        self.inner.lock_rebuild().running
    }

    /// Blocks until no background rebuild is in flight (returns
    /// immediately when none is).
    pub fn wait_for_rebuild(&self) {
        loop {
            let handle = {
                let mut ctl = self.inner.lock_rebuild();
                if !ctl.running && ctl.handle.is_none() {
                    return;
                }
                ctl.handle.take()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => std::thread::yield_now(),
            }
        }
    }

    /// Makes the next `n` background rebuild attempts fail with an
    /// injected build fault (test/chaos hook for the degradation ladder).
    pub fn inject_rebuild_errors(&self, n: usize) {
        self.inner.inject_build_errors.store(n, Ordering::SeqCst);
    }

    /// Makes the next `n` background rebuild attempts panic (exercises
    /// the poisoned-thread leg of the degradation ladder).
    pub fn inject_rebuild_panics(&self, n: usize) {
        self.inner.inject_build_panics.store(n, Ordering::SeqCst);
    }

    /// A point-in-time snapshot of the rebuild / WAL health counters.
    pub fn stats(&self) -> DynamicStats {
        let snap = self.inner.snapshot();
        let c = &self.inner.counters;
        let (generation, wal_records, wal_bytes) = {
            let commit = self.inner.lock_commit();
            match commit.wal.as_ref() {
                Some(w) => (
                    commit.generation,
                    w.records_since_rotation(),
                    w.bytes_since_rotation(),
                ),
                None => (commit.generation, 0, 0),
            }
        };
        let (replayed_records, replay_truncated_bytes) = self
            .inner
            .replay
            .as_ref()
            .map_or((0, 0), |r| (r.records as u64, r.truncated_bytes));
        let plane = snap.generation.oracle.label_plane_stats();
        DynamicStats {
            rebuilds: c.rebuilds.load(Ordering::Relaxed),
            background_rebuilds: c.background_rebuilds.load(Ordering::Relaxed),
            failed_rebuilds: c.failed_rebuilds.load(Ordering::Relaxed),
            last_rebuild_ms: c.last_rebuild_nanos.load(Ordering::Relaxed) as f64 / 1e6,
            rebuild_in_flight: self.rebuild_in_flight(),
            buffered: snap.buffer.len(),
            baked: snap.generation.baked.len(),
            threshold: self.inner.threshold,
            store_generation: generation,
            wal_records_since_rotation: wal_records,
            wal_bytes_since_rotation: wal_bytes,
            carry_over_depth: c.carry_over_depth.load(Ordering::Relaxed),
            replayed_records,
            replay_truncated_bytes,
            blocked_on_rebuild: c.blocked_on_rebuild.load(Ordering::Relaxed),
            serving_swaps_contended: c.serving_swaps_contended.load(Ordering::Relaxed),
            resident_labels: plane.resident_labels,
            resident_label_bytes: plane.resident_label_bytes,
            on_disk_label_bytes: plane.on_disk_label_bytes,
            label_open_mode: plane.open_mode,
        }
    }

    /// The one update path: plan `record` on the ledger, append it to the
    /// WAL, commit it, and do whatever rebuild the step requires.
    fn apply(&self, record: WalRecord) -> Result<(), DynamicError> {
        let inner = &*self.inner;
        let mut commit = inner.lock_commit();
        let snap = inner.snapshot();
        let mut ledger = Ledger {
            baked: Cow::Borrowed(&snap.generation.baked),
            buffer: snap.buffer.clone(),
        };
        let step = ledger.plan(&inner.original, inner.threshold, record)?;
        if step == Step::Noop {
            return Ok(());
        }
        if let Err(e) = commit.append(record) {
            if record != WalRecord::Fold {
                return Err(e);
            }
            // `rebuild()` returns nothing: the fold still happens in
            // memory and the lapse surfaces from the next update.
            inner.lock_rebuild().failure = Some(format!("logging an explicit fold failed: {e}"));
        }
        // Everything past `Buffer` folds and rebuilds inside the update,
        // except a threshold crossing in background mode: that fold is
        // left to the rebuild thread.
        let deferred = step == Step::Threshold && inner.background.load(Ordering::SeqCst);
        let fold_now = step != Step::Buffer && !deferred;
        ledger.commit(record, fold_now);
        if !fold_now {
            inner.install(Arc::clone(&snap.generation), ledger.buffer);
            if deferred {
                self.spawn_background_rebuild();
            }
            return Ok(());
        }
        let generation = inner.rebuild_to(ledger);
        if step == Step::Fold {
            // Explicit folds are in-memory only (`save` checkpoints them).
            return Ok(());
        }
        inner
            .persist_attached(&mut commit, &generation, &FaultSet::empty())
            .map_err(|e| DynamicError::Persist {
                message: e.to_string(),
            })
    }

    /// [`DynamicOracle::apply`], then surfaces a background failure
    /// recorded since the last update, per the degradation contract.
    fn update(&self, record: WalRecord) -> Result<(), DynamicError> {
        self.apply(record)?;
        match self.inner.lock_rebuild().failure.take() {
            Some(message) => Err(DynamicError::RebuildFailed { message }),
            None => Ok(()),
        }
    }

    /// Spawns the background rebuild thread unless one is running or the
    /// failure backoff is still cooling down. Commit lock held by the
    /// caller (so the snapshot the build starts from cannot race an
    /// install).
    fn spawn_background_rebuild(&self) {
        let mut ctl = self.inner.lock_rebuild();
        if ctl.running || ctl.not_before.is_some_and(|nb| Instant::now() < nb) {
            return;
        }
        // Reap the previous thread's handle (it has already finished).
        if let Some(h) = ctl.handle.take() {
            let _ = h.join();
        }
        ctl.running = true;
        self.inner.build_in_flight.store(true, Ordering::SeqCst);
        let (inner, start) = (Arc::clone(&self.inner), self.inner.snapshot());
        ctl.handle = Some(std::thread::spawn(move || {
            background_rebuild(&inner, &start)
        }));
    }

    /// Deletes a vertex of `G` (`Ok` no-op if already deleted).
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] when `v` is not a vertex of the
    /// original graph; [`DynamicError::Wal`] when the write-ahead append
    /// failed (the update is then *not* applied); [`DynamicError::Persist`]
    /// / [`DynamicError::RebuildFailed`] per the store contract (the
    /// update *is* applied in memory).
    pub fn delete_vertex(&mut self, v: NodeId) -> Result<(), DynamicError> {
        self.update(WalRecord::DeleteVertex(v))
    }

    /// Deletes an edge of `G` (`Ok` no-op if already deleted).
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] for an out-of-range endpoint;
    /// [`DynamicError::NotAnEdge`] when `{a, b}` is not an edge of the
    /// original graph; plus the store-path errors of
    /// [`DynamicOracle::delete_vertex`].
    pub fn delete_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), DynamicError> {
        self.update(WalRecord::DeleteEdge(a, b))
    }

    /// Restores a previously deleted vertex of `G`. A buffered deletion is
    /// simply dropped from the buffer; restoring a baked one rebuilds the
    /// labeling inside this call (it no longer matches), in either
    /// [`RebuildMode`]. Neither waits for an in-flight background rebuild:
    /// a build that folded `v`, or that a blocking rebuild overtook, is
    /// superseded and discarded (the module doc's lineage rule).
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] for an out-of-range id;
    /// [`DynamicError::VertexNotDeleted`] when `v` is not currently
    /// deleted; plus the store-path errors of
    /// [`DynamicOracle::delete_vertex`].
    pub fn restore_vertex(&mut self, v: NodeId) -> Result<(), DynamicError> {
        self.update(WalRecord::RestoreVertex(v))
    }

    /// Restores a previously deleted edge of `G`, with the rebuild and
    /// lineage behaviour of [`DynamicOracle::restore_vertex`].
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] for an out-of-range endpoint;
    /// [`DynamicError::EdgeNotDeleted`] when `{a, b}` is not currently
    /// deleted; plus the store-path errors of
    /// [`DynamicOracle::delete_vertex`].
    pub fn restore_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), DynamicError> {
        self.update(WalRecord::RestoreEdge(a, b))
    }

    /// The `(1+ε)`-approximate distance between `s` and `t` (original ids)
    /// in the current graph `G ∖ F`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range for the original graph. Use
    /// [`DynamicOracle::try_distance`] (which this routes through) to get
    /// a typed error instead — the right entry point when the query ids
    /// come from callers the service does not control.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Dist {
        match self.try_distance(s, t) {
            Ok(d) => d,
            Err(e) => panic!("query vertex out of range: {e}"),
        }
    }

    /// Strict variant of [`DynamicOracle::distance`]: rejects out-of-range
    /// query vertices with a typed [`DynamicError`] instead of panicking,
    /// matching the fallible update API (and the store serving path,
    /// which must never abort on untrusted query input).
    ///
    /// This is the always-available path: it reads one `Arc` snapshot
    /// from the serving lock and never waits on the commit or rebuild
    /// locks, so an in-flight background rebuild cannot block it.
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] when `s` or `t` is not a vertex
    /// of the original graph.
    pub fn try_distance(&self, s: NodeId, t: NodeId) -> Result<Dist, DynamicError> {
        self.try_distance_with(s, t, &mut DecodeScratch::new())
    }

    /// [`DynamicOracle::try_distance`] with a caller-provided
    /// [`DecodeScratch`] — the dynamic counterpart of
    /// [`crate::ForbiddenSetOracle::try_query_with`], so a serving loop
    /// (one connection, many requests) keeps the zero-allocation decode
    /// fast path across the network hop. Same answer, bit for bit.
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`] when `s` or `t` is not a vertex
    /// of the original graph.
    pub fn try_distance_with(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut DecodeScratch,
    ) -> Result<Dist, DynamicError> {
        check_vertex(&self.inner.original, s)?;
        check_vertex(&self.inner.original, t)?;
        let snap = self.inner.snapshot();
        let gen = &snap.generation;
        // Deleted endpoints are unreachable by definition.
        let (Some(bs), Some(bt)) = (gen.base.map(s), gen.base.map(t)) else {
            return Ok(Dist::INFINITE);
        };
        if snap.buffer.is_vertex_faulty(s) || snap.buffer.is_vertex_faulty(t) {
            return Ok(Dist::INFINITE);
        }
        // Translate buffered faults into base-graph ids.
        let mut f = FaultSet::empty();
        for v in snap.buffer.vertices() {
            if let Some(bv) = gen.base.map(v) {
                f.forbid_vertex(bv);
            }
        }
        for e in snap.buffer.edges() {
            if let (Some(a), Some(b)) = (gen.base.map(e.lo()), gen.base.map(e.hi())) {
                if gen.base.graph.has_edge(a, b) {
                    f.forbid_edge_unchecked(a, b);
                }
            }
        }
        Ok(gen.oracle.query_with(bs, bt, &f, scratch).distance)
    }

    /// Connectivity in the current graph.
    pub fn connected(&self, s: NodeId, t: NodeId) -> bool {
        self.distance(s, t).is_finite()
    }

    /// Folds the buffer into the baked set and rebuilds the labeling on
    /// the surviving graph, synchronously and in memory only (call
    /// [`DynamicOracle::save`] to checkpoint). With a store attached, the
    /// fold is still WAL-logged so a post-crash replay reproduces the
    /// same baked/buffered split; a WAL failure here is recorded and
    /// surfaces from the next update.
    pub fn rebuild(&mut self) {
        self.wait_for_rebuild();
        let folded = self.apply(WalRecord::Fold);
        debug_assert!(
            folded.is_ok(),
            "a fold always validates and persists nothing"
        );
    }

    /// Persists the oracle's full state to the store at `dir` as a new
    /// generation: the base labeling's segment plus a manifest recording
    /// the baked fault set, the *buffered* fault set, and the rebuild
    /// threshold — so a mid-churn [`DynamicOracle::open`] resumes
    /// bit-identically, buffered deletions included. Older generations
    /// are pruned after the manifest swap; when `dir` is the attached
    /// store, the WAL is rotated too (the new manifest subsumes it).
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] on encoding or I/O failure; the store keeps
    /// its previous generation in that case.
    pub fn save(&self, dir: &Path) -> Result<StoreReport, StoreError> {
        let mut commit = self.inner.lock_commit();
        let snap = self.inner.snapshot();
        self.inner
            .persist(&mut commit, dir, &snap.generation, &snap.buffer)
    }

    /// Warm-starts a dynamic oracle from the store at `dir`, previously
    /// written by [`DynamicOracle::save`] (directly or via an attached
    /// store). `g` must be the *original* graph: the baked fault set from
    /// the manifest is re-applied to reconstruct the base subgraph, whose
    /// fingerprint must match the segment's; labels then decode lazily
    /// from the segment, so the rebuild cost is skipped.
    ///
    /// Recovery work on top of that: stale WAL files, orphaned segments,
    /// and `.tmp-` artifacts are pruned; the current generation's WAL is
    /// replayed (torn tails truncated, corruption rejected with a typed
    /// error); if the replay crossed a fold point, the labeling is
    /// rebuilt and persisted as a fresh generation before serving. The
    /// returned oracle keeps `dir` attached (WAL included), so subsequent
    /// updates are durable. It starts in [`RebuildMode::Blocking`]; use
    /// [`DynamicOracle::set_rebuild_mode`] to go non-blocking.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] for every corruption, mismatch, or I/O
    /// failure — never a panic on untrusted on-disk bytes.
    pub fn open(dir: &Path, g: &Graph) -> Result<Self, StoreError> {
        Self::open_with(dir, g, OpenMode::Eager)
    }

    /// [`DynamicOracle::open`] with an explicit [`OpenMode`] for the
    /// segment (see [`crate::ForbiddenSetOracle::open_with`]): under
    /// [`OpenMode::Lazy`] the serving generation memory-maps the segment
    /// and materializes labels at first touch, so a warm restart reaches
    /// its first answer in O(touched labels). Rebuilt generations (fold
    /// replay, threshold crossings) are in-memory and unaffected.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`]; see [`DynamicOracle::open`].
    pub fn open_with(dir: &Path, g: &Graph, mode: OpenMode) -> Result<Self, StoreError> {
        let manifest = store::read_manifest(dir)?;
        // A crash loop must not leak files: drop orphaned segments, stale
        // WALs, and temp artifacts before anything else.
        store::prune_generations(dir, manifest.generation);
        let segment = Segment::open(&dir.join(&manifest.segment), mode)?;
        let corrupt = |message: String| StoreError::ManifestCorrupt { line: 0, message };
        for v in manifest.baked.vertices().chain(manifest.buffer.vertices()) {
            if !g.contains(v) {
                return Err(corrupt(format!(
                    "fault vertex {v} out of range for a {}-vertex graph",
                    g.num_vertices()
                )));
            }
        }
        for e in manifest.baked.edges().chain(manifest.buffer.edges()) {
            if !g.contains(e.lo()) || !g.contains(e.hi()) {
                return Err(corrupt(format!(
                    "fault edge ({}, {}) out of range",
                    e.lo(),
                    e.hi()
                )));
            }
        }
        if manifest.threshold == Some(0) {
            return Err(corrupt("rebuild threshold must be positive".into()));
        }
        // Open at the manifest's state. `from_segment` rejects a wrong
        // graph before any replay writes: the segment must have been
        // built on exactly `g ∖ baked`.
        let base = subgraph::remove_faults(g, &manifest.baked);
        let oracle = ForbiddenSetOracle::from_segment(&labeled_graph(&base), Arc::new(segment))?;
        let config = DynamicConfig {
            epsilon: oracle.params().epsilon(),
            threshold: manifest.threshold,
            ..DynamicConfig::default()
        };
        let generation = GenerationState {
            base,
            oracle,
            baked: manifest.baked,
        };
        let wal_path = dir.join(crate::wal::wal_file_name(manifest.generation));
        let (wal, records, replay) = if wal_path.exists() {
            Wal::open(dir, manifest.generation)?
        } else {
            let wal = Wal::create(dir, manifest.generation)?;
            (wal, Vec::new(), ReplayReport::default())
        };
        let commit = CommitState {
            store_dir: Some(dir.to_path_buf()),
            wal: Some(wal),
            generation: manifest.generation,
        };
        let opened = Self::assemble(
            g,
            &config,
            generation,
            manifest.buffer,
            commit,
            Some(replay),
        );

        // Replay the surviving records through the live path's ledger,
        // folding wherever a blocking update would have rebuilt.
        let inner = &*opened.inner;
        let snap = inner.snapshot();
        let mut ledger = Ledger {
            baked: Cow::Borrowed(&snap.generation.baked),
            buffer: snap.buffer.clone(),
        };
        let mut stale = false;
        for (index, record) in records.into_iter().enumerate() {
            let step = match ledger.plan(g, inner.threshold, record) {
                // The live path never logs a no-op.
                Ok(Step::Noop) => Err("the fault is already deleted".to_string()),
                Ok(step) => Ok(step),
                Err(e) => Err(e.to_string()),
            }
            .map_err(|message| WalError::RecordInvalid { index, message })?;
            stale |= ledger.commit(record, step != Step::Buffer);
        }
        if stale {
            // The persisted labeling no longer matches the baked set.
            // Rebuild and persist a fresh generation before serving; a
            // crash in here just replays again from the old manifest +
            // WAL.
            inner.rebuild_to(ledger);
            opened.save(dir)?;
        } else {
            inner.install(Arc::clone(&snap.generation), ledger.buffer);
        }
        Ok(opened)
    }

    /// Attaches a store directory and persists the current state to it
    /// immediately (creating the write-ahead log that makes subsequent
    /// updates durable). From then on every rebuild (threshold overflow
    /// or baked restoration) is persisted as a new generation; a persist
    /// failure surfaces from the triggering update as
    /// [`DynamicError::Persist`] while the in-memory oracle stays
    /// consistent. Explicit [`DynamicOracle::rebuild`] calls are
    /// in-memory only; call [`DynamicOracle::save`] to checkpoint after
    /// one.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] if the initial save or WAL creation fails
    /// (the store is then *not* attached).
    pub fn attach_store(&mut self, dir: &Path) -> Result<StoreReport, StoreError> {
        self.wait_for_rebuild();
        let mut commit = self.inner.lock_commit();
        let snap = self.inner.snapshot();
        let previous = commit.store_dir.replace(dir.to_path_buf());
        let result = self
            .inner
            .persist(&mut commit, dir, &snap.generation, &snap.buffer);
        if result.is_err() {
            // A failed write leaves the previous attachment and its log
            // untouched; past the manifest swap the log is gone with it.
            let log_survives = commit.wal.is_some();
            commit.store_dir = previous.filter(|_| log_survives);
        }
        result
    }

    /// The attached store directory, if any.
    pub fn store_dir(&self) -> Option<PathBuf> {
        self.inner.lock_commit().store_dir.clone()
    }
}

/// The background rebuild thread body: build the next generation off to
/// the side from the `start` snapshot, then (commit lock) check lineage,
/// persist, and publish — or, on any failure, discard the work, record it
/// for the next update, and back off. The serving path is untouched
/// throughout except for the final `O(1)` install swap.
fn background_rebuild(inner: &Inner, start: &ServingState) {
    let started = Instant::now();
    let take = |cell: &AtomicUsize| {
        cell.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    };
    let built: Result<GenerationState, String> = if take(&inner.inject_build_errors) {
        Err("injected background build fault".into())
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            if take(&inner.inject_build_panics) {
                panic!("injected background build panic");
            }
            let mut baked = start.generation.baked.clone();
            fold_into(&mut baked, &start.buffer);
            let requested = inner.rebuild_workers.load(Ordering::SeqCst);
            let n = inner.original.num_vertices();
            let workers = if requested == 0 {
                fsdl_nets::parallel::background_workers(n)
            } else {
                fsdl_nets::parallel::resolve_workers(requested, n)
            };
            build_generation(&inner.original, baked, inner.epsilon, workers)
        }))
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "background rebuild panicked".into());
            format!("background rebuild panicked: {msg}")
        })
    };
    // The build phase is over (successful or not); from here only the
    // O(1) commit/install steps remain, so queries observing contention
    // past this point are not blocked "on the rebuild".
    inner.build_in_flight.store(false, Ordering::SeqCst);

    let outcome = built.and_then(|generation| {
        let mut commit = inner.lock_commit();
        let now = inner.snapshot();
        // The lineage rule (module doc): publish only over a descendant
        // of `start`. A superseded build is dropped, not failed.
        if !Arc::ptr_eq(&now.generation, &start.generation)
            || !fault_difference(&start.buffer, &now.buffer).is_empty()
        {
            return Ok(());
        }
        // Updates that arrived mid-rebuild carry over to the new
        // generation's decoder-side buffer.
        let carry = fault_difference(&now.buffer, &start.buffer);
        let generation = Arc::new(generation);
        inner
            .persist_attached(&mut commit, &generation, &carry)
            .map_err(|e| format!("persisting the rebuilt generation failed: {e}"))?;
        let c = &inner.counters;
        c.background_rebuilds.fetch_add(1, Ordering::Relaxed);
        c.carry_over_depth
            .store(carry.len() as u64, Ordering::Relaxed);
        inner.publish(generation, carry, started);
        Ok(())
    });

    let mut ctl = inner.lock_rebuild();
    match outcome {
        Ok(()) => {
            ctl.consecutive_failures = 0;
            ctl.not_before = None;
        }
        Err(message) => {
            inner
                .counters
                .failed_rebuilds
                .fetch_add(1, Ordering::Relaxed);
            ctl.consecutive_failures += 1;
            ctl.not_before = Some(Instant::now() + backoff_after(ctl.consecutive_failures));
            ctl.failure = Some(message);
        }
    }
    ctl.running = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::{bfs, generators};

    fn check_against_truth(oracle: &DynamicOracle, g: &Graph, faults: &FaultSet, eps: f64) {
        for s in (0..g.num_vertices() as u32).step_by(5) {
            for t in (0..g.num_vertices() as u32).step_by(7) {
                let d = oracle.distance(NodeId::new(s), NodeId::new(t));
                let truth = bfs::pair_distance_avoiding(g, NodeId::new(s), NodeId::new(t), faults);
                match truth.finite() {
                    None => assert!(d.is_infinite(), "{s}->{t} should be disconnected"),
                    Some(0) => assert_eq!(d.finite(), Some(0)),
                    Some(td) => {
                        let dd = d.finite().expect("should be connected");
                        assert!(dd >= td);
                        assert!(
                            f64::from(dd) <= (1.0 + eps) * f64::from(td) + 1e-9,
                            "{s}->{t}: {dd} vs {td}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deletions_and_queries_match_truth() {
        let g = generators::grid2d(6, 6);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 100);
        let mut faults = FaultSet::empty();
        for v in [7u32, 21, 28] {
            oracle.delete_vertex(NodeId::new(v)).unwrap();
            faults.forbid_vertex(NodeId::new(v));
            check_against_truth(&oracle, &g, &faults, 1.0);
        }
        assert_eq!(oracle.rebuilds(), 0);
    }

    #[test]
    fn rebuild_threshold_triggers() {
        let g = generators::cycle(30);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 2);
        oracle.delete_vertex(NodeId::new(1)).unwrap();
        oracle.delete_vertex(NodeId::new(2)).unwrap();
        assert_eq!(oracle.rebuilds(), 0);
        oracle.delete_vertex(NodeId::new(3)).unwrap();
        assert_eq!(oracle.rebuilds(), 1);
        assert_eq!(oracle.buffered(), 0);
        // Queries still correct after the rebuild.
        let faults = oracle.current_faults();
        check_against_truth(&oracle, &g, &faults, 1.0);
    }

    #[test]
    fn restore_buffered_and_baked() {
        let g = generators::cycle(16);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 1);
        oracle.delete_vertex(NodeId::new(3)).unwrap();
        oracle.restore_vertex(NodeId::new(3)).unwrap(); // buffered -> cheap
        assert_eq!(oracle.rebuilds(), 0);
        assert_eq!(
            oracle.distance(NodeId::new(2), NodeId::new(4)).finite(),
            Some(2)
        );
        oracle.delete_vertex(NodeId::new(3)).unwrap();
        oracle.delete_vertex(NodeId::new(8)).unwrap(); // exceeds threshold -> baked
        assert_eq!(oracle.rebuilds(), 1);
        oracle.restore_vertex(NodeId::new(3)).unwrap(); // baked -> rebuild
        assert_eq!(oracle.rebuilds(), 2);
        assert_eq!(
            oracle.distance(NodeId::new(2), NodeId::new(4)).finite(),
            Some(2)
        );
    }

    #[test]
    fn edge_deletions() {
        let g = generators::cycle(12);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 50);
        oracle.delete_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let d = oracle
            .distance(NodeId::new(0), NodeId::new(1))
            .finite()
            .unwrap();
        assert!(d >= 11);
        oracle.restore_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(
            oracle.distance(NodeId::new(0), NodeId::new(1)).finite(),
            Some(1)
        );
    }

    #[test]
    fn duplicate_deletes_are_noops() {
        let g = generators::path(8);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 10);
        oracle.delete_vertex(NodeId::new(4)).unwrap();
        oracle.delete_vertex(NodeId::new(4)).unwrap();
        assert_eq!(oracle.buffered(), 1);
    }

    #[test]
    fn queries_to_deleted_vertices() {
        let g = generators::path(8);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 1);
        oracle.delete_vertex(NodeId::new(4)).unwrap();
        oracle.delete_vertex(NodeId::new(5)).unwrap(); // rebuild happens
        assert!(oracle.rebuilds() >= 1);
        assert!(oracle
            .distance(NodeId::new(4), NodeId::new(0))
            .is_infinite());
        assert!(oracle
            .distance(NodeId::new(0), NodeId::new(5))
            .is_infinite());
        assert!(!oracle.connected(NodeId::new(0), NodeId::new(7)));
        assert!(oracle.connected(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn out_of_range_updates_are_typed_errors() {
        let g = generators::path(8);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 10);
        assert_eq!(
            oracle.delete_vertex(NodeId::new(8)),
            Err(DynamicError::VertexOutOfRange {
                v: NodeId::new(8),
                n: 8
            })
        );
        assert!(matches!(
            oracle.restore_vertex(NodeId::new(99)),
            Err(DynamicError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            oracle.delete_edge(NodeId::new(0), NodeId::new(42)),
            Err(DynamicError::VertexOutOfRange { .. })
        ));
        // The failed updates must not have perturbed the oracle.
        assert_eq!(oracle.buffered(), 0);
        assert_eq!(
            oracle.distance(NodeId::new(0), NodeId::new(7)).finite(),
            Some(7)
        );
    }

    #[test]
    fn delete_non_edge_is_a_typed_error() {
        let g = generators::path(8); // no edge {0, 2}
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 10);
        assert_eq!(
            oracle.delete_edge(NodeId::new(0), NodeId::new(2)),
            Err(DynamicError::NotAnEdge {
                a: NodeId::new(0),
                b: NodeId::new(2)
            })
        );
        assert_eq!(oracle.buffered(), 0);
    }

    #[test]
    fn restore_of_never_deleted_fault_is_a_typed_error() {
        let g = generators::cycle(12);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 10);
        assert_eq!(
            oracle.restore_vertex(NodeId::new(3)),
            Err(DynamicError::VertexNotDeleted { v: NodeId::new(3) })
        );
        assert_eq!(
            oracle.restore_edge(NodeId::new(0), NodeId::new(1)),
            Err(DynamicError::EdgeNotDeleted {
                a: NodeId::new(0),
                b: NodeId::new(1)
            })
        );
        // A delete/restore pair brings the restore back to Ok, and a second
        // restore errors again.
        oracle.delete_vertex(NodeId::new(3)).unwrap();
        oracle.restore_vertex(NodeId::new(3)).unwrap();
        assert!(oracle.restore_vertex(NodeId::new(3)).is_err());
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let g = generators::cycle(8);
        assert!(matches!(
            DynamicOracle::try_with_threshold(&g, 1.0, 0),
            Err(DynamicError::InvalidConfig { .. })
        ));
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DynamicOracle::try_new(&g, eps),
                Err(DynamicError::InvalidConfig { .. })
            ));
        }
        let empty = fsdl_graph::GraphBuilder::new(0).build();
        assert!(matches!(
            DynamicOracle::try_new(&empty, 1.0),
            Err(DynamicError::InvalidConfig { .. })
        ));
        // The panicking shims still panic, with the typed message.
        let err = std::panic::catch_unwind(|| DynamicOracle::with_threshold(&g, 1.0, 0));
        assert!(err.is_err());
        // And a valid config still works.
        assert!(DynamicOracle::try_with_threshold(&g, 1.0, 3).is_ok());
    }

    #[test]
    fn background_rebuild_matches_blocking_answers() {
        let g = generators::grid2d(6, 6);
        let mut background = DynamicOracle::try_with_config(
            &g,
            DynamicConfig {
                epsilon: 1.0,
                threshold: Some(2),
                mode: RebuildMode::Background,
                rebuild_workers: 1,
            },
        )
        .unwrap();
        let mut faults = FaultSet::empty();
        for v in [7u32, 14, 21, 28] {
            background.delete_vertex(NodeId::new(v)).unwrap();
            faults.forbid_vertex(NodeId::new(v));
        }
        background.wait_for_rebuild();
        assert!(background.stats().background_rebuilds >= 1);
        check_against_truth(&background, &g, &faults, 1.0);
        // Restores still work after background installs.
        background.restore_vertex(NodeId::new(7)).unwrap();
        faults.permit_vertex(NodeId::new(7));
        background.wait_for_rebuild();
        check_against_truth(&background, &g, &faults, 1.0);
    }

    #[test]
    fn injected_background_failure_degrades_and_recovers() {
        let g = generators::grid2d(5, 5);
        let mut oracle = DynamicOracle::try_with_config(
            &g,
            DynamicConfig {
                epsilon: 1.0,
                threshold: Some(1),
                mode: RebuildMode::Background,
                rebuild_workers: 1,
            },
        )
        .unwrap();
        oracle.inject_rebuild_errors(1);
        oracle.delete_vertex(NodeId::new(6)).unwrap();
        oracle.delete_vertex(NodeId::new(12)).unwrap(); // crosses threshold
        oracle.wait_for_rebuild();
        let stats = oracle.stats();
        assert_eq!(stats.failed_rebuilds, 1);
        assert_eq!(stats.background_rebuilds, 0);
        // Old generation + buffer still serve correct answers.
        let mut faults = FaultSet::empty();
        faults.forbid_vertex(NodeId::new(6));
        faults.forbid_vertex(NodeId::new(12));
        check_against_truth(&oracle, &g, &faults, 1.0);
        // The failure surfaces exactly once, on the next update.
        let err = oracle.delete_vertex(NodeId::new(18)).unwrap_err();
        assert!(matches!(err, DynamicError::RebuildFailed { .. }), "{err}");
        faults.forbid_vertex(NodeId::new(18));
        // After the backoff elapses, a later update retries and succeeds.
        std::thread::sleep(backoff_after(1));
        oracle.delete_vertex(NodeId::new(19)).unwrap();
        faults.forbid_vertex(NodeId::new(19));
        oracle.wait_for_rebuild();
        assert_eq!(oracle.stats().background_rebuilds, 1);
        check_against_truth(&oracle, &g, &faults, 1.0);
    }

    #[test]
    fn injected_background_panic_is_contained() {
        let g = generators::grid2d(4, 4);
        let mut oracle = DynamicOracle::try_with_config(
            &g,
            DynamicConfig {
                epsilon: 1.0,
                threshold: Some(1),
                mode: RebuildMode::Background,
                rebuild_workers: 1,
            },
        )
        .unwrap();
        oracle.inject_rebuild_panics(1);
        oracle.delete_vertex(NodeId::new(5)).unwrap();
        oracle.delete_vertex(NodeId::new(10)).unwrap();
        oracle.wait_for_rebuild();
        assert_eq!(oracle.stats().failed_rebuilds, 1);
        let err = oracle.delete_vertex(NodeId::new(3)).unwrap_err();
        assert!(
            matches!(err, DynamicError::RebuildFailed { message } if message.contains("panicked"))
        );
        // Still serving.
        assert!(oracle.distance(NodeId::new(0), NodeId::new(15)).is_finite());
    }

    #[test]
    fn stats_reflect_rebuilds() {
        let g = generators::cycle(20);
        let mut oracle = DynamicOracle::with_threshold(&g, 1.0, 1);
        let s0 = oracle.stats();
        assert_eq!(s0.rebuilds, 0);
        assert_eq!(s0.threshold, 1);
        assert_eq!(s0.blocked_on_rebuild, 0);
        oracle.delete_vertex(NodeId::new(1)).unwrap();
        oracle.delete_vertex(NodeId::new(2)).unwrap();
        let s1 = oracle.stats();
        assert_eq!(s1.rebuilds, 1);
        assert!(s1.last_rebuild_ms > 0.0);
        assert_eq!(s1.baked, 2);
        assert_eq!(s1.buffered, 0);
        assert_eq!(s1.store_generation, 0); // no store attached
    }
}
