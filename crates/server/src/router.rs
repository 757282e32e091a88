//! Scatter-gather query router for sharded label stores.
//!
//! The paper's labels are *self-contained*: `δ(s, t, F)` needs only the
//! labels of `s`, `t`, and the faulted elements — at most `2 + |F|`
//! labels wherever they live. That makes horizontal sharding trivially
//! sound: split the vertex set across shard servers (see
//! [`fsdl_labels::partition`]), and a query touches at most `2 + |F|`
//! shards. The router is the piece that reassembles the illusion of a
//! single oracle:
//!
//! 1. **Accept** client `query` / `batch` frames on the crate's
//!    connection plane — the same event loop, connection slab, deadlines
//!    and drain [`crate::Server`] runs (DESIGN.md §4.5). The router is a
//!    handler on it that answers `stats` / `shutdown` / typed rejections
//!    inline and owns the upstream shard sockets on the plane's poller.
//! 2. **Handshake**: at bind, fetch every shard's `edge-sets` — the
//!    generation's level edge sets ([`EdgeSets`]) with the shard's
//!    identity — and refuse a fleet that disagrees on the parameters,
//!    the graph fingerprint, the edge sets or the shard numbering. The
//!    router keeps one copy of the edge sets for every query after.
//! 3. **Scatter**: map each needed vertex id to its shard through the
//!    [`PartitionPlan`], and send `point-fetch` frames over pooled
//!    nonblocking upstream connections (chunked at
//!    [`MAX_LABEL_FETCH`] ids per frame). A points record is a few
//!    hundred bytes where a self-contained label is tens of kilobytes.
//! 4. **Gather**: per-request join state counts outstanding chunks;
//!    each upstream connection answers in FIFO order (the protocol is
//!    strictly request/reply per connection), so replies are matched to
//!    requests without ids on the wire.
//! 5. **Derive + answer locally**: a worker derives each gathered label
//!    from its record and the edge sets ([`EdgeSets::label`]; a level that
//!    stores the whole net shares the edge set's rows) and answers through
//!    the code the single-process server answers through —
//!    `QueryFrame::answer` over [`fsdl_labels::resolve`] and
//!    [`fsdl_labels::query_with_scratch`] with the per-worker
//!    [`DecodeScratch`] — so answers are bit-identical: same distances,
//!    same sketch sizes, same witness paths.
//!
//! ## Failure semantics
//!
//! - A shard connection that errors or closes fails every request
//!   waiting on it with [`ErrorCode::Unavailable`]; the router then
//!   redials on a throttle, so a restarted shard heals without a router
//!   restart.
//! - A shard whose store generation changes mid-flight (it was
//!   restarted onto a new build) also answers `Unavailable` — mixing
//!   labels from different generations could silently combine two
//!   different labelings, so the router refuses rather than guesses.
//! - The router is a server whose label source is remote: which
//!   `(s, t, F)` is malformed, and the reply that says so, are
//!   [`fsdl_labels::resolve`]'s and `QueryFrame`'s, not restated here.
//!   The router only supplies the two [`LabelSource`]s: `Planned`
//!   before the gather (ids recorded, range checked against the plan)
//!   and `Gathered` after it (no graph, so a fault edge is looked up
//!   in the lowest level of `L(a)`, which stores every edge at `a`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsdl_graph::NodeId;
use fsdl_labels::edge_sets::{self, EdgeSets};
use fsdl_labels::partition::PartitionPlan;
use fsdl_labels::resolve::{resolve, LabelSource, Malformed};
use fsdl_labels::{query_with_scratch, DecodeScratch, Label, OracleError, SchemeParams};
use fsdl_reactor::{Interest, Poller};

use crate::client::{Client, ClientError};
use crate::plane::{handler_token, ConnPlane, Core, Handler, PlaneConfig, PlaneCounters, Wire};
use crate::protocol::{
    error_reply, EdgeSetsReply, ErrorCode, ErrorReply, FrameStep, Request, Response, StatsReply,
    WireError, MAX_LABEL_FETCH, MAX_LABEL_FRAME,
};
use crate::server::{Endpoint, QueryFrame, ShutdownHandle};

/// How long [`Router::bind`] waits for each shard to accept the
/// handshake `edge-sets` before giving up.
const HANDSHAKE_BUDGET: Duration = Duration::from_secs(10);
/// Minimum pause between redial attempts to a dead shard.
const REDIAL_INTERVAL: Duration = Duration::from_millis(500);

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Decode/compute worker threads (0 = auto, as in
    /// [`crate::ServerConfig`]).
    pub workers: usize,
    /// Slow-loris deadline for client connections holding a partial
    /// frame, and the shutdown drain grace period.
    pub frame_deadline: Duration,
    /// Upstream connections opened per shard (round-robined; min 1).
    pub pool_per_shard: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 0,
            frame_deadline: Duration::from_secs(10),
            pool_per_shard: 2,
        }
    }
}

/// Errors [`Router::bind`] can produce.
#[derive(Debug)]
pub enum RouterError {
    /// Listener or reactor setup failed.
    Io(std::io::Error),
    /// A shard rejected or failed the handshake `edge-sets`, or sent edge
    /// sets that fail their checksum or do not parse.
    Handshake {
        /// The shard index that failed.
        shard: usize,
        /// What went wrong.
        message: String,
    },
    /// The partition plan and the shard fleet disagree (count, vertex
    /// space, decode parameters, graph, edge sets, or a shard's index).
    Plan(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "router setup failed: {e}"),
            RouterError::Handshake { shard, message } => {
                write!(f, "shard {shard} handshake failed: {message}")
            }
            RouterError::Plan(msg) => write!(f, "partition plan mismatch: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// Totals from one [`Router::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Single queries answered successfully.
    pub queries: u64,
    /// Queries answered inside batch frames.
    pub batch_queries: u64,
    /// `point-fetch` frames sent upstream.
    pub upstream_fetches: u64,
    /// Reply bytes read from shards after the handshake (frame payloads).
    pub upstream_bytes: u64,
    /// Typed error replies sent to clients.
    pub protocol_errors: u64,
    /// Upstream connection failures (dial, mid-flight error, generation
    /// change) that surfaced as `Unavailable` or triggered a redial.
    pub shard_failures: u64,
    /// Client connections closed for stalling mid-frame.
    pub deadline_closes: u64,
}

/// The gather handler's counters next to the plane's.
#[derive(Default)]
struct Counters {
    plane: Arc<PlaneCounters>,
    queries: AtomicU64,
    batch_queries: AtomicU64,
    upstream_fetches: AtomicU64,
    upstream_bytes: AtomicU64,
    shard_failures: AtomicU64,
}

impl Counters {
    fn report(&self) -> RouterReport {
        RouterReport {
            connections: self.plane.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            upstream_fetches: self.upstream_fetches.load(Ordering::Relaxed),
            upstream_bytes: self.upstream_bytes.load(Ordering::Relaxed),
            protocol_errors: self.plane.protocol_errors.load(Ordering::Relaxed),
            shard_failures: self.shard_failures.load(Ordering::Relaxed),
            deadline_closes: self.plane.deadline_closes.load(Ordering::Relaxed),
        }
    }
}

/// What the fleet agreed on at the handshake.
struct Fleet {
    /// Each shard's store generation, which its fetch replies must keep.
    generations: Vec<u64>,
    params: SchemeParams,
    edge_sets: Arc<EdgeSets>,
}

/// vertex id -> points record, filled as chunks land.
type PointRecords = HashMap<u32, Vec<u8>>;

/// Join state for one in-flight scatter-gather.
struct Pending {
    client: u64,
    /// The request with the labels gathered for it so far.
    job: GatherJob,
    /// Chunks still unanswered.
    outstanding: usize,
    /// First failure, if any; the reply once everything lands.
    failed: Option<ErrorReply>,
}

/// A gathered request on its way to a decode worker.
struct GatherJob {
    frame: QueryFrame,
    /// Every id the frame's answer reads, as [`needed_ids`] planned it.
    ids: Vec<u32>,
    records: PointRecords,
}

/// One pooled upstream connection to a shard, registered on the plane's
/// poller as handler socket number = its index in the pool.
struct Upstream {
    shard: usize,
    endpoint: Endpoint,
    /// `None` while the connection is down; redialled on a throttle.
    wire: Option<Wire>,
    /// In-flight chunks in send order — the pending-request id plus the
    /// ids that chunk asked for; the protocol is strict request/reply
    /// per connection, so the front entry owns the next reply frame.
    /// The requested ids are kept because a reply may be a short prefix
    /// (the shard packs to its byte budget) and the tail must be
    /// re-requested.
    fifo: VecDeque<(u64, Vec<u32>)>,
    last_attempt: Instant,
}

/// Dials `endpoint` and registers the socket as handler socket `index`.
fn dial(endpoint: &Endpoint, poller: &mut Poller, index: usize) -> std::io::Result<Wire> {
    Wire::register(endpoint.connect()?, poller, handler_token(index))
}

/// A bound, not-yet-running router.
pub struct Router {
    plane: ConnPlane<Gather>,
}

impl Router {
    /// Binds the client listener, handshakes every shard (fetching the
    /// edge sets and cross-checking generation, epsilon, `c`, the global
    /// vertex count, the graph fingerprint, the edge sets and each shard's
    /// index), and opens the upstream connection pool.
    ///
    /// # Errors
    ///
    /// [`RouterError::Plan`] when the fleet disagrees with the plan or
    /// itself; [`RouterError::Handshake`] when a shard cannot be
    /// reached; [`RouterError::Io`] for listener/reactor failures.
    pub fn bind(
        endpoint: &Endpoint,
        shard_endpoints: Vec<Endpoint>,
        plan: PartitionPlan,
        config: RouterConfig,
    ) -> Result<Router, RouterError> {
        if shard_endpoints.len() != plan.num_shards() as usize {
            return Err(RouterError::Plan(format!(
                "plan names {} shards but {} endpoints were given",
                plan.num_shards(),
                shard_endpoints.len()
            )));
        }
        let fleet = Router::handshake_fleet(&shard_endpoints, &plan)?;
        let mut core = Core::bind(
            endpoint,
            PlaneConfig {
                workers: config.workers,
                frame_deadline: config.frame_deadline,
            },
        )?;

        // The pool: `pool_per_shard` connections per shard; a connection's
        // index is stable for the router's lifetime and redials reuse it.
        let pool = config.pool_per_shard.max(1);
        let mut upstreams = Vec::with_capacity(shard_endpoints.len() * pool);
        for (shard, ep) in shard_endpoints.iter().enumerate() {
            for _ in 0..pool {
                upstreams.push(Upstream {
                    shard,
                    endpoint: ep.clone(),
                    // The handshake just succeeded, so a dial failure
                    // here is a race with a shard restart; the redial
                    // loop will heal it.
                    wire: dial(ep, &mut core.poller, upstreams.len()).ok(),
                    fifo: VecDeque::new(),
                    last_attempt: Instant::now(),
                });
            }
        }

        let gather = Gather {
            rr: vec![0; shard_endpoints.len()],
            plan,
            params: Arc::new(fleet.params),
            edge_sets: fleet.edge_sets,
            expected_generation: fleet.generations,
            counters: Arc::new(Counters {
                plane: Arc::clone(&core.counters),
                ..Counters::default()
            }),
            upstreams,
            pending: HashMap::new(),
            next_pending: 0,
        };
        Ok(Router {
            plane: ConnPlane::new(core, gather),
        })
    }

    /// Blocking handshake with each shard: its `edge-sets` reply. Every
    /// shard must send edge sets that match their checksum and parse, sit
    /// at its own position of the plan, and agree with shard 0 on the
    /// decode parameters, the graph fingerprint and the edge sets — a
    /// fleet cut from two graphs with the same vertex count is refused
    /// here, not answered from mixed labels.
    fn handshake_fleet(
        shard_endpoints: &[Endpoint],
        plan: &PartitionPlan,
    ) -> Result<Fleet, RouterError> {
        let mut replies = Vec::with_capacity(shard_endpoints.len());
        for (shard, ep) in shard_endpoints.iter().enumerate() {
            let handshake = |message: String| RouterError::Handshake { shard, message };
            let reply = Client::connect_with_retry(ep, HANDSHAKE_BUDGET)
                .and_then(|mut c| c.edge_sets())
                .map_err(|e: ClientError| handshake(e.to_string()))?;
            if edge_sets::checksum(&reply.edge_sets) != reply.checksum {
                return Err(handshake("edge sets fail their checksum".into()));
            }
            if (reply.shard, reply.num_shards) != (shard as u32, plan.num_shards()) {
                return Err(RouterError::Plan(format!(
                    "the endpoint at position {shard} of {} serves shard {} of {}",
                    plan.num_shards(),
                    reply.shard,
                    reply.num_shards
                )));
            }
            replies.push(reply);
        }
        let first = &replies[0];
        let identity = |r: &EdgeSetsReply| {
            (
                r.epsilon_bits,
                r.c,
                r.vertices,
                r.graph_fingerprint,
                r.checksum,
            )
        };
        for (shard, reply) in replies.iter().enumerate() {
            if identity(reply) != identity(first) {
                return Err(RouterError::Plan(format!(
                    "shard {shard} disagrees with shard 0: (epsilon_bits, c, n, graph \
                     fingerprint, edge-set checksum) = {:?} vs {:?}",
                    identity(reply),
                    identity(first)
                )));
            }
        }
        let n = first.vertices;
        if n != plan.num_vertices() as u64 {
            return Err(RouterError::Plan(format!(
                "shards serve {n} vertices but the plan covers {}",
                plan.num_vertices()
            )));
        }
        let epsilon = f64::from_bits(first.epsilon_bits);
        if !epsilon.is_finite() || epsilon <= 0.0 || !(2..=64).contains(&first.c) || n == 0 {
            return Err(RouterError::Plan(format!(
                "shards report unusable decode parameters (epsilon={epsilon}, c={}, n={n})",
                first.c
            )));
        }
        let params = SchemeParams::with_c(epsilon, first.c, n as usize);
        let edge_sets = EdgeSets::decode(&first.edge_sets).map_err(|e| RouterError::Handshake {
            shard: 0,
            message: format!("edge sets do not parse: {e}"),
        })?;
        edge_sets
            .check_schedule(&params)
            .map_err(RouterError::Plan)?;
        Ok(Fleet {
            generations: replies.iter().map(|r| r.generation).collect(),
            params,
            edge_sets: Arc::new(edge_sets),
        })
    }

    /// The client endpoint actually bound (port 0 resolved).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        self.plane.local_endpoint()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.plane.shutdown_handle()
    }

    /// Runs the router until shutdown; blocks the calling thread.
    pub fn run(self) -> RouterReport {
        self.plane.run().counters.report()
    }
}

/// The router's [`Handler`]: plans scatter-gathers over the upstream
/// pool and hands fully gathered requests to the decode workers.
struct Gather {
    plan: PartitionPlan,
    params: Arc<SchemeParams>,
    edge_sets: Arc<EdgeSets>,
    expected_generation: Vec<u64>,
    counters: Arc<Counters>,
    upstreams: Vec<Upstream>,
    /// Round-robin cursor per shard over its pool slice.
    rr: Vec<usize>,
    /// In-flight scatter-gathers keyed by a never-recycled id — the
    /// upstream FIFOs store these ids, so a finished or failed request
    /// can never be confused with a later one.
    pending: HashMap<u64, Pending>,
    next_pending: u64,
}

/// One decode worker's state, kept for its lifetime.
struct GatherWorker {
    params: Arc<SchemeParams>,
    edge_sets: Arc<EdgeSets>,
    counters: Arc<Counters>,
    scratch: DecodeScratch,
}

impl Handler for Gather {
    type Work = GatherJob;
    type Worker = GatherWorker;

    fn worker(&self) -> GatherWorker {
        GatherWorker {
            params: Arc::clone(&self.params),
            edge_sets: Arc::clone(&self.edge_sets),
            counters: Arc::clone(&self.counters),
            scratch: DecodeScratch::new(),
        }
    }

    fn work(worker: &mut GatherWorker, job: GatherJob) -> Response {
        compute_answer(&job, worker)
    }

    /// Answers one client frame: inline when possible, otherwise by
    /// starting a scatter-gather.
    fn on_frame(&mut self, core: &mut Core<GatherJob>, token: u64, frame: Vec<u8>) {
        let reply = match Request::decode(&frame) {
            Err(wire_err) => error_reply(wire_err.code(), wire_err.to_string()),
            Ok(Request::Query { s, t, faults }) => {
                return self.start_gather(core, token, QueryFrame::Query((s, t, faults)));
            }
            Ok(Request::Batch(queries)) => {
                return self.start_gather(core, token, QueryFrame::Batch(queries));
            }
            Ok(Request::Stats) => {
                let totals = self.counters.report();
                Response::Stats(StatsReply {
                    vertices: self.plan.num_vertices() as u64,
                    dynamic: 0,
                    active_faults: 0,
                    connections: totals.connections,
                    queries: totals.queries,
                    batch_queries: totals.batch_queries,
                    routes: 0,
                    updates: 0,
                    protocol_errors: totals.protocol_errors,
                    deadline_closes: totals.deadline_closes,
                    label_fetches: totals.upstream_fetches,
                })
            }
            Ok(Request::Shutdown) => Response::Shutdown,
            Ok(Request::Route { .. }) => error_reply(
                ErrorCode::UnsupportedInMode,
                "route requires a single-process static server; \
                 the router serves distance queries only",
            ),
            Ok(Request::Update(_)) => error_reply(
                ErrorCode::UnsupportedInMode,
                "update requires a dynamic oracle; the router fronts immutable shards",
            ),
            Ok(Request::LabelFetch { .. } | Request::EdgeSets | Request::PointFetch { .. }) => {
                error_reply(
                    ErrorCode::UnsupportedInMode,
                    "the label-plane ops are shard-facing; send query or batch frames here",
                )
            }
        };
        core.reply(token, &reply);
    }

    fn on_socket(&mut self, core: &mut Core<GatherJob>, idx: usize, writable: bool) {
        let Some(wire) = self.upstreams.get_mut(idx).and_then(|up| up.wire.as_mut()) else {
            return;
        };
        let mut dead = (writable && wire.flush().is_err()) || !matches!(wire.fill(), Ok(true));
        // Serve every complete reply frame that arrived, even when the
        // connection died right after sending them. Label-plane replies
        // read under the larger MAX_LABEL_FRAME cap: labels are
        // poly(1/eps, log n) bytes each, so a legitimate multi-label
        // reply can exceed the client-facing frame ceiling.
        while let Some(wire) = self.upstreams[idx].wire.as_mut() {
            let reply = match wire.assembler.next_frame(MAX_LABEL_FRAME) {
                FrameStep::Frame(payload) => {
                    self.counters
                        .upstream_bytes
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    Response::decode(payload)
                }
                FrameStep::Incomplete => break,
                FrameStep::Oversized { .. } => {
                    dead = true;
                    break;
                }
            };
            if !self.absorb_upstream_reply(idx, reply, core) {
                dead = true;
                break;
            }
        }
        if dead {
            self.fail_upstream(core, idx);
        } else {
            self.update_upstream_interest(core, idx);
        }
    }

    fn on_tick(&mut self, core: &mut Core<GatherJob>) {
        self.redial_dead_upstreams(core);
    }
}

impl Gather {
    fn pool(&self) -> usize {
        self.upstreams.len() / self.rr.len().max(1)
    }

    /// Queues one `point-fetch` for `ids` on upstream `idx`, owed to
    /// pending request `pending_id`.
    fn enqueue_fetch(&mut self, idx: usize, pending_id: u64, ids: Vec<u32>) {
        self.counters
            .upstream_fetches
            .fetch_add(1, Ordering::Relaxed);
        let mut payload = Vec::new();
        Request::PointFetch {
            vertices: ids.clone(),
        }
        .encode(&mut payload);
        let up = &mut self.upstreams[idx];
        if let Some(wire) = up.wire.as_mut() {
            wire.write_buf.queue_frame(&payload);
        }
        up.fifo.push_back((pending_id, ids));
    }

    /// Plans and launches one scatter-gather, or answers immediately
    /// when validation fails or a needed shard has no live connection.
    fn start_gather(&mut self, core: &mut Core<GatherJob>, token: u64, frame: QueryFrame) {
        let ids = match needed_ids(self.plan.num_vertices(), &frame) {
            Ok(ids) => ids,
            Err(rejected) => return core.reply(token, &rejected),
        };
        // Group the (sorted, deduped) ids by owning shard, then chunk
        // each group at the wire cap.
        let mut by_shard: HashMap<u32, Vec<u32>> = HashMap::new();
        for &v in &ids {
            by_shard
                .entry(self.plan.shard_of(NodeId::new(v)))
                .or_default()
                .push(v);
        }
        // All needed shards must have a live connection before anything
        // is enqueued — a half-scattered request would tie up upstream
        // FIFO slots for a reply we already know we cannot assemble.
        let mut routes: Vec<(usize, Vec<u32>)> = Vec::with_capacity(by_shard.len());
        for (&shard, group) in &by_shard {
            if self.pick_upstream(shard as usize).is_none() {
                self.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
                let message = format!("shard {shard} is unavailable");
                return core.reply(token, &error_reply(ErrorCode::Unavailable, message));
            }
            for chunk in group.chunks(MAX_LABEL_FETCH as usize) {
                routes.push((shard as usize, chunk.to_vec()));
            }
        }
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(
            id,
            Pending {
                client: token,
                job: GatherJob {
                    frame,
                    records: HashMap::with_capacity(ids.len()),
                    ids,
                },
                outstanding: routes.len(),
                failed: None,
            },
        );
        core.hold(token);
        for (shard, chunk) in routes {
            let idx = self
                .pick_upstream(shard)
                .expect("liveness was checked before enqueueing");
            self.enqueue_fetch(idx, id, chunk);
            self.update_upstream_interest(core, idx);
        }
    }

    /// Picks the next live connection in `shard`'s pool slice
    /// (round-robin), or `None` when the whole slice is down.
    fn pick_upstream(&mut self, shard: usize) -> Option<usize> {
        let pool = self.pool();
        let base = shard * pool;
        for step in 0..pool {
            let idx = base + (self.rr[shard] + step) % pool;
            if self.upstreams[idx].wire.is_some() {
                self.rr[shard] = (self.rr[shard] + step + 1) % pool;
                return Some(idx);
            }
        }
        None
    }

    /// Matches one upstream reply to the front of the FIFO and folds it
    /// into the pending request. Returns `false` when the stream is
    /// desynchronized and the connection must be dropped.
    fn absorb_upstream_reply(
        &mut self,
        idx: usize,
        reply: Result<Response, WireError>,
        core: &mut Core<GatherJob>,
    ) -> bool {
        let shard = self.upstreams[idx].shard;
        let Some((pending_id, requested)) = self.upstreams[idx].fifo.pop_front() else {
            // A reply nobody asked for: protocol desync.
            return false;
        };
        let outcome = match reply {
            Ok(Response::PointFetch(reply)) => {
                if reply.generation != self.expected_generation[shard] {
                    self.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
                    Err(ErrorReply {
                        code: ErrorCode::Unavailable,
                        message: format!(
                            "shard {shard} changed store generation ({} -> {}) mid-flight",
                            self.expected_generation[shard], reply.generation
                        ),
                    })
                } else if reply.records.len() > requested.len()
                    || (reply.records.is_empty() && !requested.is_empty())
                    || reply
                        .records
                        .iter()
                        .zip(&requested)
                        .any(|(record, &v)| record.vertex != v)
                {
                    // Replies must be a non-empty request prefix (short
                    // when the shard packed to its byte budget): anything
                    // else means the stream no longer lines up.
                    Err(ErrorReply {
                        code: ErrorCode::Internal,
                        message: format!(
                            "shard {shard} point-fetch reply was not a prefix of the request"
                        ),
                    })
                } else {
                    Ok(reply.records)
                }
            }
            Ok(Response::Error(e)) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!(
                    "shard {shard} rejected a point-fetch [{}]: {}",
                    e.code, e.message
                ),
            }),
            Ok(other) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!(
                    "shard {shard} answered a point-fetch with {}",
                    other.kind_name()
                ),
            }),
            Err(wire_err) => Err(ErrorReply {
                code: ErrorCode::Internal,
                message: format!("shard {shard} sent an undecodable reply: {wire_err}"),
            }),
        };
        let desynced = matches!(outcome, Err(ref e) if e.code == ErrorCode::Internal);
        // When the pending was already failed and reaped (its other
        // chunks died with another connection) there is nothing to fold
        // and a short reply's tail is not worth fetching.
        let Some(pending) = self.pending.get_mut(&pending_id) else {
            return !desynced;
        };
        let mut short_tail = None;
        match outcome {
            Ok(records) => {
                if records.len() < requested.len() {
                    short_tail = Some(requested[records.len()..].to_vec());
                }
                for record in records {
                    pending.job.records.insert(record.vertex, record.bytes);
                }
            }
            Err(e) => {
                pending.failed.get_or_insert(e);
            }
        }
        match short_tail {
            // Short reply: the shard packed to its byte budget. The chunk
            // stays outstanding; re-request the unserved suffix on the
            // same connection so FIFO order keeps holding.
            Some(tail) => self.enqueue_fetch(idx, pending_id, tail),
            None => self.chunk_done(core, pending_id),
        }
        !desynced
    }

    /// One chunk of `pending_id` was answered or failed. Once none are
    /// outstanding the request goes to a worker, or its recorded failure
    /// goes to the client.
    fn chunk_done(&mut self, core: &mut Core<GatherJob>, pending_id: u64) {
        let Some(pending) = self.pending.get_mut(&pending_id) else {
            return;
        };
        pending.outstanding -= 1;
        if pending.outstanding > 0 {
            return;
        }
        let pending = self.pending.remove(&pending_id).expect("looked up above");
        match pending.failed {
            Some(err) => core.reply(pending.client, &Response::Error(err)),
            None => core.submit(pending.client, pending.job),
        }
    }

    fn update_upstream_interest(&mut self, core: &mut Core<GatherJob>, idx: usize) {
        let Some(wire) = self.upstreams[idx].wire.as_mut() else {
            return;
        };
        let desired = Interest {
            readable: true,
            writable: !wire.write_buf.is_empty(),
        };
        if wire
            .set_interest(&mut core.poller, handler_token(idx), desired)
            .is_err()
        {
            self.fail_upstream(core, idx);
        }
    }

    /// Tears down one upstream connection: every request waiting on its
    /// FIFO fails with `Unavailable`, and the redial throttle starts.
    fn fail_upstream(&mut self, core: &mut Core<GatherJob>, idx: usize) {
        let up = &mut self.upstreams[idx];
        let shard = up.shard;
        if let Some(wire) = up.wire.take() {
            wire.close(&mut core.poller);
            self.counters.shard_failures.fetch_add(1, Ordering::Relaxed);
        }
        up.last_attempt = Instant::now();
        let orphans: Vec<(u64, Vec<u32>)> = up.fifo.drain(..).collect();
        for (pending_id, _requested) in orphans {
            if let Some(pending) = self.pending.get_mut(&pending_id) {
                pending.failed.get_or_insert(ErrorReply {
                    code: ErrorCode::Unavailable,
                    message: format!("shard {shard} connection failed mid-request"),
                });
            }
            self.chunk_done(core, pending_id);
        }
    }

    /// Redials dead upstream connections on a throttle. The connect is
    /// blocking but local-fleet-fast; a dead host is bounded by the OS
    /// connect timeout and the redial interval keeps it rare.
    fn redial_dead_upstreams(&mut self, core: &mut Core<GatherJob>) {
        for (idx, up) in self.upstreams.iter_mut().enumerate() {
            if up.wire.is_none() && up.last_attempt.elapsed() >= REDIAL_INTERVAL {
                up.last_attempt = Instant::now();
                up.wire = dial(&up.endpoint, &mut core.poller, idx).ok();
            }
        }
    }
}

/// The resolver's source before any label is here: records the ids asked
/// for and takes every fault edge's word for it, so what remains of the
/// walk is its range checks.
struct Planned(Vec<u32>);

impl LabelSource for Planned {
    type Label = ();

    fn label(&mut self, v: NodeId) {
        self.0.push(v.raw());
    }

    fn is_edge(&self, _: NodeId, _: NodeId, _: &()) -> bool {
        true
    }
}

/// The resolver's source once the scatter-gather has landed. The router
/// holds no graph, but the lowest level of `L(a)` stores every edge at `a`.
struct Gathered<'a>(&'a HashMap<u32, Label>);

impl<'a> LabelSource for Gathered<'a> {
    type Label = &'a Label;

    fn label(&mut self, v: NodeId) -> &'a Label {
        self.0
            .get(&v.raw())
            .expect("derive_gathered derived every id this same walk planned")
    }

    fn is_edge(&self, a: NodeId, b: NodeId, label_a: &&'a Label) -> bool {
        let low_level = label_a.levels.first();
        low_level.is_some_and(|level| level.has_real_edge(a, b))
    }
}

/// Every vertex id the frame's answer reads, sorted and deduplicated —
/// or the reply to a frame that names an id outside the graph, the same
/// one the single-process server sends: this is the walk that will
/// answer the frame ([`resolve`]), run against a source that only
/// records.
fn needed_ids(n: usize, frame: &QueryFrame) -> Result<Vec<u32>, Response> {
    let mut planned = Planned(Vec::new());
    for (k, (s, t, faults)) in frame.items().iter().enumerate() {
        let (s, t, faults) = (NodeId::new(*s), NodeId::new(*t), faults.to_fault_set());
        resolve(n, &mut planned, s, t, &faults, Malformed::Reject)
            .map_err(|e| frame.rejection(k, e))?;
    }
    planned.0.sort_unstable();
    planned.0.dedup();
    Ok(planned.0)
}

/// Derives the label of every planned id once from its gathered record
/// and checks its owner — a shard that returns a record for the wrong
/// vertex, or a corrupt one, is a typed `Internal` error, never a wrong
/// answer. Derivation returns only labels that pass `Label::validate`.
fn derive_gathered(
    ids: &[u32],
    records: &PointRecords,
    edge_sets: &EdgeSets,
) -> Result<HashMap<u32, Label>, Response> {
    let mut decoded = HashMap::with_capacity(ids.len());
    for &v in ids {
        let Some(record) = records.get(&v) else {
            let message = format!("gathered record set is missing vertex {v}");
            return Err(error_reply(ErrorCode::Internal, message));
        };
        let label = edge_sets.label(NodeId::new(v), record).map_err(|e| {
            let message = format!("record for vertex {v} failed to derive: {e}");
            error_reply(ErrorCode::Internal, message)
        })?;
        decoded.insert(v, label);
    }
    Ok(decoded)
}

/// The worker-side terminal: derive the gathered labels, then answer the
/// frame as the single-process server does — [`QueryFrame::answer`] over
/// the same [`resolve`] and the same [`query_with_scratch`], fed the same
/// labels in the same order, so the answer is bit-identical.
fn compute_answer(job: &GatherJob, worker: &mut GatherWorker) -> Response {
    let GatherWorker {
        params,
        edge_sets,
        counters,
        scratch,
    } = worker;
    let n = params.n();
    let decoded = match derive_gathered(&job.ids, &job.records, edge_sets) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let (queries, batch_queries) = (&counters.queries, &counters.batch_queries);
    job.frame.answer(queries, batch_queries, |s, t, faults| {
        let resolved = resolve(n, &mut Gathered(&decoded), s, t, faults, Malformed::Reject)?;
        let (source, target, fault_labels) = resolved.into_labels();
        Ok::<_, OracleError>(query_with_scratch(
            params,
            source,
            target,
            &fault_labels,
            scratch,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireFaults;

    #[test]
    fn needed_ids_dedups_and_follows_fault_set_filtering() {
        let faults = WireFaults {
            vertices: vec![7, 3, 7],
            edges: vec![(5, 5), (2, 9)], // (5,5) is a self-loop: dropped
        };
        let ids = needed_ids(10, &QueryFrame::Query((3, 9, faults)));
        assert_eq!(ids.unwrap(), vec![2, 3, 7, 9]);
    }

    #[test]
    fn needed_ids_unions_batch_items() {
        let items = vec![
            (0, 1, WireFaults::empty()),
            (
                1,
                2,
                WireFaults {
                    vertices: vec![4],
                    edges: vec![],
                },
            ),
        ];
        let ids = needed_ids(5, &QueryFrame::Batch(items));
        assert_eq!(ids.unwrap(), vec![0, 1, 2, 4]);
    }
}
