//! The long-running oracle server: the connection plane with a handler
//! that hands every complete request frame to a worker.
//!
//! The event loop, connection buffers, backpressure, frame deadline and
//! shutdown drain are the crate's connection plane, which
//! [`crate::Router`] runs too; DESIGN.md §4.5 states them once. This
//! module is what the server adds as a handler on it:
//!
//! - **Decode on workers.** The loop hands over each complete frame
//!   undecoded; a worker decodes it, dispatches it to the engine and
//!   encodes the reply. Each worker owns one [`DecodeScratch`] for its
//!   entire lifetime, so the zero-allocation decode fast path survives
//!   the network hop.
//! - **Typed errors.** A malformed payload gets a typed
//!   [`Response::Error`] on the same connection and the connection keeps
//!   serving. Nothing in the serving path panics on untrusted input — the
//!   decode layer is the panic-free path proven by the corruption
//!   harnesses in `crates/labels/tests/common/`.
//! - **One query reply path.** `QueryFrame::answer` turns a `query` or
//!   `batch` frame into its reply for this handler's workers and the
//!   router's alike. Which `(s, t, F)` is malformed is not decided here
//!   but by [`fsdl_labels::resolve`], whose docs state the rule; `route`
//!   and the static `label-fetch` go through the same checks.
//! - **Updates under the read guard.** The dynamic oracle serializes its
//!   own updates, so a WAL `fsync` or a blocking rebuild in an `update`
//!   holds the engine's lock only for reading, as a query does.
//! - **Rebuild drain.** In dynamic mode, once the plane has drained, the
//!   oracle finishes any background rebuild before the unix socket file is
//!   removed and [`Server::run`] returns, so the WAL and store are
//!   consistent on exit.
//! - **Totals.** Workers count into the plane's [`Totals`], which
//!   [`Server::run`] returns and a `stats` reply carries.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use fsdl_graph::{FaultSet, NodeId};
use fsdl_labels::edge_sets::{self, EdgeSets};
use fsdl_labels::partition::ShardStore;
use fsdl_labels::resolve::check_vertex;
use fsdl_labels::{codec, store, DecodeScratch, DynamicOracle, QueryAnswer, WalRecord};
use fsdl_routing::Network;

use crate::plane::{add, ConnPlane, Core, Counters, Handler, PlaneConfig, Totals};
use crate::protocol::{
    self, error_reply, sat_u32, BatchItem, EdgeSetsReply, ErrorCode, LabelBytes, LabelFetchReply,
    PointFetchReply, PointRecord, QueryReply, Request, Response, RouteReply, StatsReply, UpdateOp,
    WireFaults,
};

/// Where a server listens or a client connects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 = auto: available parallelism minus the
    /// event-loop thread, never below 1).
    pub workers: usize,
    /// How long a connection may hold a *partial* frame before it is
    /// closed as a slow-loris suspect; also the grace period stragglers
    /// get to flush replies during shutdown drain.
    pub frame_deadline: Duration,
    /// Soft byte budget on encoded label bytes per label-fetch reply:
    /// replies carry the longest request prefix that fits (always at
    /// least one label). Lowering it forces short replies, which tests
    /// use to exercise tail re-requests on small graphs.
    pub label_fetch_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            frame_deadline: Duration::from_secs(10),
            label_fetch_budget: protocol::LABEL_FETCH_BYTE_BUDGET,
        }
    }
}

/// What the server serves from: a static oracle (wrapped in its routing
/// network so `route` frames work) or a durable dynamic oracle.
#[derive(Clone)]
pub enum ServeEngine {
    /// Immutable labels; `query`/`batch`/`route` with per-request
    /// forbidden sets, `update` rejected as [`ErrorCode::UnsupportedInMode`].
    Static(Arc<Network>),
    /// A dynamic oracle: `update` applies durable updates, `query`
    /// answers under the *current* fault set (per-query forbidden sets
    /// are rejected — the dynamic oracle's fault set is server state).
    Dynamic(Arc<RwLock<DynamicOracle>>),
    /// One shard of a partitioned label plane: serves only the label
    /// plane — `edge-sets`, `point-fetch` and `label-fetch` by global id —
    /// and `stats`/`shutdown`; queries belong at the router, which holds
    /// the full partition plan.
    Shard(Arc<ShardStore>),
}

impl ServeEngine {
    /// Wraps a static oracle.
    pub fn from_network(network: Network) -> Self {
        ServeEngine::Static(Arc::new(network))
    }

    /// Wraps a dynamic oracle.
    pub fn from_dynamic(oracle: DynamicOracle) -> Self {
        ServeEngine::Dynamic(Arc::new(RwLock::new(oracle)))
    }

    /// Wraps one shard's store.
    pub fn from_shard(store: ShardStore) -> Self {
        ServeEngine::Shard(Arc::new(store))
    }

    /// The `stats` reply of a server of this engine with the `totals`.
    fn stats(&self, totals: &Totals) -> StatsReply {
        let (vertices, active_faults) = match self {
            ServeEngine::Static(net) => (net.oracle().labeling().graph().num_vertices(), None),
            ServeEngine::Dynamic(dyn_oracle) => {
                let oracle = read_lock(dyn_oracle);
                let faults = oracle.current_faults().len();
                (oracle.num_vertices(), Some(faults))
            }
            // The *global* id space: a shard answers for the whole graph's
            // ids even though it holds a slice of the labels.
            ServeEngine::Shard(store) => (store.total_vertices() as usize, None),
        };
        StatsReply::new(vertices, active_faults, totals)
    }
}

/// Recovers a read guard even if a writer panicked (the serving path must
/// outlive any one request's failure).
fn read_lock(lock: &RwLock<DynamicOracle>) -> std::sync::RwLockReadGuard<'_, DynamicOracle> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Totals for one [`Server::run`] lifetime.
pub type ServeReport = Totals;

/// Signals a running server to drain and exit (the out-of-band
/// alternative to a `shutdown` frame).
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub(crate) fn new(flag: Arc<AtomicBool>) -> ShutdownHandle {
        ShutdownHandle(flag)
    }

    /// Requests shutdown; idempotent.
    pub fn signal(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The server's [`Handler`]: every complete frame goes to a worker,
/// which decodes it and runs it against the engine.
#[derive(Clone)]
struct Serve {
    engine: ServeEngine,
    counters: Arc<Counters>,
    label_fetch_budget: usize,
}

impl Handler for Serve {
    type Work = Vec<u8>;
    /// One scratch per worker, reused across every request of every
    /// connection this worker ever serves.
    type Worker = (Serve, DecodeScratch);

    fn worker(&self) -> Self::Worker {
        (self.clone(), DecodeScratch::new())
    }

    fn work((serve, scratch): &mut Self::Worker, frame: Vec<u8>) -> Response {
        match Request::decode(&frame) {
            Err(wire_err) => error_reply(wire_err.code(), wire_err.to_string()),
            Ok(request) => serve.handle(request, scratch),
        }
    }

    fn on_frame(&mut self, core: &mut Core<Vec<u8>>, token: u64, frame: Vec<u8>) {
        core.submit(token, frame);
    }

    /// Drains any background rebuild, so the store and WAL are consistent
    /// before the socket file goes and the process can exit.
    fn on_drained(&self) {
        if let ServeEngine::Dynamic(dyn_oracle) = &self.engine {
            read_lock(dyn_oracle).wait_for_rebuild();
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    plane: ConnPlane<Serve>,
}

impl Server {
    /// Binds a listener at `endpoint` and sets up the reactor (poller +
    /// worker wake pipe). For unix endpoints a stale socket file from a
    /// previous run is removed first; the file is removed again when
    /// [`Server::run`] returns.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor-setup errors.
    pub fn bind(
        endpoint: &Endpoint,
        engine: ServeEngine,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let core = Core::bind(
            endpoint,
            PlaneConfig {
                workers: config.workers,
                frame_deadline: config.frame_deadline,
            },
        )?;
        let serve = Serve {
            engine,
            counters: Arc::clone(&core.counters),
            label_fetch_budget: config.label_fetch_budget,
        };
        Ok(Server {
            plane: ConnPlane::new(core, serve),
        })
    }

    /// The endpoint actually bound (resolves port 0 to the ephemeral
    /// port, so tests can bind `127.0.0.1:0` and connect back).
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

    /// Resolves the worker-pool size for this config: `workers == 0`
    /// reserves one core for the event-loop thread via
    /// [`fsdl_nets::parallel::background_workers`]. Guaranteed `>= 1` on
    /// every host, single-core included — asserted, because a zero-worker
    /// pool would accept connections and serve nothing.
    pub fn resolved_workers(&self) -> usize {
        self.plane.resolved_workers()
    }

    /// Runs the event loop until shutdown, then drains and returns the
    /// totals. Blocks the calling thread (spawn it for in-process use).
    pub fn run(self) -> ServeReport {
        self.plane.run()
    }
}

/// A `query` or `batch` frame: what [`Server`] and [`crate::Router`]
/// answer through the same code, whatever holds the labels.
pub(crate) enum QueryFrame {
    /// One `(s, t, F)`, answered with a [`Response::Query`].
    Query((u32, u32, WireFaults)),
    /// Many, answered with one [`Response::Batch`] or the first rejection.
    Batch(Vec<(u32, u32, WireFaults)>),
}

impl QueryFrame {
    /// The frame's queries, in order.
    pub(crate) fn items(&self) -> &[(u32, u32, WireFaults)] {
        match self {
            QueryFrame::Query(item) => std::slice::from_ref(item),
            QueryFrame::Batch(items) => items,
        }
    }

    /// The reply to a frame whose query `k` is malformed — the one place
    /// the `BadRequest` mapping and the batch prefix are written, used
    /// when answering and by the router's pre-gather check alike.
    pub(crate) fn rejection(&self, k: usize, e: impl std::fmt::Display) -> Response {
        match self {
            QueryFrame::Query(_) => error_reply(ErrorCode::BadRequest, e.to_string()),
            QueryFrame::Batch(_) => {
                error_reply(ErrorCode::BadRequest, format!("batch item {k}: {e}"))
            }
        }
    }

    /// Answers the frame one `(s, t, F)` at a time through `answer` (in
    /// every engine a call into the [`fsdl_labels::resolve`] front-end
    /// and the decoder), stopping at the first rejection, and counts what
    /// was answered in `counters`.
    pub(crate) fn answer<E: std::fmt::Display>(
        &self,
        counters: &Counters,
        mut answer: impl FnMut(NodeId, NodeId, &FaultSet) -> Result<QueryAnswer, E>,
    ) -> Response {
        let mut one = |k: usize, (s, t, faults): &(u32, u32, WireFaults)| {
            answer(NodeId::new(*s), NodeId::new(*t), &faults.to_fault_set())
                .map_err(|e| self.rejection(k, e))
        };
        match self {
            QueryFrame::Query(item) => match one(0, item) {
                Ok(answer) => {
                    add(&counters.queries, 1);
                    Response::Query(QueryReply::from_answer(&answer))
                }
                Err(rejected) => rejected,
            },
            QueryFrame::Batch(items) => {
                let mut replies = Vec::with_capacity(items.len());
                for (k, item) in items.iter().enumerate() {
                    match one(k, item) {
                        Ok(answer) => replies.push(BatchItem::from_answer(&answer)),
                        Err(rejected) => return rejected,
                    }
                }
                add(&counters.batch_queries, replies.len() as u64);
                Response::Batch(replies)
            }
        }
    }
}

/// Packs the longest prefix of `vertices` whose fetched bytes fit the
/// byte budget (but never an empty reply for a non-empty request): labels
/// are poly(1/eps, log n) bytes each, so an id count alone bounds
/// nothing. `fetch` returns a vertex's bytes and bit length, `wrap` makes
/// the reply entry. The caller re-requests the unserved tail — see
/// [`LabelFetchReply`].
fn pack_prefix<'a, T>(
    vertices: &[u32],
    budget: usize,
    mut fetch: impl FnMut(u32) -> Result<(Cow<'a, [u8]>, usize), Response>,
    wrap: impl Fn(u32, Vec<u8>, usize) -> T,
) -> Result<Vec<T>, Response> {
    let mut packed = Vec::with_capacity(vertices.len());
    let mut used = 0usize;
    for &v in vertices {
        let (bytes, bit_len) = fetch(v)?;
        if !packed.is_empty() && used.saturating_add(bytes.len()) > budget {
            break;
        }
        used += bytes.len();
        packed.push(wrap(v, bytes.into_owned(), bit_len));
    }
    Ok(packed)
}

/// The typed reply to a fetch of a vertex this shard does not own.
fn not_owned(store: &ShardStore, v: u32) -> Response {
    let message = format!(
        "shard {}/{} does not own vertex {v}",
        store.shard(),
        store.num_shards()
    );
    error_reply(ErrorCode::BadRequest, message)
}

/// The typed reply to a label-plane op a dynamic server cannot serve.
fn immutable_labels_only(op: &str) -> Response {
    error_reply(
        ErrorCode::UnsupportedInMode,
        format!(
            "{op} serves immutable labels; the dynamic oracle re-encodes across generations \
             and cannot be sharded"
        ),
    )
}

impl Serve {
    /// Answers a `query`/`batch` frame from the engine's query side, or
    /// with the typed reply for a frame this mode cannot answer. A dynamic
    /// frame is answered under one read guard.
    fn answer(&self, frame: &QueryFrame, scratch: &mut DecodeScratch) -> Response {
        match &self.engine {
            ServeEngine::Static(net) => frame.answer(&self.counters, |s, t, faults| {
                net.oracle().try_query_with(s, t, faults, scratch)
            }),
            ServeEngine::Dynamic(_) if frame.items().iter().any(|(_, _, f)| !f.is_empty()) => {
                error_reply(
                    ErrorCode::UnsupportedInMode,
                    "dynamic mode serves the oracle's current fault set; \
                     send update frames instead of per-query faults",
                )
            }
            ServeEngine::Dynamic(dyn_oracle) => {
                let guard = read_lock(dyn_oracle);
                // The dynamic oracle reports the distance alone.
                frame.answer(&self.counters, |s, t, _| {
                    guard
                        .try_distance_with(s, t, scratch)
                        .map(|distance| QueryAnswer {
                            distance,
                            path: Vec::new(),
                            sketch_vertices: 0,
                            sketch_edges: 0,
                        })
                })
            }
            ServeEngine::Shard(_) => error_reply(
                ErrorCode::UnsupportedInMode,
                "a shard serves label-fetch only; send queries to the router",
            ),
        }
    }

    /// `label-fetch`: self-contained labels, encoded by the codec — on a
    /// shard derived from the stored points records, on a static server
    /// read from the oracle (a valid one-shard backend). `Err` is the
    /// typed rejection.
    fn label_fetch(&self, vertices: &[u32]) -> Result<Response, Response> {
        let budget = self.label_fetch_budget;
        let wrap = |vertex, bytes, bit_len| LabelBytes {
            vertex,
            bit_len: sat_u32(bit_len),
            bytes,
        };
        let (packed, generation, (epsilon_bits, c, n)) = match &self.engine {
            ServeEngine::Shard(store) => {
                let n = store.total_vertices() as usize;
                let packed = pack_prefix(
                    vertices,
                    budget,
                    |v| {
                        let label = store.label(v).ok_or_else(|| not_owned(store, v))?;
                        let w = label.and_then(|label| codec::try_encode(&label, n));
                        let w = w.map_err(|e| {
                            let message = format!("stored label of vertex {v} is corrupt: {e}");
                            error_reply(ErrorCode::Internal, message)
                        })?;
                        Ok((Cow::Owned(w.as_bytes().to_vec()), w.len_bits()))
                    },
                    wrap,
                );
                (packed, store.generation(), store.wire_params())
            }
            ServeEngine::Static(net) => {
                let oracle = net.oracle();
                let n = oracle.labeling().graph().num_vertices();
                let params = oracle.labeling().params();
                let packed = pack_prefix(
                    vertices,
                    budget,
                    |v| {
                        let v = NodeId::new(v);
                        check_vertex(n, v)
                            .map_err(|e| error_reply(ErrorCode::BadRequest, e.to_string()))?;
                        let (bytes, bit_len) = oracle
                            .encoded_label(v)
                            .map_err(|e| error_reply(ErrorCode::Internal, e.to_string()))?;
                        Ok((Cow::Owned(bytes), bit_len))
                    },
                    wrap,
                );
                let wire_params = (params.epsilon().to_bits(), params.c(), n as u64);
                (packed, 0, wire_params)
            }
            ServeEngine::Dynamic(_) => return Err(immutable_labels_only("label-fetch")),
        };
        let labels = packed?;
        add(&self.counters.label_fetches, 1);
        Ok(Response::LabelFetch(LabelFetchReply {
            generation,
            epsilon_bits,
            c,
            vertices: n,
            labels,
        }))
    }

    /// `edge-sets`: the generation's level edge sets and the identity a
    /// router checks a fleet against. A static server is shard 0 of 1 at
    /// generation 0.
    fn edge_sets(&self) -> Response {
        let reply = match &self.engine {
            ServeEngine::Shard(store) => {
                let (epsilon_bits, c, vertices) = store.wire_params();
                let bytes = store.edge_sets_bytes();
                EdgeSetsReply {
                    generation: store.generation(),
                    epsilon_bits,
                    c,
                    vertices,
                    graph_fingerprint: store.graph_fingerprint(),
                    shard: store.shard(),
                    num_shards: store.num_shards(),
                    checksum: edge_sets::checksum(bytes),
                    edge_sets: bytes.to_vec(),
                }
            }
            ServeEngine::Static(net) => {
                let labeling = net.oracle().labeling();
                let bytes = EdgeSets::from_labeling(labeling).encode();
                EdgeSetsReply {
                    generation: 0,
                    epsilon_bits: labeling.params().epsilon().to_bits(),
                    c: labeling.params().c(),
                    vertices: labeling.graph().num_vertices() as u64,
                    graph_fingerprint: store::graph_fingerprint(labeling.graph()),
                    shard: 0,
                    num_shards: 1,
                    checksum: edge_sets::checksum(&bytes),
                    edge_sets: bytes,
                }
            }
            ServeEngine::Dynamic(_) => return immutable_labels_only("edge-sets"),
        };
        Response::EdgeSets(reply)
    }

    /// `point-fetch`: points records, as stored on a shard, made from the
    /// oracle's labels on a static server. `Err` is the typed rejection.
    fn point_fetch(&self, vertices: &[u32]) -> Result<Response, Response> {
        let budget = self.label_fetch_budget;
        let wrap = |vertex, bytes, _| PointRecord { vertex, bytes };
        let (packed, generation) = match &self.engine {
            ServeEngine::Shard(store) => {
                let packed = pack_prefix(
                    vertices,
                    budget,
                    |v| {
                        let record = store.points(v).ok_or_else(|| not_owned(store, v))?;
                        Ok((Cow::Borrowed(record), 0))
                    },
                    wrap,
                );
                (packed, store.generation())
            }
            ServeEngine::Static(net) => {
                let oracle = net.oracle();
                let n = oracle.labeling().graph().num_vertices();
                let packed = pack_prefix(
                    vertices,
                    budget,
                    |v| {
                        let v = NodeId::new(v);
                        check_vertex(n, v)
                            .map_err(|e| error_reply(ErrorCode::BadRequest, e.to_string()))?;
                        Ok((Cow::Owned(edge_sets::points_record(&oracle.label(v))), 0))
                    },
                    wrap,
                );
                (packed, 0)
            }
            ServeEngine::Dynamic(_) => return Err(immutable_labels_only("point-fetch")),
        };
        let records = packed?;
        add(&self.counters.label_fetches, 1);
        Ok(Response::PointFetch(PointFetchReply {
            generation,
            records,
        }))
    }

    /// Dispatches one decoded request against the engine.
    fn handle(&self, request: Request, scratch: &mut DecodeScratch) -> Response {
        let engine = &self.engine;
        let counters = &*self.counters;
        match request {
            Request::Query { s, t, faults } => {
                self.answer(&QueryFrame::Query((s, t, faults)), scratch)
            }
            Request::Batch(queries) => self.answer(&QueryFrame::Batch(queries), scratch),
            Request::Route { s, t, faults } => match engine {
                ServeEngine::Static(net) => {
                    let (s, t, faults) = (NodeId::new(s), NodeId::new(t), faults.to_fault_set());
                    // `route` is lenient like `ForbiddenSetOracle::query`; a
                    // frame is held to the rule a `query` frame is.
                    if let Err(e) = net.oracle().resolve(s, t, &faults) {
                        return error_reply(ErrorCode::BadRequest, e.to_string());
                    }
                    add(&counters.routes, 1);
                    match net.route(s, t, &faults) {
                        Ok(delivery) => Response::Route(RouteReply::Delivered {
                            hops: sat_u32(delivery.hops),
                            header_bits: sat_u32(delivery.header_bits),
                            path: delivery.path.iter().map(|v| v.raw()).collect(),
                        }),
                        Err(failure) => Response::Route(RouteReply::Failed(failure.to_string())),
                    }
                }
                ServeEngine::Dynamic(_) | ServeEngine::Shard(_) => error_reply(
                    ErrorCode::UnsupportedInMode,
                    "route requires the static oracle (serve without --dynamic)",
                ),
            },
            Request::Update(update) => match engine {
                ServeEngine::Static(_) | ServeEngine::Shard(_) => error_reply(
                    ErrorCode::UnsupportedInMode,
                    "update requires a dynamic oracle (serve with --store and --dynamic)",
                ),
                ServeEngine::Dynamic(dyn_oracle) => {
                    let id = NodeId::new;
                    let guard = read_lock(dyn_oracle);
                    match guard.update(match update {
                        UpdateOp::DeleteVertex(v) => WalRecord::DeleteVertex(id(v)),
                        UpdateOp::DeleteEdge(a, b) => WalRecord::DeleteEdge(id(a), id(b)),
                        UpdateOp::RestoreVertex(v) => WalRecord::RestoreVertex(id(v)),
                        UpdateOp::RestoreEdge(a, b) => WalRecord::RestoreEdge(id(a), id(b)),
                    }) {
                        Ok(()) => {
                            add(&counters.updates, 1);
                            Response::Update {
                                active_faults: sat_u32(guard.current_faults().len()),
                            }
                        }
                        Err(e) => error_reply(ErrorCode::UpdateRejected, e.to_string()),
                    }
                }
            },
            Request::Stats => Response::Stats(engine.stats(&counters.snapshot())),
            Request::Shutdown => Response::Shutdown,
            Request::LabelFetch { vertices } => self.label_fetch(&vertices).unwrap_or_else(|r| r),
            Request::EdgeSets => self.edge_sets(),
            Request::PointFetch { vertices } => self.point_fetch(&vertices).unwrap_or_else(|r| r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_workers_is_at_least_one_everywhere() {
        // Auto sizing must survive a single-core host: background_workers
        // returns avail - 1 but never 0, and the assert in
        // resolved_workers pins the contract.
        let dir = std::env::temp_dir().join(format!("fsdl-srv-workers-{}", std::process::id()));
        let g = fsdl_graph::generators::cycle(8);
        let oracle = fsdl_labels::ForbiddenSetOracle::new(&g, 1.0);
        let server = Server::bind(
            &Endpoint::Unix(dir.with_extension("sock")),
            ServeEngine::from_network(Network::from_oracle(oracle)),
            ServerConfig::default(),
        )
        .expect("bind");
        assert!(server.resolved_workers() >= 1);
        let explicit = Server::bind(
            &Endpoint::Unix(dir.with_extension("sock2")),
            server.plane.handler.engine.clone(),
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        assert_eq!(explicit.resolved_workers(), 3);
        let _ = std::fs::remove_file(dir.with_extension("sock"));
        let _ = std::fs::remove_file(dir.with_extension("sock2"));
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(
            Endpoint::Tcp("127.0.0.1:4000".into()).to_string(),
            "tcp://127.0.0.1:4000"
        );
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/x.sock")).to_string(),
            "unix:///tmp/x.sock"
        );
    }
}
