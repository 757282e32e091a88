//! The fsdl wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame   := len:u32le  payload[len]
//! request := opcode:u8  body
//! reply   := status:u8  body        (status 0 = ok, 1 = error)
//! ```
//!
//! All integers are little-endian. Distances ride as raw `u32` with
//! `u32::MAX` meaning [`Dist::INFINITE`] (exactly the in-memory sentinel,
//! so a wire round trip is bit-identical). The protocol is deliberately
//! positional and fixed-width — no self-describing tags — because the
//! labels are self-contained and a query needs nothing but vertex ids.
//!
//! Decoding is total: any byte string either parses into a typed message
//! or returns a [`WireError`]; it never panics and never reads past the
//! frame (`decode` rejects trailing bytes, so a bit flip in a length
//! field cannot silently desynchronize a connection).
//!
//! ## Saturation sentinel
//!
//! Several reply fields narrow in-memory `usize`/`u64` counters to `u32`
//! on the wire (`sketch_vertices`, `sketch_edges`, `hops`, `header_bits`,
//! `active_faults`). A value that does not fit is sent as **`u32::MAX`**,
//! the saturation sentinel — a reader seeing `u32::MAX` in one of these
//! fields must treat it as "at least 2³²−1", never as an exact count.
//! (For `QueryReply::distance` the same bit pattern is the infinity
//! sentinel, which is consistent: an unrepresentably large distance *is*
//! effectively infinite.) Values below the sentinel are always exact.
//!
//! ## The label plane: label-fetch, edge-sets, point-fetch
//!
//! A label is its point lists plus its generation's level edge sets
//! restricted to them (`fsdl_labels::EdgeSets`). Shards store the edge
//! sets once and a points record per vertex, and serve three ops over
//! them; a static server serves the same three as a one-shard backend:
//!
//! - `label-fetch` (0x07) returns **self-contained encoded labels** by
//!   global vertex id: each derived from its record and then encoded by
//!   `fsdl_labels::codec`, so its bytes are exactly the builder's label's.
//!   It is the paper's object — what the size experiments measure and what
//!   a client outside the fleet reads. The reply carries the store
//!   generation and the decode parameters `(epsilon_bits, c, n)`.
//! - `edge-sets` (0x08) returns the generation's edge sets, with the
//!   parameters, the fingerprint of the graph the shard was cut from, the
//!   shard's index and count, and a checksum over the edge-set bytes. It
//!   is the router's handshake: the router keeps the edge sets for the
//!   generation and refuses a fleet that disagrees on any of it.
//! - `point-fetch` (0x09) returns **points records** by global vertex id
//!   (a few hundred bytes each, where a label is tens of kilobytes) with
//!   the generation; the router derives the labels a query reads from
//!   them and the edge sets it holds.
//!
//! ```text
//! request  := 0x07 count:u32 vertex:u32 ...
//! reply    := 0x00 0x07 generation:u64 epsilon_bits:u64 c:u32 n:u64
//!             count:u32 (vertex:u32 bit_len:u32 bytes[ceil(bit_len/8)]) ...
//! request  := 0x08
//! reply    := 0x00 0x08 generation:u64 epsilon_bits:u64 c:u32 n:u64
//!             graph_fingerprint:u64 shard:u32 shards:u32 checksum:u64
//!             len:u32 edge_sets[len]
//! request  := 0x09 count:u32 vertex:u32 ...
//! reply    := 0x00 0x09 generation:u64
//!             count:u32 (vertex:u32 len:u32 record[len]) ...
//! ```
//!
//! Fetch replies may be short (see [`LABEL_FETCH_BYTE_BUDGET`]): a reader
//! re-requests the tail.

use std::io::{Read, Write};

use fsdl_graph::{Dist, FaultSet, NodeId};
use fsdl_labels::QueryAnswer;

/// Hard ceiling on a frame's payload length. A frame claiming more than
/// this is a protocol error: the connection's framing can no longer be
/// trusted (the length itself may be corrupt), so servers answer with a
/// typed error and close that connection only.
pub const MAX_FRAME: u32 = 1 << 20;

/// Ceiling on the number of queries in one batch frame.
pub const MAX_BATCH: u32 = 4096;

/// Ceiling on per-query fault-set size on the wire (vertices and edges
/// each). Far above any plausible `|F|`; exists so a corrupt count can't
/// make the decoder loop for gigabytes.
pub const MAX_WIRE_FAULTS: u16 = u16::MAX;

/// Ceiling on vertex ids in one label-fetch frame. A scatter-gather
/// round fetches at most `2 + 2·|F|` labels per query, so this bounds a
/// router's per-shard coalescing, not a client-visible limit.
pub const MAX_LABEL_FETCH: u32 = 4096;

/// Frame ceiling for *label-plane replies* (label-fetch responses read
/// by routers and blocking clients). Encoded labels are `poly(1/eps,
/// log n)` bytes and legitimately reach hundreds of kilobytes each on
/// dense parameter settings, so a multi-label reply cannot live under
/// [`MAX_FRAME`]; id counts bound nothing when the per-id payload is
/// unbounded. Requests and all non-label replies stay under
/// [`MAX_FRAME`] — this larger cap applies only where the reader
/// expects label bytes, and still bounds what a corrupt length field
/// can make a reader allocate.
pub const MAX_LABEL_FRAME: u32 = 1 << 26;

/// Soft byte budget on the encoded label bytes packed into one
/// label-fetch reply. Servers answer with the longest *prefix* of the
/// requested ids whose labels fit the budget — always at least one, so
/// a fetch makes progress even when a single label exceeds the budget
/// (one label must still fit [`MAX_LABEL_FRAME`], which is ~64x this).
/// Readers that receive a short reply re-request the tail; see
/// [`LabelFetchReply`].
pub const LABEL_FETCH_BYTE_BUDGET: usize = 1 << 20;

/// Request opcodes (first payload byte).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const BATCH: u8 = 0x02;
    pub const ROUTE: u8 = 0x03;
    pub const UPDATE: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const SHUTDOWN: u8 = 0x06;
    pub const LABEL_FETCH: u8 = 0x07;
    pub const EDGE_SETS: u8 = 0x08;
    pub const POINT_FETCH: u8 = 0x09;
}

/// Reply status bytes.
mod status {
    pub const OK: u8 = 0x00;
    pub const ERR: u8 = 0x01;
}

/// Typed error codes carried by error replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The payload did not parse (truncated body, trailing bytes, bad
    /// counts, bad UTF-8).
    Malformed = 1,
    /// The frame length exceeded [`MAX_FRAME`].
    Oversized = 2,
    /// Unknown opcode byte.
    UnknownOpcode = 3,
    /// The request parsed but names out-of-range vertices or non-edges.
    BadRequest = 4,
    /// The operation is not available in the server's mode (e.g. `update`
    /// against a static oracle).
    UnsupportedInMode = 5,
    /// A dynamic update was rejected by the oracle (typed
    /// `DynamicError`, relayed).
    UpdateRejected = 6,
    /// The server failed internally (never expected; present so a bug
    /// surfaces as a reply, not a dropped connection).
    Internal = 7,
    /// The connection started a frame but did not finish it within the
    /// server's frame-completion deadline (slow-loris protection); the
    /// server sends this and closes the connection.
    DeadlineExceeded = 8,
    /// A backend this request depends on is down (a router answering for
    /// an unreachable shard). The request may succeed on retry once the
    /// backend returns; the client connection stays open.
    Unavailable = 9,
}

impl ErrorCode {
    fn from_u8(raw: u8) -> Option<ErrorCode> {
        Some(match raw {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::UnsupportedInMode,
            6 => ErrorCode::UpdateRejected,
            7 => ErrorCode::Internal,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownOpcode => "unknown-opcode",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnsupportedInMode => "unsupported-in-mode",
            ErrorCode::UpdateRejected => "update-rejected",
            ErrorCode::Internal => "internal",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Unavailable => "unavailable",
        };
        f.write_str(name)
    }
}

/// Decode failures. Every variant is a *typed* rejection: the decoder
/// consumed untrusted bytes and stopped, nothing panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field named here.
    Truncated(&'static str),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// Unknown request opcode.
    UnknownOpcode(u8),
    /// Unknown reply status byte.
    UnknownStatus(u8),
    /// A count field exceeded its ceiling.
    TooMany {
        /// What was being counted.
        what: &'static str,
        /// The claimed count.
        count: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// An embedded string was not UTF-8.
    BadUtf8,
    /// Unknown update-kind or route-status discriminant.
    BadDiscriminant(&'static str, u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(field) => write!(f, "payload truncated at {field}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::UnknownStatus(b) => write!(f, "unknown status {b:#04x}"),
            WireError::TooMany { what, count, max } => {
                write!(f, "{what} count {count} exceeds limit {max}")
            }
            WireError::BadUtf8 => write!(f, "embedded string is not UTF-8"),
            WireError::BadDiscriminant(what, b) => {
                write!(f, "unknown {what} discriminant {b:#04x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The error code a server should answer with for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

/// A forbidden set as it rides the wire: raw vertex ids and edge pairs.
/// Conversion to a validated [`FaultSet`] happens server-side against the
/// actual graph (out-of-range ids become a typed [`ErrorCode::BadRequest`]
/// reply, never a panic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireFaults {
    /// Forbidden vertex ids.
    pub vertices: Vec<u32>,
    /// Forbidden edges as unordered id pairs.
    pub edges: Vec<(u32, u32)>,
}

impl WireFaults {
    /// An empty forbidden set.
    pub fn empty() -> Self {
        WireFaults::default()
    }

    /// Whether no fault is named.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Converts to the in-memory representation without validation (the
    /// oracle's `try_*` entry points do the validating).
    pub fn to_fault_set(&self) -> FaultSet {
        let mut f = FaultSet::from_vertices(self.vertices.iter().copied().map(NodeId::new));
        for &(a, b) in &self.edges {
            if a != b {
                f.forbid_edge_unchecked(NodeId::new(a), NodeId::new(b));
            }
        }
        f
    }
}

/// A dynamic-oracle update operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Delete a vertex.
    DeleteVertex(u32),
    /// Delete an edge.
    DeleteEdge(u32, u32),
    /// Restore a previously deleted vertex.
    RestoreVertex(u32),
    /// Restore a previously deleted edge.
    RestoreEdge(u32, u32),
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One distance query with a per-query forbidden set.
    Query {
        /// Source vertex id.
        s: u32,
        /// Target vertex id.
        t: u32,
        /// Per-query forbidden set.
        faults: WireFaults,
    },
    /// Many queries answered in one frame (server fans them over the
    /// same decode path as `ForbiddenSetOracle::query_batch`).
    Batch(Vec<(u32, u32, WireFaults)>),
    /// Compute a route (static mode only).
    Route {
        /// Source vertex id.
        s: u32,
        /// Target vertex id.
        t: u32,
        /// Forbidden set known to the source.
        faults: WireFaults,
    },
    /// A durable dynamic update (dynamic mode only).
    Update(UpdateOp),
    /// Server counters and identity.
    Stats,
    /// Graceful shutdown: drain in-flight requests, flush, exit.
    Shutdown,
    /// Raw encoded labels by global vertex id (shard mode; the router's
    /// scatter-gather primitive). An empty id list is a valid handshake:
    /// the reply still carries generation and decode parameters.
    LabelFetch {
        /// Global vertex ids to fetch, at most [`MAX_LABEL_FETCH`].
        vertices: Vec<u32>,
    },
    /// The generation's level edge sets plus the shard's identity (shard
    /// or static mode; the router's handshake).
    EdgeSets,
    /// Points records by global vertex id (shard or static mode; what the
    /// router gathers per query).
    PointFetch {
        /// Global vertex ids to fetch, at most [`MAX_LABEL_FETCH`].
        vertices: Vec<u32>,
    },
}

/// Narrows a counter to its `u32` wire field, saturating to the
/// `u32::MAX` sentinel (see the module doc) instead of silently wrapping
/// like a bare `as u32` cast would.
pub(crate) fn sat_u32(v: usize) -> u32 {
    v.try_into().unwrap_or(u32::MAX)
}

/// The reply to a [`Request::Query`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryReply {
    /// `δ(s, t, F)` as raw bits (`u32::MAX` = infinite).
    pub distance: u32,
    /// Sketch vertices the decoder's search reached (0 in dynamic mode).
    pub sketch_vertices: u32,
    /// Admitted sketch edges the search relaxed (0 in dynamic mode).
    pub sketch_edges: u32,
    /// Witness path (empty when unreachable or in dynamic mode).
    pub path: Vec<u32>,
}

impl QueryReply {
    /// The wire form of a decoder answer (sketch sizes saturate, see the
    /// module doc).
    pub(crate) fn from_answer(answer: &QueryAnswer) -> QueryReply {
        let BatchItem {
            distance,
            sketch_vertices,
            sketch_edges,
        } = BatchItem::from_answer(answer);
        QueryReply {
            distance,
            sketch_vertices,
            sketch_edges,
            path: answer.path.iter().map(|v| v.raw()).collect(),
        }
    }

    /// The distance as a [`Dist`].
    pub fn dist(&self) -> Dist {
        if self.distance == u32::MAX {
            Dist::INFINITE
        } else {
            Dist::new(self.distance)
        }
    }
}

/// One element of a batch reply (no witness path: batches are the
/// throughput path, and the distance plus sketch sizes are the
/// bit-identity witness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchItem {
    /// `δ(s, t, F)` as raw bits (`u32::MAX` = infinite).
    pub distance: u32,
    /// Sketch vertices the decoder's search reached.
    pub sketch_vertices: u32,
    /// Admitted sketch edges the search relaxed.
    pub sketch_edges: u32,
}

impl BatchItem {
    /// The wire form of a decoder answer, without its witness path.
    pub(crate) fn from_answer(answer: &QueryAnswer) -> BatchItem {
        BatchItem {
            distance: answer.distance.raw(),
            sketch_vertices: sat_u32(answer.sketch_vertices),
            sketch_edges: sat_u32(answer.sketch_edges),
        }
    }
}

/// The reply to a [`Request::Route`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteReply {
    /// The packet was delivered.
    Delivered {
        /// Edges traversed.
        hops: u32,
        /// Header size in bits.
        header_bits: u32,
        /// Every vertex visited, `s` to `t` inclusive.
        path: Vec<u32>,
    },
    /// Routing failed (relayed `RouteFailure` text).
    Failed(String),
}

/// The reply to a [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Vertices in the served graph (the query id space).
    pub vertices: u64,
    /// 0 = static oracle, 1 = dynamic oracle.
    pub dynamic: u8,
    /// Active faults (dynamic mode; 0 in static mode).
    pub active_faults: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Single queries answered.
    pub queries: u64,
    /// Queries answered inside batch frames.
    pub batch_queries: u64,
    /// Routes computed.
    pub routes: u64,
    /// Updates applied.
    pub updates: u64,
    /// Protocol errors answered (malformed frames, bad requests).
    pub protocol_errors: u64,
    /// Connections closed for stalling mid-frame past the server's
    /// frame-completion deadline (slow-loris protection).
    pub deadline_closes: u64,
    /// `label-fetch` and `point-fetch` requests answered (shard and
    /// static modes; 0 elsewhere).
    pub label_fetches: u64,
}

/// One raw encoded label in a label-fetch reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelBytes {
    /// The global vertex id this label belongs to.
    pub vertex: u32,
    /// Payload length in bits (the codec needs the exact bit count; the
    /// byte count on the wire is `bit_len.div_ceil(8)`).
    pub bit_len: u32,
    /// The encoded label, exactly as the store persists it.
    pub bytes: Vec<u8>,
}

/// The reply to a [`Request::LabelFetch`]: raw labels plus everything a
/// router needs to decode them and detect shard disagreement.
///
/// The reply may be **short**: servers pack labels under
/// [`LABEL_FETCH_BYTE_BUDGET`] and answer with the longest prefix of
/// the requested ids that fits (never fewer than one for a non-empty
/// request). `labels` is always a prefix of the request, in request
/// order; a reader seeing `labels.len()` below its request length must
/// re-request the remaining suffix. A reply that is not a prefix —
/// wrong ids, wrong order, or more labels than asked — is a protocol
/// desynchronization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelFetchReply {
    /// The store generation these bytes were served from.
    pub generation: u64,
    /// `f64::to_bits` of the scheme's epsilon (bit-exact on the wire).
    pub epsilon_bits: u64,
    /// The scheme's `c` parameter.
    pub c: u32,
    /// The *global* vertex count — the id width labels decode against,
    /// not this shard's label count.
    pub vertices: u64,
    /// The fetched labels, in request order.
    pub labels: Vec<LabelBytes>,
}

/// The reply to a [`Request::EdgeSets`]: a generation's level edge sets
/// and everything a router checks a fleet's agreement on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeSetsReply {
    /// The store generation the edge sets belong to.
    pub generation: u64,
    /// `f64::to_bits` of the scheme's epsilon.
    pub epsilon_bits: u64,
    /// The scheme's `c` parameter.
    pub c: u32,
    /// The *global* vertex count.
    pub vertices: u64,
    /// Fingerprint of the (unsharded) graph the labels were built on.
    pub graph_fingerprint: u64,
    /// This shard's index in its partition (0 for a static server).
    pub shard: u32,
    /// Shards in the partition (1 for a static server).
    pub num_shards: u32,
    /// `fsdl_labels::edge_sets::checksum` of `edge_sets`.
    pub checksum: u64,
    /// `fsdl_labels::EdgeSets::encode`'s bytes.
    pub edge_sets: Vec<u8>,
}

/// One points record in a point-fetch reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointRecord {
    /// The global vertex id the record belongs to.
    pub vertex: u32,
    /// `fsdl_labels::edge_sets::points_record`'s bytes, as stored.
    pub bytes: Vec<u8>,
}

/// The reply to a [`Request::PointFetch`]: a request prefix of points
/// records (short under the byte budget, like [`LabelFetchReply`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PointFetchReply {
    /// The store generation these records were served from.
    pub generation: u64,
    /// The fetched records, in request order.
    pub records: Vec<PointRecord>,
}

/// An error reply: the typed code plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// The typed error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A typed error reply.
pub(crate) fn error_reply(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error(ErrorReply {
        code,
        message: message.into(),
    })
}

/// A server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query(QueryReply),
    /// Answer to [`Request::Batch`].
    Batch(Vec<BatchItem>),
    /// Answer to [`Request::Route`].
    Route(RouteReply),
    /// Answer to [`Request::Update`]: active faults after the update.
    Update {
        /// Faults active after the update.
        active_faults: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Acknowledgement of [`Request::Shutdown`] (sent before the server
    /// begins draining).
    Shutdown,
    /// Answer to [`Request::LabelFetch`].
    LabelFetch(LabelFetchReply),
    /// Answer to [`Request::EdgeSets`].
    EdgeSets(EdgeSetsReply),
    /// Answer to [`Request::PointFetch`].
    PointFetch(PointFetchReply),
    /// A typed error.
    Error(ErrorReply),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_faults(buf: &mut Vec<u8>, f: &WireFaults) {
    debug_assert!(f.vertices.len() <= usize::from(MAX_WIRE_FAULTS));
    debug_assert!(f.edges.len() <= usize::from(MAX_WIRE_FAULTS));
    put_u16(buf, f.vertices.len() as u16);
    put_u16(buf, f.edges.len() as u16);
    for &v in &f.vertices {
        put_u32(buf, v);
    }
    for &(a, b) in &f.edges {
        put_u32(buf, a);
        put_u32(buf, b);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(usize::from(u16::MAX));
    put_u16(buf, len as u16);
    buf.extend_from_slice(&bytes[..len]);
}

fn put_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    put_u32(buf, ids.len() as u32);
    for &v in ids {
        put_u32(buf, v);
    }
}

impl Request {
    /// Appends this request's payload bytes to `buf` (no frame header).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query { s, t, faults } => {
                buf.push(op::QUERY);
                put_u32(buf, *s);
                put_u32(buf, *t);
                put_faults(buf, faults);
            }
            Request::Batch(queries) => {
                buf.push(op::BATCH);
                put_u32(buf, queries.len() as u32);
                for (s, t, faults) in queries {
                    put_u32(buf, *s);
                    put_u32(buf, *t);
                    put_faults(buf, faults);
                }
            }
            Request::Route { s, t, faults } => {
                buf.push(op::ROUTE);
                put_u32(buf, *s);
                put_u32(buf, *t);
                put_faults(buf, faults);
            }
            Request::Update(update) => {
                buf.push(op::UPDATE);
                let (kind, a, b) = match *update {
                    UpdateOp::DeleteVertex(v) => (0u8, v, 0),
                    UpdateOp::DeleteEdge(a, b) => (1, a, b),
                    UpdateOp::RestoreVertex(v) => (2, v, 0),
                    UpdateOp::RestoreEdge(a, b) => (3, a, b),
                };
                buf.push(kind);
                put_u32(buf, a);
                put_u32(buf, b);
            }
            Request::Stats => buf.push(op::STATS),
            Request::Shutdown => buf.push(op::SHUTDOWN),
            Request::LabelFetch { vertices } => {
                buf.push(op::LABEL_FETCH);
                put_ids(buf, vertices);
            }
            Request::EdgeSets => buf.push(op::EDGE_SETS),
            Request::PointFetch { vertices } => {
                buf.push(op::POINT_FETCH);
                put_ids(buf, vertices);
            }
        }
    }

    /// Decodes a request payload (one whole frame, header stripped).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any malformation; never panics.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let opcode = r.u8("opcode")?;
        let req = match opcode {
            op::QUERY => {
                let s = r.u32("query.s")?;
                let t = r.u32("query.t")?;
                let faults = r.faults()?;
                Request::Query { s, t, faults }
            }
            op::BATCH => {
                let count = r.u32("batch.count")?;
                if count > MAX_BATCH {
                    return Err(WireError::TooMany {
                        what: "batch queries",
                        count: u64::from(count),
                        max: u64::from(MAX_BATCH),
                    });
                }
                let mut queries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let s = r.u32("batch.s")?;
                    let t = r.u32("batch.t")?;
                    let faults = r.faults()?;
                    queries.push((s, t, faults));
                }
                Request::Batch(queries)
            }
            op::ROUTE => {
                let s = r.u32("route.s")?;
                let t = r.u32("route.t")?;
                let faults = r.faults()?;
                Request::Route { s, t, faults }
            }
            op::UPDATE => {
                let kind = r.u8("update.kind")?;
                let a = r.u32("update.a")?;
                let b = r.u32("update.b")?;
                let update = match kind {
                    0 => UpdateOp::DeleteVertex(a),
                    1 => UpdateOp::DeleteEdge(a, b),
                    2 => UpdateOp::RestoreVertex(a),
                    3 => UpdateOp::RestoreEdge(a, b),
                    other => return Err(WireError::BadDiscriminant("update kind", other)),
                };
                Request::Update(update)
            }
            op::STATS => Request::Stats,
            op::SHUTDOWN => Request::Shutdown,
            op::LABEL_FETCH => Request::LabelFetch {
                vertices: r.fetch_ids("label-fetch vertices")?,
            },
            op::EDGE_SETS => Request::EdgeSets,
            op::POINT_FETCH => Request::PointFetch {
                vertices: r.fetch_ids("point-fetch vertices")?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The reply kind as a static name (for "wrong response kind"
    /// diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::Query(_) => "query",
            Response::Batch(_) => "batch",
            Response::Route(_) => "route",
            Response::Update { .. } => "update",
            Response::Stats(_) => "stats",
            Response::Shutdown => "shutdown",
            Response::LabelFetch(_) => "label-fetch",
            Response::EdgeSets(_) => "edge-sets",
            Response::PointFetch(_) => "point-fetch",
            Response::Error(_) => "error",
        }
    }

    /// Appends this reply's payload bytes to `buf` (no frame header).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Query(q) => {
                buf.push(status::OK);
                buf.push(op::QUERY);
                put_u32(buf, q.distance);
                put_u32(buf, q.sketch_vertices);
                put_u32(buf, q.sketch_edges);
                put_ids(buf, &q.path);
            }
            Response::Batch(items) => {
                buf.push(status::OK);
                buf.push(op::BATCH);
                put_u32(buf, items.len() as u32);
                for item in items {
                    put_u32(buf, item.distance);
                    put_u32(buf, item.sketch_vertices);
                    put_u32(buf, item.sketch_edges);
                }
            }
            Response::Route(route) => {
                buf.push(status::OK);
                buf.push(op::ROUTE);
                match route {
                    RouteReply::Delivered {
                        hops,
                        header_bits,
                        path,
                    } => {
                        buf.push(1);
                        put_u32(buf, *hops);
                        put_u32(buf, *header_bits);
                        put_ids(buf, path);
                    }
                    RouteReply::Failed(reason) => {
                        buf.push(0);
                        put_str(buf, reason);
                    }
                }
            }
            Response::Update { active_faults } => {
                buf.push(status::OK);
                buf.push(op::UPDATE);
                put_u32(buf, *active_faults);
            }
            Response::Stats(s) => {
                buf.push(status::OK);
                buf.push(op::STATS);
                put_u64(buf, s.vertices);
                buf.push(s.dynamic);
                put_u64(buf, s.active_faults);
                put_u64(buf, s.connections);
                put_u64(buf, s.queries);
                put_u64(buf, s.batch_queries);
                put_u64(buf, s.routes);
                put_u64(buf, s.updates);
                put_u64(buf, s.protocol_errors);
                put_u64(buf, s.deadline_closes);
                put_u64(buf, s.label_fetches);
            }
            Response::Shutdown => {
                buf.push(status::OK);
                buf.push(op::SHUTDOWN);
            }
            Response::LabelFetch(reply) => {
                buf.push(status::OK);
                buf.push(op::LABEL_FETCH);
                put_u64(buf, reply.generation);
                put_u64(buf, reply.epsilon_bits);
                put_u32(buf, reply.c);
                put_u64(buf, reply.vertices);
                put_u32(buf, reply.labels.len() as u32);
                for label in &reply.labels {
                    debug_assert_eq!(
                        label.bytes.len(),
                        (label.bit_len as usize).div_ceil(8),
                        "label byte count must match its bit length"
                    );
                    put_u32(buf, label.vertex);
                    put_u32(buf, label.bit_len);
                    buf.extend_from_slice(&label.bytes);
                }
            }
            Response::EdgeSets(reply) => {
                buf.push(status::OK);
                buf.push(op::EDGE_SETS);
                put_u64(buf, reply.generation);
                put_u64(buf, reply.epsilon_bits);
                put_u32(buf, reply.c);
                put_u64(buf, reply.vertices);
                put_u64(buf, reply.graph_fingerprint);
                put_u32(buf, reply.shard);
                put_u32(buf, reply.num_shards);
                put_u64(buf, reply.checksum);
                put_u32(buf, reply.edge_sets.len() as u32);
                buf.extend_from_slice(&reply.edge_sets);
            }
            Response::PointFetch(reply) => {
                buf.push(status::OK);
                buf.push(op::POINT_FETCH);
                put_u64(buf, reply.generation);
                put_u32(buf, reply.records.len() as u32);
                for record in &reply.records {
                    put_u32(buf, record.vertex);
                    put_u32(buf, record.bytes.len() as u32);
                    buf.extend_from_slice(&record.bytes);
                }
            }
            Response::Error(e) => {
                buf.push(status::ERR);
                buf.push(e.code as u8);
                put_str(buf, &e.message);
            }
        }
    }

    /// Decodes a reply payload (one whole frame, header stripped).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any malformation; never panics.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let st = r.u8("status")?;
        let resp = match st {
            status::OK => {
                let opcode = r.u8("reply opcode")?;
                match opcode {
                    op::QUERY => {
                        let distance = r.u32("reply.distance")?;
                        let sketch_vertices = r.u32("reply.sketch_vertices")?;
                        let sketch_edges = r.u32("reply.sketch_edges")?;
                        let path = r.ids("reply.path")?;
                        Response::Query(QueryReply {
                            distance,
                            sketch_vertices,
                            sketch_edges,
                            path,
                        })
                    }
                    op::BATCH => {
                        let count = r.u32("reply.batch.count")?;
                        if count > MAX_BATCH {
                            return Err(WireError::TooMany {
                                what: "batch replies",
                                count: u64::from(count),
                                max: u64::from(MAX_BATCH),
                            });
                        }
                        let mut items = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            items.push(BatchItem {
                                distance: r.u32("reply.batch.distance")?,
                                sketch_vertices: r.u32("reply.batch.sv")?,
                                sketch_edges: r.u32("reply.batch.se")?,
                            });
                        }
                        Response::Batch(items)
                    }
                    op::ROUTE => match r.u8("reply.route.delivered")? {
                        1 => Response::Route(RouteReply::Delivered {
                            hops: r.u32("reply.route.hops")?,
                            header_bits: r.u32("reply.route.header_bits")?,
                            path: r.ids("reply.route.path")?,
                        }),
                        0 => Response::Route(RouteReply::Failed(r.str("reply.route.reason")?)),
                        other => {
                            return Err(WireError::BadDiscriminant("route status", other));
                        }
                    },
                    op::UPDATE => Response::Update {
                        active_faults: r.u32("reply.update.active_faults")?,
                    },
                    op::STATS => Response::Stats(StatsReply {
                        vertices: r.u64("reply.stats.vertices")?,
                        dynamic: r.u8("reply.stats.dynamic")?,
                        active_faults: r.u64("reply.stats.active_faults")?,
                        connections: r.u64("reply.stats.connections")?,
                        queries: r.u64("reply.stats.queries")?,
                        batch_queries: r.u64("reply.stats.batch_queries")?,
                        routes: r.u64("reply.stats.routes")?,
                        updates: r.u64("reply.stats.updates")?,
                        protocol_errors: r.u64("reply.stats.protocol_errors")?,
                        deadline_closes: r.u64("reply.stats.deadline_closes")?,
                        label_fetches: r.u64("reply.stats.label_fetches")?,
                    }),
                    op::SHUTDOWN => Response::Shutdown,
                    op::LABEL_FETCH => {
                        let generation = r.u64("reply.fetch.generation")?;
                        let epsilon_bits = r.u64("reply.fetch.epsilon_bits")?;
                        let c = r.u32("reply.fetch.c")?;
                        let vertices = r.u64("reply.fetch.vertices")?;
                        let count = r.u32("reply.fetch.count")?;
                        if count > MAX_LABEL_FETCH {
                            return Err(WireError::TooMany {
                                what: "label-fetch labels",
                                count: u64::from(count),
                                max: u64::from(MAX_LABEL_FETCH),
                            });
                        }
                        let mut labels = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            let vertex = r.u32("reply.fetch.vertex")?;
                            let bit_len = r.u32("reply.fetch.bit_len")?;
                            // take() bounds the byte count against the
                            // frame, so a corrupt bit_len is Truncated,
                            // not an allocation.
                            let bytes = r
                                .take((bit_len as usize).div_ceil(8), "reply.fetch.bytes")?
                                .to_vec();
                            labels.push(LabelBytes {
                                vertex,
                                bit_len,
                                bytes,
                            });
                        }
                        Response::LabelFetch(LabelFetchReply {
                            generation,
                            epsilon_bits,
                            c,
                            vertices,
                            labels,
                        })
                    }
                    op::EDGE_SETS => Response::EdgeSets(EdgeSetsReply {
                        generation: r.u64("reply.edge_sets.generation")?,
                        epsilon_bits: r.u64("reply.edge_sets.epsilon_bits")?,
                        c: r.u32("reply.edge_sets.c")?,
                        vertices: r.u64("reply.edge_sets.vertices")?,
                        graph_fingerprint: r.u64("reply.edge_sets.graph_fingerprint")?,
                        shard: r.u32("reply.edge_sets.shard")?,
                        num_shards: r.u32("reply.edge_sets.num_shards")?,
                        checksum: r.u64("reply.edge_sets.checksum")?,
                        edge_sets: {
                            let len = r.u32("reply.edge_sets.len")?;
                            r.take(len as usize, "reply.edge_sets.bytes")?.to_vec()
                        },
                    }),
                    op::POINT_FETCH => {
                        let generation = r.u64("reply.points.generation")?;
                        let count = r.u32("reply.points.count")?;
                        if count > MAX_LABEL_FETCH {
                            return Err(WireError::TooMany {
                                what: "point-fetch records",
                                count: u64::from(count),
                                max: u64::from(MAX_LABEL_FETCH),
                            });
                        }
                        let mut records = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            let vertex = r.u32("reply.points.vertex")?;
                            let len = r.u32("reply.points.len")?;
                            let bytes = r.take(len as usize, "reply.points.bytes")?.to_vec();
                            records.push(PointRecord { vertex, bytes });
                        }
                        Response::PointFetch(PointFetchReply {
                            generation,
                            records,
                        })
                    }
                    other => return Err(WireError::UnknownOpcode(other)),
                }
            }
            status::ERR => {
                let raw = r.u8("error code")?;
                let code =
                    ErrorCode::from_u8(raw).ok_or(WireError::BadDiscriminant("error code", raw))?;
                let message = r.str("error message")?;
                Response::Error(ErrorReply { code, message })
            }
            other => return Err(WireError::UnknownStatus(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// A bounds-checked positional reader over one frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::Truncated(field))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, field)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn faults(&mut self) -> Result<WireFaults, WireError> {
        let nv = self.u16("faults.vertex_count")?;
        let ne = self.u16("faults.edge_count")?;
        let mut vertices = Vec::with_capacity(usize::from(nv));
        for _ in 0..nv {
            vertices.push(self.u32("faults.vertex")?);
        }
        let mut edges = Vec::with_capacity(usize::from(ne));
        for _ in 0..ne {
            let a = self.u32("faults.edge.a")?;
            let b = self.u32("faults.edge.b")?;
            edges.push((a, b));
        }
        Ok(WireFaults { vertices, edges })
    }

    fn ids(&mut self, field: &'static str) -> Result<Vec<u32>, WireError> {
        let count = self.u32(field)?;
        // A path can never exceed the frame it rides in; reject early so a
        // corrupt count cannot trigger a giant allocation.
        let remaining = (self.bytes.len() - self.pos) / 4;
        if count as usize > remaining {
            return Err(WireError::Truncated(field));
        }
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            ids.push(self.u32(field)?);
        }
        Ok(ids)
    }

    /// The id list of a fetch request, at most [`MAX_LABEL_FETCH`] long.
    fn fetch_ids(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        let vertices = self.ids(what)?;
        if vertices.len() > MAX_LABEL_FETCH as usize {
            return Err(WireError::TooMany {
                what,
                count: vertices.len() as u64,
                max: u64::from(MAX_LABEL_FETCH),
            });
        }
        Ok(vertices)
    }

    fn str(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = self.u16(field)?;
        let bytes = self.take(usize::from(len), field)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.bytes.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Frame-layer failures (distinct from payload-level [`WireError`]s:
/// after a frame error the stream position is unreliable and the
/// connection should close; after a payload error the next frame is still
/// well delimited).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The header announced a payload larger than `max`.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// What [`read_frame`] observed.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame was read into the buffer.
    Frame,
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "payload exceeds u32 length",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame into `buf` (resized to the payload length). Blocking:
/// assumes the stream has no read timeout. A clean EOF *before any header
/// byte* is [`FrameRead::Eof`]; EOF mid-frame is an
/// [`std::io::ErrorKind::UnexpectedEof`] I/O error.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the header claims more than `max`
/// bytes, [`FrameError::Io`] on stream failures.
pub fn read_frame<R: Read>(
    r: &mut R,
    max: u32,
    buf: &mut Vec<u8>,
) -> Result<FrameRead, FrameError> {
    let mut header = [0u8; 4];
    // First header byte decides EOF-at-boundary vs truncated frame.
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(FrameRead::Eof);
                }
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid-header",
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(FrameRead::Frame)
}

/// Encodes `req` and writes it as one frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn send_request<W: Write>(w: &mut W, req: &Request, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    req.encode(buf);
    write_frame(w, buf)
}

/// Encodes `resp` and writes it as one frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn send_response<W: Write>(
    w: &mut W,
    resp: &Response,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    resp.encode(buf);
    write_frame(w, buf)
}

/// One step of incremental frame extraction from a [`FrameAssembler`].
#[derive(Debug)]
pub enum FrameStep<'a> {
    /// A complete frame payload (header already stripped). The borrow ends
    /// before the next call to [`FrameAssembler::next_frame`]; callers that
    /// need to keep it must copy.
    Frame(&'a [u8]),
    /// Not enough buffered bytes for a header + payload yet.
    Incomplete,
    /// The buffered header claims a payload larger than the limit. The
    /// connection is unrecoverable (resynchronising on a length-prefixed
    /// stream is impossible); the caller should answer with a typed error
    /// and close.
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
}

/// Reassembles length-prefixed frames from arbitrary read chunks.
///
/// A nonblocking socket hands the reactor whatever bytes the kernel has —
/// half a header, three frames and a tail, anything. The assembler buffers
/// raw bytes ([`FrameAssembler::read_from`]) and yields complete payloads
/// ([`FrameAssembler::next_frame`]) without copying per frame: consumed
/// frames advance a start cursor and the buffer is compacted only when it
/// is fully drained (the common case after each readiness burst).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `read` worth of bytes from `r`. Returns the byte count
    /// (0 is EOF). `WouldBlock` is *propagated*, not swallowed: the caller
    /// owns the read-until-blocked loop.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `r`, including `WouldBlock`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        // Read in reasonably large chunks so one readiness event drains
        // several frames per syscall.
        const CHUNK: usize = 16 * 1024;
        let len = self.buf.len();
        self.buf.resize(len + CHUNK, 0);
        match r.read(&mut self.buf[len..]) {
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// Extracts the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self, max: u32) -> FrameStep<'_> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            self.compact_if_drained();
            return FrameStep::Incomplete;
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > max {
            return FrameStep::Oversized { len, max };
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return FrameStep::Incomplete;
        }
        let frame_start = self.start + 4;
        self.start += total;
        FrameStep::Frame(&self.buf[frame_start..frame_start + len as usize])
    }

    /// Bytes buffered but not yet consumed as frames. Nonzero means a
    /// partial (or not-yet-dispatched) frame is pending — the signal that
    /// arms the slow-loris deadline.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact_if_drained(&mut self) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            // Pathological interleaving (many tiny frames followed by a
            // long partial) could otherwise pin a large buffer forever.
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A per-connection outgoing byte queue for nonblocking sockets.
///
/// [`write_frame`] assumes a blocking stream: `write_all` on a socket
/// whose kernel buffer fills mid-frame would fail with `WouldBlock` and
/// tear the frame. The reactor instead queues encoded frames here and
/// flushes on writability; partial writes advance a cursor so the next
/// flush resumes exactly where the kernel stopped.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    pos: usize,
    scratch: Vec<u8>,
}

impl WriteBuffer {
    /// Creates an empty write buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `resp` and queues it as one frame (header + payload).
    pub fn queue_response(&mut self, resp: &Response) {
        self.scratch.clear();
        resp.encode(&mut self.scratch);
        let payload = std::mem::take(&mut self.scratch);
        self.queue_frame(&payload);
        self.scratch = payload;
    }

    /// Queues one already-encoded payload as a frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds `u32::MAX` bytes; every encodable
    /// [`Response`] is far below [`MAX_FRAME`].
    pub fn queue_frame(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("frame payloads fit in u32");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Writes as much queued data as the socket accepts. Returns `true`
    /// when the queue drained, `false` when the socket blocked mid-queue
    /// (the caller should watch for writability).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `WouldBlock`/`Interrupted`; a
    /// clean `Ok(0)` from `w` is reported as `WriteZero`.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Whether nothing is queued (the connection is write-quiescent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_testkit::Rng;

    fn roundtrip_request(req: &Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert!(buf.len() <= MAX_FRAME as usize);
        let back = Request::decode(&buf).expect("valid encoding decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let back = Response::decode(&buf).expect("valid encoding decodes");
        assert_eq!(&back, resp);
    }

    fn sample_faults(rng: &mut Rng) -> WireFaults {
        let nv = rng.gen_range(0..4usize);
        let ne = rng.gen_range(0..3usize);
        WireFaults {
            vertices: (0..nv).map(|_| rng.gen_range(0..1000u32)).collect(),
            edges: (0..ne)
                .map(|_| (rng.gen_range(0..1000u32), rng.gen_range(0..1000u32)))
                .collect(),
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        roundtrip_request(&Request::Query {
            s: 0,
            t: u32::MAX,
            faults: WireFaults::empty(),
        });
        roundtrip_request(&Request::Update(UpdateOp::DeleteEdge(3, 900)));
        roundtrip_request(&Request::Update(UpdateOp::RestoreVertex(17)));
        roundtrip_request(&Request::LabelFetch { vertices: vec![] });
        roundtrip_request(&Request::LabelFetch {
            vertices: vec![0, 7, u32::MAX],
        });
        roundtrip_request(&Request::EdgeSets);
        roundtrip_request(&Request::PointFetch {
            vertices: vec![3, u32::MAX],
        });
        fsdl_testkit::check("request_roundtrip", 200, |rng| {
            let faults = sample_faults(rng);
            let req = match rng.gen_range(0..5u32) {
                0 => Request::Query {
                    s: rng.gen_range(0..500u32),
                    t: rng.gen_range(0..500u32),
                    faults,
                },
                1 => {
                    let k = rng.gen_range(0..6usize);
                    Request::Batch(
                        (0..k)
                            .map(|_| {
                                (
                                    rng.gen_range(0..500u32),
                                    rng.gen_range(0..500u32),
                                    sample_faults(rng),
                                )
                            })
                            .collect(),
                    )
                }
                2 => Request::Route {
                    s: rng.gen_range(0..500u32),
                    t: rng.gen_range(0..500u32),
                    faults,
                },
                3 => Request::Update(match rng.gen_range(0..4u32) {
                    0 => UpdateOp::DeleteVertex(rng.gen_range(0..500u32)),
                    1 => UpdateOp::DeleteEdge(rng.gen_range(0..500u32), rng.gen_range(0..500u32)),
                    2 => UpdateOp::RestoreVertex(rng.gen_range(0..500u32)),
                    _ => UpdateOp::RestoreEdge(rng.gen_range(0..500u32), rng.gen_range(0..500u32)),
                }),
                _ => {
                    let k = rng.gen_range(0..8usize);
                    Request::LabelFetch {
                        vertices: (0..k).map(|_| rng.gen_range(0..500u32)).collect(),
                    }
                }
            };
            roundtrip_request(&req);
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(&Response::Shutdown);
        roundtrip_response(&Response::Update { active_faults: 42 });
        roundtrip_response(&Response::Query(QueryReply {
            distance: u32::MAX,
            sketch_vertices: 0,
            sketch_edges: 0,
            path: vec![],
        }));
        roundtrip_response(&Response::Query(QueryReply {
            distance: 12,
            sketch_vertices: 40,
            sketch_edges: 120,
            path: vec![0, 5, 9, 12],
        }));
        roundtrip_response(&Response::Batch(vec![
            BatchItem {
                distance: 3,
                sketch_vertices: 10,
                sketch_edges: 20,
            };
            17
        ]));
        roundtrip_response(&Response::Route(RouteReply::Delivered {
            hops: 6,
            header_bits: 96,
            path: vec![1, 2, 3],
        }));
        roundtrip_response(&Response::Route(RouteReply::Failed("unreachable".into())));
        roundtrip_response(&Response::Stats(StatsReply {
            vertices: 144,
            dynamic: 1,
            active_faults: 3,
            connections: 9,
            queries: 1000,
            batch_queries: 4000,
            routes: 7,
            updates: 12,
            protocol_errors: 2,
            deadline_closes: 1,
            label_fetches: 5,
        }));
        roundtrip_response(&Response::LabelFetch(LabelFetchReply {
            generation: 12,
            epsilon_bits: 0.5f64.to_bits(),
            c: 24,
            vertices: 4096,
            labels: vec![
                LabelBytes {
                    vertex: 7,
                    bit_len: 19,
                    bytes: vec![0xAB, 0xCD, 0x05],
                },
                LabelBytes {
                    vertex: 4095,
                    bit_len: 0,
                    bytes: vec![],
                },
            ],
        }));
        roundtrip_response(&Response::EdgeSets(EdgeSetsReply {
            generation: 3,
            epsilon_bits: 1.0f64.to_bits(),
            c: 5,
            vertices: 400,
            graph_fingerprint: 0xDEAD_BEEF_0123_4567,
            shard: 1,
            num_shards: 2,
            checksum: u64::MAX,
            edge_sets: vec![1, 2, 3, 4, 5],
        }));
        roundtrip_response(&Response::PointFetch(PointFetchReply {
            generation: 3,
            records: vec![
                PointRecord {
                    vertex: 9,
                    bytes: vec![0x80, 0x01, 7],
                },
                PointRecord {
                    vertex: 10,
                    bytes: vec![],
                },
            ],
        }));
        roundtrip_response(&Response::Error(ErrorReply {
            code: ErrorCode::UnsupportedInMode,
            message: "route requires a static oracle".into(),
        }));
    }

    /// Any mutation of a valid encoding must decode to a typed error or a
    /// (different or equal) valid message — never panic. Mirrors the
    /// `labels::corrupt` chaos discipline at the wire layer.
    #[test]
    fn mutated_payloads_never_panic() {
        fsdl_testkit::check("mutated_request_payloads", 400, |rng| {
            let mut buf = Vec::new();
            Request::Query {
                s: rng.gen_range(0..100u32),
                t: rng.gen_range(0..100u32),
                faults: sample_faults(rng),
            }
            .encode(&mut buf);
            match rng.gen_range(0..3u32) {
                0 => {
                    // Bit flip.
                    let k = rng.gen_range(0..buf.len());
                    buf[k] ^= 1 << rng.gen_range(0..8u32);
                }
                1 => {
                    // Truncate.
                    let k = rng.gen_range(0..buf.len());
                    buf.truncate(k);
                }
                _ => {
                    // Splice garbage on the end.
                    let extra = rng.gen_range(1..9usize);
                    for _ in 0..extra {
                        buf.push(rng.gen_range(0..=255u32) as u8);
                    }
                }
            }
            let _ = Request::decode(&buf);
            let _ = Response::decode(&buf);
        });
    }

    #[test]
    fn batch_count_limit_is_enforced() {
        let mut buf = vec![2u8]; // BATCH opcode
        buf.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        match Request::decode(&buf) {
            Err(WireError::TooMany { what, .. }) => assert_eq!(what, "batch queries"),
            other => panic!("expected TooMany, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        Request::Stats.encode(&mut buf);
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn framing_roundtrip_and_limits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"hello");
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Frame
        ));
        assert!(buf.is_empty());
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Eof
        ));

        // Oversized header is a typed frame error.
        let mut oversized = std::io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut oversized, MAX_FRAME, &mut buf),
            Err(FrameError::Oversized { .. })
        ));

        // Truncated payload is UnexpectedEof.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full payload").unwrap();
        torn.truncate(torn.len() - 4);
        let mut cursor = std::io::Cursor::new(torn);
        match read_frame(&mut cursor, MAX_FRAME, &mut buf) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected truncated-payload error, got {other:?}"),
        }
    }

    /// Feeds `wire` to an assembler in chunks of `step` bytes and returns
    /// every extracted frame payload.
    fn reassemble(wire: &[u8], step: usize) -> Vec<Vec<u8>> {
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for chunk in wire.chunks(step) {
            let mut cursor = std::io::Cursor::new(chunk);
            let n = asm.read_from(&mut cursor).unwrap();
            assert_eq!(n, chunk.len());
            loop {
                match asm.next_frame(MAX_FRAME) {
                    FrameStep::Frame(payload) => frames.push(payload.to_vec()),
                    FrameStep::Incomplete => break,
                    FrameStep::Oversized { .. } => panic!("unexpected oversize"),
                }
            }
        }
        assert_eq!(asm.buffered(), 0, "all bytes consumed as frames");
        frames
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_offset() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        write_frame(&mut wire, b"omega").unwrap();
        let want: Vec<Vec<u8>> = vec![
            b"alpha".to_vec(),
            Vec::new(),
            vec![0xAB; 300],
            b"omega".to_vec(),
        ];
        // Every chunk size, including 1-byte drip-feed across the header
        // and payload boundaries, must yield the identical frame stream.
        for step in 1..=wire.len() {
            assert_eq!(reassemble(&wire, step), want, "chunk size {step}");
        }
    }

    #[test]
    fn assembler_reports_oversized_headers_without_consuming() {
        let mut asm = FrameAssembler::new();
        let wire = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(&wire[..]);
        asm.read_from(&mut cursor).unwrap();
        match asm.next_frame(MAX_FRAME) {
            FrameStep::Oversized { len, max } => {
                assert_eq!(len, MAX_FRAME + 1);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The poisoned header stays buffered: the connection must close,
        // not resynchronise.
        assert_eq!(asm.buffered(), 4);
    }

    #[test]
    fn assembler_propagates_would_block() {
        struct Blocked;
        impl std::io::Read for Blocked {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let mut asm = FrameAssembler::new();
        let err = asm.read_from(&mut Blocked).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(asm.buffered(), 0);
    }

    /// A writer that accepts at most `cap` bytes per call and blocks
    /// entirely every other call — the worst kernel send buffer.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        turn: bool,
    }

    impl std::io::Write for Throttled {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.turn = !self.turn;
            if !self.turn {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = data.len().min(self.cap);
            self.accepted.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buffer_survives_would_block_mid_frame() {
        let mut wb = WriteBuffer::new();
        wb.queue_response(&Response::Update { active_faults: 7 });
        wb.queue_frame(b"raw payload");
        assert!(!wb.is_empty());

        let mut sink = Throttled {
            accepted: Vec::new(),
            cap: 3,
            turn: false,
        };
        let mut flushes = 0usize;
        while !wb.flush(&mut sink).unwrap() {
            flushes += 1;
            assert!(flushes < 1000, "flush loop did not terminate");
        }
        assert!(wb.is_empty());

        // The byte stream is identical to the blocking writer's.
        let mut want = Vec::new();
        send_response(
            &mut want,
            &Response::Update { active_faults: 7 },
            &mut Vec::new(),
        )
        .unwrap();
        write_frame(&mut want, b"raw payload").unwrap();
        assert_eq!(sink.accepted, want);

        // Queueing after a drain reuses the compacted buffer.
        wb.queue_frame(b"again");
        let mut plain = Vec::new();
        assert!(wb.flush(&mut plain).unwrap());
        let mut want = Vec::new();
        write_frame(&mut want, b"again").unwrap();
        assert_eq!(plain, want);
    }
}
