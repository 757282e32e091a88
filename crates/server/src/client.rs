//! A blocking client for the fsdl wire protocol.
//!
//! One [`Client`] owns one connection and a pair of reusable buffers, so
//! a steady request stream allocates only for the decoded replies. The
//! typed helpers ([`Client::query`], [`Client::batch`], ...) send one
//! request and decode one response; a server-side typed error surfaces
//! as [`ClientError::Server`], transport failures as
//! [`ClientError::Io`]/[`ClientError::Wire`].

use std::time::Duration;

use crate::plane::Stream;
use crate::protocol::{
    self, BatchItem, EdgeSetsReply, ErrorReply, FrameError, FrameRead, LabelFetchReply,
    PointFetchReply, QueryReply, Reply, Request, Response, RouteReply, StatsReply, UpdateOp,
    WireError, WireFaults,
};
use crate::server::Endpoint;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, EOF mid-stream).
    Io(std::io::Error),
    /// The server's bytes did not decode as a response.
    Wire(WireError),
    /// A frame-layer violation (oversized length header).
    Frame(String),
    /// The server answered with a typed error reply.
    Server(ErrorReply),
    /// The server answered with a different response kind than the
    /// request calls for (protocol confusion; names what arrived).
    Unexpected(&'static str),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "bad response encoding: {e}"),
            ClientError::Frame(msg) => write!(f, "frame error: {msg}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code, e.message),
            ClientError::Unexpected(kind) => {
                write!(f, "unexpected response kind: {kind}")
            }
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            oversized @ FrameError::Oversized { .. } => ClientError::Frame(oversized.to_string()),
        }
    }
}

/// One connection to an fsdl server.
pub struct Client {
    stream: Stream,
    encode_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        Ok(Client {
            stream: endpoint.connect()?,
            encode_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// Connects, retrying for up to `budget` while the server is still
    /// binding (useful right after spawning a server thread/process).
    ///
    /// # Errors
    ///
    /// Returns the final connect error once the budget is spent.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        budget: Duration,
    ) -> Result<Client, ClientError> {
        let start = std::time::Instant::now();
        loop {
            match Client::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= budget => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Sends one request and decodes one response, whatever its kind.
    ///
    /// # Errors
    ///
    /// Transport and decode failures; a server-side [`Response::Error`]
    /// is returned as `Ok(Response::Error(..))` here — the typed helpers
    /// convert it to [`ClientError::Server`].
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.roundtrip_with(request, protocol::MAX_FRAME)
    }

    /// `roundtrip` with an explicit reply-frame ceiling: label-plane
    /// replies legitimately exceed [`protocol::MAX_FRAME`] (labels are
    /// poly(1/eps, log n) bytes each), so `label_fetch` reads under the
    /// larger [`protocol::MAX_LABEL_FRAME`] cap.
    fn roundtrip_with(&mut self, request: &Request, cap: u32) -> Result<Response, ClientError> {
        protocol::send_request(&mut self.stream, request, &mut self.encode_buf)
            .map_err(ClientError::from)?;
        match protocol::read_frame(&mut self.stream, cap, &mut self.frame_buf)? {
            FrameRead::Eof => Err(ClientError::Closed),
            FrameRead::Frame => Ok(Response::decode(&self.frame_buf)?),
        }
    }

    /// One round trip whose reply must be a `T`, read under `cap`.
    fn expect<T: Reply>(&mut self, request: &Request, cap: u32) -> Result<T, ClientError> {
        match self.roundtrip_with(request, cap)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => T::from_response(other).map_err(|r| ClientError::Unexpected(r.kind_name())),
        }
    }

    /// One forbidden-set distance query.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn query(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<QueryReply, ClientError> {
        self.expect(&Request::Query { s, t, faults }, protocol::MAX_FRAME)
    }

    /// A batch of queries answered in one frame.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn batch(
        &mut self,
        queries: Vec<(u32, u32, WireFaults)>,
    ) -> Result<Vec<BatchItem>, ClientError> {
        self.expect(&Request::Batch(queries), protocol::MAX_FRAME)
    }

    /// One routing simulation (static servers only).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn route(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<RouteReply, ClientError> {
        self.expect(&Request::Route { s, t, faults }, protocol::MAX_FRAME)
    }

    /// One durable update (dynamic servers only); returns the active
    /// fault count after the update.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn update(&mut self, op: UpdateOp) -> Result<u32, ClientError> {
        self.expect(&Request::Update(op), protocol::MAX_FRAME)
    }

    /// A server stats snapshot.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.expect(&Request::Stats, protocol::MAX_FRAME)
    }

    /// Self-contained encoded labels by global vertex id (shard and
    /// static servers).
    ///
    /// Servers answer with the longest request prefix under their byte
    /// budget (see [`protocol::LabelFetchReply`]); this helper
    /// transparently re-requests the tail and returns the fully
    /// assembled reply, erroring if the store's identity (generation or
    /// decode parameters) changes between chunks.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn label_fetch(&mut self, vertices: Vec<u32>) -> Result<LabelFetchReply, ClientError> {
        self.fetch_all(vertices)
    }

    /// The generation's level edge sets and the shard's identity (shard
    /// and static servers; the router's handshake).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn edge_sets(&mut self) -> Result<EdgeSetsReply, ClientError> {
        self.expect(&Request::EdgeSets, protocol::MAX_LABEL_FRAME)
    }

    /// Points records by global vertex id (shard and static servers),
    /// assembled from short replies like [`Client::label_fetch`]'s and
    /// erroring if the generation changes between chunks.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn point_fetch(&mut self, vertices: Vec<u32>) -> Result<PointFetchReply, ClientError> {
        self.fetch_all(vertices)
    }

    /// Fetches `vertices` chunk by chunk: each reply must be a non-empty
    /// prefix of what is still wanted, and the rest is asked for again.
    fn fetch_all<R: PrefixReply>(&mut self, vertices: Vec<u32>) -> Result<R, ClientError> {
        let mut remaining = vertices;
        let mut assembled: Option<R> = None;
        loop {
            let reply: R =
                self.expect(&R::request(remaining.clone()), protocol::MAX_LABEL_FRAME)?;
            let served = reply.served();
            if !protocol::is_fetch_prefix(&remaining, served.iter().copied()) {
                return Err(ClientError::Unexpected(
                    "fetch reply was not a prefix of the request",
                ));
            }
            match assembled.as_mut() {
                None => assembled = Some(reply),
                Some(acc) => acc.extend(reply)?,
            }
            remaining.drain(..served.len());
            if remaining.is_empty() {
                return Ok(assembled.take().expect("assembled reply"));
            }
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, protocol::MAX_FRAME)
    }
}

/// A label-plane fetch reply, which a server may cut short of its request
/// (see [`Client::fetch_all`]).
trait PrefixReply: Reply {
    /// The request for `vertices`.
    fn request(vertices: Vec<u32>) -> Request;
    /// The ids served, in order.
    fn served(&self) -> Vec<u32>;
    /// Appends a later chunk, refusing one from another label plane.
    fn extend(&mut self, chunk: Self) -> Result<(), ClientError>;
}

impl PrefixReply for LabelFetchReply {
    fn request(vertices: Vec<u32>) -> Request {
        Request::LabelFetch { vertices }
    }

    fn served(&self) -> Vec<u32> {
        self.labels.iter().map(|label| label.vertex).collect()
    }

    fn extend(&mut self, chunk: Self) -> Result<(), ClientError> {
        let identity = |r: &Self| (r.generation, r.epsilon_bits, r.c, r.vertices);
        if identity(&chunk) != identity(self) {
            return Err(ClientError::Unexpected(
                "label plane changed identity between fetch chunks",
            ));
        }
        self.labels.extend(chunk.labels);
        Ok(())
    }
}

impl PrefixReply for PointFetchReply {
    fn request(vertices: Vec<u32>) -> Request {
        Request::PointFetch { vertices }
    }

    fn served(&self) -> Vec<u32> {
        self.records.iter().map(|record| record.vertex).collect()
    }

    fn extend(&mut self, chunk: Self) -> Result<(), ClientError> {
        if chunk.generation != self.generation {
            return Err(ClientError::Unexpected(
                "label plane changed generation between fetch chunks",
            ));
        }
        self.records.extend(chunk.records);
        Ok(())
    }
}
