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
    self, BatchItem, ErrorReply, FrameError, FrameRead, LabelFetchReply, QueryReply, Request,
    Response, RouteReply, StatsReply, UpdateOp, WireError, WireFaults,
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

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<T, &'static str>,
    ) -> Result<T, ClientError> {
        match self.roundtrip(request)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => pick(other).map_err(ClientError::Unexpected),
        }
    }

    /// One forbidden-set distance query.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn query(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<QueryReply, ClientError> {
        self.expect(&Request::Query { s, t, faults }, |r| match r {
            Response::Query(q) => Ok(q),
            other => Err(other.kind_name()),
        })
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
        self.expect(&Request::Batch(queries), |r| match r {
            Response::Batch(items) => Ok(items),
            other => Err(other.kind_name()),
        })
    }

    /// One routing simulation (static servers only).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn route(&mut self, s: u32, t: u32, faults: WireFaults) -> Result<RouteReply, ClientError> {
        self.expect(&Request::Route { s, t, faults }, |r| match r {
            Response::Route(reply) => Ok(reply),
            other => Err(other.kind_name()),
        })
    }

    /// One durable update (dynamic servers only); returns the active
    /// fault count after the update.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn update(&mut self, op: UpdateOp) -> Result<u32, ClientError> {
        self.expect(&Request::Update(op), |r| match r {
            Response::Update { active_faults } => Ok(active_faults),
            other => Err(other.kind_name()),
        })
    }

    /// A server stats snapshot.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats(s) => Ok(s),
            other => Err(other.kind_name()),
        })
    }

    /// Raw encoded labels by global vertex id (shard servers only). An
    /// empty id list is the handshake form: the reply still carries the
    /// shard's generation and decode parameters.
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
        let mut remaining = vertices;
        let mut assembled: Option<LabelFetchReply> = None;
        loop {
            let request = Request::LabelFetch {
                vertices: remaining.clone(),
            };
            let reply = match self.roundtrip_with(&request, protocol::MAX_LABEL_FRAME)? {
                Response::Error(e) => return Err(ClientError::Server(e)),
                Response::LabelFetch(reply) => reply,
                other => return Err(ClientError::Unexpected(other.kind_name())),
            };
            let served = reply.labels.len();
            let is_prefix = served <= remaining.len()
                && reply
                    .labels
                    .iter()
                    .zip(&remaining)
                    .all(|(lb, &v)| lb.vertex == v);
            if !is_prefix || (served == 0 && !remaining.is_empty()) {
                return Err(ClientError::Unexpected(
                    "label-fetch reply was not a prefix of the request",
                ));
            }
            match assembled.as_mut() {
                None => assembled = Some(reply),
                Some(acc) => {
                    let same_identity = reply.generation == acc.generation
                        && reply.epsilon_bits == acc.epsilon_bits
                        && reply.c == acc.c
                        && reply.vertices == acc.vertices;
                    if !same_identity {
                        return Err(ClientError::Unexpected(
                            "label plane changed identity between fetch chunks",
                        ));
                    }
                    acc.labels.extend(reply.labels);
                }
            }
            remaining.drain(..served);
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
        self.expect(&Request::Shutdown, |r| match r {
            Response::Shutdown => Ok(()),
            other => Err(other.kind_name()),
        })
    }
}
