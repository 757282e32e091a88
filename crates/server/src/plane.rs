//! The connection plane: the one readiness-driven event loop, connection
//! slab and worker pool that both [`crate::Server`] and [`crate::Router`]
//! run on. Each front is a [`Handler`] plugged into a [`ConnPlane`]; they
//! differ only in where label bytes come from.
//!
//! ## Threading model
//!
//! One event loop (the caller of [`ConnPlane::run`]) owns *every* socket —
//! the listener, all accepted connections and whatever sockets the
//! handler owns (the router's upstream pool) — all nonblocking, through an
//! [`fsdl_reactor::Poller`] (raw `epoll` on Linux, `poll(2)` elsewhere).
//! Each connection is a [`Wire`]: the socket, a
//! [`protocol::FrameAssembler`] that reassembles length-prefixed frames
//! from whatever byte chunks the kernel delivers, and a
//! [`protocol::WriteBuffer`] that absorbs replies a full send buffer
//! cannot take yet. Only *complete* frames reach [`Handler::on_frame`],
//! so a thousand idle keep-alive connections and a client that drips one
//! header byte per second cost the workers nothing.
//!
//! Workers receive [`Handler::Work`] items over a channel, turn each into
//! a [`Response`] with their per-worker [`Handler::Worker`] state (the
//! decode scratch buffers live there for the worker's lifetime), encode
//! it, and push it to a completion queue, waking the event loop through a
//! self-pipe. The pool size defaults to
//! [`fsdl_nets::parallel::background_workers`] (available parallelism
//! minus the event-loop thread, never below one).
//!
//! ## Backpressure and buffer ownership
//!
//! All buffers live on the event-loop side; a worker only ever sees one
//! owned work item at a time. A connection has at most one reply owed
//! (`in_flight`): meanwhile the loop stops watching the socket for
//! readability, so a client that pipelines faster than the engine answers
//! is throttled by TCP itself and buffer growth per connection is bounded
//! by one readiness burst.
//!
//! ## Failure containment
//!
//! A broken *frame* (length header past the cap) gets a final typed
//! [`ErrorCode::Oversized`] reply and closes only that connection. A
//! connection that starts a frame and stalls past the frame deadline (a
//! slow-loris client) gets a typed [`ErrorCode::DeadlineExceeded`] reply,
//! one flush attempt, and a close, counted in
//! [`PlaneCounters::deadline_closes`]. An idle connection (no partial
//! frame) is never policed.
//!
//! ## Shutdown
//!
//! A [`Response::Shutdown`] reply (or [`ShutdownHandle::signal`]) flips a
//! shared flag. The plane then owns the drain: it deregisters the
//! listener, stops dispatching buffered frames, lets owed replies arrive
//! and flush, closes every connection the moment it is quiescent (no
//! reply owed, nothing left to flush), and cuts stragglers loose after
//! one frame deadline. Handlers never see drain state.
//!
//! ## Token namespace
//!
//! Poller tokens are `generation << 32 | slot` with a 31-bit generation:
//! bit 63 is never set on a connection token. The upper half of the token
//! space belongs to the plane's own listener/wake tokens and to
//! handler-owned sockets ([`handler_token`]), so one poller routes all
//! three kinds without a lookup.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fsdl_reactor::{Interest, Poller};

use crate::protocol::{self, ErrorCode, ErrorReply, FrameError, FrameStep, Response};
use crate::server::{Endpoint, ShutdownHandle};

// ---- transport -------------------------------------------------------

/// One connected socket, unified over transports (blocking for
/// [`crate::Client`], nonblocking inside a [`Wire`]).
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Endpoint {
    /// Opens a blocking connection to this endpoint.
    pub(crate) fn connect(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        })
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a nonblocking listener. For unix endpoints a stale socket
    /// file from a previous run is removed first.
    fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                // A dead server leaves its socket file behind; binding over
                // it is the expected restart path. Only ever remove sockets.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    if meta.file_type().is_socket() {
                        std::fs::remove_file(path)?;
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        Ok(match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?.to_string()),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        })
    }

    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

// ---- tokens ----------------------------------------------------------

/// Set on every token that is *not* an accepted connection.
const HANDLER_BIT: u64 = 1 << 63;
/// The poller token of the listener socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// The poller token of the worker-completion wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// The poller token for the handler-owned socket number `index` (small
/// and stable; far below the reserved tokens at the top of this half).
pub(crate) fn handler_token(index: usize) -> u64 {
    HANDLER_BIT | index as u64
}

/// Mints the next connection token for `slot`: a 31-bit generation in
/// bits 32..63 over the slot index, advancing (and wrapping) the
/// generation counter. Bit 63 stays clear, so a connection token can
/// never collide with the listener, the wake pipe or a handler socket.
/// Same-slot reuse always changes the token (consecutive generations
/// differ in their low 31 bits), and distinct slots differ in the low 32
/// bits, so events and completions for a recycled slot are recognised as
/// stale.
fn mint_token(next_generation: &mut u32, slot: usize) -> u64 {
    *next_generation = next_generation.wrapping_add(1);
    (u64::from(*next_generation & 0x7FFF_FFFF) << 32) | slot as u64
}

// ---- one buffered nonblocking socket ---------------------------------

/// A nonblocking socket with its frame-reassembly and write buffers and
/// the interest currently registered with the poller. Accepted
/// connections and handler-owned sockets are both `Wire`s.
pub(crate) struct Wire {
    stream: Stream,
    pub(crate) assembler: protocol::FrameAssembler,
    pub(crate) write_buf: protocol::WriteBuffer,
    registered: Interest,
}

impl Wire {
    /// Makes `stream` nonblocking and registers it for readability.
    pub(crate) fn register(
        stream: Stream,
        poller: &mut Poller,
        token: u64,
    ) -> std::io::Result<Wire> {
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), token, Interest::READABLE)?;
        Ok(Wire {
            stream,
            assembler: protocol::FrameAssembler::new(),
            write_buf: protocol::WriteBuffer::new(),
            registered: Interest::READABLE,
        })
    }

    /// Reads into the assembler until the socket would block. `Ok(false)`
    /// is EOF; complete frames buffered before it are still served.
    pub(crate) fn fill(&mut self) -> std::io::Result<bool> {
        loop {
            match self.assembler.read_from(&mut self.stream) {
                Ok(0) => return Ok(false),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much of the write buffer as the socket takes; `Ok(true)`
    /// when it drained.
    pub(crate) fn flush(&mut self) -> std::io::Result<bool> {
        self.write_buf.flush(&mut self.stream)
    }

    /// Reconciles the poller registration with `desired`.
    pub(crate) fn set_interest(
        &mut self,
        poller: &mut Poller,
        token: u64,
        desired: Interest,
    ) -> std::io::Result<()> {
        if desired != self.registered {
            self.registered = desired;
            poller.modify(self.stream.as_raw_fd(), token, desired)?;
        }
        Ok(())
    }

    /// Deregisters, then closes the socket.
    pub(crate) fn close(self, poller: &mut Poller) {
        let _ = poller.deregister(self.stream.as_raw_fd());
    }
}

// ---- handler interface -----------------------------------------------

/// Upper bound on how long the event loop sleeps when nothing is ready —
/// the latency ceiling for noticing an out-of-band
/// [`ShutdownHandle::signal`].
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The loop tunables both fronts share (copied out of their public
/// config structs).
#[derive(Clone, Copy)]
pub(crate) struct PlaneConfig {
    pub(crate) workers: usize,
    pub(crate) frame_deadline: Duration,
}

impl PlaneConfig {
    /// The worker-pool size; see [`crate::Server::resolved_workers`].
    pub(crate) fn resolved_workers(&self) -> usize {
        let workers = if self.workers == 0 {
            // Cap irrelevant here (usize::MAX jobs): we want avail - 1.
            fsdl_nets::parallel::background_workers(usize::MAX)
        } else {
            self.workers
        };
        assert!(
            workers >= 1,
            "worker pool must keep at least one worker after reserving the event loop"
        );
        workers
    }
}

/// The counters the plane itself maintains; handlers add their own.
#[derive(Debug, Default)]
pub(crate) struct PlaneCounters {
    /// Connections accepted.
    pub(crate) connections: AtomicU64,
    /// Typed error replies queued (by the plane, a handler or a worker).
    pub(crate) protocol_errors: AtomicU64,
    /// Connections closed for stalling mid-frame past the deadline.
    pub(crate) deadline_closes: AtomicU64,
}

/// What differs between the fronts. Statically dispatched: a
/// [`ConnPlane`] is generic over its handler.
pub(crate) trait Handler {
    /// What the event loop hands to a worker.
    type Work: Send;
    /// Per-worker state, created once and kept for the worker's lifetime.
    type Worker: Send;

    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;

    /// Runs on a worker thread: turns one work item into the reply.
    fn work(worker: &mut Self::Worker, work: Self::Work) -> Response;

    /// One complete request frame arrived on connection `token`. The
    /// handler answers through [`Core::reply`], [`Core::submit`] or
    /// [`Core::hold`]; buffered follow-up frames are held back while a
    /// reply is owed.
    fn on_frame(&mut self, core: &mut Core<Self::Work>, token: u64, frame: Vec<u8>);

    /// Readiness on the handler-owned socket registered under
    /// [`handler_token`]`(index)`.
    fn on_socket(&mut self, _core: &mut Core<Self::Work>, _index: usize, _writable: bool) {}

    /// Called once per loop iteration outside a drain.
    fn on_tick(&mut self, _core: &mut Core<Self::Work>) {}

    /// Called once when the drain is over and the workers are joined,
    /// before a unix socket file is removed: whatever a supervisor may
    /// assume once the socket is gone has to be true when this returns.
    fn on_drained(&self) {}
}

/// Work on its way to a worker, tagged with the connection that is owed
/// the reply.
struct Job<W> {
    token: u64,
    work: W,
}

/// An encoded reply on its way back from a worker.
struct Completion {
    token: u64,
    /// Encoded reply payload (frame header added by the write buffer).
    payload: Vec<u8>,
    is_shutdown: bool,
}

// ---- the plane -------------------------------------------------------

/// Per-connection state, owned by the event loop.
struct Conn {
    wire: Wire,
    token: u64,
    /// A reply is owed (a worker or the handler holds the request);
    /// readability is not watched meanwhile.
    in_flight: bool,
    /// The peer sent EOF; buffered complete frames are still served.
    peer_closed: bool,
    /// Close as soon as the write buffer drains (fatal frame error,
    /// shutdown ack, EOF with replies still queued).
    close_after_flush: bool,
    /// Armed while a *partial* frame sits in the assembler; expiry is a
    /// slow-loris close.
    deadline: Option<Instant>,
}

/// Everything of the plane but the handler: the poller, the listener, the
/// connection slab, the worker channel and the drain state. Handlers get
/// `&mut Core` in every callback.
pub(crate) struct Core<W> {
    /// The one poller; handlers register their own sockets on it under
    /// [`handler_token`]s.
    pub(crate) poller: Poller,
    pub(crate) counters: Arc<PlaneCounters>,
    listener: Listener,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    config: PlaneConfig,
    shutdown: Arc<AtomicBool>,
    jobs: Sender<Job<W>>,
    job_rx: Arc<Mutex<Receiver<Job<W>>>>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    /// Slot-indexed connections; tokens carry a generation so events and
    /// completions for a recycled slot are recognized as stale.
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u32,
    /// How many live connections have a frame deadline armed; deadline
    /// scans are skipped entirely while this is zero, so idle fleets
    /// cost nothing per tick.
    armed_deadlines: usize,
    open: usize,
    /// `Some` once shutdown was observed: when stragglers are cut loose.
    drain_deadline: Option<Instant>,
    /// Slots that were handed a reply outside [`Core::pump`] and need
    /// their flush / next-frame dispatch settled before the loop sleeps.
    dirty: Vec<usize>,
}

impl<W> Core<W> {
    /// Binds the listener at `endpoint` and sets up the poller and the
    /// worker wake pipe.
    pub(crate) fn bind(endpoint: &Endpoint, config: PlaneConfig) -> std::io::Result<Core<W>> {
        let listener = Listener::bind(endpoint)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
        let (jobs, job_rx) = std::sync::mpsc::channel();
        Ok(Core {
            poller,
            counters: Arc::new(PlaneCounters::default()),
            listener,
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            jobs,
            job_rx: Arc::new(Mutex::new(job_rx)),
            completions: Arc::new(Mutex::new(VecDeque::new())),
            slab: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            armed_deadlines: 0,
            open: 0,
            drain_deadline: None,
            dirty: Vec::new(),
        })
    }

    // ---- what handlers call ------------------------------------------

    /// Marks `token` as owed a reply the handler will produce later.
    pub(crate) fn hold(&mut self, token: u64) {
        if let Some(slot) = self.live_slot(token) {
            self.conn(slot).in_flight = true;
        }
    }

    /// Hands `work` to the worker pool; its reply goes to `token`.
    pub(crate) fn submit(&mut self, token: u64, work: W) {
        let Some(slot) = self.live_slot(token) else {
            return; // the client left while the handler held its request
        };
        self.conn(slot).in_flight = true;
        if self.jobs.send(Job { token, work }).is_err() {
            // Workers are gone; only reachable mid-teardown.
            self.close(slot);
        }
    }

    /// Queues `response` on `token` from the event-loop thread. An error
    /// reply is counted; a [`Response::Shutdown`] ack starts the drain and
    /// closes the connection once it has flushed.
    pub(crate) fn reply(&mut self, token: u64, response: &Response) {
        let Some(slot) = self.live_slot(token) else {
            return;
        };
        if matches!(response, Response::Error(_)) {
            self.counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        let is_shutdown = matches!(response, Response::Shutdown);
        if is_shutdown {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.conn(slot).wire.write_buf.queue_response(response);
        self.delivered(slot, is_shutdown);
    }

    // ---- the loop -----------------------------------------------------

    fn run<H: Handler<Work = W>>(&mut self, handler: &mut H) {
        let mut events = Vec::new();
        loop {
            let now = Instant::now();
            if self.drain_deadline.is_none() && self.shutdown.load(Ordering::SeqCst) {
                self.drain_deadline = Some(now + self.config.frame_deadline);
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                self.close_quiescent();
            }
            if let Some(deadline) = self.drain_deadline {
                // Stragglers that kept a reply unflushed or a worker busy
                // for a whole frame deadline are cut loose when the core
                // drops.
                if self.open == 0 || now >= deadline {
                    break;
                }
            }

            if self
                .poller
                .wait(&mut events, Some(self.wait_timeout()))
                .is_err()
            {
                // Poller failure is unrecoverable; drain like a listener
                // death rather than spinning.
                self.shutdown.store(true, Ordering::SeqCst);
                continue;
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    token if token & HANDLER_BIT != 0 => {
                        handler.on_socket(self, (token & !HANDLER_BIT) as usize, ev.writable);
                    }
                    token => self.connection_ready(handler, token, ev.writable),
                }
            }
            // Completions are drained every tick (not only on wake
            // events): the wake byte can race the queue push, and a
            // mutex peek is cheap.
            self.drain_completions();
            if self.drain_deadline.is_none() {
                self.expire_deadlines();
                handler.on_tick(self);
            }
            while let Some(slot) = self.dirty.pop() {
                self.pump(handler, slot);
            }
        }
    }

    /// The poller timeout: the poll interval (shutdown-flag latency
    /// ceiling), tightened to the nearest armed frame deadline or the
    /// drain deadline.
    fn wait_timeout(&self) -> Duration {
        let mut timeout = POLL_INTERVAL;
        let now = Instant::now();
        if self.armed_deadlines > 0 {
            for conn in self.slab.iter().flatten() {
                if let Some(d) = conn.deadline {
                    timeout = timeout.min(d.saturating_duration_since(now));
                }
            }
        }
        if let Some(d) = self.drain_deadline {
            timeout = timeout.min(d.saturating_duration_since(now));
        }
        timeout
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok(stream) => self.insert(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Listener failure: drain and exit rather than
                    // spinning on a dead socket.
                    self.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    fn insert(&mut self, stream: Stream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let token = mint_token(&mut self.next_generation, slot);
        let Ok(wire) = Wire::register(stream, &mut self.poller, token) else {
            // Out of poller capacity (EMFILE-like): drop the connection;
            // the slot goes back unused.
            self.free.push(slot);
            return;
        };
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        self.slab[slot] = Some(Conn {
            wire,
            token,
            in_flight: false,
            peer_closed: false,
            close_after_flush: false,
            deadline: None,
        });
        self.open += 1;
    }

    /// Resolves a token to its slot, ignoring stale generations.
    fn live_slot(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xFFFF_FFFF) as usize;
        match self.slab.get(slot) {
            Some(Some(conn)) if conn.token == token => Some(slot),
            _ => None,
        }
    }

    fn conn(&mut self, slot: usize) -> &mut Conn {
        self.slab[slot].as_mut().expect("live slot")
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slab[slot].take() {
            if conn.deadline.is_some() {
                self.armed_deadlines -= 1;
            }
            conn.wire.close(&mut self.poller);
            self.free.push(slot);
            self.open -= 1;
        }
    }

    /// Closes every connection with no reply owed and nothing left to
    /// flush (the shutdown fast path).
    fn close_quiescent(&mut self) {
        for slot in 0..self.slab.len() {
            let quiescent = matches!(
                &self.slab[slot],
                Some(conn) if !conn.in_flight && conn.wire.write_buf.is_empty()
            );
            if quiescent {
                self.close(slot);
            }
        }
    }

    /// Empties the self-pipe; the bytes carry no payload, the
    /// completions queue is the source of truth.
    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 256];
        let mut pipe = &self.wake_rx; // `&UnixStream` implements `Read`
        loop {
            match pipe.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Handles readiness on one connection: flush pending writes, read
    /// until the socket blocks, then dispatch what arrived.
    fn connection_ready<H: Handler<Work = W>>(
        &mut self,
        handler: &mut H,
        token: u64,
        writable: bool,
    ) {
        let Some(slot) = self.live_slot(token) else {
            return;
        };
        if writable && !self.flush(slot) {
            return;
        }
        let conn = self.conn(slot);
        if !conn.peer_closed && !conn.close_after_flush {
            match conn.wire.fill() {
                Ok(open) => conn.peer_closed = !open,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.pump(handler, slot);
    }

    /// Moves buffered frames to the handler until a reply is owed, then
    /// settles the connection's deadline, write buffer, interest and
    /// close state.
    fn pump<H: Handler<Work = W>>(&mut self, handler: &mut H, slot: usize) {
        loop {
            let draining = self.drain_deadline.is_some();
            let Some(conn) = self.slab[slot].as_mut() else {
                return; // closed (by the handler, or before a dirty settle)
            };
            if conn.in_flight || conn.close_after_flush || draining {
                break;
            }
            match conn.wire.assembler.next_frame(protocol::MAX_FRAME) {
                FrameStep::Frame(payload) => {
                    let frame = payload.to_vec();
                    let token = conn.token;
                    self.disarm_deadline(slot);
                    handler.on_frame(self, token, frame);
                }
                FrameStep::Incomplete => {
                    if conn.peer_closed {
                        // Clean EOF at a boundary or a torn frame; either
                        // way there is nothing left to serve.
                        conn.close_after_flush = true;
                    } else if conn.wire.assembler.buffered() == 0 {
                        self.disarm_deadline(slot);
                    } else if conn.deadline.is_none() {
                        // A partial frame is pending and no reply is owed:
                        // the clock is on the client. Armed once —
                        // progress does not reset it, or a drip-feed
                        // would evade the deadline.
                        conn.deadline = Some(Instant::now() + self.config.frame_deadline);
                        self.armed_deadlines += 1;
                    }
                    break;
                }
                FrameStep::Oversized { len, max } => {
                    // The length header itself is untrustworthy, so the
                    // stream cannot be re-synchronized: typed error, then
                    // close.
                    self.counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    conn.wire
                        .write_buf
                        .queue_response(&Response::Error(ErrorReply {
                            code: ErrorCode::Oversized,
                            message: FrameError::Oversized { len, max }.to_string(),
                        }));
                    conn.close_after_flush = true;
                    self.disarm_deadline(slot);
                    break;
                }
            }
        }
        if self.flush(slot) {
            self.update_interest(slot);
        }
    }

    fn disarm_deadline(&mut self, slot: usize) {
        if self.conn(slot).deadline.take().is_some() {
            self.armed_deadlines -= 1;
        }
    }

    /// Flushes the write buffer; returns `false` when the connection was
    /// closed: on a write error, or once everything is flushed and the
    /// connection is marked to close or quiescent in a drain.
    fn flush(&mut self, slot: usize) -> bool {
        let draining = self.drain_deadline.is_some();
        let conn = self.conn(slot);
        let done = match conn.wire.flush() {
            Ok(true) => conn.close_after_flush || (draining && !conn.in_flight),
            Ok(false) => false, // socket full; writable interest keeps it moving
            Err(_) => true,
        };
        if done {
            self.close(slot);
        }
        !done
    }

    /// Reconciles the poller registration with the connection's state.
    fn update_interest(&mut self, slot: usize) {
        let draining = self.drain_deadline.is_some();
        let conn = self.slab[slot].as_mut().expect("live slot");
        let desired = Interest {
            readable: !conn.in_flight && !conn.close_after_flush && !conn.peer_closed && !draining,
            writable: !conn.wire.write_buf.is_empty(),
        };
        if conn
            .wire
            .set_interest(&mut self.poller, conn.token, desired)
            .is_err()
        {
            self.close(slot);
        }
    }

    /// A reply was just queued on `slot`: nothing is owed any more, and
    /// the flush and next-frame dispatch happen before the loop sleeps.
    fn delivered(&mut self, slot: usize, is_shutdown: bool) {
        let conn = self.conn(slot);
        conn.in_flight = false;
        conn.close_after_flush |= is_shutdown;
        self.dirty.push(slot);
    }

    /// Applies every queued worker reply to its connection.
    fn drain_completions(&mut self) {
        loop {
            let next = self
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(done) = next else { break };
            if done.is_shutdown {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            let Some(slot) = self.live_slot(done.token) else {
                continue; // connection died while the worker was busy
            };
            let conn = self.conn(slot);
            if !conn.in_flight {
                // A completion can only be owed to a connection with work
                // at a worker; anything else is a stale token that
                // survived a slot recycle through a generation wrap.
                continue;
            }
            conn.wire.write_buf.queue_frame(&done.payload);
            self.delivered(slot, done.is_shutdown);
        }
    }

    /// Closes every connection whose partial-frame deadline has passed:
    /// typed reply, one flush attempt, close.
    fn expire_deadlines(&mut self) {
        if self.armed_deadlines == 0 {
            return;
        }
        let now = Instant::now();
        for slot in 0..self.slab.len() {
            let expired = matches!(
                &self.slab[slot],
                Some(conn) if conn.deadline.is_some_and(|d| d <= now)
            );
            if !expired {
                continue;
            }
            self.counters
                .deadline_closes
                .fetch_add(1, Ordering::Relaxed);
            let message = format!(
                "frame not completed within {:?}; closing",
                self.config.frame_deadline
            );
            let conn = self.conn(slot);
            conn.wire
                .write_buf
                .queue_response(&Response::Error(ErrorReply {
                    code: ErrorCode::DeadlineExceeded,
                    message,
                }));
            // One courtesy flush; a stalled sender that also stopped
            // reading does not get to park the reply here.
            let _ = conn.wire.flush();
            self.close(slot);
        }
    }
}

/// A bound plane with its handler plugged in.
pub(crate) struct ConnPlane<H: Handler> {
    pub(crate) handler: H,
    core: Core<H::Work>,
}

impl<H: Handler> ConnPlane<H> {
    pub(crate) fn new(core: Core<H::Work>, handler: H) -> ConnPlane<H> {
        ConnPlane { handler, core }
    }

    /// The endpoint actually bound (port 0 resolved).
    pub(crate) fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        self.core.listener.local_endpoint()
    }

    pub(crate) fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle::new(Arc::clone(&self.core.shutdown))
    }

    pub(crate) fn resolved_workers(&self) -> usize {
        self.core.config.resolved_workers()
    }

    /// Runs the event loop on the calling thread until shutdown has
    /// drained, joins the workers, lets the handler finish
    /// ([`Handler::on_drained`]), removes a unix socket file, and hands the
    /// handler back for its totals.
    pub(crate) fn run(self) -> H {
        let ConnPlane {
            mut handler,
            mut core,
        } = self;
        let socket_path = match &core.listener {
            Listener::Unix(_, path) => Some(path.clone()),
            Listener::Tcp(_) => None,
        };
        std::thread::scope(|scope| {
            for _ in 0..core.config.resolved_workers() {
                let mut worker = handler.worker();
                let job_rx = Arc::clone(&core.job_rx);
                let completions = Arc::clone(&core.completions);
                let counters = Arc::clone(&core.counters);
                let wake_tx = Arc::clone(&core.wake_tx);
                scope.spawn(move || loop {
                    // Holding the recv lock only while waiting keeps
                    // hand-off cheap; a closed channel means the event
                    // loop is gone and the queue is drained.
                    let job = job_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    let Ok(job) = job else { break };
                    let response = H::work(&mut worker, job.work);
                    if matches!(response, Response::Error(_)) {
                        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut payload = Vec::new();
                    response.encode(&mut payload);
                    completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(Completion {
                            token: job.token,
                            payload,
                            is_shutdown: matches!(response, Response::Shutdown),
                        });
                    // A full pipe already guarantees a pending wakeup.
                    let _ = (&*wake_tx).write(&[1]);
                });
            }
            core.run(&mut handler);
            // Hangs up the job channel: workers drain the queue and exit,
            // the scope joins them.
            drop(core);
        });
        handler.on_drained();
        if let Some(path) = socket_path {
            let _ = std::fs::remove_file(path);
        }
        handler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_generation_never_aliases_reserved_tokens() {
        // The only tokens live in the poller besides connections are the
        // listener, the wake pipe and handler sockets. A generation wrap
        // at the extreme slot indices must not mint any of those.
        for slot in [0xFFFF_FFFEusize, 0xFFFF_FFFF] {
            let mut generation = u32::MAX - 1; // next_add lands on u32::MAX
            let token = mint_token(&mut generation, slot);
            assert_ne!(token, LISTENER_TOKEN);
            assert_ne!(token, WAKE_TOKEN);
            // The very next token is a normal one too.
            let token2 = mint_token(&mut generation, slot);
            assert_ne!(token2, LISTENER_TOKEN);
            assert_ne!(token2, WAKE_TOKEN);
            assert_ne!(token, token2);
        }
    }

    #[test]
    fn wrapped_generation_never_aliases_a_live_connection() {
        // Aliasing a *live* connection would need two equal tokens for
        // the same slot from different generations. The generation
        // strictly advances on every insert, so consecutive tokens for
        // one slot differ even across the u32 wrap; different slots
        // differ structurally in the low 32 bits.
        let slot = 7usize;
        let mut generation = u32::MAX; // wraps to 0 on the next insert
        let before_wrap = mint_token(&mut generation, slot);
        let after_wrap = mint_token(&mut generation, slot);
        assert_ne!(before_wrap, after_wrap);
        assert_eq!(before_wrap & 0xFFFF_FFFF, slot as u64);
        assert_eq!(after_wrap & 0xFFFF_FFFF, slot as u64);
        let other_slot = mint_token(&mut generation, slot + 1);
        assert_ne!(other_slot & 0xFFFF_FFFF, slot as u64);
    }

    #[test]
    fn connection_tokens_never_enter_the_handler_namespace() {
        // Even a wrapped generation at the highest slot keeps bit 63
        // clear, so no connection token can route to a handler socket,
        // the listener, or the wake pipe.
        let mut generation = u32::MAX - 3;
        for _ in 0..8 {
            let token = mint_token(&mut generation, 0xFFFF_FFFF);
            assert_eq!(token & HANDLER_BIT, 0);
            assert_ne!(token, LISTENER_TOKEN);
            assert_ne!(token, WAKE_TOKEN);
        }
        assert_ne!(handler_token(0) & HANDLER_BIT, 0);
    }

    #[test]
    fn same_slot_reuse_always_differs_across_the_31_bit_wrap() {
        let mut generation = 0x7FFF_FFFE; // about to wrap the 31-bit mask
        let first = mint_token(&mut generation, 42);
        let second = mint_token(&mut generation, 42);
        let third = mint_token(&mut generation, 42);
        assert_ne!(first, second);
        assert_ne!(second, third);
        assert_eq!(first & 0xFFFF_FFFF, 42);
        assert_eq!(second & 0xFFFF_FFFF, 42);
    }
}
