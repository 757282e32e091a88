//! In-process servers on unix sockets, and the clients that drive them.
//! Server, router and shard worker pools are pinned to one worker (what
//! `nproc` = 2 resolves to), so numbers keep their meaning on a wider box.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_server::protocol::{self, FrameRead};
use fsdl_server::{
    Client, Endpoint, Request, Response, Router, RouterConfig, RouterReport, ServeEngine,
    ServeReport, Server, ServerConfig,
};

use crate::trace::Tracer;

pub type Res<T> = Result<T, String>;

/// Adds what was being attempted to an error.
pub trait Context<T> {
    fn context(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn context(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

const CONNECT_BUDGET: Duration = Duration::from_secs(10);

pub fn connect(endpoint: &Endpoint) -> Res<Client> {
    Client::connect_with_retry(endpoint, CONNECT_BUDGET).context("connect")
}

/// A running single-process server.
pub struct Served {
    pub endpoint: Endpoint,
    thread: JoinHandle<ServeReport>,
}

impl Served {
    pub fn start(socket: &Path, engine: ServeEngine) -> Res<Served> {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(&endpoint, engine, config).context("bind server")?;
        Ok(Served {
            endpoint,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Drains the server with a `shutdown` frame and returns its report
    /// once the thread has ended. A report with protocol errors or
    /// deadline closes fails the run.
    pub fn drain(self) -> Res<ServeReport> {
        connect(&self.endpoint)?
            .shutdown()
            .context("shutdown frame")?;
        let report = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        if report.protocol_errors != 0 || report.deadline_closes != 0 {
            return Err(format!(
                "server saw {} protocol errors and {} deadline closes",
                report.protocol_errors, report.deadline_closes
            ));
        }
        Ok(report)
    }
}

/// Shard servers behind a router.
pub struct Fleet {
    pub endpoint: Endpoint,
    pub shards: Vec<Served>,
    router: JoinHandle<RouterReport>,
}

impl Fleet {
    /// Opens the shard stores under `dir` (as written by
    /// `write_shard_stores`), serves each, and binds the router.
    pub fn start(dir: &Path, plan: &PartitionPlan) -> Res<Fleet> {
        let mut shards = Vec::new();
        for shard in 0..plan.num_shards() {
            let store = ShardStore::open(&dir.join(shard_dir_name(shard))).context("open shard")?;
            let socket = dir.join(format!("s{shard}.sock"));
            shards.push(Served::start(&socket, ServeEngine::from_shard(store))?);
        }
        let endpoint = Endpoint::Unix(dir.join("router.sock"));
        let router = Router::bind(
            &endpoint,
            shards.iter().map(|s| s.endpoint.clone()).collect(),
            plan.clone(),
            RouterConfig {
                workers: 1,
                ..RouterConfig::default()
            },
        )
        .context("bind router")?;
        Ok(Fleet {
            endpoint,
            shards,
            router: std::thread::spawn(move || router.run()),
        })
    }

    /// Drains router then shards; returns the router's report and the
    /// label fetches the shards served.
    pub fn drain(self) -> Res<(RouterReport, u64)> {
        connect(&self.endpoint)?
            .shutdown()
            .context("router shutdown frame")?;
        let report = self
            .router
            .join()
            .map_err(|_| "router thread panicked".to_string())?;
        let mut fetches = 0;
        for shard in self.shards {
            fetches += shard.drain()?.label_fetches;
        }
        if report.protocol_errors != 0 || report.shard_failures != 0 || report.deadline_closes != 0
        {
            return Err(format!(
                "router saw {} protocol errors, {} shard failures, {} deadline closes",
                report.protocol_errors, report.shard_failures, report.deadline_closes
            ));
        }
        Ok((report, fetches))
    }
}

/// A client whose three steps — encode, round trip, decode — are
/// separate spans. The traced and the untraced served pass both go
/// through it, so their ratio is the cost of recording alone.
pub struct SpanClient {
    stream: UnixStream,
    out: Vec<u8>,
    frame: Vec<u8>,
}

impl SpanClient {
    pub fn connect(endpoint: &Endpoint) -> Res<SpanClient> {
        let Endpoint::Unix(path) = endpoint else {
            return Err("the benchmark serves on unix sockets only".into());
        };
        let stream = UnixStream::connect(path).context("connect")?;
        Ok(SpanClient {
            stream,
            out: Vec::new(),
            frame: Vec::new(),
        })
    }

    pub fn call(&mut self, op: u32, request: &Request, tracer: &mut Tracer) -> Res<Response> {
        let span = tracer.enter(op, "client.encode");
        self.out.clear();
        request.encode(&mut self.out);
        tracer.exit(span);

        let span = tracer.enter(op, "client.roundtrip");
        let sent = protocol::write_frame(&mut self.stream, &self.out);
        let read = sent.map_err(|e| e.to_string()).and_then(|()| {
            protocol::read_frame(&mut self.stream, protocol::MAX_FRAME, &mut self.frame)
                .map_err(|e| e.to_string())
        });
        tracer.exit(span);
        match read.context("round trip")? {
            FrameRead::Eof => return Err("server closed the connection".into()),
            FrameRead::Frame => {}
        }

        let span = tracer.enter(op, "client.decode");
        let response = Response::decode(&self.frame);
        tracer.exit(span);
        response.context("decode response")
    }
}
