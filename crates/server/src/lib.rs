//! Network serving layer for the forbidden-set distance oracle.
//!
//! The paper's labels are *self-contained*: answering `δ(s, t, F)` needs
//! only the labels of `s`, `t`, and the faulted elements. That makes the
//! oracle an ideal long-running service — the whole label arena is
//! immutable shared state, and every query touches a bounded, local
//! slice of it. This crate turns the in-process oracle into that
//! service:
//!
//! - [`protocol`] — a small length-prefixed binary protocol
//!   (`query` / `batch` / `route` / `update` / `stats` / `shutdown` /
//!   `label-fetch` / `edge-sets` / `point-fetch`),
//!   little-endian, distances on the wire as raw `u32` with
//!   `u32::MAX` = unreachable so answers round-trip bit-identically.
//!   Every decode path is bounds-checked and panic-free on arbitrary
//!   bytes; violations come back as typed [`protocol::ErrorReply`]
//!   frames.
//! - the connection plane (private; DESIGN.md §4.5) — the one
//!   readiness-driven event loop and worker pool. Both fronts below are
//!   handlers on it and share its buffers, backpressure, slow-loris
//!   deadline and graceful drain.
//! - [`server`] — [`server::Server`]: hands every *complete* frame to a
//!   worker, each worker reusing one [`fsdl_labels::DecodeScratch`] so
//!   the zero-allocation decode fast path survives the network hop.
//!   Serves a static [`fsdl_routing::Network`], a durable
//!   [`fsdl_labels::DynamicOracle`] (draining any background rebuild on
//!   shutdown), or one shard of a partitioned label store.
//! - [`router`] — [`router::Router`]: the same front over a shard fleet:
//!   holds the level edge sets it fetched at bind, scatters `point-fetch`
//!   frames to the shards owning a query's `2 + |F|` labels, gathers, and
//!   derives the labels on its workers — bit-identical to the
//!   single-process server.
//! - [`client`] — [`client::Client`]: a blocking connection with typed
//!   helpers, used by the CLI, the load generator, and the tests.
//!
//! ```no_run
//! use fsdl_server::{Client, Endpoint, ServeEngine, Server, ServerConfig};
//! use fsdl_routing::Network;
//!
//! let g = fsdl_graph::generators::grid2d(8, 8);
//! let oracle = fsdl_labels::ForbiddenSetOracle::new(&g, 0.5);
//! let server = Server::bind(
//!     &Endpoint::Tcp("127.0.0.1:0".into()),
//!     ServeEngine::from_network(Network::from_oracle(oracle)),
//!     ServerConfig::default(),
//! )?;
//! let endpoint = server.local_endpoint()?;
//! let handle = std::thread::spawn(move || server.run());
//! let mut client = Client::connect(&endpoint)?;
//! let reply = client.query(0, 63, fsdl_server::WireFaults::default())?;
//! println!("distance {}", reply.distance);
//! client.shutdown()?;
//! let report = handle.join().unwrap();
//! assert_eq!(report.protocol_errors, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod plane;
pub mod protocol;
pub mod router;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    BatchItem, EdgeSetsReply, ErrorCode, ErrorReply, FrameAssembler, FrameStep, LabelBytes,
    LabelFetchReply, PointFetchReply, PointRecord, QueryReply, Request, Response, RouteReply,
    StatsReply, UpdateOp, WireError, WireFaults, WriteBuffer, MAX_BATCH, MAX_FRAME,
    MAX_LABEL_FETCH,
};
pub use router::{Router, RouterConfig, RouterError, RouterReport};
pub use server::{Endpoint, ServeEngine, ServeReport, Server, ServerConfig, ShutdownHandle};
