//! # fsdl-graph — graph substrate for forbidden-set distance labeling
//!
//! This crate is the shared substrate of the `fsdl` workspace, which
//! reproduces *Forbidden-set distance labels for graphs of bounded doubling
//! dimension* (Abraham, Chechik, Gavoille, Peleg; PODC 2010 / TALG 2016).
//!
//! It provides:
//!
//! * an immutable CSR [`Graph`] for undirected unweighted graphs, with
//!   stable *ports* for the routing scheme ([`Graph::port_of`]);
//! * BFS primitives in [`bfs`]: exact distances, truncated balls `B(v, r)`
//!   with reusable scratch, multi-source searches, and ground-truth
//!   `d_{G∖F}` queries avoiding a [`FaultSet`];
//! * the weighted [`SketchGraph`] with Dijkstra — the label decoder's
//!   reference `H` — and the [`Interner`] it shares with the decoder's
//!   lazy search;
//! * workload [`generators`] for every family in the evaluation (grids
//!   `G_{p,d}` and `H_{p,d}` from the paper's lower bound, unit-disk graphs,
//!   trees, contrast families);
//! * an empirical [doubling-dimension estimator](doubling) used to audit the
//!   workloads;
//! * text [`io`] for workload snapshots.
//!
//! ## Example
//!
//! ```
//! use fsdl_graph::{generators, bfs, FaultSet, NodeId};
//!
//! let g = generators::grid2d(8, 8);
//! let faults = FaultSet::from_vertices([NodeId::new(9)]);
//! let d = bfs::pair_distance_avoiding(&g, NodeId::new(0), NodeId::new(63), &faults);
//! assert_eq!(d.finite(), Some(14));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod connectivity;
mod csr;
pub mod cut;
pub mod doubling;
mod error;
mod faults;
pub mod generators;
mod ids;
mod intern;
pub mod io;
pub mod render;
mod sketch;
mod stats;
pub mod subgraph;

pub use connectivity::UnionFind;
pub use csr::{Graph, GraphBuilder};
pub use error::GraphError;
pub use faults::FaultSet;
pub use ids::{Dist, Edge, NodeId};
pub use intern::Interner;
pub use sketch::SketchGraph;
pub use stats::GraphStats;
