//! # fsdl-labels — forbidden-set `(1+ε)` distance labels for doubling graphs
//!
//! The core contribution of *Forbidden-set distance labels for graphs of
//! bounded doubling dimension* (Abraham, Chechik, Gavoille, Peleg; PODC 2010
//! / TALG 2016), Theorem 2.1: every unweighted `n`-vertex graph of doubling
//! dimension `α` admits per-vertex labels of `O(1+ε⁻¹)^{2α} log² n` bits
//! such that, given the labels of `s`, `t` and of a forbidden set `F` of
//! vertices and/or edges, a decoder computes a `(1+ε)`-approximation of
//! `d_{G∖F}(s, t)` in `O(1+ε⁻¹)^{2α}·|F|² log n` time — with labels that do
//! not depend on `F` or its size.
//!
//! ## Layout
//!
//! * [`SchemeParams`] — the parameter schedule `(c, ρᵢ, λᵢ, μᵢ, rᵢ)` with
//!   the documented (and invariant-checked) deviation `μᵢ = λᵢ + 3ρᵢ` that
//!   makes the protected-ball test computable from labels alone;
//! * [`Labeling`] — the marker: preprocessing plus on-demand label
//!   materialization;
//! * [`Label`] — the per-vertex artifact, with a canonical bit encoding in
//!   [`codec`] so label *length in bits* is measured honestly;
//! * [`EdgeSets`] — a generation's per-level edge sets, which together
//!   with a vertex's point lists (a [`edge_sets::points_record`]) derive
//!   its label: what stores keep and shards serve;
//! * [`decode`] — the pure decoder: a goal-directed search over the label
//!   levels with protected-ball certificates per edge, touching nothing
//!   but labels (plus the materialize-`H`-then-Dijkstra reference it is
//!   tested against);
//! * [`ForbiddenSetOracle`] — the centralized `n ×` label table byproduct;
//! * [`DynamicOracle`] — the fully-dynamic oracle byproduct (buffered
//!   deletions, `√n` rebuild policy, optional background rebuilds);
//! * [`store`] — the on-disk label store: checksummed segment files plus
//!   an atomically swapped manifest, so oracles warm-start from disk and
//!   a crash mid-write can never be observed as a torn store;
//! * [`wal`] — the checksummed write-ahead log that makes dynamic updates
//!   durable between store generations, with [`crash`] naming the
//!   injectable crash points of the commit protocol;
//! * [`failure_free`] — the simpler Section 2.1 overview scheme, used as a
//!   baseline and a special case;
//! * [`WeightedOracle`] — integer-weighted graphs via exact edge
//!   subdivision, extending the scheme beyond the paper's unweighted
//!   setting.
//!
//! ## Example
//!
//! ```
//! use fsdl_graph::{generators, FaultSet, NodeId};
//! use fsdl_labels::ForbiddenSetOracle;
//!
//! // A ring network; router v1 fails.
//! let g = generators::cycle(64);
//! let oracle = ForbiddenSetOracle::new(&g, 0.5);
//! let faults = FaultSet::from_vertices([NodeId::new(1)]);
//! let d = oracle.distance(NodeId::new(0), NodeId::new(4), &faults);
//! let exact = 60; // the long way around
//! assert!(d.finite().unwrap() >= exact);
//! assert!(f64::from(d.finite().unwrap()) <= 1.5 * f64::from(exact));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod builder;
pub mod codec;
pub mod corrupt;
pub mod crash;
pub mod decode;
mod dynamic;
pub mod edge_sets;
pub mod failure_free;
mod label;
mod oracle;
mod params;
pub mod partition;
mod search;
pub mod store;
mod trace;
pub mod wal;
mod weighted;

pub use builder::{BuildError, LabelScratch, Labeling, LabelingOptions, LevelReport};
pub use decode::{
    build_sketch, query, query_many, query_many_reference, query_many_with_scratch,
    query_reference, query_with_scratch, DecodeScratch, EdgeProvenance, QueryAnswer, QueryLabels,
    Sketch,
};
pub use dynamic::{DynamicConfig, DynamicError, DynamicOracle, DynamicStats, RebuildMode};
pub use edge_sets::EdgeSets;
pub use failure_free::{query_failure_free, FailureFreeLabel, FailureFreeLabeling};
pub use label::{Label, LabelInvalid, LabelPoint, LabelStats, LevelLabel, RealEdge, VirtualEdge};
pub use oracle::{resolve, ForbiddenSetOracle, LabelPlaneStats, OracleError};
pub use params::SchemeParams;
pub use partition::{
    write_shard_stores, PartitionError, PartitionPlan, PartitionStrategy, ShardReport, ShardStore,
};
pub use store::{OpenMode, StoreError, StoreReport};
pub use trace::{trace_query, QueryTrace, TraceHop};
pub use wal::{ReplayReport, WalError, WalRecord};
pub use weighted::{WeightedFaults, WeightedOracle};
