//! The four workloads: names, inputs and why each exists. The names are
//! the ones `BENCHMARK.json` lists and later issues cite.

use fsdl_graph::{generators, Graph};

/// Label precision used by every workload.
pub const EPSILON: f64 = 1.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    RouteSharded,
    StoreCold,
    DynamicChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::RouteSharded,
        Workload::StoreCold,
        Workload::DynamicChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::RouteSharded => "route-sharded",
            Workload::StoreCold => "store-cold",
            Workload::DynamicChurn => "dynamic-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tag written into the op file header.
    pub fn id(self) -> u8 {
        self as u8
    }

    pub fn from_id(id: u8) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.id() == id)
    }

    /// The served graph. The grids put every label level in the
    /// *saturated* regime (each low-level ball covers the whole graph, as
    /// in every historical number); the 2×256 ladder's diameter (256)
    /// exceeds the low-level radii, so the levels that hold most of the
    /// bytes are genuinely local — the paper's regime.
    pub fn graph(self) -> Graph {
        match self {
            Workload::ServeHot => generators::grid2d(16, 16),
            Workload::RouteSharded => generators::grid2d(20, 20),
            Workload::StoreCold => generators::grid2d(2, 256),
            Workload::DynamicChurn => generators::grid2d(12, 12),
        }
    }

    /// Closed-loop connection count of the timed run (0 = no wire).
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeHot | Workload::RouteSharded => 2,
            Workload::StoreCold => 0,
            Workload::DynamicChurn => 1,
        }
    }

    /// Zipf skew of query endpoints.
    pub fn theta(self) -> f64 {
        match self {
            Workload::StoreCold => 0.0,
            _ => 0.8,
        }
    }
}

/// Shards behind the router in `route-sharded`.
pub const SHARDS: u32 = 2;
