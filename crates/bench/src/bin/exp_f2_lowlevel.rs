//! Experiment F2 — reproduces the paper's Figure 2 as a query trace.
//!
//! Figure 2 illustrates the `ℓ = c`, `ℓ′ = c+1` case of Claim 2: very close
//! to a fault the sketch path must walk real weight-1 edges of `G`, then
//! climbs to the level-`(c+1)` net point `M̂` once the clearance radius
//! `μ_{c+1}` is regained. This binary forces a query *through* the
//! immediate neighbourhood of a fault and prints the real-edge prefix and
//! the first virtual climb.

use fsdl_graph::{bfs, generators, FaultSet, NodeId};
use fsdl_labels::{trace_query, ForbiddenSetOracle};

fn main() {
    println!("Experiment F2: low-level case trace (paper Figure 2)\n");

    // A long cycle with one fault; s and t sit just next to the fault so the
    // route starts inside the fault's protected region.
    let n = 96usize;
    let g = generators::cycle(n);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let fault = NodeId::new(0);
    let faults = FaultSet::from_vertices([fault]);
    let s = NodeId::new(1); // adjacent to the fault
    let t = NodeId::new(n as u32 / 2);

    let (source, target, ql) = oracle.resolve(s, t, &faults).expect("well-formed query");
    let trace = trace_query(oracle.params(), source, target, &ql);
    let truth = bfs::pair_distance_avoiding(&g, s, t, &faults);
    println!(
        "query: s = {s} (adjacent to fault {fault}), t = {t}; exact = {truth}, decoder = {}",
        trace.distance
    );

    let c = oracle.params().c();
    println!("scheme c = {c}; lowest level = {}\n", c + 1);
    println!("{:<12} {:>6} {:>7} {:>8}", "hop", "level", "weight", "kind");
    for h in &trace.hops {
        println!(
            "{:<12} {:>6} {:>7} {:>8}",
            format!("{}->{}", h.from, h.to),
            h.level,
            h.weight,
            if h.real { "real" } else { "virtual" }
        );
    }
    let real_prefix = trace.real_prefix_len();
    println!(
        "\nreal-edge prefix length: {real_prefix} (the Fig. 2 walk out of the protected region)"
    );
    println!("Expected shape: weight-1 real edges while d(., F) <= mu, then virtual climbs.");
    assert!(
        real_prefix > 0,
        "a query starting adjacent to a fault must begin with real edges"
    );
}
