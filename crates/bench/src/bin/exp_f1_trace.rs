//! Experiment F1 — reproduces the paper's Figure 1 as a query trace.
//!
//! Figure 1 illustrates the existence proof of Lemma 2.4: the sketch path
//! from `s` to `t` hops between net points `M̂_j`, and the hop length
//! `2^{i(v_j)}` rises as the walk gets farther from the fault set and falls
//! again near the destination side. This binary runs one query on a long
//! cycle (the figure's 1-D setting) with a fault cluster near `s` and
//! prints, for every hop of the decoder's witness path: the admitted level,
//! the edge kind (real inside the protected region, virtual outside), the
//! hop weight, and the hop's true distance to the fault set — making the
//! level rise/fall of the figure visible.

use fsdl_graph::{bfs, generators, Edge, FaultSet, NodeId};
use fsdl_labels::{build_sketch, ForbiddenSetOracle};

fn main() {
    println!("Experiment F1: sketch-path trace (paper Figure 1)\n");

    let n = 768usize;
    let g = generators::cycle(n);
    let oracle = ForbiddenSetOracle::new(&g, 2.0);

    // Fault cluster a few hops behind s; t far ahead.
    let mut faults = FaultSet::empty();
    for f in [0u32, 1, 766, 767] {
        faults.forbid_vertex(NodeId::new(f));
    }
    let s = NodeId::new(4);
    let t = NodeId::new(330);

    let answer = oracle.query(s, t, &faults);
    let truth = bfs::pair_distance_avoiding(&g, s, t, &faults);
    println!(
        "query: s = {s}, t = {t}, |F| = {}; exact d_(G\\F) = {}, decoder = {} (stretch {:.3})",
        faults.len(),
        truth,
        answer.distance,
        f64::from(answer.distance.finite().unwrap()) / f64::from(truth.finite().unwrap())
    );

    // Rebuild the sketch to read edge provenance for the witness path.
    let (source, target, ql) = oracle.resolve(s, t, &faults).expect("well-formed query");
    let sketch = build_sketch(oracle.params(), source, target, &ql);
    println!(
        "sketch graph: {} vertices, {} edges; scheme c = {}\n",
        sketch.graph.num_vertices(),
        sketch.graph.num_edges(),
        oracle.params().c()
    );

    let dist_to_f = |v: NodeId| -> u32 {
        faults
            .vertices()
            .map(|f| {
                bfs::pair_distance_avoiding(&g, v, f, &FaultSet::empty())
                    .finite()
                    .unwrap_or(u32::MAX)
            })
            .min()
            .unwrap_or(u32::MAX)
    };

    println!("witness path ({} waypoints):", answer.path.len());
    println!(
        "{:<12} {:>6} {:>7} {:>8} {:>9}",
        "hop", "level", "weight", "kind", "d(.,F)"
    );
    let mut max_level = 0u32;
    for pair in answer.path.windows(2) {
        let info = sketch
            .edge_info
            .get(&Edge::new(pair[0], pair[1]))
            .expect("path edge has provenance");
        max_level = max_level.max(if info.real { 0 } else { info.level });
        println!(
            "{:<12} {:>6} {:>7} {:>8} {:>9}",
            format!("{}->{}", pair[0], pair[1]),
            info.level,
            info.weight,
            if info.real { "real" } else { "virtual" },
            dist_to_f(pair[0])
        );
    }
    println!("\nExpected shape (Fig. 1): short/real hops near the fault cluster, virtual hops");
    println!("whose level (and weight) grows with d(., F), then shrinks approaching t.");
    assert!(
        max_level > oracle.params().c() + 1,
        "trace should climb above the lowest level"
    );
}
