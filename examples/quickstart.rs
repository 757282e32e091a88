//! Quickstart: build forbidden-set distance labels for a small network and
//! answer queries under failures.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fsdl::graph::{generators, FaultSet, NodeId};
use fsdl::labels::ForbiddenSetOracle;

fn main() {
    // 1. A network: the 8x8 mesh (doubling dimension ~ 2).
    let g = generators::grid2d(8, 8);
    println!(
        "network: 8x8 mesh, {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // 2. Preprocess once: (1+eps)-approximate forbidden-set labels.
    let eps = 1.0;
    let oracle = ForbiddenSetOracle::new(&g, eps);
    println!(
        "labels built with eps = {eps} (c = {}, {} levels)",
        oracle.params().c(),
        oracle.params().num_levels()
    );

    // 3. A label is a self-contained, bit-encodable artifact.
    let v = NodeId::new(27);
    let label = oracle.label(v);
    let bits = fsdl::labels::codec::encoded_bits(&label, g.num_vertices());
    println!(
        "label of {v}: {} points, {} virtual edges, {} bits encoded",
        label.stats().points,
        label.stats().virtual_edges,
        bits
    );

    // 4. Queries under failures: only the labels of s, t and F are used.
    let s = NodeId::new(0); // top-left corner
    let t = NodeId::new(63); // bottom-right corner
    println!(
        "\nfailure-free distance {s} -> {t}: {}",
        oracle.distance(s, t, &FaultSet::empty())
    );

    let mut faults = FaultSet::empty();
    for f in [9u32, 18, 27, 36, 45, 54] {
        faults.forbid_vertex(NodeId::new(f)); // a diagonal wall of failures
    }
    let answer = oracle.query(s, t, &faults);
    println!(
        "with {} failed routers: distance = {} (search reached {} sketch vertices, relaxed {} edges)",
        faults.len(),
        answer.distance,
        answer.sketch_vertices,
        answer.sketch_edges
    );
    println!(
        "witness path: {}",
        answer
            .path
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // A picture is worth a thousand hops.
    println!("\nmap (S source, T target, X failed, * witness path):");
    print!(
        "{}",
        fsdl::graph::render::render_scenario(8, 8, s, t, &faults, &answer.path)
    );

    // 5. Connectivity queries come for free.
    let mut wall = FaultSet::empty();
    for y in 0..8u32 {
        wall.forbid_vertex(NodeId::new(y * 8 + 4)); // a full cut
    }
    println!(
        "\nfull column failed: connected({s}, {t}) = {}",
        oracle.connected(s, t, &wall)
    );
}
