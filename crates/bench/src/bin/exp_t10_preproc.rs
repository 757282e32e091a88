//! Experiment T10 — preprocessing cost ("all labels can be computed in
//! polynomial time").
//!
//! Tables the wall-clock cost of the preprocessing phases as `n` grows:
//! the net hierarchy (`Labeling::build`, parallelized over levels); the
//! first label of a fresh labeling, which also enumerates every level's
//! edge set once; a later label (the mean of seven more), which is one
//! ball BFS per level plus locating its points in those edge sets; and,
//! for `n ≤ 4096`, every label of another fresh labeling
//! built on one thread (`materialize_all_workers(1)`) — measured, not
//! `n ×` a label, because the first label pays for the rest. Expected
//! shape: every phase grows near-linearly in `n · polylog` on paths and
//! meshes — the polynomial claim, made concrete.

use std::time::Instant;

use fsdl_bench::tables::{f1, Table};
use fsdl_graph::{generators, Graph, NodeId};
use fsdl_labels::{Labeling, SchemeParams};

/// Labels timed per workload: the first, then the later ones.
const SAMPLES: usize = 8;

/// Largest `n` whose whole labeling is built.
const FULL_BUILD_MAX_N: usize = 4096;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn build(g: &Graph) -> Labeling {
    Labeling::build(g, SchemeParams::new(1.0, g.num_vertices()))
}

/// Milliseconds to materialize each of `SAMPLES` evenly spaced labels, in
/// order, starting from a fresh labeling.
fn label_ms(labeling: &Labeling) -> Vec<f64> {
    let n = labeling.graph().num_vertices();
    (0..SAMPLES.min(n))
        .map(|k| {
            let start = Instant::now();
            let _ = labeling.label_of(NodeId::from_index(k * n / SAMPLES.min(n)));
            ms_since(start)
        })
        .collect()
}

fn main() {
    println!("Experiment T10: preprocessing cost (eps = 1)\n");

    let mut table = Table::new(
        "hierarchy, first label (with the level edge sets), next label, all labels vs n",
        &[
            "family",
            "n",
            "hierarchy ms",
            "first label ms",
            "next label ms",
            "all labels s",
        ],
    );
    let workloads: Vec<(String, Graph)> = vec![
        ("path".into(), generators::path(1024)),
        ("path".into(), generators::path(4096)),
        ("path".into(), generators::path(16384)),
        ("ladder".into(), generators::ladder(1024)),
        ("grid2d".into(), generators::grid2d(16, 16)),
        ("grid2d".into(), generators::grid2d(32, 32)),
        ("udg".into(), generators::random_geometric(1000, 0.055, 1)),
    ];
    for (name, g) in workloads {
        let n = g.num_vertices();
        let start = Instant::now();
        let labeling = build(&g);
        let hierarchy_ms = ms_since(start);
        let labels = label_ms(&labeling);
        let next_ms = labels[1..].iter().sum::<f64>() / (labels.len() - 1).max(1) as f64;
        let all_s = if n <= FULL_BUILD_MAX_N {
            let fresh = build(&g);
            let start = Instant::now();
            let _ = fresh.materialize_all_workers(1);
            format!("{:.2}", ms_since(start) / 1e3)
        } else {
            "-".into()
        };
        table.row(&[
            name,
            n.to_string(),
            f1(hierarchy_ms),
            f1(labels[0]),
            f1(next_ms),
            all_s,
        ]);
    }
    table.print();
    println!("Expected shape: near-linear growth in n (times polylog) for every phase;");
    println!("the first label carries the level edge sets, so it is not a typical label.");
}
