//! Code shared by the integration suites of `fsdl-labels`. Each suite
//! declares `mod common;` and uses only part of it, so unused items are
//! expected in any one test binary.
#![allow(dead_code)]

pub mod corrupt;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fsdl_graph::{Graph, GraphBuilder};
use fsdl_testkit::Rng;

/// A fresh, empty directory under the system temp dir, unique to this
/// process and call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fsdl-labels-{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random connected graph on `3..max_n` vertices: a random spanning
/// tree plus fewer than `max_extra` extra edges.
pub fn random_connected_graph(rng: &mut Rng, max_n: usize, max_extra: usize) -> Graph {
    let n = rng.gen_range(3..max_n);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        b.add_edge(p as u32, i as u32).expect("in range");
    }
    for _ in 0..rng.gen_range(0..max_extra) {
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if a != c {
            b.add_edge(a, c).expect("in range");
        }
    }
    b.build()
}
