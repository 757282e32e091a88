//! Experiment T14 — single-query decode latency: the lazy search against
//! the reference that materializes the sketch graph, and BFS beside both.
//!
//! Three answerers get the same `(s, t, F)` workloads, with `|F| ∈
//! {0, 1, 4, 16}` on the standard families:
//!
//! * **reference** — `decode::query_reference`: builds all of `H` (fresh hash
//!   maps and a fresh `SketchGraph` per query), then Dijkstra;
//! * **lazy** — `query_with_scratch` with one long-lived
//!   [`DecodeScratch`] per thread, the serving configuration: a
//!   goal-directed search over the label levels that lists the edges of
//!   `H` at a vertex only when it expands it;
//! * **bfs** — `ExactOracle`: plain BFS on `G ∖ F`, the naive comparator
//!   that needs the whole graph where the other two need `2 + |F|`
//!   labels.
//!
//! Before any timing is trusted, every lazy answer is checked against
//! the reference: equal distance, and a path that is a walk in the
//! reference `H` whose weights sum to it. The acceptance bars — enforced
//! even under `--quick` so CI trips on a regression — are on `grid2d`:
//! lazy at least 5x the reference at the median for `|F| = 0`, and at
//! least 1.5x for `|F| = 4`.
//!
//! Results are printed as tables and written to
//! `BENCH_query_latency.json` (`--out PATH` redirects).

use std::fmt::Write as _;
use std::time::Instant;

use fsdl_baselines::ExactOracle;
use fsdl_bench::tables::{f1, Table};
use fsdl_graph::{generators, Edge, FaultSet, Graph, NodeId};
use fsdl_labels::{
    build_sketch, query_reference, query_with_scratch, DecodeScratch, ForbiddenSetOracle, Label,
    QueryLabels,
};
use fsdl_testkit::Rng;

const FAULT_SIZES: [usize; 4] = [0, 1, 4, 16];

/// One pre-materialized query: endpoint labels plus fault-vertex labels
/// as the oracle resolves them, and the same fault set in the form BFS
/// takes.
struct PreparedQuery<'a> {
    source: &'a Label,
    target: &'a Label,
    labels: QueryLabels<'a>,
    fault_set: FaultSet,
}

/// Latency distribution of one answerer on one workload.
struct PathStats {
    p50_ns: u64,
    p99_ns: u64,
    total_ns: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn stats_of(mut samples: Vec<u64>) -> PathStats {
    let total_ns = samples.iter().sum();
    samples.sort_unstable();
    PathStats {
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        total_ns,
    }
}

/// Times `decode(q)` for every query, returning per-query nanoseconds and
/// the answers (for the agreement check).
fn run_path<A, F: FnMut(&PreparedQuery<'_>) -> A>(
    queries: &[PreparedQuery<'_>],
    mut decode: F,
) -> (Vec<u64>, Vec<A>) {
    let mut ns = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let start = Instant::now();
        let a = decode(q);
        ns.push(start.elapsed().as_nanos() as u64);
        answers.push(a);
    }
    (ns, answers)
}

struct Measurement {
    family: String,
    n: usize,
    f: usize,
    queries: usize,
    reference: PathStats,
    lazy: PathStats,
    bfs: PathStats,
}

impl Measurement {
    /// Median speedup of the lazy search over the materializing
    /// reference.
    fn lazy_speedup(&self) -> f64 {
        self.reference.p50_ns as f64 / (self.lazy.p50_ns as f64).max(1.0)
    }

    /// How many BFS runs one lazy query costs at the median.
    fn lazy_vs_bfs(&self) -> f64 {
        self.lazy.p50_ns as f64 / (self.bfs.p50_ns as f64).max(1.0)
    }
}

/// Draws `count` queries with exactly `f` distinct fault vertices, none
/// equal to `s` or `t`, and materializes every label up front so timing
/// sees only decode work.
fn prepare(
    oracle: &ForbiddenSetOracle,
    n: usize,
    f: usize,
    count: usize,
    seed: u64,
) -> Vec<PreparedQuery<'_>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let s = NodeId::from_index(rng.gen_range(0..n));
            let t = NodeId::from_index(rng.gen_range(0..n));
            let mut owners: Vec<NodeId> = Vec::with_capacity(f);
            while owners.len() < f {
                let v = NodeId::from_index(rng.gen_range(0..n));
                if v != s && v != t && !owners.contains(&v) {
                    owners.push(v);
                }
            }
            let fault_set = FaultSet::from_vertices(owners);
            let (source, target, labels) =
                oracle.resolve(s, t, &fault_set).expect("in-range query");
            PreparedQuery {
                source,
                target,
                labels,
                fault_set,
            }
        })
        .collect()
}

fn measure(
    family: &str,
    oracle: &ForbiddenSetOracle,
    exact: &ExactOracle,
    n: usize,
    f: usize,
    count: usize,
) -> Measurement {
    let queries = prepare(oracle, n, f, count, 0x714 + f as u64);
    let params = oracle.params();

    // Warm-up pass (untimed): faults the labels into cache for the timed
    // passes and grows the reused scratch to working-set size.
    let mut scratch = DecodeScratch::new();
    for q in &queries {
        query_with_scratch(params, q.source, q.target, &q.labels, &mut scratch);
    }

    let (reference_ns, reference) = run_path(&queries, |q| {
        query_reference(params, q.source, q.target, &q.labels)
    });
    let (lazy_ns, lazy) = run_path(&queries, |q| {
        query_with_scratch(params, q.source, q.target, &q.labels, &mut scratch)
    });
    let (bfs_ns, truth) = run_path(&queries, |q| {
        exact.distance(q.source.owner, q.target.owner, &q.fault_set)
    });

    for (((q, reference), lazy), truth) in queries.iter().zip(&reference).zip(&lazy).zip(&truth) {
        let ctx = format!("{family} |F|={f} {}->{}", q.source.owner, q.target.owner);
        assert_eq!(lazy.distance, reference.distance, "{ctx}: distance");
        assert!(lazy.distance >= *truth, "{ctx}: below the true distance");
        // The witness is a walk in the reference H of that length.
        let h = build_sketch(params, q.source, q.target, &q.labels);
        let length: u64 = lazy
            .path
            .windows(2)
            .map(|w| {
                h.edge_info
                    .get(&Edge::new(w[0], w[1]))
                    .unwrap_or_else(|| panic!("{ctx}: hop {}-{} is not an edge of H", w[0], w[1]))
                    .weight
            })
            .sum();
        match lazy.distance.finite() {
            Some(d) => assert_eq!(length, u64::from(d), "{ctx}: path length"),
            None => assert!(lazy.path.is_empty(), "{ctx}: path to nowhere"),
        }
    }

    Measurement {
        family: family.to_string(),
        n,
        f,
        queries: queries.len(),
        reference: stats_of(reference_ns),
        lazy: stats_of(lazy_ns),
        bfs: stats_of(bfs_ns),
    }
}

fn json_artifact(results: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"t14_query_latency\",\n  \"rows\": [\n");
    for (k, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"n\": {}, \"f\": {}, \"queries\": {}, \
             \"reference_p50_ns\": {}, \"reference_p99_ns\": {}, \
             \"lazy_p50_ns\": {}, \"lazy_p99_ns\": {}, \
             \"bfs_p50_ns\": {}, \"bfs_p99_ns\": {}, \
             \"lazy_speedup_p50\": {:.3}, \"lazy_vs_bfs_p50\": {:.3}}}{}",
            r.family,
            r.n,
            r.f,
            r.queries,
            r.reference.p50_ns,
            r.reference.p99_ns,
            r.lazy.p50_ns,
            r.lazy.p99_ns,
            r.bfs.p50_ns,
            r.bfs.p99_ns,
            r.lazy_speedup(),
            r.lazy_vs_bfs(),
            if k + 1 < results.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_query_latency.json")
        .to_string();

    println!(
        "Experiment T14: single-query decode latency, lazy search vs materialized reference vs BFS (eps = 1)\n"
    );

    // The ladder is the local regime: its diameter is far past the
    // low-level ball radii, so labels do not hold the whole graph.
    let (scale, count) = if quick { (1, 48) } else { (2, 192) };
    let families: Vec<(&str, Graph)> = vec![
        ("path", generators::path(1024 * scale)),
        ("grid2d", generators::grid2d(16 * scale, 16 * scale)),
        ("ladder", generators::grid2d(2, 256 * scale)),
        (
            "udg",
            generators::random_geometric(250 * scale, 0.11 / (scale as f64).sqrt(), 1),
        ),
    ];

    let mut results = Vec::new();
    for (family, g) in &families {
        let n = g.num_vertices();
        let oracle = ForbiddenSetOracle::new(g, 1.0);
        oracle.prewarm_workers(0);
        let exact = ExactOracle::new(g);
        for f in FAULT_SIZES {
            results.push(measure(family, &oracle, &exact, n, f, count));
        }
    }

    let mut table = Table::new(
        "decode latency (ns/query): materialized reference vs lazy search vs BFS on G \\ F",
        &[
            "family",
            "n",
            "|F|",
            "reference p50",
            "reference p99",
            "lazy p50",
            "lazy p99",
            "speedup",
            "bfs p50",
            "lazy/bfs",
        ],
    );
    for r in &results {
        table.row(&[
            r.family.clone(),
            r.n.to_string(),
            r.f.to_string(),
            r.reference.p50_ns.to_string(),
            r.reference.p99_ns.to_string(),
            r.lazy.p50_ns.to_string(),
            r.lazy.p99_ns.to_string(),
            format!("{:.2}x", r.lazy_speedup()),
            r.bfs.p50_ns.to_string(),
            format!("{:.1}", r.lazy_vs_bfs()),
        ]);
    }
    table.print();

    let mut table = Table::new(
        "total decode time (ms) over the whole workload",
        &["family", "|F|", "reference", "lazy", "bfs"],
    );
    for r in &results {
        table.row(&[
            r.family.clone(),
            r.f.to_string(),
            f1(r.reference.total_ns as f64 / 1e6),
            f1(r.lazy.total_ns as f64 / 1e6),
            f1(r.bfs.total_ns as f64 / 1e6),
        ]);
    }
    table.print();

    let artifact = json_artifact(&results);
    std::fs::write(&out_path, &artifact).expect("write BENCH_query_latency.json");
    println!("wrote {out_path}");
    println!("\nExpected shape: equal distances and a witness walk in the reference H (asserted);");
    println!("without faults the search walks almost straight to t, so the gap to the");
    println!("reference is widest at |F| = 0 and narrows as |F| grows, where most of the");
    println!("time goes into arcs the protected balls reject. BFS on these graph sizes is");
    println!("still far cheaper than either: the labels buy locality, not speed.");

    // Acceptance bars — enforced in quick mode too, so the CI smoke run
    // trips on a regression of the search.
    for (f, bar) in [(0usize, 5.0), (4, 1.5)] {
        let worst = results
            .iter()
            .filter(|r| r.family == "grid2d" && r.f == f)
            .map(Measurement::lazy_speedup)
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst >= bar,
            "lazy median speedup {worst:.2}x on grid2d at |F|={f} is below the {bar}x bar"
        );
        println!("acceptance: grid2d |F|={f} lazy speedup {worst:.2}x >= {bar}x");
    }
    let losing: Vec<String> = results
        .iter()
        .filter(|r| r.lazy_speedup() < 1.0)
        .map(|r| format!("{} |F|={} ({:.2}x)", r.family, r.f, r.lazy_speedup()))
        .collect();
    if !losing.is_empty() {
        println!("cells where the reference wins: {}", losing.join(", "));
    }
}
