//! `query`, `route`, `batch` and `trace`: answer `(s, t, F)` from a graph
//! file, or from a store with `--store`.

use std::io::Write;

use fsdl_baselines::ExactOracle;
use fsdl_graph::NodeId;
use fsdl_labels::ForbiddenSetOracle;
use fsdl_routing::Network;

use super::{faults_from, load_graph, malformed, parse_eps, require, write_out, Labels};
use crate::args::{parse_vertex_list, ArgError, ParsedArgs};

pub(super) fn query<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
    let repeat: usize = args.parse_option("repeat", 1usize)?;
    require(repeat >= 1, "--repeat must be at least 1")?;
    let exact = args.flag("exact");
    let labels = Labels::parse(args)?;
    args.finish()?;
    let oracle = labels.oracle(&g)?;
    let mut scratch = fsdl_labels::DecodeScratch::new();
    let start = std::time::Instant::now();
    let answer = oracle
        .try_query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch)
        .map_err(malformed)?;
    for _ in 1..repeat {
        let again = oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch);
        if again != answer {
            return Err(ArgError(
                "internal error: repeated decode diverged from first answer".into(),
            ));
        }
    }
    let elapsed = start.elapsed();
    let mut text = format!(
        "delta(v{s}, v{t}, |F|={}) = {} (search reached {} sketch vertices, relaxed {} edges)\n",
        faults.len(),
        answer.distance,
        answer.sketch_vertices,
        answer.sketch_edges
    );
    if repeat > 1 {
        text.push_str(&format!(
            "repeated {repeat}x (scratch reused, all answers identical): {} ns/query\n",
            elapsed.as_nanos() / repeat as u128
        ));
    }
    if !answer.path.is_empty() {
        text.push_str(&format!("witness: {}\n", path_text(&answer.path)));
    }
    if exact {
        let exact = ExactOracle::new(&g).distance(NodeId::new(s), NodeId::new(t), &faults);
        text.push_str(&format!("exact:   {exact}\n"));
    }
    write_out(out, &text)
}

pub(super) fn route<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
    let labels = Labels::parse(args)?;
    args.finish()?;
    let net = Network::from_oracle(labels.oracle(&g)?);
    // `Network::route` is lenient; hold the request to the query rule first.
    net.oracle()
        .resolve(NodeId::new(s), NodeId::new(t), &faults)
        .map_err(malformed)?;
    match net.route(NodeId::new(s), NodeId::new(t), &faults) {
        Ok(d) => {
            let text = format!(
                "delivered in {} hops ({} header waypoints, {} header bits)\npath: {}\n",
                d.hops,
                d.header.len(),
                d.header_bits,
                path_text(&d.path)
            );
            write_out(out, &text)
        }
        Err(e) => write_out(out, &format!("not delivered: {e}\n")),
    }
}

pub(super) fn batch<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let targets: Vec<NodeId> = parse_vertex_list(args.required("targets")?)?
        .into_iter()
        .map(NodeId::new)
        .collect();
    let faults = faults_from(args, &g)?;
    let labels = Labels::parse(args)?;
    args.finish()?;
    let oracle = labels.oracle(&g)?;
    let distances = oracle
        .try_distances_to(NodeId::new(s), &targets, &faults)
        .map_err(malformed)?;
    let mut text = format!("batch from v{s} (|F| = {}):\n", faults.len());
    for (t, d) in targets.iter().zip(&distances) {
        text.push_str(&format!("  {t}: {d}\n"));
    }
    write_out(out, &text)
}

/// A vertex path as `v0 -> v1 -> ...`.
fn path_text(path: &[NodeId]) -> String {
    let hops: Vec<String> = path.iter().map(|v| v.to_string()).collect();
    hops.join(" -> ")
}

/// `trace` builds its labels with `--eps` and materializes the whole
/// sketch with the reference decoder; it takes no store.
pub(super) fn trace<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps = parse_eps(args)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
    args.finish()?;
    let oracle = ForbiddenSetOracle::new(&g, eps);
    let (source, target, ql) = oracle
        .resolve(NodeId::new(s), NodeId::new(t), &faults)
        .map_err(malformed)?;
    let trace = fsdl_labels::trace_query(oracle.params(), source, target, &ql);
    let mut text = format!(
        "delta(v{s}, v{t}, |F|={}) = {} (whole sketch: {} vertices, {} edges)\n",
        faults.len(),
        trace.distance,
        trace.sketch_size.0,
        trace.sketch_size.1
    );
    for h in &trace.hops {
        text.push_str(&format!(
            "  {} -> {}  level {}  weight {}  {}\n",
            h.from,
            h.to,
            h.level,
            h.weight,
            if h.real { "real" } else { "virtual" }
        ));
    }
    write_out(out, &text)
}
