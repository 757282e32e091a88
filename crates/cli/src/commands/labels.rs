//! `label`, `build` and `audit`: make the labels of a graph, persist them,
//! and check the scheme's invariants on them.

use std::io::Write;

use fsdl_graph::NodeId;
use fsdl_labels::ForbiddenSetOracle;

use super::{load_graph, malformed, parse_eps, require, write_out};
use crate::args::{ArgError, ParsedArgs};

pub(super) fn label<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps = parse_eps(args)?;
    let vertex: Option<u32> = args.parse_opt("vertex")?;
    let threads: Option<usize> = args.parse_opt("threads")?;
    let sample: Option<usize> = args.parse_opt("sample")?;
    let given = [vertex.is_some(), threads.is_some(), sample.is_some()];
    require(
        given.iter().filter(|&&g| g).count() <= 1,
        "--vertex, --sample and --threads are alternatives; give one",
    )?;
    args.finish()?;
    let oracle = ForbiddenSetOracle::new(&g, eps);
    let n = g.num_vertices();
    let mut text = format!(
        "scheme: eps = {eps}, c = {}, levels {}..={}\n",
        oracle.params().c(),
        oracle.params().c() + 1,
        oracle.params().top_level()
    );
    if let Some(v) = vertex {
        fsdl_labels::resolve::check_vertex(n, NodeId::new(v)).map_err(malformed)?;
        let label = oracle.label(NodeId::new(v));
        let stats = label.stats();
        let bits = fsdl_labels::codec::encoded_bits(&label, n);
        text.push_str(&format!(
            "label of v{v}: {} levels, {} points, {} virtual edges, {} real edges, {} bits\n",
            stats.levels, stats.points, stats.virtual_edges, stats.real_edges, bits
        ));
        for (i, level) in label.levels_iter() {
            text.push_str(&format!(
                "  level {i}: {} points, {} virtual, {} real\n",
                level.points.len(),
                level.num_virtual_edges(),
                level.num_real_edges()
            ));
        }
    } else if let Some(threads) = threads {
        let workers = fsdl_nets::parallel::resolve_workers(threads, n);
        let start = std::time::Instant::now();
        oracle.prewarm_workers(workers);
        let elapsed = start.elapsed().as_secs_f64();
        let total_bits = oracle.total_bits();
        text.push_str(&format!(
            "materialized all {n} labels with {workers} workers in {elapsed:.2}s: \
             {total_bits} bits total, mean {} bits, {} KiB oracle\n",
            total_bits / n as u64,
            total_bits / 8192
        ));
    } else {
        let sample = sample.unwrap_or(8).clamp(1, n);
        let stride = (n / sample).max(1);
        let mut total = 0usize;
        let mut max = 0usize;
        let mut count = 0usize;
        let mut v = 0usize;
        while v < n {
            let bits = oracle.labeling().label_bits(NodeId::from_index(v));
            total += bits;
            max = max.max(bits);
            count += 1;
            v += stride;
        }
        text.push_str(&format!(
            "sampled {count} labels: mean {} bits, max {max} bits, est. oracle {} KiB\n",
            total / count,
            (total / count) * n / 8192
        ));
    }
    write_out(out, &text)
}

pub(super) fn build<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps = parse_eps(args)?;
    let dir = args.required("store")?;
    let threads: usize = args.parse_option("threads", 0usize)?;
    args.finish()?;
    let workers = fsdl_nets::parallel::resolve_workers(threads, g.num_vertices());
    let oracle = ForbiddenSetOracle::new(&g, eps);
    let start = std::time::Instant::now();
    oracle.prewarm_workers(workers);
    let build_s = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let report = oracle
        .save(std::path::Path::new(dir))
        .map_err(|e| ArgError(format!("cannot save store to {dir}: {e}")))?;
    let save_s = start.elapsed().as_secs_f64();
    write_out(
        out,
        &format!(
            "built {} labels (eps = {eps}, {workers} workers) in {build_s:.2}s\n\
             saved generation {} to {dir}: {} bytes in {save_s:.2}s\n",
            report.labels, report.generation, report.segment_bytes
        ),
    )
}

pub(super) fn audit<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps = parse_eps(args)?;
    let sample: usize = args.parse_option("sample", 6usize)?;
    args.finish()?;
    let labeling =
        fsdl_labels::Labeling::try_build(&g, fsdl_labels::SchemeParams::new(eps, g.num_vertices()))
            .map_err(|e| ArgError(format!("cannot build labeling: {e}")))?;
    let report = fsdl_labels::audit::audit(&labeling, sample);
    let mut text = format!(
        "audited {} labels: {} points, {} virtual edges\n",
        report.vertices_checked, report.points_checked, report.edges_checked
    );
    let sizes = labeling.nets().level_sizes();
    text.push_str(&format!("net sizes |N_0..N_top|: {sizes:?}\n"));
    if report.passed() {
        text.push_str("PASS: all scheme invariants hold\n");
    } else {
        text.push_str("FAIL:\n");
        for v in &report.violations {
            text.push_str(&format!("  {v}\n"));
        }
        write_out(out, &text)?;
        return Err(ArgError("audit found violations".into()));
    }
    write_out(out, &text)
}
