//! `gen`, `stats` and `spanner`: make a graph file and describe one.

use std::fs;
use std::io::Write;

use fsdl_graph::doubling::{estimate_dimension, DoublingConfig};
use fsdl_graph::{generators, io as gio, GraphStats};
use fsdl_labels::DynamicOracle;

use super::dynamic::render_dynamic_stats;
use super::{load_graph, parse_eps, require, store_with_mode, write_out};
use crate::args::{ArgError, ParsedArgs};

pub(super) fn gen<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let family = args.positional(0, "family")?;
    let seed: u64 = args.parse_option("seed", 42u64)?;
    let path = args.option("out");
    let num = |k: usize, name: &str| -> Result<usize, ArgError> {
        args.positional(k, name)?
            .parse()
            .map_err(|_| ArgError(format!("invalid <{name}>")))
    };
    let real = |k: usize, name: &str| -> Result<f64, ArgError> {
        args.positional(k, name)?
            .parse()
            .map_err(|_| ArgError(format!("invalid <{name}>")))
    };
    // Every constraint a generator would assert on is checked here first,
    // so a bad parameter is a usage error (nonzero exit), never a panic.
    let g = match family {
        "path" => {
            let n = num(1, "N")?;
            require(n >= 1, "path needs at least one vertex")?;
            generators::path(n)
        }
        "cycle" => {
            let n = num(1, "N")?;
            require(n >= 3, "cycle needs at least three vertices")?;
            generators::cycle(n)
        }
        "grid" | "king" => {
            let (w, h) = (num(1, "W")?, num(2, "H")?);
            require(w >= 1 && h >= 1, "grid dimensions must be positive")?;
            if family == "grid" {
                generators::grid2d(w, h)
            } else {
                generators::king_grid(w, h)
            }
        }
        "grid3d" => {
            let (x, y, z) = (num(1, "X")?, num(2, "Y")?, num(3, "Z")?);
            require(
                x >= 1 && y >= 1 && z >= 1,
                "grid dimensions must be positive",
            )?;
            generators::grid3d(x, y, z)
        }
        "linf" | "halfgrid" => {
            let (p, d) = (num(1, "P")?, num(2, "D")?);
            require(p >= 2, "grid side P must be at least 2")?;
            require(d >= 1, "grid dimension D must be at least 1")?;
            let n = u32::try_from(d)
                .ok()
                .and_then(|d| p.checked_pow(d))
                .ok_or_else(|| ArgError(format!("{p}^{d} vertices overflows")))?;
            require(
                n <= 100_000_000,
                format!("{p}^{d} = {n} vertices is too large"),
            )?;
            if family == "linf" {
                generators::grid_linf(p, d)
            } else {
                generators::half_grid(p, d)
            }
        }
        "tree" => {
            let (arity, depth) = (num(1, "ARITY")?, num(2, "DEPTH")?);
            require(arity >= 1, "tree arity must be positive")?;
            require(
                depth <= 32 && arity.saturating_pow(depth.min(32) as u32) <= 100_000_000,
                "tree is too large",
            )?;
            generators::balanced_tree(arity, depth)
        }
        "hypercube" => {
            let d = num(1, "D")?;
            require(
                (1..=20).contains(&d),
                "hypercube dimension must be in 1..=20",
            )?;
            generators::hypercube(d)
        }
        "udg" => {
            let (n, r) = (num(1, "N")?, real(2, "RADIUS")?);
            require(n >= 1, "graph needs at least one vertex")?;
            require(
                r.is_finite() && r > 0.0 && r <= 0.5,
                "radius must be in (0, 0.5] on the unit torus",
            )?;
            generators::random_geometric(n, r, seed)
        }
        "road" => {
            let (w, h, r) = (num(1, "W")?, num(2, "H")?, real(3, "REMOVAL")?);
            require(
                w >= 2 && h >= 2,
                "road network needs a real grid (W, H >= 2)",
            )?;
            require(
                r.is_finite() && (0.0..=0.5).contains(&r),
                "removal rate must be in [0, 0.5]",
            )?;
            generators::road_network(w, h, r, seed)
        }
        "er" => {
            let (n, p) = (num(1, "N")?, real(2, "PROB")?);
            require(n >= 1, "graph needs at least one vertex")?;
            require(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "edge probability must be in [0, 1]",
            )?;
            generators::erdos_renyi(n, p, seed)
        }
        other => return Err(ArgError(format!("unknown family '{other}'"))),
    };
    // Generating wrote nothing; refuse what was not read before writing.
    args.finish()?;
    let text = gio::to_string(&g);
    match path {
        Some(path) => {
            fs::write(path, &text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            write_out(
                out,
                &format!(
                    "wrote {family} graph ({} vertices, {} edges) to {path}\n",
                    g.num_vertices(),
                    g.num_edges()
                ),
            )
        }
        None => write_out(out, &text),
    }
}

pub(super) fn stats<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let store = store_with_mode(args)?;
    args.finish()?;
    let mut text = GraphStats::compute(&g).to_string();
    if g.num_vertices() > 1 {
        let est = estimate_dimension(&g, &DoublingConfig::default());
        text.push_str(&format!(
            "doubling:    alpha ~ {} (worst cover {} at ({}, r={}))\n",
            est.alpha, est.worst_cover, est.worst_case.0, est.worst_case.1
        ));
    }
    if let Some((dir, mode)) = store {
        let oracle = DynamicOracle::open_with(std::path::Path::new(dir), &g, mode)
            .map_err(|e| ArgError(format!("cannot open store {dir}: {e}")))?;
        text.push_str(&render_dynamic_stats(&oracle));
    }
    write_out(out, &text)
}

pub(super) fn spanner<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps = parse_eps(args)?;
    args.finish()?;
    let s = fsdl_nets::Spanner::build(&g, eps);
    let text = format!(
        "(1+{eps})-spanner: {} vertices, {} weighted edges ({}x the graph's {})\n",
        s.num_vertices(),
        s.num_edges(),
        s.num_edges() / g.num_edges().max(1),
        g.num_edges()
    );
    write_out(out, &text)
}
