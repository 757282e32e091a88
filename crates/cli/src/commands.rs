//! Implementations of the `fsdl` CLI commands.
//!
//! Each command takes parsed arguments and a writer (so tests can capture
//! output), returning `Result<(), ArgError>` with user-facing messages.

use std::fs;
use std::io::Write;

use fsdl_baselines::ExactOracle;
use fsdl_graph::doubling::{estimate_dimension, DoublingConfig};
use fsdl_graph::{generators, io as gio, FaultSet, Graph, GraphStats, NodeId};
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_labels::{
    DynamicConfig, DynamicOracle, ForbiddenSetOracle, OpenMode, OracleError, RebuildMode,
};
use fsdl_routing::Network;
use fsdl_server::{Endpoint, Router, RouterConfig, ServeEngine, Server, ServerConfig};

use crate::args::{parse_edge_list, parse_vertex_list, ArgError, ParsedArgs};

/// Top-level usage text.
pub const USAGE: &str = "\
fsdl — forbidden-set distance labels toolbox

USAGE:
  fsdl gen <family> <params...> [--out FILE] [--seed N]
      families: path N | cycle N | grid W H | king W H | grid3d X Y Z |
                linf P D | halfgrid P D | tree ARITY DEPTH | udg N RADIUS |
                er N PROB | hypercube D | road W H REMOVAL
  fsdl stats <graph-file> [--store DIR] [--open-mode eager|lazy]
      (--store also reports the dynamic oracle's rebuild/WAL health:
       generation, fault counts, rebuilds, log bytes, replay totals,
       plus resident vs. on-disk label bytes for the serving generation)
  fsdl update <graph-file> --store DIR [--eps E] [--threshold T]
              [--background yes] [--delete v1,v2,...] [--delete-edge a-b,...]
              [--restore v1,...] [--restore-edge a-b,...]
      (opens the dynamic store at DIR — creating it on first use — and
       applies the updates durably: each is written to the write-ahead
       log before taking effect, so a crash mid-batch loses nothing
       acknowledged; --background rebuilds off the serving path)
  fsdl label <graph-file> [--eps E] [--vertex V | --sample K | --threads P]
      (--threads P materializes every label with P parallel workers —
       0 = all cores — and reports exact totals instead of a sample)
  fsdl build <graph-file> --store DIR [--eps E] [--threads P]
      (materializes every label and persists them as an atomic store
       generation; later commands warm-start from it with --store)
  fsdl query <graph-file> --source S --target T [--eps E | --store DIR]
             [--open-mode eager|lazy]
             [--forbid v1,v2,...] [--forbid-edge a-b,c-d,...] [--exact yes]
             [--repeat N]  (re-runs the decode N times reusing one scratch
              and reports the per-query latency)
  fsdl route <graph-file> --source S --target T [--eps E | --store DIR]
             [--open-mode eager|lazy] [--forbid ...] [--forbid-edge ...]
  fsdl batch <graph-file> --source S --targets t1,t2,... [--eps E | --store DIR]
             [--open-mode eager|lazy] [--forbid ...] [--forbid-edge ...]
  fsdl spanner <graph-file> [--eps E]
  fsdl trace <graph-file> --source S --target T [--eps E]
             [--forbid ...] [--forbid-edge ...]
  fsdl audit <graph-file> [--eps E] [--sample K]
  fsdl serve <graph-file> --listen tcp:HOST:PORT|unix:PATH
             [--eps E | --store DIR] [--open-mode eager|lazy]
             [--dynamic yes] [--workers N] [--frame-deadline-ms MS]
             [--threshold T] [--background yes]
      (runs the oracle server until a shutdown frame arrives: query/
       batch/route/update/stats over a length-prefixed binary protocol;
       --dynamic serves the durable dynamic oracle at --store and
       accepts update frames; --workers 0 = all cores minus the event
       loop; --frame-deadline-ms closes connections that stall mid-frame
       [slow-loris protection, default 10000]; --open-mode lazy maps the
       store and decodes labels on first touch instead of up front;
       --shards S runs the simulated multi-shard plane instead: the
       label set is partitioned by net-hierarchy cell into S shard
       stores under --shard-dir [default: a temp dir], S in-process
       shard servers come up on unix sockets, and --listen serves the
       scatter-gather router — answers are bit-identical to the
       unsharded server)
  fsdl shard <shard-dir> --listen tcp:HOST:PORT|unix:PATH
             [--workers N] [--open-mode eager|lazy]
      (serves one shard store written by `fsdl serve --shards` or
       `fsdl_labels::partition::write_shard_stores`: edge-sets,
       point-fetch and label-fetch frames only, queries belong to the
       router)
  fsdl router --listen tcp:HOST:PORT|unix:PATH --plan FILE
              --shards ep1,ep2,...  [--workers N] [--frame-deadline-ms MS]
      (fronts a shard fleet: endpoints are comma-separated listen specs
       in shard order, e.g. unix:/run/s0.sock,tcp:10.0.0.2:7070; the
       router fetches the level edge sets once, scatter-gathers points
       records, derives the labels and answers query/batch frames
       bit-identically to a single-process oracle)
  (query/route/batch/trace also accept --forbid-file FILE with
   \"v <id>\" / \"f <u> <v>\" lines)
  fsdl help
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns an [`ArgError`] with a user-facing message on any failure.
pub fn run<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    match args.command.as_str() {
        "gen" => cmd_gen(args, out),
        "stats" => cmd_stats(args, out),
        "update" => cmd_update(args, out),
        "label" => cmd_label(args, out),
        "build" => cmd_build(args, out),
        "query" => cmd_query(args, out),
        "route" => cmd_route(args, out),
        "batch" => cmd_batch(args, out),
        "spanner" => cmd_spanner(args, out),
        "trace" => cmd_trace(args, out),
        "audit" => cmd_audit(args, out),
        "serve" => cmd_serve(args, out),
        "shard" => cmd_shard(args, out),
        "router" => cmd_router(args, out),
        "help" | "--help" | "-h" => {
            write_out(out, USAGE)?;
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown command '{other}' (try `fsdl help`)"
        ))),
    }
}

fn write_out<W: Write>(out: &mut W, text: &str) -> Result<(), ArgError> {
    out.write_all(text.as_bytes())
        .map_err(|e| ArgError(format!("write failed: {e}")))
}

/// Parses `--eps`, rejecting values the scheme constructors would
/// otherwise panic on (zero, negative, NaN, infinite).
fn parse_eps(args: &ParsedArgs) -> Result<f64, ArgError> {
    let eps: f64 = args.parse_option("eps", 1.0)?;
    if !(eps.is_finite() && eps > 0.0) {
        return Err(ArgError(format!(
            "--eps must be a positive finite number (got {eps})"
        )));
    }
    Ok(eps)
}

fn require(cond: bool, msg: impl Into<String>) -> Result<(), ArgError> {
    if cond {
        Ok(())
    } else {
        Err(ArgError(msg.into()))
    }
}

fn load_graph(path: &str) -> Result<Graph, ArgError> {
    let content =
        fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    gio::from_str(&content).map_err(|e| ArgError(format!("cannot parse {path}: {e}")))
}

/// A malformed `(s, t, F)` in the resolver's words.
fn malformed(e: OracleError) -> ArgError {
    ArgError(e.to_string())
}

fn faults_from(args: &ParsedArgs, g: &Graph) -> Result<FaultSet, ArgError> {
    let mut f = FaultSet::empty();
    if let Some(path) = args.option("forbid-file") {
        let content =
            fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let parsed = gio::faults_from_str(&content, g)
            .map_err(|e| ArgError(format!("cannot parse {path}: {e}")))?;
        for v in parsed.vertices() {
            f.forbid_vertex(v);
        }
        for e in parsed.edges() {
            f.forbid_edge_unchecked(e.lo(), e.hi());
        }
    }
    // Ids are held to the graph by the resolver, in its words, when the
    // command runs its query; only a self-loop, which a `FaultSet` cannot
    // carry, is turned away here.
    if let Some(raw) = args.option("forbid") {
        for v in parse_vertex_list(raw)? {
            f.forbid_vertex(NodeId::new(v));
        }
    }
    if let Some(raw) = args.option("forbid-edge") {
        for (a, b) in parse_edge_list(raw)? {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            if a == b {
                return Err(malformed(OracleError::FaultEdgeNotInGraph { a, b }));
            }
            f.forbid_edge_unchecked(a, b);
        }
    }
    Ok(f)
}

/// Parses `--open-mode {eager,lazy}` (default eager). The flag only
/// makes sense alongside `--store`, so callers without one should use
/// [`reject_open_mode_without_store`] first.
fn open_mode_from(args: &ParsedArgs) -> Result<OpenMode, ArgError> {
    match args.option("open-mode") {
        None => Ok(OpenMode::default()),
        Some(raw) => OpenMode::parse(raw).ok_or_else(|| {
            ArgError(format!(
                "invalid value '{raw}' for --open-mode (expected 'eager' or 'lazy')"
            ))
        }),
    }
}

fn reject_open_mode_without_store(args: &ParsedArgs) -> Result<(), ArgError> {
    require(
        args.option("open-mode").is_none(),
        "--open-mode requires --store DIR (it selects how the persisted labels are opened)",
    )
}

/// The oracle for a serving command: opened from `--store DIR` (labels
/// come from the persisted generation, `--eps` is baked into the store)
/// or built fresh from the graph with `--eps`.
fn oracle_from(args: &ParsedArgs, g: &Graph) -> Result<ForbiddenSetOracle, ArgError> {
    match args.option("store") {
        Some(dir) => {
            if args.option("eps").is_some() {
                return Err(ArgError(
                    "--eps conflicts with --store (epsilon is recorded in the store)".into(),
                ));
            }
            let mode = open_mode_from(args)?;
            ForbiddenSetOracle::open_with(std::path::Path::new(dir), g, mode)
                .map_err(|e| ArgError(format!("cannot open store {dir}: {e}")))
        }
        None => {
            reject_open_mode_without_store(args)?;
            let eps: f64 = parse_eps(args)?;
            Ok(ForbiddenSetOracle::new(g, eps))
        }
    }
}

fn cmd_build<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps: f64 = parse_eps(args)?;
    let dir = args.required("store")?;
    let threads: usize = args.parse_option("threads", 0usize)?;
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

fn cmd_gen<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let family = args.positional(0, "family")?;
    let seed: u64 = args.parse_option("seed", 42u64)?;
    let num = |k: usize, name: &str| -> Result<usize, ArgError> {
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
        "grid" => {
            let (w, h) = (num(1, "W")?, num(2, "H")?);
            require(w >= 1 && h >= 1, "grid dimensions must be positive")?;
            generators::grid2d(w, h)
        }
        "king" => {
            let (w, h) = (num(1, "W")?, num(2, "H")?);
            require(w >= 1 && h >= 1, "grid dimensions must be positive")?;
            generators::king_grid(w, h)
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
            let n = num(1, "N")?;
            require(n >= 1, "graph needs at least one vertex")?;
            let r: f64 = args
                .positional(2, "RADIUS")?
                .parse()
                .map_err(|_| ArgError("invalid <RADIUS>".into()))?;
            require(
                r.is_finite() && r > 0.0 && r <= 0.5,
                "radius must be in (0, 0.5] on the unit torus",
            )?;
            generators::random_geometric(n, r, seed)
        }
        "road" => {
            let w = num(1, "W")?;
            let h = num(2, "H")?;
            require(
                w >= 2 && h >= 2,
                "road network needs a real grid (W, H >= 2)",
            )?;
            let r: f64 = args
                .positional(3, "REMOVAL")?
                .parse()
                .map_err(|_| ArgError("invalid <REMOVAL>".into()))?;
            require(
                r.is_finite() && (0.0..=0.5).contains(&r),
                "removal rate must be in [0, 0.5]",
            )?;
            generators::road_network(w, h, r, seed)
        }
        "er" => {
            let n = num(1, "N")?;
            require(n >= 1, "graph needs at least one vertex")?;
            let p: f64 = args
                .positional(2, "PROB")?
                .parse()
                .map_err(|_| ArgError("invalid <PROB>".into()))?;
            require(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "edge probability must be in [0, 1]",
            )?;
            generators::erdos_renyi(n, p, seed)
        }
        other => return Err(ArgError(format!("unknown family '{other}'"))),
    };
    let text = gio::to_string(&g);
    match args.option("out") {
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

fn cmd_stats<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let mut text = GraphStats::compute(&g).to_string();
    if g.num_vertices() > 1 {
        let est = estimate_dimension(&g, &DoublingConfig::default());
        text.push_str(&format!(
            "doubling:    alpha ~ {} (worst cover {} at ({}, r={}))\n",
            est.alpha, est.worst_cover, est.worst_case.0, est.worst_case.1
        ));
    }
    match args.option("store") {
        Some(dir) => {
            let mode = open_mode_from(args)?;
            let oracle = DynamicOracle::open_with(std::path::Path::new(dir), &g, mode)
                .map_err(|e| ArgError(format!("cannot open store {dir}: {e}")))?;
            text.push_str(&render_dynamic_stats(&oracle));
        }
        None => reject_open_mode_without_store(args)?,
    }
    write_out(out, &text)
}

/// The service-health block shared by `stats --store` and `update`.
fn render_dynamic_stats(oracle: &DynamicOracle) -> String {
    let s = oracle.stats();
    format!(
        "dynamic:     generation {}, threshold {}, faults baked {} / buffered {}\n\
         labels:      {} resident ({} bytes) of {} on-disk bytes, open mode {}\n\
         rebuilds:    {} total ({} background, {} failed), last {:.2} ms, in-flight: {}\n\
         wal:         {} records / {} bytes since rotation; replayed {} records, \
         truncated {} torn bytes\n\
         health:      carry-over {}, blocked-on-rebuild {}, swap-contended {}\n",
        s.store_generation,
        s.threshold,
        s.baked,
        s.buffered,
        s.resident_labels,
        s.resident_label_bytes,
        s.on_disk_label_bytes,
        s.label_open_mode.map_or("in-memory", |m| m.name()),
        s.rebuilds,
        s.background_rebuilds,
        s.failed_rebuilds,
        s.last_rebuild_ms,
        if s.rebuild_in_flight { "yes" } else { "no" },
        s.wal_records_since_rotation,
        s.wal_bytes_since_rotation,
        s.replayed_records,
        s.replay_truncated_bytes,
        s.carry_over_depth,
        s.blocked_on_rebuild,
        s.serving_swaps_contended,
    )
}

/// Opens (or, on first use, creates from `--eps`/`--threshold`) the
/// dynamic oracle at `dir_raw`, honoring `--background`. Shared by
/// `update` and `serve --dynamic`.
fn dynamic_oracle_from(
    args: &ParsedArgs,
    g: &Graph,
    dir_raw: &str,
) -> Result<DynamicOracle, ArgError> {
    let dir = std::path::Path::new(dir_raw);
    let exists = dir.join(fsdl_labels::store::MANIFEST_NAME).exists();
    let mut oracle = if exists {
        if args.option("eps").is_some() || args.option("threshold").is_some() {
            return Err(ArgError(
                "--eps/--threshold conflict with an existing store (both are recorded in it)"
                    .into(),
            ));
        }
        DynamicOracle::open_with(dir, g, open_mode_from(args)?)
            .map_err(|e| ArgError(format!("cannot open store {dir_raw}: {e}")))?
    } else {
        require(
            args.option("open-mode").is_none(),
            "--open-mode applies to an existing store (this one is being created in memory)",
        )?;
        let eps: f64 = parse_eps(args)?;
        let threshold = match args.option("threshold") {
            None => None,
            Some(raw) => Some(
                raw.parse::<usize>()
                    .map_err(|_| ArgError(format!("invalid value '{raw}' for --threshold")))?,
            ),
        };
        let mut oracle = DynamicOracle::try_with_config(
            g,
            DynamicConfig {
                epsilon: eps,
                threshold,
                ..DynamicConfig::default()
            },
        )
        .map_err(|e| ArgError(e.to_string()))?;
        oracle
            .attach_store(dir)
            .map_err(|e| ArgError(format!("cannot create store {dir_raw}: {e}")))?;
        oracle
    };
    if args.option("background").is_some() {
        oracle.set_rebuild_mode(RebuildMode::Background);
    }
    Ok(oracle)
}

/// `fsdl update`: durable dynamic updates against a store directory. The
/// store is created on first use (from `--eps`/`--threshold`) and opened —
/// WAL replay included — afterwards, so killing this command at any point
/// (see `FSDL_CRASH_POINT`) never loses an acknowledged update.
fn cmd_update<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let dir_raw = args.required("store")?;
    let mut oracle = dynamic_oracle_from(args, &g, dir_raw)?;
    let mut applied = 0usize;
    let mut apply = |r: Result<(), fsdl_labels::DynamicError>| -> Result<(), ArgError> {
        r.map_err(|e| ArgError(format!("update failed: {e}")))?;
        applied += 1;
        Ok(())
    };
    for v in parse_vertex_list(args.option("delete").unwrap_or(""))? {
        apply(oracle.delete_vertex(NodeId::new(v)))?;
    }
    for (a, b) in parse_edge_list(args.option("delete-edge").unwrap_or(""))? {
        apply(oracle.delete_edge(NodeId::new(a), NodeId::new(b)))?;
    }
    for v in parse_vertex_list(args.option("restore").unwrap_or(""))? {
        apply(oracle.restore_vertex(NodeId::new(v)))?;
    }
    for (a, b) in parse_edge_list(args.option("restore-edge").unwrap_or(""))? {
        apply(oracle.restore_edge(NodeId::new(a), NodeId::new(b)))?;
    }
    // Drain any background rebuild before reporting: the process is about
    // to exit, and the install/persist must not be torn off mid-flight.
    oracle.wait_for_rebuild();
    let text = format!(
        "applied {applied} durable update(s) to {dir_raw} ({} fault(s) active)\n{}",
        oracle.current_faults().len(),
        render_dynamic_stats(&oracle)
    );
    write_out(out, &text)
}

fn cmd_label<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps: f64 = parse_eps(args)?;
    let oracle = ForbiddenSetOracle::new(&g, eps);
    let n = g.num_vertices();
    let mut text = format!(
        "scheme: eps = {eps}, c = {}, levels {}..={}\n",
        oracle.params().c(),
        oracle.params().c() + 1,
        oracle.params().top_level()
    );
    if let Some(v) = args.option("vertex") {
        let v: u32 = v
            .parse()
            .map_err(|_| ArgError(format!("invalid --vertex '{v}'")))?;
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
    } else if let Some(raw) = args.option("threads") {
        let threads: usize = raw
            .parse()
            .map_err(|_| ArgError(format!("invalid --threads '{raw}'")))?;
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
        let sample: usize = args.parse_option("sample", 8usize)?;
        let sample = sample.clamp(1, n);
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

fn cmd_query<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
    let repeat: usize = args.parse_option("repeat", 1usize)?;
    if repeat == 0 {
        return Err(ArgError("--repeat must be at least 1".into()));
    }
    let oracle = oracle_from(args, &g)?;
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
        text.push_str("witness: ");
        text.push_str(
            &answer
                .path
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" -> "),
        );
        text.push('\n');
    }
    if args.option("exact").is_some() {
        let exact = ExactOracle::new(&g).distance(NodeId::new(s), NodeId::new(t), &faults);
        text.push_str(&format!("exact:   {exact}\n"));
    }
    write_out(out, &text)
}

fn cmd_route<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
    let net = Network::from_oracle(oracle_from(args, &g)?);
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
                d.path
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
            write_out(out, &text)
        }
        Err(e) => write_out(out, &format!("not delivered: {e}\n")),
    }
}

fn cmd_batch<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let s: u32 = args.parse_required("source")?;
    let targets: Vec<NodeId> = parse_vertex_list(args.required("targets")?)?
        .into_iter()
        .map(NodeId::new)
        .collect();
    let faults = faults_from(args, &g)?;
    let oracle = oracle_from(args, &g)?;
    let distances = oracle
        .try_distances_to(NodeId::new(s), &targets, &faults)
        .map_err(malformed)?;
    let mut text = format!(
        "batch from v{s} (|F| = {}):
",
        faults.len()
    );
    for (k, t) in targets.iter().enumerate() {
        text.push_str(&format!(
            "  {t}: {}
",
            distances[k]
        ));
    }
    write_out(out, &text)
}

fn cmd_spanner<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps: f64 = parse_eps(args)?;
    let s = fsdl_nets::Spanner::build(&g, eps);
    let text = format!(
        "(1+{eps})-spanner: {} vertices, {} weighted edges ({}x the graph's {})
",
        s.num_vertices(),
        s.num_edges(),
        s.num_edges() / g.num_edges().max(1),
        g.num_edges()
    );
    write_out(out, &text)
}

fn cmd_trace<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps: f64 = parse_eps(args)?;
    let s: u32 = args.parse_required("source")?;
    let t: u32 = args.parse_required("target")?;
    let faults = faults_from(args, &g)?;
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

fn cmd_audit<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let eps: f64 = parse_eps(args)?;
    let sample: usize = args.parse_option("sample", 6usize)?;
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

/// Parses a `--listen` value: `tcp:HOST:PORT` or `unix:PATH`.
fn parse_listen(raw: &str) -> Result<Endpoint, ArgError> {
    if let Some(addr) = raw.strip_prefix("tcp:") {
        if addr.is_empty() {
            return Err(ArgError("empty TCP address in --listen".into()));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    } else if let Some(path) = raw.strip_prefix("unix:") {
        if path.is_empty() {
            return Err(ArgError("empty socket path in --listen".into()));
        }
        Ok(Endpoint::Unix(std::path::PathBuf::from(path)))
    } else {
        Err(ArgError(format!(
            "--listen must be tcp:HOST:PORT or unix:PATH (got '{raw}')"
        )))
    }
}

/// Parses `--frame-deadline-ms` (the slow-loris cutoff, default 10 s).
fn frame_deadline_from(args: &ParsedArgs) -> Result<std::time::Duration, ArgError> {
    let ms: u64 = args.parse_option("frame-deadline-ms", 10_000u64)?;
    require(
        ms > 0,
        "--frame-deadline-ms must be positive (it is the slow-loris cutoff)",
    )?;
    Ok(std::time::Duration::from_millis(ms))
}

/// What every serving command does with its front (a [`Server`] or a
/// [`Router`]) once it is configured: check the bind, announce the bound
/// endpoint — flushed, since whoever started the process waits for that
/// line — and serve until a shutdown frame. Returns the lifetime totals
/// for the caller's drain line.
fn serve_front<W: Write, F, E: std::fmt::Display, R>(
    out: &mut W,
    what: &str,
    bind: Result<F, E>,
    local_endpoint: fn(&F) -> std::io::Result<Endpoint>,
    announce: impl FnOnce(&Endpoint, &F) -> String,
    run: fn(F) -> R,
) -> Result<R, ArgError> {
    let front = bind.map_err(|e| ArgError(format!("cannot bind {what}: {e}")))?;
    let bound = local_endpoint(&front)
        .map_err(|e| ArgError(format!("cannot resolve bound endpoint: {e}")))?;
    write_out(out, &announce(&bound, &front))?;
    out.flush()
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    Ok(run(front))
}

/// The router's drain line; `served` is the in-process fleet's own count
/// of the fetches, where there is one.
fn router_drained(report: &fsdl_server::RouterReport, served: Option<u64>) -> String {
    let served = served.map_or(String::new(), |k| format!(" ({k} served)"));
    let answered = (report.queries + report.batch_queries).max(1);
    let kib_per_query = report.upstream_bytes as f64 / 1024.0 / answered as f64;
    format!(
        "router drained: {} connections, {} queries ({} batched), \
         {} upstream fetches{served}, {kib_per_query:.2} KiB upstream per query, \
         {} protocol errors, {} shard failures, {} deadline closes\n",
        report.connections,
        report.queries,
        report.batch_queries,
        report.upstream_fetches,
        report.protocol_errors,
        report.shard_failures,
        report.deadline_closes
    )
}

/// `fsdl serve`: the long-running oracle server. Blocks until a client
/// sends a shutdown frame, then drains in-flight work (and, in dynamic
/// mode, any background rebuild) and reports lifetime totals.
fn cmd_serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let endpoint = parse_listen(args.required("listen")?)?;
    let workers: usize = args.parse_option("workers", 0usize)?;
    let frame_deadline = frame_deadline_from(args)?;
    let shards: u32 = args.parse_option("shards", 0u32)?;
    if shards > 0 {
        if args.option("dynamic").is_some() {
            return Err(ArgError(
                "--shards serves immutable shard stores; it cannot combine with --dynamic".into(),
            ));
        }
        return cmd_serve_sharded(args, out, &g, &endpoint, shards, workers, frame_deadline);
    }
    let (engine, mode) = if args.option("dynamic").is_some() {
        let dir = args.option("store").ok_or_else(|| {
            ArgError("--dynamic requires --store DIR (the durable oracle lives there)".into())
        })?;
        let oracle = dynamic_oracle_from(args, &g, dir)?;
        (ServeEngine::from_dynamic(oracle), "dynamic")
    } else {
        let net = Network::from_oracle(oracle_from(args, &g)?);
        (ServeEngine::from_network(net), "static")
    };
    let config = ServerConfig {
        workers,
        frame_deadline,
        ..ServerConfig::default()
    };
    let report = serve_front(
        out,
        &endpoint.to_string(),
        Server::bind(&endpoint, engine, config),
        Server::local_endpoint,
        |bound, server| {
            format!(
                "serving {bound} ({mode} oracle, {} workers); stop with a shutdown frame\n",
                server.resolved_workers()
            )
        },
        Server::run,
    )?;
    write_out(
        out,
        &format!(
            "server drained: {} connections, {} queries ({} batched), {} routes, \
             {} updates, {} protocol errors, {} deadline closes\n",
            report.connections,
            report.queries,
            report.batch_queries,
            report.routes,
            report.updates,
            report.protocol_errors,
            report.deadline_closes
        ),
    )
}

/// `fsdl serve --shards S`: the simulated multi-shard plane on one
/// machine. Partitions the label set by net-hierarchy cell, writes S
/// shard stores, brings up S in-process shard servers on unix sockets,
/// and serves the scatter-gather router at `--listen` until shutdown.
fn cmd_serve_sharded<W: Write>(
    args: &ParsedArgs,
    out: &mut W,
    g: &Graph,
    endpoint: &Endpoint,
    shards: u32,
    workers: usize,
    frame_deadline: std::time::Duration,
) -> Result<(), ArgError> {
    let oracle = oracle_from(args, g)?;
    let plan = PartitionPlan::for_oracle(&oracle, shards);
    let (dir, ephemeral) = match args.option("shard-dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("fsdl-shards-{}", std::process::id())),
            true,
        ),
    };
    let reports = fsdl_labels::write_shard_stores(&oracle, &dir, &plan).map_err(|e| {
        ArgError(format!(
            "cannot write shard stores under {}: {e}",
            dir.display()
        ))
    })?;
    drop(oracle); // the shards and router serve from disk, not this copy

    let mut shard_endpoints = Vec::with_capacity(shards as usize);
    let mut shard_handles = Vec::with_capacity(shards as usize);
    for report in &reports {
        let store = ShardStore::open(&dir.join(shard_dir_name(report.shard)))
            .map_err(|e| ArgError(format!("cannot reopen shard {}: {e}", report.shard)))?;
        let shard_ep = Endpoint::Unix(dir.join(format!("shard-{}.sock", report.shard)));
        let server = Server::bind(
            &shard_ep,
            ServeEngine::from_shard(store),
            ServerConfig {
                // Label-fetch is a memcpy; one worker per shard keeps the
                // simulated fleet from oversubscribing the host.
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| ArgError(format!("cannot bind shard {}: {e}", report.shard)))?;
        let handle = server.shutdown_handle();
        shard_handles.push((std::thread::spawn(move || server.run()), handle));
        shard_endpoints.push(shard_ep);
    }

    let config = RouterConfig {
        workers,
        frame_deadline,
        ..RouterConfig::default()
    };
    let report = serve_front(
        out,
        &format!("router at {endpoint}"),
        Router::bind(endpoint, shard_endpoints, plan, config),
        Router::local_endpoint,
        |bound, _| {
            format!(
                "serving {bound} (router over {shards} shards under {}); \
                 stop with a shutdown frame\n",
                dir.display()
            )
        },
        Router::run,
    )?;

    let mut fetches_served = 0u64;
    for (thread, handle) in shard_handles {
        handle.signal();
        if let Ok(shard_report) = thread.join() {
            fetches_served += shard_report.label_fetches;
        }
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    write_out(out, &router_drained(&report, Some(fetches_served)))
}

/// `fsdl shard`: serves one shard store (label-plane frames only).
fn cmd_shard<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let dir = std::path::PathBuf::from(args.positional(0, "shard-dir")?);
    let endpoint = parse_listen(args.required("listen")?)?;
    let workers: usize = args.parse_option("workers", 0usize)?;
    let mode = open_mode_from(args)?;
    let store = ShardStore::open_with(&dir, mode)
        .map_err(|e| ArgError(format!("cannot open shard store at {}: {e}", dir.display())))?;
    let identity = format!(
        "shard {}/{} ({} of {} labels, generation {})",
        store.shard(),
        store.num_shards(),
        store.num_labels(),
        store.total_vertices(),
        store.generation()
    );
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let report = serve_front(
        out,
        &endpoint.to_string(),
        Server::bind(&endpoint, ServeEngine::from_shard(store), config),
        Server::local_endpoint,
        |bound, _| format!("serving {bound} ({identity})\n"),
        Server::run,
    )?;
    write_out(
        out,
        &format!(
            "shard drained: {} connections, {} label fetches, {} protocol errors\n",
            report.connections, report.label_fetches, report.protocol_errors
        ),
    )
}

/// Parses the router's `--shards` value: comma-separated listen specs in
/// shard order.
fn parse_shard_endpoints(raw: &str) -> Result<Vec<Endpoint>, ArgError> {
    let endpoints: Result<Vec<Endpoint>, ArgError> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse_listen)
        .collect();
    let endpoints = endpoints?;
    if endpoints.is_empty() {
        return Err(ArgError(
            "--shards needs at least one endpoint (comma-separated, in shard order)".into(),
        ));
    }
    Ok(endpoints)
}

/// `fsdl router`: fronts an already-running shard fleet.
fn cmd_router<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let endpoint = parse_listen(args.required("listen")?)?;
    let plan_path = std::path::PathBuf::from(args.required("plan")?);
    let shard_endpoints = parse_shard_endpoints(args.required("shards")?)?;
    let config = RouterConfig {
        workers: args.parse_option("workers", 0usize)?,
        frame_deadline: frame_deadline_from(args)?,
        ..RouterConfig::default()
    };
    let plan = PartitionPlan::load(&plan_path)
        .map_err(|e| ArgError(format!("cannot load plan {}: {e}", plan_path.display())))?;
    let report = serve_front(
        out,
        &format!("router at {endpoint}"),
        Router::bind(&endpoint, shard_endpoints, plan, config),
        Router::local_endpoint,
        |bound, _| format!("routing {bound}; stop with a shutdown frame\n"),
        Router::run,
    )?;
    write_out(out, &router_drained(&report, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<String, ArgError> {
        let parsed = ParsedArgs::parse(args.iter().map(|s| s.to_string()))?;
        let mut buf = Vec::new();
        run(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    /// Writes a graph to a unique temp file; the file is removed on drop.
    struct TempGraph(std::path::PathBuf);

    impl TempGraph {
        fn new(g: &Graph) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "fsdl-cli-test-{}-{}.txt",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::write(&path, gio::to_string(g)).expect("write temp graph");
            TempGraph(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().expect("utf8 temp path")
        }
    }

    impl Drop for TempGraph {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    fn temp_graph() -> TempGraph {
        TempGraph::new(&generators::cycle(12))
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_args(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_to_stdout_parses_back() {
        let out = run_args(&["gen", "grid", "3", "4"]).unwrap();
        let g = gio::from_str(&out).unwrap();
        assert_eq!(g.num_vertices(), 12);
    }

    #[test]
    fn gen_unknown_family() {
        assert!(run_args(&["gen", "klein-bottle", "4"]).is_err());
    }

    #[test]
    fn stats_on_cycle() {
        let path = temp_graph();
        let out = run_args(&["stats", path.path()]).unwrap();
        assert!(out.contains("vertices:    12"));
        assert!(out.contains("components:  1"));
        assert!(out.contains("doubling"));
    }

    #[test]
    fn label_summary_and_single_vertex() {
        let path = temp_graph();
        let p = path.path();
        let out = run_args(&["label", p, "--sample", "4"]).unwrap();
        assert!(out.contains("mean"));
        let out = run_args(&["label", p, "--vertex", "3"]).unwrap();
        assert!(out.contains("label of v3"));
        let err = run_args(&["label", p, "--vertex", "99"]).unwrap_err();
        let expected = OracleError::VertexOutOfRange {
            v: NodeId::new(99),
            n: 12,
        };
        assert_eq!(err.0, expected.to_string());
    }

    #[test]
    fn label_parallel_materialization() {
        let path = temp_graph();
        let p = path.path();
        let out = run_args(&["label", p, "--threads", "4"]).unwrap();
        assert!(
            out.contains("materialized all 12 labels with 4 workers"),
            "{out}"
        );
        let auto = run_args(&["label", p, "--threads", "0"]).unwrap();
        assert!(auto.contains("bits total"), "{auto}");
        assert!(run_args(&["label", p, "--threads", "nope"]).is_err());
    }

    #[test]
    fn query_with_fault_and_exact() {
        let path = temp_graph();
        let p = path.path();
        let out = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--forbid", "1", "--exact", "yes",
        ])
        .unwrap();
        assert!(out.contains("delta(v0, v2, |F|=1)"), "{out}");
        assert!(out.contains("exact:   10"), "{out}");
    }

    #[test]
    fn query_repeat_reuses_scratch() {
        let path = temp_graph();
        let p = path.path();
        let out = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--forbid", "1", "--repeat", "5",
        ])
        .unwrap();
        assert!(out.contains("delta(v0, v2, |F|=1)"), "{out}");
        assert!(out.contains("repeated 5x"), "{out}");
        assert!(out.contains("ns/query"), "{out}");
        assert!(
            run_args(&["query", p, "--source", "0", "--target", "2", "--repeat", "nope"]).is_err()
        );
        assert!(
            run_args(&["query", p, "--source", "0", "--target", "2", "--repeat", "0"]).is_err()
        );
    }

    /// `query`, `route`, `batch` and `trace` reject a malformed `(s, t, F)`
    /// in the resolver's words — the message every network front sends.
    #[test]
    fn query_rejects_bad_input() {
        let path = temp_graph();
        let p = path.path();
        assert!(run_args(&["query", p, "--source", "0"]).is_err());
        let oracle = ForbiddenSetOracle::new(&generators::cycle(12), 1.0);
        let in_process = |t: u32, vertices: &[u32], edge: Option<(u32, u32)>| {
            let mut f = FaultSet::from_vertices(vertices.iter().map(|&v| NodeId::new(v)));
            if let Some((a, b)) = edge {
                f.forbid_edge_unchecked(NodeId::new(a), NodeId::new(b));
            }
            let rejected = oracle.try_query(NodeId::new(0), NodeId::new(t), &f);
            rejected.expect_err("malformed").to_string()
        };
        // (--target, --forbid, --forbid-edge, the message)
        let cases = [
            ("99", "", "", in_process(99, &[], None)),
            ("2", "40,1", "", in_process(2, &[40, 1], None)),
            ("2", "", "3-40", in_process(2, &[], Some((3, 40)))),
            ("2", "", "0-5", in_process(2, &[], Some((0, 5)))),
            // A `FaultSet` cannot hold a self-loop, so the CLI words this one.
            (
                "2",
                "",
                "3-3",
                "forbidden edge (v3, v3) is not an edge of the graph".to_string(),
            ),
        ];
        for (target, forbid, forbid_edge, expected) in cases {
            for cmd in ["query", "route", "trace"] {
                let mut argv = vec![cmd, p, "--source", "0", "--target", target];
                argv.extend(["--forbid", forbid, "--forbid-edge", forbid_edge]);
                let err = run_args(&argv).unwrap_err();
                assert_eq!(err.0, expected, "{cmd} {argv:?}");
            }
            let mut argv = vec!["batch", p, "--source", "0", "--targets", target];
            argv.extend(["--forbid", forbid, "--forbid-edge", forbid_edge]);
            assert_eq!(run_args(&argv).unwrap_err().0, expected, "batch {argv:?}");
        }
    }

    #[test]
    fn batch_command() {
        let path = temp_graph();
        let out = run_args(&[
            "batch",
            path.path(),
            "--source",
            "0",
            "--targets",
            "2,6,11",
            "--forbid",
            "1",
        ])
        .unwrap();
        assert!(out.contains("v2: 10"), "{out}");
        assert!(out.contains("v6: 6"), "{out}");
        assert!(run_args(&["batch", path.path(), "--source", "0", "--targets", "99"]).is_err());
    }

    #[test]
    fn spanner_command() {
        let path = temp_graph();
        let out = run_args(&["spanner", path.path(), "--eps", "2"]).unwrap();
        assert!(out.contains("spanner"), "{out}");
    }

    #[test]
    fn gen_road_family() {
        let out = run_args(&["gen", "road", "6", "6", "0.1", "--seed", "3"]).unwrap();
        let g = gio::from_str(&out).unwrap();
        assert_eq!(g.num_vertices(), 36);
    }

    #[test]
    fn trace_command() {
        let path = temp_graph();
        let out = run_args(&[
            "trace",
            path.path(),
            "--source",
            "0",
            "--target",
            "4",
            "--forbid",
            "2",
        ])
        .unwrap();
        assert!(out.contains("delta(v0, v4, |F|=1)"), "{out}");
        assert!(out.contains("real"), "{out}");
    }

    #[test]
    fn forbid_file_support() {
        let path = temp_graph();
        let faults_path =
            std::env::temp_dir().join(format!("fsdl-cli-faults-{}.txt", std::process::id()));
        fs::write(&faults_path, "v 1\n").unwrap();
        let out = run_args(&[
            "query",
            path.path(),
            "--source",
            "0",
            "--target",
            "2",
            "--forbid-file",
            faults_path.to_str().unwrap(),
            "--exact",
            "yes",
        ])
        .unwrap();
        let _ = fs::remove_file(&faults_path);
        assert!(out.contains("|F|=1"), "{out}");
        assert!(out.contains("exact:   10"), "{out}");
    }

    #[test]
    fn audit_command_passes_on_healthy_graph() {
        let path = temp_graph();
        let out = run_args(&["audit", path.path(), "--sample", "3"]).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("net sizes"), "{out}");
    }

    #[test]
    fn route_delivers() {
        let path = temp_graph();
        let p = path.path();
        let out = run_args(&[
            "route", p, "--source", "0", "--target", "6", "--forbid", "3",
        ])
        .unwrap();
        assert!(out.contains("delivered in 6 hops"), "{out}");
    }

    /// A unique temp directory for a label store, removed on drop.
    struct TempStore(std::path::PathBuf);

    impl TempStore {
        fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "fsdl-cli-store-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&path);
            TempStore(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().expect("utf8 temp path")
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn build_then_query_route_batch_from_store() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        let out = run_args(&["build", p, "--store", d, "--threads", "2"]).unwrap();
        assert!(out.contains("saved generation 1"), "{out}");
        assert!(out.contains("built 12 labels"), "{out}");

        // Warm-started answers must match the cold-built ones exactly.
        let cold = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--forbid", "1",
        ])
        .unwrap();
        let warm = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--forbid", "1", "--store", d,
        ])
        .unwrap();
        assert_eq!(cold, warm);

        let out = run_args(&[
            "batch",
            p,
            "--source",
            "0",
            "--targets",
            "2,6",
            "--store",
            d,
        ])
        .unwrap();
        assert!(out.contains("v6: 6"), "{out}");
        let out = run_args(&[
            "route", p, "--source", "0", "--target", "6", "--forbid", "3", "--store", d,
        ])
        .unwrap();
        assert!(out.contains("delivered in 6 hops"), "{out}");
    }

    /// `--open-mode lazy` must be output-identical to the default eager
    /// open on every store-serving command, and `--open-mode` misuse is
    /// a typed usage error.
    #[test]
    fn open_mode_lazy_round_trips_and_misuse_is_typed() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        run_args(&["build", p, "--store", d]).unwrap();

        let commands: Vec<Vec<&str>> = vec![
            vec![
                "query", p, "--source", "0", "--target", "2", "--forbid", "1", "--store", d,
            ],
            vec![
                "batch",
                p,
                "--source",
                "0",
                "--targets",
                "2,6",
                "--store",
                d,
            ],
            vec![
                "route", p, "--source", "0", "--target", "6", "--forbid", "3", "--store", d,
            ],
        ];
        for cmd in commands {
            let eager = run_args(&cmd).unwrap();
            for mode in ["eager", "lazy"] {
                let mut with_mode = cmd.clone();
                with_mode.extend(["--open-mode", mode]);
                assert_eq!(
                    eager,
                    run_args(&with_mode).unwrap(),
                    "{mode} diverged on {cmd:?}"
                );
            }
        }

        let err = run_args(&[
            "query",
            p,
            "--source",
            "0",
            "--target",
            "2",
            "--store",
            d,
            "--open-mode",
            "mapped",
        ])
        .unwrap_err();
        assert!(
            err.0.contains("invalid value 'mapped' for --open-mode"),
            "{err}"
        );
        let err = run_args(&[
            "query",
            p,
            "--source",
            "0",
            "--target",
            "2",
            "--open-mode",
            "lazy",
        ])
        .unwrap_err();
        assert!(err.0.contains("--open-mode requires --store"), "{err}");
    }

    #[test]
    fn store_misuse_is_a_typed_error() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        // No store yet.
        let err =
            run_args(&["query", p, "--source", "0", "--target", "2", "--store", d]).unwrap_err();
        assert!(err.0.contains("cannot open store"), "{err}");
        run_args(&["build", p, "--store", d]).unwrap();
        // --eps conflicts with --store.
        let err = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--store", d, "--eps", "2.0",
        ])
        .unwrap_err();
        assert!(err.0.contains("conflicts"), "{err}");
        // Store built for a different graph.
        let other = TempGraph::new(&generators::path(12));
        let err = run_args(&[
            "query",
            other.path(),
            "--source",
            "0",
            "--target",
            "2",
            "--store",
            d,
        ])
        .unwrap_err();
        assert!(err.0.contains("different graph"), "{err}");
        // Corrupted segment surfaces as a typed message, not a panic.
        let manifest = fsdl_labels::store::read_manifest(&store.0).unwrap();
        let seg = store.0.join(&manifest.segment);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let err =
            run_args(&["query", p, "--source", "0", "--target", "2", "--store", d]).unwrap_err();
        assert!(err.0.contains("cannot open store"), "{err}");
    }

    #[test]
    fn update_creates_store_applies_durably_and_reports_health() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        // First use creates the store and applies the batch.
        let out = run_args(&[
            "update",
            p,
            "--store",
            d,
            "--threshold",
            "2",
            "--delete",
            "1,5",
        ])
        .unwrap();
        assert!(out.contains("applied 2 durable update(s)"), "{out}");
        assert!(out.contains("2 fault(s) active"), "{out}");
        assert!(out.contains("wal:         2 records"), "{out}");
        // A second invocation reopens (replaying the WAL), crosses the
        // threshold, and rebuilds.
        let out = run_args(&["update", p, "--store", d, "--delete", "8"]).unwrap();
        assert!(out.contains("3 fault(s) active"), "{out}");
        assert!(out.contains("rebuilds:    1 total"), "{out}");
        // Restores round-trip too.
        let out = run_args(&["update", p, "--store", d, "--restore", "1,5,8"]).unwrap();
        assert!(out.contains("0 fault(s) active"), "{out}");
        // stats --store renders the same health block.
        let out = run_args(&["stats", p, "--store", d]).unwrap();
        assert!(out.contains("dynamic:     generation"), "{out}");
        assert!(out.contains("blocked-on-rebuild"), "{out}");
    }

    #[test]
    fn update_rejects_bad_input_typed() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        // Invalid threshold is the typed InvalidConfig, not a panic.
        let err = run_args(&["update", p, "--store", d, "--threshold", "0"]).unwrap_err();
        assert!(err.0.contains("threshold"), "{err}");
        run_args(&["update", p, "--store", d, "--delete", "1"]).unwrap();
        // Reconfiguring an existing store is rejected.
        let err = run_args(&["update", p, "--store", d, "--eps", "0.5"]).unwrap_err();
        assert!(err.0.contains("conflict"), "{err}");
        // Out-of-range and not-an-edge surface the dynamic errors; an id
        // outside the graph is worded as the resolver words it.
        let out_of_range = |v| OracleError::VertexOutOfRange {
            v: NodeId::new(v),
            n: 12,
        };
        for (op, ids, bad) in [
            ("--delete", "99", 99),
            ("--delete-edge", "0-40", 40),
            ("--restore", "1,77", 77),
            ("--restore-edge", "50-1", 50),
        ] {
            let err = run_args(&["update", p, "--store", d, op, ids]).unwrap_err();
            assert_eq!(
                err.0,
                format!("update failed: {}", out_of_range(bad)),
                "{op}"
            );
        }
        let err = run_args(&["update", p, "--store", d, "--delete-edge", "0-2"]).unwrap_err();
        assert!(err.0.contains("not an edge"), "{err}");
        let err = run_args(&["update", p, "--store", d, "--restore", "7"]).unwrap_err();
        assert!(err.0.contains("not currently deleted"), "{err}");
    }

    #[test]
    fn update_background_mode_drains_before_exit() {
        let graph = temp_graph();
        let store = TempStore::new();
        let (p, d) = (graph.path(), store.path());
        let out = run_args(&[
            "update",
            p,
            "--store",
            d,
            "--threshold",
            "1",
            "--background",
            "yes",
            "--delete",
            "2,6,9",
        ])
        .unwrap();
        assert!(out.contains("applied 3 durable update(s)"), "{out}");
        assert!(out.contains("in-flight: no"), "{out}");
        // The drained store reopens with all three faults intact.
        let out = run_args(&["stats", p, "--store", d]).unwrap();
        assert!(out.contains("dynamic:"), "{out}");
    }

    #[test]
    fn route_unreachable() {
        let path = TempGraph::new(&generators::path(5));
        let out = run_args(&[
            "route",
            path.path(),
            "--source",
            "0",
            "--target",
            "4",
            "--forbid",
            "2",
        ])
        .unwrap();
        assert!(out.contains("not delivered"));
    }

    /// The panic sweep: every malformed input that used to trip an
    /// assert deep in a constructor or generator must surface as a
    /// typed `ArgError` instead.
    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let path = temp_graph();
        let p = path.path();
        // Epsilon values the scheme constructors assert on.
        for eps in ["0", "-1", "nan", "inf", "not-a-number"] {
            for cmd in ["label", "spanner", "audit"] {
                let err = run_args(&[cmd, p, "--eps", eps])
                    .expect_err(&format!("{cmd} --eps {eps} must be rejected"));
                assert!(
                    err.to_string().contains("eps") || err.to_string().contains("invalid"),
                    "{cmd} --eps {eps}: {err}"
                );
            }
            assert!(
                run_args(&["query", p, "--source", "0", "--target", "1", "--eps", eps]).is_err()
            );
        }
        // Generator parameters the generators assert on.
        for bad in [
            &["gen", "path", "0"][..],
            &["gen", "cycle", "2"],
            &["gen", "grid", "0", "4"],
            &["gen", "king", "3", "0"],
            &["gen", "grid3d", "0", "2", "2"],
            &["gen", "linf", "1", "2"],
            &["gen", "halfgrid", "2", "0"],
            &["gen", "tree", "0", "3"],
            &["gen", "hypercube", "21"],
            &["gen", "hypercube", "0"],
            &["gen", "udg", "0", "0.2"],
            &["gen", "udg", "16", "0.9"],
            &["gen", "udg", "16", "nan"],
            &["gen", "er", "16", "1.5"],
            &["gen", "er", "0", "0.5"],
            &["gen", "road", "1", "5", "0.1"],
            &["gen", "road", "5", "5", "0.9"],
        ] {
            assert!(run_args(bad).is_err(), "{bad:?} must be a typed error");
        }
        // Bad fault-file lines and a bad store dir.
        let fault_file =
            std::env::temp_dir().join(format!("fsdl-cli-badfaults-{}.txt", std::process::id()));
        fs::write(&fault_file, "v not-a-number\n").unwrap();
        let err = run_args(&[
            "query",
            p,
            "--source",
            "0",
            "--target",
            "1",
            "--forbid-file",
            fault_file.to_str().unwrap(),
        ])
        .expect_err("bad fault file must be rejected");
        assert!(err.to_string().contains("cannot parse"), "{err}");
        let _ = fs::remove_file(&fault_file);
        assert!(run_args(&[
            "query",
            p,
            "--source",
            "0",
            "--target",
            "1",
            "--store",
            "/nonexistent/fsdl-store"
        ])
        .is_err());
    }

    /// A freshly-created store (no WAL records, zero rebuilds) must
    /// still print the full health block, all zeros — not a panic or a
    /// truncated report.
    #[test]
    fn stats_on_fresh_store_prints_zeroed_health_block() {
        let path = temp_graph();
        let store = TempStore::new();
        // `update` with no update flags creates the store and applies 0 ops.
        let out = run_args(&["update", path.path(), "--store", store.path()]).unwrap();
        assert!(out.contains("applied 0 durable update(s)"), "{out}");
        let out = run_args(&["stats", path.path(), "--store", store.path()]).unwrap();
        assert!(
            out.contains("dynamic:     generation 1, threshold"),
            "{out}"
        );
        assert!(out.contains("faults baked 0 / buffered 0"), "{out}");
        assert!(
            out.contains("rebuilds:    0 total (0 background, 0 failed)"),
            "{out}"
        );
        assert!(out.contains("wal:         0 records / 0 bytes"), "{out}");
        assert!(
            out.contains("replayed 0 records, truncated 0 torn bytes"),
            "{out}"
        );
        assert!(
            out.contains("carry-over 0, blocked-on-rebuild 0, swap-contended 0"),
            "{out}"
        );
    }

    /// `stats --store` separates resident from on-disk label bytes and
    /// names the open mode; nothing is resident right after either open
    /// (labels decode on first touch in both modes).
    #[test]
    fn stats_reports_resident_vs_on_disk_label_bytes() {
        let path = temp_graph();
        let store = TempStore::new();
        run_args(&["update", path.path(), "--store", store.path()]).unwrap();
        let out = run_args(&["stats", path.path(), "--store", store.path()]).unwrap();
        assert!(
            out.contains("labels:      0 resident (0 bytes) of "),
            "{out}"
        );
        assert!(out.contains("open mode eager"), "{out}");
        let on_disk: u64 = out
            .lines()
            .find(|l| l.starts_with("labels:"))
            .and_then(|l| l.split_whitespace().nth(6))
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("no on-disk byte count in {out}"));
        assert!(on_disk > 0, "{out}");
        let out = run_args(&[
            "stats",
            path.path(),
            "--store",
            store.path(),
            "--open-mode",
            "lazy",
        ])
        .unwrap();
        assert!(out.contains("open mode lazy"), "{out}");
        let err = run_args(&["stats", path.path(), "--open-mode", "lazy"]).unwrap_err();
        assert!(err.0.contains("--open-mode requires --store"), "{err}");
    }

    #[test]
    fn serve_rejects_malformed_listen_and_missing_store() {
        let path = temp_graph();
        let p = path.path();
        for listen in ["", "http://x", "tcp:", "unix:"] {
            assert!(run_args(&["serve", p, "--listen", listen]).is_err());
        }
        let err = run_args(&[
            "serve",
            p,
            "--listen",
            "unix:/tmp/x.sock",
            "--dynamic",
            "yes",
        ])
        .expect_err("--dynamic without --store must be rejected");
        assert!(err.to_string().contains("--store"), "{err}");
        let err = run_args(&[
            "serve",
            p,
            "--listen",
            "unix:/tmp/x.sock",
            "--frame-deadline-ms",
            "0",
        ])
        .expect_err("a zero frame deadline must be rejected");
        assert!(err.to_string().contains("frame-deadline"), "{err}");
    }

    /// End-to-end over the real binary protocol: serve on a unix socket
    /// from this process, query it with the typed client, shut it down.
    #[test]
    fn serve_answers_queries_and_drains_on_shutdown() {
        let graph = TempGraph::new(&generators::grid2d(5, 4));
        let sock = std::env::temp_dir().join(format!("fsdl-cli-serve-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());
        let gpath = graph.path().to_string();
        let server = std::thread::spawn(move || {
            run_args(&[
                "serve",
                &gpath,
                "--listen",
                &listen,
                "--workers",
                "2",
                "--frame-deadline-ms",
                "5000",
            ])
        });
        let endpoint = Endpoint::Unix(sock.clone());
        let mut client =
            fsdl_server::Client::connect_with_retry(&endpoint, std::time::Duration::from_secs(10))
                .expect("connect");
        let reply = client
            .query(0, 19, fsdl_server::WireFaults::default())
            .expect("query");
        assert!(
            reply.distance >= 7,
            "grid corner distance, got {}",
            reply.distance
        );
        client.shutdown().expect("shutdown");
        let out = server.join().expect("serve thread").expect("serve run");
        assert!(out.contains("serving unix://"), "{out}");
        assert!(out.contains("1 queries"), "{out}");
        assert!(out.contains("0 protocol errors"), "{out}");
        assert!(out.contains("0 deadline closes"), "{out}");
        assert!(!sock.exists(), "socket removed after drain");
    }

    #[test]
    fn router_rejects_malformed_arguments() {
        let err = run_args(&["router", "--plan", "/nope", "--shards", "unix:/tmp/a.sock"])
            .expect_err("missing --listen");
        assert!(err.to_string().contains("--listen"), "{err}");
        let err = run_args(&[
            "router",
            "--listen",
            "unix:/tmp/r.sock",
            "--plan",
            "/nope",
            "--shards",
            "",
        ])
        .expect_err("empty shard list");
        assert!(err.to_string().contains("at least one endpoint"), "{err}");
        let err = run_args(&[
            "router",
            "--listen",
            "unix:/tmp/r.sock",
            "--plan",
            "/definitely/not/a/plan",
            "--shards",
            "unix:/tmp/a.sock",
        ])
        .expect_err("unreadable plan");
        assert!(err.to_string().contains("cannot load plan"), "{err}");
    }

    #[test]
    fn serve_rejects_shards_with_dynamic() {
        let path = temp_graph();
        let err = run_args(&[
            "serve",
            path.path(),
            "--listen",
            "unix:/tmp/x.sock",
            "--shards",
            "2",
            "--dynamic",
            "yes",
            "--store",
            "/tmp/nope",
        ])
        .expect_err("--shards with --dynamic must be rejected");
        assert!(err.to_string().contains("--dynamic"), "{err}");
    }

    /// The whole simulated multi-shard plane, end to end: `serve
    /// --shards 2` partitions and persists the labels, spawns the shard
    /// fleet, and routes queries bit-identically to the local oracle.
    #[test]
    fn serve_sharded_answers_bit_identically() {
        let g = generators::grid2d(5, 4);
        let graph = TempGraph::new(&g);
        let sock =
            std::env::temp_dir().join(format!("fsdl-cli-shard-serve-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());
        let gpath = graph.path().to_string();
        let server = std::thread::spawn(move || {
            run_args(&[
                "serve", &gpath, "--listen", &listen, "--shards", "2", "--eps", "0.5",
            ])
        });
        let endpoint = Endpoint::Unix(sock.clone());
        let mut client =
            fsdl_server::Client::connect_with_retry(&endpoint, std::time::Duration::from_secs(10))
                .expect("connect");
        let oracle = ForbiddenSetOracle::new(&g, 0.5);
        let mut scratch = fsdl_labels::DecodeScratch::new();
        for (s, t, forbid) in [(0u32, 19u32, vec![]), (0, 19, vec![9u32]), (3, 16, vec![8])] {
            let faults = FaultSet::from_vertices(forbid.iter().copied().map(NodeId::new));
            let expected = oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch);
            let wire = fsdl_server::WireFaults {
                vertices: forbid.clone(),
                edges: vec![],
            };
            let reply = client.query(s, t, wire).expect("routed query");
            assert_eq!(reply.distance, expected.distance.raw(), "distance {s}->{t}");
            assert_eq!(
                reply.path,
                expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
                "path {s}->{t}"
            );
        }
        client.shutdown().expect("shutdown");
        let out = server.join().expect("serve thread").expect("serve run");
        assert!(out.contains("router over 2 shards"), "{out}");
        assert!(out.contains("3 queries"), "{out}");
        assert!(out.contains("0 protocol errors"), "{out}");
        assert!(out.contains("0 shard failures"), "{out}");
    }
}
