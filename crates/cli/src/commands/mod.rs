//! Implementations of the `fsdl` CLI commands, one module per group of
//! subcommands.
//!
//! Each command takes parsed arguments and a writer (so tests can capture
//! output), returning `Result<(), ArgError>` with user-facing messages.
//! Each runs in three steps: it reads every flag and positional it takes
//! (and its input files), [`ParsedArgs::finish`] refuses whatever it did
//! not read, and only then does it act.

mod dynamic;
mod graph;
mod labels;
mod queries;
mod serving;

use std::fs;
use std::io::Write;

use fsdl_graph::{io as gio, FaultSet, Graph, NodeId};
use fsdl_labels::{ForbiddenSetOracle, OpenMode, OracleError};

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
              [--background yes|no] [--delete v1,v2,...] [--delete-edge a-b,...]
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
             [--forbid v1,v2,...] [--forbid-edge a-b,c-d,...] [--exact yes|no]
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
             [--dynamic yes|no] [--workers N] [--frame-deadline-ms MS]
             [--threshold T] [--background yes|no]
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
  (every flag takes a value, booleans take yes or no, and a command
   refuses any flag or argument it does not take)
  fsdl help
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns an [`ArgError`] with a user-facing message on any failure.
pub fn run<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    match args.command.as_str() {
        "gen" => graph::gen(args, out),
        "stats" => graph::stats(args, out),
        "spanner" => graph::spanner(args, out),
        "label" => labels::label(args, out),
        "build" => labels::build(args, out),
        "audit" => labels::audit(args, out),
        "query" => queries::query(args, out),
        "route" => queries::route(args, out),
        "batch" => queries::batch(args, out),
        "trace" => queries::trace(args, out),
        "update" => dynamic::update(args, out),
        "serve" => serving::serve(args, out),
        "shard" => serving::shard(args, out),
        "router" => serving::router(args, out),
        "help" | "--help" | "-h" => {
            args.finish()?;
            write_out(out, USAGE)
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

/// The forbidden set of `query`/`route`/`batch`/`trace`: `--forbid-file`,
/// `--forbid` and `--forbid-edge`.
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
    for v in parse_vertex_list(args.option("forbid").unwrap_or(""))? {
        f.forbid_vertex(NodeId::new(v));
    }
    for (a, b) in parse_edge_list(args.option("forbid-edge").unwrap_or(""))? {
        let (a, b) = (NodeId::new(a), NodeId::new(b));
        if a == b {
            return Err(malformed(OracleError::FaultEdgeNotInGraph { a, b }));
        }
        f.forbid_edge_unchecked(a, b);
    }
    Ok(f)
}

/// Parses `--open-mode {eager,lazy}`, if given.
fn open_mode_from(args: &ParsedArgs) -> Result<Option<OpenMode>, ArgError> {
    match args.option("open-mode") {
        None => Ok(None),
        Some(raw) => OpenMode::parse(raw).map(Some).ok_or_else(|| {
            ArgError(format!(
                "invalid value '{raw}' for --open-mode (expected 'eager' or 'lazy')"
            ))
        }),
    }
}

/// `--store DIR [--open-mode M]`, or none: the optional store of `stats`.
fn store_with_mode(args: &ParsedArgs) -> Result<Option<(&str, OpenMode)>, ArgError> {
    let mode = open_mode_from(args)?;
    match args.option("store") {
        Some(dir) => Ok(Some((dir, mode.unwrap_or_default()))),
        None => {
            require(
                mode.is_none(),
                "--open-mode requires --store DIR (it selects how the persisted labels are opened)",
            )?;
            Ok(None)
        }
    }
}

/// Where a serving command's labels come from: the persisted generation
/// at `--store DIR` (`--eps` is baked into the store) or a fresh build
/// from the graph with `--eps`.
enum Labels<'a> {
    Store(&'a str, OpenMode),
    Build(f64),
}

impl<'a> Labels<'a> {
    fn parse(args: &'a ParsedArgs) -> Result<Self, ArgError> {
        let eps_given = args.option("eps").is_some();
        match store_with_mode(args)? {
            Some(_) if eps_given => Err(ArgError(
                "--eps conflicts with --store (epsilon is recorded in the store)".into(),
            )),
            Some((dir, mode)) => Ok(Labels::Store(dir, mode)),
            None => Ok(Labels::Build(parse_eps(args)?)),
        }
    }

    fn oracle(&self, g: &Graph) -> Result<ForbiddenSetOracle, ArgError> {
        match *self {
            Labels::Store(dir, mode) => {
                ForbiddenSetOracle::open_with(std::path::Path::new(dir), g, mode)
                    .map_err(|e| ArgError(format!("cannot open store {dir}: {e}")))
            }
            Labels::Build(eps) => Ok(ForbiddenSetOracle::new(g, eps)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use fsdl_graph::{generators, io as gio, FaultSet, Graph, NodeId};
    use fsdl_labels::{ForbiddenSetOracle, OracleError};
    use fsdl_server::Endpoint;

    use super::run;
    use crate::args::{ArgError, ParsedArgs};

    fn run_args(args: &[&str]) -> Result<String, ArgError> {
        let parsed = ParsedArgs::parse(args.iter().map(|s| s.to_string()))?;
        let mut buf = Vec::new();
        run(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    /// A unique temp path, removed (file or directory) on drop: a graph
    /// file from [`TempPath::graph`], or an unused path for a store.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn unused() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let k = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!("fsdl-cli-test-{}-{k}", std::process::id())))
        }

        fn graph(g: &Graph) -> Self {
            let path = TempPath::unused();
            fs::write(&path.0, gio::to_string(g)).expect("write temp graph");
            path
        }

        fn path(&self) -> &str {
            self.0.to_str().expect("utf8 temp path")
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn temp_graph() -> TempPath {
        TempPath::graph(&generators::cycle(12))
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
        let out = run_args(&[
            "query", p, "--source", "0", "--target", "2", "--forbid", "1", "--exact", "no",
        ])
        .unwrap();
        assert!(!out.contains("exact:"), "{out}");
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
        // `trace` builds its own labels; a store it would ignore is refused.
        let err = run_args(&[
            "trace",
            path.path(),
            "--source",
            "0",
            "--target",
            "4",
            "--store",
            "d",
        ])
        .unwrap_err();
        assert_eq!(err.0, "trace does not take --store");
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

    #[test]
    fn build_then_query_route_batch_from_store() {
        let graph = temp_graph();
        let store = TempPath::unused();
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
        let store = TempPath::unused();
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
        let store = TempPath::unused();
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
        let other = TempPath::graph(&generators::path(12));
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
        let store = TempPath::unused();
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
        let store = TempPath::unused();
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

    /// A malformed update list applies nothing: every list is parsed before
    /// the store is opened, so the WAL and the buffered faults stay as they
    /// were.
    #[test]
    fn update_parses_every_list_before_touching_the_store() {
        let graph = temp_graph();
        let store = TempPath::unused();
        let (p, d) = (graph.path(), store.path());
        run_args(&["update", p, "--store", d, "--delete", "1"]).unwrap();
        let before = run_args(&["stats", p, "--store", d]).unwrap();
        assert!(before.contains("buffered 1"), "{before}");
        assert!(before.contains("wal:         1 records"), "{before}");
        let err = run_args(&[
            "update",
            p,
            "--store",
            d,
            "--delete",
            "6",
            "--restore-edge",
            "3:4",
        ])
        .unwrap_err();
        assert!(err.0.contains("invalid edge '3:4'"), "{err}");
        assert_eq!(run_args(&["stats", p, "--store", d]).unwrap(), before);
    }

    /// Every command reads all it takes before it acts, and refuses the rest
    /// before anything is written: a misspelled flag, an extra positional, a
    /// boolean that is not `yes` or `no`.
    #[test]
    fn every_command_refuses_what_it_does_not_read() {
        let graph = temp_graph();
        let store = TempPath::unused();
        let (p, d) = (graph.path(), store.path());
        let sock =
            std::env::temp_dir().join(format!("fsdl-cli-strict-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());
        let l = listen.as_str();
        let commands: [&[&str]; 15] = [
            &["help"],
            &["gen", "path", "4"],
            &["stats", p],
            &["spanner", p],
            &["label", p],
            &["build", p, "--store", d],
            &["audit", p],
            &["query", p, "--source", "0", "--target", "2"],
            &["route", p, "--source", "0", "--target", "2"],
            &["batch", p, "--source", "0", "--targets", "2"],
            &["trace", p, "--source", "0", "--target", "2"],
            &["update", p, "--store", d],
            &["serve", p, "--listen", l, "--dynamic", "yes", "--store", d],
            &["shard", d, "--listen", l],
            &["router", "--listen", l, "--plan", d, "--shards", l],
        ];
        for base in commands {
            let cmd = base[0];
            let refused = |extra: &[&str], expected: &str| {
                let argv = [base, extra].concat();
                let err = run_args(&argv).expect_err(&format!("{argv:?} must be refused"));
                assert_eq!(err.0, expected, "{argv:?}");
                assert!(!store.0.exists(), "{argv:?} wrote {d}");
                assert!(!sock.exists(), "{argv:?} bound {l}");
            };
            refused(
                &["--forbidd", "1"],
                &format!("{cmd} does not take --forbidd"),
            );
            refused(&["extra"], &format!("{cmd} does not take argument 'extra'"));
            for flag in ["--exact", "--dynamic", "--background"] {
                let takes = matches!(
                    (cmd, flag),
                    ("query", "--exact")
                        | ("serve", "--dynamic" | "--background")
                        | ("update", "--background")
                );
                let expected = match takes {
                    true => format!("{cmd}: {flag} takes yes or no (got 'maybe')"),
                    false => format!("{cmd} does not take {flag}"),
                };
                refused(&[flag, "maybe"], &expected);
            }
        }
    }

    #[test]
    fn update_background_mode_drains_before_exit() {
        let graph = temp_graph();
        let store = TempPath::unused();
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
        let path = TempPath::graph(&generators::path(5));
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
        let store = TempPath::unused();
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
        let store = TempPath::unused();
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
        let graph = TempPath::graph(&generators::grid2d(5, 4));
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
        let graph = TempPath::graph(&g);
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
