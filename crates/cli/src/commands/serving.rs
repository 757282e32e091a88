//! `serve`, `shard` and `router`: the long-running network fronts.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use fsdl_graph::Graph;
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_routing::Network;
use fsdl_server::{Endpoint, Router, RouterConfig, ServeEngine, Server, ServerConfig};

use super::dynamic::DynamicStore;
use super::{load_graph, open_mode_from, require, write_out, Labels};
use crate::args::{ArgError, ParsedArgs};

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
        Ok(Endpoint::Unix(PathBuf::from(path)))
    } else {
        Err(ArgError(format!(
            "--listen must be tcp:HOST:PORT or unix:PATH (got '{raw}')"
        )))
    }
}

/// Parses `--frame-deadline-ms` (the slow-loris cutoff, default 10 s).
fn frame_deadline_from(args: &ParsedArgs) -> Result<Duration, ArgError> {
    let ms: u64 = args.parse_option("frame-deadline-ms", 10_000u64)?;
    require(
        ms > 0,
        "--frame-deadline-ms must be positive (it is the slow-loris cutoff)",
    )?;
    Ok(Duration::from_millis(ms))
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

/// What `serve` serves: the durable dynamic oracle, or static labels.
enum Served<'a> {
    Dynamic(DynamicStore<'a>),
    Static(Labels<'a>),
}

/// `fsdl serve`: the long-running oracle server. Blocks until a client
/// sends a shutdown frame, then drains in-flight work (and, in dynamic
/// mode, any background rebuild) and reports lifetime totals.
pub(super) fn serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let endpoint = parse_listen(args.required("listen")?)?;
    let workers: usize = args.parse_option("workers", 0usize)?;
    let frame_deadline = frame_deadline_from(args)?;
    let shards: u32 = args.parse_option("shards", 0u32)?;
    let dynamic = args.flag("dynamic");
    require(
        shards == 0 || !dynamic,
        "--shards serves immutable shard stores; it cannot combine with --dynamic",
    )?;
    let served = if dynamic {
        let dir = args.option("store").ok_or_else(|| {
            ArgError("--dynamic requires --store DIR (the durable oracle lives there)".into())
        })?;
        Served::Dynamic(DynamicStore::parse(args, dir)?)
    } else {
        Served::Static(Labels::parse(args)?)
    };
    let shard_dir = (shards > 0).then(|| args.option("shard-dir")).flatten();
    args.finish()?;
    let (engine, mode) = match served {
        Served::Dynamic(store) => (ServeEngine::from_dynamic(store.open(&g)?), "dynamic"),
        Served::Static(labels) if shards > 0 => {
            let config = RouterConfig {
                workers,
                frame_deadline,
                ..RouterConfig::default()
            };
            return serve_sharded(out, &g, labels, &endpoint, shards, shard_dir, config);
        }
        Served::Static(labels) => {
            let net = Network::from_oracle(labels.oracle(&g)?);
            (ServeEngine::from_network(net), "static")
        }
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
fn serve_sharded<W: Write>(
    out: &mut W,
    g: &Graph,
    labels: Labels<'_>,
    endpoint: &Endpoint,
    shards: u32,
    shard_dir: Option<&str>,
    config: RouterConfig,
) -> Result<(), ArgError> {
    let oracle = labels.oracle(g)?;
    let plan = PartitionPlan::for_oracle(&oracle, shards);
    let (dir, ephemeral) = match shard_dir {
        Some(d) => (PathBuf::from(d), false),
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
pub(super) fn shard<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let dir = PathBuf::from(args.positional(0, "shard-dir")?);
    let endpoint = parse_listen(args.required("listen")?)?;
    let workers: usize = args.parse_option("workers", 0usize)?;
    let mode = open_mode_from(args)?.unwrap_or_default();
    args.finish()?;
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
pub(super) fn router<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let endpoint = parse_listen(args.required("listen")?)?;
    let plan_path = PathBuf::from(args.required("plan")?);
    let shard_endpoints = parse_shard_endpoints(args.required("shards")?)?;
    let config = RouterConfig {
        workers: args.parse_option("workers", 0usize)?,
        frame_deadline: frame_deadline_from(args)?,
        ..RouterConfig::default()
    };
    args.finish()?;
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
