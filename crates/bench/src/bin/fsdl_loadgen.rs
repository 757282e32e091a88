//! `fsdl-loadgen` — seeded workload replay against a running `fsdl serve`.
//!
//! ```text
//! fsdl-loadgen --connect unix:/tmp/fsdl.sock [--seed N] [--conns C]
//!              [--ops N] [--zipf THETA] [--faults RATE] [--max-faults K]
//!              [--churn RATE] [--batch SIZE] [--idle-conns I] [--quick]
//!              [--shutdown yes]
//! ```
//!
//! Each of the `C` connections replays its own deterministic operation
//! stream (see `fsdl_bench::serveload`): Zipf-skewed vertex pairs,
//! optional per-query forbidden sets (`--faults`, static servers),
//! optional fault churn (`--churn`, dynamic servers), optionally batched
//! `--batch` queries per frame.
//! Reports sustained QPS and p50/p99 latency; exits nonzero if any
//! connection saw a protocol error or unexpected reply.
//!
//! `--idle-conns I` opens `I` extra connections that never send a byte
//! and holds them for the whole run — the many-mostly-idle-clients shape
//! an oracle service actually sees; a readiness-driven server must show
//! no QPS difference (the count is clamped below the process's fd soft
//! limit). `--shutdown yes` sends a shutdown frame after the run (for
//! smoke tests that own the server); `--quick` shrinks the run for CI.

use std::time::Instant;

use fsdl_bench::serveload::{churn_updates, percentile_us, Op, OpStream, WorkloadConfig};
use fsdl_server::{Client, ClientError, Endpoint, WireFaults};

struct Args {
    connect: Endpoint,
    seed: u64,
    conns: usize,
    ops: usize,
    zipf: f64,
    faults: f64,
    max_faults: usize,
    churn: f64,
    batch: usize,
    idle_conns: usize,
    shutdown: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fsdl-loadgen --connect tcp:HOST:PORT|unix:PATH [--seed N] \
         [--conns C] [--ops N] [--zipf THETA] [--faults RATE] \
         [--max-faults K] [--churn RATE] [--batch SIZE] [--idle-conns I] \
         [--quick] [--shutdown yes]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut connect = None;
    let mut seed = 42u64;
    let mut conns = 4usize;
    let mut ops = 5_000usize;
    let mut zipf = 0.8f64;
    let mut faults = 0.25f64;
    let mut max_faults = 4usize;
    let mut churn = 0.0f64;
    let mut batch = 0usize;
    let mut idle_conns = 0usize;
    let mut shutdown = false;
    let mut quick = false;
    let mut i = 0;
    let value = |raw: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        raw.get(*i)
            .unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
            .clone()
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--connect" => {
                let v = value(&raw, &mut i, "--connect");
                connect = Some(if let Some(addr) = v.strip_prefix("tcp:") {
                    Endpoint::Tcp(addr.to_string())
                } else if let Some(path) = v.strip_prefix("unix:") {
                    Endpoint::Unix(path.into())
                } else {
                    eprintln!("error: --connect must be tcp:HOST:PORT or unix:PATH");
                    usage()
                });
            }
            "--seed" => {
                seed = value(&raw, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--conns" => {
                conns = value(&raw, &mut i, "--conns")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--ops" => {
                ops = value(&raw, &mut i, "--ops")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--zipf" => {
                zipf = value(&raw, &mut i, "--zipf")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--faults" => {
                faults = value(&raw, &mut i, "--faults")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--max-faults" => {
                max_faults = value(&raw, &mut i, "--max-faults")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--churn" => {
                churn = value(&raw, &mut i, "--churn")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--batch" => {
                batch = value(&raw, &mut i, "--batch")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--idle-conns" => {
                idle_conns = value(&raw, &mut i, "--idle-conns")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--shutdown" => shutdown = value(&raw, &mut i, "--shutdown") == "yes",
            "--quick" => quick = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag '{other}'");
                usage()
            }
        }
        i += 1;
    }
    if quick {
        conns = conns.min(2);
        ops = ops.min(400);
        idle_conns = idle_conns.min(200);
    }
    let Some(connect) = connect else {
        eprintln!("error: --connect is required");
        usage()
    };
    let valid = zipf.is_finite()
        && zipf >= 0.0
        && (0.0..=1.0).contains(&faults)
        && (0.0..=1.0).contains(&churn);
    if !valid {
        eprintln!("error: --zipf must be >= 0; --faults/--churn must be in [0, 1]");
        usage()
    }
    Args {
        connect,
        seed,
        conns,
        ops,
        zipf,
        faults,
        max_faults,
        churn,
        batch,
        idle_conns,
        shutdown,
    }
}

/// Opens `requested` connections that never send a byte, clamped below
/// the fd soft limit (each costs one fd here and one in the server,
/// which usually shares the host). Returns the held-open sockets.
fn open_idle_fleet(endpoint: &Endpoint, requested: usize) -> Vec<Client> {
    let budget = (fsdl_reactor::fd_soft_limit_or(640).saturating_sub(128) / 2) as usize;
    let count = requested.min(budget);
    if count < requested {
        eprintln!(
            "note: clamping --idle-conns {requested} to {count} \
             (fd soft limit {budget} after reserve)"
        );
    }
    let mut fleet = Vec::with_capacity(count);
    for k in 0..count {
        match Client::connect(endpoint) {
            Ok(c) => fleet.push(c),
            Err(e) => {
                eprintln!("error: idle connection {k} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    fleet
}

struct ConnReport {
    ops: u64,
    queries: u64,
    updates: u64,
    latencies_us: Vec<f64>,
}

/// Replays one connection's stream. Latency is measured per round-trip
/// (a batch frame is one sample covering `--batch` queries).
fn run_connection(args: &Args, conn: u64, n: u32) -> Result<ConnReport, ClientError> {
    let mut client = Client::connect(&args.connect)?;
    let config = if args.churn > 0.0 {
        WorkloadConfig::for_dynamic(n, args.zipf, args.churn)
    } else {
        WorkloadConfig::for_static(n, args.zipf, args.faults, args.max_faults)
    };
    let mut stream = OpStream::new(args.seed, conn, config);
    let mut report = ConnReport {
        ops: 0,
        queries: 0,
        updates: 0,
        latencies_us: Vec::with_capacity(args.ops),
    };
    let mut pending_batch: Vec<(u32, u32, WireFaults)> = Vec::new();
    for _ in 0..args.ops {
        match stream.next_op() {
            Op::Query { s, t, faults } => {
                if args.batch > 1 {
                    pending_batch.push((s, t, faults));
                    if pending_batch.len() == args.batch {
                        let frame = std::mem::take(&mut pending_batch);
                        let count = frame.len() as u64;
                        let start = Instant::now();
                        client.batch(frame)?;
                        report
                            .latencies_us
                            .push(start.elapsed().as_secs_f64() * 1e6);
                        report.queries += count;
                        report.ops += 1;
                    }
                } else {
                    let start = Instant::now();
                    client.query(s, t, faults)?;
                    report
                        .latencies_us
                        .push(start.elapsed().as_secs_f64() * 1e6);
                    report.queries += 1;
                    report.ops += 1;
                }
            }
            Op::Churn { v } => {
                for update in churn_updates(v) {
                    let start = Instant::now();
                    match client.update(update) {
                        Ok(_) => {
                            report
                                .latencies_us
                                .push(start.elapsed().as_secs_f64() * 1e6);
                            report.updates += 1;
                            report.ops += 1;
                        }
                        // A delete can race another connection's churn of
                        // the same hot vertex; the server answers typed,
                        // the workload moves on. Transport errors abort.
                        Err(ClientError::Server(_)) => {
                            report.ops += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
    if !pending_batch.is_empty() {
        let count = pending_batch.len() as u64;
        let start = Instant::now();
        client.batch(std::mem::take(&mut pending_batch))?;
        report
            .latencies_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        report.queries += count;
        report.ops += 1;
    }
    Ok(report)
}

fn main() {
    let args = parse_args();

    // One scout connection learns the graph size (and fails fast if the
    // server is unreachable or speaking something else).
    let stats = match Client::connect(&args.connect).and_then(|mut c| c.stats()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot reach server at {}: {e}", args.connect);
            std::process::exit(1);
        }
    };
    let n = u32::try_from(stats.vertices).unwrap_or(u32::MAX);
    if n == 0 {
        eprintln!("error: server reports an empty graph");
        std::process::exit(1);
    }
    if args.churn > 0.0 && stats.dynamic == 0 {
        eprintln!("error: --churn needs a dynamic server (serve --dynamic)");
        std::process::exit(1);
    }

    // The idle fleet connects BEFORE the workload threads: a
    // worker-starving server would park its pool on these and never
    // answer a single query below.
    let idle_fleet = open_idle_fleet(&args.connect, args.idle_conns);

    println!(
        "fsdl-loadgen: {} conns x {} ops against {} (n = {n}, seed {}, zipf {}, \
         faults {}, churn {}, batch {}, idle conns {})",
        args.conns,
        args.ops,
        args.connect,
        args.seed,
        args.zipf,
        args.faults,
        args.churn,
        args.batch,
        idle_fleet.len()
    );

    let started = Instant::now();
    let results: Vec<Result<ConnReport, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.conns)
            .map(|c| {
                let args = &args;
                scope.spawn(move || run_connection(args, c as u64, n))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    // The fleet stayed open for the whole measured window.
    drop(idle_fleet);

    let mut total_ops = 0u64;
    let mut total_queries = 0u64;
    let mut total_updates = 0u64;
    let mut transport_failures = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for (c, result) in results.into_iter().enumerate() {
        match result {
            Ok(report) => {
                total_ops += report.ops;
                total_queries += report.queries;
                total_updates += report.updates;
                latencies.extend(report.latencies_us);
            }
            Err(e) => {
                eprintln!("connection {c} failed: {e}");
                transport_failures += 1;
            }
        }
    }

    let qps = total_queries as f64 / wall_s.max(1e-9);
    let p50 = percentile_us(&mut latencies, 0.50);
    let p99 = percentile_us(&mut latencies, 0.99);
    println!(
        "replayed {total_ops} ops ({total_queries} queries, {total_updates} updates) \
         in {wall_s:.2}s: {qps:.0} queries/s, p50 {p50:.1}us, p99 {p99:.1}us"
    );

    // The server's own error counter is the ground truth for protocol
    // hygiene: this run must not have tripped it.
    let server_errors = match Client::connect(&args.connect).and_then(|mut c| c.stats()) {
        Ok(after) => after.protocol_errors.saturating_sub(stats.protocol_errors),
        Err(e) => {
            eprintln!("error: cannot re-read server stats: {e}");
            transport_failures += 1;
            0
        }
    };
    println!("protocol errors during run: {server_errors}");

    if args.shutdown {
        match Client::connect(&args.connect).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("sent shutdown; server draining"),
            Err(e) => {
                eprintln!("error: shutdown failed: {e}");
                transport_failures += 1;
            }
        }
    }

    if transport_failures > 0 || server_errors > 0 {
        eprintln!(
            "FAIL: {transport_failures} transport failure(s), {server_errors} protocol error(s)"
        );
        std::process::exit(1);
    }
}
