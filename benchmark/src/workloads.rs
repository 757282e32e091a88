//! The timed, untraced run of each workload: the end-to-end metrics.
//!
//! Every loop is *closed* — the oracle's callers are routers and planners
//! that wait for the reply — with the connection count `spec` states.
//! Replies are recorded and judged after the window, never inside it.

use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use fsdl_graph::{FaultSet, Graph, NodeId};
use fsdl_labels::partition::PartitionPlan;
use fsdl_labels::{
    write_shard_stores, DecodeScratch, DynamicConfig, DynamicOracle, ForbiddenSetOracle, OpenMode,
    RebuildMode,
};
use fsdl_routing::Network;
use fsdl_server::{Endpoint, QueryReply, ServeEngine, WireFaults};

use crate::env::{dir_bytes, peak_rss_mib, WorkDir, MIB};
use crate::ops::{epochs, ChurnModel, Op, Rebuild};
use crate::serve::{connect, Context, Fleet, Res, Served};
use crate::spec::{Workload, EPSILON, SHARDS};
use crate::stats::{beyond, median, quantile_sorted, sorted};
use crate::verify::{reply_of, Checker, Tally};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub ops: Vec<Op>,
    /// Length of the timed window.
    pub seconds: f64,
    /// How often set-up is repeated (`setup_s` is `SETUP_QUANTILE` of them).
    pub setup_reps: usize,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Sample counts and other context for the human-readable report.
    pub notes: Vec<String>,
}

/// One recorded query of a static workload.
pub struct Sample {
    /// Index into the op stream.
    pub op: usize,
    pub nanos: u64,
    /// When the reply arrived, in seconds since the window opened.
    pub end_s: f64,
    pub reply: Result<QueryReply, String>,
}

/// Untimed ops each connection sends first, so decode scratch buffers
/// have grown and lazy set-up is over before the window opens. They come
/// from the end of the stream, which the window does not reach.
const WARMUP_OPS: usize = 32;

/// Every `IDENTITY_EVERY`-th recorded reply is also replayed on the
/// in-process oracle and must match bit for bit; the BFS check covers
/// all of them. (Replaying all would take as long as the window itself.)
const IDENTITY_EVERY: usize = 8;

pub fn run(config: &RunConfig, work: &WorkDir) -> Res<Outcome> {
    match config.workload {
        Workload::ServeHot => serve_hot(config, work),
        Workload::RouteSharded => route_sharded(config, work),
        Workload::StoreCold => store_cold(config, work),
        Workload::DynamicChurn => dynamic_churn(config, work),
    }
}

// ---- shared pieces ---------------------------------------------------------

/// Seconds `f` takes, beside its result.
pub fn timed<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, f64)> {
    let started = Instant::now();
    let value = f()?;
    Ok((value, started.elapsed().as_secs_f64()))
}

/// Repeats the workload's set-up until it has run `reps` times in all
/// (`first` is the one the window ran on) and returns every repetition's
/// seconds. The repetitions come *after* the window and after
/// `peak_rss_mib` is read, so what they leave in the heap is in neither.
fn more_setups<T>(
    first: f64,
    reps: usize,
    mut build: impl FnMut() -> Res<T>,
    mut teardown: impl FnMut(T) -> Res<()>,
) -> Res<Vec<f64>> {
    let mut seconds = vec![first];
    for _ in 1..reps {
        let (built, took) = timed(&mut build)?;
        seconds.push(took);
        teardown(built)?;
    }
    Ok(seconds)
}

/// The workload's labels, all materialized. One worker, like the
/// servers: on this sandbox a second thread gets a core of its own only
/// some of the time (a parallel build takes 1x or 0.5x from one run to
/// the next), and the numbers should mean the same on a wider box.
pub fn built_oracle(g: &Graph) -> ForbiddenSetOracle {
    let oracle = ForbiddenSetOracle::new(g, EPSILON);
    oracle.prewarm_workers(1);
    oracle
}

pub fn query_parts(op: &Op) -> (u32, u32, &WireFaults) {
    match op {
        Op::Query { s, t, faults } => (*s, *t, faults),
        other => panic!("static streams hold queries only, found {other:?}"),
    }
}

/// Drives `connections` closed-loop clients against `endpoint` for
/// `seconds`: connection `c` sends ops `c, c + connections, …`, each
/// after the previous reply. Returns the samples and the window's wall
/// seconds (start to the last reply).
pub fn drive_queries(
    endpoint: &Endpoint,
    ops: &[Op],
    connections: usize,
    seconds: f64,
) -> Res<(Vec<Sample>, f64)> {
    let mut clients = Vec::new();
    for c in 0..connections {
        let mut client = connect(endpoint)?;
        for k in 0..WARMUP_OPS {
            let (s, t, faults) = query_parts(&ops[ops.len() - 1 - (c * WARMUP_OPS + k)]);
            client
                .query(s, t, faults.clone())
                .context("warm-up query")?;
        }
        clients.push(client);
    }
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_connection: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut k = c;
                    while Instant::now() < deadline {
                        let op = k % ops.len();
                        let (s, t, faults) = query_parts(&ops[op]);
                        let faults = faults.clone();
                        let sent = Instant::now();
                        let reply = client.query(s, t, faults);
                        let nanos = sent.elapsed().as_nanos() as u64;
                        let end_s = started.elapsed().as_secs_f64();
                        samples.push(Sample {
                            op,
                            nanos,
                            end_s,
                            reply: reply.map_err(|e| e.to_string()),
                        });
                        k += connections;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    Ok((per_connection.into_iter().flatten().collect(), wall))
}

/// Queries the servers answered on behalf of `drive_queries`.
fn queries_sent(samples: &[Sample], connections: usize) -> u64 {
    (samples.iter().filter(|s| s.reply.is_ok()).count() + connections * WARMUP_OPS) as u64
}

/// Judges the recorded replies of a static workload.
pub fn verify_static(
    g: &Graph,
    oracle: &ForbiddenSetOracle,
    ops: &[Op],
    samples: &[Sample],
) -> Tally {
    let checker = Checker::new(g, EPSILON);
    let mut scratch = DecodeScratch::new();
    let mut tally = Tally::default();
    for (k, sample) in samples.iter().enumerate() {
        let (s, t, faults) = query_parts(&ops[sample.op]);
        let faults = faults.to_fault_set();
        let reference = (k % IDENTITY_EVERY == 0).then(|| {
            reply_of(&oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch))
        });
        let reply = sample.reply.as_ref().map_err(String::as_str);
        tally.record(checker.check(s, t, &faults, reply, reference.as_ref()));
    }
    tally
}

/// Mean encoded label size over *all* vertices, in bytes (exact).
pub fn label_bytes_mean(oracle: &ForbiddenSetOracle) -> Res<f64> {
    let n = oracle.labeling().graph().num_vertices();
    let mut total = 0usize;
    for v in 0..n {
        total += oracle
            .encoded_label(NodeId::from_index(v))
            .context("encode label")?
            .0
            .len();
    }
    Ok(total as f64 / n as f64)
}

/// Time slices the window is cut into. Throughput, p50 and p99 are each
/// taken per slice, and the slice a tenth of the way in from the *quiet*
/// end is reported (from the fastest for latencies, from the busiest for
/// throughput). On this shared 2-core sandbox interference arrives in
/// spells of several seconds that slow every op in them by 10-40 %; it
/// only ever slows a slice, and a median over slices flips whenever the
/// spells cover half the window. A regression in the program slows every
/// slice alike, so it moves this quantile as much as it would the median.
/// README.md has the spreads measured for the alternatives.
const SLICES: usize = 40;
const QUIET_QUANTILE: f64 = 0.1;
/// `setup_s` is this quantile of the run's set-up repetitions: the median
/// of the static workloads' three, the lower quartile of
/// `dynamic-churn`'s dozen. The latter are bimodal (0.10 s or 0.18 s,
/// about evenly): `attach_store` materializes labels on two threads, and a
/// second thread gets a core of its own only part of the time here, so
/// their median flips between the modes from run to run.
const SETUP_QUANTILE: f64 = 0.25;

/// One time slice of the window (one epoch, for `dynamic-churn`).
struct Slice {
    seconds: f64,
    ops: usize,
    query_ms: Vec<f64>,
}

fn slices_of(samples: &[Sample], wall_seconds: f64) -> Vec<Slice> {
    let length = wall_seconds / SLICES as f64;
    let mut slices: Vec<Slice> = (0..SLICES)
        .map(|_| Slice {
            seconds: length,
            ops: 0,
            query_ms: Vec::new(),
        })
        .collect();
    for sample in samples {
        let slice = &mut slices[((sample.end_s / length) as usize).min(SLICES - 1)];
        slice.ops += 1;
        slice.query_ms.push(sample.nanos as f64 / 1e6);
    }
    slices
}

/// Every end-to-end metric, in report order (`BENCHMARK.json` fixes each
/// one's direction and bound).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("stretch_max", "ratio"),
    ("label_bytes_mean", "B"),
    ("peak_rss_mib", "MiB"),
];

/// What the end-to-end metrics are computed from.
struct EndToEnd {
    setup_seconds: Vec<f64>,
    slices: Vec<Slice>,
    label_bytes_mean: f64,
    peak_rss_mib: f64,
}

fn finish(mut e: EndToEnd, tally: Tally, mut notes: Vec<String>) -> Outcome {
    // A slice in which nothing completed (a stall, or a smoke run's
    // 25 ms slices) has no percentiles; it is on the slow side anyway.
    e.slices.retain(|s| s.ops > 0);
    let per_slice: Vec<Vec<f64>> = e
        .slices
        .iter()
        .map(|s| sorted(s.query_ms.clone()))
        .collect();
    let samples: usize = per_slice.iter().map(Vec::len).sum();
    let fewest = per_slice.iter().map(Vec::len).min().unwrap_or(0);
    notes.push(format!(
        "query samples: {samples} in {} slices; p99 is the quiet-decile slice's, with {} to {} samples beyond it per slice ({} in all); set-up repetitions: {}",
        per_slice.len(),
        beyond(fewest, 0.99),
        beyond(per_slice.iter().map(Vec::len).max().unwrap_or(0), 0.99),
        per_slice.iter().map(|s| beyond(s.len(), 0.99)).sum::<usize>(),
        e.setup_seconds.len()
    ));
    let over_slices = |quantile: f64, f: &dyn Fn(usize) -> f64| {
        quantile_sorted(&sorted((0..per_slice.len()).map(f).collect()), quantile)
    };
    let throughput = |k: usize| e.slices[k].ops as f64 / e.slices[k].seconds;
    let values = [
        quantile_sorted(&sorted(e.setup_seconds), SETUP_QUANTILE),
        over_slices(1.0 - QUIET_QUANTILE, &throughput),
        over_slices(QUIET_QUANTILE, &|k| quantile_sorted(&per_slice[k], 0.5)),
        over_slices(QUIET_QUANTILE, &|k| quantile_sorted(&per_slice[k], 0.99)),
        tally.stretch_max,
        e.label_bytes_mean,
        e.peak_rss_mib,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Outcome {
        tally,
        metrics,
        notes,
    }
}

// ---- serve-hot -------------------------------------------------------------

pub struct HotServer {
    pub network: Arc<Network>,
    pub served: Served,
}

/// Graph → labels prewarmed in the arena → bound server → first answered
/// frame.
pub fn start_hot(g: &Graph, work: &WorkDir) -> Res<HotServer> {
    let network = Arc::new(Network::from_oracle(built_oracle(g)));
    let socket = work.path().join("serve.sock");
    let served = Served::start(&socket, ServeEngine::Static(Arc::clone(&network)))?;
    connect(&served.endpoint)?.stats().context("first frame")?;
    Ok(HotServer { network, served })
}

fn serve_hot(config: &RunConfig, work: &WorkDir) -> Res<Outcome> {
    let g = config.workload.graph();
    let connections = config.workload.connections();
    let (hot, first_setup) = timed(|| start_hot(&g, work))?;
    let (samples, wall_seconds) = drive_queries(
        &hot.served.endpoint,
        &config.ops,
        connections,
        config.seconds,
    )?;
    let peak_rss_mib = peak_rss_mib();
    let report = hot.served.drain()?;
    if report.queries != queries_sent(&samples, connections) {
        return Err(format!(
            "server counted {} queries, clients got {} answers",
            report.queries,
            queries_sent(&samples, connections)
        ));
    }
    let oracle = hot.network.oracle();
    let tally = verify_static(&g, oracle, &config.ops, &samples);
    let label_bytes_mean = label_bytes_mean(oracle)?;
    drop(hot.network);
    let setup_seconds = more_setups(
        first_setup,
        config.setup_reps,
        || start_hot(&g, work),
        |hot| hot.served.drain().map(drop),
    )?;
    let e = EndToEnd {
        setup_seconds,
        slices: slices_of(&samples, wall_seconds),
        label_bytes_mean,
        peak_rss_mib,
    };
    Ok(finish(e, tally, Vec::new()))
}

// ---- route-sharded ---------------------------------------------------------

pub struct ShardedPlane {
    pub oracle: ForbiddenSetOracle,
    pub plan: PartitionPlan,
    pub fleet: Fleet,
    pub dir: std::path::PathBuf,
    /// Seconds inside `write_shard_stores`.
    pub write_shards_s: f64,
}

/// Graph → labels → shard stores on disk → shard servers → router →
/// first answered frame.
pub fn start_sharded(g: &Graph, work: &WorkDir) -> Res<ShardedPlane> {
    let oracle = built_oracle(g);
    let plan = PartitionPlan::for_oracle(&oracle, SHARDS);
    let dir = work.fresh("shards")?;
    let started = Instant::now();
    write_shard_stores(&oracle, &dir, &plan).context("write shard stores")?;
    let write_shards_s = started.elapsed().as_secs_f64();
    let fleet = Fleet::start(&dir, &plan)?;
    connect(&fleet.endpoint)?.stats().context("first frame")?;
    Ok(ShardedPlane {
        oracle,
        plan,
        fleet,
        dir,
        write_shards_s,
    })
}

fn route_sharded(config: &RunConfig, work: &WorkDir) -> Res<Outcome> {
    let g = config.workload.graph();
    let connections = config.workload.connections();
    let (plane, first_setup) = timed(|| start_sharded(&g, work))?;
    let (samples, wall_seconds) = drive_queries(
        &plane.fleet.endpoint,
        &config.ops,
        connections,
        config.seconds,
    )?;
    let peak_rss_mib = peak_rss_mib();
    let store_mib = dir_bytes(&plane.dir) as f64 / MIB;
    let (report, shard_fetches) = plane.fleet.drain()?;
    if report.queries != queries_sent(&samples, connections) {
        return Err(format!(
            "router counted {} queries, clients got {} answers",
            report.queries,
            queries_sent(&samples, connections)
        ));
    }
    let tally = verify_static(&g, &plane.oracle, &config.ops, &samples);
    let notes = vec![format!(
        "store_mib {store_mib:.3}; router made {} upstream fetches ({:.3} per query), shards served {shard_fetches}",
        report.upstream_fetches,
        report.upstream_fetches as f64 / report.queries.max(1) as f64,
    )];
    let label_bytes_mean = label_bytes_mean(&plane.oracle)?;
    drop(plane.oracle);
    let setup_seconds = more_setups(
        first_setup,
        config.setup_reps,
        || start_sharded(&g, work),
        |plane| plane.fleet.drain().map(drop),
    )?;
    let e = EndToEnd {
        setup_seconds,
        slices: slices_of(&samples, wall_seconds),
        label_bytes_mean,
        peak_rss_mib,
    };
    Ok(finish(e, tally, notes))
}

// ---- store-cold ------------------------------------------------------------

pub struct SavedStore {
    pub oracle: ForbiddenSetOracle,
    pub dir: std::path::PathBuf,
    /// Seconds inside `ForbiddenSetOracle::save`.
    pub save_s: f64,
}

/// Graph → labels → saved store. The first answerable op is an open, so
/// set-up ends when the store is durable.
pub fn save_store(g: &Graph, work: &WorkDir) -> Res<SavedStore> {
    let oracle = built_oracle(g);
    let dir = work.fresh("store")?;
    let started = Instant::now();
    oracle.save(&dir).context("save store")?;
    Ok(SavedStore {
        oracle,
        dir,
        save_s: started.elapsed().as_secs_f64(),
    })
}

/// One op of the one-shot path (`fsdl query --store`): open lazily, answer
/// one query on labels no one has touched, drop the oracle.
pub fn cold_query(
    dir: &Path,
    g: &Graph,
    s: u32,
    t: u32,
    faults: &FaultSet,
    scratch: &mut DecodeScratch,
) -> Res<QueryReply> {
    let oracle = ForbiddenSetOracle::open_with(dir, g, OpenMode::Lazy).context("open store")?;
    let answer = oracle
        .try_query_with(NodeId::new(s), NodeId::new(t), faults, scratch)
        .context("query")?;
    Ok(reply_of(&answer))
}

fn store_cold(config: &RunConfig, work: &WorkDir) -> Res<Outcome> {
    let g = config.workload.graph();
    let (saved, first_setup) = timed(|| save_store(&g, work))?;
    let ops = &config.ops;
    let mut scratch = DecodeScratch::new();
    for k in 0..WARMUP_OPS {
        let (s, t, faults) = query_parts(&ops[ops.len() - 1 - k]);
        cold_query(&saved.dir, &g, s, t, &faults.to_fault_set(), &mut scratch)?;
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(config.seconds);
    while Instant::now() < deadline {
        let op = samples.len() % ops.len();
        let (s, t, faults) = query_parts(&ops[op]);
        let faults = faults.to_fault_set();
        let opened = Instant::now();
        let reply = cold_query(&saved.dir, &g, s, t, &faults, &mut scratch);
        let nanos = opened.elapsed().as_nanos() as u64;
        samples.push(Sample {
            op,
            nanos,
            end_s: started.elapsed().as_secs_f64(),
            reply,
        });
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib();
    let tally = verify_static(&g, &saved.oracle, ops, &samples);
    let notes = vec![format!(
        "store_mib {:.3}",
        dir_bytes(&saved.dir) as f64 / MIB
    )];
    let label_bytes_mean = label_bytes_mean(&saved.oracle)?;
    drop(saved);
    let setup_seconds = more_setups(
        first_setup,
        config.setup_reps,
        || save_store(&g, work),
        |_saved| Ok(()),
    )?;
    let e = EndToEnd {
        setup_seconds,
        slices: slices_of(&samples, wall_seconds),
        label_bytes_mean,
        peak_rss_mib,
    };
    Ok(finish(e, tally, notes))
}

// ---- dynamic-churn ---------------------------------------------------------

pub struct ChurnServer {
    pub oracle: Arc<RwLock<DynamicOracle>>,
    pub served: Served,
    pub dir: std::path::PathBuf,
}

/// A dynamic oracle on the pristine graph with a fresh store and WAL
/// attached under `work`: blocking rebuilds at the default `⌈√n⌉`.
pub fn churn_oracle(
    g: &Graph,
    work: &WorkDir,
    name: &str,
) -> Res<(DynamicOracle, std::path::PathBuf)> {
    let config = DynamicConfig {
        epsilon: EPSILON,
        threshold: None,
        mode: RebuildMode::Blocking,
        rebuild_workers: 0,
    };
    let mut oracle = DynamicOracle::try_with_config(g, config).context("dynamic oracle")?;
    let dir = work.fresh(name)?;
    oracle.attach_store(&dir).context("attach store")?;
    Ok((oracle, dir))
}

/// Pristine graph → dynamic oracle → store + WAL attached → bound server
/// → first answered frame.
pub fn start_churn(g: &Graph, work: &WorkDir) -> Res<ChurnServer> {
    let (oracle, dir) = churn_oracle(g, work, "dynamic")?;
    let oracle = Arc::new(RwLock::new(oracle));
    let socket = work.path().join("dynamic.sock");
    let served = Served::start(&socket, ServeEngine::Dynamic(Arc::clone(&oracle)))?;
    connect(&served.endpoint)?.stats().context("first frame")?;
    Ok(ChurnServer {
        oracle,
        served,
        dir,
    })
}

/// What one served epoch recorded.
pub struct EpochRecord {
    /// Per op of the epoch: the distance a query got, or the error.
    pub replies: Vec<Result<u32, String>>,
    pub query_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub seconds: f64,
    pub store_bytes: u64,
    /// `VmHWM` just before the epoch's first rebuild.
    pub rss_before_rebuild_mib: f64,
}

/// Runs one epoch on a fresh server over one connection and checks the
/// oracle rebuilt exactly where the model says it must.
pub fn serve_epoch(g: &Graph, epoch: &[Op], work: &WorkDir) -> Res<(EpochRecord, f64)> {
    let setup = Instant::now();
    let churn = start_churn(g, work)?;
    let mut client = connect(&churn.served.endpoint)?;
    let setup_seconds = setup.elapsed().as_secs_f64();

    let mut model = ChurnModel::new(g.num_vertices());
    let mut expected_rebuilds = 0u64;
    let mut record = EpochRecord {
        replies: Vec::with_capacity(epoch.len()),
        query_ms: Vec::new(),
        update_ms: Vec::new(),
        seconds: 0.0,
        store_bytes: 0,
        rss_before_rebuild_mib: 0.0,
    };
    let (mut queries_ok, mut updates_ok) = (0u64, 0u64);
    let started = Instant::now();
    for op in epoch {
        match op {
            Op::Query { s, t, .. } => {
                let sent = Instant::now();
                let reply = client.query(*s, *t, WireFaults::default());
                record.query_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                queries_ok += u64::from(reply.is_ok());
                record
                    .replies
                    .push(reply.map(|r| r.distance).map_err(|e| e.to_string()));
            }
            Op::Update(update) => {
                if model.apply(update) != Rebuild::None {
                    if expected_rebuilds == 0 {
                        record.rss_before_rebuild_mib = peak_rss_mib();
                    }
                    expected_rebuilds += 1;
                }
                let sent = Instant::now();
                let reply = client.update(*update);
                record.update_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                updates_ok += u64::from(reply.is_ok());
                record
                    .replies
                    .push(reply.map(|_| 0).map_err(|e| e.to_string()));
            }
            Op::EpochStart => unreachable!("epochs() drops the markers"),
        }
    }
    record.seconds = started.elapsed().as_secs_f64();
    drop(client);
    record.store_bytes = dir_bytes(&churn.dir);
    let report = churn.served.drain()?;
    if (report.queries, report.updates) != (queries_ok, updates_ok) {
        return Err(format!(
            "server counted {} queries / {} updates, client got {queries_ok} / {updates_ok}",
            report.queries, report.updates
        ));
    }
    let rebuilds = churn
        .oracle
        .read()
        .map_err(|_| "oracle lock poisoned".to_string())?
        .stats()
        .rebuilds;
    if rebuilds != expected_rebuilds {
        return Err(format!(
            "oracle rebuilt {rebuilds} times, the op stream calls for {expected_rebuilds}"
        ));
    }
    Ok((record, setup_seconds))
}

/// Judges one epoch's replies: `F` at each query comes from replaying
/// the updates on the model. No bit-identity here — in dynamic mode the
/// wire carries the distance only.
pub fn verify_epoch(
    g: &Graph,
    checker: &Checker,
    epoch: &[Op],
    record: &EpochRecord,
    tally: &mut Tally,
) {
    let mut model = ChurnModel::new(g.num_vertices());
    let mut faults = model.fault_set();
    for (op, reply) in epoch.iter().zip(&record.replies) {
        match op {
            Op::Query { s, t, .. } => {
                let reply = reply.as_ref().map(|&distance| QueryReply {
                    distance,
                    ..QueryReply::default()
                });
                let reply = reply.as_ref().map_err(|e| e.as_str());
                tally.record(checker.check(*s, *t, &faults, reply, None));
            }
            Op::Update(update) => {
                model.apply(update);
                faults = model.fault_set();
                match reply {
                    Ok(_) => tally.record(Ok(None)),
                    Err(_) => tally.record_error(),
                }
            }
            Op::EpochStart => unreachable!("epochs() drops the markers"),
        }
    }
}

fn dynamic_churn(config: &RunConfig, work: &WorkDir) -> Res<Outcome> {
    let g = config.workload.graph();
    let all = epochs(&config.ops);
    let checker = Checker::new(&g, EPSILON);
    let mut tally = Tally::default();
    let (mut setup_seconds, mut slices, mut update_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spent, mut store_bytes, mut rss) = (0.0, Vec::new(), 0.0);
    // Whole epochs until the window is used up: each runs on a fresh
    // oracle, so its set-up is timed too and `setup_s` is their median.
    while spent < config.seconds {
        let epoch = all[setup_seconds.len() % all.len()];
        let (record, setup) = serve_epoch(&g, epoch, work)?;
        verify_epoch(&g, &checker, epoch, &record, &mut tally);
        setup_seconds.push(setup);
        spent += record.seconds;
        if slices.is_empty() {
            // One set-up and the ops on it, up to the first rebuild. What a
            // rebuild adds (two generations alive, built on two threads)
            // depends on glibc's thread-to-arena assignment and swings
            // +-8 % between runs of the same binary; the traced run reports
            // it, unbounded, as `dynamic.peak_rss_mib`.
            rss = record.rss_before_rebuild_mib;
        }
        store_bytes.push(record.store_bytes as f64);
        update_ms.extend(record.update_ms);
        slices.push(Slice {
            seconds: record.seconds,
            ops: epoch.len(),
            query_ms: record.query_ms,
        });
    }
    let update_ms = sorted(update_ms);
    let notes = vec![format!(
        "epochs: {}; update samples: {} ({} beyond p99), update_p50_ms {:.4}, update_p99_ms {:.4}; store_mib {:.3}",
        setup_seconds.len(),
        update_ms.len(),
        beyond(update_ms.len(), 0.99),
        quantile_sorted(&update_ms, 0.5),
        quantile_sorted(&update_ms, 0.99),
        median(store_bytes) / MIB,
    )];
    let pristine = ForbiddenSetOracle::new(&g, EPSILON);
    let e = EndToEnd {
        setup_seconds,
        slices,
        label_bytes_mean: label_bytes_mean(&pristine)?,
        peak_rss_mib: rss,
    };
    Ok(finish(e, tally, notes))
}
