//! The traced run: per-layer metrics.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions. Two things are replayed over the first ops of the stream:
//!
//! * a *served pass* on one connection through [`SpanClient`], every op
//!   once with the tracer off and once with it on — their p50 ratio is
//!   `trace.overhead_ratio`;
//! * a *layer pass* in which the benchmark plays the server (or router)
//!   itself, calling each layer in pipeline order under one parent span
//!   per op. Self time = span minus children; the per-layer medians come
//!   from this pass, and the served p50 minus the pass's per-op p50 is the
//!   `*.unattributed_us_p50` residue only in-program spans could split.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fsdl_baselines::ExactOracle;
use fsdl_graph::{Graph, NodeId};
use fsdl_labels::codec::{self, VarintScratch};
use fsdl_labels::wal::Wal;
use fsdl_labels::{
    query_with_scratch, DecodeScratch, ForbiddenSetOracle, Label, LabelScratch, Labeling, OpenMode,
    QueryAnswer, QueryLabels, WalRecord,
};
use fsdl_server::{Client, QueryReply, Request, Response, UpdateOp, WireFaults};

use crate::env::{dir_bytes, peak_rss_mib, WorkDir, MIB};
use crate::ops::{epochs, ChurnModel, Op, Rebuild};
use crate::rng::Rng;
use crate::serve::{connect, Context, Res, SpanClient};
use crate::spec::{Workload, EPSILON};
use crate::stats::{beyond, mean, median, quantile_sorted, sorted};
use crate::trace::Tracer;
use crate::verify::{reply_of, Checker, Tally};
use crate::workloads::{
    churn_oracle, query_parts, save_store, serve_epoch, start_churn, start_hot, start_sharded,
    verify_epoch, Metric, Outcome, RunConfig,
};

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports 0 for it — which is itself the claim that
/// the workload bypasses that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("builder.hierarchy_build_ms", "ms"),
    ("builder.label_of_us_p50", "us"),
    ("builder.saturated_level_fraction", "ratio"),
    ("codec.encode_us_p50", "us"),
    ("codec.decode_us_p50", "us"),
    ("codec.decode_mb_s", "MB/s"),
    ("decode.query_us_p50.f0", "us"),
    ("decode.query_us_p50.f1-4", "us"),
    ("decode.query_us_p50.f16", "us"),
    ("decode.sketch_edges_mean", "count"),
    ("decode.labels_per_query_mean", "count"),
    ("oracle.resident_label_mib", "MiB"),
    ("store.save_s", "s"),
    ("store.open_eager_s", "s"),
    ("store.open_lazy_us_p50", "us"),
    ("store.first_touch_label_us_p50", "us"),
    ("store.disk_mib", "MiB"),
    ("wal.append_us_p50", "us"),
    ("dynamic.update_us_p50", "us"),
    ("dynamic.query_us_p50", "us"),
    ("dynamic.rebuild_ms_p50", "ms"),
    ("dynamic.rebuilds", "count"),
    ("dynamic.buffered_mean", "count"),
    ("dynamic.peak_rss_mib", "MiB"),
    ("partition.write_shards_s", "s"),
    ("partition.shard_imbalance", "ratio"),
    ("protocol.query_codec_us_p50", "us"),
    ("protocol.label_fetch_codec_us_p50", "us"),
    ("server.ping_rtt_us_p50", "us"),
    ("server.served_us_p50", "us"),
    ("server.unattributed_us_p50", "us"),
    ("router.label_fetch_rtt_us_p50", "us"),
    ("router.fetches_per_query", "count"),
    ("router.fetch_kib_per_query", "KiB"),
    ("router.unattributed_us_p50", "us"),
    ("baselines.exact_bfs_us_p50", "us"),
    ("baselines.oracle_vs_bfs_ratio", "ratio"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_pass_op_us_p50", "us"),
    ("trace.share.decode", "ratio"),
    ("trace.share.codec", "ratio"),
    ("trace.share.fetch", "ratio"),
    ("trace.share.store", "ratio"),
    ("trace.share.protocol", "ratio"),
    ("trace.share.dynamic_query", "ratio"),
    ("trace.share.dynamic_update", "ratio"),
];

/// Share of `--seconds` the paired served pass may take; the layer pass
/// then replays the ops it got through.
const SERVED_PASS_SHARE: f64 = 0.3;
/// Vertices whose labels the builder and codec probes time.
const PROBE_LABELS: usize = 24;
/// Queries of the `|F| = 16` side probe (the `|F|²` term).
const F16_QUERIES: usize = 64;
const PING_ROUND_TRIPS: usize = 200;
const WAL_APPENDS: usize = 200;

struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    fn outcome(self, tally: Tally, notes: Vec<String>) -> Outcome {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        Outcome {
            tally,
            metrics,
            notes,
        }
    }
}

pub fn run(config: &RunConfig, work: &WorkDir, trace_out: Option<&Path>) -> Res<Outcome> {
    let mut layers = Layers::new();
    let mut tracer = Tracer::on(1 << 18);
    let (tally, notes) = match config.workload {
        Workload::ServeHot => serve_hot(config, work, &mut layers, &mut tracer)?,
        Workload::RouteSharded => route_sharded(config, work, &mut layers, &mut tracer)?,
        Workload::StoreCold => store_cold(config, work, &mut layers, &mut tracer)?,
        Workload::DynamicChurn => dynamic_churn(config, work, &mut layers, &mut tracer)?,
    };
    shares(&tracer, &mut layers);
    if let Some(dir) = trace_out {
        std::fs::create_dir_all(dir).context("create trace dir")?;
        let path = dir.join(format!("trace-{}.jsonl", config.workload.name()));
        tracer
            .write_jsonl(config.workload.name(), &path)
            .context("write trace")?;
    }
    Ok(layers.outcome(tally, notes))
}

// ---- shared pieces ---------------------------------------------------------

fn p50(samples: &[f64]) -> f64 {
    median(samples.to_vec())
}

fn us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

/// Runs `op(i, tracer)` for `i = 0, 1, …` until `budget_s` is spent (or
/// `limit` ops), each once with a disabled tracer and once with
/// `tracer`, alternating which goes first so drift cancels. `op` returns
/// the microseconds it measured around the part that counts; the result
/// is those values for both sides.
fn paired(
    budget_s: f64,
    limit: usize,
    tracer: &mut Tracer,
    mut op: impl FnMut(usize, &mut Tracer) -> Res<f64>,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let mut off = Tracer::off();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    while i < limit && started.elapsed().as_secs_f64() < budget_s {
        for side in 0..2 {
            let tracing = (i + side) % 2 == 1;
            let measured = op(i, if tracing { &mut *tracer } else { &mut off })?;
            if tracing { &mut traced } else { &mut plain }.push(measured);
        }
        i += 1;
    }
    Ok((plain, traced))
}

/// Self-time shares of the layer pass: each group's summed self time over
/// the summed duration of the per-op parent spans.
fn shares(tracer: &Tracer, layers: &mut Layers) {
    let own = tracer.self_nanos();
    let total: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.nanos())
        .sum();
    if total == 0 {
        return;
    }
    let share = |names: &[&str]| {
        let sum: u64 = tracer
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, &nanos)| nanos)
            .sum();
        sum as f64 / total as f64
    };
    layers.set("trace.share.decode", share(&["decode.query"]));
    layers.set("trace.share.codec", share(&["codec.decode"]));
    layers.set("trace.share.fetch", share(&["router.fetch"]));
    layers.set(
        "trace.share.store",
        share(&["store.open", "store.first_touch"]),
    );
    layers.set(
        "trace.share.protocol",
        share(&["protocol.decode", "protocol.encode"]),
    );
    layers.set("trace.share.dynamic_query", share(&["dynamic.query"]));
    layers.set("trace.share.dynamic_update", share(&["dynamic.update"]));
}

/// Builder, codec and `|F| = 16` probes on the workload's own labels.
fn probe_labels(g: &Graph, oracle: &ForbiddenSetOracle, seed: u64, layers: &mut Layers) -> Res<()> {
    let n = g.num_vertices();
    let params = oracle.params().clone();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Labeling::build(g, params.clone()));
            us(t) / 1e3
        })
        .collect();
    layers.set("builder.hierarchy_build_ms", p50(&builds));

    let labeling = oracle.labeling();
    let nets = labeling.nets();
    let mut scratch = LabelScratch::new(n);
    let mut varints = VarintScratch::new();
    let (mut build_us, mut encode_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut saturated, mut levels, mut bytes) = (0usize, 0usize, 0usize);
    for k in 0..PROBE_LABELS.min(n) {
        let v = NodeId::from_index(k * n / PROBE_LABELS.min(n));
        let t = Instant::now();
        let label = labeling.label_of_with(v, &mut scratch);
        build_us.push(us(t));
        for (i, level) in label.levels_iter() {
            let net = params.stored_net_level(i).min(nets.top_level());
            levels += 1;
            saturated += usize::from(level.points.len() == nets.net_points(net).count());
        }
        let t = Instant::now();
        let encoded = codec::encode(&label, n);
        encode_us.push(us(t));
        bytes += encoded.as_bytes().len();
        let t = Instant::now();
        let back = codec::decode_with(encoded.as_bytes(), encoded.len_bits(), n, &mut varints);
        decode_us.push(us(t));
        if back.context("decode probe label")? != label {
            return Err(format!("label of {v} does not survive the codec"));
        }
    }
    layers.set("builder.label_of_us_p50", p50(&build_us));
    layers.set(
        "builder.saturated_level_fraction",
        saturated as f64 / levels.max(1) as f64,
    );
    layers.set("codec.encode_us_p50", p50(&encode_us));
    layers.set("codec.decode_us_p50", p50(&decode_us));
    layers.set(
        "codec.decode_mb_s",
        bytes as f64 / decode_us.iter().sum::<f64>().max(1e-9),
    );

    let mut rng = Rng::new(seed, 9);
    let mut decode = DecodeScratch::new();
    let mut f16 = Vec::new();
    for _ in 0..F16_QUERIES {
        let mut ids: Vec<u32> = Vec::new();
        while ids.len() < 18 {
            let v = rng.below(n as u32);
            if !ids.contains(&v) {
                ids.push(v);
            }
        }
        let labels: Vec<Arc<Label>> = ids.iter().map(|&v| oracle.label(NodeId::new(v))).collect();
        let faults = QueryLabels {
            fault_vertices: labels[2..].iter().map(Arc::as_ref).collect(),
            fault_edges: Vec::new(),
        };
        let t = Instant::now();
        std::hint::black_box(query_with_scratch(
            &params,
            &labels[0],
            &labels[1],
            &faults,
            &mut decode,
        ));
        f16.push(us(t));
    }
    layers.set("decode.query_us_p50.f16", p50(&f16));
    Ok(())
}

/// One eager open (read + checksum everything) of an already saved store.
fn probe_eager_open(dir: &Path, g: &Graph, layers: &mut Layers) -> Res<()> {
    let t = Instant::now();
    std::hint::black_box(
        ForbiddenSetOracle::open_with(dir, g, OpenMode::Eager).context("eager open")?,
    );
    layers.set("store.open_eager_s", us(t) / 1e6);
    Ok(())
}

fn ping_rtt(client: &mut Client, layers: &mut Layers) -> Res<()> {
    let mut rtt = Vec::with_capacity(PING_ROUND_TRIPS);
    for _ in 0..PING_ROUND_TRIPS {
        let t = Instant::now();
        client.stats().context("ping")?;
        rtt.push(us(t));
    }
    layers.set("server.ping_rtt_us_p50", p50(&rtt));
    Ok(())
}

/// The labels a query names, in the order the decoder takes them:
/// source, target, fault vertices, then both endpoints of each fault edge.
fn label_ids(s: u32, t: u32, faults: &WireFaults) -> Vec<u32> {
    let mut ids = vec![s, t];
    ids.extend(&faults.vertices);
    for &(a, b) in &faults.edges {
        ids.extend([a, b]);
    }
    ids
}

fn query_labels<'a, L: std::ops::Deref<Target = Label>>(
    labels: &'a [L],
    faults: &WireFaults,
) -> QueryLabels<'a> {
    let nv = faults.vertices.len();
    QueryLabels {
        fault_vertices: labels[2..2 + nv].iter().map(|l| &**l).collect(),
        fault_edges: labels[2 + nv..]
            .chunks(2)
            .map(|pair| (&*pair[0], &*pair[1]))
            .collect(),
    }
}

/// The two protocol ends of an op the benchmark plays itself: the frame a
/// client would send is decoded under `protocol.decode`, the answer is
/// encoded under `protocol.encode`, as a server's worker does per frame.
#[derive(Default)]
struct WireEnds {
    frame: Vec<u8>,
    out: Vec<u8>,
}

impl WireEnds {
    fn receive(&mut self, op: &Op, id: u32, tracer: &mut Tracer) -> Res<(u32, u32, WireFaults)> {
        let (s, t, faults) = query_parts(op);
        self.frame.clear();
        let request = Request::Query {
            s,
            t,
            faults: faults.clone(),
        };
        request.encode(&mut self.frame);
        let span = tracer.enter(id, "protocol.decode");
        let request = Request::decode(&self.frame);
        tracer.exit(span);
        match request {
            Ok(Request::Query { s, t, faults }) => Ok((s, t, faults)),
            _ => Err("query frame did not survive the protocol codec".into()),
        }
    }

    fn reply(&mut self, answer: &QueryAnswer, id: u32, tracer: &mut Tracer) -> QueryReply {
        let span = tracer.enter(id, "protocol.encode");
        let reply = reply_of(answer);
        self.out.clear();
        Response::Query(reply.clone()).encode(&mut self.out);
        tracer.exit(span);
        reply
    }
}

/// What the paired served pass of a static workload produced.
struct ServedPass {
    /// Ops it got through; the layer pass replays exactly these.
    ops: usize,
    replies: Vec<QueryReply>,
    plain_p50: f64,
}

/// Serves the stream's first ops on one connection, paired traced and
/// untraced, and judges every reply.
fn served_pass(
    client: &mut SpanClient,
    config: &RunConfig,
    checker: &Checker,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Res<ServedPass> {
    let ops = &config.ops;
    let mut replies: Vec<QueryReply> = Vec::new();
    let budget = config.seconds * SERVED_PASS_SHARE;
    let (plain, traced) = paired(budget, ops.len(), tracer, |i, tracer| {
        let (s, t, faults) = query_parts(&ops[i]);
        let request = Request::Query {
            s,
            t,
            faults: faults.clone(),
        };
        let sent = Instant::now();
        let root = tracer.enter(i as u32, "served");
        let response = client.call(i as u32, &request, tracer);
        tracer.exit(root);
        let measured = us(sent);
        let reply = match response {
            Ok(Response::Query(reply)) => Ok(reply),
            Ok(other) => Err(format!("unexpected {} reply", other.kind_name())),
            Err(e) => Err(e),
        };
        // The second serving of an op must repeat the first bit for bit.
        let reference = replies.get(i);
        let verdict = checker.check(
            s,
            t,
            &faults.to_fault_set(),
            reply.as_ref().map_err(String::as_str),
            reference,
        );
        tally.record(verdict);
        if replies.len() == i {
            replies.push(reply.unwrap_or_default());
        }
        Ok(measured)
    })?;
    layers.set("trace.overhead_ratio", p50(&traced) / p50(&plain).max(1e-9));
    layers.set("server.served_us_p50", p50(&plain));
    Ok(ServedPass {
        ops: replies.len(),
        replies,
        plain_p50: p50(&plain),
    })
}

/// Per-class decode medians, protocol codec, work counts and the BFS
/// comparator, from a finished static layer pass over ops `0..count`.
fn static_layer_metrics(
    g: &Graph,
    config: &RunConfig,
    count: usize,
    tracer: &Tracer,
    sketch_edges: &[f64],
    layers: &mut Layers,
) -> f64 {
    let ops = &config.ops[..count];
    let per_op = tracer.self_us_per_op();
    let decode = per_op.get("decode.query").cloned().unwrap_or_default();
    let faultless = |k: &usize| query_parts(&ops[*k]).2.is_empty();
    let class = |keep: &dyn Fn(&usize) -> bool| -> Vec<f64> {
        (0..count.min(decode.len()))
            .filter(keep)
            .map(|k| decode[k])
            .collect()
    };
    layers.set("decode.query_us_p50.f0", p50(&class(&faultless)));
    layers.set("decode.query_us_p50.f1-4", p50(&class(&|k| !faultless(k))));
    if let (Some(dec), Some(enc)) = (per_op.get("protocol.decode"), per_op.get("protocol.encode")) {
        let both: Vec<f64> = dec.iter().zip(enc).map(|(a, b)| a + b).collect();
        layers.set("protocol.query_codec_us_p50", p50(&both));
    }
    layers.set("decode.sketch_edges_mean", mean(sketch_edges));
    let labels: Vec<f64> = ops
        .iter()
        .map(|op| {
            let (s, t, faults) = query_parts(op);
            label_ids(s, t, faults).len() as f64
        })
        .collect();
    layers.set("decode.labels_per_query_mean", mean(&labels));

    let exact = ExactOracle::new(g);
    let bfs: Vec<f64> = ops
        .iter()
        .map(|op| {
            let (s, t, faults) = query_parts(op);
            let faults = faults.to_fault_set();
            let started = Instant::now();
            std::hint::black_box(exact.distance(NodeId::new(s), NodeId::new(t), &faults));
            us(started)
        })
        .collect();
    let op_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    let op_p50 = p50(&op_us);
    layers.set("trace.layer_pass_op_us_p50", op_p50);
    layers.set("baselines.exact_bfs_us_p50", p50(&bfs));
    layers.set(
        "baselines.oracle_vs_bfs_ratio",
        op_p50 / p50(&bfs).max(1e-9),
    );
    op_p50
}

// ---- serve-hot -------------------------------------------------------------

fn serve_hot(
    config: &RunConfig,
    work: &WorkDir,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Res<(Tally, Vec<String>)> {
    let g = config.workload.graph();
    let checker = Checker::new(&g, EPSILON);
    let mut tally = Tally::default();
    let hot = start_hot(&g, work)?;
    ping_rtt(&mut connect(&hot.served.endpoint)?, layers)?;
    let mut client = SpanClient::connect(&hot.served.endpoint)?;
    let served = served_pass(&mut client, config, &checker, tracer, layers, &mut tally)?;
    drop(client);
    hot.served.drain()?;

    // The layer pass: protocol decode -> resident labels -> decode ->
    // protocol encode, exactly what the server's worker does per frame.
    let oracle = hot.network.oracle();
    let params = oracle.params();
    let mut scratch = DecodeScratch::new();
    let mut wire = WireEnds::default();
    let mut sketch_edges = Vec::new();
    for i in 0..served.ops {
        let op = i as u32;
        let root = tracer.enter(op, "op");
        let (s, t, faults) = wire.receive(&config.ops[i], op, tracer)?;
        let span = tracer.enter(op, "oracle.label");
        let labels: Vec<Arc<Label>> = label_ids(s, t, &faults)
            .into_iter()
            .map(|v| oracle.label(NodeId::new(v)))
            .collect();
        tracer.exit(span);
        let span = tracer.enter(op, "decode.query");
        let answer = query_with_scratch(
            params,
            &labels[0],
            &labels[1],
            &query_labels(&labels, &faults),
            &mut scratch,
        );
        tracer.exit(span);
        let reply = wire.reply(&answer, op, tracer);
        tracer.exit(root);
        sketch_edges.push(answer.sketch_edges as f64);
        // Playing the server must give the server's own bits.
        tally.record(checker.check(
            s,
            t,
            &faults.to_fault_set(),
            Ok(&reply),
            Some(&served.replies[i]),
        ));
    }
    let op_p50 = static_layer_metrics(&g, config, served.ops, tracer, &sketch_edges, layers);
    layers.set("server.unattributed_us_p50", served.plain_p50 - op_p50);
    layers.set(
        "oracle.resident_label_mib",
        oracle.label_plane_stats().resident_label_bytes as f64 / MIB,
    );
    probe_labels(&g, oracle, config.seed, layers)?;
    Ok((
        tally,
        vec![format!(
            "ops replayed: {} (served twice, layer pass once)",
            served.ops
        )],
    ))
}

// ---- route-sharded ---------------------------------------------------------

fn route_sharded(
    config: &RunConfig,
    work: &WorkDir,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Res<(Tally, Vec<String>)> {
    let g = config.workload.graph();
    let n = g.num_vertices();
    let checker = Checker::new(&g, EPSILON);
    let mut tally = Tally::default();
    let plane = start_sharded(&g, work)?;
    layers.set("partition.write_shards_s", plane.write_shards_s);
    let sizes = plane.plan.shard_sizes();
    let largest = sizes.iter().copied().max().unwrap_or(0) as f64;
    layers.set(
        "partition.shard_imbalance",
        largest * sizes.len() as f64 / n as f64,
    );
    layers.set("store.disk_mib", dir_bytes(&plane.dir) as f64 / MIB);

    ping_rtt(&mut connect(&plane.fleet.endpoint)?, layers)?;
    let mut client = SpanClient::connect(&plane.fleet.endpoint)?;
    let served = served_pass(&mut client, config, &checker, tracer, layers, &mut tally)?;
    drop(client);

    // The layer pass plays the router against the live shards: protocol
    // decode -> label-fetch per shard -> varint decode -> decode ->
    // protocol encode.
    let mut shards = Vec::new();
    for shard in &plane.fleet.shards {
        shards.push(connect(&shard.endpoint)?);
    }
    let params = plane.oracle.params();
    let mut scratch = DecodeScratch::new();
    let mut varints = VarintScratch::new();
    let mut wire = WireEnds::default();
    let (mut sketch_edges, mut fetch_kib) = (Vec::new(), Vec::new());
    for i in 0..served.ops {
        let op = i as u32;
        let root = tracer.enter(op, "op");
        let (s, t, faults) = wire.receive(&config.ops[i], op, tracer)?;
        let ids = label_ids(s, t, &faults);
        let span = tracer.enter(op, "router.fetch");
        let mut fetched = BTreeMap::new();
        for (shard, client) in shards.iter_mut().enumerate() {
            let mut wanted: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&v| plane.plan.shard_of(NodeId::new(v)) as usize == shard)
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            if !wanted.is_empty() {
                for label in client.label_fetch(wanted).context("label fetch")?.labels {
                    fetched.insert(label.vertex, label);
                }
            }
        }
        tracer.exit(span);
        let span = tracer.enter(op, "codec.decode");
        let mut decoded = BTreeMap::new();
        for (v, raw) in &fetched {
            let label = codec::decode_with(&raw.bytes, raw.bit_len as usize, n, &mut varints);
            decoded.insert(*v, label.context("decode fetched label")?);
        }
        tracer.exit(span);
        let labels: Vec<&Label> = ids.iter().map(|v| &decoded[v]).collect();
        let span = tracer.enter(op, "decode.query");
        let answer = query_with_scratch(
            params,
            labels[0],
            labels[1],
            &query_labels(&labels, &faults),
            &mut scratch,
        );
        tracer.exit(span);
        let reply = wire.reply(&answer, op, tracer);
        tracer.exit(root);
        sketch_edges.push(answer.sketch_edges as f64);
        fetch_kib.push(fetched.values().map(|l| l.bytes.len()).sum::<usize>() as f64 / 1024.0);
        tally.record(checker.check(
            s,
            t,
            &faults.to_fault_set(),
            Ok(&reply),
            Some(&served.replies[i]),
        ));
    }
    let op_p50 = static_layer_metrics(&g, config, served.ops, tracer, &sketch_edges, layers);
    layers.set("router.unattributed_us_p50", served.plain_p50 - op_p50);
    layers.set("router.fetch_kib_per_query", mean(&fetch_kib));

    // One label straight from a shard, and the codec cost of that reply.
    let v = plane.plan.vertices_of(0)[0].raw();
    let mut rtt = Vec::new();
    let mut reply = None;
    for _ in 0..PING_ROUND_TRIPS {
        let t = Instant::now();
        reply = Some(
            shards[0]
                .label_fetch(vec![v])
                .context("label fetch probe")?,
        );
        rtt.push(us(t));
    }
    layers.set("router.label_fetch_rtt_us_p50", p50(&rtt));
    let reply = Response::LabelFetch(reply.expect("at least one probe"));
    let (mut codec_us, mut out) = (Vec::new(), Vec::new());
    for _ in 0..PING_ROUND_TRIPS {
        let t = Instant::now();
        out.clear();
        reply.encode(&mut out);
        std::hint::black_box(Response::decode(&out).context("label-fetch reply codec")?);
        codec_us.push(us(t));
    }
    layers.set("protocol.label_fetch_codec_us_p50", p50(&codec_us));
    drop(shards);

    layers.set(
        "oracle.resident_label_mib",
        plane.oracle.label_plane_stats().resident_label_bytes as f64 / MIB,
    );
    probe_labels(&g, &plane.oracle, config.seed, layers)?;
    let (report, _) = plane.fleet.drain()?;
    layers.set(
        "router.fetches_per_query",
        report.upstream_fetches as f64 / report.queries.max(1) as f64,
    );
    Ok((
        tally,
        vec![format!(
            "ops replayed: {} (served twice, layer pass once)",
            served.ops
        )],
    ))
}

// ---- store-cold ------------------------------------------------------------

fn store_cold(
    config: &RunConfig,
    work: &WorkDir,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Res<(Tally, Vec<String>)> {
    let g = config.workload.graph();
    let checker = Checker::new(&g, EPSILON);
    let mut tally = Tally::default();
    let saved = save_store(&g, work)?;
    layers.set("store.save_s", saved.save_s);
    probe_eager_open(&saved.dir, &g, layers)?;
    layers.set("store.disk_mib", dir_bytes(&saved.dir) as f64 / MIB);

    // No wire here, so the layer pass *is* the op; it runs paired to get
    // the tracing overhead. Pipeline: lazy open -> first touch of each
    // named label (mapped bytes -> varint decode -> validate) -> decode.
    let mut scratch = DecodeScratch::new();
    let (mut sketch_edges, mut resident) = (Vec::new(), Vec::new());
    let budget = config.seconds * 2.0 * SERVED_PASS_SHARE;
    let (plain, traced) = paired(budget, config.ops.len(), tracer, |i, tracer| {
        let (s, t, faults) = query_parts(&config.ops[i]);
        let op = i as u32;
        let opened = Instant::now();
        let root = tracer.enter(op, "op");
        let span = tracer.enter(op, "store.open");
        let oracle = ForbiddenSetOracle::open_with(&saved.dir, &g, OpenMode::Lazy);
        tracer.exit(span);
        let oracle = oracle.context("lazy open")?;
        let span = tracer.enter(op, "store.first_touch");
        let labels: Vec<Arc<Label>> = label_ids(s, t, faults)
            .into_iter()
            .map(|v| oracle.label_with(NodeId::new(v), &mut scratch))
            .collect();
        tracer.exit(span);
        let span = tracer.enter(op, "decode.query");
        let answer = query_with_scratch(
            oracle.params(),
            &labels[0],
            &labels[1],
            &query_labels(&labels, faults),
            &mut scratch,
        );
        tracer.exit(span);
        tracer.exit(root);
        let measured = us(opened);
        if sketch_edges.len() == i {
            sketch_edges.push(answer.sketch_edges as f64);
            resident.push(oracle.label_plane_stats().resident_label_bytes as f64 / MIB);
        }
        let reference = reply_of(&saved.oracle.query_with(
            NodeId::new(s),
            NodeId::new(t),
            &faults.to_fault_set(),
            &mut DecodeScratch::new(),
        ));
        tally.record(checker.check(
            s,
            t,
            &faults.to_fault_set(),
            Ok(&reply_of(&answer)),
            Some(&reference),
        ));
        Ok(measured)
    })?;
    let count = sketch_edges.len();
    layers.set("trace.overhead_ratio", p50(&traced) / p50(&plain).max(1e-9));
    static_layer_metrics(&g, config, count, tracer, &sketch_edges, layers);
    let per_op = tracer.self_us_per_op();
    layers.set(
        "store.open_lazy_us_p50",
        p50(per_op.get("store.open").map_or(&[], Vec::as_slice)),
    );
    // First touch per *label*: the op's span over the labels it named.
    let touch: Vec<f64> = per_op
        .get("store.first_touch")
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .zip(&config.ops)
        .map(|(us, op)| {
            let (s, t, faults) = query_parts(op);
            us / label_ids(s, t, faults).len() as f64
        })
        .collect();
    layers.set("store.first_touch_label_us_p50", p50(&touch));
    layers.set("oracle.resident_label_mib", mean(&resident));
    probe_labels(&g, &saved.oracle, config.seed, layers)?;
    Ok((
        tally,
        vec![format!("ops replayed: {count} (each traced and untraced)")],
    ))
}

// ---- dynamic-churn ---------------------------------------------------------

fn dynamic_churn(
    config: &RunConfig,
    work: &WorkDir,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Res<(Tally, Vec<String>)> {
    let g = config.workload.graph();
    let checker = Checker::new(&g, EPSILON);
    let mut tally = Tally::default();
    let all = epochs(&config.ops);
    let epoch = all[0];

    // Served: whole epochs on fresh servers for a share of the window,
    // through the ordinary client (updates cannot be served twice, so
    // there is no paired pass; the overhead ratio comes from the
    // in-process replay below).
    let (mut query_ms, mut update_ms, mut served_s) = (Vec::new(), Vec::new(), 0.0);
    let mut served_epochs = 0;
    while served_s < config.seconds * SERVED_PASS_SHARE {
        let epoch = all[served_epochs % all.len()];
        let (record, _) = serve_epoch(&g, epoch, work)?;
        verify_epoch(&g, &checker, epoch, &record, &mut tally);
        served_s += record.seconds;
        served_epochs += 1;
        layers.set("store.disk_mib", record.store_bytes as f64 / MIB);
        query_ms.extend(record.query_ms);
        update_ms.extend(record.update_ms);
    }
    // Rebuilds included (two generations alive at once), unlike the
    // end-to-end `peak_rss_mib`, which stops before the first one.
    layers.set("dynamic.peak_rss_mib", peak_rss_mib());
    let update_ms = sorted(update_ms);
    layers.set("update_p50_ms", quantile_sorted(&update_ms, 0.5));
    layers.set("update_p99_ms", quantile_sorted(&update_ms, 0.99));
    let served_p50 = median(query_ms) * 1e3;
    layers.set("server.served_us_p50", served_p50);
    {
        let churn = start_churn(&g, work)?;
        ping_rtt(&mut connect(&churn.served.endpoint)?, layers)?;
        churn.served.drain()?;
    }

    // The layer pass: the same epoch on an in-process oracle with store
    // and WAL attached — untraced, traced, traced, untraced, so that what
    // warms up between passes falls on both sides of the overhead ratio.
    let mut passes = Vec::new();
    for traced in [false, true, true, false] {
        let mut off = Tracer::off();
        let tracer = if traced { &mut *tracer } else { &mut off };
        passes.push(replay_epoch(&g, epoch, work, &checker, tracer, &mut tally)?);
    }
    let pooled = |a: &Replay, b: &Replay| p50(&[a.query_us.clone(), b.query_us.clone()].concat());
    let overhead = pooled(&passes[1], &passes[2]) / pooled(&passes[0], &passes[3]).max(1e-9);
    layers.set("trace.overhead_ratio", overhead);
    let plain = &passes[3];
    layers.set("dynamic.query_us_p50", p50(&plain.query_us));
    layers.set("dynamic.update_us_p50", p50(&plain.update_us));
    layers.set("dynamic.rebuild_ms_p50", p50(&plain.rebuild_ms));
    layers.set("dynamic.rebuilds", plain.rebuilds as f64);
    layers.set("dynamic.buffered_mean", mean(&plain.buffered));
    layers.set("trace.layer_pass_op_us_p50", p50(&plain.query_us));
    layers.set(
        "server.unattributed_us_p50",
        served_p50 - p50(&plain.query_us),
    );
    layers.set("baselines.exact_bfs_us_p50", p50(&plain.bfs_us));
    layers.set(
        "baselines.oracle_vs_bfs_ratio",
        p50(&plain.query_us) / p50(&plain.bfs_us).max(1e-9),
    );
    layers.set("decode.labels_per_query_mean", 2.0 + mean(&plain.buffered));

    // fsync'd appends on a scratch log.
    let wal_dir = work.fresh("wal")?;
    let mut wal = Wal::create(&wal_dir, 1).context("create wal")?;
    let mut append_us = Vec::new();
    for k in 0..WAL_APPENDS {
        let t = Instant::now();
        wal.append(WalRecord::DeleteVertex(NodeId::from_index(
            k % g.num_vertices(),
        )))
        .context("wal append")?;
        append_us.push(us(t));
    }
    layers.set("wal.append_us_p50", p50(&append_us));

    // Store and label probes on the pristine graph's static oracle.
    let saved = save_store(&g, work)?;
    layers.set("store.save_s", saved.save_s);
    probe_eager_open(&saved.dir, &g, layers)?;
    layers.set(
        "oracle.resident_label_mib",
        saved.oracle.label_plane_stats().resident_label_bytes as f64 / MIB,
    );
    probe_labels(&g, &saved.oracle, config.seed, layers)?;
    let notes = vec![format!(
        "served epochs: {served_epochs}; update samples: {} ({} beyond p99); in-process epochs: 4",
        update_ms.len(),
        beyond(update_ms.len(), 0.99)
    )];
    Ok((tally, notes))
}

struct Replay {
    query_us: Vec<f64>,
    update_us: Vec<f64>,
    rebuild_ms: Vec<f64>,
    bfs_us: Vec<f64>,
    buffered: Vec<f64>,
    rebuilds: u64,
}

/// One epoch on an in-process `DynamicOracle` with a store attached.
fn replay_epoch(
    g: &Graph,
    epoch: &[Op],
    work: &WorkDir,
    checker: &Checker,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Res<Replay> {
    let (mut oracle, _) = churn_oracle(g, work, "replay")?;
    let exact = ExactOracle::new(g);
    let mut model = ChurnModel::new(g.num_vertices());
    let mut faults = model.fault_set();
    let mut scratch = DecodeScratch::new();
    let mut out = Replay {
        query_us: Vec::new(),
        update_us: Vec::new(),
        rebuild_ms: Vec::new(),
        bfs_us: Vec::new(),
        buffered: Vec::new(),
        rebuilds: 0,
    };
    for (i, op) in epoch.iter().enumerate() {
        let id = i as u32;
        match op {
            Op::Query { s, t, .. } => {
                out.buffered.push(oracle.buffered() as f64);
                let started = Instant::now();
                let root = tracer.enter(id, "op");
                let span = tracer.enter(id, "dynamic.query");
                let distance =
                    oracle.try_distance_with(NodeId::new(*s), NodeId::new(*t), &mut scratch);
                tracer.exit(span);
                tracer.exit(root);
                out.query_us.push(us(started));
                let reply = distance
                    .map(|d| QueryReply {
                        distance: d.raw(),
                        ..QueryReply::default()
                    })
                    .map_err(|e| e.to_string());
                tally.record(checker.check(
                    *s,
                    *t,
                    &faults,
                    reply.as_ref().map_err(String::as_str),
                    None,
                ));
                let started = Instant::now();
                std::hint::black_box(exact.distance(NodeId::new(*s), NodeId::new(*t), &faults));
                out.bfs_us.push(us(started));
            }
            Op::Update(update) => {
                let started = Instant::now();
                let root = tracer.enter(id, "op");
                let span = tracer.enter(id, "dynamic.update");
                let result = match *update {
                    UpdateOp::DeleteVertex(v) => oracle.delete_vertex(NodeId::new(v)),
                    UpdateOp::DeleteEdge(a, b) => {
                        oracle.delete_edge(NodeId::new(a), NodeId::new(b))
                    }
                    UpdateOp::RestoreVertex(v) => oracle.restore_vertex(NodeId::new(v)),
                    UpdateOp::RestoreEdge(a, b) => {
                        oracle.restore_edge(NodeId::new(a), NodeId::new(b))
                    }
                };
                tracer.exit(span);
                tracer.exit(root);
                let elapsed = us(started);
                if model.apply(update) == Rebuild::None {
                    out.update_us.push(elapsed);
                } else {
                    out.rebuild_ms.push(elapsed / 1e3);
                }
                faults = model.fault_set();
                match result {
                    Ok(()) => tally.record(Ok(None)),
                    Err(_) => tally.record_error(),
                }
            }
            Op::EpochStart => unreachable!("epochs() drops the markers"),
        }
    }
    out.rebuilds = oracle.stats().rebuilds;
    if out.rebuilds != out.rebuild_ms.len() as u64 {
        return Err(format!(
            "oracle rebuilt {} times, the op stream calls for {}",
            out.rebuilds,
            out.rebuild_ms.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
