//! Reactor-specific serving behavior: frame reassembly from arbitrary
//! read chunks, interleaved connections, write buffering under a lazy
//! reader, slow-loris deadlines, and worker-starvation immunity — the
//! properties the readiness-driven event loop exists to provide and the
//! old connection-per-worker server could not. Every case runs against
//! both fronts of the connection plane: the single-process server and the
//! router over a 2-shard fleet. The op matrix adds the dynamic server and
//! a lone shard: every op gets its reply or its typed code on each, and
//! each front's `stats` reply agrees with its drain report.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsdl_graph::{generators, NodeId};
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_labels::{write_shard_stores, DecodeScratch, DynamicOracle, ForbiddenSetOracle};
use fsdl_routing::Network;
use fsdl_server::{
    Client, Endpoint, ErrorCode, Request, Response, Router, RouterConfig, ServeEngine, ServeReport,
    Server, ServerConfig, ShutdownHandle, Totals, UpdateOp, WireFaults,
};

fn scratch_sock(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fsdl-reactor-{tag}-{}-{k}.sock",
        std::process::id()
    ))
}

/// What a case talks to.
#[derive(Clone, Copy, Debug)]
enum Front {
    /// One static server.
    Server,
    /// The router over two shard servers.
    Router,
    /// One dynamic server (no store).
    Dynamic,
    /// One shard server: the shard of a 2-shard plan that owns vertex 0.
    Shard,
}

/// The two fronts of the connection plane, which every plane case runs on.
const FRONTS: [Front; 2] = [Front::Server, Front::Router];

/// A running front; `join` after the shutdown frame.
struct Running {
    front: std::thread::JoinHandle<Totals>,
    shards: Vec<(std::thread::JoinHandle<ServeReport>, ShutdownHandle)>,
    shard_dir: Option<PathBuf>,
}

impl Running {
    fn join(self) -> Totals {
        let totals = self.front.join().expect("front thread");
        for (thread, shutdown) in self.shards {
            shutdown.signal();
            thread.join().expect("shard thread");
        }
        if let Some(dir) = self.shard_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        totals
    }
}

/// Serves the 6x6 grid behind `front` on `sock`; `config`'s loop tunables
/// apply to the front whichever it is.
fn spawn_front(front: Front, sock: PathBuf, config: ServerConfig) -> (Endpoint, Running) {
    let g = generators::grid2d(6, 6);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let endpoint = Endpoint::Unix(sock.clone());
    let serve = |engine| {
        let server = Server::bind(&endpoint, engine, config.clone()).expect("bind");
        std::thread::spawn(move || server.run())
    };
    let (mut shards, mut shard_dir) = (Vec::new(), None);
    let front = match front {
        Front::Server => serve(ServeEngine::Static(Arc::new(Network::from_oracle(oracle)))),
        Front::Dynamic => serve(ServeEngine::from_dynamic(DynamicOracle::new(&g, 0.5))),
        Front::Router | Front::Shard => {
            let dir = sock.with_extension("shards");
            std::fs::create_dir_all(&dir).expect("shard dir");
            shard_dir = Some(dir.clone());
            let plan = PartitionPlan::for_oracle(&oracle, 2);
            let reports = write_shard_stores(&oracle, &dir, &plan).expect("write shard stores");
            let open = |shard| {
                let store = ShardStore::open(&dir.join(shard_dir_name(shard)));
                ServeEngine::from_shard(store.expect("open shard store"))
            };
            if let Front::Shard = front {
                serve(open(plan.shard_of(NodeId::new(0))))
            } else {
                let mut shard_endpoints = Vec::new();
                for report in reports {
                    let shard_ep = Endpoint::Unix(dir.join(format!("shard-{}.sock", report.shard)));
                    let shard_config = ServerConfig {
                        workers: 1,
                        ..ServerConfig::default()
                    };
                    let server = Server::bind(&shard_ep, open(report.shard), shard_config)
                        .expect("bind shard");
                    let shutdown = server.shutdown_handle();
                    shards.push((std::thread::spawn(move || server.run()), shutdown));
                    shard_endpoints.push(shard_ep);
                }
                let router_config = RouterConfig {
                    workers: config.workers,
                    frame_deadline: config.frame_deadline,
                    ..RouterConfig::default()
                };
                let router = Router::bind(&endpoint, shard_endpoints, plan, router_config)
                    .expect("bind router");
                std::thread::spawn(move || router.run())
            }
        }
    };
    let running = Running {
        front,
        shards,
        shard_dir,
    };
    (endpoint, running)
}

fn connect_raw(endpoint: &Endpoint) -> UnixStream {
    let Endpoint::Unix(path) = endpoint else {
        panic!("reactor tests use unix sockets");
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) if Instant::now() >= deadline => panic!("connect: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn encode_frame(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    request.encode(&mut payload);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Reads one reply frame; `None` on EOF.
fn read_reply(stream: &mut UnixStream) -> Option<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) => panic!("reply header read: {e}"),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) => panic!("reply payload read: {e}"),
        }
    }
    Some(payload)
}

/// A frame drip-fed one byte at a time still parses into exactly one
/// request, and the answer is bit-identical to the same query sent
/// whole — the reassembler cannot care where the kernel splits reads.
#[test]
fn drip_fed_frames_are_reassembled_across_every_boundary() {
    FRONTS.into_iter().for_each(drip_fed_frames);
}

fn drip_fed_frames(front: Front) {
    let (endpoint, handle) = spawn_front(front, scratch_sock("drip"), ServerConfig::default());

    let request = Request::Query {
        s: 0,
        t: 35,
        faults: WireFaults {
            vertices: vec![7],
            edges: vec![(1, 2)],
        },
    };
    let frame = encode_frame(&request);

    // Reference answer over a normal connection.
    let mut whole = connect_raw(&endpoint);
    whole.write_all(&frame).expect("write");
    let expected = read_reply(&mut whole).expect("whole-frame reply");

    // Same request, one byte per write with a pause so the event loop
    // observes many partial reads (header split, payload split).
    let mut drip = connect_raw(&endpoint);
    for byte in &frame {
        drip.write_all(std::slice::from_ref(byte)).expect("write");
        std::thread::sleep(Duration::from_millis(1));
    }
    let got = read_reply(&mut drip).expect("drip-fed reply");
    assert_eq!(got, expected, "reassembled answer must be bit-identical");

    // Two frames fused into one write must also yield two replies.
    let mut fused = connect_raw(&endpoint);
    let mut double = frame.clone();
    double.extend_from_slice(&frame);
    fused.write_all(&double).expect("write");
    assert_eq!(read_reply(&mut fused).expect("first fused reply"), expected);
    assert_eq!(
        read_reply(&mut fused).expect("second fused reply"),
        expected
    );

    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.queries, 4);
}

/// Two connections drip-feeding interleaved chunks each get their own
/// answer: per-connection assembler state never bleeds across sockets.
#[test]
fn interleaved_partial_frames_stay_per_connection() {
    FRONTS.into_iter().for_each(interleaved_partial_frames);
}

fn interleaved_partial_frames(front: Front) {
    let (endpoint, handle) =
        spawn_front(front, scratch_sock("interleave"), ServerConfig::default());

    let frame_a = encode_frame(&Request::Query {
        s: 0,
        t: 35,
        faults: WireFaults::default(),
    });
    let frame_b = encode_frame(&Request::Query {
        s: 0,
        t: 1,
        faults: WireFaults::default(),
    });

    let mut conn_a = connect_raw(&endpoint);
    let mut conn_b = connect_raw(&endpoint);

    // Alternate 3-byte chunks between the two connections.
    let mut off_a = 0;
    let mut off_b = 0;
    while off_a < frame_a.len() || off_b < frame_b.len() {
        if off_a < frame_a.len() {
            let end = (off_a + 3).min(frame_a.len());
            conn_a.write_all(&frame_a[off_a..end]).expect("write a");
            off_a = end;
        }
        if off_b < frame_b.len() {
            let end = (off_b + 3).min(frame_b.len());
            conn_b.write_all(&frame_b[off_b..end]).expect("write b");
            off_b = end;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let reply_a = Response::decode(&read_reply(&mut conn_a).expect("reply a")).expect("decode a");
    let reply_b = Response::decode(&read_reply(&mut conn_b).expect("reply b")).expect("decode b");
    let (Response::Query(a), Response::Query(b)) = (&reply_a, &reply_b) else {
        panic!(
            "expected query replies, got {} / {}",
            reply_a.kind_name(),
            reply_b.kind_name()
        );
    };

    // Differential check against a fresh client on the same server.
    let mut client = Client::connect(&endpoint).expect("connect");
    let want_a = client.query(0, 35, WireFaults::default()).expect("query");
    let want_b = client.query(0, 1, WireFaults::default()).expect("query");
    assert_eq!(a.distance, want_a.distance);
    assert_eq!(b.distance, want_b.distance);
    assert_ne!(a.distance, b.distance, "distinct queries chosen to differ");

    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(report.protocol_errors, 0);
}

/// A client that pipelines many large batches before reading anything
/// forces the server's replies through the write buffer (the socket
/// fills); every reply still arrives complete and in order.
#[test]
fn pipelined_batches_with_a_lazy_reader_exercise_the_write_buffer() {
    FRONTS
        .into_iter()
        .for_each(pipelined_batches_with_a_lazy_reader);
}

fn pipelined_batches_with_a_lazy_reader(front: Front) {
    let (endpoint, handle) = spawn_front(front, scratch_sock("lazy"), ServerConfig::default());

    const BATCHES: usize = 8;
    const PER_BATCH: usize = 2048;
    let queries: Vec<(u32, u32, WireFaults)> = (0..PER_BATCH)
        .map(|i| {
            (
                (i % 36) as u32,
                ((i * 7 + 3) % 36) as u32,
                WireFaults::default(),
            )
        })
        .collect();
    let frame = encode_frame(&Request::Batch(queries.clone()));

    // Writer thread: blasts all batches without reading a single reply;
    // kernel buffers fill in both directions and only the reactor's
    // write buffer keeps frames untorn.
    let mut conn = connect_raw(&endpoint);
    let mut writer_conn = conn.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        for _ in 0..BATCHES {
            writer_conn.write_all(&frame).expect("pipelined write");
        }
    });

    let mut replies = Vec::new();
    for k in 0..BATCHES {
        let payload = read_reply(&mut conn).unwrap_or_else(|| panic!("reply {k} missing"));
        replies.push(Response::decode(&payload).expect("decode"));
    }
    writer.join().expect("writer");

    let mut client = Client::connect(&endpoint).expect("connect");
    let want = client.batch(queries.clone()).expect("reference batch");
    for reply in &replies {
        let Response::Batch(items) = reply else {
            panic!("expected batch reply, got {}", reply.kind_name());
        };
        assert_eq!(items, &want, "buffered replies must match the reference");
    }

    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(
        report.batch_queries,
        ((BATCHES + 1) * PER_BATCH) as u64 // +1 for the reference batch
    );
}

/// A connection that starts a frame and stalls past the deadline gets a
/// typed `DeadlineExceeded` reply, a close, and a `deadline_closes`
/// count; a connection that is merely idle (no partial frame) is immune.
#[test]
fn slow_loris_hits_the_deadline_while_idle_connections_are_immune() {
    FRONTS.into_iter().for_each(slow_loris_and_idle);
}

fn slow_loris_and_idle(front: Front) {
    let config = ServerConfig {
        frame_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (endpoint, handle) = spawn_front(front, scratch_sock("loris"), config);

    // Idle connection: open, never writes. Must survive many deadlines.
    let mut idle = connect_raw(&endpoint);

    // Loris: 4-byte header promising 8 bytes, then 2 bytes, then stall.
    let mut loris = connect_raw(&endpoint);
    loris.write_all(&8u32.to_le_bytes()).expect("header");
    loris.write_all(&[0xAB, 0xCD]).expect("partial payload");

    let reply = read_reply(&mut loris).expect("loris must get a typed reply before the close");
    let decoded = Response::decode(&reply).expect("decode");
    let Response::Error(err) = decoded else {
        panic!("expected error reply, got {}", decoded.kind_name());
    };
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    assert!(
        read_reply(&mut loris).is_none(),
        "the loris connection must be closed after the typed reply"
    );

    // The idle connection outlived several deadline windows and still
    // serves: idleness is free, only mid-frame stalls are policed.
    std::thread::sleep(Duration::from_millis(100));
    idle.write_all(&encode_frame(&Request::Stats))
        .expect("write");
    let stats_payload = read_reply(&mut idle).expect("idle conn must still be served");
    let Response::Stats(stats) = Response::decode(&stats_payload).expect("decode") else {
        panic!("expected stats");
    };
    assert_eq!(stats.deadline_closes, 1, "exactly the loris was cut");

    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(report.deadline_closes, 1);
    assert_eq!(
        report.protocol_errors, 0,
        "a deadline close is not a protocol error"
    );
}

/// The starvation regression test: with ONE worker and a crowd of idle
/// connections accepted first, queries on a late connection still flow.
/// The old connection-per-worker server parks its only worker on the
/// first idle connection forever; the reactor must answer promptly.
#[test]
fn one_worker_with_many_idle_connections_still_serves() {
    FRONTS.into_iter().for_each(one_worker_behind_idle_crowd);
}

fn one_worker_behind_idle_crowd(front: Front) {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (endpoint, handle) = spawn_front(front, scratch_sock("starve"), config);

    let idle: Vec<UnixStream> = (0..50).map(|_| connect_raw(&endpoint)).collect();

    let start = Instant::now();
    let mut client = Client::connect(&endpoint).expect("connect");
    for i in 0..50u32 {
        let reply = client
            .query(i % 36, (i * 5 + 1) % 36, WireFaults::default())
            .expect("query behind idle crowd");
        assert!(reply.distance != u32::MAX || i % 36 == (i * 5 + 1) % 36);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "50 queries behind 50 idle connections took {elapsed:?}: the worker is starved"
    );

    drop(idle);
    client.shutdown().expect("shutdown");
    let report = handle.join();
    assert_eq!(report.queries, 50);
    assert_eq!(report.connections, 51);
    assert_eq!(
        report.deadline_closes, 0,
        "a connection that holds no partial frame has no deadline to miss"
    );
}

/// One query front-end on both fronts: a malformed `(s, t, F)` gets the
/// same typed reply, byte for byte, from the server (which asks its graph)
/// and from the router (which has only the plan and the labels it
/// gathered), worded as the in-process `try_query_with` words it — for a
/// single query and for a batch item — and the connection keeps serving.
/// The same goes for forbidden sets that merely look odd: they are served,
/// with equal replies.
#[test]
fn malformed_queries_get_the_same_reply_on_both_fronts() {
    let oracle = ForbiddenSetOracle::new(&generators::grid2d(6, 6), 0.5);
    let faults = |vertices: &[u32], edges: &[(u32, u32)]| WireFaults {
        vertices: vertices.to_vec(),
        edges: edges.to_vec(),
    };
    // On the 6x6 grid (n = 36), 0 and 7 are diagonal neighbours: no edge.
    let rejected = [
        ("s out of range", 40, 35, faults(&[], &[])),
        ("t out of range", 0, 36, faults(&[], &[])),
        ("fault vertex out of range", 0, 35, faults(&[7, 99], &[])),
        (
            "the smallest bad fault vertex is named",
            0,
            35,
            faults(&[90, 50], &[]),
        ),
        (
            "fault-edge endpoint out of range",
            0,
            35,
            faults(&[], &[(77, 1)]),
        ),
        ("non-edge fault edge", 0, 35, faults(&[], &[(0, 7)])),
        (
            "faults are checked after both endpoints",
            0,
            36,
            faults(&[99], &[]),
        ),
    ];
    // (label, the odd forbidden set, the plain one it must be served as)
    let served = [
        (
            "self-loop fault edge",
            faults(&[7], &[(5, 5)]),
            faults(&[7], &[]),
        ),
        (
            "duplicated fault",
            faults(&[7, 8, 7], &[]),
            faults(&[8, 7], &[]),
        ),
        (
            "both orientations",
            faults(&[], &[(0, 1), (1, 0)]),
            faults(&[], &[(0, 1)]),
        ),
    ];

    let mut fronts: Vec<(Front, UnixStream, Endpoint, Running)> = FRONTS
        .into_iter()
        .map(|front| {
            let (endpoint, handle) =
                spawn_front(front, scratch_sock("parity"), ServerConfig::default());
            (front, connect_raw(&endpoint), endpoint, handle)
        })
        .collect();
    // The reply bytes of each front, asserted equal.
    let mut ask = |what: &str, request: &Request| -> Vec<u8> {
        let replies: Vec<Vec<u8>> = fronts
            .iter_mut()
            .map(|(front, conn, _, _)| {
                conn.write_all(&encode_frame(request)).expect("write");
                read_reply(conn).unwrap_or_else(|| panic!("{what}: {front:?} closed"))
            })
            .collect();
        assert_eq!(replies[0], replies[1], "{what}: server vs router bytes");
        replies.into_iter().next().expect("two fronts")
    };
    let bad_request = |what: &str, reply: &[u8]| -> String {
        match Response::decode(reply).expect("decode") {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "{what}: {e:?}");
                e.message
            }
            other => panic!("{what}: expected BadRequest, got {}", other.kind_name()),
        }
    };

    let mut scratch = DecodeScratch::new();
    let good = (0, 35, WireFaults::default());
    for (what, s, t, f) in &rejected {
        let in_process = oracle
            .try_query_with(
                NodeId::new(*s),
                NodeId::new(*t),
                &f.to_fault_set(),
                &mut scratch,
            )
            .expect_err(what)
            .to_string();
        let single = ask(
            what,
            &Request::Query {
                s: *s,
                t: *t,
                faults: f.clone(),
            },
        );
        assert_eq!(bad_request(what, &single), in_process, "{what}");
        let batch = Request::Batch(vec![good.clone(), good.clone(), (*s, *t, f.clone())]);
        let batch = ask(what, &batch);
        assert_eq!(
            bad_request(what, &batch),
            format!("batch item 2: {in_process}"),
            "{what}"
        );
    }
    for (what, odd, plain) in &served {
        let query = |faults: &WireFaults| Request::Query {
            s: 0,
            t: 35,
            faults: faults.clone(),
        };
        let reply = ask(what, &query(odd));
        assert_eq!(reply, ask(what, &query(plain)), "{what}: odd vs plain F");
        let Response::Query(reply) = Response::decode(&reply).expect("decode") else {
            panic!("{what}: must be served");
        };
        let in_process = oracle
            .try_query_with(
                NodeId::new(0),
                NodeId::new(35),
                &plain.to_fault_set(),
                &mut scratch,
            )
            .expect(what);
        assert_eq!(reply.distance, in_process.distance.raw(), "{what}");
        let path: Vec<u32> = in_process.path.iter().map(|v| v.raw()).collect();
        assert_eq!(reply.path, path, "{what}");
    }

    for (front, conn, endpoint, handle) in fronts {
        drop(conn);
        Client::connect(&endpoint)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        let report = handle.join();
        assert_eq!(
            report.protocol_errors,
            2 * rejected.len() as u64,
            "{front:?}: one rejection per row and shape"
        );
        assert_eq!(report.queries, 2 * served.len() as u64, "{front:?}");
        assert_eq!(report.batch_queries, 0, "{front:?}: no batch went through");
    }
}

/// Every op on every front: the op's own reply kind where the front serves
/// it, a typed `UnsupportedInMode` where it does not. Then the front's
/// `stats` reply agrees with its drain report on every counter both carry
/// (a router's `label_fetches` slot carries its upstream fetches).
#[test]
fn every_op_on_every_front_gets_its_reply_or_its_typed_code() {
    let none = WireFaults::default;
    let ops = [
        (
            "query",
            Request::Query {
                s: 0,
                t: 35,
                faults: none(),
            },
        ),
        (
            "batch",
            Request::Batch(vec![(0, 35, none()), (1, 2, none())]),
        ),
        (
            "route",
            Request::Route {
                s: 0,
                t: 35,
                faults: none(),
            },
        ),
        ("update", Request::Update(UpdateOp::DeleteVertex(7))),
        ("stats", Request::Stats),
        ("label-fetch", Request::LabelFetch { vertices: vec![0] }),
        ("edge-sets", Request::EdgeSets),
        ("point-fetch", Request::PointFetch { vertices: vec![0] }),
    ];
    let served: [(Front, &[&str]); 4] = [
        (
            Front::Server,
            &[
                "query",
                "batch",
                "route",
                "stats",
                "label-fetch",
                "edge-sets",
                "point-fetch",
            ],
        ),
        (Front::Dynamic, &["query", "batch", "update", "stats"]),
        (
            Front::Shard,
            &["stats", "label-fetch", "edge-sets", "point-fetch"],
        ),
        (Front::Router, &["query", "batch", "stats"]),
    ];
    for (front, serves) in served {
        let (endpoint, handle) = spawn_front(front, scratch_sock("ops"), ServerConfig::default());
        let mut client =
            Client::connect_with_retry(&endpoint, Duration::from_secs(5)).expect("connect");
        for (op, request) in &ops {
            let reply = client.roundtrip(request).expect("reply");
            let kind = match &reply {
                Response::Error(e) => format!("error {:?}", e.code),
                reply => reply.kind_name().to_string(),
            };
            let expected = if serves.contains(op) {
                op.to_string()
            } else {
                format!("error {:?}", ErrorCode::UnsupportedInMode)
            };
            assert_eq!(kind, expected, "{front:?} {op}: {reply:?}");
        }
        let stats = client.stats().expect("stats");
        client.shutdown().expect("shutdown");
        let report = handle.join();
        let carried = [
            report.connections,
            report.queries,
            report.batch_queries,
            report.routes,
            report.updates,
            report.protocol_errors,
            report.deadline_closes,
            report.label_fetches + report.upstream_fetches,
        ];
        let replied = [
            stats.connections,
            stats.queries,
            stats.batch_queries,
            stats.routes,
            stats.updates,
            stats.protocol_errors,
            stats.deadline_closes,
            stats.label_fetches,
        ];
        assert_eq!(replied, carried, "{front:?}: stats vs drain report");
        assert_eq!(report.protocol_errors, (ops.len() - serves.len()) as u64);
        let dynamic = matches!(front, Front::Dynamic);
        assert_eq!(
            (stats.dynamic, stats.active_faults),
            (dynamic as u8, dynamic as u64)
        );
    }
}
