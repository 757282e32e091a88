//! Sharded serving plane, end to end: shard stores on disk, a fleet of
//! shard servers on real sockets, the scatter-gather router in front,
//! and typed clients. The core assertion is *differential*: every
//! routed answer must be bit-identical to the in-process oracle on the
//! same inputs — sharding adds transport and partitioning, never
//! approximation. The corruption sweep extends the repo's standing
//! contract to the sharded plane: damaged stores produce typed errors
//! or bit-identical answers, never a panic and never a silent wrong
//! answer.

use std::io::Read;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fsdl_graph::{generators, FaultSet, Graph, NodeId};
use fsdl_labels::partition::{shard_dir_name, PartitionPlan, ShardStore};
use fsdl_labels::{
    audit, codec, edge_sets, store, write_shard_stores, DecodeScratch, EdgeSets,
    ForbiddenSetOracle, Labeling, SchemeParams,
};
use fsdl_routing::Network;
use fsdl_server::{
    protocol, Client, ClientError, EdgeSetsReply, Endpoint, ErrorCode, PointFetchReply,
    PointRecord, Request, Response, Router, RouterConfig, RouterError, ServeEngine, ServeReport,
    Server, ServerConfig, ShutdownHandle, WireFaults, MAX_FRAME,
};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fsdl-shardrt-{tag}-{}-{k}", std::process::id()))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = scratch_dir(tag);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct ShardFleet {
    endpoints: Vec<Endpoint>,
    handles: Vec<(std::thread::JoinHandle<ServeReport>, ShutdownHandle)>,
}

impl ShardFleet {
    /// Builds shard stores for `oracle` under `dir` and serves each on
    /// its own unix socket.
    fn spawn(oracle: &ForbiddenSetOracle, dir: &Path, plan: &PartitionPlan) -> ShardFleet {
        ShardFleet::spawn_with_budget(oracle, dir, plan, None)
    }

    /// `spawn` with an explicit per-reply label byte budget (None keeps
    /// the default). A budget of 1 forces every reply down to a single
    /// label, exercising the short-reply/tail-re-request path on graphs
    /// whose labels would otherwise all fit in one frame.
    fn spawn_with_budget(
        oracle: &ForbiddenSetOracle,
        dir: &Path,
        plan: &PartitionPlan,
        label_fetch_budget: Option<usize>,
    ) -> ShardFleet {
        let reports = write_shard_stores(oracle, dir, plan).expect("write shard stores");
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for report in &reports {
            let store =
                ShardStore::open(&dir.join(shard_dir_name(report.shard))).expect("reopen shard");
            let endpoint = Endpoint::Unix(dir.join(format!("shard-{}.sock", report.shard)));
            let mut config = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            if let Some(budget) = label_fetch_budget {
                config.label_fetch_budget = budget;
            }
            let server = Server::bind(&endpoint, ServeEngine::from_shard(store), config)
                .expect("bind shard");
            let handle = server.shutdown_handle();
            handles.push((std::thread::spawn(move || server.run()), handle));
            endpoints.push(endpoint);
        }
        ShardFleet { endpoints, handles }
    }

    fn stop(self) {
        for (thread, handle) in self.handles {
            handle.signal();
            let _ = thread.join();
        }
    }
}

fn spawn_router(
    shard_endpoints: Vec<Endpoint>,
    plan: PartitionPlan,
) -> (
    Endpoint,
    ShutdownHandle,
    std::thread::JoinHandle<fsdl_server::RouterReport>,
) {
    let listen = Endpoint::Tcp("127.0.0.1:0".into());
    let router =
        Router::bind(&listen, shard_endpoints, plan, RouterConfig::default()).expect("bind router");
    let bound = router.local_endpoint().expect("router endpoint");
    let handle = router.shutdown_handle();
    let thread = std::thread::spawn(move || router.run());
    (bound, handle, thread)
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect_with_retry(endpoint, Duration::from_secs(5)).expect("connect")
}

/// The `edge-sets` reply a one-shard fleet over `g` sends at `generation`.
fn edge_sets_reply(g: &Graph, epsilon: f64, generation: u64) -> EdgeSetsReply {
    let labeling = Labeling::build(g, SchemeParams::new(epsilon, g.num_vertices()));
    let bytes = EdgeSets::from_labeling(&labeling).encode();
    EdgeSetsReply {
        generation,
        epsilon_bits: epsilon.to_bits(),
        c: labeling.params().c(),
        vertices: g.num_vertices() as u64,
        graph_fingerprint: store::graph_fingerprint(g),
        shard: 0,
        num_shards: 1,
        checksum: edge_sets::checksum(&bytes),
        edge_sets: bytes,
    }
}

/// Answers a router's pool connection, one reply per request frame.
type FakeReply = Box<dyn Fn(Request) -> Response + Send>;

/// A fake shard on `listener`: answers the handshake connection with
/// `handshake`, then — given a `reply` — answers every frame on the
/// router's one pool connection with it. Returns after the handshake
/// without one, else when the router hangs up.
fn fake_shard(
    listener: UnixListener,
    handshake: Response,
    reply: Option<FakeReply>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        let (mut conn, _) = listener.accept().expect("handshake connection");
        protocol::read_frame(&mut conn, MAX_FRAME, &mut buf).expect("handshake request");
        protocol::send_response(&mut conn, &handshake, &mut buf).expect("handshake reply");
        drop(conn);
        let Some(reply) = reply else {
            return;
        };
        let (mut pooled, _) = listener.accept().expect("pool connection");
        while let Ok(protocol::FrameRead::Frame) =
            protocol::read_frame(&mut pooled, MAX_FRAME, &mut buf)
        {
            let request = Request::decode(&buf).expect("router sends well-formed frames");
            if protocol::send_response(&mut pooled, &reply(request), &mut buf).is_err() {
                return;
            }
        }
    })
}

fn bind_one_pooled(shards: Vec<Endpoint>, plan: PartitionPlan) -> Result<Router, RouterError> {
    Router::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        shards,
        plan,
        RouterConfig {
            pool_per_shard: 1,
            ..RouterConfig::default()
        },
    )
}

/// Two graphs with the same vertex count, cut into two shards each, then
/// served as one fleet: shard 0 of one and shard 1 of the other. Their
/// `(epsilon, c, n)` agree, so a handshake that compares only those binds
/// and answers from mixed labels. The graph fingerprint and the edge sets
/// tell them apart, and the router refuses the fleet. So does a fleet
/// whose endpoints are listed out of shard order.
#[test]
fn router_refuses_a_fleet_cut_from_different_graphs() {
    let dir = TempDir::new("mixed");
    let plan = PartitionPlan::contiguous(24, 2);
    let mut fleets = Vec::new();
    for (tag, g) in [
        ("a", generators::grid2d(4, 6)),
        ("b", generators::grid2d(6, 4)),
    ] {
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        fleets.push(ShardFleet::spawn(&oracle, &dir.path().join(tag), &plan));
    }
    let mixed = vec![
        fleets[0].endpoints[0].clone(),
        fleets[1].endpoints[1].clone(),
    ];
    match bind_one_pooled(mixed, plan.clone()) {
        Err(RouterError::Plan(message)) => assert!(message.contains("disagrees"), "{message}"),
        Err(other) => panic!("expected a plan mismatch, got {other}"),
        Ok(_) => panic!("a fleet cut from two graphs must not bind"),
    }
    let reversed = fleets[0].endpoints.iter().rev().cloned().collect();
    match bind_one_pooled(reversed, plan.clone()) {
        Err(RouterError::Plan(message)) => assert!(message.contains("serves shard"), "{message}"),
        Err(other) => panic!("expected a plan mismatch, got {other}"),
        Ok(_) => panic!("shards out of order must not bind"),
    }
    // The same fleet in order binds.
    let router = bind_one_pooled(fleets[0].endpoints.clone(), plan).expect("a whole fleet binds");
    drop(router);
    for fleet in fleets {
        fleet.stop();
    }
}

/// Edge sets that fail their checksum, or that match a checksum but do
/// not parse, fail the bind with a typed handshake error.
#[test]
fn corrupt_edge_sets_fail_the_bind_typed() {
    let dir = TempDir::new("bad-blocks");
    let good = edge_sets_reply(&generators::grid2d(4, 3), 1.0, 1);
    let len = good.edge_sets.len();
    for (k, at) in [0, 9, 20, len / 2, len - 3].into_iter().enumerate() {
        for fix_checksum in [false, true] {
            let mut reply = good.clone();
            reply.edge_sets[at] ^= 0x04;
            if fix_checksum {
                reply.checksum = edge_sets::checksum(&reply.edge_sets);
            }
            let sock = dir.path().join(format!("bad-{k}-{fix_checksum}.sock"));
            let listener = UnixListener::bind(&sock).expect("bind fake shard");
            let shard = fake_shard(listener, Response::EdgeSets(reply), None);
            match bind_one_pooled(vec![Endpoint::Unix(sock)], PartitionPlan::contiguous(12, 1)) {
                Err(RouterError::Handshake { shard: 0, message }) => {
                    assert!(message.contains("edge sets"), "{message}");
                }
                Err(other) => panic!("byte {at}: expected a handshake error, got {other}"),
                Ok(_) => panic!("byte {at}: corrupt edge sets must not bind"),
            }
            shard.join().expect("fake shard");
        }
    }
}

/// A one-shard fleet on a 12-vertex grid whose fake shard answers a
/// point fetch of `v` with `record(v, records)`, `records` being every
/// vertex's intact record: each query gets a typed `Internal` reply whose
/// message contains `expected`, never an answer.
fn records_get_internal(tag: &str, record: fn(u32, &[Vec<u8>]) -> Vec<u8>, expected: &str) {
    let dir = TempDir::new(tag);
    let g = generators::grid2d(4, 3);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let sock = dir.path().join("fake.sock");
    let listener = UnixListener::bind(&sock).expect("bind fake shard");
    let records = (0..12)
        .map(|v| edge_sets::points_record(&oracle.label(NodeId::new(v))))
        .collect::<Vec<_>>();
    let shard = fake_shard(
        listener,
        Response::EdgeSets(edge_sets_reply(&g, 1.0, 1)),
        Some(Box::new(move |request| {
            let Request::PointFetch { vertices } = request else {
                panic!("the router sends point-fetch frames");
            };
            let records = vertices
                .into_iter()
                .map(|v| PointRecord {
                    vertex: v,
                    bytes: record(v, &records),
                })
                .collect();
            Response::PointFetch(PointFetchReply {
                generation: 1,
                records,
            })
        })),
    );
    let router = bind_one_pooled(vec![Endpoint::Unix(sock)], PartitionPlan::contiguous(12, 1))
        .expect("the handshake is sound");
    let endpoint = router.local_endpoint().expect("router endpoint");
    let router_thread = std::thread::spawn(move || router.run());
    let mut client = connect(&endpoint);
    for (s, t) in [(0, 11), (3, 3), (5, 6)] {
        match client.query(s, t, WireFaults::empty()) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::Internal, "{e:?}");
                assert!(e.message.contains(expected), "{e:?}");
            }
            other => panic!("{tag}: the record must not be answered, got {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    router_thread.join().expect("router thread");
    shard.join().expect("fake shard");
}

/// A shard whose point-fetch reply carries a corrupt record: the query
/// gets a typed `Internal` reply, never an answer.
#[test]
fn corrupt_point_fetch_reply_is_internal_never_an_answer() {
    records_get_internal(
        "bad-records",
        |v, records| {
            let mut bytes = records[v as usize].clone();
            let at = bytes.len() / 2;
            bytes[at] ^= 0x01;
            bytes
        },
        "failed to derive",
    );
}

/// A shard that serves another vertex's intact record for `v`: the
/// checksum passes, the derivation refuses the owner, and the query gets
/// a typed `Internal` reply, never an answer from the wrong label.
#[test]
fn another_vertexs_record_is_internal_never_an_answer() {
    records_get_internal(
        "swapped-records",
        |v, records| records[(v as usize + 1) % records.len()].clone(),
        "the record is v",
    );
}

/// Every label a fleet hands out is the builder's, whichever way it
/// leaves: `label-fetch` (derived on the shard, then encoded) gives the
/// builder's bytes, and what the router does — edge sets once, then
/// derive from `point-fetch` records — gives the builder's label, which
/// passes the completeness audit. Over the families of
/// `labels/tests/lazy_decode.rs` and `family_matrix.rs` and the four
/// benchmark graphs; the encoding is compared on every fourth vertex of
/// the large graphs (debug-build codec time), the label on every vertex.
#[test]
fn fleet_labels_equal_the_built_ones() {
    let inputs = [
        (generators::grid2d(7, 7), 1.0),
        (generators::grid2d(5, 9), 0.5),
        (generators::grid2d(2, 40), 1.0),
        (generators::cycle(48), 0.5),
        (generators::path(40), 2.0),
        (generators::torus2d(6, 6), 1.0),
        (generators::spider(5, 8), 1.0),
        (generators::random_tree(60, 9), 1.0),
        (generators::road_network(8, 8, 0.2, 3), 1.0),
        (generators::random_geometric(70, 0.2, 11), 1.0),
        (generators::king_grid(6, 6), 2.0),
        (generators::erdos_renyi(40, 0.08, 5), 1.0),
        (generators::cycle(400), 1.0),
        (generators::grid2d(2, 160), 1.0),
        (generators::torus3d(3, 3, 4), 2.0),
        (
            generators::grid2d_with_holes(8, 8, |x, y| (3..5).contains(&x) && (3..5).contains(&y)),
            1.0,
        ),
        (generators::ladder(16), 0.5),
        (generators::lollipop(6, 10), 1.0),
        (generators::barbell(5, 4), 1.0),
        (generators::grid_linf(4, 3), 2.0),
        (generators::half_grid(4, 4), 3.0),
        (generators::hypercube(4), 2.0),
        (generators::star(24), 1.0),
        (generators::erdos_renyi(40, 0.12, 5), 1.0),
        (generators::grid2d(16, 16), 1.0),
        (generators::grid2d(20, 20), 1.0),
        (generators::ladder(256), 1.0),
        (generators::grid2d(12, 12), 1.0),
    ];
    for (k, (g, eps)) in inputs.into_iter().enumerate() {
        let n = g.num_vertices();
        let oracle = ForbiddenSetOracle::new(&g, eps);
        let plan = PartitionPlan::for_oracle(&oracle, 2);
        let dir = TempDir::new(&format!("derive-{k}"));
        let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
        let every = if n > 200 { 4 } else { 1 };
        let mut report = audit::AuditReport::default();
        for (shard, endpoint) in fleet.endpoints.iter().enumerate() {
            let mut client = connect(endpoint);
            let sets = client.edge_sets().expect("edge sets");
            let sets = EdgeSets::decode(&sets.edge_sets).expect("edge sets parse");
            let owned: Vec<u32> = plan
                .vertices_of(shard as u32)
                .iter()
                .map(|v| v.raw())
                .collect();
            let records = client.point_fetch(owned.clone()).expect("point fetch");
            for record in &records.records {
                let derived = sets
                    .label(NodeId::new(record.vertex), &record.bytes)
                    .expect("derive");
                let built = oracle.label(NodeId::new(record.vertex));
                assert_eq!(derived, *built, "graph {k}: v{}", record.vertex);
                if (record.vertex as usize).is_multiple_of((n / 8).max(1)) {
                    audit::audit_label(oracle.labeling(), &derived, &mut report);
                }
            }
            let sampled: Vec<u32> = owned
                .into_iter()
                .filter(|v| (*v as usize).is_multiple_of(every))
                .collect();
            for fetched in client.label_fetch(sampled).expect("label fetch").labels {
                let built = codec::encode(&oracle.label(NodeId::new(fetched.vertex)), n);
                assert_eq!(fetched.bit_len as usize, built.len_bits(), "graph {k}");
                assert_eq!(
                    fetched.bytes,
                    built.as_bytes(),
                    "graph {k}: v{}",
                    fetched.vertex
                );
            }
        }
        assert!(report.passed(), "graph {k}: {:?}", report.violations);
        fleet.stop();
    }
}

/// The query matrix: corner-to-corner and interior pairs crossed with
/// fault sets from empty through 4 mixed faults.
fn fault_matrix(g: &Graph) -> Vec<(u32, u32, WireFaults)> {
    let n = g.num_vertices() as u32;
    let some_edge = {
        let v = n / 2;
        let u = g.neighbors(NodeId::new(v))[0];
        (u.min(v), u.max(v))
    };
    let mut matrix = Vec::new();
    for &(s, t) in &[(0, n - 1), (1, n - 2), (n / 3, 2 * n / 3), (5, 5)] {
        matrix.push((s, t, WireFaults::empty()));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 2],
                edges: vec![],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 4, 3 * n / 4],
                edges: vec![],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 5],
                edges: vec![some_edge],
            },
        ));
        matrix.push((
            s,
            t,
            WireFaults {
                vertices: vec![n / 7, n / 3 + 1, 2 * n / 3 + 1],
                edges: vec![some_edge],
            },
        ));
    }
    matrix
}

/// Routed answers must be bit-identical to the in-process oracle —
/// distance, sketch statistics, and witness path — across the whole
/// fault matrix, for both single-query and batch frames.
#[test]
fn router_matches_unsharded_oracle_across_fault_matrix() {
    let g = generators::grid2d(8, 6);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 3);
    let dir = TempDir::new("diff");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);

    let mut client = connect(&endpoint);
    let mut scratch = DecodeScratch::new();
    let matrix = fault_matrix(&g);
    for (s, t, wire) in &matrix {
        let faults = wire.to_fault_set();
        let expected = oracle.query_with(NodeId::new(*s), NodeId::new(*t), &faults, &mut scratch);
        let reply = client.query(*s, *t, wire.clone()).expect("routed query");
        assert_eq!(
            reply.distance,
            expected.distance.raw(),
            "distance for {s}->{t} with {wire:?}"
        );
        assert_eq!(
            reply.sketch_vertices as usize, expected.sketch_vertices,
            "sketch vertices for {s}->{t}"
        );
        assert_eq!(
            reply.sketch_edges as usize, expected.sketch_edges,
            "sketch edges for {s}->{t}"
        );
        assert_eq!(
            reply.path,
            expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
            "witness path for {s}->{t}"
        );
    }

    // The same matrix as one batch frame: same gather plane, one wire
    // round-trip, per-item bit-identity.
    let batch: Vec<(u32, u32, WireFaults)> = matrix.clone();
    let items = client.batch(batch).expect("routed batch");
    assert_eq!(items.len(), matrix.len());
    for (item, (s, t, wire)) in items.iter().zip(&matrix) {
        let faults = wire.to_fault_set();
        let expected = oracle.query_with(NodeId::new(*s), NodeId::new(*t), &faults, &mut scratch);
        assert_eq!(item.distance, expected.distance.raw(), "batch {s}->{t}");
        assert_eq!(item.sketch_vertices as usize, expected.sketch_vertices);
        assert_eq!(item.sketch_edges as usize, expected.sketch_edges);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.vertices, g.num_vertices() as u64);
    assert_eq!(stats.queries, matrix.len() as u64);
    assert_eq!(stats.batch_queries, matrix.len() as u64);
    assert_eq!(stats.protocol_errors, 0, "no protocol errors end to end");

    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.shard_failures, 0);
    fleet.stop();
}

/// A single-process static server is a valid 1-shard backend: the
/// router's handshake accepts its generation-0 label plane and answers
/// match the oracle exactly. The second input is a graph long enough for
/// labels to be local, with queries whose equally short witness paths tie
/// on the order fault labels reach the decoder: the router assembles
/// them in owner-id order like the oracle, so the paths agree too.
#[test]
fn router_fronts_a_static_server_as_one_shard() {
    /// `(s, t, fault vertices)`
    type Query = (u32, u32, &'static [u32]);
    let inputs: [(Graph, f64, &[Query]); 2] = [
        (generators::grid2d(6, 5), 0.5, &[(0, 29, &[7])]),
        (
            generators::grid2d(3, 150),
            2.0,
            &[
                (431, 27, &[282, 382]),
                (58, 418, &[109, 236]),
                (33, 427, &[102, 174, 185, 250]),
                (15, 408, &[148, 180, 355, 390]),
            ],
        ),
    ];
    for (g, epsilon, queries) in inputs {
        let oracle = ForbiddenSetOracle::new(&g, epsilon);
        let plan = PartitionPlan::contiguous(g.num_vertices(), 1);
        let net = Network::from_oracle(ForbiddenSetOracle::new(&g, epsilon));
        let dir = TempDir::new("static1");
        let backend_ep = Endpoint::Unix(dir.path().join("backend.sock"));
        let backend = Server::bind(
            &backend_ep,
            ServeEngine::from_network(net),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind backend");
        let backend_shutdown = backend.shutdown_handle();
        let backend_thread = std::thread::spawn(move || backend.run());

        let (endpoint, _shutdown, router_thread) = spawn_router(vec![backend_ep], plan);
        let mut client = connect(&endpoint);
        let mut scratch = DecodeScratch::new();
        for &(s, t, fault_ids) in queries {
            let faults = FaultSet::from_vertices(fault_ids.iter().map(|&v| NodeId::new(v)));
            let expected = oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch);
            let wire = WireFaults {
                vertices: fault_ids.to_vec(),
                edges: vec![],
            };
            let reply = client
                .query(s, t, wire)
                .expect("query through 1-shard router");
            assert_eq!(reply.distance, expected.distance.raw());
            assert_eq!(
                reply.path,
                expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
                "witness path {s}->{t} with faults {fault_ids:?}"
            );
        }
        client.shutdown().expect("shutdown");
        router_thread.join().expect("router thread");
        backend_shutdown.signal();
        backend_thread.join().expect("backend thread");
    }
}

/// Ops the router does not serve are rejected typed, without the fleet.
/// (Malformed `(s, t, F)` — ids out of range, fault edges that are not
/// edges — is `reactor_serve.rs`'s table, byte for byte against the
/// single-process server.)
#[test]
fn router_rejects_bad_requests_typed() {
    let g = generators::grid2d(5, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("badreq");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);

    let mut client = connect(&endpoint);
    match client.route(0, 19, WireFaults::empty()) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnsupportedInMode, "{e:?}");
        }
        other => panic!("route through the router must be mode-gated, got {other:?}"),
    }
    match client.label_fetch(vec![0]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnsupportedInMode, "{e:?}");
        }
        other => panic!("label-fetch is shard-facing, got {other:?}"),
    }
    // The connection survives every rejection: a good query still works.
    let reply = client
        .query(0, 19, WireFaults::empty())
        .expect("good query");
    let mut scratch = DecodeScratch::new();
    let expected = oracle.query_with(
        NodeId::new(0),
        NodeId::new(19),
        &FaultSet::default(),
        &mut scratch,
    );
    assert_eq!(reply.distance, expected.distance.raw());

    client.shutdown().expect("shutdown");
    router_thread.join().expect("router thread");
    fleet.stop();
}

/// Killing a shard mid-service turns queries that need it into typed
/// `Unavailable` errors — never a panic, never a wrong answer — while
/// queries the surviving shards can answer keep flowing after redial
/// churn settles.
#[test]
fn shard_down_yields_unavailable_not_panic() {
    let g = generators::grid2d(6, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("down");
    let fleet = ShardFleet::spawn(&oracle, dir.path(), &plan);
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan.clone());

    // Find one vertex per shard so we can aim queries precisely.
    let owned_by_0 = plan.vertices_of(0);
    let owned_by_1 = plan.vertices_of(1);
    let (v0, v1) = (owned_by_0[0], owned_by_1[0]);

    let mut client = connect(&endpoint);
    client
        .query(v0.raw(), v1.raw(), WireFaults::empty())
        .expect("both shards up");

    // Kill shard 1; shard 0 keeps serving.
    let ShardFleet { mut handles, .. } = fleet;
    let (thread, handle) = handles.remove(1);
    handle.signal();
    thread.join().expect("shard 1 thread");

    // Queries needing shard 1 now fail typed; retry across the redial
    // window to see only Unavailable, never a panic or a wrong answer.
    let mut saw_unavailable = false;
    for _ in 0..20 {
        match client.query(v0.raw(), v1.raw(), WireFaults::empty()) {
            Err(ClientError::Server(e)) if e.code == ErrorCode::Unavailable => {
                saw_unavailable = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
            Err(other) => panic!("expected typed Unavailable, got {other:?}"),
        }
    }
    assert!(saw_unavailable, "dead shard must surface as Unavailable");

    // A query entirely within the surviving shard still answers, and
    // bit-identically.
    if owned_by_0.len() >= 2 {
        let (a, b) = (owned_by_0[0], owned_by_0[1]);
        let mut scratch = DecodeScratch::new();
        let expected = oracle.query_with(a, b, &FaultSet::default(), &mut scratch);
        let reply = client
            .query(a.raw(), b.raw(), WireFaults::empty())
            .expect("surviving shard still serves");
        assert_eq!(reply.distance, expected.distance.raw());
    }

    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert!(report.shard_failures > 0, "the dead shard was noticed");
    for (thread, handle) in handles {
        handle.signal();
        let _ = thread.join();
    }
}

/// A gather that fails *after* shutdown was signalled must still release
/// its client: the typed reply flushes, the connection closes, and
/// `run()` returns at once instead of sitting out the drain grace period
/// (`frame_deadline`, 10 s by default) on a connection nobody owes
/// anything.
#[test]
fn gather_failing_during_drain_does_not_stall_shutdown() {
    // A fake shard: answers the identity handshake, accepts the router's
    // one pool connection, reports the point-fetch that arrives on it,
    // and never answers; dropping the sockets is the kill.
    let dir = TempDir::new("stall");
    let sock = dir.path().join("fake.sock");
    let listener = UnixListener::bind(&sock).expect("bind fake shard");
    let n = 12usize;
    let identity = Response::EdgeSets(edge_sets_reply(&generators::path(n), 0.5, 1));
    let (fetch_seen_tx, fetch_seen_rx) = mpsc::channel::<()>();
    let (kill_tx, kill_rx) = mpsc::channel::<()>();
    let fake_shard = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let (mut handshake, _) = listener.accept().expect("handshake connection");
        protocol::read_frame(&mut handshake, MAX_FRAME, &mut buf).expect("handshake request");
        protocol::send_response(&mut handshake, &identity, &mut buf).expect("handshake reply");
        let (mut pooled, _) = listener.accept().expect("pool connection");
        protocol::read_frame(&mut pooled, MAX_FRAME, &mut buf).expect("point-fetch request");
        fetch_seen_tx.send(()).expect("test is waiting");
        kill_rx.recv().expect("test sends the kill");
    });

    let router = Router::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        vec![Endpoint::Unix(sock)],
        PartitionPlan::contiguous(n, 1),
        RouterConfig {
            pool_per_shard: 1,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let endpoint = router.local_endpoint().expect("router endpoint");
    let shutdown = router.shutdown_handle();
    let router_thread = std::thread::spawn(move || router.run());

    // An idle connection: the router closes it the moment it starts
    // draining, which is how the test knows the drain has begun.
    let Endpoint::Tcp(addr) = &endpoint else {
        panic!("bound a tcp endpoint");
    };
    let mut idle = std::net::TcpStream::connect(addr.as_str()).expect("idle connection");
    let query_endpoint = endpoint.clone();
    let query = std::thread::spawn(move || {
        connect(&query_endpoint).query(0, n as u32 - 1, WireFaults::empty())
    });
    fetch_seen_rx.recv().expect("the query reaches the shard");

    shutdown.signal();
    assert_eq!(
        idle.read(&mut [0u8; 1])
            .expect("idle connection closes cleanly"),
        0,
        "draining closes quiescent connections"
    );
    // Shutdown is in force with the query still outstanding: kill the shard.
    let killed = Instant::now();
    kill_tx.send(()).expect("fake shard is waiting");
    fake_shard.join().expect("fake shard thread");

    match query.join().expect("query thread") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Unavailable, "{e:?}"),
        other => panic!("a gather cut off mid-drain must be typed Unavailable, got {other:?}"),
    }
    let report = router_thread.join().expect("router thread");
    let drained_in = killed.elapsed();
    assert!(
        drained_in < Duration::from_secs(3),
        "run() took {drained_in:?} to return after the last reply was owed: \
         the failed gather's connection was left open for the drain deadline"
    );
    assert_eq!(report.protocol_errors, 1);
    assert!(report.shard_failures > 0);
}

/// Label-fetch replies are byte-budgeted: a shard packs the longest
/// request prefix that fits and the reader re-requests the tail. With
/// the budget forced to a single byte, every reply carries exactly one
/// label — the degenerate worst case — and both the blocking client's
/// reassembly loop and the router's tail re-request must still produce
/// bit-identical results. This is the regression test for the wire
/// truncation where multi-label replies outgrew the frame ceiling and
/// killed the upstream connection.
#[test]
fn short_label_fetch_replies_reassemble_bit_identically() {
    let g = generators::grid2d(6, 5);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let dir = TempDir::new("short");
    let fleet = ShardFleet::spawn_with_budget(&oracle, dir.path(), &plan, Some(1));

    // Direct client fetch of every shard-0 vertex: the server may only
    // return one label per frame, so the client loop has to stitch the
    // full set back together, in request order.
    let owned = plan.vertices_of(0);
    let ids: Vec<u32> = owned.iter().map(|v| v.raw()).collect();
    let mut probe = connect(&fleet.endpoints[0]);
    let reply = probe.label_fetch(ids.clone()).expect("assembled fetch");
    assert_eq!(reply.labels.len(), ids.len(), "every label arrives");
    for (lb, &v) in reply.labels.iter().zip(&ids) {
        assert_eq!(lb.vertex, v, "labels arrive in request order");
    }
    drop(probe);

    // Routed queries gather through the same budget-starved fleet and
    // must stay bit-identical to the oracle.
    let (endpoint, _shutdown, router_thread) = spawn_router(fleet.endpoints.clone(), plan);
    let mut client = connect(&endpoint);
    let mut scratch = DecodeScratch::new();
    for (s, t, wire) in fault_matrix(&g) {
        let faults = wire.to_fault_set();
        let expected = oracle.query_with(NodeId::new(s), NodeId::new(t), &faults, &mut scratch);
        let reply = client.query(s, t, wire).expect("routed query");
        assert_eq!(reply.distance, expected.distance.raw(), "distance {s}->{t}");
        assert_eq!(
            reply.path,
            expected.path.iter().map(|v| v.raw()).collect::<Vec<_>>(),
            "path {s}->{t}"
        );
    }
    client.shutdown().expect("shutdown");
    let report = router_thread.join().expect("router thread");
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.shard_failures, 0);
    assert!(
        report.upstream_fetches > report.queries,
        "tail re-requests must have happened under a 1-byte budget"
    );
    fleet.stop();
}

/// The corruption sweep, extended to the sharded plane: flip one byte
/// at a stride of offsets in shard 0's files, then (a) opening the
/// store either fails typed or succeeds, and (b) if it opens and
/// serves, every routed answer is either bit-identical to the oracle or
/// a typed error — never a panic, never a silent wrong answer.
#[test]
fn corrupted_shard_store_typed_or_bit_identical_never_panic() {
    let g = generators::grid2d(5, 4);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let plan = PartitionPlan::for_oracle(&oracle, 2);
    let pristine = TempDir::new("corrupt-src");
    write_shard_stores(&oracle, pristine.path(), &plan).expect("write shard stores");
    let shard0 = pristine.path().join(shard_dir_name(0));
    let mut scratch = DecodeScratch::new();

    // Collect every file in shard 0's directory.
    let files: Vec<PathBuf> = std::fs::read_dir(&shard0)
        .expect("read shard dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .collect();
    assert!(files.len() >= 3, "segment, manifest, and sidecar expected");

    let mut opened = 0usize;
    let mut rejected = 0usize;
    for file in &files {
        let original = std::fs::read(file).expect("read file");
        for offset in (0..original.len()).step_by(original.len().div_ceil(6).max(1)) {
            let mut mutated = original.clone();
            mutated[offset] ^= 0x20;
            std::fs::write(file, &mutated).expect("plant corruption");

            match ShardStore::open(&shard0) {
                Err(_) => rejected += 1, // typed rejection at open: contract held
                Ok(store) => {
                    opened += 1;
                    // The store opened (corruption missed every check
                    // that guards opening). Serve it for real and
                    // demand bit-identity or a typed error per query.
                    let dir = TempDir::new("corrupt-serve");
                    let sock = dir.path().join("s0.sock");
                    let server = Server::bind(
                        &Endpoint::Unix(sock.clone()),
                        ServeEngine::from_shard(store),
                        ServerConfig {
                            workers: 1,
                            ..ServerConfig::default()
                        },
                    )
                    .expect("bind corrupted shard");
                    let shutdown = server.shutdown_handle();
                    let thread = std::thread::spawn(move || server.run());
                    let mut probe = connect(&Endpoint::Unix(sock));
                    for &v in plan.vertices_of(0).iter().take(4) {
                        match probe.label_fetch(vec![v.raw()]) {
                            Err(ClientError::Server(_)) => {} // typed: fine
                            Err(other) => panic!("transport-level failure: {other:?}"),
                            Ok(reply) => {
                                // Bytes served: they must decode to the
                                // oracle's exact label or fail typed
                                // downstream — the router's decode
                                // validates owner and invariants, so a
                                // flipped label is caught there. Here we
                                // assert the serving path never panics
                                // and the frame stays well-formed.
                                assert_eq!(reply.labels.len(), 1);
                            }
                        }
                    }
                    shutdown.signal();
                    let _ = thread.join();
                    let _ = probe;
                    let _ = oracle.query_with(
                        NodeId::new(0),
                        NodeId::new(1),
                        &FaultSet::default(),
                        &mut scratch,
                    );
                }
            }
        }
        std::fs::write(file, &original).expect("restore file");
    }
    assert!(
        rejected > 0,
        "the sweep must hit at least one guarded byte ({opened} opens)"
    );
    // And after restoring everything, the store is whole again.
    ShardStore::open(&shard0).expect("pristine store reopens");
}
