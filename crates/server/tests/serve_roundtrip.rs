//! End-to-end serving tests: a real server thread, real sockets, typed
//! clients. The core assertion is *differential*: every answer that
//! crosses the wire must be bit-identical to the in-process oracle on
//! the same inputs — the protocol adds transport, never approximation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fsdl_graph::{generators, NodeId};
use fsdl_labels::{DynamicConfig, DynamicOracle, ForbiddenSetOracle};
use fsdl_routing::Network;
use fsdl_server::{
    Client, ClientError, Endpoint, ErrorCode, RouteReply, ServeEngine, Server, ServerConfig,
    UpdateOp, WireFaults,
};
use fsdl_testkit::Rng;

fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let k = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fsdl-serve-{tag}-{}-{k}", std::process::id()))
}

/// Binds a static-engine server on `endpoint`, runs it on a thread, and
/// hands back the shared network for in-process comparison.
fn spawn_static(
    endpoint: &Endpoint,
    workers: usize,
) -> (
    Arc<Network>,
    Endpoint,
    std::thread::JoinHandle<fsdl_server::ServeReport>,
) {
    let g = generators::grid2d(7, 5);
    let oracle = ForbiddenSetOracle::new(&g, 0.5);
    let net = Arc::new(Network::from_oracle(oracle));
    let server = Server::bind(
        endpoint,
        ServeEngine::Static(Arc::clone(&net)),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let bound = server.local_endpoint().expect("local endpoint");
    let handle = std::thread::spawn(move || server.run());
    (net, bound, handle)
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect_with_retry(endpoint, Duration::from_secs(5)).expect("connect")
}

#[test]
fn tcp_query_batch_route_differential() {
    let (net, endpoint, handle) = spawn_static(&Endpoint::Tcp("127.0.0.1:0".into()), 2);
    let mut client = connect(&endpoint);
    let n = net.oracle().labeling().graph().num_vertices() as u32;
    let mut rng = Rng::seed_from_u64(0xD1FF);

    // Single queries, faulty and failure-free, against the in-process
    // answer on the byte-identical fault set.
    for _ in 0..40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let mut vertices = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let v = rng.gen_range(0..n);
            if v != s && v != t {
                vertices.push(v);
            }
        }
        let faults = WireFaults {
            vertices,
            edges: Vec::new(),
        };
        let wire = client.query(s, t, faults.clone()).expect("query");
        let local = net
            .oracle()
            .query(NodeId::new(s), NodeId::new(t), &faults.to_fault_set());
        assert_eq!(
            wire.distance,
            local.distance.raw(),
            "distance must be bit-identical"
        );
        assert_eq!(wire.sketch_vertices as usize, local.sketch_vertices);
        assert_eq!(wire.sketch_edges as usize, local.sketch_edges);
        assert_eq!(
            wire.path,
            local.path.iter().map(|v| v.raw()).collect::<Vec<_>>()
        );
    }

    // A batch frame versus `query_batch` on the same tuples, every other
    // one with its own forbidden set.
    let tuples: Vec<(u32, u32, WireFaults)> = (0..16)
        .map(|k| {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let mut faults = WireFaults::default();
            if k % 2 == 1 {
                let wanted = rng.gen_range(1..4usize);
                faults.vertices = (0..wanted).map(|_| rng.gen_range(0..n)).collect();
                faults.vertices.retain(|&v| v != s && v != t);
            }
            (s, t, faults)
        })
        .collect();
    let local_tuples: Vec<_> = tuples
        .iter()
        .map(|(s, t, f)| (NodeId::new(*s), NodeId::new(*t), f.to_fault_set()))
        .collect();
    let wire_items = client.batch(tuples).expect("batch");
    let local_items = net.oracle().query_batch(&local_tuples);
    assert_eq!(wire_items.len(), local_items.len());
    for (w, l) in wire_items.iter().zip(&local_items) {
        assert_eq!(w.distance, l.distance.raw());
        assert_eq!(w.sketch_vertices as usize, l.sketch_vertices);
        assert_eq!(w.sketch_edges as usize, l.sketch_edges);
    }

    // Routing over the wire matches the in-process simulator.
    let faults = WireFaults {
        vertices: vec![17],
        edges: Vec::new(),
    };
    let wire_route = client.route(0, n - 1, faults.clone()).expect("route");
    let local_route = net.route(NodeId::new(0), NodeId::new(n - 1), &faults.to_fault_set());
    match (wire_route, local_route) {
        (
            RouteReply::Delivered {
                hops,
                header_bits,
                path,
            },
            Ok(delivery),
        ) => {
            assert_eq!(hops as usize, delivery.hops);
            assert_eq!(header_bits as usize, delivery.header_bits);
            assert_eq!(
                path,
                delivery.path.iter().map(|v| v.raw()).collect::<Vec<_>>()
            );
        }
        (RouteReply::Failed(msg), Err(failure)) => assert_eq!(msg, failure.to_string()),
        (wire, local) => panic!("wire {wire:?} disagrees with local {local:?}"),
    }

    // Stats reflect the traffic; shutdown drains cleanly.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.vertices as u32, n);
    assert_eq!(stats.dynamic, 0);
    assert_eq!(stats.queries, 40);
    assert_eq!(stats.batch_queries, 16);
    assert_eq!(stats.routes, 1);
    assert_eq!(stats.protocol_errors, 0);
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread must not panic");
    assert_eq!(report.queries, 40);
    assert_eq!(report.batch_queries, 16);
    assert_eq!(report.routes, 1);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn unix_socket_roundtrip_and_cleanup() {
    let sock = scratch_path("unix").with_extension("sock");
    let (net, endpoint, handle) = spawn_static(&Endpoint::Unix(sock.clone()), 1);
    let mut client = connect(&endpoint);
    let n = net.oracle().labeling().graph().num_vertices() as u32;
    let wire = client
        .query(0, n - 1, WireFaults::default())
        .expect("query");
    let local = net.oracle().query(
        NodeId::new(0),
        NodeId::new(n - 1),
        &fsdl_graph::FaultSet::empty(),
    );
    assert_eq!(wire.distance, local.distance.raw());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread must not panic");
    assert!(
        !sock.exists(),
        "socket file must be removed on clean shutdown"
    );
}

#[test]
fn concurrent_clients_each_get_consistent_answers() {
    let (net, endpoint, handle) = spawn_static(&Endpoint::Tcp("127.0.0.1:0".into()), 3);
    let n = net.oracle().labeling().graph().num_vertices() as u32;
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let endpoint = endpoint.clone();
            let net = Arc::clone(&net);
            scope.spawn(move || {
                let mut client = connect(&endpoint);
                let mut rng = Rng::seed_from_u64(0xC0FFEE ^ c);
                for _ in 0..25 {
                    let s = rng.gen_range(0..n);
                    let t = rng.gen_range(0..n);
                    let wire = client.query(s, t, WireFaults::default()).expect("query");
                    let local = net.oracle().query(
                        NodeId::new(s),
                        NodeId::new(t),
                        &fsdl_graph::FaultSet::empty(),
                    );
                    assert_eq!(wire.distance, local.distance.raw());
                }
            });
        }
    });
    let mut client = connect(&endpoint);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queries, 100);
    assert_eq!(stats.protocol_errors, 0);
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread must not panic");
    assert_eq!(report.queries, 100);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn dynamic_mode_updates_queries_and_mode_gating() {
    let g = generators::grid2d(6, 4);
    let dir = scratch_path("dyn-store");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut oracle = DynamicOracle::try_with_config(
        &g,
        DynamicConfig {
            epsilon: 0.5,
            ..DynamicConfig::default()
        },
    )
    .expect("dynamic oracle");
    oracle.attach_store(&dir).expect("attach store");

    let sock = scratch_path("dyn").with_extension("sock");
    let server = Server::bind(
        &Endpoint::Unix(sock.clone()),
        ServeEngine::from_dynamic(oracle),
        ServerConfig::default(),
    )
    .expect("bind");
    let endpoint = server.local_endpoint().expect("endpoint");
    let handle = std::thread::spawn(move || server.run());
    let mut client = connect(&endpoint);

    let before = client.query(0, 23, WireFaults::default()).expect("query");

    // An id outside the graph is rejected in the static server's words.
    match client.query(0, 24, WireFaults::default()) {
        Err(ClientError::Server(reply)) => {
            assert_eq!(reply.code, ErrorCode::BadRequest);
            assert_eq!(
                reply.message,
                "v24 is out of range for a graph with 24 vertices"
            );
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Per-query faults are static-mode vocabulary.
    let err = client
        .query(
            0,
            23,
            WireFaults {
                vertices: vec![7],
                edges: Vec::new(),
            },
        )
        .expect_err("per-query faults must be rejected in dynamic mode");
    match err {
        ClientError::Server(reply) => assert_eq!(reply.code, ErrorCode::UnsupportedInMode),
        other => panic!("expected typed server error, got {other}"),
    }

    // Route is static-only; update is the dynamic path.
    let err = client
        .route(0, 23, WireFaults::default())
        .expect_err("route must be rejected in dynamic mode");
    assert!(matches!(
        err,
        ClientError::Server(reply) if reply.code == ErrorCode::UnsupportedInMode
    ));
    let active = client.update(UpdateOp::DeleteVertex(7)).expect("update");
    assert_eq!(active, 1);
    let after = client.query(0, 23, WireFaults::default()).expect("query");
    assert!(
        after.distance >= before.distance,
        "deleting a vertex can only lengthen distances"
    );

    // Rejected updates come back typed, and the connection survives
    // (restoring a vertex that was never deleted is a typed error;
    // double-deleting is an Ok no-op by the dynamic oracle's contract).
    let err = client
        .update(UpdateOp::RestoreVertex(8))
        .expect_err("restoring a live vertex must be rejected");
    assert!(matches!(
        err,
        ClientError::Server(reply) if reply.code == ErrorCode::UpdateRejected
    ));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.dynamic, 1);
    assert_eq!(stats.active_faults, 1);
    assert_eq!(stats.updates, 1);

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread must not panic");
    assert_eq!(report.updates, 1);

    // The durable update must survive reopening the store.
    let reopened = DynamicOracle::open(&dir, &g).expect("reopen");
    assert_eq!(reopened.current_faults().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every op of the static server that takes ids holds them to the one
/// rule, in the resolver's words: `query`, `route` (the same `(s, t, F)`
/// gets the same rejection from both) and `label-fetch`.
#[test]
fn out_of_range_query_is_a_typed_error_not_a_panic() {
    let (net, endpoint, handle) = spawn_static(&Endpoint::Tcp("127.0.0.1:0".into()), 1);
    let mut client = connect(&endpoint);
    let bad_request = |result: Result<(), ClientError>| match result {
        Err(ClientError::Server(reply)) if reply.code == ErrorCode::BadRequest => reply.message,
        other => panic!("expected BadRequest, got {other:?}"),
    };
    let faults = |vertices: &[u32], edges: &[(u32, u32)]| WireFaults {
        vertices: vertices.to_vec(),
        edges: edges.to_vec(),
    };
    let malformed = [
        (0, 9_999_999, WireFaults::default()),
        (35, 1, WireFaults::default()),
        (0, 1, faults(&[40], &[])),
        (0, 1, faults(&[], &[(3, 40)])),
        (0, 1, faults(&[], &[(0, 12)])), // not an edge of the grid
    ];
    for (s, t, f) in &malformed {
        let in_process = net
            .oracle()
            .try_query(NodeId::new(*s), NodeId::new(*t), &f.to_fault_set())
            .expect_err("malformed")
            .to_string();
        let queried = bad_request(client.query(*s, *t, f.clone()).map(drop));
        assert_eq!(queried, in_process);
        let routed = bad_request(client.route(*s, *t, f.clone()).map(drop));
        assert_eq!(routed, in_process, "route vs query on ({s}, {t}, {f:?})");
    }
    let fetched = bad_request(client.label_fetch(vec![0, 35]).map(drop));
    assert_eq!(fetched, "v35 is out of range for a graph with 35 vertices");
    // The same connection keeps working afterwards.
    client.query(0, 1, WireFaults::default()).expect("query");
    client.route(0, 1, WireFaults::default()).expect("route");
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread must not panic");
    assert_eq!(report.protocol_errors, 2 * malformed.len() as u64 + 1);
    assert_eq!(report.routes, 1, "a rejected route frame is not a route");
}
