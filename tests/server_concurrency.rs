//! Integration tests for the serving subsystem: thread-safety contracts,
//! concurrent TCP clients receiving results identical to direct library
//! calls, and result-cache hit/eviction behavior — all through the
//! public facade.

use parscan::prelude::*;
use parscan::server::{EngineStats, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

// The serving layer's entire design rests on sharing one index and one
// engine across threads; lock these bounds in at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScanIndex>();
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<GraphRegistry>();
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<Arc<Clustering>>();
    assert_send_sync::<EngineStats>();
    assert_send_sync::<Request>();
    assert_send_sync::<Response>();
};

fn test_index() -> ScanIndex {
    let (g, _) = parscan::graph::generators::planted_partition(400, 5, 10.0, 1.2, 99);
    ScanIndex::build(g, IndexConfig::default())
}

fn build_engine(cache_capacity: usize) -> (Arc<ScanIndex>, Arc<QueryEngine>) {
    let index = Arc::new(test_index());
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&index),
        EngineConfig {
            cache_capacity,
            ..Default::default()
        },
    ));
    (index, engine)
}

/// A server whose default graph is [`test_index`], plus that graph's
/// index and engine.
fn build_server(cache_capacity: usize) -> (Arc<ScanIndex>, Arc<QueryEngine>, ServerHandle) {
    let registry = Arc::new(GraphRegistry::new(
        "default",
        RegistryConfig {
            engine: EngineConfig {
                cache_capacity,
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    let engine = registry.install("default", test_index()).unwrap();
    let server = serve(registry, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    (engine.index(), engine, server)
}

/// Extract a JSON integer array field like `"labels":[0,-1,2]`.
fn json_int_array(response: &str, key: &str) -> Vec<i64> {
    let needle = format!("\"{key}\":[");
    let start = response
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {response}"))
        + needle.len();
    let end = start
        + response[start..]
            .find(']')
            .unwrap_or_else(|| panic!("unterminated {key:?} array"));
    let body = &response[start..end];
    if body.is_empty() {
        return Vec::new();
    }
    body.split(',')
        .map(|t| t.parse::<i64>().expect("integer array element"))
        .collect()
}

/// The wire encoding of a clustering's labels: `UNCLUSTERED` as -1.
fn wire_labels(c: &Clustering) -> Vec<i64> {
    c.labels
        .iter()
        .map(|&l| if l == UNCLUSTERED { -1 } else { l as i64 })
        .collect()
}

fn wire_cores(c: &Clustering) -> Vec<i64> {
    c.core
        .iter()
        .enumerate()
        .filter_map(|(v, &is_core)| is_core.then_some(v as i64))
        .collect()
}

#[test]
fn concurrent_clients_match_direct_queries() {
    let (index, engine, server) = build_server(64);
    let addr = server.addr();

    // Each client thread issues every (μ, ε) point, interleaving with the
    // other clients; some answers are cold, most are cache hits. Every
    // response must equal the direct library call exactly.
    const CLIENTS: usize = 4;
    const POINTS: &[(u32, f32)] = &[(2, 0.25), (3, 0.4), (3, 0.55), (4, 0.35), (5, 0.5)];

    let expected: Vec<(Vec<i64>, Vec<i64>)> = POINTS
        .iter()
        .map(|&(mu, eps)| {
            let c = index.cluster_with(QueryParams::new(mu, eps), BorderAssignment::MostSimilar);
            (wire_labels(&c), wire_cores(&c))
        })
        .collect();

    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let expected = &expected;
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for round in 0..2 {
                    for k in 0..POINTS.len() {
                        // Stagger request order per client.
                        let i = (k + client + round) % POINTS.len();
                        let (mu, eps) = POINTS[i];
                        stream
                            .write_all(format!("CLUSTER {mu} {eps} FULL\n").as_bytes())
                            .unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        assert!(line.contains("\"ok\":true"), "{line}");
                        assert_eq!(
                            json_int_array(&line, "labels"),
                            expected[i].0,
                            "labels diverge at point {i} (client {client})"
                        );
                        assert_eq!(
                            json_int_array(&line, "cores"),
                            expected[i].1,
                            "cores diverge at point {i} (client {client})"
                        );
                    }
                }
                stream.write_all(b"QUIT\n").unwrap();
            });
        }
    });

    // All clients × rounds × points answered; each distinct point
    // computed at most a handful of times (concurrent cold misses may
    // race, but the steady state is hits).
    let stats = engine.stats();
    assert_eq!(stats.cluster_requests, (CLIENTS * 2 * POINTS.len()) as u64);
    assert!(
        stats.cache_hits > stats.cache_misses,
        "hot serving must be hit-dominated: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn batch_over_tcp_matches_direct_queries() {
    let (index, _, server) = build_server(64);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"BATCH CLUSTER 3 0.4 FULL ; CLUSTER 3 0.4 FULL ; CLUSTER 2 0.3 FULL\n")
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"op\":\"batch\""), "{line}");

    let want_a = index.cluster_with(QueryParams::new(3, 0.4), BorderAssignment::MostSimilar);
    let want_b = index.cluster_with(QueryParams::new(2, 0.3), BorderAssignment::MostSimilar);
    // Three results; the first two identical, all matching direct calls.
    let results: Vec<&str> = line.split("\"op\":\"cluster\"").skip(1).collect();
    assert_eq!(results.len(), 3);
    assert_eq!(json_int_array(results[0], "labels"), wire_labels(&want_a));
    assert_eq!(json_int_array(results[1], "labels"), wire_labels(&want_a));
    assert_eq!(json_int_array(results[2], "labels"), wire_labels(&want_b));
    stream.write_all(b"QUIT\n").unwrap();
    server.shutdown();
}

#[test]
fn cache_hits_share_one_allocation() {
    let (_, engine) = build_engine(32);
    let p = QueryParams::new(3, 0.45);
    let cold = engine.cluster(p);
    assert!(!cold.cached);
    for _ in 0..5 {
        let hot = engine.cluster(p);
        assert!(hot.cached);
        assert!(Arc::ptr_eq(&cold.clustering, &hot.clustering));
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 5);
    assert!(stats.hit_rate() > 0.8);
}

#[test]
fn equivalent_epsilons_are_cache_hits() {
    let (index, engine) = build_engine(32);
    let cold = engine.cluster(QueryParams::new(3, 0.5));
    let (_, snapped) = engine.snap_epsilon(0.5);
    // The snapped representative and the raw ε share one cache entry…
    let hot = engine.cluster(QueryParams::new(3, snapped));
    assert!(hot.cached, "snapped ε must hit the raw ε's entry");
    // …and legitimately so: the index returns the identical clustering.
    let direct_raw = index.cluster_with(QueryParams::new(3, 0.5), BorderAssignment::MostSimilar);
    let direct_snapped =
        index.cluster_with(QueryParams::new(3, snapped), BorderAssignment::MostSimilar);
    assert_eq!(direct_raw, direct_snapped);
    assert_eq!(*cold.clustering, direct_raw);
}

#[test]
fn eviction_under_capacity_pressure_stays_correct() {
    let (index, engine) = build_engine(2);
    let points: Vec<QueryParams> = (1..=9)
        .map(|i| QueryParams::new(2, i as f32 / 10.0))
        .collect();
    // Fill far past capacity, then re-query everything.
    for &p in &points {
        engine.cluster(p);
    }
    for &p in &points {
        let got = engine.cluster(p);
        let want = index.cluster_with(p, BorderAssignment::MostSimilar);
        assert_eq!(
            *got.clustering, want,
            "evicted entry recomputed wrong at {p:?}"
        );
    }
    let stats = engine.stats();
    assert!(stats.cache_len <= stats.cache_capacity);
    assert!(
        stats.cache_misses > points.len() as u64,
        "capacity 2 over 9 points must evict and recompute: {stats:?}"
    );
}

#[test]
fn concurrent_in_process_queries_are_consistent() {
    let (index, engine) = build_engine(16);
    let p = QueryParams::new(3, 0.4);
    let want = index.cluster_with(p, BorderAssignment::MostSimilar);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let engine = Arc::clone(&engine);
            let want = &want;
            s.spawn(move || {
                for _ in 0..10 {
                    let got = engine.cluster(p);
                    assert_eq!(*got.clustering, *want);
                }
            });
        }
    });
    assert_eq!(engine.stats().cluster_requests, 60);
}
