//! Saturation tests for the reactor-based server: 10k+ simultaneously
//! open sessions held by a bounded thread count, correct responses under
//! a hot query mix, and admission control that sheds — with a typed
//! response, never a hang — past the configured connection and queue
//! limits.
//!
//! The big-session test drives the *real* binary
//! (`CARGO_BIN_EXE_parscan`) so the thread-count assertion reads
//! `/proc/<pid>/status` of an honest process. Set `SATURATION_SESSIONS`
//! to lower the target on constrained runners (CI uses 2000); the
//! default is 10000.

mod common;

use parscan::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn session_target() -> usize {
    std::env::var("SATURATION_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(args: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_parscan"))
            .arg("serve")
            .args(args)
            .args(["--port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn parscan serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before its banner")
                .expect("read banner");
            // "serving 1 graph(s) on 127.0.0.1:PORT (~0 MiB resident...".
            if let Some(rest) = line.split(" on ").nth(1) {
                if line.starts_with("serving") {
                    let addr = rest.split_whitespace().next().expect("addr token");
                    break addr.parse().expect("parse addr");
                }
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    /// Kernel-reported thread count of the serving process.
    fn thread_count(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .expect("thread count")
    }

    fn kill(mut self) {
        self.child.kill().expect("kill");
        let _ = self.child.wait();
    }
}

fn temp_graph(name: &str, n: usize, seed: u64) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("parscan-sat-{}-{name}.txt", std::process::id()));
    let (g, _) = parscan::graph::generators::planted_partition(n, 4, 9.0, 1.0, seed);
    parscan::graph::io::write_edge_list_text(&g, path.to_str().unwrap()).unwrap();
    path
}

/// Connect with retries: a burst of thousands of connects can outrun the
/// listener backlog while the reactor drains it.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut delay = Duration::from_millis(10);
    for _ in 0..6 {
        if let Ok(stream) = TcpStream::connect(addr) {
            return stream;
        }
        std::thread::sleep(delay);
        delay *= 2;
    }
    TcpStream::connect(addr).expect("connect after retries")
}

/// One buffered session. Writes go through `get_mut()` (BufReader only
/// buffers reads), so each session costs exactly one fd — which is what
/// lets one test process hold 10k of them under a 20k fd limit.
fn ask(session: &mut BufReader<TcpStream>, line: &str) {
    session
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
}

fn answer(session: &mut BufReader<TcpStream>) -> String {
    let mut response = String::new();
    session.read_line(&mut response).expect("read response");
    assert!(
        response.ends_with('\n'),
        "connection closed mid-stream: {response:?}"
    );
    response
}

#[test]
fn ten_thousand_sessions_on_a_bounded_thread_count() {
    let sessions = session_target();
    let graph = temp_graph("big", 400, 7);
    // A queue bound above the session count: this test measures
    // session-holding, so the mass-PING volley must not trip admission
    // control (the shed tests below exercise that deliberately).
    let server = ServerProc::spawn(&[graph.to_str().unwrap(), "--cache", "64", "--queue", "20000"]);

    // Open every session up front and keep them all.
    let mut conns: Vec<BufReader<TcpStream>> = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let stream = connect(server.addr);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        conns.push(BufReader::new(stream));
        // Brief pauses keep the connect burst inside the accept backlog.
        if i % 100 == 99 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Hot mix on a 1-in-50 subset while the rest sit idle: clusters
    // (cache hits and misses), stats, pings.
    for (i, session) in conns.iter_mut().enumerate().filter(|(i, _)| i % 50 == 0) {
        let request = match (i / 50) % 3 {
            0 => "CLUSTER 3 0.4",
            1 => "STATS",
            _ => "PING",
        };
        ask(session, request);
    }
    for (i, session) in conns.iter_mut().enumerate().filter(|(i, _)| i % 50 == 0) {
        let response = answer(session);
        assert!(
            response.contains(r#""ok":true"#),
            "hot-mix response {i}: {response}"
        );
    }

    // The tentpole claim: every session above is simultaneously open,
    // yet the server runs on a fixed handful of threads, not one per
    // connection.
    let threads = server.thread_count();
    assert!(
        threads < 64,
        "expected a bounded thread count with {sessions} open sessions, got {threads}"
    );

    // The gauge agrees that all sessions are registered at once.
    let stats = {
        let session = &mut conns[1];
        ask(session, "STATS");
        answer(session)
    };
    let gauge = stats
        .split(r#""reactor":{"connections":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("no reactor gauge in {stats}"));
    assert!(
        gauge >= sessions,
        "reactor reports {gauge} connections, expected at least {sessions}"
    );

    // Every single session is still live and answers correctly:
    // write-all then read-all, so the server holds them concurrently.
    for session in conns.iter_mut() {
        ask(session, "PING");
    }
    for (i, session) in conns.iter_mut().enumerate() {
        let response = answer(session);
        assert_eq!(
            response.trim(),
            r#"{"ok":true,"op":"pong"}"#,
            "session {i} of {sessions}"
        );
    }

    common::assert_request_ledger_balances(server.addr);
    server.kill();
    let _ = std::fs::remove_file(&graph);
}

/// An edge list served through a named pipe: a `LOAD` of this path
/// parks the worker inside the file read until the test feeds and
/// closes the write end. That makes worker occupancy *deterministic* —
/// no sleep calibrated against build speed, so the shed tests hold in
/// debug and release alike.
struct FifoGraph {
    path: std::path::PathBuf,
}

impl FifoGraph {
    fn new(tag: &str) -> FifoGraph {
        let path =
            std::env::temp_dir().join(format!("parscan-sat-{}-{tag}.fifo", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let status = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .expect("run mkfifo");
        assert!(status.success(), "mkfifo {path:?} failed");
        FifoGraph { path }
    }

    fn path(&self) -> &str {
        self.path.to_str().unwrap()
    }

    /// Rendezvous: opening the write end blocks until the serving
    /// worker has opened the read end — when this returns, the worker
    /// is provably parked inside the `LOAD`.
    fn handshake(&self) -> std::fs::File {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .expect("open fifo writer")
    }

    /// Feed a tiny valid edge list and close: the parked `LOAD` sees
    /// EOF, parses, builds, and answers.
    fn release(mut writer: std::fs::File) {
        writer
            .write_all(b"0 1\n1 2\n2 0\n0 3\n3 1\n")
            .expect("feed fifo");
    }
}

impl Drop for FifoGraph {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn small_registry(n: usize, seed: u64) -> Arc<GraphRegistry> {
    let (g, _) = parscan::graph::generators::planted_partition(n, 4, 9.0, 1.0, seed);
    let registry = Arc::new(GraphRegistry::new("default", RegistryConfig::default()));
    registry
        .install("default", ScanIndex::build(g, IndexConfig::default()))
        .unwrap();
    registry
}

#[test]
fn connection_limit_sheds_with_a_typed_response() {
    let server = serve(
        small_registry(120, 3),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 8,
            ..Default::default()
        },
    )
    .expect("bind");

    // Fill the connection budget and prove each slot is registered (a
    // PING roundtrip means the reactor completed the accept).
    let mut held = Vec::new();
    for _ in 0..8 {
        let mut session = BufReader::new(connect(server.addr()));
        session
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        ask(&mut session, "PING");
        assert!(answer(&mut session).contains("pong"));
        held.push(session);
    }

    // The 9th connection gets a typed shed line, then EOF — not a hang,
    // not a silent reset.
    let mut rejected = BufReader::new(connect(server.addr()));
    rejected
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    rejected.read_line(&mut line).expect("read shed line");
    assert!(
        line.contains(r#""op":"shed""#) && line.contains("connection limit"),
        "{line}"
    );
    line.clear();
    assert_eq!(rejected.read_line(&mut line).expect("read EOF"), 0);

    // The shed shows up in STATS, and held sessions still work.
    ask(&mut held[0], "STATS");
    let stats = answer(&mut held[0]);
    assert!(stats.contains(r#""shed_connections":1"#), "{stats}");

    // Freeing a slot readmits new connections.
    ask(&mut held[7], "QUIT");
    assert!(answer(&mut held[7]).contains("bye"));
    held.pop();
    std::thread::sleep(Duration::from_millis(200));
    let mut readmitted = BufReader::new(connect(server.addr()));
    readmitted
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    ask(&mut readmitted, "PING");
    assert!(answer(&mut readmitted).contains("pong"));
    drop(readmitted);

    common::assert_request_ledger_balances(server.addr());
    server.shutdown();
}

#[test]
fn queue_overflow_sheds_requests_without_hanging_in_flight_work() {
    // One worker and a one-slot queue: a LOAD parked on a named pipe
    // occupies the worker, a second LOAD fills the queue, and every
    // request after that must shed immediately.
    let fifo_a = FifoGraph::new("queue-a");
    let fifo_b = FifoGraph::new("queue-b");
    let server = serve(
        small_registry(120, 9),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_limit: 1,
            ..Default::default()
        },
    )
    .expect("bind");

    let mut slow_a = BufReader::new(connect(server.addr()));
    let mut slow_b = BufReader::new(connect(server.addr()));
    for s in [&mut slow_a, &mut slow_b] {
        s.get_ref()
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
    }
    // Occupy the worker; the handshake returns only once it is parked.
    ask(&mut slow_a, &format!("LOAD biga {}", fifo_a.path()));
    let writer_a = fifo_a.handshake();
    // Fill the queue behind it. The pause only covers the reactor's
    // enqueue of an already-received line, not any computation.
    ask(&mut slow_b, &format!("LOAD bigb {}", fifo_b.path()));
    std::thread::sleep(Duration::from_millis(200));

    // Saturated: new requests shed with the typed response, instantly.
    let mut shed_seen = 0;
    for i in 0..5 {
        let mut probe = BufReader::new(connect(server.addr()));
        probe
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        ask(&mut probe, "PING");
        let response = answer(&mut probe);
        assert!(
            response.contains(r#""op":"shed""#) && response.contains("queue at limit"),
            "probe {i} was not shed while worker and queue were full: {response}"
        );
        shed_seen += 1;
    }

    // Nothing hangs: both in-flight loads complete with real answers
    // once the pipes are fed.
    FifoGraph::release(writer_a);
    let response = answer(&mut slow_a);
    assert!(
        response.contains(r#""op":"load""#) && response.contains(r#""ok":true"#),
        "load a: {response}"
    );
    FifoGraph::release(fifo_b.handshake());
    let response = answer(&mut slow_b);
    assert!(
        response.contains(r#""op":"load""#) && response.contains(r#""ok":true"#),
        "load b: {response}"
    );

    // And the ledger knows about the sheds.
    ask(&mut slow_a, "STATS");
    let stats = answer(&mut slow_a);
    let shed = stats
        .split(r#""shed_requests":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no shed_requests in {stats}"));
    assert!(shed >= shed_seen, "{stats}");

    common::assert_request_ledger_balances(server.addr());
    server.shutdown();
}

#[test]
fn pipelined_sheds_preserve_response_order() {
    // A saturated server answering a pipelined connection must keep
    // responses in request order even when some of them are sheds.
    let fifo_a = FifoGraph::new("pipe-a");
    let fifo_b = FifoGraph::new("pipe-b");
    let server = serve(
        small_registry(120, 4),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_limit: 1,
            ..Default::default()
        },
    )
    .expect("bind");

    // Occupy the worker (the fifo handshake proves it is parked) and
    // fill the queue so a fresh connection's submissions must shed.
    let mut blocker_a = BufReader::new(connect(server.addr()));
    let mut blocker_b = BufReader::new(connect(server.addr()));
    for s in [&mut blocker_a, &mut blocker_b] {
        s.get_ref()
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
    }
    ask(&mut blocker_a, &format!("LOAD biga {}", fifo_a.path()));
    let writer_a = fifo_a.handshake();
    ask(&mut blocker_b, &format!("LOAD bigb {}", fifo_b.path()));
    std::thread::sleep(Duration::from_millis(200));

    // One connection pipelines three requests into the saturated server:
    // three shed responses come back, in order, on the same connection.
    let mut pipelined = BufReader::new(connect(server.addr()));
    pipelined
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    pipelined
        .get_mut()
        .write_all(b"PING\nPING\nPING\n")
        .expect("pipelined write");
    for i in 0..3 {
        let response = answer(&mut pipelined);
        assert!(
            response.contains(r#""op":"shed""#),
            "pipelined response {i}: {response}"
        );
    }

    // Both loads complete, and the connection that was shed is still a
    // working session afterwards — with responses still in order.
    FifoGraph::release(writer_a);
    assert!(answer(&mut blocker_a).contains(r#""op":"load""#));
    FifoGraph::release(fifo_b.handshake());
    assert!(answer(&mut blocker_b).contains(r#""op":"load""#));
    ask(&mut pipelined, "PING");
    assert!(answer(&mut pipelined).contains(r#""op":"pong""#));

    common::assert_request_ledger_balances(server.addr());
    server.shutdown();
}

#[test]
fn pings_and_cached_clusters_are_answered_while_every_worker_is_parked() {
    let fifo = FifoGraph::new("inline");
    let server = serve(
        small_registry(120, 5),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let session = |timeout| {
        let session = BufReader::new(connect(server.addr()));
        session.get_ref().set_read_timeout(Some(timeout)).unwrap();
        session
    };

    // Warm the key while the worker is free: a miss, computed there.
    let mut warm = session(Duration::from_secs(120));
    ask(&mut warm, "CLUSTER 3 0.4");
    let miss = answer(&mut warm);
    assert!(miss.contains(r#""cached":false"#), "{miss}");

    // Park the only worker; the handshake returns once it is inside the
    // LOAD.
    let mut blocker = session(Duration::from_secs(120));
    ask(&mut blocker, &format!("LOAD parked {}", fifo.path()));
    let writer = fifo.handshake();

    // PING and the cached CLUSTER need no worker: they come back at once,
    // the hit rendered like the worker's answer apart from its timing.
    let mut quick = session(Duration::from_secs(10));
    ask(&mut quick, "PING");
    assert_eq!(answer(&mut quick).trim(), r#"{"ok":true,"op":"pong"}"#);
    ask(&mut quick, "CLUSTER 3 0.4");
    let hit = answer(&mut quick);
    assert!(hit.contains(r#""cached":true"#), "{hit}");
    let head = |line: &str| line.split(r#","cached":"#).next().unwrap().to_string();
    assert_eq!(head(&hit), head(&miss));

    // A FULL render waits for the worker, and the PING pipelined behind
    // it waits its turn: responses leave in request order.
    quick
        .get_mut()
        .write_all(b"CLUSTER 3 0.4 FULL\nPING\n")
        .expect("pipelined write");
    quick
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut early = String::new();
    assert!(
        quick.read_line(&mut early).is_err() && early.is_empty(),
        "answered while the worker was parked: {early}"
    );
    quick
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    FifoGraph::release(writer);
    assert!(answer(&mut blocker).contains(r#""op":"load""#));
    let full = answer(&mut quick);
    assert!(
        full.contains(r#""cached":true"#) && full.contains(r#""labels":["#),
        "{full}"
    );
    assert_eq!(answer(&mut quick).trim(), r#"{"ok":true,"op":"pong"}"#);

    common::assert_request_ledger_balances(server.addr());
    server.shutdown();
}
