//! Deadline, watchdog, and idle-reaper torture for the reactor server,
//! plus the coalescer-abandonment test (relocated here from the engine's
//! unit tests: it arms the process-global failpoint registry, so it
//! needs a test binary whose other tests never run an in-process engine
//! concurrently).
//!
//! The serving tests drive the *real* binary (`CARGO_BIN_EXE_parscan`)
//! with the resilience flags; worker occupancy is made deterministic by
//! `LOAD`ing a named pipe (the fifo handshake proves the worker is
//! parked inside the read — no sleeps calibrated against build speed).

mod common;

use parscan::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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
            if let Some(rest) = line.split(" on ").nth(1) {
                if line.starts_with("serving") {
                    let addr = rest.split_whitespace().next().expect("addr token");
                    break addr.parse().expect("parse addr");
                }
            }
        };
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    fn kill(mut self) {
        self.child.kill().expect("kill");
        let _ = self.child.wait();
    }
}

fn temp_graph(name: &str, n: usize, seed: u64) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("parscan-ddl-{}-{name}.txt", std::process::id()));
    let (g, _) = parscan::graph::generators::planted_partition(n, 4, 9.0, 1.0, seed);
    parscan::graph::io::write_edge_list_text(&g, path.to_str().unwrap()).unwrap();
    path
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let mut delay = Duration::from_millis(10);
    for _ in 0..6 {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            return BufReader::new(stream);
        }
        std::thread::sleep(delay);
        delay *= 2;
    }
    let stream = TcpStream::connect(addr).expect("connect after retries");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    BufReader::new(stream)
}

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

/// Pull `"name":N` out of a STATS line.
fn counter(stats: &str, name: &str) -> u64 {
    stats
        .split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {name} counter in {stats}"))
}

/// An edge list served through a named pipe: `LOAD`ing it parks the
/// worker inside the file read until the write end is fed and closed.
struct FifoGraph {
    path: std::path::PathBuf,
}

impl FifoGraph {
    fn new(tag: &str) -> FifoGraph {
        let path =
            std::env::temp_dir().join(format!("parscan-ddl-{}-{tag}.fifo", std::process::id()));
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

    /// Opening the write end blocks until the serving worker has opened
    /// the read end — when this returns, the worker is provably parked.
    fn handshake(&self) -> std::fs::File {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .expect("open fifo writer")
    }

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

#[test]
fn deadlines_expire_queued_and_in_flight_requests_with_a_typed_retryable_error() {
    let graph = temp_graph("deadline", 200, 5);
    let fifo = FifoGraph::new("deadline");
    let server = ServerProc::spawn(&[
        graph.to_str().unwrap(),
        "--workers",
        "1",
        "--deadline-ms",
        "300",
    ]);

    // Park the only worker inside a LOAD...
    let mut blocker = connect(server.addr);
    ask(&mut blocker, &format!("LOAD slow {}", fifo.path()));
    let writer = fifo.handshake();
    // ...and queue a CLUSTER behind it. Neither can execute before the
    // 300ms deadline, so both must come back as typed retryable errors
    // instead of hanging for as long as the blockage lasts.
    let mut victim = connect(server.addr);
    let queued_at = Instant::now();
    ask(&mut victim, "CLUSTER 3 0.4");

    let response = answer(&mut victim);
    let waited = queued_at.elapsed();
    assert!(
        response.contains(r#""retryable":true"#) && response.contains(r#""reason":"deadline""#),
        "queued request should expire with a typed error: {response}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "deadline response took {waited:?}, not bounded by deadline + sweep tick"
    );
    let response = answer(&mut blocker);
    assert!(
        response.contains(r#""retryable":true"#) && response.contains(r#""reason":"deadline""#),
        "in-flight request should expire with a typed error: {response}"
    );

    // Unpark the worker: its late LOAD result is discarded (the
    // connection was already answered), and both connections are still
    // working sessions that can retry successfully.
    FifoGraph::release(writer);
    std::thread::sleep(Duration::from_millis(200));
    ask(&mut victim, "CLUSTER 3 0.4");
    let retried = answer(&mut victim);
    assert!(
        retried.contains(r#""ok":true"#) && retried.contains(r#""op":"cluster""#),
        "retry after the blockage cleared must succeed: {retried}"
    );
    ask(&mut blocker, "PING");
    assert!(answer(&mut blocker).contains("pong"));

    // The ledger saw both expiries.
    ask(&mut victim, "STATS");
    let stats = answer(&mut victim);
    assert!(
        counter(&stats, "deadline_expired") >= 2,
        "expected both expiries counted: {stats}"
    );

    common::assert_request_ledger_balances(server.addr);
    server.kill();
    let _ = std::fs::remove_file(&graph);
}

#[test]
fn idle_connections_are_reaped_on_the_poll_tick() {
    let graph = temp_graph("idle", 200, 6);
    let server = ServerProc::spawn(&[graph.to_str().unwrap(), "--idle-timeout", "300"]);

    // A working session that then goes quiet: the server closes it.
    let mut idle = connect(server.addr);
    ask(&mut idle, "PING");
    assert!(answer(&mut idle).contains("pong"));
    let mut line = String::new();
    let n = idle.read_line(&mut line).expect("read EOF from reaper");
    assert_eq!(n, 0, "idle connection should see EOF, got {line:?}");

    // A fresh session (active well inside the timeout) sees the reap in
    // STATS and is itself still served.
    let mut active = connect(server.addr);
    ask(&mut active, "STATS");
    let stats = answer(&mut active);
    assert!(
        counter(&stats, "idle_reaped") >= 1,
        "reap must be counted: {stats}"
    );

    common::assert_request_ledger_balances(server.addr);
    server.kill();
    let _ = std::fs::remove_file(&graph);
}

#[test]
fn watchdog_gauges_stuck_workers_and_recovers() {
    let graph = temp_graph("watchdog", 200, 7);
    let fifo = FifoGraph::new("watchdog");
    // Two workers: one gets stuck, the other keeps STATS observable.
    let server = ServerProc::spawn(&[
        graph.to_str().unwrap(),
        "--workers",
        "2",
        "--watchdog-ms",
        "200",
    ]);

    let mut blocker = connect(server.addr);
    ask(&mut blocker, &format!("LOAD slow {}", fifo.path()));
    let writer = fifo.handshake();
    std::thread::sleep(Duration::from_millis(600));

    let mut observer = connect(server.addr);
    ask(&mut observer, "STATS");
    let stats = answer(&mut observer);
    assert_eq!(
        counter(&stats, "stuck_workers"),
        1,
        "one parked worker past the threshold: {stats}"
    );
    assert!(
        counter(&stats, "watchdog_trips") >= 1,
        "the episode must be counted: {stats}"
    );

    // Unpark: the gauge returns to zero, the trip count stays.
    FifoGraph::release(writer);
    assert!(answer(&mut blocker).contains(r#""op":"load""#));
    std::thread::sleep(Duration::from_millis(300));
    ask(&mut observer, "STATS");
    let stats = answer(&mut observer);
    assert_eq!(counter(&stats, "stuck_workers"), 0, "{stats}");
    assert!(counter(&stats, "watchdog_trips") >= 1, "{stats}");

    common::assert_request_ledger_balances(server.addr);
    server.kill();
    let _ = std::fs::remove_file(&graph);
}

#[test]
fn saturated_watchdog_sheds_new_work_until_workers_recover() {
    let graph = temp_graph("wd-shed", 200, 8);
    let fifo = FifoGraph::new("wd-shed");
    let server = ServerProc::spawn(&[
        graph.to_str().unwrap(),
        "--workers",
        "1",
        "--watchdog-ms",
        "200",
    ]);

    let mut blocker = connect(server.addr);
    ask(&mut blocker, &format!("LOAD slow {}", fifo.path()));
    let writer = fifo.handshake();
    std::thread::sleep(Duration::from_millis(600));

    // Every worker (the only one) is stuck: new work sheds immediately
    // with the watchdog's message rather than queueing behind a corpse.
    let mut probe = connect(server.addr);
    ask(&mut probe, "PING");
    let response = answer(&mut probe);
    assert!(
        response.contains(r#""op":"shed""#) && response.contains("stuck"),
        "expected a watchdog shed: {response}"
    );

    // Recovery: feed the pipe, the worker finishes, the same probe
    // connection is admitted again.
    FifoGraph::release(writer);
    assert!(answer(&mut blocker).contains(r#""op":"load""#));
    std::thread::sleep(Duration::from_millis(300));
    ask(&mut probe, "PING");
    assert!(answer(&mut probe).contains("pong"));

    common::assert_request_ledger_balances(server.addr);
    server.kill();
    let _ = std::fs::remove_file(&graph);
}

/// The coalescer-abandonment path clients reach, driven in-process
/// through `cluster_deferred`: with `engine.compute` armed to always
/// panic, every coalescing leader dies. Each caller either observes the
/// panic itself (it led) or is told at once that the computation was
/// abandoned — none succeeds, and no follower waits for another leader.
#[test]
fn always_panicking_leaders_abandon_with_a_typed_retryable_error() {
    let (g, _) = parscan::graph::generators::planted_partition(200, 4, 9.0, 1.0, 11);
    let engine = Arc::new(QueryEngine::new(
        Arc::new(ScanIndex::build(g, IndexConfig::default())),
        EngineConfig::default(),
    ));
    let params = QueryParams::new(3, 0.4);

    failpoint::configure("engine.compute", "panic").unwrap();
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let engine = Arc::clone(&engine);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let (tx, rx) = std::sync::mpsc::channel();
            barrier.wait();
            let led = catch_unwind(AssertUnwindSafe(|| {
                engine.cluster_deferred(params, move |outcome| {
                    let _ = tx.send(outcome.is_some());
                })
            }))
            .is_err();
            // A dead leader's callback is dropped unanswered; a
            // follower's runs exactly once, on its leader's thread.
            (led, rx.recv_timeout(Duration::from_secs(30)).ok())
        }));
    }
    let mut panicked_leaders = 0u64;
    let mut abandoned = 0u64;
    for handle in handles {
        match handle.join().expect("thread join") {
            (true, None) => panicked_leaders += 1,
            (false, Some(false)) => abandoned += 1,
            (_, Some(true)) => panic!("a cluster succeeded while compute always panics"),
            other => panic!("a caller neither led nor was answered: {other:?}"),
        }
    }
    failpoint::remove("engine.compute");
    assert_eq!(panicked_leaders + abandoned, 8);
    assert!(panicked_leaders >= 1, "someone must have led");

    // The engine is fully healthy afterwards: the in-flight table holds
    // no corpses and a clean request computes.
    let (tx, rx) = std::sync::mpsc::channel();
    engine.cluster_deferred(params, move |outcome| {
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a clean request is answered")
        .expect("a clean request computes");
    assert!(!outcome.cached);

    // Ledger: every request was counted, and each abandoned follower is a
    // miss; hits+misses lacks exactly the requests whose leader panicked
    // before recording an outcome (the final clean request is the +1
    // miss).
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses + panicked_leaders,
        stats.cluster_requests,
        "{stats:?}"
    );
    assert_eq!(stats.cache_misses, abandoned + 1, "{stats:?}");
}
