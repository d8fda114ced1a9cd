//! Protocol-torture tests for the reactor transport: adversarial byte
//! streams that a thread-per-connection server tolerates by accident
//! must also be survived by the state-machine framing — split and merged
//! TCP frames, oversized lines, slowloris byte-at-a-time writes, and
//! abrupt mid-frame disconnects. The properties under test: the server
//! never panics, never leaks a connection slot, and never misattributes
//! a response (every session reads exactly the answers to its own
//! requests, in request order).

mod common;

use parscan::prelude::*;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request corpus for randomized streams, paired with the marker its
/// response must carry. Indexed by proptest-generated `0..REQUESTS.len()`.
const REQUESTS: &[(&str, &str)] = &[
    ("PING", r#""op":"pong""#),
    ("CLUSTER 3 0.5", r#""op":"cluster""#),
    ("CLUSTER 2 0.35", r#""op":"cluster""#),
    ("STATS", r#""op":"stats""#),
    ("EXPLODE 9 9", r#""op":"error""#),
];

fn torture_server(config: ServeConfig) -> ServerHandle {
    let registry = Arc::new(GraphRegistry::new("primary", RegistryConfig::default()));
    let (g, _) = parscan::graph::generators::planted_partition(300, 4, 9.0, 1.0, 11);
    registry
        .install("primary", ScanIndex::build(g, IndexConfig::default()))
        .unwrap();
    serve(registry, "127.0.0.1:0", config).expect("bind torture server")
}

fn roundtrip(session: &mut BufReader<TcpStream>, line: &str) -> String {
    session
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    read_response(session)
}

fn read_response(session: &mut BufReader<TcpStream>) -> String {
    let mut response = String::new();
    session.read_line(&mut response).expect("read response");
    assert!(
        response.ends_with('\n'),
        "connection closed mid-response: {response:?}"
    );
    response
}

/// The reactor's live-connection gauge, read over a throwaway session
/// (which itself counts while connected).
fn reactor_connections(addr: SocketAddr) -> u64 {
    let mut session = BufReader::new(TcpStream::connect(addr).expect("connect for stats"));
    session
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let stats = roundtrip(&mut session, "STATS");
    let tail = stats
        .split(r#""reactor":{"connections":"#)
        .nth(1)
        .unwrap_or_else(|| panic!("no reactor block in {stats}"));
    tail.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("connections gauge")
}

/// Wait for every abandoned session to be reaped: the gauge must come
/// back to exactly 1 — the polling connection itself.
fn assert_all_slots_reclaimed(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = u64::MAX;
    while Instant::now() < deadline {
        last = reactor_connections(addr);
        if last == 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("connection slots leaked: gauge stuck at {last} (expected 1)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Requests delivered across arbitrary TCP frame boundaries — one
    /// byte at a time, several requests merged into one segment, and
    /// everything in between — produce exactly one response per request,
    /// in request order, each of the right kind.
    #[test]
    fn split_and_merged_frames_never_misattribute_responses(
        picks in proptest::collection::vec(0usize..REQUESTS.len(), 1..=18),
        cuts in proptest::collection::vec(1usize..48, 1..=12),
    ) {
        let server = torture_server(ServeConfig::default());
        let mut session = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
        session.get_ref().set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        session.get_ref().set_nodelay(true).unwrap();

        let wire: Vec<u8> = picks
            .iter()
            .flat_map(|&i| format!("{}\n", REQUESTS[i].0).into_bytes())
            .collect();

        // Re-chunk the byte stream at generated boundaries, cycling the
        // cut list; a pause every few chunks forces genuinely separate
        // segments instead of kernel-side coalescing.
        let mut sent = 0;
        for (k, chunk) in cuts.iter().cycle().scan(0usize, |pos, &len| {
            if *pos >= wire.len() {
                return None;
            }
            let end = (*pos + len).min(wire.len());
            let piece = &wire[*pos..end];
            *pos = end;
            Some(piece)
        }).enumerate() {
            session.get_mut().write_all(chunk).expect("write chunk");
            sent += chunk.len();
            if k % 3 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        prop_assert_eq!(sent, wire.len());

        for (n, &i) in picks.iter().enumerate() {
            let (request, marker) = REQUESTS[i];
            let response = read_response(&mut session);
            prop_assert!(
                response.contains(marker),
                "response {n} to {request:?} missing {marker}: {response}"
            );
            if request == "PING" {
                prop_assert_eq!(response.trim_end(), r#"{"ok":true,"op":"pong"}"#);
            }
        }
        common::assert_request_ledger_balances(server.addr());
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A line past the 64 KiB cap gets the typed error (even when the
    /// overlong line is still unterminated), the connection is drained
    /// and closed instead of wedged, and the server stays healthy.
    #[test]
    fn oversized_lines_error_then_close_without_wedging(
        excess in 1usize..16_000,
        cut in 512usize..8_192,
    ) {
        let server = torture_server(ServeConfig::default());
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut session = BufReader::new(stream);

        // The connection works before the abuse...
        prop_assert!(roundtrip(&mut session, "PING").contains(r#""op":"pong""#));

        // ...then receives one monster line, chunked, with requests
        // pipelined behind it that must all be discarded by the drain.
        let monster = vec![b'x'; 64 * 1024 + excess];
        for chunk in monster.chunks(cut) {
            // Best effort: the server may error-and-drain before the
            // tail of the line is even written.
            if session.get_mut().write_all(chunk).is_err() {
                break;
            }
        }
        let _ = session.get_mut().write_all(b"\nPING\nPING\n");

        let response = read_response(&mut session);
        prop_assert!(
            response.contains(r#""ok":false"#) && response.contains("exceeds"),
            "expected oversize error, got {response}"
        );
        // Draining ends in close, never in answers to the poisoned tail.
        let mut rest = String::new();
        let n = session.read_line(&mut rest).unwrap_or(0);
        prop_assert_eq!(n, 0, "connection yielded data after drain: {}", rest);

        // The server itself is unharmed.
        let mut fresh = BufReader::new(TcpStream::connect(server.addr()).expect("reconnect"));
        prop_assert!(roundtrip(&mut fresh, "PING").contains(r#""op":"pong""#));
        common::assert_request_ledger_balances(server.addr());
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Connections that vanish mid-frame — after a partial line, after
    /// random garbage, or after complete unread requests — must all be
    /// reaped: the live-connection gauge returns to baseline and the
    /// server keeps answering.
    #[test]
    fn abrupt_mid_frame_disconnects_leak_no_slots(
        prefixes in proptest::collection::vec(0usize..REQUESTS.len(), 0..4),
        garbage in proptest::collection::vec(1u8..=255, 0..180),
        half_close in 0u8..2,
    ) {
        // One shared server across all cases would hide per-case leaks
        // behind earlier reaping; a fresh one keeps the ledger exact.
        let server = torture_server(ServeConfig::default());

        // Complete requests (responses never read), then a torn frame.
        let mut victim = TcpStream::connect(server.addr()).expect("connect victim");
        victim.set_nodelay(true).unwrap();
        for &i in &prefixes {
            let _ = victim.write_all(format!("{}\n", REQUESTS[i].0).as_bytes());
        }
        let _ = victim.write_all(&garbage); // no trailing newline: mid-frame
        if half_close == 1 {
            let _ = victim.shutdown(std::net::Shutdown::Write);
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(victim);

        assert_all_slots_reclaimed(server.addr());
        let mut fresh = BufReader::new(TcpStream::connect(server.addr()).expect("reconnect"));
        prop_assert!(roundtrip(&mut fresh, "PING").contains(r#""op":"pong""#));
        common::assert_request_ledger_balances(server.addr());
        server.shutdown();
    }
}

/// Slowloris: sessions trickling one byte at a time must not stall the
/// reactor — concurrent well-behaved traffic stays fast, and when the
/// slow writers finally finish their lines they get their own answers.
#[test]
fn slowloris_writers_do_not_stall_other_sessions() {
    let server = torture_server(ServeConfig::default());
    let addr = server.addr();

    let slow_handles: Vec<_> = (0..8)
        .map(|k| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect slow");
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut session = BufReader::new(stream);
                let line = if k % 2 == 0 {
                    "CLUSTER 3 0.45\n"
                } else {
                    "PING\n"
                };
                for byte in line.as_bytes() {
                    session
                        .get_mut()
                        .write_all(std::slice::from_ref(byte))
                        .expect("trickle byte");
                    std::thread::sleep(Duration::from_millis(10));
                }
                let response = read_response(&mut session);
                let marker = if k % 2 == 0 {
                    r#""op":"cluster""#
                } else {
                    r#""op":"pong""#
                };
                assert!(
                    response.contains(marker),
                    "slow session {k} got someone else's answer: {response}"
                );
            })
        })
        .collect();

    // While the trickle is in flight, a fast session must see prompt,
    // correct answers: slow peers hold no worker and no reactor time.
    let mut fast = BufReader::new(TcpStream::connect(addr).expect("connect fast"));
    fast.get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..40 {
        let started = Instant::now();
        let response = roundtrip(&mut fast, "PING");
        assert_eq!(response.trim_end(), r#"{"ok":true,"op":"pong"}"#);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fast session starved behind slowloris writers"
        );
    }

    for handle in slow_handles {
        handle.join().expect("slow session panicked");
    }
    common::assert_request_ledger_balances(server.addr());
    server.shutdown();
}
