//! Helpers shared by the TCP integration suites.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pull `"name":N` out of a STATS line.
fn counter(stats: &str, name: &str) -> Option<u64> {
    let tail = stats.split(&format!("\"{name}\":")).nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Assert that the default graph's request ledger balances:
/// `cluster_requests == cache_hits + cache_misses`, read from `STATS`
/// over a fresh session. A request still executing is counted but not
/// yet settled (and a server at its connection limit sheds the session),
/// so the check re-reads until the ledger balances or 20 s pass.
pub fn assert_request_ledger_balances(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stream = TcpStream::connect(addr).expect("connect for STATS");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut session = BufReader::new(stream);
        session.get_mut().write_all(b"STATS\n").expect("send STATS");
        let mut stats = String::new();
        session.read_line(&mut stats).expect("read STATS");
        let field = |name| counter(&stats, name);
        let balanced = field("cluster_requests")
            .zip(field("cache_hits").zip(field("cache_misses")))
            .is_some_and(|(requests, (hits, misses))| requests == hits + misses);
        if balanced {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "request ledger does not balance: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
