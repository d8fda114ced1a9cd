//! Integration tests for multi-graph serving: one `parscan serve`
//! process hosting several resident indexes, managed over the wire with
//! `LOAD`/`UNLOAD`/`LIST`, addressed per-query with `@name`, and
//! evicting under a configured byte budget — all through the public
//! facade, exactly as an external client would drive it.

use parscan::prelude::*;
use parscan::server::serve;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

/// A line-oriented test client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn request(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        response
    }
}

fn graph_file(name: &str, n: usize, communities: usize, seed: u64) -> (PathBuf, CsrGraph) {
    let (g, _) = parscan::graph::generators::planted_partition(n, communities, 8.0, 1.0, seed);
    let path = std::env::temp_dir().join(format!(
        "parscan-multigraph-{}-{name}.txt",
        std::process::id()
    ));
    parscan::graph::io::write_edge_list_text(&g, path.to_str().unwrap()).expect("write graph");
    (path, g)
}

fn boot_registry(byte_budget: Option<usize>) -> (Arc<GraphRegistry>, CsrGraph) {
    let (g, _) = parscan::graph::generators::planted_partition(300, 4, 9.0, 1.0, 42);
    let registry = Arc::new(GraphRegistry::new(
        "boot",
        RegistryConfig {
            byte_budget,
            ..Default::default()
        },
    ));
    registry
        .install("boot", ScanIndex::build(g.clone(), IndexConfig::default()))
        .expect("boot graph admits");
    (registry, g)
}

#[test]
fn load_list_query_by_name_round_trip() {
    let (registry, _) = boot_registry(None);
    let server = serve(registry, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr());

    // One graph at boot.
    let list = client.request("LIST");
    assert!(list.contains(r#""op":"list""#), "{list}");
    assert!(list.contains(r#""default":"boot""#), "{list}");
    assert_eq!(list.matches(r#""name":"#).count(), 1, "{list}");

    // LOAD a second graph from a server-local file.
    let (path, g2) = graph_file("second", 180, 3, 7);
    let loaded = client.request(&format!("LOAD second {}", path.display()));
    assert!(loaded.contains(r#""op":"load""#), "{loaded}");
    assert!(loaded.contains(r#""status":"loaded""#), "{loaded}");
    assert!(loaded.contains(r#""graph":"second""#), "{loaded}");
    assert!(
        loaded.contains(&format!(r#""n":{}"#, g2.num_vertices())),
        "{loaded}"
    );

    // Now the process demonstrably hosts two graphs.
    let list = client.request("LIST");
    assert_eq!(list.matches(r#""name":"#).count(), 2, "{list}");
    assert!(list.contains(r#""name":"boot""#) && list.contains(r#""name":"second""#));

    // Addressed query answers from the *named* graph and matches the
    // direct library call bit for bit.
    let direct = ScanIndex::build(g2, IndexConfig::default())
        .cluster_with(QueryParams::new(3, 0.4), BorderAssignment::MostSimilar);
    let response = client.request("@second CLUSTER 3 0.4");
    assert!(response.contains(r#""ok":true"#), "{response}");
    assert!(response.contains(r#""graph":"second""#), "{response}");
    assert!(
        response.contains(&format!(r#""clusters":{}"#, direct.num_clusters())),
        "{response} vs {} clusters",
        direct.num_clusters()
    );
    // Unaddressed queries still hit the boot graph.
    let response = client.request("CLUSTER 3 0.4");
    assert!(response.contains(r#""graph":"boot""#), "{response}");

    // Per-graph stats address the named engine.
    let stats = client.request("@second STATS");
    assert!(stats.contains(r#""graph":"second""#), "{stats}");
    assert!(stats.contains(r#""registry""#), "{stats}");

    // A second LOAD of the same name is acknowledged without rebuilding.
    let again = client.request(&format!("LOAD second {}", path.display()));
    assert!(again.contains(r#""status":"already_loaded""#), "{again}");

    // UNLOAD removes it; addressed queries then fail cleanly.
    let unloaded = client.request("UNLOAD second");
    assert!(unloaded.contains(r#""op":"unload""#), "{unloaded}");
    let err = client.request("@second CLUSTER 3 0.4");
    assert!(err.contains(r#""ok":false"#), "{err}");
    assert!(err.contains("second"), "{err}");
    let err = client.request("UNLOAD second");
    assert!(err.contains(r#""ok":false"#), "{err}");

    // Explicitly addressed STATS for the unloaded graph errors too —
    // top-level and inside a batch alike.
    let err = client.request("@second STATS");
    assert!(err.contains(r#""ok":false"#), "{err}");
    let batch = client.request("BATCH @second STATS ; PING");
    assert!(batch.contains(r#""ok":false"#), "{batch}");
    assert!(batch.contains(r#""op":"pong""#), "{batch}");

    // Bad LOADs are errors, not session killers.
    let err = client.request("LOAD broken /no/such/file.txt");
    assert!(err.contains(r#""ok":false"#), "{err}");
    assert!(client.request("PING").contains("pong"));

    client.request("QUIT");
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn byte_budget_evicts_over_the_wire() {
    // Budget sized for the boot graph plus roughly one 300-vertex
    // extra: loading two extras must evict the older one (the pinned
    // boot graph survives).
    let boot_bytes = {
        let (g, _) = parscan::graph::generators::planted_partition(300, 4, 9.0, 1.0, 42);
        ScanIndex::build(g, IndexConfig::default()).memory_bytes()
    };
    let (registry, _) = boot_registry(Some(boot_bytes * 5 / 2));
    let server = serve(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr());

    let (path_a, _) = graph_file("evict-a", 300, 4, 1);
    let (path_b, _) = graph_file("evict-b", 300, 4, 2);
    assert!(client
        .request(&format!("LOAD a {}", path_a.display()))
        .contains(r#""status":"loaded""#));
    assert!(client
        .request(&format!("LOAD b {}", path_b.display()))
        .contains(r#""status":"loaded""#));

    let list = client.request("LIST");
    assert!(list.contains(r#""name":"boot""#), "boot is pinned: {list}");
    assert!(list.contains(r#""name":"b""#), "newest survives: {list}");
    assert!(
        !list.contains(r#""name":"a""#),
        "LRU must be evicted: {list}"
    );

    let stats = client.request("STATS");
    assert!(stats.contains(r#""evictions":1"#), "{stats}");
    assert_eq!(registry.stats().evictions, 1);
    assert!(registry.stats().bytes_resident <= boot_bytes * 5 / 2);

    client.request("QUIT");
    server.shutdown();
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

#[test]
fn persisted_index_loads_by_extension() {
    let (registry, _) = boot_registry(None);
    let (g, _) = parscan::graph::generators::planted_partition(150, 3, 8.0, 1.0, 9);
    let index = ScanIndex::build(g, IndexConfig::default());
    let path =
        std::env::temp_dir().join(format!("parscan-multigraph-{}.pscidx", std::process::id()));
    index.save(path.to_str().unwrap()).expect("save index");

    let server = serve(registry, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr());
    let loaded = client.request(&format!("LOAD persisted {}", path.display()));
    assert!(loaded.contains(r#""status":"loaded""#), "{loaded}");
    assert!(loaded.contains(r#""n":150"#), "{loaded}");
    let probe = client.request("@persisted PROBE 0 2 0.4");
    assert!(probe.contains(r#""op":"probe""#), "{probe}");
    assert!(probe.contains(r#""graph":"persisted""#), "{probe}");

    // Batches can mix graphs; responses carry the canonical name.
    let batch = client.request("BATCH @persisted CLUSTER 2 0.3 ; CLUSTER 2 0.3 ; LIST");
    assert!(batch.contains(r#""graph":"persisted""#), "{batch}");
    assert!(batch.contains(r#""graph":"boot""#), "{batch}");
    assert!(batch.contains(r#""op":"list""#), "{batch}");

    client.request("QUIT");
    server.shutdown();
    let _ = std::fs::remove_file(path);
}
