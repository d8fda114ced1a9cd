//! Serving-layer benchmark: queries/sec cold vs. cache-hot, batch vs.
//! sequential execution, coalescing under cold-miss contention, query
//! latency under a concurrent mutation stream, TCP round-trip latency on
//! the hot path, the hot path again while thousands of idle sessions sit
//! on the reactor, and the latency of a typed shed-load refusal from a
//! connection-saturated server.
//!
//! Run with `cargo bench -p parscan-bench --bench server`. Scale the
//! input with `PARSCAN_SCALE` (default 1.0). Emits a human-readable
//! table on stdout plus a JSON summary written to `BENCH_server.json`
//! (override with `PARSCAN_BENCH_OUT`) for cross-run tracking.

use parscan_core::{
    BatchUpdate, BorderAssignment, IndexConfig, QueryOptions, QueryParams, ScanIndex,
};
use parscan_graph::generators;
use parscan_server::{
    serve, BatchExecutor, EngineConfig, GraphRegistry, QueryEngine, RegistryConfig, Request,
    Response, ServeConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

fn scale() -> f64 {
    std::env::var("PARSCAN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// The benchmark's (μ, ε) workload: a parameter-exploration grid.
fn grid() -> Vec<QueryParams> {
    let mut points = Vec::new();
    for mu in [2u32, 3, 4, 5, 8] {
        for i in 1..=8 {
            points.push(QueryParams::new(mu, i as f32 / 9.0));
        }
    }
    points
}

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn main() {
    let n = (4000.0 * scale()) as usize;
    let (g, _) = generators::planted_partition(n, 16, 12.0, 1.5, 7);
    let m = g.num_edges();
    // One registry hosts the engine for every scenario, in-process and
    // served, so cache and counter state carries across them.
    let registry = Arc::new(GraphRegistry::new(
        "default",
        RegistryConfig {
            engine: EngineConfig {
                cache_capacity: 256,
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    let engine = registry
        .install("default", ScanIndex::build(g, IndexConfig::default()))
        .expect("install");
    let index = engine.index();
    let points = grid();
    println!(
        "server bench: n={n} m={m} points={} breakpoints={}",
        points.len(),
        engine.num_breakpoints()
    );

    // --- Cold vs. cache-hot queries/sec -------------------------------
    engine.clear_cache();
    let (cold_secs, _) = secs(|| {
        for &p in &points {
            std::hint::black_box(engine.cluster(p));
        }
    });
    let (hot_secs, _) = secs(|| {
        for &p in &points {
            std::hint::black_box(engine.cluster(p));
        }
    });
    let qps_cold = points.len() as f64 / cold_secs;
    let qps_hot = points.len() as f64 / hot_secs;
    let hot_speedup = qps_hot / qps_cold;
    println!(
        "cold {:>10.1} q/s   cache-hot {:>10.1} q/s   speedup {:.1}x",
        qps_cold, qps_hot, hot_speedup
    );

    // --- Label-only vs. full query (the core cheap path) ---------------
    // `cluster_labels` skips the Clustering wrapper (cluster-count
    // reduction); measure what that saves per uncached query.
    let opts = QueryOptions {
        border: BorderAssignment::MostSimilar,
        ..Default::default()
    };
    let (full_secs, _) = secs(|| {
        for &p in &points {
            std::hint::black_box(index.cluster_with_opts(p, opts));
        }
    });
    let (labels_secs, _) = secs(|| {
        for &p in &points {
            std::hint::black_box(index.cluster_labels(p, opts));
        }
    });
    let labels_speedup = full_secs / labels_secs;
    println!(
        "direct full {:.3}s   labels-only {:.3}s   speedup {:.2}x",
        full_secs, labels_secs, labels_speedup
    );

    // --- Batch vs. sequential execution -------------------------------
    // A workload with 3x duplication (every point requested three times).
    // Both runs start cold; the batch executor deduplicates up front and
    // runs the distinct queries as one flat parallel job, while the
    // sequential loop pays per-request dispatch and hits the cache for
    // duplicates.
    let workload: Vec<Request> = points
        .iter()
        .cycle()
        .take(points.len() * 3)
        .map(|&params| Request::Cluster {
            graph: None,
            params,
            full: false,
        })
        .collect();

    engine.clear_cache();
    let (seq_secs, _) = secs(|| {
        for req in &workload {
            let Request::Cluster { params, .. } = req else {
                unreachable!()
            };
            std::hint::black_box(engine.cluster(*params));
        }
    });
    engine.clear_cache();
    let (batch_secs, responses) =
        secs(|| BatchExecutor::new(&registry).execute(&workload, |_| Response::Pong));
    assert_eq!(responses.len(), workload.len());
    let batch_speedup = seq_secs / batch_secs;
    println!(
        "sequential {:.3}s   batched {:.3}s   speedup {:.2}x ({} requests, {} distinct)",
        seq_secs,
        batch_secs,
        batch_speedup,
        workload.len(),
        points.len()
    );

    // --- In-flight coalescing under cold-miss contention ---------------
    // N session threads fire the identical cold (μ, ε) at the same
    // instant. Without coalescing every thread computes; with the
    // in-flight table exactly one does and the rest block on its result,
    // so contended wall time tracks one computation, not N. On a 1-core
    // box `coalesce_waits` may read 0 — the leader finishes before any
    // follower is scheduled, so followers land as cache hits — but
    // `coalesce_computations` must be 1 regardless of interleaving.
    const COALESCE_THREADS: usize = 8;
    // A low-ε point selects almost every edge, making the contended
    // computation heavy enough that followers genuinely overlap it.
    let contended = QueryParams::new(2, 0.05);
    engine.clear_cache();
    let before = engine.stats();
    let barrier = std::sync::Barrier::new(COALESCE_THREADS);
    let (coalesce_secs, _) = secs(|| {
        std::thread::scope(|s| {
            for _ in 0..COALESCE_THREADS {
                let (engine, barrier) = (&engine, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    std::hint::black_box(engine.cluster(contended));
                });
            }
        });
    });
    let after = engine.stats();
    let coalesce_computations = after.cache_misses - before.cache_misses;
    let coalesce_waits = after.coalesced_waits - before.coalesced_waits;
    // Reference: the same computation uncontended and cold.
    engine.clear_cache();
    let (single_cold_secs, _) = secs(|| std::hint::black_box(engine.cluster(contended)));
    println!(
        "coalescing: {COALESCE_THREADS} concurrent cold misses -> {} computation(s), \
         {} coalesced wait(s); contended wall {:.1}µs vs single cold {:.1}µs",
        coalesce_computations,
        coalesce_waits,
        coalesce_secs * 1e6,
        single_cold_secs * 1e6,
    );

    // --- Mixed read/write: query latency while a writer streams -------
    // Epoch publishing means mutations never block readers; what readers
    // *do* pay is selective cache invalidation — affected ε-classes
    // recompute on the next request. This scenario prices that: the same
    // read workload, first alone, then with a writer alternating
    // delete/restore batches over a slice of edges. Each delete/restore
    // pair returns the graph to its original edge set, so the engine
    // ends the scenario serving the same structure it started with.
    const MIX_READERS: usize = 4;
    // The window is writer-driven: readers keep sweeping the grid until
    // the writer has landed this many batches, so the measurement always
    // spans several delete/restore cycles no matter how the per-apply
    // cost compares to a cache-hot sweep (milliseconds vs microseconds
    // at the default scale). The baseline pass uses a fixed sweep count.
    const MIX_TARGET_BATCHES: u64 = 12;
    const MIX_BASELINE_ROUNDS: usize = 64;
    let churn: Vec<(u32, u32)> = {
        let index = engine.index();
        index
            .graph()
            .canonical_edges()
            .enumerate()
            .filter(|(i, _)| i % 97 == 0)
            .map(|(_, (u, v, _))| (u, v))
            .take(48)
            .collect()
    };
    let del_batch = BatchUpdate::delete(&churn);
    let ins_batch = BatchUpdate::insert(&churn);
    // One reader's workload: repeated sweeps of the grid (for as long as
    // `keep_going` says), timing each query individually so the mean
    // reflects per-request latency.
    let read_pass = |engine: &QueryEngine, keep_going: &(dyn Fn(usize) -> bool + Sync)| {
        let mut total = 0.0f64;
        let mut count = 0usize;
        let mut sweep = 0usize;
        while keep_going(sweep) {
            for &p in &points {
                let start = Instant::now();
                std::hint::black_box(engine.cluster(p));
                total += start.elapsed().as_secs_f64();
                count += 1;
            }
            sweep += 1;
        }
        (total, count)
    };
    let run_readers =
        |engine: &Arc<QueryEngine>, keep_going: &(dyn Fn(usize) -> bool + Sync)| -> f64 {
            let (total, count) = std::thread::scope(|s| {
                let handles: Vec<_> = (0..MIX_READERS)
                    .map(|_| {
                        let engine = Arc::clone(engine);
                        s.spawn(move || read_pass(&engine, keep_going))
                    })
                    .collect();
                handles.into_iter().fold((0.0, 0), |(t, c), h| {
                    let (dt, dc) = h.join().expect("reader");
                    (t + dt, c + dc)
                })
            });
            total / count as f64 * 1e6
        };
    engine.clear_cache();
    let mix_baseline_micros = run_readers(&engine, &|sweep| sweep < MIX_BASELINE_ROUNDS);
    engine.clear_cache();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let applied = std::sync::atomic::AtomicU64::new(0);
    let epoch_before = engine.stats().epoch;
    let (mix_under_writes_micros, mix_batches) = std::thread::scope(|s| {
        let writer = {
            let (engine, stop, applied) = (&engine, &stop, &applied);
            let (del_batch, ins_batch) = (&del_batch, &ins_batch);
            s.spawn(move || {
                let mut batches = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.apply_update(del_batch).expect("apply delete");
                    applied.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    engine.apply_update(ins_batch).expect("apply restore");
                    applied.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    batches += 2;
                }
                batches
            })
        };
        let micros = run_readers(&engine, &|_| {
            applied.load(std::sync::atomic::Ordering::Relaxed) < MIX_TARGET_BATCHES
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (micros, writer.join().expect("writer"))
    });
    let mix_epochs = engine.stats().epoch - epoch_before;
    let mix_degradation = mix_under_writes_micros / mix_baseline_micros;
    println!(
        "mixed r/w: {MIX_READERS} readers, read-only {mix_baseline_micros:.1}µs/query, \
         under writes {mix_under_writes_micros:.1}µs/query ({mix_degradation:.2}x), \
         {mix_batches} batches / {mix_epochs} epochs during the window",
    );

    // --- TCP round-trip latency on the hot path -----------------------
    let server = serve(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    // Warm the connection and the cache entry.
    stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    const RTT_ROUNDS: usize = 200;
    let (rtt_secs, _) = secs(|| {
        for _ in 0..RTT_ROUNDS {
            stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
        }
    });
    let rtt_micros = rtt_secs / RTT_ROUNDS as f64 * 1e6;
    println!("tcp hot round-trip {rtt_micros:.1}µs/query");
    stream.write_all(b"QUIT\n").unwrap();
    server.shutdown();

    // --- Connection-mix saturation ------------------------------------
    // The reactor's reason to exist: thousands of idle sessions must be
    // free. Hold a crowd of open-but-quiet connections and re-measure
    // the hot round-trip through the same server — the crowd should not
    // tax the hot path, because idle fds cost one slab slot each and
    // zero worker or reactor time.
    let idle_target = (2000.0 * scale()) as usize;
    let server = serve(Arc::clone(&registry), "127.0.0.1:0", ServeConfig::default())
        .expect("bind saturated server");
    let (idle_open_secs, idle_sessions) = secs(|| {
        let mut sessions = Vec::with_capacity(idle_target);
        while sessions.len() < idle_target {
            match TcpStream::connect(server.addr()) {
                Ok(s) => sessions.push(s),
                // Listener backlog overrun under the connect burst:
                // give the reactor a beat to drain accepts.
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
        sessions
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect hot");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let (saturated_secs, _) = secs(|| {
        for _ in 0..RTT_ROUNDS {
            stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
        }
    });
    let saturated_rtt_micros = saturated_secs / RTT_ROUNDS as f64 * 1e6;
    println!(
        "saturated: {} idle sessions held (opened in {:.2}s), hot round-trip {:.1}µs/query \
         ({:.2}x the unloaded path)",
        idle_sessions.len(),
        idle_open_secs,
        saturated_rtt_micros,
        saturated_rtt_micros / rtt_micros,
    );
    drop(idle_sessions);
    server.shutdown();

    // --- Shed-load latency --------------------------------------------
    // When admission control says no, it must say it *fast*: a full
    // server answers the over-limit connection with a typed shed line
    // and closes, instead of parking it. Price that refusal.
    const SHED_CAP: usize = 64;
    const SHED_PROBES: usize = 100;
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: SHED_CAP,
            ..Default::default()
        },
    )
    .expect("bind capped server");
    let mut occupants = Vec::with_capacity(SHED_CAP);
    while occupants.len() < SHED_CAP {
        let mut s = BufReader::new(TcpStream::connect(server.addr()).expect("occupy"));
        // Round-trip so the slot is registered before the next connect.
        s.get_mut().write_all(b"PING\n").unwrap();
        line.clear();
        s.read_line(&mut line).unwrap();
        occupants.push(s);
    }
    let (shed_secs, sheds_seen) = secs(|| {
        let mut seen = 0usize;
        for _ in 0..SHED_PROBES {
            let mut refused = BufReader::new(TcpStream::connect(server.addr()).expect("probe"));
            line.clear();
            refused.read_line(&mut line).unwrap();
            if line.contains(r#""op":"shed""#) {
                seen += 1;
            }
        }
        seen
    });
    assert_eq!(sheds_seen, SHED_PROBES, "full server admitted a probe");
    let shed_latency_micros = shed_secs / SHED_PROBES as f64 * 1e6;
    println!(
        "shed-load: {SHED_PROBES} over-limit connections refused in {:.1}µs each \
         (cap {SHED_CAP})",
        shed_latency_micros
    );
    drop(occupants);
    server.shutdown();

    // --- Degraded mode: hot path under store faults + deadlines --------
    // The resilience tax, priced: the same cache-hot round-trip, but on
    // a store-backed server with per-request deadlines enforced while a
    // writer connection streams real SAVE traffic whose store I/O fails
    // 1% of the time (injected at the fsync) and whose audit appends
    // tear at the same rate. Failed saves come back as typed retryable
    // errors; the hot read path should barely notice any of it.
    let store_dir =
        std::env::temp_dir().join(format!("parscan-bench-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("create store dir");
    let store = Arc::new(parscan_store::IndexStore::open(&store_dir).expect("open store"));
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServeConfig {
            store: Some(Arc::clone(&store)),
            deadline: Some(std::time::Duration::from_millis(250)),
            ..Default::default()
        },
    )
    .expect("bind degraded server");
    failpoint::configure("persist.sync", "every(100)").expect("arm persist.sync");
    failpoint::configure("audit.append", "every(100)").expect("arm audit.append");
    const DEGRADED_TARGET_SAVES: u64 = 120;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let saves_done = std::sync::atomic::AtomicU64::new(0);
    let (degraded_rtt_micros, degraded_rounds, degraded_saves, save_retryables) =
        std::thread::scope(|s| {
            let writer = {
                let (stop, saves_done) = (&stop, &saves_done);
                let addr = server.addr();
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("writer connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut line = String::new();
                    let mut retryable = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        stream.write_all(b"SAVE\n").unwrap();
                        line.clear();
                        if reader.read_line(&mut line).unwrap() == 0 {
                            break;
                        }
                        saves_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if line.contains(r#""retryable":true"#) {
                            retryable += 1;
                        }
                    }
                    retryable
                })
            };
            let mut stream = TcpStream::connect(server.addr()).expect("connect degraded");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            // Measure for at least the standard round count and keep
            // going until the writer has pushed enough saves through the
            // 1%-fault store for the injection to land (bounded at 30s).
            let cap = Instant::now();
            let mut rounds = 0usize;
            let (degraded_secs, _) = secs(|| loop {
                stream.write_all(b"CLUSTER 3 0.4\n").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                rounds += 1;
                let saves = saves_done.load(std::sync::atomic::Ordering::Relaxed);
                if rounds >= RTT_ROUNDS
                    && (saves >= DEGRADED_TARGET_SAVES || cap.elapsed().as_secs() >= 30)
                {
                    break;
                }
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let retryable = writer.join().expect("writer");
            (
                degraded_secs / rounds as f64 * 1e6,
                rounds,
                saves_done.load(std::sync::atomic::Ordering::Relaxed),
                retryable,
            )
        });
    failpoint::remove("persist.sync");
    failpoint::remove("audit.append");
    let store_io_errors = store.io_error_count();
    let audit_failures = store.audit_failure_count();
    assert!(
        save_retryables >= store_io_errors.min(1),
        "injected store faults must surface as typed retryable SAVE errors"
    );
    let degraded_overhead = degraded_rtt_micros / rtt_micros;
    println!(
        "degraded: hot round-trip {degraded_rtt_micros:.1}µs/query over {degraded_rounds} rounds \
         ({degraded_overhead:.2}x unloaded) with deadlines on and {degraded_saves} concurrent \
         saves ({store_io_errors} injected store faults -> {save_retryables} retryable responses, \
         {audit_failures} audit tears)",
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    let stats = engine.stats();
    let json = format!(
        concat!(
            r#"{{"bench":"server","n":{},"m":{},"points":{},"#,
            r#""qps_cold":{:.2},"qps_hot":{:.2},"hot_speedup":{:.2},"#,
            r#""seq_secs":{:.6},"batch_secs":{:.6},"batch_speedup":{:.3},"#,
            r#""labels_only_speedup":{:.3},"#,
            r#""coalesce_threads":{},"coalesce_computations":{},"coalesce_waits":{},"#,
            r#""coalesce_wall_micros":{:.2},"single_cold_micros":{:.2},"#,
            r#""mix_readers":{},"mix_baseline_micros":{:.2},"#,
            r#""mix_under_writes_micros":{:.2},"mix_write_degradation":{:.3},"#,
            r#""mix_batches_applied":{},"mix_epochs_advanced":{},"#,
            r#""tcp_hot_rtt_micros":{:.2},"#,
            r#""saturated_sessions":{},"saturated_rtt_micros":{:.2},"#,
            r#""shed_probes":{},"shed_latency_micros":{:.2},"#,
            r#""degraded_rtt_micros":{:.2},"degraded_overhead":{:.3},"#,
            r#""degraded_saves":{},"degraded_store_io_errors":{},"#,
            r#""degraded_retryable_responses":{},"degraded_audit_failures":{},"#,
            r#""cache_hit_rate":{:.4}}}"#
        ),
        n,
        m,
        points.len(),
        qps_cold,
        qps_hot,
        hot_speedup,
        seq_secs,
        batch_secs,
        batch_speedup,
        labels_speedup,
        COALESCE_THREADS,
        coalesce_computations,
        coalesce_waits,
        coalesce_secs * 1e6,
        single_cold_secs * 1e6,
        MIX_READERS,
        mix_baseline_micros,
        mix_under_writes_micros,
        mix_degradation,
        mix_batches,
        mix_epochs,
        rtt_micros,
        idle_target,
        saturated_rtt_micros,
        SHED_PROBES,
        shed_latency_micros,
        degraded_rtt_micros,
        degraded_overhead,
        degraded_saves,
        store_io_errors,
        save_retryables,
        audit_failures,
        stats.hit_rate(),
    );
    println!("{json}");
    let out = std::env::var("PARSCAN_BENCH_OUT").unwrap_or_else(|_| "BENCH_server.json".into());
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("warning: cannot write {out}: {e}");
    } else {
        println!("wrote {out}");
    }
}
