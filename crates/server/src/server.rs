//! The TCP serving layer: a readiness-polled reactor (the private
//! `reactor` module) multiplexes every connection on one thread and
//! answers the requests whose cost does not grow with the graph
//! (`answer_now`), a small fixed worker pool executes every other parsed
//! request, and admission control sheds load past configured bounds
//! instead of queuing it unboundedly.
//!
//! Requests are newline-terminated lines, each resolved against the
//! shared [`GraphRegistry`] (the default graph unless the request
//! carries an `@name` address) and answered with one JSON line. The
//! per-connection state machine lives in the private `conn` module; this
//! module owns the one request dispatcher (`dispatch`), its reactor-side
//! fast path (`answer_now`), server-wide
//! state, and the [`serve`] entry point. `shutdown()` (or a client's
//! `SHUTDOWN` command) flips the flag and wakes the reactor, which stops
//! accepting, lets the in-flight request finish, flushes buffered
//! responses under a bounded grace, and snapshots dirty graphs before
//! exiting — no response is dropped mid-write.

use crate::batch::BatchExecutor;
use crate::engine::QueryEngine;
use crate::protocol::{FaultStats, ReactorStats, Request, Response, StatsGraph, StoreStats};
use crate::reactor::{Completions, JobQueue, Reactor, ReactorMetrics, ServeConfig};
use crate::registry::{build_index_from_path, GraphRegistry, LoadOutcome, LoadResult};
use parscan_store::{AuditKind, IndexStore, ManifestEntry};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared server state: the hosted registry, the optional durable
/// store, and the reactor's counters and queues.
pub(crate) struct ServerShared {
    pub(crate) registry: Arc<GraphRegistry>,
    /// The durable store ([`ServeConfig::store`]); enables `SAVE` and
    /// manifest-aware `LIST`/`STATS`.
    pub(crate) store: Option<Arc<IndexStore>>,
    pub(crate) shutdown: AtomicBool,
    /// The reactor→worker queue; its depth is admission control's gauge.
    pub(crate) jobs: Arc<JobQueue>,
    pub(crate) metrics: ReactorMetrics,
}

impl ServerShared {
    pub(crate) fn new(registry: Arc<GraphRegistry>, config: &ServeConfig) -> ServerShared {
        ServerShared {
            registry,
            store: config.store.clone(),
            shutdown: AtomicBool::new(false),
            jobs: Arc::new(JobQueue::new()),
            metrics: ReactorMetrics::new(config.queue_limit, config.effective_workers()),
        }
    }

    /// The `STATS` response: registry-wide counters always, plus the
    /// engine counters of the addressed graph. An *explicitly* addressed
    /// absent graph is an error (top-level and batched alike); an
    /// unaddressed `STATS` still reports registry counters even when the
    /// default graph has been unloaded.
    fn stats_response(&self, graph: Option<&str>, session_requests: u64) -> Response {
        let resolved = match graph {
            Some(name) => match self.registry.get(Some(name)) {
                Ok(pair) => Some(pair),
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            },
            None => self.registry.get(None).ok(),
        };
        let graph = resolved.map(|(name, engine)| {
            let index = engine.index();
            let g = index.graph();
            Box::new(StatsGraph {
                name,
                engine: engine.stats(),
                graph_n: g.num_vertices(),
                graph_m: g.num_edges(),
                breakpoints: engine.num_breakpoints(),
            })
        });
        Response::Stats {
            graph,
            registry: self.registry.stats(),
            store: self.store.as_ref().map(|s| {
                let entries = s.entries();
                StoreStats {
                    persisted: entries.len(),
                    bytes: entries.iter().map(|e| e.bytes).sum(),
                    audit_seq: s.audit_next_seq(),
                }
            }),
            reactor: ReactorStats {
                connections: self.metrics.connections.load(Ordering::Relaxed),
                accepted: self.metrics.accepted.load(Ordering::Relaxed),
                queue_depth: self.jobs.depth(),
                queue_limit: self.metrics.queue_limit,
                shed_requests: self.metrics.shed_requests.load(Ordering::Relaxed),
                shed_connections: self.metrics.shed_connections.load(Ordering::Relaxed),
                workers: self.metrics.workers,
            },
            faults: FaultStats {
                deadline_expired: self.metrics.deadline_expired.load(Ordering::Relaxed),
                idle_reaped: self.metrics.idle_reaped.load(Ordering::Relaxed),
                watchdog_trips: self.metrics.watchdog_trips.load(Ordering::Relaxed),
                stuck_workers: self.metrics.stuck_workers.load(Ordering::Relaxed),
                store_io_errors: self.store.as_ref().map_or(0, |s| s.io_error_count()),
                audit_failures: self.store.as_ref().map_or(0, |s| s.audit_failure_count()),
            },
            session_requests,
        }
    }

    /// Manifest names for `LIST` (`None` on storeless servers).
    fn persisted_names(&self) -> Option<Vec<String>> {
        self.store.as_ref().map(|s| {
            let mut names: Vec<String> = s.entries().into_iter().map(|e| e.name).collect();
            names.sort();
            names
        })
    }
}

/// Snapshot one resident graph into `store`, pinned if it is the
/// default graph and with its current cache capacity — the record a
/// warm boot restores.
fn save(
    store: &IndexStore,
    registry: &GraphRegistry,
    name: &str,
    engine: &QueryEngine,
) -> std::io::Result<ManifestEntry> {
    let pinned = name == registry.default_name();
    store.save(name, &engine.index(), pinned, engine.stats().cache_capacity)
}

/// Snapshot every still-resident graph whose index was mutated since
/// its last `SAVE`. Runs after the reactor has closed every connection
/// and joined every worker — no more mutations can arrive — so a clean
/// shutdown never loses applied updates.
pub(crate) fn autosave_dirty(shared: &ServerShared) {
    if let Some(store) = &shared.store {
        for name in store.dirty_names() {
            let Ok((canonical, engine)) = shared.registry.get(Some(&name)) else {
                continue; // unloaded since the mutation; nothing to save
            };
            let _ = save(store, &shared.registry, &canonical, &engine);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or send `SHUTDOWN` over a connection and
/// [`ServerHandle::wait`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    completions: Arc<Completions>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0: the OS picks a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted registry.
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.shared.registry
    }

    /// Request shutdown and block until the reactor (and every worker it
    /// owns) has exited.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Interrupt the reactor's poll so it notices immediately.
        self.completions.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops on its own (a client sent
    /// `SHUTDOWN`).
    pub fn wait(mut self) {
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve every graph in `registry` until shutdown, under
/// `config`'s reactor and admission-control bounds. Returns once the
/// listener is bound and accepting, so callers may connect immediately.
///
/// With a durable store in [`ServeConfig::store`], the server also
/// answers `SAVE`, audits every LOAD/SAVE/UNLOAD/EVICT, and surfaces the
/// persisted working set through `LIST`/`STATS`; callers typically run
/// [`warm_boot`](crate::boot::warm_boot) on the registry first.
pub fn serve(
    registry: Arc<GraphRegistry>,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    if let Some(store) = &config.store {
        // Evictions happen inside registry admission, far from any
        // protocol handler — the hook routes them into the audit log.
        let store = Arc::clone(store);
        registry.set_evict_hook(Box::new(move |name| {
            let _ = store.record(AuditKind::Evict, Some(name), "reason=budget");
        }));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared::new(registry, &config));
    let reactor = Reactor::new(listener, Arc::clone(&shared), config)?;
    let completions = reactor.completions();
    let reactor_thread = std::thread::Builder::new()
        .name("parscan-serve-reactor".into())
        .spawn(move || reactor.run())?;

    Ok(ServerHandle {
        addr,
        shared,
        completions,
        reactor_thread: Some(reactor_thread),
    })
}

/// What the connection should do after its response is written.
pub(crate) enum Control {
    Continue,
    Close,
    ShutdownServer,
}

/// Build the `LOAD` acknowledgement (and audit record) from a load's
/// result.
fn load_response(
    shared: &ServerShared,
    name: String,
    path: &str,
    start: Instant,
    result: LoadResult,
) -> Response {
    match result {
        Ok((engine, outcome)) => {
            let index = engine.index();
            let g = index.graph();
            let millis = start.elapsed().as_millis() as u64;
            if outcome == LoadOutcome::Loaded {
                if let Some(store) = &shared.store {
                    let kind = if path.ends_with(".pscidx") {
                        AuditKind::Load
                    } else {
                        AuditKind::Build
                    };
                    let _ = store.record(
                        kind,
                        Some(&name),
                        &format!("n={} m={} millis={millis}", g.num_vertices(), g.num_edges()),
                    );
                }
            }
            Response::Loaded {
                name,
                outcome,
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                bytes: index.memory_bytes(),
                millis,
            }
        }
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// Resolve a graph address and answer from its engine; registry and
/// engine errors both become protocol errors.
fn on_graph(
    registry: &GraphRegistry,
    graph: Option<&str>,
    answer: impl FnOnce(String, Arc<QueryEngine>) -> Result<Response, String>,
) -> Response {
    match registry.get(graph) {
        Ok((name, engine)) => {
            answer(name, engine).unwrap_or_else(|message| Response::Error { message })
        }
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// Answer one parsed request through `reply`, exactly once. `CLUSTER`
/// and `LOAD` go through the engine's and registry's deferred calls, so
/// a request that coalesces onto an in-flight computation parks `reply`
/// on the leader's completion cell instead of holding this thread; every
/// other verb is answered inline.
pub(crate) fn dispatch(
    shared: &Arc<ServerShared>,
    request: Request,
    session_requests: u64,
    reply: impl FnOnce(Response, Control) + Send + 'static,
) {
    let registry = &shared.registry;
    let response = match request {
        Request::Cluster {
            graph,
            params,
            full,
        } => match registry.get(graph.as_deref()) {
            Ok((graph, engine)) => {
                return engine.cluster_deferred(params, move |outcome| {
                    let response = match outcome {
                        Some(outcome) => Response::Cluster {
                            graph,
                            params,
                            outcome,
                            full,
                        },
                        None => Response::abandoned(),
                    };
                    reply(response, Control::Continue)
                })
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Load { name, path, cache } => {
            let start = Instant::now();
            let shared = Arc::clone(shared);
            let source = path.clone();
            let build = || build_index_from_path(&source);
            return registry.load(&name.clone(), cache, build, move |result| {
                let response = load_response(&shared, name, &path, start, result);
                reply(response, Control::Continue)
            });
        }
        Request::Ping => Response::Pong,
        Request::Stats { graph } => shared.stats_response(graph.as_deref(), session_requests),
        Request::List => Response::List {
            default: registry.default_name().to_string(),
            graphs: registry.list(),
            persisted: shared.persisted_names(),
        },
        Request::Unload { name } => match registry.unload(&name) {
            Ok(bytes_freed) => {
                // An explicit UNLOAD also removes the graph from the
                // persisted working set — the operator said "forget this
                // graph", and a later warm boot must respect that.
                // (Evictions, by contrast, leave the manifest alone: boot
                // re-admits whatever fits the budget.)
                if let Some(store) = &shared.store {
                    let _ = store.forget(&name);
                }
                Response::Unloaded { name, bytes_freed }
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Save { graph } => match &shared.store {
            None => Response::Error {
                message: "this server has no durable store (start it with --store-dir)".into(),
            },
            Some(store) => on_graph(registry, graph.as_deref(), |name, engine| {
                let start = Instant::now();
                Ok(match save(store, registry, &name, &engine) {
                    Ok(entry) => Response::Saved {
                        name,
                        snapshot: entry.snapshot,
                        bytes: entry.bytes,
                        millis: start.elapsed().as_millis() as u64,
                    },
                    // A failed save leaves the previous manifest+snapshot
                    // generation fully intact (see `IndexStore::save`),
                    // so the client can simply try again.
                    Err(e) => Response::Retryable {
                        message: format!("saving {name:?} failed: {e}"),
                        reason: "io",
                    },
                })
            }),
        },
        Request::Probe {
            graph,
            vertex,
            params,
        } => on_graph(registry, graph.as_deref(), |graph, engine| {
            engine.probe(vertex, params).map(|probe| Response::Probe {
                graph,
                vertex,
                params,
                probe,
            })
        }),
        Request::Sweep { graph, eps_step } => {
            on_graph(registry, graph.as_deref(), |graph, engine| {
                engine
                    .sweep_best(eps_step)
                    .map(|best| Response::Sweep { graph, best })
            })
        }
        Request::Apply { graph, batch } => on_graph(registry, graph.as_deref(), |graph, engine| {
            let outcome = engine.apply_update(&batch)?;
            // A mutation makes the resident index newer than any
            // snapshot: mark the graph dirty so SAVE (or the shutdown
            // sweep) persists it, and audit the mutation like
            // loads/saves.
            if let (true, Some(store)) = (outcome.changed, &shared.store) {
                store.mark_dirty(&graph);
                let _ = store.record(
                    AuditKind::Mutate,
                    Some(&graph),
                    &format!(
                        "epoch={} ins={} del={} rew={} changed={} n={} m={}",
                        outcome.epoch,
                        outcome.inserted,
                        outcome.deleted,
                        outcome.reweighted,
                        outcome.changed_edges,
                        outcome.n,
                        outcome.m
                    ),
                );
            }
            Ok(Response::Applied { graph, outcome })
        }),
        Request::Batch(inner) => Response::Batch(
            BatchExecutor::new(registry)
                .execute(&inner, |sub| answer_inline(shared, sub, session_requests)),
        ),
        Request::Quit => return reply(Response::Bye { shutdown: false }, Control::Close),
        Request::Shutdown => {
            return reply(Response::Bye { shutdown: true }, Control::ShutdownServer)
        }
    };
    reply(response, Control::Continue)
}

/// Answer `request` on the calling thread if its cost does not grow with
/// the graph: `PING`, and a non-`FULL` `CLUSTER` whose key is already
/// cached (through the engine's cache-only probe, which counts the
/// request and the hit only when it hits). Everything else — `FULL`
/// renders, misses, and every other verb — is `None`, for [`dispatch`]
/// on a worker. The reactor calls this after admission control, so the
/// shed rules are the same for both paths.
pub(crate) fn answer_now(shared: &ServerShared, request: &Request) -> Option<Response> {
    match request {
        Request::Ping => Some(Response::Pong),
        Request::Cluster {
            graph,
            params,
            full: false,
        } => {
            let (graph, engine) = shared.registry.get(graph.as_deref()).ok()?;
            let outcome = engine.cached(*params)?;
            Some(Response::Cluster {
                graph,
                params: *params,
                outcome,
                full: false,
            })
        }
        _ => None,
    }
}

/// [`dispatch`] for a `BATCH`'s read-only, non-`CLUSTER` sub-requests,
/// every one of which it answers inline on this thread.
pub(crate) fn answer_inline(
    shared: &Arc<ServerShared>,
    request: &Request,
    session_requests: u64,
) -> Response {
    let (tx, rx) = std::sync::mpsc::channel();
    dispatch(
        shared,
        request.clone(),
        session_requests,
        move |response, _| {
            let _ = tx.send(response);
        },
    );
    rx.recv().expect("dispatch answers exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::{IndexConfig, ScanIndex};
    use parscan_graph::generators;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Serve `g` as the default graph of a fresh registry.
    fn serve_graph(g: parscan_graph::CsrGraph, config: ServeConfig) -> ServerHandle {
        let registry = Arc::new(GraphRegistry::new("default", Default::default()));
        registry
            .install("default", ScanIndex::build(g, IndexConfig::default()))
            .unwrap();
        serve(registry, "127.0.0.1:0", config).expect("bind")
    }

    fn spawn_server() -> ServerHandle {
        let (g, _) = generators::planted_partition(200, 4, 9.0, 1.0, 5);
        serve_graph(g, ServeConfig::default())
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for l in lines {
            stream.write_all(l.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        reader
            .lines()
            .take(lines.len())
            .map(|l| l.expect("response line"))
            .collect()
    }

    #[test]
    fn ping_stats_and_errors() {
        let server = spawn_server();
        let out = roundtrip(server.addr(), &["PING", "NONSENSE", "STATS", "QUIT"]);
        assert_eq!(out[0], r#"{"ok":true,"op":"pong"}"#);
        assert!(out[1].starts_with(r#"{"ok":false,"op":"error""#));
        assert!(out[2].contains(r#""op":"stats""#));
        assert!(out[2].contains(r#""n":200"#));
        assert!(out[3].contains(r#""op":"bye""#));
        server.shutdown();
    }

    #[test]
    fn stats_surface_reactor_counters() {
        let server = spawn_server();
        let out = roundtrip(server.addr(), &["STATS", "QUIT"]);
        // This session is registered and counted while its STATS runs.
        assert!(
            out[0].contains(r#""reactor":{"connections":1,"accepted":1"#),
            "{}",
            out[0]
        );
        assert!(out[0].contains(r#""queue_limit":1024"#), "{}", out[0]);
        assert!(
            out[0].contains(r#""shed_requests":0,"shed_connections":0"#),
            "{}",
            out[0]
        );
        assert!(out[0].contains(r#""session_requests":1"#), "{}", out[0]);
        assert!(
            !out[0].contains(r#""sessions":"#),
            "replaced field: {}",
            out[0]
        );
        server.shutdown();
    }

    #[test]
    fn cluster_roundtrip_and_cache_flag() {
        let server = spawn_server();
        let out = roundtrip(server.addr(), &["CLUSTER 3 0.4", "CLUSTER 3 0.4", "QUIT"]);
        assert!(out[0].contains(r#""cached":false"#), "{}", out[0]);
        assert!(out[1].contains(r#""cached":true"#), "{}", out[1]);
        server.shutdown();
    }

    #[test]
    fn mutation_roundtrip_over_tcp() {
        // A fixed tiny graph so every mutation's effect is deterministic:
        // triangle {0,1,2}, edge (3,4), isolated vertex 5.
        let g = parscan_graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let server = serve_graph(g, ServeConfig::default());
        let out = roundtrip(
            server.addr(),
            &[
                "INSERT 4,5",
                "DELETE 0,1",
                "APPLY +0,1 -3,4",
                "INSERT 0,0",
                "INSERT 0,99",
                "BATCH INSERT 1,2 ; PING",
                "STATS",
                "QUIT",
            ],
        );
        assert!(
            out[0].contains(r#""op":"apply""#)
                && out[0].contains(r#""epoch":1"#)
                && out[0].contains(r#""inserted":1"#),
            "{}",
            out[0]
        );
        assert!(
            out[1].contains(r#""epoch":2"#) && out[1].contains(r#""deleted":1"#),
            "{}",
            out[1]
        );
        assert!(
            out[2].contains(r#""epoch":3"#)
                && out[2].contains(r#""inserted":1"#)
                && out[2].contains(r#""deleted":1"#),
            "{}",
            out[2]
        );
        assert!(out[3].contains(r#""ok":false"#), "self-loop: {}", out[3]);
        assert!(out[4].contains("out of range"), "{}", out[4]);
        assert!(out[5].contains(r#""ok":false"#), "batch: {}", out[5]);
        assert!(
            out[6].contains(r#""epoch":3"#) && out[6].contains(r#""updates_applied":3"#),
            "{}",
            out[6]
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = spawn_server();
        let addr = server.addr();
        let out = roundtrip(addr, &["SHUTDOWN"]);
        assert!(out[0].contains(r#""shutdown":true"#));
        server.wait();
        // The listener is gone: new connections are refused (or reset).
        std::thread::sleep(Duration::from_millis(50));
        let refused = TcpStream::connect(addr).is_err();
        assert!(refused, "listener should be closed after SHUTDOWN");
    }

    #[test]
    fn slow_client_split_across_read_timeouts_is_not_mangled() {
        // Regression: a request arriving in pieces slower than the 100ms
        // poll timeout used to lose its first fragment (the loop cleared
        // the buffer after a WouldBlock), mis-framing the stream.
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"CLUSTER 3").unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(250));
        stream.write_all(b" 0.4\nQUIT\n").unwrap();
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        let lines: Vec<String> = reader.lines().take(2).map(|l| l.unwrap()).collect();
        assert!(
            lines[0].contains(r#""op":"cluster""#) && lines[0].contains(r#""mu":3"#),
            "split request mangled: {}",
            lines[0]
        );
        assert!(lines[1].contains(r#""op":"bye""#));
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_closed() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Stream well past the cap without ever sending a newline. The
        // server may reject and close mid-stream (that's the point), so
        // later writes are allowed to fail with EPIPE/ECONNRESET.
        let chunk = vec![b'A'; 32 * 1024];
        for _ in 0..3 {
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = stream.flush();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("exceeds"), "{line}");
        // The session closed: the next read hits EOF.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn save_persists_and_unload_forgets_via_protocol() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("parscan_serve_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(IndexStore::open(&dir).expect("open store"));
        let (g, _) = generators::planted_partition(200, 4, 9.0, 1.0, 5);
        let config = ServeConfig {
            store: Some(Arc::clone(&store)),
            ..Default::default()
        };
        let server = serve_graph(g, config);
        let out = roundtrip(server.addr(), &["SAVE", "LIST", "STATS", "QUIT"]);
        assert!(
            out[0].contains(r#""op":"save""#) && out[0].contains(r#""graph":"default""#),
            "{}",
            out[0]
        );
        assert!(
            out[1].contains(r#""persisted":["default"]"#) && out[1].contains(r#""persisted":true"#),
            "{}",
            out[1]
        );
        assert!(out[2].contains(r#""store":{"persisted":1"#), "{}", out[2]);
        assert_eq!(store.entries().len(), 1);

        // UNLOAD removes the graph from the persisted working set too.
        let out = roundtrip(server.addr(), &["UNLOAD default", "LIST", "QUIT"]);
        assert!(out[0].contains(r#""op":"unload""#), "{}", out[0]);
        assert!(out[1].contains(r#""persisted":[]"#), "{}", out[1]);
        assert!(store.entries().is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_reads_render_like_top_level_reads() {
        // One dispatcher answers both, so a store-backed server's LIST
        // carries `persisted` inside BATCH too.
        let mut dir = std::env::temp_dir();
        dir.push(format!("parscan_serve_batch_reads_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(IndexStore::open(&dir).expect("open store"));
        let (g, _) = generators::planted_partition(200, 4, 9.0, 1.0, 5);
        let config = ServeConfig {
            store: Some(store),
            ..Default::default()
        };
        let server = serve_graph(g, config);
        let reads = ["PROBE 0 3 0.4", "SWEEP 0.1", "LIST", "PING"];
        let batch = format!("BATCH {}", reads.join(" ; "));
        let mut lines = vec!["SAVE"];
        lines.extend(reads);
        lines.extend([batch.as_str(), "QUIT"]);
        let out = roundtrip(server.addr(), &lines);
        let alone = &out[1..=reads.len()];
        assert!(
            alone[2].contains(r#""persisted":["default"]"#),
            "{}",
            alone[2]
        );
        assert_eq!(
            out[reads.len() + 1],
            format!(
                r#"{{"ok":true,"op":"batch","results":[{}]}}"#,
                alone.join(",")
            )
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_without_store_is_a_protocol_error() {
        let server = spawn_server();
        let out = roundtrip(server.addr(), &["SAVE", "QUIT"]);
        assert!(
            out[0].contains(r#""ok":false"#) && out[0].contains("--store-dir"),
            "{}",
            out[0]
        );
        server.shutdown();
    }

    #[test]
    fn handle_shutdown_joins_sessions() {
        let server = spawn_server();
        let addr = server.addr();
        // An idle open connection must not block shutdown.
        let _idle = TcpStream::connect(addr).unwrap();
        server.shutdown();
    }
}
