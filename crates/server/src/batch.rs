//! Batched query execution: deduplicate a mixed workload, run the
//! distinct clustering queries across the thread pool, and fan results
//! back out in request order.
//!
//! Batching matters for two reasons. First, *deduplication*: concurrent
//! misses on the same `(graph, μ, ε-class)` would each compute the
//! clustering; inside a batch the computation happens exactly once and
//! every duplicate shares the `Arc`. Second, *parallelism across
//! queries*: a single query already parallelizes internally, but many
//! small queries are dominated by per-query fixed costs — running the
//! distinct set as one flat parallel job over `parscan_parallel::pool`
//! overlaps them (nested parallel calls inside each query degrade to
//! sequential, so batch-level parallelism composes safely with
//! query-level).
//!
//! A batch may mix graphs — each command resolves through the
//! [`GraphRegistry`] — but it can never mutate the registry or an index:
//! `LOAD`/`UNLOAD`/`SAVE` and `INSERT`/`DELETE`/`APPLY` are rejected
//! (at parse time, and again here for programmatic batches), so a batch
//! only ever reads resident indexes. Its other read-only commands —
//! `PROBE`, `SWEEP`, `STATS`, `LIST`, `PING` — are answered by the
//! caller, which is how the server routes them through its one request
//! dispatcher.
//!
//! # Examples
//!
//! ```
//! use parscan_server::{BatchExecutor, GraphRegistry, Request, Response};
//! use parscan_core::{IndexConfig, QueryParams, ScanIndex};
//! use std::sync::Arc;
//!
//! let registry = GraphRegistry::new("main", Default::default());
//! let (g, _) = parscan_graph::generators::planted_partition(150, 3, 8.0, 1.0, 11);
//! registry.install("main", ScanIndex::build(g, IndexConfig::default())).unwrap();
//!
//! let p = QueryParams::new(3, 0.4);
//! let batch = vec![
//!     Request::Cluster { graph: None, params: p, full: false },
//!     Request::Cluster { graph: None, params: p, full: false }, // duplicate
//! ];
//! let responses = BatchExecutor::new(&registry).execute(&batch, |_| Response::Pong);
//! let [Response::Cluster { outcome: a, .. }, Response::Cluster { outcome: b, .. }] =
//!     &responses[..] else { panic!() };
//! // The duplicate shared the first computation's allocation.
//! assert!(Arc::ptr_eq(&a.clustering, &b.clustering));
//! ```

use crate::engine::{ClusterOutcome, QueryEngine};
use crate::protocol::{Request, Response};
use crate::registry::GraphRegistry;
use parscan_core::QueryParams;
use parscan_parallel::primitives::par_map;
use std::collections::HashMap;
use std::sync::Arc;

/// Executes [`Request::Batch`] workloads against a [`GraphRegistry`].
pub struct BatchExecutor<'r> {
    registry: &'r GraphRegistry,
}

/// Per-request execution plan.
enum Plan {
    /// Runs (or shares) distinct computation `slot`; the representative
    /// is the request whose execution metadata (cached, micros)
    /// describes what actually ran.
    Cluster {
        slot: usize,
        representative: bool,
        graph: String,
        params: QueryParams,
        full: bool,
    },
    /// Answered by the caller's `answer`.
    Answer,
    /// Already answered at planning time: an unknown graph, or a command
    /// a batch may not carry.
    Done(Response),
}

/// Run one distinct query to completion on this thread. `None` means its
/// coalescing leader died. Pool workers never follow another
/// computation (see [`QueryEngine::cluster_deferred`]), so under
/// `par_map` the answer is always inline.
fn run(engine: &Arc<QueryEngine>, params: QueryParams) -> Option<ClusterOutcome> {
    let (tx, rx) = std::sync::mpsc::channel();
    engine.cluster_deferred(params, move |outcome| {
        let _ = tx.send(outcome);
    });
    rx.recv().ok().flatten()
}

impl<'r> BatchExecutor<'r> {
    pub fn new(registry: &'r GraphRegistry) -> Self {
        BatchExecutor { registry }
    }

    /// Execute `requests`, returning one response per request in order.
    /// `answer` supplies the response to every read-only command other
    /// than `CLUSTER` (the caller owns the session and store context
    /// those need).
    pub fn execute(
        &self,
        requests: &[Request],
        answer: impl Fn(&Request) -> Response,
    ) -> Vec<Response> {
        // Deduplicate clustering work by (graph, μ, ε-class): one
        // execution per distinct key, shared by every duplicate in the
        // batch. ε classes are engine-specific, so the key is snapped
        // per resolved graph.
        let mut distinct: Vec<(Arc<QueryEngine>, QueryParams)> = Vec::new();
        let mut key_to_slot: HashMap<(String, u32, u32), usize> = HashMap::new();
        let plans: Vec<Plan> = requests
            .iter()
            .map(|req| match req {
                Request::Cluster {
                    graph,
                    params,
                    full,
                } => match self.registry.get(graph.as_deref()) {
                    Ok((canonical, engine)) => {
                        let (eps_class, _) = engine.snap_epsilon(params.epsilon);
                        let key = (canonical.clone(), params.mu, eps_class);
                        let mut representative = false;
                        let slot = *key_to_slot.entry(key).or_insert_with(|| {
                            representative = true;
                            distinct.push((engine, *params));
                            distinct.len() - 1
                        });
                        Plan::Cluster {
                            slot,
                            representative,
                            graph: canonical,
                            params: *params,
                            full: *full,
                        }
                    }
                    Err(e) => Plan::Done(Response::Error {
                        message: e.to_string(),
                    }),
                },
                Request::Probe { .. }
                | Request::Sweep { .. }
                | Request::Stats { .. }
                | Request::List
                | Request::Ping => Plan::Answer,
                Request::Batch(_)
                | Request::Quit
                | Request::Shutdown
                | Request::Load { .. }
                | Request::Unload { .. }
                | Request::Save { .. }
                | Request::Apply { .. } => Plan::Done(Response::Error {
                    message: "command not allowed inside a batch".into(),
                }),
            })
            .collect();

        // Run the distinct clustering queries as one flat parallel job —
        // but only when there are enough of them to fill the pool. Pool
        // workers collapse nested parallel calls to sequential, so a
        // small batch under par_map would run each query single-threaded;
        // below the thread count, intra-query parallelism wins.
        let outcomes: Vec<Option<ClusterOutcome>> =
            if distinct.len() < parscan_parallel::pool::num_threads() {
                distinct.iter().map(|(e, p)| run(e, *p)).collect()
            } else {
                par_map(distinct.len(), 1, |i| {
                    let (e, p) = &distinct[i];
                    run(e, *p)
                })
            };

        requests
            .iter()
            .zip(plans)
            .map(|(req, plan)| match plan {
                Plan::Done(response) => response,
                Plan::Answer => answer(req),
                Plan::Cluster {
                    slot,
                    representative,
                    graph,
                    params,
                    full,
                } => {
                    let Some(mut outcome) = outcomes[slot].clone() else {
                        return Response::abandoned();
                    };
                    if !representative {
                        // Duplicates consumed a shared result: report
                        // their own ε snap and hit-like metadata, not the
                        // representative's execution cost.
                        let engine = &distinct[slot].0;
                        let (eps_class, eps_snapped) = engine.snap_epsilon(params.epsilon);
                        outcome.eps_class = eps_class;
                        outcome.eps_snapped = eps_snapped;
                        outcome.cached = true;
                        outcome.coalesced = false;
                        outcome.micros = 0;
                    }
                    Response::Cluster {
                        graph,
                        params,
                        outcome,
                        full,
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::{IndexConfig, QueryParams, ScanIndex};
    use parscan_graph::generators;

    fn registry() -> GraphRegistry {
        let r = GraphRegistry::new("main", Default::default());
        let (g, _) = generators::planted_partition(240, 4, 9.0, 1.0, 77);
        r.install("main", ScanIndex::build(g, IndexConfig::default()))
            .unwrap();
        r
    }

    /// The server's dispatcher, answering a batch's non-CLUSTER commands.
    fn dispatcher(r: &Arc<GraphRegistry>) -> impl Fn(&Request) -> Response {
        let config = crate::reactor::ServeConfig::default();
        let shared = Arc::new(crate::server::ServerShared::new(Arc::clone(r), &config));
        move |req| crate::server::answer_inline(&shared, req, 0)
    }

    fn stats_stub(_: &Request) -> Response {
        Response::Pong
    }

    #[test]
    fn batch_preserves_request_order_and_dedups() {
        let r = Arc::new(registry());
        let p1 = QueryParams::new(2, 0.3);
        let p2 = QueryParams::new(3, 0.5);
        let requests = vec![
            Request::Cluster {
                graph: None,
                params: p1,
                full: false,
            },
            Request::Cluster {
                graph: None,
                params: p2,
                full: false,
            },
            // Duplicate of the first — must share the same computation.
            Request::Cluster {
                graph: None,
                params: p1,
                full: true,
            },
            Request::Ping,
            Request::Probe {
                graph: None,
                vertex: 0,
                params: p1,
            },
        ];
        let responses = BatchExecutor::new(&r).execute(&requests, dispatcher(&r));
        assert_eq!(responses.len(), 5);
        let (a, c) = match (&responses[0], &responses[2]) {
            (Response::Cluster { outcome: a, .. }, Response::Cluster { outcome: c, .. }) => (a, c),
            other => panic!("unexpected responses {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&a.clustering, &c.clustering),
            "duplicates must share one result"
        );
        // The duplicate reports hit-like metadata, not the
        // representative's execution cost.
        assert!(!a.cached);
        assert!(c.cached && c.micros == 0);
        assert_eq!(a.eps_class, c.eps_class);
        // Two distinct queries executed, not three.
        let (_, engine) = r.get(None).unwrap();
        assert_eq!(engine.stats().cluster_requests, 2);
        assert!(matches!(responses[3], Response::Pong));
        assert!(matches!(responses[4], Response::Probe { .. }));
    }

    #[test]
    fn batch_results_match_sequential_execution() {
        let r = registry();
        let params: Vec<QueryParams> = (1..=6)
            .map(|i| QueryParams::new(2 + (i % 3), i as f32 / 7.0))
            .collect();
        let requests: Vec<Request> = params
            .iter()
            .map(|&p| Request::Cluster {
                graph: None,
                params: p,
                full: false,
            })
            .collect();
        let batched = BatchExecutor::new(&r).execute(&requests, stats_stub);

        let direct = registry(); // fresh registry, sequential execution
        let (_, direct_engine) = direct.get(None).unwrap();
        for (req, resp) in requests.iter().zip(&batched) {
            let Request::Cluster { params, .. } = req else {
                unreachable!()
            };
            let Response::Cluster { outcome, .. } = resp else {
                panic!("expected cluster response")
            };
            let want = direct_engine.cluster(*params);
            assert_eq!(
                *outcome.clustering, *want.clustering,
                "batch diverges at {params:?}"
            );
        }
    }

    #[test]
    fn errors_inside_batches_are_per_request() {
        let r = Arc::new(registry());
        let requests = vec![
            Request::Probe {
                graph: None,
                vertex: 999_999,
                params: QueryParams::new(2, 0.5),
            },
            Request::Cluster {
                graph: None,
                params: QueryParams::new(2, 0.5),
                full: false,
            },
            // Unknown graph: a per-request error, not a batch failure.
            Request::Cluster {
                graph: Some("absent".into()),
                params: QueryParams::new(2, 0.5),
                full: false,
            },
        ];
        let responses = BatchExecutor::new(&r).execute(&requests, dispatcher(&r));
        assert!(matches!(responses[0], Response::Error { .. }));
        assert!(matches!(responses[1], Response::Cluster { .. }));
        let Response::Error { message } = &responses[2] else {
            panic!("unknown graph must be a per-request error");
        };
        assert!(message.contains("absent"), "{message}");
    }

    #[test]
    fn batch_addresses_multiple_graphs() {
        let r = registry();
        let (g2, _) = generators::planted_partition(150, 3, 8.0, 1.0, 5);
        r.install("second", ScanIndex::build(g2, IndexConfig::default()))
            .unwrap();
        let p = QueryParams::new(2, 0.3);
        let requests = vec![
            Request::Cluster {
                graph: None,
                params: p,
                full: false,
            },
            Request::Cluster {
                graph: Some("second".into()),
                params: p,
                full: false,
            },
        ];
        let responses = BatchExecutor::new(&r).execute(&requests, stats_stub);
        let [Response::Cluster {
            graph: ga,
            outcome: a,
            ..
        }, Response::Cluster {
            graph: gb,
            outcome: b,
            ..
        }] = &responses[..]
        else {
            panic!("expected two cluster responses, got {responses:?}");
        };
        assert_eq!(ga, "main");
        assert_eq!(gb, "second");
        // Same params, different graphs: distinct computations over
        // different vertex counts.
        assert!(!a.cached && !b.cached);
        assert_ne!(a.clustering.labels.len(), b.clustering.labels.len());
    }
}
