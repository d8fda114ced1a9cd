//! The wire protocol: one-line text requests, one-line JSON responses.
//!
//! Requests are whitespace-separated commands (case-insensitive keyword,
//! numeric arguments), chosen so any client — `nc`, a shell script, a
//! driver in another language — can speak them without a serializer.
//! The full specification lives in `docs/PROTOCOL.md`; the shape is:
//!
//! ```text
//! PING
//! LIST
//! LOAD <name> [CACHE=<n>] <path>
//! UNLOAD <name>
//! SAVE [<name>]
//! [@<graph>] STATS
//! [@<graph>] CLUSTER <mu> <eps> [FULL]
//! [@<graph>] PROBE <vertex> <mu> <eps>
//! [@<graph>] SWEEP [eps_step]
//! [@<graph>] INSERT <u>,<v>[,<w>] ...
//! [@<graph>] DELETE <u>,<v> ...
//! [@<graph>] APPLY {+<u>,<v>[,<w>] | -<u>,<v>} ...
//! BATCH <cmd> ; <cmd> ; ...
//! QUIT
//! SHUTDOWN
//! ```
//!
//! A leading `@<graph>` token addresses a named graph in the server's
//! [`GraphRegistry`](crate::registry::GraphRegistry); without it, a
//! query runs against the default (boot) graph — PR 1 clients keep
//! working unchanged. `LOAD`/`UNLOAD`/`SAVE`/`LIST` manage the registry
//! and never appear inside a `BATCH` (batches are read-only, so the
//! mutation verbs `INSERT`/`DELETE`/`APPLY` are excluded too). `SAVE`
//! snapshots a resident graph into the server's durable store (it
//! errors on servers started without `--store-dir`); `LOAD`'s optional
//! `CACHE=<n>` sets that graph's result-cache capacity, which the store
//! persists and warm boots restore.
//!
//! Every response is a single JSON object terminated by `\n`, always
//! carrying `"ok"` and `"op"`. `CLUSTER … FULL` includes the complete
//! per-vertex assignment: `"labels"` (cluster representative per vertex,
//! `-1` for unclustered) and `"cores"` (vertex ids that are cores), which
//! together reproduce the exact `Clustering` a direct library call
//! returns. `BATCH` responds with `"results": [...]` in request order.

use crate::engine::{ClusterOutcome, EngineStats, SweepBest, UpdateOutcome};
use crate::registry::{validate_graph_name, GraphInfo, LoadOutcome, RegistryStats};
use parscan_core::{BatchUpdate, Clustering, QueryParams, VertexProbe, UNCLUSTERED};

/// Most commands accepted in one `BATCH` — a bound on the work a single
/// request line from an untrusted client can enqueue.
pub const MAX_BATCH_COMMANDS: usize = 256;

/// Most edges accepted in one `INSERT`/`DELETE`/`APPLY` line — a bound
/// on the incremental-maintenance work one request from an untrusted
/// client can trigger (line framing caps it anyway; this makes the
/// limit explicit and the error message helpful).
pub const MAX_MUTATION_EDGES: usize = 4096;

/// A parsed client request. `graph: None` addresses the server's
/// default graph.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Stats {
        graph: Option<String>,
    },
    /// Describe every resident graph.
    List,
    /// Load a graph or persisted index from a server-local file into the
    /// registry under `name`.
    Load {
        name: String,
        path: String,
        /// Per-graph result-cache capacity override (`CACHE=<n>`).
        cache: Option<usize>,
    },
    /// Remove a resident graph.
    Unload {
        name: String,
    },
    /// Snapshot a resident graph (the default graph when `None`) into
    /// the server's durable store.
    Save {
        graph: Option<String>,
    },
    Cluster {
        graph: Option<String>,
        params: QueryParams,
        /// Include the full per-vertex assignment in the response.
        full: bool,
    },
    Probe {
        graph: Option<String>,
        vertex: u32,
        params: QueryParams,
    },
    Sweep {
        graph: Option<String>,
        eps_step: f32,
    },
    /// An edge-mutation batch (`INSERT`/`DELETE`/`APPLY`) applied to a
    /// resident graph via incremental index maintenance and published
    /// as a new epoch.
    Apply {
        graph: Option<String>,
        batch: BatchUpdate,
    },
    /// A mixed workload executed by the batch executor; nested batches
    /// and registry mutation (`LOAD`/`UNLOAD`) are rejected at parse
    /// time.
    Batch(Vec<Request>),
    Quit,
    Shutdown,
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    tok.parse::<T>().map_err(|_| format!("bad {what}: {tok:?}"))
}

fn parse_params(mu: Option<&str>, eps: Option<&str>) -> Result<QueryParams, String> {
    let mu: u32 = parse_num(mu, "mu")?;
    let eps: f32 = parse_num(eps, "eps")?;
    QueryParams::try_new(mu, eps).map_err(|e| e.to_string())
}

/// Parse one `u,v[,w]` edge token. Deletions name a pair only
/// (`allow_weight` false); insertions default to weight 1. Self-loops
/// are rejected here, loudly, rather than silently ignored downstream.
fn parse_edge_token(tok: &str, allow_weight: bool) -> Result<(u32, u32, f32), String> {
    let mut parts = tok.split(',');
    let u: u32 = parse_num(parts.next(), "edge endpoint")?;
    let v: u32 = parse_num(parts.next(), "edge endpoint")?;
    let w = match parts.next() {
        None => 1.0,
        Some(w) if allow_weight => {
            let w: f32 = w
                .parse()
                .map_err(|_| format!("bad edge weight in {tok:?}"))?;
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("edge weight must be positive and finite: {tok:?}"));
            }
            w
        }
        Some(_) => return Err(format!("a deletion names a pair, not a weight: {tok:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("bad edge token {tok:?} (expected u,v[,w])"));
    }
    if u == v {
        return Err(format!("self-loop {tok:?} is not allowed"));
    }
    Ok((u, v, w))
}

/// Split the leading `BATCH` verbs off one (already trimmed) batch
/// piece: whether there were any, and the text after the last of them
/// (`None` when nothing follows it), whose verb is never `BATCH`.
fn peel_nested_batches(mut piece: &str) -> (bool, Option<&str>) {
    let mut nested = false;
    while piece
        .split_whitespace()
        .next()
        .is_some_and(|verb| verb.eq_ignore_ascii_case("BATCH"))
    {
        nested = true;
        match piece.split_once(char::is_whitespace) {
            Some((_, rest)) => piece = rest.trim(),
            None => return (true, None),
        }
    }
    (nested, Some(piece))
}

/// Accept a (non-`BATCH`) request as one `BATCH` sub-request, which
/// must be read-only and neither end the session nor touch the registry.
fn batchable(request: Request) -> Result<Request, String> {
    match request {
        Request::Quit | Request::Shutdown => Err("QUIT/SHUTDOWN cannot appear in a BATCH".into()),
        Request::Load { .. } | Request::Unload { .. } | Request::Save { .. } => {
            Err("LOAD/UNLOAD/SAVE cannot appear in a BATCH".into())
        }
        Request::Apply { .. } => {
            Err("INSERT/DELETE/APPLY cannot appear in a BATCH (batches are read-only)".into())
        }
        other => Ok(other),
    }
}

/// Parse one request line. A leading `@name` token addresses a named
/// graph (valid on `CLUSTER`/`PROBE`/`SWEEP`/`STATS`). `BATCH` splits
/// on `;` and parses each piece as a simple (non-batch, non-mutating)
/// command.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let mut toks = line.split_whitespace();
    let mut first = toks.next().ok_or("empty request")?;
    let mut graph: Option<String> = None;
    if let Some(name) = first.strip_prefix('@') {
        validate_graph_name(name).map_err(|e| format!("bad graph address {first:?}: {e}"))?;
        graph = Some(name.to_string());
        first = toks.next().ok_or("graph address without a command")?;
    }
    let verb = first.to_ascii_uppercase();
    if graph.is_some()
        && !matches!(
            verb.as_str(),
            "CLUSTER" | "PROBE" | "SWEEP" | "STATS" | "INSERT" | "DELETE" | "APPLY"
        )
    {
        return Err(format!("{verb} does not take a @graph address"));
    }
    match verb.as_str() {
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats { graph }),
        "LIST" => Ok(Request::List),
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "LOAD" => {
            let name = toks.next().ok_or("LOAD needs <name> <path>")?;
            validate_graph_name(name).map_err(|e| format!("bad graph name {name:?}: {e}"))?;
            // The path is everything after the name and any options,
            // verbatim (paths may contain spaces; they cannot contain
            // newlines by framing).
            let after_verb = line
                .split_once(char::is_whitespace)
                .map(|x| x.1.trim_start())
                .ok_or("LOAD needs <name> <path>")?;
            let mut rest = after_verb
                .strip_prefix(name)
                .expect("name is the first token of the remainder")
                .trim();
            // Options sit between the name and the path so the path can
            // stay a raw remainder-of-line.
            let mut cache = None;
            loop {
                let (tok, tail) = match rest.split_once(char::is_whitespace) {
                    Some((t, tail)) => (t, tail.trim_start()),
                    None => (rest, ""),
                };
                let upper = tok.to_ascii_uppercase();
                if let Some(v) = upper.strip_prefix("CACHE=") {
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("bad CACHE= capacity {v:?}"))?;
                    if n == 0 {
                        return Err("CACHE= capacity must be at least 1".into());
                    }
                    cache = Some(n);
                    rest = tail;
                } else {
                    break;
                }
            }
            if rest.is_empty() {
                return Err("LOAD needs a path after the name".into());
            }
            Ok(Request::Load {
                name: name.to_string(),
                path: rest.to_string(),
                cache,
            })
        }
        "UNLOAD" => {
            let name = toks.next().ok_or("UNLOAD needs a graph name")?;
            validate_graph_name(name).map_err(|e| format!("bad graph name {name:?}: {e}"))?;
            if let Some(extra) = toks.next() {
                return Err(format!("unexpected trailing token {extra:?}"));
            }
            Ok(Request::Unload {
                name: name.to_string(),
            })
        }
        "SAVE" => {
            let graph = match toks.next() {
                None => None,
                Some(name) => {
                    validate_graph_name(name)
                        .map_err(|e| format!("bad graph name {name:?}: {e}"))?;
                    Some(name.to_string())
                }
            };
            if let Some(extra) = toks.next() {
                return Err(format!("unexpected trailing token {extra:?}"));
            }
            Ok(Request::Save { graph })
        }
        "CLUSTER" => {
            let params = parse_params(toks.next(), toks.next())?;
            let full = match toks.next() {
                None => false,
                Some(t) if t.eq_ignore_ascii_case("FULL") => true,
                Some(t) => return Err(format!("unexpected trailing token {t:?}")),
            };
            Ok(Request::Cluster {
                graph,
                params,
                full,
            })
        }
        "PROBE" => {
            let vertex: u32 = parse_num(toks.next(), "vertex")?;
            let params = parse_params(toks.next(), toks.next())?;
            Ok(Request::Probe {
                graph,
                vertex,
                params,
            })
        }
        "SWEEP" => {
            let eps_step = match toks.next() {
                None => 0.05,
                Some(t) => t
                    .parse::<f32>()
                    .map_err(|_| format!("bad eps_step: {t:?}"))?,
            };
            Ok(Request::Sweep { graph, eps_step })
        }
        "INSERT" | "DELETE" | "APPLY" => {
            let mut batch = BatchUpdate::default();
            let mut count = 0usize;
            for tok in toks {
                count += 1;
                if count > MAX_MUTATION_EDGES {
                    return Err(format!(
                        "too many edges in one {verb} (max {MAX_MUTATION_EDGES})"
                    ));
                }
                match verb.as_str() {
                    "INSERT" => {
                        let (u, v, w) = parse_edge_token(tok, true)?;
                        batch.insertions.push((u, v, w));
                    }
                    "DELETE" => {
                        let (u, v, _) = parse_edge_token(tok, false)?;
                        batch.deletions.push((u, v));
                    }
                    // APPLY mixes signed ops: +u,v[,w] inserts, -u,v deletes.
                    _ => {
                        if let Some(t) = tok.strip_prefix('+') {
                            let (u, v, w) = parse_edge_token(t, true)?;
                            batch.insertions.push((u, v, w));
                        } else if let Some(t) = tok.strip_prefix('-') {
                            let (u, v, _) = parse_edge_token(t, false)?;
                            batch.deletions.push((u, v));
                        } else {
                            return Err(format!("APPLY ops must start with '+' or '-': {tok:?}"));
                        }
                    }
                }
            }
            if batch.is_empty() {
                return Err(format!("{verb} needs at least one edge"));
            }
            Ok(Request::Apply { graph, batch })
        }
        "BATCH" => {
            let rest = line
                .split_once(char::is_whitespace)
                .map(|x| x.1)
                .ok_or("BATCH needs at least one command")?;
            let mut inner = Vec::new();
            for piece in rest.split(';') {
                let piece = piece.trim();
                if piece.is_empty() {
                    continue;
                }
                if inner.len() >= MAX_BATCH_COMMANDS {
                    return Err(format!(
                        "BATCH too large (max {MAX_BATCH_COMMANDS} commands)"
                    ));
                }
                // A nested BATCH is refused with the innermost error its
                // pieces produce. Peeling the nested verbs in a loop finds
                // that error without one recursive call per level, which a
                // 64 KiB line of `BATCH BATCH …` would turn into a stack
                // overflow on the parsing thread.
                let (nested, piece) = peel_nested_batches(piece);
                let piece = piece.ok_or("BATCH needs at least one command")?;
                let req = batchable(parse_request(piece)?)?;
                if nested {
                    return Err("nested BATCH is not allowed".into());
                }
                inner.push(req);
            }
            if inner.is_empty() {
                return Err("BATCH needs at least one command".into());
            }
            Ok(Request::Batch(inner))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Per-graph portion of a `STATS` response (absent when the addressed
/// graph — or the default — is not resident).
#[derive(Clone, Debug)]
pub struct StatsGraph {
    pub name: String,
    pub engine: EngineStats,
    pub graph_n: usize,
    pub graph_m: usize,
    pub breakpoints: usize,
}

/// Durable-store portion of a `STATS` response (absent on servers
/// started without a store).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Graphs named by the store manifest.
    pub persisted: usize,
    /// Total snapshot bytes the manifest accounts for.
    pub bytes: u64,
    /// The audit log's next sequence number (monotonic across restarts).
    pub audit_seq: u64,
}

/// Reactor-level counters in a `STATS` response: connection and
/// admission-control state of the event loop serving this request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently registered with the reactor.
    pub connections: u64,
    /// Total connections ever accepted.
    pub accepted: u64,
    /// Requests parsed but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Admission-control bound on `queue_depth`; requests past it are
    /// answered with a shed response instead of queued.
    pub queue_limit: u64,
    /// Requests refused with `"op":"shed"` because the queue was full.
    pub shed_requests: u64,
    /// Connections refused at accept because the connection limit was
    /// reached.
    pub shed_connections: u64,
    /// Worker threads executing requests.
    pub workers: u64,
}

/// Fault and degraded-mode counters in a `STATS` response: everything
/// that went wrong (or was defended against) since boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests answered with a retryable `"reason":"deadline"` error
    /// because they sat past the configured deadline.
    pub deadline_expired: u64,
    /// Idle connections closed by the reactor's reaper.
    pub idle_reaped: u64,
    /// Times the worker watchdog newly flagged a stuck job.
    pub watchdog_trips: u64,
    /// Workers currently executing a job past the stuck threshold.
    pub stuck_workers: u64,
    /// Store snapshot/manifest I/O failures since boot.
    pub store_io_errors: u64,
    /// Audit-log append failures since boot.
    pub audit_failures: u64,
}

/// A response ready for JSON rendering. `graph` fields carry the
/// *canonical* graph name a query resolved to (the default graph's name
/// for unaddressed requests).
#[derive(Clone, Debug)]
pub enum Response {
    Pong,
    Error {
        message: String,
    },
    /// A transient failure the client should retry (with backoff):
    /// renders as `"op":"error"` with `"retryable":true` and a machine
    /// `reason` — `"deadline"` (request sat past its deadline),
    /// `"coalesce"` (every coalescing leader for the result panicked),
    /// `"io"` (a store write failed but left the previous durable state
    /// intact). Contrast [`Response::Error`], whose `retryable:false`
    /// marks a mistake retrying cannot fix.
    Retryable {
        message: String,
        reason: &'static str,
    },
    /// Admission control refused this request (or connection): the
    /// server is saturated. Distinct from `Error` so clients can retry
    /// with backoff instead of treating it as a protocol mistake.
    Shed {
        message: String,
    },
    Cluster {
        graph: String,
        params: QueryParams,
        outcome: ClusterOutcome,
        full: bool,
    },
    Probe {
        graph: String,
        vertex: u32,
        params: QueryParams,
        probe: VertexProbe,
    },
    Sweep {
        graph: String,
        best: SweepBest,
    },
    /// Acknowledgement for `INSERT`/`DELETE`/`APPLY`: what the mutation
    /// effectively did and the epoch now serving.
    Applied {
        graph: String,
        outcome: UpdateOutcome,
    },
    Stats {
        /// Boxed: the per-graph block dwarfs every other variant.
        graph: Option<Box<StatsGraph>>,
        registry: RegistryStats,
        /// Durable-store counters; `None` on storeless servers.
        store: Option<StoreStats>,
        reactor: ReactorStats,
        faults: FaultStats,
        session_requests: u64,
    },
    /// Acknowledgement for `LOAD`.
    Loaded {
        name: String,
        outcome: LoadOutcome,
        vertices: usize,
        edges: usize,
        bytes: usize,
        millis: u64,
    },
    /// Acknowledgement for `UNLOAD`.
    Unloaded {
        name: String,
        bytes_freed: usize,
    },
    /// Acknowledgement for `SAVE`.
    Saved {
        name: String,
        /// Snapshot file name inside the store.
        snapshot: String,
        bytes: u64,
        millis: u64,
    },
    /// The registry listing for `LIST`.
    List {
        default: String,
        graphs: Vec<GraphInfo>,
        /// Names in the store manifest (persisted working set), sorted;
        /// `None` on storeless servers. Graphs can be persisted but not
        /// resident (evicted since the save) and vice versa (never
        /// `SAVE`d), so the listing surfaces both sets.
        persisted: Option<Vec<String>>,
    },
    Batch(Vec<Response>),
    /// Acknowledgement for QUIT / SHUTDOWN.
    Bye {
        shutdown: bool,
    },
}

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Append `v` in decimal, writing the digits straight into `out` (a
/// `FULL` render writes one id per vertex, so a `String` per id adds up).
fn push_decimal(out: &mut String, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Render a label array: `UNCLUSTERED` becomes `-1`.
fn json_labels(c: &Clustering) -> String {
    let mut out = String::with_capacity(4 * c.labels.len() + 2);
    out.push('[');
    for (i, &l) in c.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if l == UNCLUSTERED {
            out.push_str("-1");
        } else {
            push_decimal(&mut out, l as usize);
        }
    }
    out.push(']');
    out
}

fn json_core_ids(c: &Clustering) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (v, &is_core) in c.core.iter().enumerate() {
        if is_core {
            if !first {
                out.push(',');
            }
            first = false;
            push_decimal(&mut out, v);
        }
    }
    out.push(']');
    out
}

impl Response {
    /// The answer to a clustering whose coalescing leader died before
    /// publishing — the same for `CLUSTER` alone and inside `BATCH`.
    pub(crate) fn abandoned() -> Response {
        Response::Retryable {
            message: "clustering was abandoned by a failed leader; retry".into(),
            reason: "coalesce",
        }
    }

    /// Serialize as a single JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        match self {
            Response::Pong => r#"{"ok":true,"op":"pong"}"#.to_string(),
            Response::Error { message } => format!(
                r#"{{"ok":false,"op":"error","retryable":false,"message":"{}"}}"#,
                json_escape(message)
            ),
            Response::Retryable { message, reason } => format!(
                r#"{{"ok":false,"op":"error","retryable":true,"reason":"{}","message":"{}"}}"#,
                json_escape(reason),
                json_escape(message)
            ),
            Response::Shed { message } => format!(
                r#"{{"ok":false,"op":"shed","message":"{}"}}"#,
                json_escape(message)
            ),
            Response::Cluster {
                graph,
                params,
                outcome,
                full,
            } => {
                let c = &outcome.clustering;
                let mut out = format!(
                    concat!(
                        r#"{{"ok":true,"op":"cluster","graph":"{}","mu":{},"eps":{},"eps_class":{},"#,
                        r#""eps_snapped":{},"epoch":{},"clusters":{},"clustered":{},"cached":{},"coalesced":{},"micros":{}"#
                    ),
                    json_escape(graph),
                    params.mu,
                    params.epsilon,
                    outcome.eps_class,
                    outcome.eps_snapped,
                    outcome.epoch,
                    c.num_clusters(),
                    c.num_clustered(),
                    outcome.cached,
                    outcome.coalesced,
                    outcome.micros,
                );
                if *full {
                    out.push_str(",\"labels\":");
                    out.push_str(&json_labels(c));
                    out.push_str(",\"cores\":");
                    out.push_str(&json_core_ids(c));
                }
                out.push('}');
                out
            }
            Response::Probe {
                graph,
                vertex,
                params,
                probe,
            } => format!(
                concat!(
                    r#"{{"ok":true,"op":"probe","graph":"{}","vertex":{},"mu":{},"eps":{},"#,
                    r#""eps_neighborhood":{},"is_core":{},"attach_core":{}}}"#
                ),
                json_escape(graph),
                vertex,
                params.mu,
                params.epsilon,
                probe.eps_neighborhood,
                probe.is_core,
                probe
                    .attach_core
                    .map_or("null".to_string(), |u| u.to_string()),
            ),
            Response::Applied { graph, outcome } => format!(
                concat!(
                    r#"{{"ok":true,"op":"apply","graph":"{}","epoch":{},"changed":{},"#,
                    r#""inserted":{},"deleted":{},"reweighted":{},"changed_edges":{},"#,
                    r#""cache_dropped":{},"cache_kept":{},"n":{},"m":{},"micros":{}}}"#
                ),
                json_escape(graph),
                outcome.epoch,
                outcome.changed,
                outcome.inserted,
                outcome.deleted,
                outcome.reweighted,
                outcome.changed_edges,
                outcome.cache_dropped,
                outcome.cache_kept,
                outcome.n,
                outcome.m,
                outcome.micros,
            ),
            Response::Sweep { graph, best } => format!(
                concat!(
                    r#"{{"ok":true,"op":"sweep","graph":"{}","mu":{},"eps":{},"modularity":{:.6},"#,
                    r#""clusters":{},"clustered":{}}}"#
                ),
                json_escape(graph),
                best.mu,
                best.epsilon,
                best.modularity,
                best.num_clusters,
                best.num_clustered,
            ),
            Response::Stats {
                graph,
                registry,
                store,
                reactor,
                faults,
                session_requests,
            } => {
                let mut out = String::from(r#"{"ok":true,"op":"stats""#);
                if let Some(g) = graph {
                    out.push_str(&format!(
                        concat!(
                            r#","graph":"{}","n":{},"m":{},"breakpoints":{},"#,
                            r#""cluster_requests":{},"cache_hits":{},"cache_misses":{},"#,
                            r#""coalesced_waits":{},"hit_rate":{:.4},"probe_requests":{},"#,
                            r#""compute_micros":{},"cache_len":{},"cache_capacity":{},"#,
                            r#""epoch":{},"updates_applied":{},"cache_invalidated":{},"cache_retained":{}"#
                        ),
                        json_escape(&g.name),
                        g.graph_n,
                        g.graph_m,
                        g.breakpoints,
                        g.engine.cluster_requests,
                        g.engine.cache_hits,
                        g.engine.cache_misses,
                        g.engine.coalesced_waits,
                        g.engine.hit_rate(),
                        g.engine.probe_requests,
                        g.engine.compute_micros,
                        g.engine.cache_len,
                        g.engine.cache_capacity,
                        g.engine.epoch,
                        g.engine.updates_applied,
                        g.engine.cache_invalidated,
                        g.engine.cache_retained,
                    ));
                }
                out.push_str(&format!(
                    concat!(
                        r#","registry":{{"graphs":{},"loading":{},"bytes_resident":{},"#,
                        r#""byte_budget":{},"loads":{},"coalesced_loads":{},"load_failures":{},"#,
                        r#""unloads":{},"evictions":{}}}"#
                    ),
                    registry.graphs,
                    registry.loading,
                    registry.bytes_resident,
                    registry
                        .byte_budget
                        .map_or("null".to_string(), |b| b.to_string()),
                    registry.loads,
                    registry.coalesced_loads,
                    registry.load_failures,
                    registry.unloads,
                    registry.evictions,
                ));
                if let Some(s) = store {
                    out.push_str(&format!(
                        r#","store":{{"persisted":{},"bytes":{},"audit_seq":{}}}"#,
                        s.persisted, s.bytes, s.audit_seq,
                    ));
                }
                out.push_str(&format!(
                    concat!(
                        r#","reactor":{{"connections":{},"accepted":{},"queue_depth":{},"#,
                        r#""queue_limit":{},"shed_requests":{},"shed_connections":{},"#,
                        r#""workers":{}}}"#
                    ),
                    reactor.connections,
                    reactor.accepted,
                    reactor.queue_depth,
                    reactor.queue_limit,
                    reactor.shed_requests,
                    reactor.shed_connections,
                    reactor.workers,
                ));
                out.push_str(&format!(
                    concat!(
                        r#","faults":{{"deadline_expired":{},"idle_reaped":{},"#,
                        r#""watchdog_trips":{},"stuck_workers":{},"store_io_errors":{},"#,
                        r#""audit_failures":{}}}"#
                    ),
                    faults.deadline_expired,
                    faults.idle_reaped,
                    faults.watchdog_trips,
                    faults.stuck_workers,
                    faults.store_io_errors,
                    faults.audit_failures,
                ));
                out.push_str(&format!(r#","session_requests":{session_requests}}}"#));
                out
            }
            Response::Loaded {
                name,
                outcome,
                vertices,
                edges,
                bytes,
                millis,
            } => format!(
                concat!(
                    r#"{{"ok":true,"op":"load","graph":"{}","status":"{}","n":{},"m":{},"#,
                    r#""bytes":{},"millis":{}}}"#
                ),
                json_escape(name),
                match outcome {
                    LoadOutcome::Loaded => "loaded",
                    LoadOutcome::AlreadyLoaded => "already_loaded",
                    LoadOutcome::Coalesced => "coalesced",
                },
                vertices,
                edges,
                bytes,
                millis,
            ),
            Response::Unloaded { name, bytes_freed } => format!(
                r#"{{"ok":true,"op":"unload","graph":"{}","bytes_freed":{}}}"#,
                json_escape(name),
                bytes_freed,
            ),
            Response::Saved {
                name,
                snapshot,
                bytes,
                millis,
            } => format!(
                r#"{{"ok":true,"op":"save","graph":"{}","snapshot":"{}","bytes":{},"millis":{}}}"#,
                json_escape(name),
                json_escape(snapshot),
                bytes,
                millis,
            ),
            Response::List {
                default,
                graphs,
                persisted,
            } => {
                let mut out = format!(
                    r#"{{"ok":true,"op":"list","default":"{}","graphs":["#,
                    json_escape(default)
                );
                for (i, g) in graphs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let on_disk = persisted
                        .as_ref()
                        .is_some_and(|p| p.iter().any(|n| n == &g.name));
                    out.push_str(&format!(
                        concat!(
                            r#"{{"name":"{}","n":{},"m":{},"bytes":{},"breakpoints":{},"#,
                            r#""default":{},"persisted":{}}}"#
                        ),
                        json_escape(&g.name),
                        g.vertices,
                        g.edges,
                        g.bytes,
                        g.breakpoints,
                        g.is_default,
                        on_disk,
                    ));
                }
                out.push(']');
                if let Some(p) = persisted {
                    out.push_str(",\"persisted\":[");
                    for (i, name) in p.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("\"{}\"", json_escape(name)));
                    }
                    out.push(']');
                }
                out.push('}');
                out
            }
            Response::Batch(results) => {
                let mut out = String::from(r#"{"ok":true,"op":"batch","results":["#);
                for (i, r) in results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&r.render_json());
                }
                out.push_str("]}");
                out
            }
            Response::Bye { shutdown } => {
                format!(r#"{{"ok":true,"op":"bye","shutdown":{shutdown}}}"#)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse_request("ping"), Ok(Request::Ping));
        assert_eq!(
            parse_request("  STATS  "),
            Ok(Request::Stats { graph: None })
        );
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(parse_request("list"), Ok(Request::List));
        assert_eq!(
            parse_request("CLUSTER 3 0.5"),
            Ok(Request::Cluster {
                graph: None,
                params: QueryParams::new(3, 0.5),
                full: false
            })
        );
        assert_eq!(
            parse_request("cluster 2 0.25 full"),
            Ok(Request::Cluster {
                graph: None,
                params: QueryParams::new(2, 0.25),
                full: true
            })
        );
        assert_eq!(
            parse_request("PROBE 17 4 0.6"),
            Ok(Request::Probe {
                graph: None,
                vertex: 17,
                params: QueryParams::new(4, 0.6)
            })
        );
        assert!(matches!(parse_request("SWEEP"), Ok(Request::Sweep { .. })));
    }

    #[test]
    fn parses_graph_addresses() {
        assert_eq!(
            parse_request("@web CLUSTER 3 0.5"),
            Ok(Request::Cluster {
                graph: Some("web".into()),
                params: QueryParams::new(3, 0.5),
                full: false
            })
        );
        assert_eq!(
            parse_request("@social-v2 stats"),
            Ok(Request::Stats {
                graph: Some("social-v2".into())
            })
        );
        assert!(matches!(
            parse_request("@g PROBE 1 2 0.5"),
            Ok(Request::Probe { graph: Some(_), .. })
        ));
        assert!(matches!(
            parse_request("@g SWEEP 0.1"),
            Ok(Request::Sweep { graph: Some(_), .. })
        ));
        // Only queries take an address.
        assert!(parse_request("@g PING").is_err());
        assert!(parse_request("@g LIST").is_err());
        assert!(parse_request("@g LOAD x y").is_err());
        assert!(parse_request("@g SHUTDOWN").is_err());
        // Bad addresses are rejected at parse time.
        assert!(parse_request("@ CLUSTER 3 0.5").is_err());
        assert!(parse_request("@bad;name CLUSTER 3 0.5").is_err());
        assert!(parse_request("@g").is_err());
    }

    #[test]
    fn parses_registry_commands() {
        assert_eq!(
            parse_request("LOAD web /data/web.pscidx"),
            Ok(Request::Load {
                name: "web".into(),
                path: "/data/web.pscidx".into(),
                cache: None,
            })
        );
        // Paths keep their internal spaces.
        assert_eq!(
            parse_request("load g /tmp/my graphs/a.bin"),
            Ok(Request::Load {
                name: "g".into(),
                path: "/tmp/my graphs/a.bin".into(),
                cache: None,
            })
        );
        assert_eq!(
            parse_request("UNLOAD web"),
            Ok(Request::Unload { name: "web".into() })
        );
        assert!(parse_request("LOAD").is_err());
        assert!(parse_request("LOAD web").is_err());
        assert!(parse_request("LOAD bad;name /x").is_err());
        assert!(parse_request("UNLOAD").is_err());
        assert!(parse_request("UNLOAD a b").is_err());
    }

    #[test]
    fn parses_load_cache_option_and_save() {
        assert_eq!(
            parse_request("LOAD web cache=512 /data/web.pscidx"),
            Ok(Request::Load {
                name: "web".into(),
                path: "/data/web.pscidx".into(),
                cache: Some(512),
            })
        );
        // The path remainder still keeps its spaces after an option.
        assert_eq!(
            parse_request("LOAD g CACHE=64 /tmp/my graphs/a.bin"),
            Ok(Request::Load {
                name: "g".into(),
                path: "/tmp/my graphs/a.bin".into(),
                cache: Some(64),
            })
        );
        assert!(parse_request("LOAD g CACHE=0 /x").is_err());
        assert!(parse_request("LOAD g CACHE=lots /x").is_err());
        assert!(
            parse_request("LOAD g CACHE=9").is_err(),
            "option but no path"
        );

        assert_eq!(parse_request("SAVE"), Ok(Request::Save { graph: None }));
        assert_eq!(
            parse_request("save web"),
            Ok(Request::Save {
                graph: Some("web".into())
            })
        );
        assert!(parse_request("SAVE bad;name").is_err());
        assert!(parse_request("SAVE a b").is_err());
        assert!(
            parse_request("@g SAVE").is_err(),
            "SAVE takes its name as an argument"
        );
        assert!(parse_request("BATCH SAVE ; PING").is_err());
    }

    #[test]
    fn parses_mutation_commands() {
        assert_eq!(
            parse_request("INSERT 0,1 2,3,1.5"),
            Ok(Request::Apply {
                graph: None,
                batch: BatchUpdate {
                    insertions: vec![(0, 1, 1.0), (2, 3, 1.5)],
                    deletions: vec![],
                },
            })
        );
        assert_eq!(
            parse_request("@web delete 4,5 6,7"),
            Ok(Request::Apply {
                graph: Some("web".into()),
                batch: BatchUpdate {
                    insertions: vec![],
                    deletions: vec![(4, 5), (6, 7)],
                },
            })
        );
        assert_eq!(
            parse_request("APPLY +0,1,2.5 -2,3 +4,5"),
            Ok(Request::Apply {
                graph: None,
                batch: BatchUpdate {
                    insertions: vec![(0, 1, 2.5), (4, 5, 1.0)],
                    deletions: vec![(2, 3)],
                },
            })
        );
    }

    #[test]
    fn rejects_malformed_mutations() {
        assert!(parse_request("INSERT").is_err(), "no edges");
        assert!(parse_request("DELETE").is_err());
        assert!(parse_request("APPLY").is_err());
        assert!(parse_request("INSERT 0").is_err(), "not a pair");
        assert!(parse_request("INSERT 0,1,2,3").is_err(), "too many parts");
        assert!(parse_request("INSERT 0,0").is_err(), "self-loop");
        assert!(parse_request("APPLY +1,1").is_err(), "self-loop");
        assert!(parse_request("INSERT a,b").is_err(), "non-numeric");
        assert!(parse_request("INSERT 0,1,-2").is_err(), "negative weight");
        assert!(parse_request("INSERT 0,1,nan").is_err(), "nan weight");
        assert!(
            parse_request("DELETE 0,1,2.0").is_err(),
            "deletions take no weight"
        );
        assert!(parse_request("APPLY -0,1,2.0").is_err());
        assert!(parse_request("APPLY 0,1").is_err(), "missing sign");
        assert!(parse_request("APPLY *0,1").is_err(), "bad sign");
        // Mutations never appear in a BATCH (batches are read-only).
        let err = parse_request("BATCH INSERT 0,1 ; PING").unwrap_err();
        assert!(err.contains("read-only"), "{err}");
        assert!(parse_request("BATCH PING ; APPLY -0,1").is_err());
        assert!(parse_request("BATCH DELETE 0,1").is_err());
        // The per-line edge cap rejects oversized mutation lines.
        let huge = format!(
            "DELETE {}",
            (0..=MAX_MUTATION_EDGES as u32)
                .map(|i| format!("{i},{}", i + 1))
                .collect::<Vec<_>>()
                .join(" ")
        );
        assert!(parse_request(&huge).unwrap_err().contains("too many edges"));
    }

    #[test]
    fn renders_apply_responses() {
        let r = Response::Applied {
            graph: "web".into(),
            outcome: UpdateOutcome {
                epoch: 3,
                changed: true,
                inserted: 2,
                deleted: 1,
                reweighted: 0,
                changed_edges: 9,
                cache_dropped: 4,
                cache_kept: 2,
                n: 100,
                m: 512,
                micros: 250,
            },
        };
        assert_eq!(
            r.render_json(),
            concat!(
                r#"{"ok":true,"op":"apply","graph":"web","epoch":3,"changed":true,"#,
                r#""inserted":2,"deleted":1,"reweighted":0,"changed_edges":9,"#,
                r#""cache_dropped":4,"cache_kept":2,"n":100,"m":512,"micros":250}"#
            )
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("CLUSTER").is_err());
        assert!(parse_request("CLUSTER x 0.5").is_err());
        assert!(parse_request("CLUSTER 3 0.5 EXTRA").is_err());
        // Domain validation happens at parse time via try_new.
        assert!(parse_request("CLUSTER 1 0.5").is_err());
        assert!(parse_request("CLUSTER 2 1.5").is_err());
        assert!(parse_request("PROBE 1 2").is_err());
    }

    #[test]
    fn parses_batches() {
        let req = parse_request("BATCH CLUSTER 2 0.3 ; CLUSTER 3 0.5 FULL; PROBE 0 2 0.4").unwrap();
        match req {
            Request::Batch(inner) => {
                assert_eq!(inner.len(), 3);
                assert!(matches!(inner[0], Request::Cluster { full: false, .. }));
                assert!(matches!(inner[1], Request::Cluster { full: true, .. }));
                assert!(matches!(inner[2], Request::Probe { vertex: 0, .. }));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert!(parse_request("BATCH").is_err());
        // Batch size is capped against untrusted clients.
        let huge = format!("BATCH {}", vec!["PING"; MAX_BATCH_COMMANDS + 1].join(" ; "));
        assert!(parse_request(&huge).unwrap_err().contains("too large"));
        let max = format!("BATCH {}", vec!["PING"; MAX_BATCH_COMMANDS].join(" ; "));
        assert!(parse_request(&max).is_ok());
        assert!(parse_request("BATCH ;;").is_err());
        assert!(parse_request("BATCH QUIT").is_err());
        assert!(parse_request("BATCH BATCH PING").is_err());
        // Registry mutation is not allowed inside a batch; addressed
        // queries are.
        assert!(parse_request("BATCH LOAD g /x ; PING").is_err());
        assert!(parse_request("BATCH UNLOAD g").is_err());
        let mixed = parse_request("BATCH @web CLUSTER 2 0.3 ; CLUSTER 3 0.5 ; LIST").unwrap();
        match mixed {
            Request::Batch(inner) => {
                assert!(matches!(&inner[0], Request::Cluster { graph: Some(g), .. } if g == "web"));
                assert!(matches!(&inner[1], Request::Cluster { graph: None, .. }));
                assert!(matches!(&inner[2], Request::List));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn nested_batches_report_the_innermost_error_at_any_depth() {
        let err = |line: &str| parse_request(line).unwrap_err();
        assert_eq!(err("BATCH BATCH PING"), "nested BATCH is not allowed");
        assert_eq!(
            err("BATCH PING ; batch  BATCH LIST"),
            "nested BATCH is not allowed"
        );
        assert_eq!(err("BATCH BATCH"), "BATCH needs at least one command");
        assert_eq!(err("BATCH BATCH BATCH FOO"), r#"unknown command "FOO""#);
        assert_eq!(
            err("BATCH BATCH QUIT"),
            "QUIT/SHUTDOWN cannot appear in a BATCH"
        );
        assert_eq!(
            err("BATCH BATCH @g BATCH PING"),
            "BATCH does not take a @graph address"
        );
        // A whole request line of nested verbs parses in constant stack
        // depth: here on a thread with a 64 KiB stack.
        let deep = format!("{}PING", "BATCH ".repeat(crate::conn::MAX_LINE_BYTES / 6));
        let message = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || parse_request(&deep).unwrap_err())
            .expect("spawn")
            .join()
            .expect("parse without overflowing");
        assert_eq!(message, "nested BATCH is not allowed");
    }

    #[test]
    fn json_rendering_is_well_formed() {
        assert_eq!(Response::Pong.render_json(), r#"{"ok":true,"op":"pong"}"#);
        let err = Response::Error {
            message: "bad \"quote\"\nline".into(),
        };
        assert_eq!(
            err.render_json(),
            r#"{"ok":false,"op":"error","retryable":false,"message":"bad \"quote\"\nline"}"#
        );
        let retry = Response::Retryable {
            message: "request deadline (300ms) expired in queue".into(),
            reason: "deadline",
        };
        assert_eq!(
            retry.render_json(),
            concat!(
                r#"{"ok":false,"op":"error","retryable":true,"reason":"deadline","#,
                r#""message":"request deadline (300ms) expired in queue"}"#
            )
        );
        let c = Clustering::new(vec![0, 0, UNCLUSTERED, 3], vec![true, false, false, true]);
        assert_eq!(json_labels(&c), "[0,0,-1,3]");
        assert_eq!(json_core_ids(&c), "[0,3]");
    }

    #[test]
    fn decimal_digits_match_display() {
        let mut out = String::new();
        let values = [0usize, 7, 9, 10, 99, 100, 4_294_967_294, usize::MAX];
        for v in values {
            push_decimal(&mut out, v);
            out.push(',');
        }
        let want: String = values.iter().map(|v| format!("{v},")).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn renders_shed_responses_with_their_own_op() {
        let shed = Response::Shed {
            message: "server overloaded: pending queue at limit (1024)".into(),
        };
        assert_eq!(
            shed.render_json(),
            r#"{"ok":false,"op":"shed","message":"server overloaded: pending queue at limit (1024)"}"#
        );
    }

    #[test]
    fn stats_render_the_reactor_block() {
        let r = Response::Stats {
            graph: None,
            registry: crate::registry::RegistryStats::default(),
            store: None,
            reactor: ReactorStats {
                connections: 11,
                accepted: 42,
                queue_depth: 3,
                queue_limit: 1024,
                shed_requests: 7,
                shed_connections: 2,
                workers: 4,
            },
            faults: FaultStats {
                deadline_expired: 6,
                idle_reaped: 5,
                watchdog_trips: 1,
                stuck_workers: 2,
                store_io_errors: 3,
                audit_failures: 4,
            },
            session_requests: 5,
        };
        let json = r.render_json();
        assert!(
            json.contains(concat!(
                r#""reactor":{"connections":11,"accepted":42,"queue_depth":3,"#,
                r#""queue_limit":1024,"shed_requests":7,"shed_connections":2,"workers":4}"#
            )),
            "{json}"
        );
        assert!(
            json.contains(concat!(
                r#""faults":{"deadline_expired":6,"idle_reaped":5,"watchdog_trips":1,"#,
                r#""stuck_workers":2,"store_io_errors":3,"audit_failures":4}"#
            )),
            "{json}"
        );
        assert!(json.ends_with(r#","session_requests":5}"#), "{json}");
        assert!(
            !json.contains(r#""sessions":"#),
            "old field must be gone: {json}"
        );
    }
}
