//! The event loop behind [`serve`](crate::server::serve): one reactor
//! thread multiplexes every connection over [`netpoll`]'s readiness
//! poller, and a small fixed worker pool executes parsed requests
//! against the shared [`GraphRegistry`](crate::registry::GraphRegistry).
//!
//! The thread-per-connection server this replaced held 10k sessions
//! with 10k blocked threads (80 MiB of stacks before a single request).
//! Here the total thread count is `1 + workers`, independent of the
//! connection count; an idle connection costs one slab slot and one
//! kernel epoll registration.
//!
//! ## Division of labor
//!
//! - **Reactor thread** (`parscan-serve-reactor`): accepts, reads,
//!   frames, writes, enforces admission control, and parses each request
//!   line once. It answers on its own thread only the requests whose
//!   cost does not grow with the graph
//!   ([`answer_now`](crate::server::answer_now)): `PING`, a non-`FULL`
//!   `CLUSTER` whose key is already cached, and a line that fails to
//!   parse. Sending those across two thread handoffs cost more than
//!   answering them. Everything else goes to a worker.
//! - **Workers** (`parscan-serve-worker-N`): pop parsed requests from a
//!   bounded queue, hand them to the server's one request dispatcher,
//!   and push the rendered response onto the completion queue, waking
//!   the reactor via its pipe-based [`Waker`]. Coalesced
//!   cluster/load computations hand their [`Responder`] to an in-flight
//!   leader instead of blocking a worker
//!   ([`QueryEngine::cluster_deferred`](crate::engine::QueryEngine::cluster_deferred),
//!   [`GraphRegistry::load`](crate::registry::GraphRegistry::load)).
//!
//! ## Admission control
//!
//! Three bounds shed load instead of queuing it unboundedly:
//! connections past [`ServeConfig::max_connections`] are refused at
//! accept with a `"op":"shed"` line; requests arriving while the worker
//! queue holds [`ServeConfig::queue_limit`] entries (or while every
//! worker is stuck) are answered with the same typed response without
//! ever reaching a worker — these checks run before the reactor answers
//! anything itself, so a request is shed on the same terms whichever
//! thread would have answered it; and a
//! connection buffering more than [`MAX_OUTBOUND_BYTES`] of unread
//! responses is killed (the peer stopped reading).
//!
//! ## No lost responses
//!
//! Every submitted request produces exactly one completion: the
//! [`Responder`] synthesizes an internal-error response on drop if the
//! handler never sent one, so a panicking worker or an abandoned
//! deferred computation cannot wedge its connection in the busy state.
//! Completions carry a [`ConnId`] generation so a response for a
//! connection that died mid-request is dropped, never delivered to the
//! slot's next tenant.

use crate::conn::{ConnId, Connection, FillOutcome, InboxItem, MAX_LINE_BYTES};
use crate::protocol::{parse_request, Request, Response};
use crate::server::{answer_now, dispatch, Control, ServerShared};
use netpoll::{Event, Interest, Poller, Waker};
use parscan_store::IndexStore;
use std::io::{ErrorKind, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Parsed-but-unsubmitted requests buffered per connection before the
/// reactor stops reading from it (pipelining backpressure — the TCP
/// window, not server memory, absorbs the excess).
const MAX_PIPELINE: usize = 64;

/// Unread response bytes buffered per connection before it is killed as
/// a non-reading peer.
const MAX_OUTBOUND_BYTES: usize = 8 << 20;

/// Configuration for [`serve`](crate::server::serve): the durable store,
/// if any, plus reactor and admission-control tuning. The defaults hold
/// 10k+ idle sessions in a few threads while bounding every queue a
/// hostile client could grow.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The durable store backing `SAVE`, the audit log, and the
    /// persisted working set in `LIST`/`STATS`. `None` (the default)
    /// serves without persistence.
    pub store: Option<Arc<IndexStore>>,
    /// Request-executing worker threads; `0` picks from the machine's
    /// available parallelism (clamped to 2..=8).
    pub workers: usize,
    /// Connections held at once; accepts past this are shed.
    pub max_connections: usize,
    /// Parsed requests waiting for a worker; requests past this are
    /// shed with a typed `"op":"shed"` response.
    pub queue_limit: usize,
    /// Per-request deadline. A request that has not completed this long
    /// after submission is answered with a retryable
    /// `"reason":"deadline"` error; if a worker picks it up after
    /// expiry it is not executed at all. `None` (the default) disables
    /// deadlines.
    pub deadline: Option<Duration>,
    /// Reap connections that have been completely idle (no in-flight
    /// request, no buffered input or output) this long. `None` (the
    /// default) keeps idle sessions forever.
    pub idle_timeout: Option<Duration>,
    /// The worker watchdog flags a job still executing after this long
    /// as *stuck*: it is surfaced in `STATS` (`watchdog_trips`,
    /// `stuck_workers`), and while every worker is stuck new requests
    /// are shed instead of queued behind the wedge.
    pub watchdog_stuck_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            store: None,
            workers: 0,
            max_connections: 16_384,
            queue_limit: 1024,
            deadline: None,
            idle_timeout: None,
            // Long enough that legitimate heavy work (a multi-second
            // LOAD of a big snapshot) never trips it by default.
            watchdog_stuck_after: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }
}

/// Counters surfaced through `STATS` (plus the configured bounds they
/// run against).
pub(crate) struct ReactorMetrics {
    pub connections: AtomicU64,
    pub accepted: AtomicU64,
    pub shed_requests: AtomicU64,
    pub shed_connections: AtomicU64,
    pub queue_limit: u64,
    pub workers: u64,
    /// Requests answered with the retryable `"reason":"deadline"` error.
    pub deadline_expired: AtomicU64,
    /// Idle connections closed by the reaper.
    pub idle_reaped: AtomicU64,
    /// Times the watchdog newly flagged a stuck job (one per episode,
    /// not per sweep).
    pub watchdog_trips: AtomicU64,
    /// Gauge: workers currently executing past the stuck threshold.
    pub stuck_workers: AtomicU64,
}

impl ReactorMetrics {
    pub fn new(queue_limit: usize, workers: usize) -> ReactorMetrics {
        ReactorMetrics {
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            queue_limit: queue_limit as u64,
            workers: workers as u64,
            deadline_expired: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            stuck_workers: AtomicU64::new(0),
        }
    }
}

/// One parsed request bound for the worker pool.
pub(crate) struct Job {
    pub conn: ConnId,
    pub request: Request,
    /// The connection's request counter at submission (the protocol's
    /// `session_requests`). Also the per-connection sequence number that
    /// routes this job's completion: a completion at or below the
    /// connection's `completed` watermark is stale and dropped.
    pub requests: u64,
    /// Absolute expiry ([`ServeConfig::deadline`] after submission);
    /// a worker popping the job after this refuses to execute it.
    pub deadline: Option<Instant>,
}

struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

/// The reactor→worker queue. Its depth is the `queue_depth` STATS
/// gauge, kept in an atomic so the stats path never takes the queue
/// lock. The reactor is its only producer and sheds instead of pushing
/// while the depth is at [`ServeConfig::queue_limit`]; workers only
/// shrink it, so the depth the reactor reads is never below the true
/// length and the queue never grows past the limit.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: AtomicU64,
}

impl JobQueue {
    pub fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            depth: AtomicU64::new(0),
        }
    }

    /// Queue `job`; `false` once the queue is closed (shutting down: the
    /// request is dropped silently).
    pub fn push(&self, job: Job) -> bool {
        let mut state = crate::lock_mutex(&self.state);
        if state.closed {
            return false;
        }
        state.jobs.push_back(job);
        self.depth.store(state.jobs.len() as u64, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Blocking pop; `None` once the queue is closed. Jobs queued but
    /// unstarted at close are dropped — their connections are being torn
    /// down anyway.
    fn pop(&self) -> Option<Job> {
        let mut state = crate::lock_mutex(&self.state);
        loop {
            if state.closed {
                return None;
            }
            if let Some(job) = state.jobs.pop_front() {
                self.depth.store(state.jobs.len() as u64, Ordering::Relaxed);
                return Some(job);
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = crate::lock_mutex(&self.state);
        state.closed = true;
        state.jobs.clear();
        self.depth.store(0, Ordering::Relaxed);
        drop(state);
        self.ready.notify_all();
    }

    /// Remove one queued job by its (connection, sequence) identity.
    /// The deadline sweep uses this after force-answering a request so
    /// a worker never wastes time executing work whose response has
    /// already been sent; `false` means a worker already has it.
    fn remove(&self, conn: ConnId, requests: u64) -> bool {
        let mut state = crate::lock_mutex(&self.state);
        let before = state.jobs.len();
        state
            .jobs
            .retain(|j| !(j.conn == conn && j.requests == requests));
        let removed = state.jobs.len() != before;
        self.depth.store(state.jobs.len() as u64, Ordering::Relaxed);
        removed
    }

    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

/// A finished request's response, routed back to its connection.
pub(crate) struct Completion {
    pub conn: ConnId,
    /// The request's per-connection sequence number ([`Job::requests`]).
    /// The reactor delivers a completion only if it is *above* the
    /// connection's `completed` watermark — a worker finishing a request
    /// the deadline sweep already answered arrives below it and is
    /// dropped, so the client never sees two responses for one request.
    pub requests: u64,
    /// The rendered response line, newline included.
    pub payload: Vec<u8>,
    pub control: Control,
}

/// One response as its wire line, newline included.
fn wire_line(response: &Response) -> Vec<u8> {
    let mut line = response.render_json().into_bytes();
    line.push(b'\n');
    line
}

/// Worker→reactor completion queue plus the waker that interrupts the
/// reactor's poll. Shared with every deferred-computation callback, so
/// it must outlive the reactor thread; a wake after teardown writes
/// into a pipe nobody reads, which is harmless.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, conn: ConnId, requests: u64, response: &Response, control: Control) {
        let payload = wire_line(response);
        crate::lock_mutex(&self.queue).push(Completion {
            conn,
            requests,
            payload,
            control,
        });
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *crate::lock_mutex(&self.queue))
    }

    pub fn wake(&self) {
        self.waker.wake();
    }
}

/// The single-use reply channel handed to a request handler. Dropping
/// it without calling [`Responder::send`] delivers a synthesized
/// internal error instead — the structural guarantee that every
/// submitted request completes, panics and abandoned computations
/// included.
pub(crate) struct Responder {
    inner: Option<(Arc<Completions>, ConnId, u64)>,
}

impl Responder {
    fn new(completions: Arc<Completions>, conn: ConnId, requests: u64) -> Responder {
        Responder {
            inner: Some((completions, conn, requests)),
        }
    }

    pub fn send(mut self, response: &Response, control: Control) {
        if let Some((completions, conn, requests)) = self.inner.take() {
            completions.push(conn, requests, response, control);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some((completions, conn, requests)) = self.inner.take() {
            completions.push(
                conn,
                requests,
                &Response::Error {
                    message: "internal error: request handler produced no response".into(),
                },
                Control::Continue,
            );
        }
    }
}

/// The per-worker start-time board the watchdog reads. Workers publish
/// "I started a job at T" / "I'm idle" with one relaxed store; the
/// reactor's sweep compares against the shared epoch to find jobs stuck
/// past the threshold.
pub(crate) struct Watchdog {
    epoch: Instant,
    /// Per worker: 0 = idle, otherwise (ms since `epoch`) + 1 at the
    /// moment the current job started.
    starts: Vec<AtomicU64>,
}

impl Watchdog {
    fn new(workers: usize) -> Watchdog {
        Watchdog {
            epoch: Instant::now(),
            starts: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn begin(&self, worker: usize) {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        self.starts[worker].store(now_ms + 1, Ordering::Relaxed);
    }

    fn end(&self, worker: usize) {
        self.starts[worker].store(0, Ordering::Relaxed);
    }
}

fn worker_loop(
    index: usize,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
    shared: Arc<ServerShared>,
    watchdog: Arc<Watchdog>,
) {
    while let Some(job) = jobs.pop() {
        let responder = Responder::new(Arc::clone(&completions), job.conn, job.requests);
        // A request that expired while queued is answered, not executed:
        // the client has (or is about to) run out of patience, and doing
        // the work anyway steals this worker from live requests.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            responder.send(
                &Response::Retryable {
                    message: "request deadline expired while queued; not executed".into(),
                    reason: "deadline",
                },
                Control::Continue,
            );
            continue;
        }
        watchdog.begin(index);
        // A panicking handler must not take the worker down with it; the
        // unwinding Responder converts the panic into an error response.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(
                &shared,
                job.request,
                job.requests,
                move |response, control| responder.send(&response, control),
            )
        }));
        watchdog.end(index);
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// How long a connection with buffered output gets to drain it after
/// shutdown is requested.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_millis(500);

pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<ServerShared>,
    config: ServeConfig,
    /// Connection slab: `slots[i]` answers poll token `TOKEN_BASE + i`.
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots emptied during the current loop iteration. They join `free`
    /// only at the end of the iteration, so a token freed early in an
    /// event batch cannot be reissued to a new connection that a stale
    /// event later in the same batch would then touch.
    pending_free: Vec<usize>,
    live: usize,
    next_generation: u64,
    completions: Arc<Completions>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Arc<Watchdog>,
    /// Per worker: the `Watchdog::starts` value already counted as a
    /// trip, so one stuck episode increments `watchdog_trips` once no
    /// matter how many sweeps observe it.
    last_tripped: Vec<u64>,
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        shared: Arc<ServerShared>,
        config: ServeConfig,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        });
        let worker_count = shared.metrics.workers as usize;
        let watchdog = Arc::new(Watchdog::new(worker_count));
        let mut workers = Vec::new();
        for i in 0..worker_count {
            let jobs = Arc::clone(&shared.jobs);
            let completions = Arc::clone(&completions);
            let shared = Arc::clone(&shared);
            let watchdog = Arc::clone(&watchdog);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("parscan-serve-worker-{i}"))
                    .spawn(move || worker_loop(i, jobs, completions, shared, watchdog))?,
            );
        }
        Ok(Reactor {
            poller,
            listener,
            shared,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            live: 0,
            next_generation: 0,
            completions,
            workers,
            watchdog,
            last_tripped: vec![0; worker_count],
        })
    }

    pub fn completions(&self) -> Arc<Completions> {
        Arc::clone(&self.completions)
    }

    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            // The timeout doubles as the tick for the shutdown flag and
            // the Draining deadline sweep.
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                break;
            }
            for i in 0..events.len() {
                let ev = events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {} // drained once per iteration below
                    token => self.conn_event((token - TOKEN_BASE) as usize, ev, &mut scratch),
                }
            }
            self.drain_waker();
            self.drain_completions();
            self.sweep_deadlines();
            self.free.append(&mut self.pending_free);
        }
        self.shutdown_drain();
    }

    fn drain_waker(&self) {
        // Level-triggered poller: leave the pipe empty or it reports
        // readable forever.
        self.completions.waker.drain();
    }

    fn conn_mut(&mut self, slot: usize) -> Option<&mut Connection> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // EMFILE and friends: retry after the next poll tick
                // instead of spinning on the error.
                Err(_) => return,
            };
            self.shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.live >= self.config.max_connections {
                self.shared
                    .metrics
                    .shed_connections
                    .fetch_add(1, Ordering::Relaxed);
                let shed = Response::Shed {
                    message: format!("connection limit reached ({})", self.config.max_connections),
                };
                let payload = wire_line(&shed);
                // Best-effort single write: a fresh socket's send buffer
                // is empty, so this lands unless the peer already died.
                let mut stream = stream;
                let _ = stream.write(&payload);
                continue; // drop closes it
            }
            let generation = self.next_generation;
            self.next_generation += 1;
            let conn = Connection::new(stream, generation);
            let fd = conn.stream.as_raw_fd();
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot] = Some(conn);
                    slot
                }
                None => {
                    self.slots.push(Some(conn));
                    self.slots.len() - 1
                }
            };
            if self
                .poller
                .register(fd, TOKEN_BASE + slot as u64, Interest::READABLE)
                .is_err()
            {
                // Never polled, so no stale event can reference the slot:
                // it may return to the free list immediately.
                self.slots[slot] = None;
                self.free.push(slot);
                continue;
            }
            self.live += 1;
            self.shared
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn conn_event(&mut self, slot: usize, ev: Event, scratch: &mut [u8]) {
        let mut dead = false;
        {
            // A stale event for a slot freed earlier in this batch (or a
            // spurious one) resolves to no connection and is ignored.
            let Some(conn) = self.conn_mut(slot) else {
                return;
            };
            if ev.readable || ev.hangup || ev.error {
                match conn.fill(scratch, MAX_PIPELINE) {
                    FillOutcome::Open => {}
                    FillOutcome::Eof => conn.peer_eof = true,
                    FillOutcome::Err => dead = true,
                }
            }
            if !dead && ev.writable && conn.try_flush().is_err() {
                dead = true;
            }
        }
        if dead {
            self.close(slot);
            return;
        }
        self.pump(slot);
    }

    /// Answer or submit inbox items while the connection is idle, then
    /// flush and settle interest. At most one request per connection is
    /// in flight at a time, and a request is answered on this thread only
    /// while none is; an in-flight request's completion re-enters here to
    /// take the next — which is what makes pipelined responses impossible
    /// to reorder or misattribute.
    fn pump(&mut self, slot: usize) {
        loop {
            let item = {
                let Some(conn) = self.conn_mut(slot) else {
                    return;
                };
                if conn.state != crate::conn::ConnState::Open || conn.busy {
                    None
                } else {
                    conn.inbox.pop_front()
                }
            };
            match item {
                None => break,
                Some(InboxItem::Oversized) => {
                    // Matches the former blocking server's bound, message
                    // included: reject, then drain briefly so the error
                    // outruns the FIN.
                    let response = Response::Error {
                        message: format!("request exceeds {MAX_LINE_BYTES} bytes"),
                    };
                    if !self.respond(slot, &response) {
                        return;
                    }
                    self.conn_mut(slot).expect("checked above").start_draining();
                    break;
                }
                Some(InboxItem::Line(line)) => {
                    // Watchdog saturation: when every worker is wedged
                    // past the stuck threshold, queuing is a lie — the
                    // queue only drains if a wedge clears. Shed with the
                    // same typed response as a full queue.
                    let stuck = self.shared.metrics.stuck_workers.load(Ordering::Relaxed);
                    if stuck >= self.shared.metrics.workers && self.shared.metrics.workers > 0 {
                        let message = format!(
                            "server overloaded: all {} workers stuck past the watchdog threshold",
                            self.shared.metrics.workers
                        );
                        if !self.shed(slot, message) {
                            return;
                        }
                        continue;
                    }
                    let (id, requests) = {
                        let conn = self.conn_mut(slot).expect("checked above");
                        conn.requests += 1;
                        (
                            ConnId {
                                slot,
                                generation: conn.generation,
                            },
                            conn.requests,
                        )
                    };
                    // Shed at submission: the connection is not busy, so
                    // every prior response is already queued and ordering
                    // holds. Keep popping — pipelined followers shed too.
                    if self.shared.jobs.depth() >= self.shared.metrics.queue_limit {
                        let message = format!(
                            "server overloaded: pending request queue at limit ({})",
                            self.config.queue_limit
                        );
                        if !self.shed(slot, message) {
                            return;
                        }
                        continue;
                    }
                    let request = match parse_request(&line) {
                        Ok(request) => request,
                        Err(message) => {
                            if !self.respond(slot, &Response::Error { message }) {
                                return;
                            }
                            continue;
                        }
                    };
                    if let Some(response) = answer_now(&self.shared, &request) {
                        if !self.respond(slot, &response) {
                            return;
                        }
                        continue;
                    }
                    let queued = self.shared.jobs.push(Job {
                        conn: id,
                        request,
                        requests,
                        deadline: self.config.deadline.map(|d| Instant::now() + d),
                    });
                    if queued {
                        let conn = self.conn_mut(slot).expect("checked above");
                        conn.busy = true;
                        conn.inflight_since = Some(Instant::now());
                    }
                    break;
                }
            }
        }
        self.settle(slot);
    }

    /// Queue `response` on an idle connection as the answer to its
    /// newest request. `false` means the connection was closed because
    /// its peer stopped reading.
    fn respond(&mut self, slot: usize, response: &Response) -> bool {
        let payload = wire_line(response);
        let queued = self
            .conn_mut(slot)
            .expect("pump checked the slot")
            .queue_response(&payload, MAX_OUTBOUND_BYTES);
        if !queued {
            self.close(slot);
        }
        queued
    }

    /// Answer the connection's newest request with a typed shed.
    fn shed(&mut self, slot: usize, message: String) -> bool {
        self.shared
            .metrics
            .shed_requests
            .fetch_add(1, Ordering::Relaxed);
        self.respond(slot, &Response::Shed { message })
    }

    /// Flush opportunistically, close if finished, otherwise bring the
    /// poller's interest in line with the connection's state.
    fn settle(&mut self, slot: usize) {
        let now = Instant::now();
        let mut dead = false;
        let mut desired = Interest::NONE;
        {
            let Some(conn) = self.conn_mut(slot) else {
                return;
            };
            if (conn.has_output() && conn.try_flush().is_err()) || conn.ready_to_close(now) {
                dead = true;
            } else {
                desired = conn.desired_interest(MAX_PIPELINE);
            }
        }
        if dead {
            self.close(slot);
            return;
        }
        let (fd, changed) = {
            let conn = self.conn_mut(slot).expect("checked above");
            if conn.registered == desired {
                (0, false)
            } else {
                conn.registered = desired;
                (conn.stream.as_raw_fd(), true)
            }
        };
        if changed
            && self
                .poller
                .reregister(fd, TOKEN_BASE + slot as u64, desired)
                .is_err()
        {
            self.close(slot);
        }
    }

    fn drain_completions(&mut self) {
        for completion in self.completions.drain() {
            let Completion {
                conn: id,
                requests,
                payload,
                control,
            } = completion;
            let queued = {
                let Some(conn) = self.conn_mut(id.slot) else {
                    continue;
                };
                if conn.generation != id.generation {
                    // The request's connection died; this response
                    // belongs to nobody. Dropping it here is what keeps a
                    // reused slot from receiving a predecessor's reply.
                    continue;
                }
                if requests <= conn.completed {
                    // Already answered — the deadline sweep sent the
                    // retryable error and advanced the watermark. The
                    // worker's late result is dropped, not delivered as
                    // a duplicate. The connection is *not* marked idle:
                    // its busy flag now belongs to a newer request.
                    continue;
                }
                conn.completed = requests;
                conn.busy = false;
                conn.inflight_since = None;
                conn.last_activity = Instant::now();
                let queued = conn.queue_response(&payload, MAX_OUTBOUND_BYTES);
                if queued && !matches!(control, Control::Continue) {
                    conn.start_closing();
                }
                queued
            };
            if !queued {
                self.close(id.slot);
                continue;
            }
            if matches!(control, Control::ShutdownServer) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            match control {
                Control::Continue => self.pump(id.slot),
                _ => self.settle(id.slot),
            }
        }
    }

    /// Everything time-driven that the event flow can't deliver, run
    /// once per poll tick (≤100ms): the worker watchdog, request
    /// deadlines, the idle reaper, Draining connections whose grace
    /// expired, and any straggler the event-driven paths already made
    /// closeable.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        self.sweep_watchdog(now);
        if self.config.deadline.is_some() {
            self.sweep_request_deadlines(now);
        }
        if let Some(idle) = self.config.idle_timeout {
            self.sweep_idle(now, idle);
        }
        let mut doomed = Vec::new();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(conn) = entry {
                if !conn.busy && conn.ready_to_close(now) {
                    doomed.push(slot);
                }
            }
        }
        for slot in doomed {
            self.close(slot);
        }
    }

    /// Update the stuck-worker gauge and count newly stuck episodes.
    fn sweep_watchdog(&mut self, now: Instant) {
        let threshold_ms = self.config.watchdog_stuck_after.as_millis() as u64;
        let now_ms = now.duration_since(self.watchdog.epoch).as_millis() as u64;
        let mut stuck = 0u64;
        for (i, start) in self.watchdog.starts.iter().enumerate() {
            let v = start.load(Ordering::Relaxed);
            if v == 0 || now_ms.saturating_sub(v - 1) < threshold_ms {
                continue;
            }
            stuck += 1;
            if self.last_tripped[i] != v {
                self.last_tripped[i] = v;
                self.shared
                    .metrics
                    .watchdog_trips
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.shared
            .metrics
            .stuck_workers
            .store(stuck, Ordering::Relaxed);
    }

    /// Force-complete every in-flight request older than the deadline
    /// with the retryable `"reason":"deadline"` error. The request's
    /// eventual worker completion (if any) arrives below the `completed`
    /// watermark and is dropped; if the job never left the queue it is
    /// removed outright so no worker wastes time on it.
    fn sweep_request_deadlines(&mut self, now: Instant) {
        let deadline = self.config.deadline.expect("checked by caller");
        let mut expired = Vec::new();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(conn) = entry {
                if conn.busy
                    && conn
                        .inflight_since
                        .is_some_and(|t| now.duration_since(t) >= deadline)
                {
                    expired.push(slot);
                }
            }
        }
        for slot in expired {
            let response = Response::Retryable {
                message: format!(
                    "request exceeded the {}ms deadline; any late result is discarded",
                    deadline.as_millis()
                ),
                reason: "deadline",
            };
            let payload = wire_line(&response);
            let (id, requests, queued) = {
                let Some(conn) = self.conn_mut(slot) else {
                    continue;
                };
                let id = ConnId {
                    slot,
                    generation: conn.generation,
                };
                let requests = conn.requests;
                conn.completed = requests;
                conn.busy = false;
                conn.inflight_since = None;
                conn.last_activity = now;
                (
                    id,
                    requests,
                    conn.queue_response(&payload, MAX_OUTBOUND_BYTES),
                )
            };
            self.shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            // Still queued? Unqueue it — answered is answered.
            let _ = self.shared.jobs.remove(id, requests);
            if !queued {
                self.close(slot);
                continue;
            }
            // The connection is serviceable again: submit its next
            // pipelined request, if any.
            self.pump(slot);
        }
    }

    /// Close connections with nothing pending that have been quiet past
    /// the idle timeout. Coarse by design: the poll tick is the timer
    /// wheel, so reaping lags the timeout by at most one tick.
    fn sweep_idle(&mut self, now: Instant, idle: Duration) {
        let mut idlers = Vec::new();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(conn) = entry {
                if conn.state == crate::conn::ConnState::Open
                    && !conn.busy
                    && conn.inbox.is_empty()
                    && !conn.has_output()
                    && now.duration_since(conn.last_activity) >= idle
                {
                    idlers.push(slot);
                }
            }
        }
        for slot in idlers {
            self.shared
                .metrics
                .idle_reaped
                .fetch_add(1, Ordering::Relaxed);
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.live -= 1;
        self.shared
            .metrics
            .connections
            .fetch_sub(1, Ordering::Relaxed);
        self.pending_free.push(slot);
        // `conn` drops here, closing the socket.
    }

    /// Orderly teardown: stop accepting, let the currently-executing
    /// request finish (dropping queued-unstarted ones), deliver its
    /// completion, give buffered responses a bounded grace to flush,
    /// close everything, and snapshot dirty graphs.
    fn shutdown_drain(mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.shared.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.drain_completions();
        let deadline = Instant::now() + SHUTDOWN_FLUSH_GRACE;
        loop {
            let mut pending = false;
            let mut failed = Vec::new();
            for (slot, entry) in self.slots.iter_mut().enumerate() {
                if let Some(conn) = entry.as_mut() {
                    match conn.try_flush() {
                        Ok(drained) => pending |= !drained,
                        Err(_) => failed.push(slot), // peer gone
                    }
                }
            }
            for slot in failed {
                self.close(slot);
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for slot in 0..self.slots.len() {
            self.close(slot);
        }
        // With every connection closed and every worker joined, no more
        // mutations can arrive: persist what they changed.
        crate::server::autosave_dirty(&self.shared);
    }
}
