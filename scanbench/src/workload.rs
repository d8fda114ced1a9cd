//! The three scripted workloads. Every request's hit/miss class is
//! fixed by the script before it is sent, and every answer is checked
//! against an in-process reference computed on the same input.

use crate::client::{Conn, Server};
use crate::gen::{Fingerprint, Input};
use crate::json::Json;
use crate::trace::Tracer;
use parscan_core::{apply_batch_diff, BatchUpdate, BorderAssignment, QueryParams, ScanIndex};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Serve,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Serve, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and script lengths. `full` is the benchmark; `tiny`
/// exists for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub rmat_scale: u32,
    pub rmat_m: usize,
    pub planted_n: usize,
    pub community: usize,
    pub intra: usize,
    pub inter: usize,
    /// Edges in the delete (and restoring insert) batch.
    pub batch: usize,
    /// Cache-hit re-reads of the explore grid per boot.
    pub reread_passes: usize,
    /// Delete/restore cycles per churn boot, and a SAVE every this many.
    pub cycles: usize,
    pub save_every: usize,
    /// Seconds of the two-connection mix per serve boot, and list
    /// repetitions per connection in one mix window.
    pub mix_secs: f64,
    pub window_reps: usize,
    /// Repetitions of each timed in-process call in the traced run.
    pub trace_reps: usize,
    /// Seconds one boot takes on the reference host, per workload in
    /// declaration order (explore, serve, churn).
    pub boot_secs: [f64; 3],
}

impl Scale {
    /// Boots that fill `seconds` on the reference host, at least two. A
    /// count rather than a clock ends the run, so every run of a
    /// workload takes the same samples and its tails sit at the same rank.
    pub fn boots(&self, workload: Workload, seconds: f64) -> usize {
        ((seconds / self.boot_secs[workload as usize]).round() as usize).max(2)
    }

    pub fn full() -> Scale {
        Scale {
            rmat_scale: 17,
            rmat_m: 2_000_000,
            planted_n: 200_000,
            community: 40,
            intra: 1_600_000,
            inter: 400_000,
            batch: 32,
            reread_passes: 100,
            cycles: 2,
            save_every: 1,
            mix_secs: 3.0,
            window_reps: 4,
            trace_reps: 3,
            boot_secs: [5.0, 6.0, 8.5],
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            rmat_scale: 11,
            rmat_m: 12_000,
            planted_n: 2_400,
            community: 24,
            intra: 16_000,
            inter: 3_000,
            batch: 8,
            reread_passes: 2,
            cycles: 2,
            save_every: 2,
            mix_secs: 0.2,
            window_reps: 1,
            trace_reps: 2,
            boot_secs: [0.25; 3],
        }
    }
}

/// One `(μ, ε)` point of a script, with the vertex its `PROBE` asks about.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub mu: u32,
    pub eps: f32,
    pub probe: u32,
}

impl Point {
    pub fn params(&self) -> QueryParams {
        QueryParams::new(self.mu, self.eps)
    }

    pub fn cluster_line(&self) -> String {
        format!("CLUSTER {} {}", self.mu, self.eps)
    }

    pub fn probe_line(&self) -> String {
        format!("PROBE {} {} {}", self.probe, self.mu, self.eps)
    }
}

/// The reference answer to a point's `CLUSTER` and `PROBE`.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    eps_class: u64,
    clusters: u64,
    clustered: u64,
    probe: (u64, bool, Option<u64>),
}

fn answers(index: &ScanIndex, points: &[Point]) -> Vec<Answer> {
    let bp = index.similarities().breakpoints();
    points
        .iter()
        .map(|p| {
            let c = index.cluster_with(p.params(), BorderAssignment::MostSimilar);
            let probe = index.probe_vertex(p.probe, p.params());
            Answer {
                eps_class: bp.partition_point(|&s| s < p.eps) as u64,
                clusters: c.num_clusters() as u64,
                clustered: c.num_clustered() as u64,
                probe: (
                    probe.eps_neighborhood as u64,
                    probe.is_core,
                    probe.attach_core.map(u64::from),
                ),
            }
        })
        .collect()
}

/// Whether a cached class survives an update with ceiling `theta`,
/// given the breakpoint table the update replaced: the engine keeps a
/// class whose lower breakpoint is at least θ.
fn survives(theta: Option<f32>, old_bp: &[f32], eps: f32) -> bool {
    let Some(theta) = theta else { return true };
    let class = old_bp.partition_point(|&s| s < eps);
    class
        .checked_sub(1)
        .and_then(|c| old_bp.get(c))
        .is_some_and(|&lower| lower >= theta)
}

/// Place `(μ, ε)` targets on ε-classes of `bp` so no two points share a
/// cache key: a target whose class is taken moves up to the next free
/// class and takes that class's upper breakpoint as its ε. With
/// `by_mu`, a key is `(μ, class)`; without, every point gets a class of
/// its own. Targets left above the top class (ε = 1) are dropped.
fn place(targets: &[(u32, f32)], bp: &[f32], by_mu: bool) -> Vec<(u32, f32)> {
    let top = bp.partition_point(|&s| s < 1.0);
    let mut taken = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &(mu, eps) in targets {
        let key = |c: usize| (if by_mu { mu } else { 0 }, c);
        let own = bp.partition_point(|&s| s < eps);
        let mut class = own;
        while taken.contains(&key(class)) {
            class += 1;
        }
        if class <= top {
            taken.insert(key(class));
            let eps = if class == own {
                eps
            } else {
                bp.get(class).copied().unwrap_or(1.0)
            };
            out.push((mu, eps));
        }
    }
    out
}

fn with_probes(targets: &[(u32, f32)], input: &Input) -> Vec<Point> {
    let vs = input.quantile_vertices(targets.len());
    targets
        .iter()
        .zip(vs)
        .map(|(&(mu, eps), probe)| Point { mu, eps, probe })
        .collect()
}

fn batch_line(edges: &[(u32, u32, f32)], insert: bool, weighted: bool) -> String {
    let mut line = String::from("APPLY");
    for &(u, v, w) in edges {
        line.push_str(&match (insert, weighted) {
            (true, true) => format!(" +{u},{v},{w}"),
            (true, false) => format!(" +{u},{v}"),
            (false, _) => format!(" -{u},{v}"),
        });
    }
    line
}

/// Everything a workload's script needs, computed in-process before any
/// server starts.
pub struct Prepared {
    pub workload: Workload,
    pub fp: Fingerprint,
    pub edge_path: PathBuf,
    pub points: Vec<Point>,
    /// Answers on the input graph, and (churn) after the delete batch.
    pub ans0: Vec<Answer>,
    pub ans1: Vec<Answer>,
    pub bp0: Vec<f32>,
    pub bp1: Vec<f32>,
    pub theta_del: Option<f32>,
    pub theta_res: Option<f32>,
    pub del: BatchUpdate,
    pub res: BatchUpdate,
    pub del_line: String,
    pub res_line: String,
    /// Explore: indexes into `points` fetched with `FULL`, with labels.
    pub full: Vec<(usize, Vec<u32>)>,
    /// Serve: the store directory its boots warm-boot from.
    pub template_store: Option<PathBuf>,
}

/// Generate the workload's input, write it under `dir`, build the
/// reference index with `build`, and derive the script's points and
/// expected answers. Returns the index for the traced run's later layers.
pub fn prepare(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
    build: impl FnOnce(&Input, &Path) -> Result<ScanIndex, String>,
) -> Result<(Prepared, ScanIndex), String> {
    let input = match workload {
        Workload::Explore => Input::rmat(scale.rmat_scale, scale.rmat_m, seed),
        Workload::Serve | Workload::Churn => Input::planted(
            scale.planted_n,
            scale.community,
            scale.intra,
            scale.inter,
            seed,
        ),
    };
    let fp = input.fingerprint();
    println!("input {} {}: {fp}", workload.name(), input.name);
    let edge_path = dir.join(format!("{}.txt", input.name));
    input
        .write_edge_list(&edge_path)
        .map_err(|e| format!("cannot write {edge_path:?}: {e}"))?;
    let index = build(&input, &edge_path)?;
    let built = crate::gen::fingerprint_graph(index.graph());
    if built != fp {
        return Err(format!("graph read back as {built}, generated {fp}"));
    }
    let bp0 = index.similarities().breakpoints().to_vec();

    let picked = input.pick_edges(scale.batch, seed ^ 0xba7c);
    let plain: Vec<_> = picked.iter().map(|&(u, v, _)| (u, v)).collect();
    let del = BatchUpdate::delete(&plain);
    let res = BatchUpdate {
        insertions: picked.clone(),
        deletions: Vec::new(),
    };
    let del_line = batch_line(&picked, false, input.weighted);
    let res_line = batch_line(&picked, true, input.weighted);

    let mut prep = Prepared {
        workload,
        fp,
        edge_path,
        points: Vec::new(),
        ans0: Vec::new(),
        ans1: Vec::new(),
        bp0,
        bp1: Vec::new(),
        theta_del: None,
        theta_res: None,
        del,
        res,
        del_line,
        res_line,
        full: Vec::new(),
        template_store: None,
    };
    match workload {
        Workload::Explore => {
            // The (μ, ε) grid: 24 points on distinct ε-classes. Each ε is
            // the similarity quantile that leaves a fixed share of edge
            // slots ε-similar, so a point's work is the same from seed to
            // seed; fixed ε values would not be, as R-MAT's similarity
            // distribution shifts with its hubs. The four costliest points
            // (μ = 2, shares 0.50 to 0.44) are near-equal, so the miss
            // tail falls inside one group of alike queries rather than
            // between two unlike ones; the other twenty step down to a
            // share of 1/1000 while μ cycles through small values.
            let mut sims = index.similarities().as_slice().to_vec();
            sims.sort_unstable_by(f32::total_cmp);
            let quantile = |share: f64| {
                let at = ((1.0 - share) * sims.len() as f64) as usize;
                sims[at.min(sims.len() - 1)]
            };
            let targets: Vec<(u32, f32)> = (0..4)
                .map(|i| (2, quantile(0.5 - 0.02 * i as f64)))
                .chain((0..20).map(|i| {
                    let share = 0.4 * 0.0025f64.powf(i as f64 / 19.0);
                    ([3, 5, 8, 12, 16][i % 5], quantile(share))
                }))
                .collect();
            drop(sims);
            let grid = place(&targets, &prep.bp0, false);
            prep.points = with_probes(&grid, &input);
            for i in [0, 7, 13] {
                let p = prep.points[i];
                let labels = index
                    .cluster_with(p.params(), BorderAssignment::MostSimilar)
                    .labels;
                prep.full.push((i, labels));
            }
        }
        Workload::Serve => {
            let targets: Vec<(u32, f32)> = [2, 5]
                .into_iter()
                .flat_map(|mu| (1..=8).map(move |k| (mu, 0.1 * k as f32)))
                .collect();
            let targets = place(&targets, &prep.bp0, true);
            prep.points = with_probes(&targets, &input);
            let store_dir = dir.join("template-store");
            let store = parscan_store::IndexStore::open(&store_dir)
                .map_err(|e| format!("cannot open template store: {e}"))?;
            store
                .save("default", &index, true, 128)
                .map_err(|e| format!("cannot save template snapshot: {e}"))?;
            prep.template_store = Some(store_dir);
        }
        Workload::Churn => {
            let after_del = apply_batch_diff(&index, &prep.del).ok_or("delete batch is empty")?;
            let after_res =
                apply_batch_diff(&after_del.index, &prep.res).ok_or("restore batch is empty")?;
            if after_res.index.graph().num_edges() != fp.m {
                return Err("the restore batch does not restore m".into());
            }
            prep.theta_del = after_del.max_affected_similarity;
            prep.theta_res = after_res.max_affected_similarity;
            drop(after_res);
            // Low-ε classes fall under the update ceiling θ and are
            // invalidated by every APPLY; the high ones sit between θ and
            // the largest similarity, so they survive it.
            let ceiling = prep
                .theta_del
                .unwrap_or(0.0)
                .max(prep.theta_res.unwrap_or(0.0));
            let bp = &prep.bp0;
            let above = bp.partition_point(|&s| s <= ceiling) + 1;
            let span = bp.len().saturating_sub(above) as f64;
            let targets: Vec<(u32, f32)> = [2, 5]
                .into_iter()
                .flat_map(|mu| {
                    let low = [0.1, 0.2, 0.3, 0.4].map(|e| (mu, e));
                    let high = [0.1, 0.3, 0.5, 0.7].map(|f| {
                        let class = above + (span * f) as usize;
                        (mu, bp.get(class).copied().unwrap_or(1.0))
                    });
                    low.into_iter().chain(high)
                })
                .collect();
            let targets = place(&targets, bp, true);
            prep.points = with_probes(&targets, &input);
            prep.bp1 = after_del.index.similarities().breakpoints().to_vec();
            prep.ans1 = answers(&after_del.index, &prep.points);
        }
    }
    prep.ans0 = answers(&index, &prep.points);
    Ok((prep, index))
}

/// Per-run samples, in the units of the metrics they feed.
#[derive(Default, Debug)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub sweep_s: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
    pub probe_us: Vec<f64>,
    pub ping_us: Vec<f64>,
    pub capacity_rps: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub rss_mib: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.setup_s.extend(other.setup_s);
        self.sweep_s.extend(other.sweep_s);
        self.miss_ms.extend(other.miss_ms);
        self.hit_us.extend(other.hit_us);
        self.probe_us.extend(other.probe_us);
        self.ping_us.extend(other.ping_us);
        self.capacity_rps.extend(other.capacity_rps);
        self.apply_ms.extend(other.apply_ms);
        self.save_ms.extend(other.save_ms);
        self.rss_mib.extend(other.rss_mib);
    }
}

/// Engine and reactor counters summed over a run's boots (each boot is
/// a fresh server, so its final `STATS` is its delta).
#[derive(Default, Debug)]
pub struct Totals {
    pub cluster_requests: u64,
    pub cache_hits: u64,
    pub cache_retained: u64,
    pub cache_invalidated: u64,
    pub coalesced_waits: u64,
    pub compute_micros: u64,
    pub queue_depth_max: u64,
    pub shed: u64,
    pub workers: u64,
}

/// One connection's view of a run: its samples, its request ledger,
/// and the hit/miss counts the script predicted for the current boot.
#[derive(Default)]
pub struct Side {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    hits: u64,
    misses: u64,
    pub tracer: Option<Tracer>,
}

impl Side {
    fn fork(&self) -> Side {
        Side {
            tracer: self.tracer.as_ref().map(Tracer::fork),
            ..Side::default()
        }
    }

    fn absorb(&mut self, other: Side) {
        self.samples.absorb(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.hits += other.hits;
        self.misses += other.misses;
        if let (Some(mine), Some(theirs)) = (&mut self.tracer, other.tracer) {
            mine.absorb(theirs);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Send one request. `Err` is a transport failure and ends the run;
    /// `Ok(None)` is a reply that was not `"ok":true` (counted failed).
    fn call(
        &mut self,
        conn: &mut Conn,
        verb: &str,
        line: &str,
    ) -> Result<Option<(f64, Json)>, String> {
        self.attempted += 1;
        let (rtt, reply) = conn.call(line).inspect_err(|e| self.fail(e.clone()))?;
        if let Some(tr) = &mut self.tracer {
            tr.request(verb, rtt);
        }
        if reply.bool("ok") == Some(true) {
            Ok(Some((rtt, reply)))
        } else {
            let msg = reply.str("message").unwrap_or("not ok").to_string();
            self.fail(format!("{line:.60}: {msg}"));
            Ok(None)
        }
    }

    fn cluster(
        &mut self,
        conn: &mut Conn,
        p: &Point,
        want: &Answer,
        hit: bool,
    ) -> Result<(), String> {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let line = p.cluster_line();
        if let Some((rtt, r)) = self.call(conn, "CLUSTER", &line)? {
            let cached = r.bool("cached");
            match cached {
                Some(true) => self.samples.hit_us.push(rtt * 1e6),
                Some(false) => self.samples.miss_ms.push(rtt * 1e3),
                None => {}
            }
            let got = (
                r.u64("eps_class"),
                r.u64("clusters"),
                r.u64("clustered"),
                cached,
            );
            let expect = (
                Some(want.eps_class),
                Some(want.clusters),
                Some(want.clustered),
                Some(hit),
            );
            self.check(got == expect, || {
                format!("{line}: got (class, clusters, clustered, cached) {got:?}, want {expect:?}")
            });
        }
        Ok(())
    }

    fn probe(&mut self, conn: &mut Conn, p: &Point, want: &Answer) -> Result<(), String> {
        let line = p.probe_line();
        if let Some((rtt, r)) = self.call(conn, "PROBE", &line)? {
            self.samples.probe_us.push(rtt * 1e6);
            let attach = match r.get("attach_core") {
                Some(Json::Num(v)) => Some(Some(*v as u64)),
                Some(Json::Null) => Some(None),
                _ => None,
            };
            let got = (r.u64("eps_neighborhood"), r.bool("is_core"), attach);
            let expect = (Some(want.probe.0), Some(want.probe.1), Some(want.probe.2));
            self.check(got == expect, || {
                format!("{line}: got {got:?}, want {expect:?}")
            });
        }
        Ok(())
    }

    fn ping(&mut self, conn: &mut Conn) -> Result<(), String> {
        if let Some((rtt, r)) = self.call(conn, "PING", "PING")? {
            self.samples.ping_us.push(rtt * 1e6);
            self.check(r.str("op") == Some("pong"), || format!("PING: got {r:?}"));
        }
        Ok(())
    }

    /// An `APPLY` that must publish `epoch` and leave `m` edges, having
    /// effectively inserted (or deleted) `k` of them.
    fn apply(
        &mut self,
        conn: &mut Conn,
        line: &str,
        epoch: u64,
        m: usize,
        k: usize,
    ) -> Result<(), String> {
        if let Some((rtt, r)) = self.call(conn, "APPLY", line)? {
            self.samples.apply_ms.push(rtt * 1e3);
            let done = r.u64("inserted").unwrap_or(0) + r.u64("deleted").unwrap_or(0);
            let got = (r.bool("changed"), r.u64("epoch"), r.u64("m"), done);
            let expect = (Some(true), Some(epoch), Some(m as u64), k as u64);
            self.check(got == expect, || {
                format!("APPLY: got (changed, epoch, m, ops) {got:?}, want {expect:?}")
            });
        }
        Ok(())
    }

    fn save(&mut self, conn: &mut Conn) -> Result<(), String> {
        if let Some((rtt, r)) = self.call(conn, "SAVE", "SAVE")? {
            self.samples.save_ms.push(rtt * 1e3);
            let ok = r.str("op") == Some("save") && r.u64("bytes").is_some_and(|b| b > 0);
            self.check(ok, || format!("SAVE: got {r:?}"));
        }
        Ok(())
    }

    /// End a boot: the `STATS` ledger must balance with exactly the hits
    /// and misses the script predicted, on the input's original edge set.
    fn finish_boot(
        &mut self,
        conn: &mut Conn,
        server: &Server,
        fp: &Fingerprint,
        totals: &mut Totals,
    ) -> Result<(), String> {
        let (hits, misses) = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        if let Some((_, st)) = self.call(conn, "STATS", "STATS")? {
            let req = st.u64("cluster_requests").unwrap_or(u64::MAX);
            let got = (
                st.u64("cache_hits"),
                st.u64("cache_misses"),
                st.u64("n"),
                st.u64("m"),
            );
            let expect = (
                Some(hits),
                Some(misses),
                Some(fp.n as u64),
                Some(fp.m as u64),
            );
            let balanced = Some(req) == got.0.zip(got.1).map(|(h, m)| h + m);
            self.check(balanced && got == expect, || {
                format!("STATS ledger: requests {req}, got (hits, misses, n, m) {got:?}, want {expect:?}")
            });
            let reactor = st.get("reactor");
            let field = |k: &str| reactor.and_then(|r| r.u64(k)).unwrap_or(0);
            totals.cluster_requests += req;
            totals.cache_hits += st.u64("cache_hits").unwrap_or(0);
            totals.cache_retained += st.u64("cache_retained").unwrap_or(0);
            totals.cache_invalidated += st.u64("cache_invalidated").unwrap_or(0);
            totals.coalesced_waits += st.u64("coalesced_waits").unwrap_or(0);
            totals.compute_micros += st.u64("compute_micros").unwrap_or(0);
            totals.queue_depth_max = totals.queue_depth_max.max(field("queue_depth"));
            totals.shed += field("shed_requests") + field("shed_connections");
            totals.workers = field("workers");
        }
        self.samples.rss_mib.push(server.peak_rss_mib()?);
        Ok(())
    }

    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Side) -> R) -> R {
        let id = self.tracer.as_mut().map(|t| t.begin(name));
        let out = f(self);
        if let (Some(t), Some(id)) = (&mut self.tracer, id) {
            t.end(id);
        }
        out
    }
}

/// Run `boots` boots of the workload's script. `dir` holds each boot's
/// fresh store directory.
pub fn run(
    prep: &Prepared,
    scale: &Scale,
    bin: &Path,
    dir: &Path,
    boots: usize,
    side: &mut Side,
) -> Result<Totals, String> {
    let mut totals = Totals::default();
    for boot in 0..boots {
        let store = dir.join(format!("store-{boot}"));
        if let Some(template) = &prep.template_store {
            copy_dir(template, &store).map_err(|e| format!("cannot copy the store: {e}"))?;
        }
        let store_arg = store.to_string_lossy().into_owned();
        let mut args = Vec::new();
        if prep.workload != Workload::Serve {
            args.push(prep.edge_path.to_string_lossy().into_owned());
        }
        args.extend(["--store-dir".to_string(), store_arg]);
        side.span("boot", |side| -> Result<(), String> {
            let launched = side.span("launch", |_| Server::launch(bin, &args));
            let (server, mut conn, setup_s) = launched.inspect_err(|e| side.fail(e.clone()))?;
            side.samples.setup_s.push(setup_s);
            match prep.workload {
                Workload::Explore => explore(side, &mut conn, prep, scale)?,
                Workload::Serve => serve(side, &mut conn, &server.addr, prep, scale)?,
                Workload::Churn => churn(side, &mut conn, prep, scale)?,
            }
            side.finish_boot(&mut conn, &server, &prep.fp, &mut totals)
        })?;
        let _ = std::fs::remove_dir_all(&store);
    }
    Ok(totals)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// A cold sweep: every point once, every request a miss.
fn sweep(side: &mut Side, conn: &mut Conn, prep: &Prepared) -> Result<(), String> {
    side.span("sweep", |side| {
        let start = Instant::now();
        for (p, want) in prep.points.iter().zip(&prep.ans0) {
            side.cluster(conn, p, want, false)?;
        }
        side.samples.sweep_s.push(start.elapsed().as_secs_f64());
        Ok(())
    })
}

/// The delete batch, its restoring insert, and a SAVE: the graph ends
/// where it started, at epoch `epoch + 2`.
fn write_tail(side: &mut Side, conn: &mut Conn, prep: &Prepared, epoch: u64) -> Result<(), String> {
    side.span("write", |side| {
        let k = prep.del.deletions.len();
        side.apply(conn, &prep.del_line, epoch + 1, prep.fp.m - k, k)?;
        side.apply(conn, &prep.res_line, epoch + 2, prep.fp.m, k)?;
        side.save(conn)
    })
}

/// Build once from the edge list, query many settings: a cold grid
/// sweep, a few `FULL` labelings, then cache-hit re-reads of the grid.
fn explore(side: &mut Side, conn: &mut Conn, prep: &Prepared, scale: &Scale) -> Result<(), String> {
    sweep(side, conn, prep)?;
    side.span("full", |side| -> Result<(), String> {
        for (i, labels) in &prep.full {
            side.hits += 1;
            let line = format!("{} FULL", prep.points[*i].cluster_line());
            if let Some((_, r)) = side.call(conn, "CLUSTER", &line)? {
                let got: Option<Vec<i64>> = match r.get("labels") {
                    Some(Json::Arr(a)) => a
                        .iter()
                        .map(|x| match x {
                            Json::Num(v) => Some(*v as i64),
                            _ => None,
                        })
                        .collect(),
                    _ => None,
                };
                let want: Vec<i64> = labels
                    .iter()
                    .map(|&l| {
                        if l == parscan_core::UNCLUSTERED {
                            -1
                        } else {
                            l as i64
                        }
                    })
                    .collect();
                let ok = r.bool("cached") == Some(true) && got.as_ref() == Some(&want);
                side.check(ok, || {
                    format!("{line}: labels differ from the in-process reference")
                });
            }
        }
        Ok(())
    })?;
    side.span("reread", |side| -> Result<(), String> {
        for _ in 0..scale.reread_passes {
            let start = Instant::now();
            for (p, want) in prep.points.iter().zip(&prep.ans0) {
                side.cluster(conn, p, want, true)?;
                side.probe(conn, p, want)?;
                side.ping(conn)?;
            }
            let requests = 3 * prep.points.len();
            side.samples
                .capacity_rps
                .push(requests as f64 / start.elapsed().as_secs_f64());
        }
        Ok(())
    })?;
    write_tail(side, conn, prep, 0)
}

/// Warm boot from the snapshot, warm a fixed point set, then two
/// connections send a fixed interleaved mix of cache hits, probes and
/// pings, in windows both connections start together.
fn serve(
    side: &mut Side,
    conn: &mut Conn,
    addr: &str,
    prep: &Prepared,
    scale: &Scale,
) -> Result<(), String> {
    sweep(side, conn, prep)?;
    side.span("mix", |side| mix(side, conn, addr, prep, scale))?;
    write_tail(side, conn, prep, 0)
}

fn mix_list(
    side: &mut Side,
    conn: &mut Conn,
    prep: &Prepared,
    reps: usize,
    lane: usize,
) -> Result<usize, String> {
    let w = prep.points.len();
    for _ in 0..reps {
        for i in 0..w {
            let j = (i + lane * w / 2) % w;
            side.cluster(conn, &prep.points[j], &prep.ans0[j], true)?;
            if i % 2 == lane {
                side.probe(conn, &prep.points[i], &prep.ans0[i])?;
            } else {
                side.ping(conn)?;
            }
        }
    }
    Ok(2 * w * reps)
}

fn mix(
    side: &mut Side,
    conn: &mut Conn,
    addr: &str,
    prep: &Prepared,
    scale: &Scale,
) -> Result<(), String> {
    let mut other = side.fork();
    let mut conn2 = Conn::connect(addr)?;
    let barrier = Barrier::new(2);
    let more = AtomicBool::new(true);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(scale.mix_secs);
    std::thread::scope(|s| {
        let lane1 = s.spawn(|| {
            let mut result = Ok(());
            loop {
                barrier.wait();
                if !more.load(Ordering::SeqCst) {
                    return result.map(|()| other);
                }
                let r = mix_list(&mut other, &mut conn2, prep, scale.window_reps, 1);
                barrier.wait();
                if let Err(e) = r {
                    result = Err(e);
                }
            }
        });
        let mut result = Ok(());
        loop {
            let go = result.is_ok() && Instant::now() < deadline;
            more.store(go, Ordering::SeqCst);
            barrier.wait();
            if !go {
                break;
            }
            let start = Instant::now();
            let r = mix_list(side, conn, prep, scale.window_reps, 0);
            barrier.wait();
            match r {
                Ok(n) => side
                    .samples
                    .capacity_rps
                    .push(2.0 * n as f64 / start.elapsed().as_secs_f64()),
                Err(e) => result = Err(e),
            }
        }
        let lane1 = lane1.join().expect("mix lane panicked")?;
        side.absorb(lane1);
        result
    })
}

/// Writes beside reads: delete a fixed batch, read the point set,
/// restore the batch, read again, and SAVE every few cycles. The cache
/// state of each point is simulated from the update ceilings θ, so
/// every read's hit or miss is known before it is sent.
fn churn(side: &mut Side, conn: &mut Conn, prep: &Prepared, scale: &Scale) -> Result<(), String> {
    sweep(side, conn, prep)?;
    let mut cached = vec![true; prep.points.len()];
    let k = prep.del.deletions.len();
    let m = prep.fp.m;
    for cycle in 0..scale.cycles {
        let epoch = 2 * cycle as u64;
        side.span("cycle", |side| -> Result<(), String> {
            side.apply(conn, &prep.del_line, epoch + 1, m - k, k)?;
            for (c, p) in cached.iter_mut().zip(&prep.points) {
                *c &= survives(prep.theta_del, &prep.bp0, p.eps);
            }
            read_pass(side, conn, prep, &prep.ans1, &mut cached)?;
            side.apply(conn, &prep.res_line, epoch + 2, m, k)?;
            for (c, p) in cached.iter_mut().zip(&prep.points) {
                *c &= survives(prep.theta_res, &prep.bp1, p.eps);
            }
            // Back on the original edge set: every answer must equal
            // its epoch-0 value.
            read_pass(side, conn, prep, &prep.ans0, &mut cached)?;
            if cycle % scale.save_every == scale.save_every - 1 {
                side.save(conn)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

fn read_pass(
    side: &mut Side,
    conn: &mut Conn,
    prep: &Prepared,
    answers: &[Answer],
    cached: &mut [bool],
) -> Result<(), String> {
    let start = Instant::now();
    for (i, p) in prep.points.iter().enumerate() {
        side.cluster(conn, p, &answers[i], cached[i])?;
        cached[i] = true;
    }
    for (p, want) in prep.points.iter().zip(answers) {
        side.probe(conn, p, want)?;
        side.ping(conn)?;
    }
    let requests = 3 * prep.points.len();
    side.samples
        .capacity_rps
        .push(requests as f64 / start.elapsed().as_secs_f64());
    Ok(())
}
