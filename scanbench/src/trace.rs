//! The traced run: spans for every timed call, and the in-process
//! calls into each layer's public functions on the workload's input.

use crate::json::{num, quote};
use crate::stats::median;
use crate::workload::{Prepared, Scale};
use parscan_core::{
    apply_batch_diff, BorderAssignment, CoreOrder, EdgeSimilarities, NeighborOrder, QueryOptions,
    ScanIndex, SimilarityMeasure, SortStrategy,
};
use parscan_server::{parse_request, EngineConfig, QueryEngine, Response};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: seconds since the tracer's origin, the enclosing
/// span, and the request id for calls made over TCP.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Spans kept in memory and written out once, at the end of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_req: 1,
        }
    }

    /// An empty tracer on the same clock for another thread; its request
    /// ids cannot collide with this one's.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_req: self.next_req + (1 << 40),
        }
    }

    /// Adopt a fork's spans; its top-level spans nest under the span
    /// open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base).or(parent);
            self.spans.push(span);
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: f64::NAN,
            parent: self.open.last().copied(),
            req: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span named `name`; returns its value and seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = std::hint::black_box(f());
        self.end(id);
        let span = &self.spans[id];
        (out, span.end - span.start)
    }

    /// Record a request that just completed after `rtt` seconds.
    pub fn request(&mut self, verb: &str, rtt: f64) {
        let end = self.now();
        self.spans.push(Span {
            name: format!("tcp.{verb}"),
            start: end - rtt,
            end,
            parent: self.open.last().copied(),
            req: Some(self.next_req),
        });
        self.next_req += 1;
    }

    /// `(name, calls, total seconds, self seconds)` per span name, by
    /// self time descending. Self time excludes the children's spans.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut by_name: Vec<(String, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += dur;
                    e.3 += dur - child[i];
                }
                None => by_name.push((s.name.clone(), 1, dur, dur - child[i])),
            }
        }
        by_name.sort_by(|a, b| b.3.total_cmp(&a.3));
        by_name
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"id\":{i},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{},\"req\":{}}}",
                quote(&s.name),
                num(s.start * 1e6),
                num(s.end * 1e6),
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req.map_or("null".into(), |r| r.to_string()),
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Build the index the way `parscan serve <edge list>` does, one timed
/// layer call at a time, each repeated `reps` times.
pub fn build_index(tr: &mut Tracer, path: &Path, reps: usize) -> Result<ScanIndex, String> {
    let mut graph = None;
    for _ in 0..reps {
        let (g, _) = tr.time("graph.read_edge_list_text", || {
            parscan_graph::io::read_edge_list_text(path, None)
        });
        graph = Some(g.map_err(|e| format!("cannot read {path:?}: {e}"))?);
    }
    let g = graph.ok_or("no repetitions")?;
    let measure = SimilarityMeasure::Cosine;
    let mut sims = None;
    for _ in 0..reps {
        sims = Some(
            tr.time("similarity.compute_merge_based", || {
                parscan_core::similarity_exact::compute_merge_based(&g, measure)
            })
            .0,
        );
    }
    let sims = sims.ok_or("no repetitions")?;
    let mut no = None;
    for _ in 0..reps {
        no = Some(
            tr.time("order.NeighborOrder::build", || {
                NeighborOrder::build(&g, &sims, SortStrategy::Integer)
            })
            .0,
        );
    }
    let no = no.ok_or("no repetitions")?;
    let mut co = None;
    for _ in 0..reps {
        co = Some(
            tr.time("order.CoreOrder::build", || {
                CoreOrder::build(&g, &no, SortStrategy::Integer)
            })
            .0,
        );
    }
    let co = co.ok_or("no repetitions")?;
    // Breakpoints are computed once per similarity array: time first
    // calls on copies, and the last on the array the index keeps.
    for _ in 1..reps {
        let copy = EdgeSimilarities::from_per_slot(sims.as_slice().to_vec());
        tr.time("order.breakpoints", || copy.breakpoints().len());
    }
    tr.time("order.breakpoints", || sims.breakpoints().len());
    Ok(ScanIndex::from_existing_parts(g, sims, no, co, measure))
}

/// Per-layer numbers from the in-process calls.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Medians of the calls a boot makes before it answers `PING`, ms.
    pub setup_layers_ms: f64,
    pub engine_hit_us: f64,
    pub render_us: f64,
    pub parse_by_verb: Vec<(&'static str, f64)>,
}

fn ms(samples: &[f64]) -> f64 {
    median(samples) * 1e3
}

/// Time every remaining layer call on the workload's input and script.
pub fn layer_calls(
    tr: &mut Tracer,
    prep: &Prepared,
    index: ScanIndex,
    scale: &Scale,
    dir: &Path,
) -> Result<Layers, String> {
    let reps = scale.trace_reps;
    let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let span_ms = |tr: &Tracer, name: &str| {
        let d: Vec<f64> = tr
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect();
        ms(&d)
    };
    let m = index.graph().num_edges() as f64;

    // Query layer: the script's points, summed per pass; median of passes.
    let opts = QueryOptions {
        border: BorderAssignment::MostSimilar,
        ..QueryOptions::default()
    };
    let (mut cores_pass, mut cluster_pass) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut cores_s, mut cluster_s) = (0.0, 0.0);
        for p in &prep.points {
            cores_s += tr
                .time("query.ScanIndex::cores", || index.cores(p.params()).len())
                .1;
            cluster_s += tr
                .time("query.cluster_with_opts", || {
                    index.cluster_with_opts(p.params(), opts)
                })
                .1;
        }
        cores_pass.push(cores_s);
        cluster_pass.push(cluster_s);
    }
    let (g, no) = (index.graph(), index.neighbor_order());
    let (mut cores, mut eps_edges) = (0usize, 0usize);
    for p in &prep.points {
        let found = index.cores(p.params());
        cores += found.len();
        eps_edges += found
            .iter()
            .map(|&c| no.epsilon_prefix(g, c, p.eps).0.len())
            .sum::<usize>();
    }
    let cluster_ms = ms(&cluster_pass);

    // Persistence and the store.
    let mut bytes = Vec::new();
    for _ in 0..reps {
        bytes = tr
            .time("persist.to_snapshot_bytes", || index.to_snapshot_bytes())
            .0;
    }
    for _ in 0..reps {
        let (decoded, _) = tr.time("persist.from_snapshot_bytes", || {
            ScanIndex::from_snapshot_bytes(&bytes)
        });
        decoded.map_err(|e| format!("snapshot does not decode: {e}"))?;
    }
    let snapshot_mib = bytes.len() as f64 / (1 << 20) as f64;
    drop(bytes);
    let store = parscan_store::IndexStore::open(dir.join("trace-store"))
        .map_err(|e| format!("cannot open the trace store: {e}"))?;
    for _ in 0..reps {
        tr.time("store.IndexStore::save", || {
            store.save("default", &index, true, 128)
        })
        .0
        .map_err(|e| format!("store save failed: {e}"))?;
    }
    for _ in 0..reps {
        tr.time("store.IndexStore::load", || store.load("default"))
            .0
            .map_err(|e| format!("store load failed: {e}"))?;
    }

    // Dynamic layer: the script's delete batch and its restore.
    let mut changed = Vec::new();
    for _ in 0..reps.min(2) {
        let (after, _) = tr.time("dynamic.apply_batch_diff", || {
            apply_batch_diff(&index, &prep.del)
        });
        let after = after.ok_or("the delete batch changed nothing")?;
        changed.push(after.changed_edges as f64);
        tr.time("dynamic.orders", || {
            let (g, sims) = (after.index.graph(), after.index.similarities());
            let no = NeighborOrder::build(g, sims, SortStrategy::Integer);
            CoreOrder::build(g, &no, SortStrategy::Integer)
        });
        let (back, _) = tr.time("dynamic.apply_batch_diff", || {
            apply_batch_diff(&after.index, &prep.res)
        });
        changed.push(
            back.ok_or("the restore batch changed nothing")?
                .changed_edges as f64,
        );
    }

    // Engine: install, misses, hits, and updates through its cache.
    let index = Arc::new(index);
    let mut engine = None;
    for _ in 0..reps {
        engine = Some(
            tr.time("engine.QueryEngine::new", || {
                QueryEngine::new(Arc::clone(&index), EngineConfig::default())
            })
            .0,
        );
    }
    let engine = engine.ok_or("no repetitions")?;
    let mut miss = Vec::new();
    for p in &prep.points {
        let (o, s) = tr.time("engine.cluster", || engine.cluster(p.params()));
        if o.cached {
            return Err("an engine miss was answered from the cache".into());
        }
        miss.push(s);
    }
    let mut hit = Vec::new();
    for _ in 0..50 {
        for p in &prep.points {
            let (o, s) = tr.time("engine.cluster", || engine.cluster(p.params()));
            if !o.cached {
                return Err("an engine hit missed the cache".into());
            }
            hit.push(s);
        }
    }
    let engine_hit_us = median(&hit) * 1e6;

    // Protocol: parse every verb of the script; render a cached answer.
    let p0 = prep.points[0];
    let verbs: [(&str, String); 7] = [
        ("CLUSTER", p0.cluster_line()),
        ("CLUSTER FULL", format!("{} FULL", p0.cluster_line())),
        ("PROBE", p0.probe_line()),
        ("PING", "PING".into()),
        ("STATS", "STATS".into()),
        ("SAVE", "SAVE".into()),
        ("APPLY", prep.del_line.clone()),
    ];
    let mut parse_all = Vec::new();
    let mut parse_by_verb = Vec::new();
    for (verb, line) in &verbs {
        let mut v = Vec::new();
        for _ in 0..200 {
            let (parsed, s) = tr.time("protocol.parse_request", || parse_request(line));
            parsed.map_err(|e| format!("{verb} does not parse: {e}"))?;
            v.push(s * 1e6);
        }
        parse_by_verb.push((*verb, median(&v)));
        parse_all.extend(v);
    }
    let response = |full: bool| Response::Cluster {
        graph: "default".into(),
        params: p0.params(),
        outcome: engine.cluster(p0.params()),
        full,
    };
    let cached = response(false);
    let mut render = Vec::new();
    for _ in 0..200 {
        render.push(
            tr.time("protocol.render_json", || cached.render_json().len())
                .1,
        );
    }
    let full = response(true);
    let mut render_full = Vec::new();
    for _ in 0..reps.max(3) {
        render_full.push(
            tr.time("protocol.render_json_full", || full.render_json().len())
                .1,
        );
    }
    let render_us = median(&render) * 1e6;

    for _ in 0..reps.min(2) {
        for batch in [&prep.del, &prep.res] {
            tr.time("engine.apply_update", || engine.apply_update(batch))
                .0
                .map_err(|e| format!("engine update failed: {e}"))?;
        }
    }

    let kernel_ms = span_ms(tr, "similarity.compute_merge_based");
    let install_ms = span_ms(tr, "engine.QueryEngine::new");
    let setup_layers_ms = if prep.template_store.is_some() {
        // A warm boot loads the snapshot instead of building.
        span_ms(tr, "store.IndexStore::load") + install_ms
    } else {
        span_ms(tr, "graph.read_edge_list_text")
            + kernel_ms
            + span_ms(tr, "order.NeighborOrder::build")
            + span_ms(tr, "order.CoreOrder::build")
            + span_ms(tr, "order.breakpoints")
            + install_ms
    };
    out.extend([
        (
            "graph.read_ms",
            span_ms(tr, "graph.read_edge_list_text"),
            "ms",
        ),
        ("similarity.kernel_ms", kernel_ms, "ms"),
        ("similarity.edges_per_s", m / (kernel_ms / 1e3), "edges/s"),
        (
            "order.no_ms",
            span_ms(tr, "order.NeighborOrder::build"),
            "ms",
        ),
        ("order.co_ms", span_ms(tr, "order.CoreOrder::build"), "ms"),
        (
            "order.breakpoints_ms",
            span_ms(tr, "order.breakpoints"),
            "ms",
        ),
        ("query.cores_us", median(&cores_pass) * 1e6, "us"),
        ("query.cluster_ms", cluster_ms, "ms"),
        ("query.cores", cores as f64, "count"),
        ("query.eps_edges", eps_edges as f64, "count"),
        (
            "query.ns_per_edge",
            cluster_ms * 1e6 / eps_edges.max(1) as f64,
            "ns",
        ),
        (
            "dynamic.apply_ms",
            span_ms(tr, "dynamic.apply_batch_diff"),
            "ms",
        ),
        ("dynamic.orders_ms", span_ms(tr, "dynamic.orders"), "ms"),
        ("dynamic.changed_edges", median(&changed), "count"),
        (
            "persist.encode_ms",
            span_ms(tr, "persist.to_snapshot_bytes"),
            "ms",
        ),
        (
            "persist.decode_ms",
            span_ms(tr, "persist.from_snapshot_bytes"),
            "ms",
        ),
        ("persist.snapshot_mib", snapshot_mib, "MiB"),
        ("store.save_ms", span_ms(tr, "store.IndexStore::save"), "ms"),
        ("store.load_ms", span_ms(tr, "store.IndexStore::load"), "ms"),
        ("engine.install_ms", install_ms, "ms"),
        ("engine.hit_us", engine_hit_us, "us"),
        ("engine.miss_ms", ms(&miss), "ms"),
        ("engine.apply_ms", span_ms(tr, "engine.apply_update"), "ms"),
        ("protocol.parse_us", median(&parse_all), "us"),
        ("protocol.render_us", render_us, "us"),
        ("protocol.render_full_ms", ms(&render_full), "ms"),
    ]);
    Ok(Layers {
        metrics: out,
        setup_layers_ms,
        engine_hit_us,
        render_us,
        parse_by_verb,
    })
}
