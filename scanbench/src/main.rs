//! `scanbench`: the end-to-end and per-layer benchmark of `parscan serve`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path scanbench/Cargo.toml -- \
//!     --workload explore|serve|churn --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! It builds the release `parscan` binary, generates the workload's
//! input from the seed, and drives `parscan serve` over TCP. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` times each layer's public
//! calls in-process and replays the script with spans, reporting the
//! per-layer metrics. The last line of standard output is the result.

mod client;
mod gen;
mod json;
mod stats;
mod trace;
mod workload;

use json::{num, quote};
use parscan_core::{IndexConfig, ScanIndex};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Side, Totals, Workload};

const USAGE: &str = "usage: scanbench --workload explore|serve|churn --seed N --seconds S --trace 0|1 [--scale full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let at = raw
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            raw.get(at + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let scale = if raw.iter().any(|a| a == "--scale") {
            get("--scale")?
        } else {
            "full"
        };
        Ok(Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
            seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            tiny: match scale {
                "full" => false,
                "tiny" => true,
                other => return Err(format!("unknown scale {other:?}")),
            },
        })
    }
}

/// A fresh directory under `.scanbench/` for one run's inputs and
/// stores, removed when the run ends however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric, with the sample count (and, for a tail, the
/// percentile) behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    percentile: Option<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        percentile: None,
    }
}

fn tail(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    let (value, pct, n) = stats::tail(samples);
    Metric {
        percentile: Some(pct),
        ..metric(name, value, unit, n)
    }
}

fn p50(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    metric(name, stats::median(samples), unit, samples.len())
}

fn end_to_end(side: &Side) -> Vec<Metric> {
    let s = &side.samples;
    let ok = (side.attempted - side.failed) as f64 / side.attempted.max(1) as f64;
    vec![
        p50("setup_s", &s.setup_s, "s"),
        p50("sweep_s", &s.sweep_s, "s"),
        p50("miss_p50_ms", &s.miss_ms, "ms"),
        tail("miss_tail_ms", &s.miss_ms, "ms"),
        p50("hit_p50_us", &s.hit_us, "us"),
        tail("hit_tail_us", &s.hit_us, "us"),
        p50("probe_p50_us", &s.probe_us, "us"),
        p50("capacity_rps", &s.capacity_rps, "req/s"),
        p50("apply_p50_ms", &s.apply_ms, "ms"),
        tail("apply_tail_ms", &s.apply_ms, "ms"),
        p50("save_p50_ms", &s.save_ms, "ms"),
        metric("ok_frac", ok, "ratio", side.attempted as usize),
        p50("server_rss_mib", &s.rss_mib, "MiB"),
    ]
}

fn per_layer(side: &Side, totals: &Totals, layers: &trace::Layers) -> Vec<Metric> {
    let s = &side.samples;
    let mut out: Vec<Metric> = layers
        .metrics
        .iter()
        .map(|&(name, value, unit)| metric(name, value, unit, 1))
        .collect();
    let ping_us = stats::median(&s.ping_us);
    let hit_us = stats::median(&s.hit_us);
    let setup_ms = stats::median(&s.setup_s) * 1e3;
    let updates = totals.cache_retained + totals.cache_invalidated;
    out.extend([
        metric(
            "engine.hit_ratio",
            totals.cache_hits as f64 / totals.cluster_requests.max(1) as f64,
            "ratio",
            totals.cluster_requests as usize,
        ),
        metric(
            "engine.retained_ratio",
            totals.cache_retained as f64 / updates.max(1) as f64,
            "ratio",
            updates as usize,
        ),
        metric(
            "engine.coalesced_waits",
            totals.coalesced_waits as f64,
            "count",
            1,
        ),
        metric(
            "engine.compute_ms",
            totals.compute_micros as f64 / 1e3,
            "ms",
            1,
        ),
        p50("reactor.ping_us", &s.ping_us, "us"),
        metric(
            "reactor.gap_us",
            hit_us - ping_us - layers.engine_hit_us - layers.render_us,
            "us",
            s.hit_us.len(),
        ),
        metric(
            "reactor.queue_depth",
            totals.queue_depth_max as f64,
            "count",
            1,
        ),
        metric("reactor.shed", totals.shed as f64, "count", 1),
        metric(
            "setup.gap_ms",
            setup_ms - layers.setup_layers_ms,
            "ms",
            s.setup_s.len(),
        ),
    ]);
    out
}

/// The checkout's identity: the git commit when there is one, else a
/// hash of the sources the benchmark builds.
fn source_id(root: &Path) -> String {
    if root.join(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for byte in std::fs::read(&f).unwrap_or_default() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("tree-{hash:016x}")
}

fn run(args: &Args) -> Result<(Vec<Metric>, Side, String), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/server/Cargo.toml").exists() {
        return Err("run from the repository root (no crates/server here)".into());
    }
    let scale = if args.tiny {
        Scale::tiny()
    } else {
        Scale::full()
    };
    let bin = client::build_server(&root)?;
    let base = root.join(".scanbench");
    let dir = WorkDir(base.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("cannot create {:?}: {e}", dir.0))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let mut env = format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"host\":{},\"nproc\":{threads},\"commit\":{}",
        quote(args.workload.name()),
        args.seed,
        num(args.seconds),
        args.trace,
        quote(if args.tiny { "tiny" } else { "full" }),
        quote(host.trim()),
        quote(&source_id(&root)),
    );

    if !args.trace {
        let (prep, index) =
            workload::prepare(args.workload, &scale, args.seed, &dir.0, |input, _| {
                Ok(ScanIndex::build(input.to_graph(), IndexConfig::default()))
            })?;
        drop(index);
        let mut side = Side::default();
        let boots = scale.boots(args.workload, args.seconds);
        let totals = workload::run(&prep, &scale, &bin, &dir.0, boots, &mut side)?;
        env.push_str(&format!(
            ",\"input\":{},\"harness_threads\":2,\"server_threads\":{threads},\"server_workers\":{}",
            quote(&prep.fp.to_string()),
            totals.workers
        ));
        return Ok((end_to_end(&side), side, env));
    }

    let mut tr = trace::Tracer::new();
    let whole = tr.begin("traced-run");
    let inproc = tr.begin("in-process");
    let (prep, index) = workload::prepare(args.workload, &scale, args.seed, &dir.0, |_, path| {
        trace::build_index(&mut tr, path, scale.trace_reps)
    })?;
    let layers = trace::layer_calls(&mut tr, &prep, index, &scale, &dir.0)?;
    tr.end(inproc);
    let tcp = tr.begin("tcp-replay");
    let mut side = Side::default();
    side.tracer = Some(tr);
    let totals = workload::run(&prep, &scale, &bin, &dir.0, 2, &mut side)?;
    let mut tr = side.tracer.take().expect("tracer");
    tr.end(tcp);
    tr.end(whole);
    let path = base.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    tr.write(&path)
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    let self_times: Vec<String> = tr
        .self_times()
        .iter()
        .take(16)
        .map(|(name, calls, total, own)| {
            format!(
                "{{\"span\":{},\"calls\":{calls},\"total_ms\":{},\"self_ms\":{}}}",
                quote(name),
                num(total * 1e3),
                num(own * 1e3)
            )
        })
        .collect();
    let parse: Vec<String> = layers
        .parse_by_verb
        .iter()
        .map(|(verb, us)| format!("{}:{}", quote(verb), num(*us)))
        .collect();
    env.push_str(&format!(
        ",\"input\":{},\"harness_threads\":{threads},\"server_threads\":{threads},\"server_workers\":{},\"trace_file\":{},\"self_times\":[{}],\"parse_us_by_verb\":{{{}}}",
        quote(&prep.fp.to_string()),
        totals.workers,
        quote(&path.to_string_lossy()),
        self_times.join(","),
        parse.join(","),
    ));
    Ok((per_layer(&side, &totals, &layers), side, env))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scanbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The load generator stays within two threads: its own in-process
    // work runs on one. The traced run instead gives the in-process
    // layer calls the server's thread count.
    if !args.trace {
        std::env::set_var("PARSCAN_THREADS", "1");
    }
    let (metrics, side, env) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("scanbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = side.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    for why in &side.failures {
        eprintln!("scanbench: check failed: {why}");
    }
    let detail: Vec<String> = metrics
        .iter()
        .map(|m| {
            let pct = m
                .percentile
                .map_or(String::new(), |p| format!(",\"percentile\":{}", num(p)));
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}{pct}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = side.failures.iter().map(|f| quote(f)).collect();
    println!(
        "{{\"report\":{{{env},\"failures\":[{}],\"metrics\":{{{}}}}}}}",
        failures.join(","),
        detail.join(",")
    );
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        side.attempted.max(1),
        side.failed,
        values.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
