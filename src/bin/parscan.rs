//! `parscan` — command-line structural graph clustering.
//!
//! Subcommands:
//!
//! ```text
//! parscan stats    <graph>                         graph statistics
//! parscan index    <graph> --out FILE.pscidx       build & persist an index
//!                  [--jaccard] [--approx K]
//! parscan cluster  <graph|index> --mu M --eps E    one SCAN clustering
//!                  [--jaccard] [--approx K] [--out FILE]
//! parscan sweep    <graph|index> [--eps-step S]    grid-search best modularity
//! parscan serve    [graph|index] --port P          TCP query server over one or
//!                  [--host H] [--cache N]          more resident indexes
//!                  [--name NAME] [--graph NAME=PATH]...
//!                  [--budget MIB] [--max-graphs N]
//!                  [--workers N] [--max-conns N]    reactor sizing and
//!                  [--queue N]                      admission-control bounds
//!                  [--store-dir DIR]               durable store: SAVE verb +
//!                                                  warm boot on restart
//!                  [--deadline-ms MS]              per-request deadline
//!                  [--idle-timeout MS]             reap idle connections
//!                  [--watchdog-ms MS]              stuck-worker threshold
//! parscan convert  <in> <out>                      convert between formats
//! parscan generate <kind> --n N --out FILE         synthetic graphs
//!                  (kinds: rmat, er, sbm, wsbm)
//! ```
//!
//! Graph files are detected by extension: `.bin` (parscan binary),
//! `.graph`/`.metis` (METIS), anything else is a whitespace edge list
//! (`u v` or `u v w` per line, `#`/`%` comments). Index files use the
//! `.pscidx` extension and the checksummed format of `parscan::core::persist`.

use parscan::core::hubs::{classify_roles, role_counts};
use parscan::core::sweep::{sweep, SweepGrid};
use parscan::metrics::modularity;
use parscan::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  parscan stats    <graph>
  parscan index    <graph> --out FILE.pscidx [--jaccard] [--approx K]
  parscan cluster  <graph|index.pscidx> --mu M --eps E [--jaccard] [--approx K] [--out FILE]
  parscan sweep    <graph|index.pscidx> [--eps-step S]
  parscan serve    [graph|index.pscidx] --port P [--host H] [--cache N] [--jaccard] [--approx K]
                   [--name NAME] [--graph NAME=PATH]... [--budget MIB] [--max-graphs N]
                   [--workers N] [--max-conns N] [--queue N]   (reactor + admission bounds)
                   [--store-dir DIR]   (path optional when DIR warm-boots a saved working set)
                   [--deadline-ms MS] [--idle-timeout MS] [--watchdog-ms MS]   (resilience knobs)
  parscan convert  <in> <out>          (formats by extension: .bin, .graph/.metis, text)
  parscan generate (rmat|er|sbm|wsbm) --n N [--deg D] [--seed S] --out FILE";

/// Pull `--name value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Every value of a repeatable `--name value` flag, in order.
fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("bad value {v:?} for {name}"))
        })
        .transpose()
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    parscan::graph::io::read_graph(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_graph(g: &CsrGraph, path: &str) -> Result<(), String> {
    parscan::graph::io::write_graph(g, path).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Build an index per the shared `--jaccard` / `--approx` flags.
fn build_index(g: CsrGraph, args: &[String]) -> Result<ScanIndex, String> {
    let measure = if has_flag(args, "--jaccard") {
        SimilarityMeasure::Jaccard
    } else {
        SimilarityMeasure::Cosine
    };
    Ok(match parse::<usize>(args, "--approx")? {
        Some(k) => {
            let method = if measure == SimilarityMeasure::Jaccard {
                ApproxMethod::KPartitionMinHashJaccard
            } else {
                ApproxMethod::SimHashCosine
            };
            build_approx_index(
                g,
                ApproxConfig {
                    method,
                    samples: k,
                    ..Default::default()
                },
            )
        }
        None => ScanIndex::build(g, IndexConfig::with_measure(measure)),
    })
}

/// Load a persisted index, or build one from a graph file on the fly.
fn load_or_build_index(path: &str, args: &[String]) -> Result<ScanIndex, String> {
    if path.ends_with(".pscidx") {
        ScanIndex::load(path).map_err(|e| format!("cannot load index {path}: {e}"))
    } else {
        build_index(load_graph(path)?, args)
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats needs a graph path")?;
    let g = load_graph(path)?;
    let s = parscan::graph::stats::graph_stats(&g);
    println!("vertices     {}", s.n);
    println!("edges        {}", s.m);
    println!(
        "degrees      min {} / avg {:.2} / max {}",
        s.min_degree, s.avg_degree, s.max_degree
    );
    println!("triangles    {}", s.triangles);
    println!("degeneracy   {}", s.degeneracy);
    println!("components   {}", s.components);
    println!("weighted     {}", s.weighted);
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("index needs a graph path")?;
    let out = flag(args, "--out").ok_or("--out is required (suggest .pscidx)")?;
    let g = load_graph(path)?;
    let start = std::time::Instant::now();
    let index = build_index(g, args)?;
    let built = start.elapsed();
    index
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "indexed {} vertices / {} edges in {:.2?} (~{} MiB) -> {out}",
        index.graph().num_vertices(),
        index.graph().num_edges(),
        built,
        index.memory_bytes() / (1 << 20),
    );
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("cluster needs a graph or index path")?;
    let mu: u32 = parse(args, "--mu")?.ok_or("--mu is required (μ ≥ 2)")?;
    let eps: f32 = parse(args, "--eps")?.ok_or("--eps is required (ε ∈ [0,1])")?;
    let index = load_or_build_index(path, args)?;

    let params = QueryParams::try_new(mu, eps).map_err(|e| e.to_string())?;
    let clustering = index.cluster_with(params, BorderAssignment::MostSimilar);
    let roles = classify_roles(index.graph(), &clustering);
    println!(
        "clusters {}  |  {:?}  |  modularity {:.4}",
        clustering.num_clusters(),
        role_counts(&roles),
        modularity(index.graph(), &clustering.labels_with_singletons())
    );

    if let Some(out) = flag(args, "--out") {
        let mut body = String::from("# vertex cluster role\n");
        for v in 0..clustering.labels.len() {
            let label = clustering.labels[v];
            let label_str = if label == UNCLUSTERED {
                "-".to_string()
            } else {
                label.to_string()
            };
            body.push_str(&format!("{v} {label_str} {:?}\n", roles[v]));
        }
        std::fs::write(&out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote assignments to {out}");
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("sweep needs a graph or index path")?;
    let step: f32 = parse(args, "--eps-step")?.unwrap_or(0.05);
    if !(0.0..1.0).contains(&step) || step <= 0.0 {
        return Err(format!("--eps-step must be in (0, 1), got {step}"));
    }
    let index = load_or_build_index(path, args)?;
    let g = index.graph();

    let grid = SweepGrid::stepped(g.max_degree() as u32 + 1, step);
    let result = sweep(&index, &grid, |c| {
        if c.num_clusters() == 0 {
            f64::NEG_INFINITY
        } else {
            modularity(g, &c.labels_with_singletons())
        }
    });
    // Report the per-μ bests so the quality surface is visible.
    for &mu in &grid.mus {
        if let Some(p) = result
            .points
            .iter()
            .filter(|p| p.params.mu == mu && p.score.is_finite())
            .max_by(|a, b| a.score.partial_cmp(&b.score).expect("finite"))
        {
            println!(
                "μ={:<6} best modularity {:.4} at ε={:.2} ({} clusters, {} clustered)",
                mu, p.score, p.params.epsilon, p.num_clusters, p.num_clustered
            );
        }
    }
    let best = result.best_params();
    println!(
        "best: modularity {:.4} at (μ={}, ε={:.2})",
        result.best_score(),
        best.mu,
        best.epsilon
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use parscan::server::{build_index_from_path, serve, warm_boot, ServeConfig};
    use parscan::store::IndexStore;
    use std::sync::Arc;

    // The graph path is optional when a store directory can warm-boot
    // the working set instead.
    let path = args.first().filter(|a| !a.starts_with('-'));
    let port: u16 = parse(args, "--port")?.ok_or("--port is required")?;
    let host = flag(args, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let cache: usize = parse(args, "--cache")?.unwrap_or(128);
    let budget_mib: Option<usize> = parse(args, "--budget")?;
    let max_graphs: usize = parse(args, "--max-graphs")?.unwrap_or(64);
    let store_dir = flag(args, "--store-dir");
    // Fault injection is armed only via the environment so production
    // invocations never pay for (or accidentally enable) it.
    failpoint::init_from_env();
    let store = store_dir
        .map(|dir| IndexStore::open(&dir).map_err(|e| format!("cannot open store {dir}: {e}")))
        .transpose()?
        .map(Arc::new);
    if path.is_none() && store.is_none() {
        return Err("serve needs a graph or index path (or --store-dir)".into());
    }
    let defaults = ServeConfig::default();
    let serve_config = ServeConfig {
        store: store.clone(),
        workers: parse(args, "--workers")?.unwrap_or(defaults.workers),
        max_connections: parse(args, "--max-conns")?.unwrap_or(defaults.max_connections),
        queue_limit: parse(args, "--queue")?.unwrap_or(defaults.queue_limit),
        deadline: parse::<u64>(args, "--deadline-ms")?
            .map(std::time::Duration::from_millis)
            .or(defaults.deadline),
        idle_timeout: parse::<u64>(args, "--idle-timeout")?
            .map(std::time::Duration::from_millis)
            .or(defaults.idle_timeout),
        watchdog_stuck_after: parse::<u64>(args, "--watchdog-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.watchdog_stuck_after),
    };

    // The default graph's name: --name wins; otherwise the store's
    // pinned manifest entry (the previous run's default); else "default".
    let boot_name = flag(args, "--name")
        .or_else(|| {
            store.as_ref().and_then(|s| {
                s.entries()
                    .iter()
                    .find(|e| e.pinned)
                    .map(|e| e.name.clone())
            })
        })
        .unwrap_or_else(|| "default".to_string());

    let registry = Arc::new(GraphRegistry::new(
        boot_name.clone(),
        RegistryConfig {
            byte_budget: budget_mib.map(|m| m * (1 << 20)),
            max_graphs,
            engine: EngineConfig {
                cache_capacity: cache,
                ..Default::default()
            },
        },
    ));

    // Warm boot: repopulate the registry from snapshots, no rebuilds.
    if let Some(store) = &store {
        let report = warm_boot(&registry, store);
        if !report.loaded.is_empty() {
            println!(
                "warm boot: {} graph(s) restored from {} in {} ms",
                report.loaded.len(),
                store.dir().display(),
                report.millis,
            );
        }
        for (name, why) in &report.skipped {
            eprintln!("warm boot: skipped @{name}: {why}");
        }
    }

    // The boot graph honors --jaccard/--approx; additional graphs
    // (preloaded here or LOADed at runtime) use the default index
    // configuration, exactly like the protocol's LOAD command. A warm
    // boot that already restored the default graph wins over the path
    // argument — loading a snapshot beats rebuilding an index.
    if registry.get(None).is_err() {
        let path = path.ok_or_else(|| {
            format!("the store has no snapshot of {boot_name:?}; serve needs a graph path")
        })?;
        let index = load_or_build_index(path, args)?;
        registry
            .install(boot_name.clone(), index)
            .map_err(|e| e.to_string())?;
    }
    for spec in flag_values(args, "--graph") {
        let (name, gpath) = spec
            .split_once('=')
            .ok_or_else(|| format!("--graph expects NAME=PATH, got {spec:?}"))?;
        // A name the warm boot already restored reports AlreadyLoaded:
        // the snapshot wins over rebuilding from the path.
        let (tx, rx) = std::sync::mpsc::channel();
        registry.load(
            name,
            None,
            || build_index_from_path(gpath),
            move |result| {
                let _ = tx.send(result);
            },
        );
        rx.recv()
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }

    let server = serve(Arc::clone(&registry), (host.as_str(), port), serve_config)
        .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    let stats = registry.stats();
    println!(
        "serving {} graph(s) on {} (~{} MiB resident{}, cache {cache}/graph{}); \
         line protocol: [@graph] CLUSTER/PROBE/SWEEP/STATS, [@graph] INSERT/DELETE/APPLY, \
         LOAD/UNLOAD/SAVE/LIST, BATCH/PING/QUIT/SHUTDOWN",
        stats.graphs,
        server.addr(),
        stats.bytes_resident / (1 << 20),
        match stats.byte_budget {
            Some(b) => format!(" of {} MiB budget", b / (1 << 20)),
            None => String::new(),
        },
        match &store {
            Some(s) => format!(", store {}", s.dir().display()),
            None => String::new(),
        },
    );
    for info in registry.list() {
        println!(
            "  @{}{}: {} vertices / {} edges, {} ε-breakpoints (~{} MiB)",
            info.name,
            if info.is_default { " (default)" } else { "" },
            info.vertices,
            info.edges,
            info.breakpoints,
            info.bytes / (1 << 20),
        );
    }
    // Runs until a client sends SHUTDOWN.
    server.wait();
    println!("server stopped");
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("convert needs exactly <in> <out>".into());
    };
    let g = load_graph(input)?;
    write_graph(&g, output)?;
    println!(
        "converted {input} -> {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    use parscan::graph::generators as gen;
    let kind = args
        .first()
        .ok_or("generate needs a kind (rmat|er|sbm|wsbm)")?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let n: usize = parse(args, "--n")?.unwrap_or(10_000);
    let deg: f64 = parse(args, "--deg")?.unwrap_or(16.0);
    let seed: u64 = parse(args, "--seed")?.unwrap_or(1);
    let communities: usize = parse(args, "--communities")?.unwrap_or(16);

    let g = match kind.as_str() {
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            gen::rmat(scale, deg as usize / 2, seed)
        }
        "er" => gen::erdos_renyi(n, (n as f64 * deg / 2.0) as usize, seed),
        "sbm" => gen::planted_partition(n, communities, deg * 0.85, deg * 0.15, seed).0,
        "wsbm" => gen::weighted_planted_partition(n, communities, deg * 0.85, deg * 0.15, seed).0,
        other => return Err(format!("unknown generator {other:?}")),
    };
    write_graph(&g, &out)?;
    println!(
        "wrote {} ({} vertices, {} edges) to {out}",
        kind,
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}
