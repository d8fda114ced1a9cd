//! Tiny-scale self-test: every workload, in both modes, emits every
//! metric named in `BENCHMARK.json` with its unit and a finite value,
//! passes its own answer checks, and generates the pinned inputs.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
}

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let Some(Json::Arr(items)) = Json::parse(&text).unwrap().get(list).cloned() else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.str("name").unwrap().to_string(),
                m.str("unit").unwrap().to_string(),
            )
        })
        .collect()
}

/// Run one tiny workload; return its stdout lines.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_scanbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(root())
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn check(workload: &str, trace: bool, fingerprint: &str) {
    let lines = run(workload, trace);
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("input ") && l.ends_with(fingerprint)),
        "{workload}: the generated input changed: {lines:?}"
    );
    let result = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        result.bool("correct"),
        Some(true),
        "{workload} trace={trace}"
    );
    assert_eq!(result.u64("failed"), Some(0));
    assert!(result.u64("attempted").unwrap() >= 1);
    let metrics = result.get("metrics").unwrap();
    let list = if trace { "per_layer" } else { "end_to_end" };
    let names = declared(list);
    let Json::Obj(emitted) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(emitted.len(), names.len(), "{workload}: {list} count");
    for (name, unit) in names {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: no {name}"));
        assert_eq!(
            m.str("unit"),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let value = m.f64("value").unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    if trace {
        for gap in ["reactor.gap_us", "setup.gap_ms"] {
            assert!(metrics.get(gap).is_some(), "{workload}: no {gap}");
        }
    }
}

const RMAT: &str = "n=2045 m=12000 hash=2b5ea57a0df1daee";
const PLANTED: &str = "n=2400 m=19000 hash=f86df5ce5bd55df3";

#[test]
fn explore_emits_every_metric() {
    check("explore", false, RMAT);
    check("explore", true, RMAT);
}

#[test]
fn serve_emits_every_metric() {
    check("serve", false, PLANTED);
    check("serve", true, PLANTED);
}

#[test]
fn churn_emits_every_metric() {
    check("churn", false, PLANTED);
    check("churn", true, PLANTED);
}
