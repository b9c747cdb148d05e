//! Runs every workload at toy size (`javalib-lang`, a few ops, a 24-edit
//! stream), untraced and traced, and checks what the benchmark promises:
//! the output checks pass, no op fails, and every metric `BENCHMARK.json`
//! declares is printed by name with its unit — on its own line and in
//! the JSON result on the last line.

use atlas_store::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric of one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir(workload: &str, trace: bool) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{}", u8::from(trace)))
}

/// Runs one toy-size workload and returns its stdout lines.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--toy"])
        .arg("--out")
        .arg(out_dir(workload, trace))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

fn check(workload: &str, trace: bool) {
    let lines = run(workload, trace);
    let result = Json::parse(lines.last().expect("a result line")).expect("a JSON result");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(Json::as_int), Some(0));
    assert!(result.get("attempted").and_then(Json::as_int) >= Some(1));
    let metrics = result.get("metrics").expect("metrics");
    let wanted = declared(if trace { "per_layer" } else { "end_to_end" });
    let Json::Obj(entries) = metrics else {
        panic!("metrics is an object")
    };
    assert_eq!(
        entries.len(),
        wanted.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in &wanted {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name}"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .expect("a number");
        assert!(value.is_finite());
        if !trace {
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
        let printed = lines
            .iter()
            .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}")));
        assert!(printed, "{workload}: {name} printed with its unit");
    }
    if trace {
        let mismatches = metrics.get("work.mismatches").and_then(|m| m.get("value"));
        assert_eq!(
            mismatches.and_then(Json::as_f64),
            Some(0.0),
            "{workload}: the work matches its recorded fingerprint"
        );
        let dir = out_dir(workload, trace).join(workload);
        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("a Chrome trace");
        let trace = Json::parse(&trace).expect("the trace is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let pids = |pid: i64| events.iter().any(|e| e.get("pid") == Some(&Json::Int(pid)));
        assert!(
            pids(1) && pids(2),
            "{workload}: benchmark and program spans"
        );
        assert!(dir.join("layers.json").exists());
    }
}

#[test]
fn cold_javalib_untraced() {
    check("cold-javalib", false);
}

#[test]
fn cold_javalib_traced() {
    check("cold-javalib", true);
}

#[test]
fn warm_restart_untraced() {
    check("warm-restart", false);
}

#[test]
fn warm_restart_traced() {
    check("warm-restart", true);
}

#[test]
fn serve_edits_untraced() {
    check("serve-edits", false);
}

#[test]
fn serve_edits_traced() {
    check("serve-edits", true);
}

#[test]
fn a_missing_workload_name_fails_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
