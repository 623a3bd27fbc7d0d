//! Smoke test: every workload runs briefly with tracing on, prints every
//! per-layer metric with its unit, fails no output check, and attributes
//! at least 90 % of the traced time to layers. `BENCHMARK.json` must name
//! exactly the metrics the binary prints.

use rchbench::json::{self, Value};
use rchbench::layers::PER_LAYER;
use rchbench::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::Command;

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
];

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rchbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `rchbench run` for a fraction of a second; returns stdout and
/// the parsed result line.
fn run(workload: &str, trace: bool, dir: &Path) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_rchbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "2",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(dir.join(format!("{workload}.jsonl")))
        .output()
        .expect("rchbench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

fn check_metrics(workload: &str, stdout: &str, result: &Value, expected: &[(&str, &str)]) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), expected.len(), "{workload}");
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.trim_end().ends_with(unit)),
            "{workload}: {name} is not printed with its unit"
        );
    }
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
}

#[test]
fn every_workload_traces_every_layer_metric() {
    let dir = temp_dir();
    for workload in NAMES {
        let (stdout, result) = run(workload, true, &dir);
        check_metrics(workload, &stdout, &result, &PER_LAYER);
        let unattributed = result
            .get("metrics")
            .and_then(|m| m.get("trace.unattributed_share"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("unattributed share");
        assert!(unattributed <= 0.10, "{workload}: {unattributed}");
        let spans = std::fs::read_to_string(dir.join(format!("{workload}.jsonl"))).expect("spans");
        let first = spans.lines().next().expect("at least one span");
        assert!(json::parse(first)
            .expect("JSON line")
            .get("parent")
            .is_some());
    }
    let (stdout, result) = run("lint_corpus", false, &dir);
    check_metrics("lint_corpus", &stdout, &result, &END_TO_END);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
}
