//! `rchbench`: one seeded wall-clock benchmark for the RCHDroid
//! reproduction, with layer-attributed traces.
//!
//! Three workloads cover what users of the repository run: a fleet study
//! (`study_fleet`), the paper's mechanism under a rotation storm
//! (`rotation_storm`) and an `rchlint` corpus pass (`lint_corpus`). A
//! run generates its inputs from a seed ([`gen`]), times only the calls
//! into the system under test ([`meter`]) and scales the times to a
//! reference host speed ([`speed`]), checks every output, and
//! prints every metric by name with its unit. A traced run records spans
//! around each call into a layer's public functions ([`trace`]) and
//! splits the time into layers ([`layers`]). See `BENCHMARK.md` next to
//! this crate.

pub mod agree;
pub mod gen;
pub mod json;
pub mod layers;
pub mod meter;
pub mod replica;
pub mod speed;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use meter::Metric;
use workloads::RunReport;

/// The result line a run ends with: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(report: &RunReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics_object(&report.metrics)
    )
}

/// The result file `--out` writes: the result line's fields plus the
/// run's identity and machine metadata.
pub fn result_document(report: &RunReport, workload: &str, seed: u64, traced: bool) -> String {
    let m = &report.machine;
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {traced}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"machine\": {{\"nproc\": {}, \"kernel\": {}}}, \"metrics\": {}}}\n",
        json::string(workload),
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        report.samples,
        m.nproc,
        json::string(&m.kernel),
        metrics_object(&report.metrics)
    )
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Machine;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let report = RunReport {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("op_p50_ms", 1.25, "ms")],
            samples: 10,
            setup_s: 0.1,
            speed_ms: 1.5,
            machine: Machine {
                nproc: 2,
                kernel: "k".to_owned(),
            },
            spans_file: None,
        };
        let line = json::parse(&result_line(&report)).expect("valid JSON");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(json::Value::as_str), Some("ms"));
        let doc = json::parse(&result_document(&report, "w", 1, false)).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(json::Value::as_str), Some("w"));
    }
}
