//! `rchbench agree`: do two sets of runs of the same commit agree within
//! the benchmark's own bounds?
//!
//! Each set is a directory of result files written by `rchbench run
//! --out`. For every workload and every end-to-end metric of
//! `BENCHMARK.json`, the tool prints each set's quartiles and spread (the
//! distance between the quartiles as a share of the median). It fails
//! when the two medians differ by more than the metric's bound, or when
//! a set's spread exceeds the bound: a benchmark that noisy cannot tell
//! a regression of that size from chance. `setup_s` is exempt from the
//! spread rule only.

use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Allowed relative change of the median.
    pub bound: f64,
}

/// Metric values per workload, one map per run.
pub type RunSet = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/unit/bound".to_owned())
}

/// The untraced result files (`*.json`) in `dir`, grouped by workload.
pub fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.entry(workload.to_owned()).or_default().push(metrics);
    }
    Ok(set)
}

/// Compares two run sets metric by metric. Returns the printed table and
/// whether every median pair agreed.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    out.push_str(&format!(
        "{:<15} {:<14} {:>32} {:>32} {:>8} {:>6}\n",
        "workload",
        "metric",
        "A q1/median/q3 (spread)",
        "B q1/median/q3 (spread)",
        "Δmedian",
        "bound"
    ));
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for w in workloads {
        for bound in bounds {
            let values = |set: &RunSet| -> Vec<f64> {
                set.get(w)
                    .into_iter()
                    .flatten()
                    .filter_map(|run| run.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                ok = false;
                out.push_str(&format!(
                    "{w:<15} {:<14} missing in one set ({} vs {} runs)  FAIL\n",
                    bound.name,
                    va.len(),
                    vb.len()
                ));
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let delta = (qb[1] - qa[1]) / qa[1];
            let steady = bound.name == "setup_s" || spread(qa).max(spread(qb)) <= bound.bound;
            let agrees = steady && delta.abs() <= bound.bound;
            ok &= agrees;
            let cell = |q: [f64; 3]| {
                format!(
                    "{:.4}/{:.4}/{:.4} ({:.1}%)",
                    q[0],
                    q[1],
                    q[2],
                    spread(q) * 100.0
                )
            };
            out.push_str(&format!(
                "{w:<15} {:<14} {:>32} {:>32} {:>+7.2}% {:>5.1}%  {}\n",
                format!("{} {}", bound.name, bound.unit),
                cell(qa),
                cell(qb),
                delta * 100.0,
                bound.bound * 100.0,
                if agrees { "ok" } else { "FAIL" }
            ));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, values: &[(f64, f64)]) -> RunSet {
        let runs = values
            .iter()
            .map(|&(ops, setup)| {
                BTreeMap::from([("ops_per_s".to_owned(), ops), ("setup_s".to_owned(), setup)])
            })
            .collect();
        BTreeMap::from([(workload.to_owned(), runs)])
    }

    fn two_bounds() -> Vec<Bound> {
        ["ops_per_s", "setup_s"]
            .iter()
            .map(|n| Bound {
                name: (*n).to_owned(),
                unit: "x".to_owned(),
                bound: 0.05,
            })
            .collect()
    }

    #[test]
    fn medians_within_bound_agree() {
        let a = set("w", &[(100.0, 0.2), (101.0, 0.2), (99.0, 0.2)]);
        let b = set("w", &[(103.0, 0.204), (102.0, 0.203), (104.0, 0.202)]);
        let (table, ok) = compare(&a, &b, &two_bounds());
        assert!(ok, "{table}");
    }

    #[test]
    fn medians_beyond_bound_fail() {
        let a = set("w", &[(100.0, 0.1), (100.0, 0.1), (100.0, 0.1)]);
        let b = set("w", &[(110.0, 0.14), (110.0, 0.14), (110.0, 0.14)]);
        let (table, ok) = compare(&a, &b, &two_bounds());
        assert!(!ok);
        for metric in ["ops_per_s", "setup_s"] {
            let line = table.lines().find(|l| l.contains(metric)).expect("row");
            assert!(line.ends_with("FAIL"), "{line}");
        }
    }

    #[test]
    fn a_spread_beyond_bound_fails_except_for_setup() {
        // Equal medians, but the middle half spans 20 % of the median.
        let a = set("w", &[(90.0, 0.1), (100.0, 0.2), (110.0, 0.3)]);
        let (table, ok) = compare(&a, &a, &two_bounds());
        assert!(!ok);
        let row = |metric: &str| table.lines().find(|l| l.contains(metric)).expect("row");
        assert!(row("ops_per_s").ends_with("FAIL"), "{table}");
        assert!(row("setup_s").ends_with("ok"), "{table}");
    }

    #[test]
    fn a_workload_missing_from_one_set_fails() {
        let a = set("w", &[(100.0, 0.1)]);
        let b = set("v", &[(100.0, 0.1)]);
        assert!(!compare(&a, &b, &two_bounds()).1);
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let doc = json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#,
        )
        .expect("valid");
        assert_eq!(
            bounds(&doc).expect("well-formed"),
            vec![Bound {
                name: "setup_s".to_owned(),
                unit: "s".to_owned(),
                bound: 0.2
            }]
        );
    }
}
