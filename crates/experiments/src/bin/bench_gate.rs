//! Bench-regression gate: compares a fresh `CRITERION_JSON` run against
//! the committed reference under `results/` and fails CI when the hot
//! paths drift.
//!
//! ```text
//! bench_gate <fresh.json> <baseline.json> [<fresh2.json> <baseline2.json> ...]
//! ```
//!
//! For every benchmark id present in a baseline file the gate looks up
//! the fresh mean and prints one delta-table row. A benchmark is out of
//! band when the fresh mean differs from the baseline by more than
//! ±15 %: slower is a regression, faster means the committed reference
//! is stale — both exit non-zero so the reference stays honest. On top
//! of the per-benchmark band, the fleet file carries a hard scaling
//! assertion: `fleet_parallel/jobs/8` must run in at most half the
//! `fleet_parallel/jobs/1` mean.
//!
//! Both checks are only meaningful on hardware comparable to the
//! reference runner. Each JSON document carries the machine block the
//! vendored criterion harness emits (`logical_cores`, the
//! `DROIDSIM_JOBS` resolution); when a fresh file's core count differs
//! from its baseline's — a laptop checking against the 8-core CI
//! reference — that pair's violations are downgraded to warnings. The
//! other pairs still fail the gate, so it exits 0 only when every
//! violation comes from a mismatched pair.
//!
//! The parser is deliberately small and hand-rolled (the workspace has
//! no JSON dependency): it reads the exact one-benchmark-per-line
//! layout the vendored harness writes, which is the only producer of
//! these files.

use std::process::ExitCode;

/// Relative tolerance band around every baseline mean.
const TOLERANCE: f64 = 0.15;
/// `jobs/8` must be at least this factor faster than `jobs/1`.
const SCALING_FACTOR: f64 = 0.5;
const FLEET_WIDE: &str = "fleet_parallel/jobs/1";
const FLEET_NARROW: &str = "fleet_parallel/jobs/8";
/// The warm-path cache must buy at least this speedup on the
/// repeated-shape fleet (cold mean / warm mean).
const MEMO_SPEEDUP: f64 = 1.5;
/// Allowed slowdown on the unique-shape fleet with the caches on.
/// Digesting a never-seen template once per probe is an irreducible
/// cost, and the unique arms re-build their 16 templates inside the
/// timed region, so this band is the general [`TOLERANCE`] plus the
/// arm's observed run-to-run variance. The pre-admission-fix
/// regression this check exists to catch measured +22%.
const MEMO_UNIQUE_TOLERANCE: f64 = 0.20;
/// The analyzer-throughput scaling pair: 8-way linting of the data-loss
/// corpus must run in at most this factor of the serial mean. Looser
/// than [`SCALING_FACTOR`]: per-app lint work is smaller than a full
/// device simulation, so fixed fleet overhead weighs more.
const THROUGHPUT_FACTOR: f64 = 0.6;
const THROUGHPUT_WIDE: &str = "fleet_parallel/rchlint_throughput/jobs/1";
const THROUGHPUT_NARROW: &str = "fleet_parallel/rchlint_throughput/jobs/8";
const MEMO_WARM: &str = "fleet_parallel/memo/warm";
const MEMO_COLD: &str = "fleet_parallel/memo/cold";
const MEMO_UNIQUE: &str = "fleet_parallel/memo/unique";
const MEMO_UNIQUE_COLD: &str = "fleet_parallel/memo/unique_cold";

#[derive(Debug, Clone, PartialEq)]
struct Benchmark {
    id: String,
    mean_ns: f64,
    iterations: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct BenchDoc {
    logical_cores: Option<u64>,
    droidsim_jobs: Option<String>,
    benchmarks: Vec<Benchmark>,
}

/// Extracts the JSON string value following `"key": "` on `line`.
/// Escapes are left verbatim — ids and jobs strings never contain any.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the JSON number following `"key": ` on `line`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let tail: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    tail.parse().ok()
}

/// Parses the vendored harness's `CRITERION_JSON` layout: one machine
/// line, then one line per benchmark.
fn parse_doc(text: &str) -> BenchDoc {
    let mut doc = BenchDoc::default();
    for line in text.lines() {
        if line.contains("\"machine\":") {
            doc.logical_cores = number_field(line, "logical_cores").map(|n| n as u64);
            doc.droidsim_jobs = string_field(line, "droidsim_jobs");
        } else if let Some(id) = string_field(line, "id") {
            let Some(mean_ns) = number_field(line, "mean_ns") else {
                continue;
            };
            let iterations = number_field(line, "iterations").map_or(0, |n| n as u64);
            doc.benchmarks.push(Benchmark {
                id,
                mean_ns,
                iterations,
            });
        }
    }
    doc
}

fn mean_of<'d>(doc: &'d BenchDoc, id: &str) -> Option<&'d Benchmark> {
    doc.benchmarks.iter().find(|b| b.id == id)
}

/// One violation, already rendered.
struct Violation {
    message: String,
}

/// Compares `fresh` to `baseline`, printing the delta table and
/// collecting violations.
fn compare_pair(label: &str, fresh: &BenchDoc, baseline: &BenchDoc) -> Vec<Violation> {
    let mut violations = Vec::new();
    println!("== {label}");
    println!(
        "   {:<44} {:>14} {:>14} {:>8}  verdict",
        "benchmark", "baseline ns", "fresh ns", "delta"
    );
    for base in &baseline.benchmarks {
        let Some(fresh_b) = mean_of(fresh, &base.id) else {
            violations.push(Violation {
                message: format!("{label}: `{}` missing from the fresh run", base.id),
            });
            println!(
                "   {:<44} {:>14.1} {:>14} {:>8}  MISSING",
                base.id, base.mean_ns, "-", "-"
            );
            continue;
        };
        if base.mean_ns == 0.0 || fresh_b.mean_ns == 0.0 {
            // --test smoke mode writes 0.0 means; nothing to compare.
            println!(
                "   {:<44} {:>14.1} {:>14.1} {:>8}  skipped (smoke)",
                base.id, base.mean_ns, fresh_b.mean_ns, "-"
            );
            continue;
        }
        let delta = (fresh_b.mean_ns - base.mean_ns) / base.mean_ns;
        let verdict = if delta > TOLERANCE {
            violations.push(Violation {
                message: format!(
                    "{label}: `{}` regressed {:+.1}% (baseline {:.1} ns, fresh {:.1} ns, band ±{:.0}%)",
                    base.id,
                    delta * 100.0,
                    base.mean_ns,
                    fresh_b.mean_ns,
                    TOLERANCE * 100.0
                ),
            });
            "REGRESSED"
        } else if delta < -TOLERANCE {
            violations.push(Violation {
                message: format!(
                    "{label}: `{}` improved {:+.1}% past the ±{:.0}% band — refresh the committed reference (make bench-json)",
                    base.id,
                    delta * 100.0,
                    TOLERANCE * 100.0
                ),
            });
            "STALE BASELINE"
        } else {
            "ok"
        };
        println!(
            "   {:<44} {:>14.1} {:>14.1} {:>+7.1}%  {verdict}",
            base.id,
            base.mean_ns,
            fresh_b.mean_ns,
            delta * 100.0
        );
    }
    violations
}

/// Whether `doc` was produced on a host that can demonstrate parallel
/// speedup at all. A single logical core runs every jobs=N arm on the
/// same core; its ratios measure scheduler overhead, not scaling, so
/// the scaling gates report them without enforcing.
fn can_scale(doc: &BenchDoc) -> bool {
    doc.logical_cores.is_none_or(|c| c > 1)
}

/// A generic narrow/wide scaling assertion over one document.
fn check_ratio(
    label: &str,
    doc: &BenchDoc,
    gate: &str,
    wide_id: &str,
    narrow_id: &str,
    factor: f64,
) -> Vec<Violation> {
    let (Some(wide), Some(narrow)) = (mean_of(doc, wide_id), mean_of(doc, narrow_id)) else {
        return Vec::new();
    };
    if wide.mean_ns == 0.0 || narrow.mean_ns == 0.0 {
        return Vec::new();
    }
    let ratio = narrow.mean_ns / wide.mean_ns;
    if !can_scale(doc) {
        println!("   {gate}: {narrow_id} / {wide_id} = {ratio:.3} (single core: not enforced)");
        return Vec::new();
    }
    println!("   {gate}: {narrow_id} / {wide_id} = {ratio:.3} (required ≤ {factor})");
    if ratio <= factor {
        Vec::new()
    } else {
        vec![Violation {
            message: format!(
                "{label}: `{narrow_id}` ran at {ratio:.2}× the `{wide_id}` mean; \
                 the {gate} gate requires ≤ {factor}×"
            ),
        }]
    }
}

/// The hard scaling assertion over one document's fleet arms.
fn check_scaling(label: &str, doc: &BenchDoc) -> Vec<Violation> {
    check_ratio(
        label,
        doc,
        "scaling",
        FLEET_WIDE,
        FLEET_NARROW,
        SCALING_FACTOR,
    )
}

/// The analyzer-throughput assertion over one document's
/// `rchlint_throughput` arms.
fn check_throughput(label: &str, doc: &BenchDoc) -> Vec<Violation> {
    check_ratio(
        label,
        doc,
        "rchlint-throughput",
        THROUGHPUT_WIDE,
        THROUGHPUT_NARROW,
        THROUGHPUT_FACTOR,
    )
}

/// The warm-path cache assertions over one document's memo arms:
/// repeated shapes must be ≥ [`MEMO_SPEEDUP`]× faster warm than cold,
/// and unique shapes must not pay more than the tolerance band for
/// having the caches on.
fn check_memo(label: &str, doc: &BenchDoc) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let (Some(warm), Some(cold)) = (mean_of(doc, MEMO_WARM), mean_of(doc, MEMO_COLD)) {
        if warm.mean_ns > 0.0 && cold.mean_ns > 0.0 {
            let speedup = cold.mean_ns / warm.mean_ns;
            println!(
                "   memo: {MEMO_COLD} / {MEMO_WARM} = {speedup:.2}x (required ≥ {MEMO_SPEEDUP}x)"
            );
            if speedup < MEMO_SPEEDUP {
                violations.push(Violation {
                    message: format!(
                        "{label}: the warm-path cache bought only {speedup:.2}x on the \
                         repeated-shape fleet; the memo gate requires ≥ {MEMO_SPEEDUP}x"
                    ),
                });
            }
        }
    }
    if let (Some(on), Some(off)) = (mean_of(doc, MEMO_UNIQUE), mean_of(doc, MEMO_UNIQUE_COLD)) {
        if on.mean_ns > 0.0 && off.mean_ns > 0.0 {
            let overhead = on.mean_ns / off.mean_ns - 1.0;
            println!(
                "   memo: {MEMO_UNIQUE} / {MEMO_UNIQUE_COLD} = {:+.1}% (allowed ≤ +{:.0}%)",
                overhead * 100.0,
                MEMO_UNIQUE_TOLERANCE * 100.0
            );
            if overhead > MEMO_UNIQUE_TOLERANCE {
                violations.push(Violation {
                    message: format!(
                        "{label}: the caches cost {:+.1}% on the unique-shape fleet \
                         (allowed ≤ +{:.0}%) — the admission path regressed the miss path",
                        overhead * 100.0,
                        MEMO_UNIQUE_TOLERANCE * 100.0
                    ),
                });
            }
        }
    }
    violations
}

/// The gate's violations, split by whether they fail it.
#[derive(Default)]
struct Verdict {
    /// From pairs measured on their baseline's core count.
    failures: Vec<Violation>,
    /// From pairs whose fresh and baseline core counts differ.
    warnings: Vec<Violation>,
}

impl Verdict {
    /// Prints the summary; only failures fail the gate.
    fn report(&self) -> ExitCode {
        if !self.warnings.is_empty() {
            println!(
                "bench gate: {} violation(s) on mismatched hardware — reported as warnings only:",
                self.warnings.len()
            );
            for v in &self.warnings {
                println!("  warning: {}", v.message);
            }
        }
        if self.failures.is_empty() {
            if self.warnings.is_empty() {
                println!(
                    "bench gate: all benchmarks within ±{:.0}%",
                    TOLERANCE * 100.0
                );
            }
            return ExitCode::SUCCESS;
        }
        eprintln!("bench gate: {} violation(s):", self.failures.len());
        for v in &self.failures {
            eprintln!("  {}", v.message);
        }
        ExitCode::FAILURE
    }
}

/// Runs every check over each `(baseline path, fresh, baseline)` pair.
/// A pair whose fresh and baseline `logical_cores` differ has all its
/// violations (band, scaling, throughput, memo) downgraded to warnings.
fn gate(pairs: &[(String, BenchDoc, BenchDoc)]) -> Verdict {
    let mut verdict = Verdict::default();
    for (base_path, fresh, baseline) in pairs {
        let mut mismatch = false;
        if let (Some(f), Some(b)) = (fresh.logical_cores, baseline.logical_cores) {
            if f != b {
                mismatch = true;
                println!(
                    "== {base_path}: machine mismatch — baseline has {b} logical core(s) \
                     (jobs={}), this machine has {f} (jobs={})",
                    baseline.droidsim_jobs.as_deref().unwrap_or("unset"),
                    fresh.droidsim_jobs.as_deref().unwrap_or("unset"),
                );
            }
        }
        let mut violations = compare_pair(base_path, fresh, baseline);
        violations.extend(check_scaling("fresh run", fresh));
        violations.extend(check_scaling(base_path, baseline));
        violations.extend(check_throughput("fresh run", fresh));
        violations.extend(check_throughput(base_path, baseline));
        violations.extend(check_memo("fresh run", fresh));
        violations.extend(check_memo(base_path, baseline));
        if mismatch {
            verdict.warnings.extend(violations);
        } else {
            verdict.failures.extend(violations);
        }
    }
    verdict
}

fn main() -> ExitCode {
    rch_experiments::version_flag();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_gate <fresh.json> <baseline.json> [...more pairs]");
        return ExitCode::from(2);
    }

    let mut pairs = Vec::new();
    for pair in args.chunks(2) {
        let (fresh_path, base_path) = (&pair[0], &pair[1]);
        let read = |path: &str| match std::fs::read_to_string(path) {
            Ok(text) => Some(parse_doc(&text)),
            Err(e) => {
                eprintln!("bench_gate: cannot read {path}: {e}");
                None
            }
        };
        let (Some(fresh), Some(baseline)) = (read(fresh_path), read(base_path)) else {
            return ExitCode::from(2);
        };
        pairs.push((base_path.clone(), fresh, baseline));
    }
    gate(&pairs).report()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "machine": {"logical_cores": 8, "droidsim_jobs": "unset"},
  "benchmarks": [
    {"id": "fleet_parallel/jobs/1", "mean_ns": 16000000.0, "iterations": 155},
    {"id": "fleet_parallel/jobs/8", "mean_ns": 6400000.0, "iterations": 300}
  ]
}
"#;

    #[test]
    fn parses_machine_and_benchmarks() {
        let doc = parse_doc(DOC);
        assert_eq!(doc.logical_cores, Some(8));
        assert_eq!(doc.droidsim_jobs.as_deref(), Some("unset"));
        assert_eq!(doc.benchmarks.len(), 2);
        assert_eq!(doc.benchmarks[0].id, "fleet_parallel/jobs/1");
        assert_eq!(doc.benchmarks[0].mean_ns, 16_000_000.0);
        assert_eq!(doc.benchmarks[1].iterations, 300);
    }

    #[test]
    fn tolerates_missing_machine_block() {
        let doc = parse_doc("{\n  \"benchmarks\": [\n    {\"id\": \"x\", \"mean_ns\": 5.0, \"iterations\": 1}\n  ]\n}\n");
        assert_eq!(doc.logical_cores, None);
        assert_eq!(doc.benchmarks.len(), 1);
    }

    #[test]
    fn in_band_run_passes() {
        let baseline = parse_doc(DOC);
        let mut fresh = baseline.clone();
        for b in &mut fresh.benchmarks {
            b.mean_ns *= 1.10; // +10 % is inside the ±15 % band
        }
        assert!(compare_pair("t", &fresh, &baseline).is_empty());
    }

    #[test]
    fn regression_and_stale_baseline_both_violate() {
        let baseline = parse_doc(DOC);
        let mut fresh = baseline.clone();
        fresh.benchmarks[0].mean_ns *= 1.30;
        fresh.benchmarks[1].mean_ns *= 0.50;
        let violations = compare_pair("t", &fresh, &baseline);
        assert_eq!(violations.len(), 2);
        assert!(violations[0].message.contains("regressed"));
        assert!(violations[1]
            .message
            .contains("refresh the committed reference"));
    }

    #[test]
    fn missing_fresh_benchmark_violates() {
        let baseline = parse_doc(DOC);
        let mut fresh = baseline.clone();
        fresh.benchmarks.pop();
        let violations = compare_pair("t", &fresh, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("missing"));
    }

    #[test]
    fn scaling_gate_enforces_half() {
        let good = parse_doc(DOC); // 6.4 ms vs 16 ms = 0.4×
        assert!(check_scaling("t", &good).is_empty());
        let mut bad = good.clone();
        bad.benchmarks[1].mean_ns = 9_000_000.0; // 0.5625×
        let violations = check_scaling("t", &bad);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("scaling gate"));
    }

    #[test]
    fn throughput_gate_enforces_parallel_linting_on_multicore_only() {
        let doc = |cores: u64, narrow_ns: f64| {
            parse_doc(&format!(
                "{{\n  \"machine\": {{\"logical_cores\": {cores}, \"droidsim_jobs\": \"unset\"}},\n  \
                 \"benchmarks\": [\n    \
                 {{\"id\": \"fleet_parallel/rchlint_throughput/jobs/1\", \"mean_ns\": 10000000.0, \"iterations\": 50}},\n    \
                 {{\"id\": \"fleet_parallel/rchlint_throughput/jobs/8\", \"mean_ns\": {narrow_ns}, \"iterations\": 50}}\n  ]\n}}\n"
            ))
        };
        assert!(check_throughput("t", &doc(8, 5_000_000.0)).is_empty());
        let violations = check_throughput("t", &doc(8, 9_000_000.0));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("rchlint-throughput"));
        // A single-core host cannot demonstrate scaling: report only.
        assert!(check_throughput("t", &doc(1, 9_000_000.0)).is_empty());
        assert!(check_scaling(
            "t",
            &parse_doc(&DOC.replace("\"logical_cores\": 8", "\"logical_cores\": 1"))
        )
        .is_empty());
    }

    const MEMO_DOC: &str = r#"{
  "machine": {"logical_cores": 8, "droidsim_jobs": "unset"},
  "benchmarks": [
    {"id": "fleet_parallel/memo/warm", "mean_ns": 1000000.0, "iterations": 100},
    {"id": "fleet_parallel/memo/cold", "mean_ns": 2000000.0, "iterations": 100},
    {"id": "fleet_parallel/memo/unique", "mean_ns": 2050000.0, "iterations": 100},
    {"id": "fleet_parallel/memo/unique_cold", "mean_ns": 2000000.0, "iterations": 100}
  ]
}
"#;

    #[test]
    fn memo_gate_enforces_speedup_and_unique_overhead() {
        let good = parse_doc(MEMO_DOC); // 2.0x warm speedup, +2.5% unique
        assert!(check_memo("t", &good).is_empty());

        let mut slow_warm = good.clone();
        slow_warm.benchmarks[0].mean_ns = 1_500_000.0; // 1.33x < 1.5x
        let violations = check_memo("t", &slow_warm);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("memo gate"));

        let mut costly_unique = good.clone();
        costly_unique.benchmarks[2].mean_ns = 2_500_000.0; // +25% > +20%
        let violations = check_memo("t", &costly_unique);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("unique-shape"));
    }

    #[test]
    fn memo_gate_skips_absent_and_smoke_arms() {
        // A doc with no memo arms (the migration bench) has nothing to
        // check; zero means (smoke mode) are skipped too.
        assert!(check_memo("t", &parse_doc(DOC)).is_empty());
        let mut smoke = parse_doc(MEMO_DOC);
        for b in &mut smoke.benchmarks {
            b.mean_ns = 0.0;
        }
        assert!(check_memo("t", &smoke).is_empty());
    }

    #[test]
    fn smoke_mode_zero_means_are_skipped() {
        let baseline = parse_doc(DOC);
        let mut fresh = baseline.clone();
        for b in &mut fresh.benchmarks {
            b.mean_ns = 0.0;
        }
        assert!(compare_pair("t", &fresh, &baseline).is_empty());
        assert!(check_scaling("t", &fresh).is_empty());
    }

    /// A pair whose fresh means run 30 % slower than the 8-core
    /// baseline's, measured on `cores` logical cores.
    fn slow_pair(cores: u64) -> (String, BenchDoc, BenchDoc) {
        let baseline = parse_doc(DOC);
        let mut fresh = baseline.clone();
        fresh.logical_cores = Some(cores);
        for b in &mut fresh.benchmarks {
            b.mean_ns *= 1.30;
        }
        (format!("baseline-for-{cores}"), fresh, baseline)
    }

    #[test]
    fn a_pair_on_other_hardware_only_warns() {
        let verdict = gate(&[slow_pair(2)]);
        assert!(verdict.failures.is_empty());
        assert_eq!(verdict.warnings.len(), 2, "both arms regressed");
        assert_eq!(verdict.report(), ExitCode::SUCCESS);
    }

    #[test]
    fn a_pair_on_matching_hardware_fails_even_next_to_a_mismatched_one() {
        let verdict = gate(&[slow_pair(8)]);
        assert_eq!(verdict.failures.len(), 2);
        assert!(verdict.warnings.is_empty());
        assert_eq!(verdict.report(), ExitCode::FAILURE);
        let mixed = gate(&[slow_pair(2), slow_pair(8)]);
        assert_eq!((mixed.failures.len(), mixed.warnings.len()), (2, 2));
        assert!(mixed.failures[0].message.contains("baseline-for-8"));
        assert_eq!(mixed.report(), ExitCode::FAILURE);
    }

    #[test]
    fn all_mismatched_pairs_still_exit_zero() {
        let verdict = gate(&[slow_pair(2), slow_pair(4)]);
        assert_eq!(verdict.warnings.len(), 4);
        assert_eq!(verdict.report(), ExitCode::SUCCESS);
    }
}
