//! Fleet-parallel corpus analysis and the rendered report.
//!
//! `analyze_specs` partitions a corpus across the deterministic fleet
//! driver; per-app results come back in task-index order, so the
//! report, its digest and all three renderings (human, JSON, SARIF)
//! are bit-identical for any worker count — the property the CI
//! `--jobs 1` vs `--jobs 4` diff enforces.

use crate::diag::{json_string, Diagnostic, LintCode, Severity, Suppressions};
use crate::passes::analyze_app;
use crate::shape::AppShape;
use crate::verdict::{predict, AnalysisMode, Verdict};
use droidsim_fleet::{combine_ordered, run_fleet, Digest, FleetConfig};
use droidsim_metrics::AnalysisLedger;
use rch_workloads::GenericAppSpec;

/// Everything the analyzer found for one app.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    /// App name.
    pub app: String,
    /// Findings that survived suppression, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings dropped by `--allow` rules.
    pub suppressed: u64,
    /// Predicted oracle report under stock handling.
    pub stock: Verdict,
    /// Predicted oracle report under RCHDroid.
    pub rchdroid: Verdict,
    /// Predicted oracle report under RuntimeDroid.
    pub runtimedroid: Verdict,
    /// The data-loss class label, for data-loss corpus apps.
    pub dataloss_class: Option<&'static str>,
}

impl AppAnalysis {
    /// Analyzes one descriptor.
    pub fn of(spec: &GenericAppSpec, allow: &Suppressions) -> AppAnalysis {
        let shape = AppShape::from_spec(spec);
        let all = analyze_app(&shape, Some(spec));
        let (kept, dropped): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|d| !allow.allows(&spec.name, d.code));
        AppAnalysis {
            app: spec.name.clone(),
            diagnostics: kept,
            suppressed: dropped.len() as u64,
            stock: predict(spec, AnalysisMode::Stock),
            rchdroid: predict(spec, AnalysisMode::RchDroid),
            runtimedroid: predict(spec, AnalysisMode::RuntimeDroid),
            dataloss_class: spec.dataloss.as_ref().map(|dl| dl.class.label()),
        }
    }

    /// Per-app digest over diagnostics and verdicts.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str(&self.app);
        d.write_u64(self.diagnostics.len() as u64);
        for diag in &self.diagnostics {
            diag.digest_into(&mut d);
        }
        d.write_u64(self.suppressed);
        self.stock.digest_into(&mut d);
        self.rchdroid.digest_into(&mut d);
        self.runtimedroid.digest_into(&mut d);
        d.finish()
    }

    /// This app's contribution to the run ledger.
    pub fn ledger(&self) -> AnalysisLedger {
        let mut l = AnalysisLedger::new();
        l.apps = 1;
        l.clean_apps = u64::from(self.diagnostics.is_empty());
        l.suppressed = self.suppressed;
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => l.errors += 1,
                Severity::Warning => l.warnings += 1,
                Severity::Info => {}
            }
            *l.by_code.entry(d.code.code().to_owned()).or_insert(0) += 1;
        }
        l.predicted_stock_issues = u64::from(self.stock.has_issue());
        l.predicted_rchdroid_issues = u64::from(self.rchdroid.has_issue());
        l.predicted_runtimedroid_issues = u64::from(self.runtimedroid.has_issue());
        if let Some(class) = self.dataloss_class {
            l.dataloss_apps = 1;
            if self.stock.has_issue() || self.rchdroid.has_issue() || self.runtimedroid.has_issue()
            {
                l.dataloss_by_class.insert(class.to_owned(), 1);
            }
        }
        l
    }
}

/// A whole corpus run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Per-app results, in corpus order.
    pub apps: Vec<AppAnalysis>,
    /// The aggregate ledger.
    pub ledger: AnalysisLedger,
}

impl AnalysisReport {
    /// Order-sensitive digest over every per-app digest.
    pub fn digest(&self) -> u64 {
        combine_ordered(self.apps.iter().map(AppAnalysis::digest))
    }

    /// Human rendering: one line per finding, then the summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for app in &self.apps {
            for d in &app.diagnostics {
                out.push_str(&d.render_human());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{}\nfingerprint: {}\n",
            self.ledger,
            self.ledger.deterministic_fingerprint()
        ));
        out
    }

    /// Stable JSON rendering (byte-identical for any worker count).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"apps\": [");
        let mut first_app = true;
        for app in &self.apps {
            if !first_app {
                out.push(',');
            }
            first_app = false;
            out.push_str("\n    {\"app\":");
            out.push_str(&json_string(&app.app));
            out.push_str(",\"diagnostics\":[");
            let mut first_d = true;
            for d in &app.diagnostics {
                if !first_d {
                    out.push(',');
                }
                first_d = false;
                out.push_str("\n      ");
                out.push_str(&d.render_json());
            }
            if !first_d {
                out.push_str("\n    ");
            }
            out.push_str("],\"suppressed\":");
            out.push_str(&app.suppressed.to_string());
            out.push_str(",\"verdicts\":{\"stock\":");
            out.push_str(&verdict_json(&app.stock));
            out.push_str(",\"rchdroid\":");
            out.push_str(&verdict_json(&app.rchdroid));
            out.push_str(",\"runtimedroid\":");
            out.push_str(&verdict_json(&app.runtimedroid));
            out.push_str("}}");
        }
        out.push_str("\n  ],\n  \"summary\": {\"apps\":");
        out.push_str(&self.ledger.apps.to_string());
        out.push_str(",\"clean\":");
        out.push_str(&self.ledger.clean_apps.to_string());
        out.push_str(",\"errors\":");
        out.push_str(&self.ledger.errors.to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.ledger.warnings.to_string());
        out.push_str(",\"suppressed\":");
        out.push_str(&self.ledger.suppressed.to_string());
        out.push_str(",\"digest\":");
        out.push_str(&json_string(&format!("{:016x}", self.digest())));
        out.push_str("}\n}\n");
        out
    }

    /// Stable SARIF 2.1.0 rendering, for code-review UIs. Byte-stable
    /// like the JSON renderer: fixed key order, corpus-ordered results,
    /// no worker-count or host dependence — `tests/sarif_golden.rs`
    /// pins the exact bytes.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\"driver\": \
             {\"name\": \"rchlint\",\n        \"rules\": [",
        );
        let mut first = true;
        for code in LintCode::ALL {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n          {\"id\":");
            out.push_str(&json_string(code.code()));
            out.push_str(",\"name\":");
            out.push_str(&json_string(code.name()));
            out.push('}');
        }
        out.push_str("\n        ]}},\n      \"results\": [");
        let mut first_r = true;
        for app in &self.apps {
            for d in &app.diagnostics {
                if !first_r {
                    out.push(',');
                }
                first_r = false;
                let rule_index = LintCode::ALL
                    .iter()
                    .position(|c| *c == d.code)
                    .expect("every code is in ALL");
                let level = match d.severity {
                    Severity::Info => "note",
                    Severity::Warning => "warning",
                    Severity::Error => "error",
                };
                let mut fqn = format!("{}::{}", d.loc.app, d.loc.activity);
                if !d.loc.view_path.is_empty() {
                    fqn.push_str("::");
                    fqn.push_str(&d.loc.view_path);
                }
                out.push_str("\n        {\"ruleId\":");
                out.push_str(&json_string(d.code.code()));
                out.push_str(&format!(",\"ruleIndex\":{rule_index},\"level\":"));
                out.push_str(&json_string(level));
                out.push_str(",\"message\":{\"text\":");
                out.push_str(&json_string(&d.message));
                out.push_str("},\"locations\":[{\"logicalLocations\":[{\"fullyQualifiedName\":");
                out.push_str(&json_string(&fqn));
                out.push_str("}]}]}");
            }
        }
        if !first_r {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }

    /// Total error-severity findings.
    pub fn errors(&self) -> u64 {
        self.ledger.errors
    }

    /// Total warning-severity findings.
    pub fn warnings(&self) -> u64 {
        self.ledger.warnings
    }
}

fn verdict_json(v: &Verdict) -> String {
    let list = |items: &[String]| {
        let mut s = String::from("[");
        for (i, k) in items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_string(k));
        }
        s.push(']');
        s
    };
    format!(
        "{{\"has_issue\":{},\"crashed\":{},\"lost_after_one\":{},\"lost_after_two\":{},\"latent_after_two\":{}}}",
        v.has_issue(),
        v.crashed,
        list(&v.lost_after_one),
        list(&v.lost_after_two),
        list(&v.latent_after_two),
    )
}

/// Analyzes a corpus, fleet-parallel. Results keep corpus order.
pub fn analyze_specs(
    specs: &[GenericAppSpec],
    cfg: &FleetConfig,
    allow: &Suppressions,
) -> AnalysisReport {
    let apps = run_fleet(cfg, specs.to_vec(), |_ctx, spec| {
        AppAnalysis::of(&spec, allow)
    });
    let mut ledger = AnalysisLedger::new();
    for a in &apps {
        ledger.merge(&a.ledger());
    }
    AnalysisReport { apps, ledger }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rch_workloads::{dataloss_specs, top100_specs, tp27_specs};

    fn cfg(jobs: usize) -> FleetConfig {
        FleetConfig::new(jobs, 0)
    }

    #[test]
    fn report_is_identical_serial_and_parallel() {
        let specs = tp27_specs();
        let serial = analyze_specs(&specs, &cfg(1), &Suppressions::none());
        let parallel = analyze_specs(&specs, &cfg(4), &Suppressions::none());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.render_json(), parallel.render_json());
        assert_eq!(serial.render_human(), parallel.render_human());
        assert_eq!(serial.render_sarif(), parallel.render_sarif());
    }

    #[test]
    fn ledger_counts_the_corpus() {
        let specs = top100_specs();
        let report = analyze_specs(&specs, &cfg(2), &Suppressions::none());
        assert_eq!(report.ledger.apps, 100);
        assert_eq!(report.ledger.predicted_stock_issues, 63);
        assert_eq!(report.ledger.predicted_rchdroid_issues, 4);
        assert_eq!(report.ledger.predicted_runtimedroid_issues, 5);
        assert_eq!(report.ledger.dataloss_apps, 0);
        assert!(report.ledger.dataloss_by_class.is_empty());
        assert_eq!(report.ledger.clean_apps, 37, "issue-free apps stay clean");
    }

    #[test]
    fn dataloss_ledger_counts_classes() {
        let specs = dataloss_specs();
        let report = analyze_specs(&specs, &cfg(4), &Suppressions::none());
        assert_eq!(report.ledger.apps, specs.len() as u64);
        assert_eq!(report.ledger.dataloss_apps, specs.len() as u64);
        assert_eq!(report.ledger.dataloss_by_class.len(), 5, "all five classes");
        let flagged: u64 = report.ledger.dataloss_by_class.values().sum();
        let labeled = specs.iter().filter(|s| s.has_issue()).count() as u64;
        assert_eq!(flagged, labeled, "ledger matches the corpus labels");
    }

    #[test]
    fn suppression_moves_findings_to_the_suppressed_counter() {
        let specs = tp27_specs();
        let open = analyze_specs(&specs, &cfg(1), &Suppressions::none());
        let allow = Suppressions::parse(["RCH004"]).unwrap();
        let suppressed = analyze_specs(&specs, &cfg(1), &allow);
        assert!(open.ledger.by_code.contains_key("RCH004"));
        assert!(!suppressed.ledger.by_code.contains_key("RCH004"));
        assert_eq!(suppressed.ledger.suppressed, open.ledger.by_code["RCH004"]);
        assert_ne!(open.digest(), suppressed.digest());
    }

    #[test]
    fn sarif_lists_every_rule_and_mirrors_diagnostics() {
        let specs = tp27_specs();
        let report = analyze_specs(&specs, &cfg(1), &Suppressions::none());
        let sarif = report.render_sarif();
        for code in LintCode::ALL {
            assert!(sarif.contains(&format!("{{\"id\":\"{}\"", code.code())));
        }
        let findings: usize = report.apps.iter().map(|a| a.diagnostics.len()).sum();
        assert_eq!(sarif.matches("\"ruleId\"").count(), findings);
    }
}
