//! The static-vs-dynamic differential gate.
//!
//! For every corpus app under all three handling schemes — stock
//! Android 10, RCHDroid, and the RuntimeDroid hot-reload baseline —
//! the static analyzer's [`droidsim_analysis::Verdict`] must equal the
//! one the dynamic oracle ([`crate::detector::check`]) observes *field
//! by field*: crash flag, `lost_after_one`, `lost_after_two`
//! and `latent_after_two`, not just the boolean verdict. The analyzer
//! checks the simulator and the simulator checks the analyzer: a
//! disagreement means one of them mis-models the change protocol, and
//! the gate fails with a one-line repro recipe for exactly that app.
//!
//! The legacy corpora (`tp27`, `top100`) replay through the rotation
//! detector; the generated `dataloss` corpus replays through the
//! class-specific data-loss schedules (double rotation, async race,
//! process death with bundle, input in flight). Per-class loss rates
//! for the data-loss corpus are tabulated by [`dataloss_table`] —
//! computed statically, then pinned against the dynamic rows by the
//! gate itself.
//!
//! The comparison fleet is digest-stable: rows come back in corpus
//! order regardless of `--jobs`, so CI diffs the `--jobs 1` and
//! `--jobs 4` digests for equality.

use crate::detector;
use droidsim_analysis::{predict, AnalysisMode};
use droidsim_device::HandlingMode;
use droidsim_fleet::{combine_ordered, run_fleet, Digest, FleetConfig};
use rch_workloads::{dataloss_specs, top100_specs, tp27_specs, DataLossClass, GenericAppSpec};

/// The (corpus, mode) axes, compared for one app.
#[derive(Debug, Clone)]
pub struct DifferentialRow {
    /// App name.
    pub app: String,
    /// Handling-scheme label (`"stock"` / `"rchdroid"` / `"runtimedroid"`).
    pub mode: &'static str,
    /// Whether analyzer and oracle agree on every field.
    pub agreed: bool,
    /// Human-readable field diff when they do not.
    pub detail: String,
}

impl DifferentialRow {
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str(&self.app);
        d.write_str(self.mode);
        d.write_u64(u64::from(self.agreed));
        d.write_str(&self.detail);
        d.finish()
    }
}

/// A whole differential run over one corpus.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Corpus label (`"tp27"` / `"top100"` / `"dataloss"`).
    pub corpus: &'static str,
    /// One row per (app, mode), corpus order; stock, then rchdroid,
    /// then runtimedroid.
    pub rows: Vec<DifferentialRow>,
}

impl DifferentialReport {
    /// Rows where analyzer and oracle disagree.
    pub fn disagreements(&self) -> Vec<&DifferentialRow> {
        self.rows.iter().filter(|r| !r.agreed).collect()
    }

    /// Order-sensitive digest, identical for any worker count.
    pub fn digest(&self) -> u64 {
        combine_ordered(self.rows.iter().map(DifferentialRow::digest))
    }

    /// Renders the outcome; disagreeing rows carry a one-line repro.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.disagreements() {
            out.push_str(&format!(
                "DISAGREE [{}/{}] {}: {}\n  repro: cargo run -q --release -p rch-experiments \
                 --bin rchlint -- --differential --corpus {} --only '{}' --jobs 1\n",
                self.corpus, r.mode, r.app, r.detail, self.corpus, r.app,
            ));
        }
        out.push_str(&format!(
            "differential[{}]: {} checks, {} disagreement(s)\n",
            self.corpus,
            self.rows.len(),
            self.disagreements().len(),
        ));
        out
    }
}

fn diff_lists(field: &str, predicted: &[String], observed: &[String]) -> Option<String> {
    (predicted != observed).then(|| {
        format!("{field}: static predicts {predicted:?}, dynamic oracle observed {observed:?}")
    })
}

/// Compares one app under one mode. Apps carrying a data-loss scenario
/// replay through the class-specific schedules; legacy corpus apps
/// through the rotation detector.
fn compare(spec: &GenericAppSpec, mode: AnalysisMode) -> DifferentialRow {
    let predicted = predict(spec, mode);
    let handling = match mode {
        AnalysisMode::Stock => HandlingMode::Android10,
        AnalysisMode::RchDroid => HandlingMode::rchdroid_default(),
        AnalysisMode::RuntimeDroid => HandlingMode::RuntimeDroid,
    };
    let observed = if spec.dataloss.is_some() {
        detector::check_dataloss(spec, handling)
    } else {
        detector::check(spec, handling)
    };
    let mut diffs = Vec::new();
    if predicted.crashed != observed.crashed {
        diffs.push(format!(
            "crashed: static predicts {}, dynamic oracle observed {}",
            predicted.crashed, observed.crashed
        ));
    }
    diffs.extend(diff_lists(
        "lost_after_one",
        &predicted.lost_after_one,
        &observed.lost_after_one,
    ));
    diffs.extend(diff_lists(
        "lost_after_two",
        &predicted.lost_after_two,
        &observed.lost_after_two,
    ));
    diffs.extend(diff_lists(
        "latent_after_two",
        &predicted.latent_after_two,
        &observed.latent_after_two,
    ));
    DifferentialRow {
        app: spec.name.clone(),
        mode: mode.label(),
        agreed: diffs.is_empty(),
        detail: diffs.join("; "),
    }
}

/// Resolves a corpus by name. `--only` filters to one app.
pub fn corpus_specs(corpus: &str, only: Option<&str>) -> Result<Vec<GenericAppSpec>, String> {
    let specs = match corpus {
        "tp27" => tp27_specs(),
        "top100" => top100_specs(),
        "dataloss" => dataloss_specs(),
        _ => return Err(format!("unknown corpus {corpus:?} (tp27|top100|dataloss)")),
    };
    match only {
        None => Ok(specs),
        Some(name) => {
            let filtered: Vec<_> = specs.into_iter().filter(|s| s.name == name).collect();
            if filtered.is_empty() {
                return Err(format!("--only: no app named {name:?} in corpus {corpus}"));
            }
            Ok(filtered)
        }
    }
}

/// Runs the gate over one corpus, fleet-parallel: each app is one task
/// producing its (stock, rchdroid, runtimedroid) row triple, so rows
/// stay in corpus order for any worker count.
pub fn run_corpus(
    corpus: &'static str,
    only: Option<&str>,
    cfg: &FleetConfig,
) -> Result<DifferentialReport, String> {
    let specs = corpus_specs(corpus, only)?;
    let triples = run_fleet(cfg, specs, |_ctx, spec| {
        [
            compare(&spec, AnalysisMode::Stock),
            compare(&spec, AnalysisMode::RchDroid),
            compare(&spec, AnalysisMode::RuntimeDroid),
        ]
    });
    Ok(DifferentialReport {
        corpus,
        rows: triples.into_iter().flatten().collect(),
    })
}

/// One row of the per-class data-loss table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLossTableRow {
    /// Class label (e.g. `"stop-restart"`).
    pub class: &'static str,
    /// Generated apps in this class.
    pub apps: u64,
    /// Apps with predicted loss (or crash) per mode, in
    /// [`AnalysisMode::ALL`] order: stock, rchdroid, runtimedroid.
    pub lossy: [u64; 3],
}

/// The §Table-dataloss study: per-class loss rates under the three
/// runtimes, over the generated corpus. Computed from the *static*
/// verdicts alone; the differential gate holds those equal to the
/// dynamic oracle row by row, so the table doubles as the gate's
/// summary artifact (`results/table_dataloss.csv`).
pub fn dataloss_table() -> Vec<DataLossTableRow> {
    let specs = dataloss_specs();
    DataLossClass::ALL
        .iter()
        .map(|class| {
            let mut row = DataLossTableRow {
                class: class.label(),
                apps: 0,
                lossy: [0; 3],
            };
            for spec in specs
                .iter()
                .filter(|s| s.dataloss.as_ref().map(|dl| dl.class) == Some(*class))
            {
                row.apps += 1;
                for (i, mode) in AnalysisMode::ALL.iter().enumerate() {
                    row.lossy[i] += u64::from(predict(spec, *mode).has_issue());
                }
            }
            row
        })
        .collect()
}

/// Renders [`dataloss_table`] as the committed CSV, byte-stable.
pub fn dataloss_table_csv(rows: &[DataLossTableRow]) -> String {
    let mut out = String::from(
        "class,apps,stock_lossy,stock_rate,rchdroid_lossy,rchdroid_rate,\
         runtimedroid_lossy,runtimedroid_rate\n",
    );
    for r in rows {
        let rate = |n: u64| format!("{:.3}", n as f64 / r.apps as f64);
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.class,
            r.apps,
            r.lossy[0],
            rate(r.lossy[0]),
            r.lossy[1],
            rate(r.lossy[1]),
            r.lossy[2],
            rate(r.lossy[2]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tp27_gate_is_clean_and_jobs_invariant() {
        let serial = run_corpus("tp27", None, &FleetConfig::new(1, 0)).unwrap();
        assert_eq!(serial.rows.len(), 81);
        assert!(serial.disagreements().is_empty(), "{}", serial.render());
        let parallel = run_corpus("tp27", None, &FleetConfig::new(4, 0)).unwrap();
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn top100_gate_is_clean() {
        let report = run_corpus("top100", None, &FleetConfig::new(2, 0)).unwrap();
        assert_eq!(report.rows.len(), 300);
        assert!(report.disagreements().is_empty(), "{}", report.render());
    }

    #[test]
    fn dataloss_gate_is_clean_and_jobs_invariant() {
        let serial = run_corpus("dataloss", None, &FleetConfig::new(1, 0)).unwrap();
        assert_eq!(serial.rows.len(), dataloss_specs().len() * 3);
        assert!(serial.disagreements().is_empty(), "{}", serial.render());
        let parallel = run_corpus("dataloss", None, &FleetConfig::new(4, 0)).unwrap();
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn dataloss_table_covers_the_whole_corpus() {
        let rows = dataloss_table();
        assert_eq!(rows.len(), DataLossClass::ALL.len());
        let total: u64 = rows.iter().map(|r| r.apps).sum();
        assert_eq!(total, dataloss_specs().len() as u64);
        // Process death with only a transient field loses in every
        // mode; bundle/store fields survive — the class is never 100%
        // lossy but never 0% either.
        let pd = rows.iter().find(|r| r.class == "process-death").unwrap();
        assert_eq!(pd.lossy[0], pd.lossy[1]);
        assert_eq!(
            pd.lossy[1], pd.lossy[2],
            "process death is mode-independent"
        );
        assert!(pd.lossy[0] > 0 && pd.lossy[0] < pd.apps);
        // RuntimeDroid fixes stop-restart entirely but loses every
        // sub-state app: the headline asymmetry of the study.
        let sr = rows.iter().find(|r| r.class == "stop-restart").unwrap();
        assert_eq!(sr.lossy[2], 0, "hot reload keeps the instance");
        let ss = rows.iter().find(|r| r.class == "sub-state-owner").unwrap();
        assert_eq!(ss.lossy[2], ss.apps, "onCreate never re-runs");
        let csv = dataloss_table_csv(&rows);
        assert!(csv.starts_with("class,apps,stock_lossy"));
        assert_eq!(csv.lines().count(), 1 + rows.len());
    }

    #[test]
    fn only_filter_and_unknown_corpus_are_validated() {
        let one = run_corpus("tp27", Some("DiskDiggerPro"), &FleetConfig::new(1, 0)).unwrap();
        assert_eq!(one.rows.len(), 3);
        assert!(one.disagreements().is_empty());
        assert!(run_corpus("tp27", Some("NoSuchApp"), &FleetConfig::new(1, 0)).is_err());
        assert!(corpus_specs("bogus", None).is_err());
    }

    #[test]
    fn a_disagreement_renders_a_repro_recipe() {
        let report = DifferentialReport {
            corpus: "tp27",
            rows: vec![DifferentialRow {
                app: "DemoApp".into(),
                mode: "stock",
                agreed: false,
                detail: "crashed: static predicts true, dynamic oracle observed false".into(),
            }],
        };
        let rendered = report.render();
        assert!(rendered.contains("DISAGREE [tp27/stock] DemoApp"));
        assert!(rendered.contains("--differential --corpus tp27 --only 'DemoApp' --jobs 1"));
        assert!(rendered.contains("1 disagreement(s)"));
    }
}
