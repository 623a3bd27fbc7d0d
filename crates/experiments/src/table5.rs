//! Table 5 + Fig. 14 (§6): the Google-Play top-100 study.
//!
//! For every app: does a runtime-change issue exist under stock handling,
//! and does RCHDroid fix it? For the 59 apps RCHDroid fixes, Fig. 14
//! compares handling time (paper: 250.39 vs 420.58 ms, a 38.60 % saving)
//! and memory (173.85 vs 162.28 MB, +7.13 %).

use crate::scenario::{run_app, RunConfig};
use crate::Study;
use droidsim_device::HandlingMode;
use droidsim_fleet::{Digest, FleetConfig, TaskCtx};
use droidsim_metrics::Summary;
use rch_workloads::{top100_specs, GenericAppSpec};

/// One app's study row.
#[derive(Debug, Clone)]
pub struct Top100Row {
    /// 1-based app number.
    pub number: usize,
    /// App name.
    pub name: String,
    /// Download bucket.
    pub downloads: &'static str,
    /// The documented problem, if any.
    pub problem: Option<String>,
    /// Whether an issue was observed under stock handling.
    pub issue_under_stock: bool,
    /// Whether RCHDroid fixed it (only meaningful when an issue exists).
    pub fixed_by_rchdroid: bool,
    /// Mean handling latency under Android-10 (ms).
    pub android10_ms: f64,
    /// Mean handling latency under RCHDroid (ms).
    pub rchdroid_ms: f64,
    /// PSS under Android-10 (MiB).
    pub android10_mib: f64,
    /// PSS under RCHDroid (MiB).
    pub rchdroid_mib: f64,
}

impl Top100Row {
    /// A digest of every field, bit-exact for the float columns — what
    /// the fleet reduction compares between serial and parallel runs.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.number as u64);
        d.write_str(&self.name);
        d.write_str(self.downloads);
        d.write_str(self.problem.as_deref().unwrap_or(""));
        d.write_u64(u64::from(self.issue_under_stock));
        d.write_u64(u64::from(self.fixed_by_rchdroid));
        d.write_f64(self.android10_ms);
        d.write_f64(self.rchdroid_ms);
        d.write_f64(self.android10_mib);
        d.write_f64(self.rchdroid_mib);
        d.finish()
    }
}

/// The whole study.
#[derive(Debug, Clone)]
pub struct Top100Study {
    /// All 100 rows.
    pub rows: Vec<Top100Row>,
}

impl Top100Study {
    /// Apps with an issue under stock handling.
    pub fn issue_count(&self) -> usize {
        self.rows.iter().filter(|r| r.issue_under_stock).count()
    }

    /// Issue apps that RCHDroid fixed.
    pub fn fixed_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.issue_under_stock && r.fixed_by_rchdroid)
            .count()
    }

    /// The 59 fixed apps' rows (Fig. 14's population).
    pub fn fixed_rows(&self) -> Vec<&Top100Row> {
        self.rows
            .iter()
            .filter(|r| r.issue_under_stock && r.fixed_by_rchdroid)
            .collect()
    }

    /// Fig. 14(a): mean handling latencies `(android10, rchdroid)` over
    /// the fixed apps.
    pub fn fig14a(&self) -> (f64, f64) {
        let rows = self.fixed_rows();
        let stock = Summary::of(&rows.iter().map(|r| r.android10_ms).collect::<Vec<_>>());
        let rch = Summary::of(&rows.iter().map(|r| r.rchdroid_ms).collect::<Vec<_>>());
        (stock.mean, rch.mean)
    }

    /// Fig. 14(b): mean PSS `(android10, rchdroid)` over the fixed apps.
    pub fn fig14b(&self) -> (f64, f64) {
        let rows = self.fixed_rows();
        let stock = Summary::of(&rows.iter().map(|r| r.android10_mib).collect::<Vec<_>>());
        let rch = Summary::of(&rows.iter().map(|r| r.rchdroid_mib).collect::<Vec<_>>());
        (stock.mean, rch.mean)
    }

    /// Renders Table 5 plus the Fig. 14 summaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 5: runtime change issues in Google Play top 100 apps\n");
        out.push_str(&format!(
            "{:<4} {:<20} {:<10} {:<8} {:<30} {}\n",
            "No.", "App Name", "Downloads", "Issue", "Specific Problem", "RCHDroid"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<4} {:<20} {:<10} {:<8} {:<30} {}\n",
                r.number,
                r.name,
                r.downloads,
                if r.issue_under_stock { "Yes" } else { "No" },
                r.problem.as_deref().unwrap_or("No"),
                if !r.issue_under_stock {
                    "-"
                } else if r.fixed_by_rchdroid {
                    "fixed"
                } else {
                    "NOT fixed"
                }
            ));
        }
        let (a10_ms, rch_ms) = self.fig14a();
        let (a10_mb, rch_mb) = self.fig14b();
        out.push_str(&format!(
            "\n=> issues: {}/100 (paper: 63); fixed by RCHDroid: {}/{} (paper: 59/63)\n",
            self.issue_count(),
            self.fixed_count(),
            self.issue_count()
        ));
        out.push_str(&format!(
            "=> Fig. 14(a): handling time {:.2} vs {:.2} ms, saving {:.2}% \
             (paper: 420.58 / 250.39 / 38.60%)\n",
            a10_ms,
            rch_ms,
            (a10_ms - rch_ms) / a10_ms * 100.0
        ));
        out.push_str(&format!(
            "=> Fig. 14(b): memory {:.2} vs {:.2} MiB, overhead {:.2}% \
             (paper: 162.28 / 173.85 / 7.13%)\n",
            a10_mb,
            rch_mb,
            (rch_mb - a10_mb) / a10_mb * 100.0
        ));
        out
    }
}

/// Measures one app of the study (one fleet task).
fn measure_row(ctx: TaskCtx, spec: GenericAppSpec) -> Top100Row {
    // Effectiveness is judged after a *single* change (the §6
    // procedure: change once and observe the state); performance
    // and memory use the steady-state 4-change workflow.
    let stock_once = run_app(&spec, &RunConfig::new(HandlingMode::Android10).changes(1));
    let rch_once = run_app(
        &spec,
        &RunConfig::new(HandlingMode::rchdroid_default()).changes(1),
    );
    let stock = run_app(&spec, &RunConfig::new(HandlingMode::Android10));
    let rch = run_app(&spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    Top100Row {
        number: ctx.index + 1,
        name: spec.name.clone(),
        downloads: spec.downloads,
        problem: spec.issue.clone(),
        issue_under_stock: stock_once.issue_observed(),
        fixed_by_rchdroid: !rch_once.issue_observed(),
        android10_ms: stock.mean_latency_ms(),
        rchdroid_ms: rch.mean_latency_ms(),
        android10_mib: stock.memory_mib,
        rchdroid_mib: rch.memory_mib,
    }
}

/// The top-100 study: one fleet task per app. Every app simulates on
/// its own `Device` with its own clocks and sinks, so the rows — and
/// their digests — are identical for any worker count.
pub const STUDY: Study<GenericAppSpec, Top100Row, Top100Study> = Study {
    partial_title: "Table 5 (partial): runtime change issues, supervised run",
    unit: "app",
    digest_label: "study",
    items: top100_specs,
    measure: measure_row,
    digest: Top100Row::digest,
    assemble: |rows| Top100Study { rows },
    render_full: Top100Study::render,
    partial_row: |r| {
        format!(
            "{:<4} {:<20} issue={:<5} rchdroid={}",
            r.number,
            r.name,
            r.issue_under_stock,
            if !r.issue_under_stock {
                "-"
            } else if r.fixed_by_rchdroid {
                "fixed"
            } else {
                "NOT fixed"
            }
        )
    },
};

/// Runs the full study with the worker count taken from `DROIDSIM_JOBS`
/// (default: available cores).
pub fn run() -> Top100Study {
    STUDY.complete(&FleetConfig::from_env(None, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_matches_section6_counts() {
        let study = run();
        assert_eq!(study.rows.len(), 100);
        assert_eq!(study.issue_count(), 63, "63 of 100 apps have issues");
        assert_eq!(study.fixed_count(), 59, "RCHDroid fixes 59 of 63 (93.65%)");
        let unfixed: Vec<&str> = study
            .rows
            .iter()
            .filter(|r| r.issue_under_stock && !r.fixed_by_rchdroid)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            unfixed,
            vec!["Filto", "HaircutPrank", "CastForChrome", "KingJamesBible"]
        );
    }

    #[test]
    fn fig14a_matches_the_paper_band() {
        let study = run();
        let (a10, rch) = study.fig14a();
        assert!(
            (380.0..=460.0).contains(&a10),
            "Android-10 {a10:.1} (paper 420.58)"
        );
        assert!(
            (220.0..=290.0).contains(&rch),
            "RCHDroid {rch:.1} (paper 250.39)"
        );
        let saving = (a10 - rch) / a10 * 100.0;
        assert!(
            (33.0..=45.0).contains(&saving),
            "saving {saving:.1}% (paper 38.60%)"
        );
    }

    #[test]
    fn fig14b_matches_the_paper_band() {
        let study = run();
        let (a10, rch) = study.fig14b();
        assert!(
            (155.0..=170.0).contains(&a10),
            "Android-10 {a10:.1} MiB (paper 162.28)"
        );
        assert!(
            (165.0..=182.0).contains(&rch),
            "RCHDroid {rch:.1} MiB (paper 173.85)"
        );
        let overhead = (rch - a10) / a10 * 100.0;
        assert!(
            (5.0..=9.5).contains(&overhead),
            "overhead {overhead:.1}% (paper 7.13%)"
        );
    }

    #[test]
    fn self_handling_apps_have_no_issue_under_stock() {
        let study = run();
        let specs = top100_specs();
        for (row, spec) in study.rows.iter().zip(&specs) {
            if spec.handles_changes {
                assert!(!row.issue_under_stock, "{}", row.name);
            }
        }
    }
}
