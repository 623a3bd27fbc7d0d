//! `lint_corpus`: a full `rchlint` pass, project by project.
//!
//! Closed batch of project lints at jobs=1, each over a 64-app project of
//! fresh generated specs (half data-loss apps across all five classes,
//! 30 % top-100-style, 20 % TP-27-style), no suppressions. A timed call
//! is `analyze_specs`'s body with a clock around each app's
//! `AppAnalysis::of`; one op is one app lint. The analyzer does almost
//! all the work (shape extraction, the passes, three-mode `predict`); no
//! device is simulated, and shape-memo hits come only from genuine
//! structural repeats.
//!
//! The op is one app, not one project: a project costs nearly the same
//! every time, so a per-project tail measured only the host's
//! preemptions, which hit a 20 ms call far more often than a 0.3 ms one.

use super::{is_check_step, Workload, CHECK_JOBS, JOBS};
use crate::meter::Meter;
use crate::replica::app_analysis_traced;
use crate::{gen, trace};
use droidsim_analysis::{analyze_specs, AppAnalysis, Suppressions};
use droidsim_fleet::{run_fleet, FleetConfig};
use droidsim_metrics::AnalysisLedger;
use rch_workloads::GenericAppSpec;
use std::time::Instant;

/// Project index of the first untimed warm-up call (counting down,
/// disjoint from measured ones).
const WARMUP_CALL: u64 = u64::MAX;
/// Projects in one warm-up (the first also re-run at jobs=2). Over the
/// set-ups this fills the process-wide memo caches, which otherwise slow
/// the first second of timing.
const WARMUP_PROJECTS: u64 = 8;

/// The workload's state between timed calls.
pub struct Lint {
    seed: u64,
    next_call: u64,
}

/// `analyze_specs`'s body at jobs=1 (`run_fleet` over `AppAnalysis::of`,
/// then the ledger fold), timing each app. With tracing on, each app runs
/// the traced `AppAnalysis::of` replica as a `fleet.task` span under
/// `call`. Returns the analyses and the per-app latencies in ms.
fn analyze(specs: &[GenericAppSpec], call: (u64, u64)) -> (Vec<AppAnalysis>, Vec<f64>) {
    let allow = Suppressions::none();
    let timed = run_fleet(&FleetConfig::new(JOBS, 0), specs.to_vec(), |_ctx, spec| {
        let task = trace::open_under(call.0, call.1);
        let started = Instant::now();
        let analysis = if trace::enabled() {
            app_analysis_traced(&spec, &allow)
        } else {
            AppAnalysis::of(&spec, &allow)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        task.close("fleet.task", 0);
        trace::flush();
        (analysis, ms)
    });
    let mut ledger = AnalysisLedger::new();
    for (a, _) in &timed {
        ledger.merge(&a.ledger());
    }
    std::hint::black_box(ledger);
    timed.into_iter().unzip()
}

/// The library call at [`CHECK_JOBS`], the reference the timed lint must
/// match.
fn analyze_library(specs: &[GenericAppSpec]) -> Vec<AppAnalysis> {
    analyze_specs(
        specs,
        &FleetConfig::new(CHECK_JOBS, 0),
        &Suppressions::none(),
    )
    .apps
}

fn digests(apps: &[AppAnalysis]) -> Vec<u64> {
    apps.iter().map(AppAnalysis::digest).collect()
}

/// Data-loss apps whose flagged status (an issue predicted under any of
/// the three runtimes) differs from the corpus label `hazardous()`.
fn mislabeled(specs: &[GenericAppSpec], apps: &[AppAnalysis]) -> usize {
    specs
        .iter()
        .zip(apps)
        .filter(|(spec, app)| {
            spec.dataloss.as_ref().is_some_and(|dl| {
                let flagged = app.stock.has_issue()
                    || app.rchdroid.has_issue()
                    || app.runtimedroid.has_issue();
                flagged != dl.hazardous(spec.handles_changes)
            })
        })
        .count()
}

impl Workload for Lint {
    fn setup(seed: u64, rep: u64) -> Result<Lint, String> {
        for k in 0..WARMUP_PROJECTS {
            let project = gen::lint_project(seed, WARMUP_CALL - rep * WARMUP_PROJECTS - k);
            let (timed, _) = analyze(&project, (0, 0));
            let check_ok = k > 0 || digests(&analyze_library(&project)) == digests(&timed);
            if mislabeled(&project, &timed) > 0 || !check_ok {
                return Err("lint_corpus warm-up: labels or jobs=1 ≠ jobs=2".to_owned());
            }
        }
        Ok(Lint { seed, next_call: 0 })
    }

    fn step(&mut self, meter: &mut Meter) {
        let index = self.next_call;
        self.next_call += 1;
        let project = gen::lint_project(self.seed, index);
        let ((apps, latencies), _) = meter.time(|| {
            let call = trace::open_under(0, index + 1);
            let out = analyze(&project, (call.id(), index + 1));
            call.close("fleet.call", project.len() as u64);
            out
        });
        trace::flush();
        let mut ok = apps.len() == project.len() && mislabeled(&project, &apps) == 0;
        if ok && is_check_step(index) {
            // The library call at jobs=2: in a traced step this also
            // checks the replica against `AppAnalysis::of`.
            let check = trace::paused(|| analyze_library(&project));
            ok = digests(&check) == digests(&apps);
        }
        let n = project.len() as u64;
        meter.ops(n, if ok { 0 } else { n });
        meter.latencies(latencies);
    }
}
