//! The daemon-side job executor: maps [`droidsim_daemon`] job specs
//! onto the real experiment harnesses.
//!
//! [`StudyExecutor`] is what `droidsimd` plugs into
//! [`droidsim_daemon::Daemon::start`]. Each accepted job runs the same
//! supervised fleet machinery as the standalone binaries —
//! [`crate::table5`], [`crate::fig10`], [`crate::ablation`], or a
//! fault-matrix campaign — wired to the daemon's cooperative controls:
//!
//! * the job's [`CancelToken`] goes into
//!   [`FleetOptions::with_cancel`], so client cancels, blown deadlines
//!   and fast shutdown all stop the study between tasks;
//! * the per-job fleet journal path (when the daemon is journaling)
//!   goes into [`FleetOptions::resuming`], so a job interrupted by a
//!   daemon crash resumes task-by-task after restart — to the same
//!   digest an uninterrupted run produces;
//! * the spec's `inner_jobs`, `task_budget_ms` and `max_retries` knobs
//!   map one-to-one onto the fleet config and options.
//!
//! Determinism is the load-bearing property: for a given spec the
//! digest is identical for any `inner_jobs`, any interruption point,
//! and any retry schedule. [`reference_digest`] exploits that — it runs
//! the same spec in-process with one worker and nobody cancelling,
//! which is exactly the "jobs=1 batch run" the daemon soak compares
//! daemon-produced digests against.

use std::time::Duration;

use droidsim_daemon::{JobControl, JobExecutor, JobKind, JobSpec, JobVerdict};
use droidsim_device::HandlingMode;
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_fleet::{
    run_fleet_supervised, CancelToken, Digest, FleetConfig, FleetError, FleetOptions, FleetRun,
    TaskCtx,
};
use rch_workloads::{top100_sample, GenericAppSpec};

use crate::scenario::{run_app, RunConfig};
use crate::{ablation, fig10};

/// The production [`JobExecutor`]: one instance serves every job the
/// daemon schedules (see module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct StudyExecutor;

impl JobExecutor for StudyExecutor {
    fn execute(&self, spec: &JobSpec, ctl: &JobControl) -> JobVerdict {
        run_study(spec, ctl)
    }
}

/// Runs one job spec to a verdict under the given controls. Public so
/// the restart tests and [`reference_digest`] can execute jobs without
/// standing up a daemon.
pub fn run_study(spec: &JobSpec, ctl: &JobControl) -> JobVerdict {
    let cfg = FleetConfig::new(spec.inner_jobs, spec.seed);
    let opts = fleet_options(spec, ctl);
    match &spec.kind {
        JobKind::Table5 { apps } => finish(
            run_fleet_supervised(&cfg, &opts, top100_sample(*apps), measure_app, app_digest),
            ctl,
        ),
        JobKind::Fig10 => finish(fig10::STUDY.run(&cfg, &opts), ctl),
        JobKind::Ablation => finish(ablation::STUDY.run(&cfg, &opts), ctl),
        JobKind::FaultMatrix { tasks, rate_pct } => {
            let opts = opts.with_faults(
                FaultPlan::seeded(spec.seed)
                    .with_rate(FaultSite::FleetTask, f64::from(*rate_pct) / 100.0),
            );
            finish(
                run_fleet_supervised(&cfg, &opts, top100_sample(*tasks), measure_app, app_digest),
                ctl,
            )
        }
    }
}

/// The digest `spec` must produce: the same study, run in-process with
/// one inner worker, no journal, and nobody cancelling. Errors when the
/// reference run itself cannot produce a comparable digest (a task
/// quarantined past its retries).
pub fn reference_digest(spec: &JobSpec) -> Result<u64, String> {
    let mut spec = spec.clone();
    spec.inner_jobs = 1;
    let ctl = JobControl {
        id: 0,
        cancel: CancelToken::new(),
        fleet_journal: None,
    };
    match run_study(&spec, &ctl) {
        JobVerdict::Done { digest, .. } => Ok(digest),
        JobVerdict::Failed { reason } => Err(reason),
        JobVerdict::Cancelled { reason } => Err(format!("reference run cancelled: {reason}")),
    }
}

/// Maps the spec's scheduling knobs onto supervised-fleet options,
/// wiring in the daemon's cancel token and per-job resume journal.
fn fleet_options(spec: &JobSpec, ctl: &JobControl) -> FleetOptions {
    let mut opts = FleetOptions::new()
        .with_retries(spec.max_retries)
        .with_cancel(ctl.cancel.clone());
    if let Some(ms) = spec.task_budget_ms {
        opts = opts.with_budget(Duration::from_millis(ms));
    }
    if let Some(path) = &ctl.fleet_journal {
        opts = opts.resuming(path);
    }
    opts
}

/// One app simulation under RCHDroid defaults — the per-task body of
/// the daemon's `table5` and `fault-matrix` jobs and of the crash-safety
/// soak, so their results are comparable across every harness that
/// samples the top-100 corpus.
pub fn measure_app(_ctx: TaskCtx, spec: GenericAppSpec) -> (String, f64, f64) {
    let outcome = run_app(&spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    (
        spec.name.clone(),
        outcome.mean_latency_ms(),
        outcome.memory_mib,
    )
}

/// The digest of one [`measure_app`] row: name, mean latency and PSS,
/// bit-exact.
pub fn app_digest(row: &(String, f64, f64)) -> u64 {
    let mut d = Digest::new();
    d.write_str(&row.0);
    d.write_f64(row.1);
    d.write_f64(row.2);
    d.finish()
}

/// Folds a supervised run into the job verdict: cancellation first
/// (an observed token beats any partial digest), then the combined
/// digest, with quarantine as the only failure mode.
fn finish<R>(run: Result<FleetRun<R>, FleetError>, ctl: &JobControl) -> JobVerdict {
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            return JobVerdict::Failed {
                reason: e.to_string(),
            }
        }
    };
    if ctl.cancel.is_cancelled() || run.report.ledger.cancelled > 0 {
        return JobVerdict::Cancelled {
            reason: "cancel observed mid-study".to_owned(),
        };
    }
    match run.combined_digest() {
        Some(digest) => JobVerdict::Done {
            digest,
            fleet: run.report.ledger,
        },
        None => JobVerdict::Failed {
            reason: format!("{} task(s) quarantined", run.report.quarantined.len()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_daemon::{Daemon, DaemonConfig, ShutdownMode};
    use std::time::Duration;

    fn ctl() -> JobControl {
        JobControl {
            id: 0,
            cancel: CancelToken::new(),
            fleet_journal: None,
        }
    }

    fn digest_of(verdict: JobVerdict) -> u64 {
        match verdict {
            JobVerdict::Done { digest, .. } => digest,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn inner_parallelism_does_not_change_the_digest() {
        let spec = JobSpec::new(JobKind::Table5 { apps: 4 }).with_seed(0xA11);
        let reference = reference_digest(&spec).unwrap();
        let mut wide = spec.clone();
        wide.inner_jobs = 3;
        assert_eq!(digest_of(run_study(&wide, &ctl())), reference);
    }

    #[test]
    fn fault_matrix_retries_land_on_the_clean_digest() {
        let clean = JobSpec::new(JobKind::FaultMatrix {
            tasks: 6,
            rate_pct: 0,
        })
        .with_seed(0xFA17);
        let faulty = JobSpec::new(JobKind::FaultMatrix {
            tasks: 6,
            rate_pct: 5,
        })
        .with_seed(0xFA17);
        assert_eq!(
            reference_digest(&faulty).unwrap(),
            reference_digest(&clean).unwrap(),
            "deterministic retries absorb the injected faults"
        );
    }

    #[test]
    fn pre_cancelled_control_yields_a_cancelled_verdict() {
        let spec = JobSpec::new(JobKind::Table5 { apps: 3 });
        let control = ctl();
        control.cancel.cancel();
        assert!(matches!(
            run_study(&spec, &control),
            JobVerdict::Cancelled { .. }
        ));
    }

    #[test]
    fn daemon_scheduled_study_matches_the_reference() {
        let spec = JobSpec::new(JobKind::Table5 { apps: 3 }).with_seed(0xD0D);
        let reference = reference_digest(&spec).unwrap();
        let daemon = Daemon::start(DaemonConfig::new(), StudyExecutor).unwrap();
        let id = match daemon.submit(spec) {
            droidsim_daemon::Admission::Accepted { id, .. } => id,
            droidsim_daemon::Admission::Rejected { reason } => panic!("rejected: {reason}"),
            droidsim_daemon::Admission::Duplicate { id } => panic!("unexpected duplicate: {id}"),
        };
        let status = daemon.wait(id, Duration::from_secs(60)).unwrap();
        assert_eq!(status.state.digest(), Some(reference));
        daemon.shutdown(ShutdownMode::Drain);
    }
}
