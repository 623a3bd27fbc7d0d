//! Traced replicas of the two library bodies the benchmark cannot see
//! inside: `rch_experiments::run_app` and `AppAnalysis::of`.
//!
//! Each replica makes the same public calls in the same order as the
//! library body, with a span around every call, and builds the same
//! result type, so its digest must equal the library call's digest. The
//! workloads check that equality on every batch they re-run for the
//! jobs=2 comparison.

use crate::trace::{self, span};
use droidsim_analysis::{analyze_app, predict, AnalysisMode, AppAnalysis, AppShape, Suppressions};
use droidsim_device::{AppProcess, Device, DeviceEvent, HandlingPath};
use droidsim_fleet::Digest;
use droidsim_kernel::SimDuration;
use rch_experiments::{RunConfig, RunOutcome};
use rch_workloads::GenericAppSpec;

/// The span a rotation lands in, by the handling path it took.
pub fn rotate_span(path: HandlingPath) -> &'static str {
    match path {
        HandlingPath::Relaunch => "device.rotate.relaunch",
        HandlingPath::RchInit => "device.rotate.rch_init",
        HandlingPath::RchFlip => "device.rotate.rch_flip",
        HandlingPath::HandledByApp => "device.rotate.handled_by_app",
        HandlingPath::RchFallback => "device.rotate.rch_fallback",
        HandlingPath::NoChange => "device.rotate.no_change",
        HandlingPath::RuntimeDroidInPlace => "device.rotate.runtimedroid",
    }
}

/// Digest of everything a scenario run reports.
pub fn outcome_digest(o: &RunOutcome) -> u64 {
    let mut d = Digest::new();
    d.write_u64(o.latencies_ms.len() as u64);
    for ms in &o.latencies_ms {
        d.write_f64(*ms);
    }
    d.write_u64(u64::from(o.crashed));
    d.write_u64(u64::from(o.state_ok));
    d.write_f64(o.memory_mib);
    d.write_f64(o.busy_ms);
    d.finish()
}

/// `run_app` with a span around each device call; the whole run is a
/// `scenario.app_run` span.
pub fn run_app_traced(spec: &GenericAppSpec, cfg: &RunConfig) -> RunOutcome {
    let run = trace::open();
    let views = spec.view_count as u64;
    let probe = span("app.build", || spec.build());
    let model = span("app.build", || spec.build());
    let (mut device, component) = span("device.launch", || {
        let mut device = Device::new(cfg.mode);
        let component = device
            .install_and_launch(Box::new(model), spec.base_memory_bytes, spec.complexity)
            .expect("launch succeeds on a fresh device");
        (device, component)
    });

    span("device.advance.short", || {
        device.advance(SimDuration::from_secs(1));
    });
    span("device.state", || {
        device.with_foreground_activity_mut(|a| probe.apply_user_state(a))
    })
    .expect("foreground just launched");

    if cfg.with_async_task || spec.uses_async_task {
        span("device.state", || {
            device.start_async_on_foreground(spec.async_task())
        })
        .expect("foreground alive");
    }

    for _ in 0..cfg.changes {
        if span("device.state", || device.is_crashed(&component)) {
            break;
        }
        let rotate = trace::open();
        let report = device.rotate();
        rotate.close(
            report
                .as_ref()
                .map_or("device.rotate.failed", |r| rotate_span(r.path)),
            views,
        );
        span("device.advance.short", || device.advance(cfg.pause_between));
    }
    let memory_mib = span("device.state", || {
        device
            .memory_snapshot(&component)
            .map_or(0.0, |s| s.total_mib())
    });

    span("device.advance.short", || {
        device.advance(SimDuration::from_secs(8));
    });

    let crashed = span("device.state", || device.is_crashed(&component));
    let state_ok = if crashed {
        false
    } else {
        span("device.state", || {
            device
                .with_foreground_activity_mut(|a| probe.all_state_survived(a))
                .unwrap_or(false)
        })
    };

    let latencies_ms = span("device.state", || {
        device
            .process(&component)
            .map(AppProcess::latencies_ms)
            .unwrap_or_default()
    });
    let migration_ms = span("device.state", || {
        device
            .events()
            .iter()
            .filter_map(|e| match e {
                DeviceEvent::AsyncDelivered {
                    migration_latency: Some(d),
                    ..
                } => Some(d.as_millis_f64()),
                _ => None,
            })
            .sum::<f64>()
    });
    let busy_ms = latencies_ms.iter().sum::<f64>() + migration_ms;
    span("device.drop", move || drop((device, probe)));
    run.close("scenario.app_run", views);

    RunOutcome {
        latencies_ms,
        crashed,
        state_ok,
        memory_mib,
        busy_ms,
    }
}

/// `AppAnalysis::of` with a span around shape extraction, the passes,
/// and each of the three verdict predictions.
pub fn app_analysis_traced(spec: &GenericAppSpec, allow: &Suppressions) -> AppAnalysis {
    let shape = span("analysis.shape", || AppShape::from_spec(spec));
    let all = span("analysis.passes", || analyze_app(&shape, Some(spec)));
    let (kept, dropped): (Vec<_>, Vec<_>) = all
        .into_iter()
        .partition(|d| !allow.allows(&spec.name, d.code));
    AppAnalysis {
        app: spec.name.clone(),
        diagnostics: kept,
        suppressed: dropped.len() as u64,
        stock: span("analysis.predict", || predict(spec, AnalysisMode::Stock)),
        rchdroid: span("analysis.predict", || predict(spec, AnalysisMode::RchDroid)),
        runtimedroid: span("analysis.predict", || {
            predict(spec, AnalysisMode::RuntimeDroid)
        }),
        dataloss_class: spec.dataloss.as_ref().map(|dl| dl.class.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_device::HandlingMode;
    use rch_experiments::run_app;

    #[test]
    fn replicas_digest_like_the_library_bodies() {
        let allow = Suppressions::none();
        for spec in crate::gen::lint_project(11, 0).iter().step_by(5) {
            assert_eq!(
                app_analysis_traced(spec, &allow).digest(),
                AppAnalysis::of(spec, &allow).digest(),
                "{}",
                spec.name
            );
        }
        for spec in crate::gen::study_batch(11, 0).iter().take(6) {
            for mode in [HandlingMode::Android10, HandlingMode::rchdroid_default()] {
                let cfg = RunConfig::new(mode);
                assert_eq!(
                    outcome_digest(&run_app_traced(spec, &cfg)),
                    outcome_digest(&run_app(spec, &cfg)),
                    "{}",
                    spec.name
                );
            }
        }
    }
}
