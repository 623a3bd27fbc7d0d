//! The common per-app test scenario (the paper's manual workflow, §A.5):
//! launch, enter a stable state, set user state, optionally start an async
//! task, issue runtime changes, and inspect the outcome.

use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_kernel::SimDuration;
use rch_workloads::GenericAppSpec;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The system under test.
    pub mode: HandlingMode,
    /// Number of runtime changes to issue (the paper averages ≥5 runs;
    /// a 4-change sequence — one init + three flips under RCHDroid —
    /// matches its steady-state reporting).
    pub changes: usize,
    /// Pause between changes (keep below THRESH_T so flips happen).
    pub pause_between: SimDuration,
    /// Start the 5-second async task before the first change (the crash
    /// scenario of Fig. 1/Fig. 9).
    pub with_async_task: bool,
}

impl RunConfig {
    /// The default 4-change workflow for a mode.
    pub fn new(mode: HandlingMode) -> Self {
        RunConfig {
            mode,
            changes: 4,
            pause_between: SimDuration::from_secs(2),
            with_async_task: false,
        }
    }

    /// Sets the number of changes.
    pub fn changes(mut self, n: usize) -> Self {
        self.changes = n;
        self
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-change handling latencies in ms.
    pub latencies_ms: Vec<f64>,
    /// Whether the app crashed during the run.
    pub crashed: bool,
    /// Whether every state item still held its value at the end.
    pub state_ok: bool,
    /// PSS right after the changes (both instances alive under RCHDroid),
    /// in MiB.
    pub memory_mib: f64,
    /// Total CPU-busy time attributable to change handling + migration,
    /// in ms (energy-model input).
    pub busy_ms: f64,
}

impl RunOutcome {
    /// Mean handling latency over the run.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }

    /// Whether the app's runtime-change issue was observed (crash or
    /// state loss).
    pub fn issue_observed(&self) -> bool {
        self.crashed || !self.state_ok
    }
}

/// Runs one app spec through the scenario on a fresh device.
pub fn run_app(spec: &GenericAppSpec, cfg: &RunConfig) -> RunOutcome {
    let mut device = Device::new(cfg.mode);
    let probe = spec.build(); // state helpers (stateless twin of the installed model)
    let component = device
        .install_and_launch(
            Box::new(spec.build()),
            spec.base_memory_bytes,
            spec.complexity,
        )
        .expect("launch succeeds on a fresh device");

    // Stable state + user interaction.
    device.advance(SimDuration::from_secs(1));
    device
        .with_foreground_activity_mut(|a| probe.apply_user_state(a))
        .expect("foreground just launched");

    if cfg.with_async_task || spec.uses_async_task {
        device
            .start_async_on_foreground(spec.async_task())
            .expect("foreground alive");
    }

    // The runtime changes.
    for _ in 0..cfg.changes {
        if device.is_crashed(&component) {
            break;
        }
        let _ = device.rotate();
        device.advance(cfg.pause_between);
    }
    let memory_mib = device
        .memory_snapshot(&component)
        .map_or(0.0, |s| s.total_mib());

    // Let the async task land (5 s task; make sure it returned).
    device.advance(SimDuration::from_secs(8));

    let crashed = device.is_crashed(&component);
    let state_ok = if crashed {
        false
    } else {
        device
            .with_foreground_activity_mut(|a| probe.all_state_survived(a))
            .unwrap_or(false)
    };

    let latencies_ms = device
        .process(&component)
        .map(droidsim_device::AppProcess::latencies_ms)
        .unwrap_or_default();
    let busy_ms: f64 = latencies_ms.iter().sum::<f64>()
        + device
            .events()
            .iter()
            .filter_map(|e| match e {
                DeviceEvent::AsyncDelivered {
                    migration_latency: Some(d),
                    ..
                } => Some(d.as_millis_f64()),
                _ => None,
            })
            .sum::<f64>();

    RunOutcome {
        latencies_ms,
        crashed,
        state_ok,
        memory_mib,
        busy_ms,
    }
}

/// Convenience: run the same spec under two modes (comparison shape).
pub fn run_both(spec: &GenericAppSpec) -> (RunOutcome, RunOutcome) {
    let stock = run_app(spec, &RunConfig::new(HandlingMode::Android10));
    let rch = run_app(spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    (stock, rch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rch_workloads::tp27_specs;

    #[test]
    fn stock_run_on_issue_app_observes_the_issue() {
        let specs = tp27_specs();
        let outcome = run_app(&specs[0], &RunConfig::new(HandlingMode::Android10));
        assert!(
            outcome.issue_observed(),
            "AlarmClockPlus loses state under stock"
        );
        assert_eq!(outcome.latencies_ms.len(), 4);
    }

    #[test]
    fn rchdroid_run_fixes_the_issue() {
        let specs = tp27_specs();
        let outcome = run_app(&specs[0], &RunConfig::new(HandlingMode::rchdroid_default()));
        assert!(!outcome.issue_observed());
    }

    #[test]
    fn async_app_crashes_under_stock_only() {
        let specs = tp27_specs();
        let bluenet = &specs[3]; // uses an async task
        let (stock, rch) = run_both(bluenet);
        assert!(stock.crashed, "BlueNET crashes under stock");
        assert!(!rch.crashed, "RCHDroid prevents the crash");
    }

    #[test]
    fn rchdroid_memory_exceeds_stock_memory() {
        let specs = tp27_specs();
        let (stock, rch) = run_both(&specs[1]);
        assert!(rch.memory_mib > stock.memory_mib);
    }

    #[test]
    fn rchdroid_is_faster_on_average() {
        let specs = tp27_specs();
        let (stock, rch) = run_both(&specs[2]);
        assert!(rch.mean_latency_ms() < stock.mean_latency_ms());
    }
}
