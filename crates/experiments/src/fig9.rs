//! Fig. 9: CPU and memory usage over time for the 4-ImageView benchmark
//! app, Android-10 vs RCHDroid.
//!
//! The scripted timeline follows the paper's artifact workflow (§A.5):
//!
//! 1. first runtime change (`wm size 1080x1920`),
//! 2. button touch → a 5-second AsyncTask that updates the ImageViews,
//! 3. second runtime change (`wm size reset`) while the task runs,
//! 4. the task returns: Android-10 throws `NullPointerException` and the
//!    process dies (its memory drops to 0); RCHDroid lazily migrates the
//!    updates to the sunny tree.
//!
//! The paper's x-axis tick labels are in profiler time units; here the
//! same event ordering plays out on a seconds axis (change at 1.7 s,
//! touch at 6.7 s, change at 7.9 s, task return at 11.7 s). CPU
//! utilisation per handling burst is the one calibrated free parameter,
//! chosen so sampled peaks match the paper's 11 % (Android-10), 15 %
//! (RCHDroid first change) and 12 % (RCHDroid second change).

use droidsim_app::SimpleApp;
use droidsim_device::{Device, DeviceEvent, HandlingMode, HandlingPath};
use droidsim_kernel::{SimDuration, SimTime};
use droidsim_metrics::{TracePoint, Tracer};
use rch_workloads::BENCHMARK_BASE_MEMORY;

/// Per-path CPU utilisation during a handling burst (calibrated; see
/// module docs).
fn burst_utilisation(path: HandlingPath) -> f64 {
    match path {
        HandlingPath::Relaunch => 0.39,
        HandlingPath::RchInit => 0.46,
        HandlingPath::RchFlip => 0.67,
        // The fallback replays the stock restart path.
        HandlingPath::RchFallback => 0.39,
        HandlingPath::RuntimeDroidInPlace => 0.45,
        HandlingPath::HandledByApp => 0.30,
        HandlingPath::NoChange => 0.0,
    }
}

/// The sampled traces for one system.
#[derive(Debug, Clone)]
pub struct SystemTrace {
    /// Label ("Android-10" / "RCHDroid").
    pub label: &'static str,
    /// Sampled points.
    pub points: Vec<TracePoint>,
    /// Whether the app crashed during the run.
    pub crashed: bool,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Stock trace (ends in a crash).
    pub android10: SystemTrace,
    /// RCHDroid trace (survives).
    pub rchdroid: SystemTrace,
}

impl Fig9 {
    /// Renders both traces side by side.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fig. 9: CPU and memory usage over time (benchmark app, 4 ImageViews)\n");
        out.push_str(&format!(
            "{:>6} | {:>8} {:>9} | {:>8} {:>9}\n",
            "t(s)", "A10 cpu%", "A10 MiB", "RCH cpu%", "RCH MiB"
        ));
        for (a, r) in self.android10.points.iter().zip(&self.rchdroid.points) {
            out.push_str(&format!(
                "{:>6.1} | {:>8.1} {:>9.2} | {:>8.1} {:>9.2}\n",
                a.at.as_secs_f64(),
                a.cpu_percent,
                a.memory_mib,
                r.cpu_percent,
                r.memory_mib
            ));
        }
        out.push_str(&format!(
            "=> Android-10 crashed: {} (memory drops to 0); RCHDroid crashed: {}\n",
            self.android10.crashed, self.rchdroid.crashed
        ));
        out
    }
}

/// Runs the scripted timeline under one mode and samples the trace.
pub fn run_mode(mode: HandlingMode, label: &'static str) -> SystemTrace {
    let mut device = Device::new(mode);
    let app = SimpleApp::with_views(4);
    let task = app.button_task();
    let component = device
        .install_and_launch(Box::new(app), BENCHMARK_BASE_MEMORY, 1.0)
        .expect("launch");

    let mut tracer = Tracer::new(SimDuration::from_millis(500));
    let note_memory = |device: &Device, tracer: &mut Tracer| {
        let mib = device
            .memory_snapshot(&component)
            .map_or(0.0, |s| s.total_mib());
        tracer.record_memory(device.now(), mib);
    };
    note_memory(&device, &mut tracer);

    // t = 1.7 s: first runtime change.
    device.advance(SimTime::from_millis(1_700) - device.now());
    let _ = device.rotate();
    note_memory(&device, &mut tracer);

    // t = 6.7 s: button touch starts the 5 s AsyncTask.
    device.advance(SimTime::from_millis(6_700) - device.now());
    let _ = device.start_async_on_foreground(task);

    // t = 7.9 s: second runtime change while the task runs.
    device.advance(SimTime::from_millis(7_900) - device.now());
    let _ = device.rotate();
    note_memory(&device, &mut tracer);

    // t = 14 s: the task returned at 11.7 s.
    device.advance(SimTime::from_secs(14) - device.now());
    note_memory(&device, &mut tracer);

    // Busy intervals from the event log.
    for event in device.events() {
        match event {
            DeviceEvent::ConfigChange {
                at, latency, path, ..
            } => {
                tracer.record_busy(*at, *latency, burst_utilisation(*path));
            }
            DeviceEvent::AsyncDelivered {
                at,
                migration_latency: Some(d),
                ..
            } => {
                tracer.record_busy(*at, *d, 0.5);
            }
            DeviceEvent::Crash { at, .. } => {
                tracer.record_memory(*at, 0.0);
            }
            _ => {}
        }
    }

    SystemTrace {
        label,
        points: tracer.sample(SimTime::from_secs(14)),
        crashed: device.is_crashed(&component),
    }
}

/// Runs the full Fig. 9 experiment.
pub fn run() -> Fig9 {
    Fig9 {
        android10: run_mode(HandlingMode::Android10, "Android-10"),
        rchdroid: run_mode(HandlingMode::rchdroid_default(), "RCHDroid"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn android10_crashes_and_memory_drops_to_zero() {
        let fig = run();
        assert!(fig.android10.crashed);
        assert_eq!(fig.android10.points.last().unwrap().memory_mib, 0.0);
    }

    #[test]
    fn rchdroid_survives_with_memory_intact() {
        let fig = run();
        assert!(!fig.rchdroid.crashed);
        let last = fig.rchdroid.points.last().unwrap();
        assert!(
            last.memory_mib > 40.0,
            "process alive: {} MiB",
            last.memory_mib
        );
    }

    #[test]
    fn cpu_peaks_match_the_papers_ordering() {
        let fig = run();
        let peak_in = |points: &[TracePoint], from_s: f64, to_s: f64| {
            points
                .iter()
                .filter(|p| {
                    let t = p.at.as_secs_f64();
                    t >= from_s && t <= to_s
                })
                .map(|p| p.cpu_percent)
                .fold(0.0f64, f64::max)
        };
        // First change at 1.7 s.
        let a10_first = peak_in(&fig.android10.points, 1.5, 3.0);
        let rch_first = peak_in(&fig.rchdroid.points, 1.5, 3.0);
        // Second change at 7.9 s.
        let rch_second = peak_in(&fig.rchdroid.points, 7.5, 9.0);
        assert!(
            (a10_first - 11.0).abs() < 2.5,
            "Android-10 ≈ 11%: {a10_first:.1}"
        );
        assert!(
            (rch_first - 15.0).abs() < 2.5,
            "RCHDroid init ≈ 15%: {rch_first:.1}"
        );
        assert!(
            (rch_second - 12.0).abs() < 2.5,
            "RCHDroid flip ≈ 12%: {rch_second:.1}"
        );
        assert!(
            rch_second < rch_first,
            "coin flip reduces the second-change CPU cost"
        );
    }

    #[test]
    fn rchdroid_memory_rises_after_first_change() {
        let fig = run();
        let before = fig
            .rchdroid
            .points
            .iter()
            .find(|p| p.at.as_secs_f64() >= 1.0)
            .unwrap();
        let after = fig
            .rchdroid
            .points
            .iter()
            .find(|p| p.at.as_secs_f64() >= 3.0)
            .unwrap();
        assert!(
            after.memory_mib > before.memory_mib,
            "shadow instance retained"
        );
    }
}
