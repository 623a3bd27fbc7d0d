//! What one measured phase accumulates, and the end-to-end metrics
//! derived from it.
//!
//! A step's timings wait in the meter until the step ends; the runner
//! then hands over the step's [`crate::speed`] factor, and the scaled
//! timings join the current window.

use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end figures are medians over consecutive windows of at least
/// this many ops (closed at step boundaries), so a slow stretch of a run
/// moves them less than it moves whole-run totals. At least a thousand
/// ops keeps ten samples beyond p99 in every window.
pub const WINDOW_OPS: u64 = 1024;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `op/s`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Ops, wall, latencies and peak resident memory of the current step,
/// or of the steps since the last window closed.
#[derive(Debug, Clone, Default)]
struct Window {
    ops: u64,
    timed: Duration,
    latency_ms: Vec<f64>,
    peak_rss_mib: f64,
}

/// A closed window's figures.
#[derive(Debug, Clone, Copy)]
struct WindowStats {
    ops_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    peak_rss_mib: f64,
}

impl Window {
    fn stats(&mut self) -> WindowStats {
        self.latency_ms.sort_by(f64::total_cmp);
        WindowStats {
            ops_per_s: self.ops as f64 / self.timed.as_secs_f64().max(1e-9),
            p50_ms: percentile(&self.latency_ms, 50.0),
            p99_ms: percentile(&self.latency_ms, 99.0),
            peak_rss_mib: self.peak_rss_mib,
        }
    }
}

/// Ops, failures, timed wall and CPU, latencies and layer counters of
/// one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed (or that errored).
    pub failed: u64,
    /// Σ wall time of the timed calls into the system under test, as
    /// measured (not scaled: the trace's spans are not either).
    pub timed: Duration,
    /// Process CPU (ms) spent inside the timed calls, at the reference
    /// speed.
    pub cpu_ms: f64,
    /// Op latencies recorded.
    pub samples: u64,
    /// Layer counters the workload reads from public APIs.
    counters: BTreeMap<&'static str, f64>,
    step: Window,
    step_cpu_ms: f64,
    window: Window,
    windows: Vec<WindowStats>,
}

impl Meter {
    /// An empty meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Runs one timed call into the system under test, adding its wall
    /// time and the process CPU it used. Returns the result and the
    /// call's wall time in ms.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let cpu = crate::sys::cpu_ms();
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed();
        self.step_cpu_ms += crate::sys::cpu_ms() - cpu;
        self.timed += wall;
        self.step.timed += wall;
        (out, wall.as_secs_f64() * 1e3)
    }

    /// Counts `n` attempted ops of which `failed` failed their checks.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
        self.step.ops += n;
    }

    /// Adds op latencies (ms).
    pub fn latencies(&mut self, ms: impl IntoIterator<Item = f64>) {
        let before = self.step.latency_ms.len();
        self.step.latency_ms.extend(ms);
        self.samples += (self.step.latency_ms.len() - before) as u64;
    }

    /// Ends a step: scales its timings by `factor` (the step's
    /// [`crate::speed::factor`]) into the current window, records the
    /// step's peak resident memory, and closes the window once it holds
    /// [`WINDOW_OPS`] ops.
    pub fn end_step(&mut self, factor: f64, peak_rss_mib: f64) {
        let step = std::mem::take(&mut self.step);
        self.cpu_ms += std::mem::take(&mut self.step_cpu_ms) * factor;
        self.window.peak_rss_mib = self.window.peak_rss_mib.max(peak_rss_mib);
        self.window.ops += step.ops;
        self.window.timed += step.timed.mul_f64(factor);
        self.window
            .latency_ms
            .extend(step.latency_ms.iter().map(|ms| ms * factor));
        if self.window.ops >= WINDOW_OPS {
            let stats = std::mem::take(&mut self.window).stats();
            self.windows.push(stats);
        }
    }

    /// Adds `v` to the layer counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// A layer counter (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Ops per second over all timed wall, as measured.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.timed.as_secs_f64().max(1e-9)
    }

    /// The end-to-end metrics of this phase, given the median set-up
    /// time. Throughput, latencies and peak memory are medians over the
    /// closed windows (or the one partial window of a run too short to
    /// close any); CPU per op is over the whole phase, since `/proc`
    /// counts CPU in 10 ms ticks. All times are at the reference speed.
    pub fn end_to_end(&mut self, setup_s: f64) -> Vec<Metric> {
        if self.windows.is_empty() && self.window.ops > 0 {
            let stats = std::mem::take(&mut self.window).stats();
            self.windows.push(stats);
        }
        let med =
            |f: fn(&WindowStats) -> f64| median(&self.windows.iter().map(f).collect::<Vec<f64>>());
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", med(|w| w.ops_per_s), "op/s"),
            Metric::new("op_p50_ms", med(|w| w.p50_ms), "ms"),
            Metric::new("op_p99_ms", med(|w| w.p99_ms), "ms"),
            Metric::new(
                "cpu_ms_per_op",
                self.cpu_ms / self.attempted.max(1) as f64,
                "ms",
            ),
            Metric::new("peak_rss_mib", med(|w| w.peak_rss_mib), "MiB"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_timed_calls_and_ops() {
        let mut m = Meter::new();
        let (v, ms) = m.time(|| {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(ms >= 5.0);
        m.ops(10, 0);
        m.ops(5, 9);
        assert_eq!((m.attempted, m.failed), (15, 5));
        m.latencies([1.0, 2.0, 3.0]);
        assert_eq!(m.samples, 3);
        m.count("x", 2.0);
        m.count("x", 1.0);
        assert_eq!(m.counter("x"), 3.0);
        assert_eq!(m.counter("y"), 0.0);
        // A host at half the reference speed: timings count half.
        m.end_step(0.5, 12.0);
        assert!(m.timed >= Duration::from_millis(5));
        assert!(m.window.timed < m.timed);
        let e2e = m.end_to_end(0.5);
        let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ops_per_s",
                "op_p50_ms",
                "op_p99_ms",
                "cpu_ms_per_op",
                "peak_rss_mib"
            ]
        );
        assert_eq!(e2e[2].value, 1.0);
        assert_eq!(e2e[5].value, 12.0);
    }

    #[test]
    fn end_to_end_figures_are_medians_over_windows() {
        let mut m = Meter::new();
        // Three windows at 1, 1 and 1000 ms per op: the slow window moves
        // the median not at all.
        for per_op_ms in [1.0, 1.0, 1000.0] {
            m.step.timed += Duration::from_secs_f64(per_op_ms * 1e-3 * WINDOW_OPS as f64);
            m.ops(WINDOW_OPS, 0);
            m.latencies(std::iter::repeat_n(per_op_ms, WINDOW_OPS as usize));
            m.end_step(1.0, per_op_ms);
        }
        assert_eq!(m.windows.len(), 3);
        let e2e = m.end_to_end(0.0);
        assert!((e2e[1].value - 1000.0).abs() < 1e-6, "{}", e2e[1].value);
        assert_eq!(e2e[2].value, 1.0);
        assert_eq!(e2e[3].value, 1.0);
        assert_eq!(e2e[5].value, 1.0);
    }
}
