//! CPU and memory time series (the Android Studio profiler's view).
//!
//! Fig. 9 of the paper shows app CPU utilisation and memory over time
//! around two runtime changes and an async-task return. The [`Tracer`]
//! reproduces that instrument: framework code reports *busy intervals*
//! (CPU work) and *memory readings*; the tracer samples both on a fixed
//! grid, averaging busy time per sampling window into a utilisation
//! percentage.

use droidsim_kernel::{SimDuration, SimTime};

/// One sample of the profiler output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sample timestamp.
    pub at: SimTime,
    /// CPU utilisation in percent over the preceding window.
    pub cpu_percent: f64,
    /// Memory footprint in MiB at the sample instant.
    pub memory_mib: f64,
}

#[derive(Debug, Clone, Copy)]
struct BusyInterval {
    start: SimTime,
    end: SimTime,
    utilisation: f64,
}

/// Records busy intervals and memory readings; samples them on a grid.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::{SimDuration, SimTime};
/// use droidsim_metrics::Tracer;
///
/// let mut tracer = Tracer::new(SimDuration::from_millis(10));
/// tracer.record_busy(SimTime::ZERO, SimDuration::from_millis(5), 1.0);
/// tracer.record_memory(SimTime::ZERO, 47.5);
/// let points = tracer.sample(SimTime::from_millis(20));
/// assert_eq!(points.len(), 2);
/// assert!((points[0].cpu_percent - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    window: SimDuration,
    busy: Vec<BusyInterval>,
    memory: Vec<(SimTime, f64)>,
}

impl Tracer {
    /// Creates a tracer with the given sampling window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "sampling window must be positive");
        Tracer {
            window,
            busy: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// Reports CPU work: the app was busy from `start` for `duration` at
    /// the given utilisation fraction (1.0 = one core fully busy).
    pub fn record_busy(&mut self, start: SimTime, duration: SimDuration, utilisation: f64) {
        if duration.is_zero() || utilisation <= 0.0 {
            return;
        }
        self.busy.push(BusyInterval {
            start,
            end: start + duration,
            utilisation: utilisation.min(1.0),
        });
    }

    /// Reports a memory reading (MiB). Readings are step-interpolated.
    pub fn record_memory(&mut self, at: SimTime, mib: f64) {
        self.memory.push((at, mib));
    }

    /// Samples utilisation and memory on the grid `[0, until]`.
    pub fn sample(&self, until: SimTime) -> Vec<TracePoint> {
        let mut memory = self.memory.clone();
        memory.sort_by_key(|&(t, _)| t);
        let window_us = self.window.as_micros();
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        while t < until {
            let window_start = t;
            let window_end = t + self.window;
            let mut busy_us = 0.0;
            for interval in &self.busy {
                let overlap_start = interval.start.max(window_start);
                let overlap_end =
                    SimTime::from_micros(interval.end.as_micros().min(window_end.as_micros()));
                if overlap_end > overlap_start {
                    busy_us +=
                        (overlap_end - overlap_start).as_micros() as f64 * interval.utilisation;
                }
            }
            let cpu_percent = (busy_us / window_us as f64 * 100.0).min(100.0);
            let memory_mib = memory
                .iter()
                .take_while(|&&(at, _)| at <= window_end)
                .last()
                .map_or(0.0, |&(_, m)| m);
            points.push(TracePoint {
                at: window_end,
                cpu_percent,
                memory_mib,
            });
            t = window_end;
        }
        points
    }

    /// The sampling window.
    pub fn window(&self) -> SimDuration {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn idle_trace_is_flat_zero() {
        let tracer = Tracer::new(SimDuration::from_millis(10));
        let points = tracer.sample(ms(50));
        assert_eq!(points.len(), 5);
        assert!(points.iter().all(|p| p.cpu_percent == 0.0));
    }

    #[test]
    fn busy_burst_shows_in_its_window_only() {
        let mut tracer = Tracer::new(SimDuration::from_millis(10));
        // 3 ms of full-core work starting at t=12 ms → 30 % in window 2.
        tracer.record_busy(ms(12), SimDuration::from_millis(3), 1.0);
        let points = tracer.sample(ms(30));
        assert_eq!(points[0].cpu_percent, 0.0);
        assert!((points[1].cpu_percent - 30.0).abs() < 1e-9);
        assert_eq!(points[2].cpu_percent, 0.0);
    }

    #[test]
    fn burst_spanning_windows_splits() {
        let mut tracer = Tracer::new(SimDuration::from_millis(10));
        tracer.record_busy(ms(5), SimDuration::from_millis(10), 1.0);
        let points = tracer.sample(ms(20));
        assert!((points[0].cpu_percent - 50.0).abs() < 1e-9);
        assert!((points[1].cpu_percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn utilisation_fraction_scales() {
        let mut tracer = Tracer::new(SimDuration::from_millis(10));
        tracer.record_busy(ms(0), SimDuration::from_millis(10), 0.15);
        let points = tracer.sample(ms(10));
        assert!((points[0].cpu_percent - 15.0).abs() < 1e-9);
    }

    #[test]
    fn memory_is_step_interpolated() {
        let mut tracer = Tracer::new(SimDuration::from_millis(10));
        tracer.record_memory(ms(0), 47.0);
        tracer.record_memory(ms(25), 53.0);
        let points = tracer.sample(ms(40));
        assert_eq!(points[0].memory_mib, 47.0);
        assert_eq!(points[1].memory_mib, 47.0);
        assert_eq!(
            points[2].memory_mib, 53.0,
            "reading at 25ms lands in window 3"
        );
        assert_eq!(points[3].memory_mib, 53.0);
    }

    #[test]
    fn memory_drop_to_zero_models_a_crash() {
        let mut tracer = Tracer::new(SimDuration::from_millis(10));
        tracer.record_memory(ms(0), 48.0);
        tracer.record_memory(ms(117), 0.0); // the Fig. 9 crash
        let points = tracer.sample(ms(120));
        assert_eq!(points.last().unwrap().memory_mib, 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling window must be positive")]
    fn zero_window_panics() {
        Tracer::new(SimDuration::ZERO);
    }
}
