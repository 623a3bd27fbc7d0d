//! The board energy model.
//!
//! §5.6 of the paper: the power meter reads 4.03 W for all 27 apps on
//! both systems — the shadow instance is inactive (no rendering, no CPU),
//! so it draws nothing the meter can resolve. The model reproduces that:
//! board power = idle base + display + CPU-activity term, where the
//! activity term integrates busy time; millisecond-scale handling bursts
//! vanish at the meter's sampling resolution.

use droidsim_kernel::SimDuration;

/// Board-level power/energy model.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::SimDuration;
/// use droidsim_metrics::EnergyModel;
///
/// let model = EnergyModel::rk3399();
/// // A 150 ms handling burst over a 10 s observation window:
/// let watts = model.mean_power(SimDuration::from_secs(10), SimDuration::from_millis(150));
/// assert!((watts - 4.03).abs() < 0.05, "invisible at meter resolution");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Idle board power (SoC + RAM + peripherals), watts.
    pub idle_watts: f64,
    /// Display panel power, watts.
    pub display_watts: f64,
    /// Additional power while a core is fully busy, watts.
    pub busy_watts: f64,
    /// The meter's display resolution, watts.
    pub meter_resolution_watts: f64,
}

impl EnergyModel {
    /// Constants for the ROC-RK3399-PC-PLUS evaluation board: idle +
    /// display sums to the paper's 4.03 W reading.
    pub fn rk3399() -> Self {
        EnergyModel {
            idle_watts: 2.73,
            display_watts: 1.30,
            busy_watts: 2.1,
            meter_resolution_watts: 0.01,
        }
    }

    /// Mean power over an observation `window` during which the CPU was
    /// busy for `busy` time in total.
    pub fn mean_power(&self, window: SimDuration, busy: SimDuration) -> f64 {
        let base = self.idle_watts + self.display_watts;
        if window.is_zero() {
            return base;
        }
        let duty = (busy.as_micros() as f64 / window.as_micros() as f64).min(1.0);
        base + self.busy_watts * duty
    }

    /// The value a human reads off the meter (quantised to its
    /// resolution).
    pub fn meter_reading(&self, window: SimDuration, busy: SimDuration) -> f64 {
        let p = self.mean_power(window, busy);
        (p / self.meter_resolution_watts).round() * self.meter_resolution_watts
    }

    /// Energy in joules consumed over `window` with `busy` total busy
    /// time.
    pub fn energy_joules(&self, window: SimDuration, busy: SimDuration) -> f64 {
        self.mean_power(window, busy) * window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_reading_is_4_03_watts() {
        let m = EnergyModel::rk3399();
        let r = m.meter_reading(SimDuration::from_secs(60), SimDuration::ZERO);
        assert!((r - 4.03).abs() < 1e-9);
    }

    #[test]
    fn handling_bursts_do_not_move_the_meter() {
        let m = EnergyModel::rk3399();
        // Six 150 ms bursts per minute — the Fig. 11 workload.
        let busy = SimDuration::from_millis(900);
        let r = m.meter_reading(SimDuration::from_secs(60), busy);
        assert!((r - 4.06).abs() < 0.03, "≤ a few hundredths of a watt: {r}");
    }

    #[test]
    fn sustained_load_does_move_the_meter() {
        let m = EnergyModel::rk3399();
        let r = m.mean_power(SimDuration::from_secs(10), SimDuration::from_secs(10));
        assert!(r > 6.0, "a pegged core is visible: {r}");
    }

    #[test]
    fn energy_integrates_power() {
        let m = EnergyModel::rk3399();
        let j = m.energy_joules(SimDuration::from_secs(10), SimDuration::ZERO);
        assert!((j - 40.3).abs() < 0.01);
    }
}
