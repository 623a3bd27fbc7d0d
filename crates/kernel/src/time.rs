//! Virtual time: microsecond-resolution instants and durations.
//!
//! `SimTime` is an absolute instant on the simulation clock; `SimDuration` is
//! the difference between two instants. Both are thin wrappers around `u64`
//! microseconds, so arithmetic is exact and hashable; saturating semantics
//! are used on subtraction so cost-model code never panics on underflow.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant on the virtual simulation clock, in microseconds
/// since simulation start.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(89);
/// assert_eq!(t.as_micros(), 89_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2_500);
/// assert_eq!(d.as_millis_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant at `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant at `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant at `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// This instant as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as (possibly fractional) milliseconds since start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant as (possibly fractional) seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        if millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((millis * 1_000.0).round() as u64)
    }

    /// This span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales the span by a float factor, rounding to the nearest
    /// microsecond and clamping negative results to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.as_millis_f64() * factor)
    }

    /// Checked subtraction; `None` if `other` is larger.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(10) + SimDuration::from_micros(250);
        assert_eq!(t.as_micros(), 10_250);
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_micros(250));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fractional_millis_round() {
        assert_eq!(SimDuration::from_millis_f64(2.5).as_micros(), 2_500);
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(0.0004).as_micros(), 0);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimTime::from_millis(89).to_string(), "89.000ms");
        assert_eq!(SimDuration::from_micros(8_600).to_string(), "8.600ms");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10).mul_f64(1.5);
        assert_eq!(d.as_micros(), 15_000);
        assert_eq!(
            SimDuration::from_millis(10).mul_f64(-2.0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sum_accumulates() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_micros(1) < SimTime::from_millis(1));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }
}
