//! Threshold-based shadow GC (§3.5, Algorithm 1).
//!
//! A shadow-state activity is reclaimed when **both** hold:
//!
//! * `shadow_time > THRESH_T` — it entered the shadow state long ago (a
//!   configuration that has not flipped back for a while probably won't),
//! * `shadow_frequency < THRESH_F` — it entered the shadow state fewer
//!   than `THRESH_F` times in the last `k`-second window (a frequently
//!   flipping activity will likely be reused soon).
//!
//! The paper picks `THRESH_T = 50 s` and `THRESH_F = 4/min` after the
//! sweep of Fig. 11.

use droidsim_kernel::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The GC's verdict for the current shadow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcDecision {
    /// No shadow instance exists.
    NothingToCollect,
    /// Keep: it entered the shadow state too recently.
    TooYoung {
        /// Time since shadow entry.
        age: SimDuration,
    },
    /// Keep: it flips too frequently to be worth collecting.
    TooFrequent {
        /// Shadow entries in the sliding window.
        entries_in_window: u32,
    },
    /// Collect it.
    Collect,
}

impl GcDecision {
    /// Whether the verdict is to reclaim the shadow.
    pub fn should_collect(self) -> bool {
        self == GcDecision::Collect
    }
}

/// The tunable policy (Algorithm 1's inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPolicy {
    /// `THRESH_T`: minimum shadow age before collection.
    pub thresh_t: SimDuration,
    /// `THRESH_F`: shadow-entry count at or above which the instance is
    /// kept.
    pub thresh_f: u32,
    /// `k`: the sliding window over which entries are counted.
    pub window: SimDuration,
}

impl GcPolicy {
    /// The paper's chosen operating point: `THRESH_T = 50 s`,
    /// `THRESH_F = 4` per `k = 60 s` window.
    pub fn paper_default() -> Self {
        GcPolicy {
            thresh_t: SimDuration::from_secs(50),
            thresh_f: 4,
            window: SimDuration::from_secs(60),
        }
    }

    /// A policy with a different `THRESH_T` (the Fig. 11 sweep).
    pub fn with_thresh_t(mut self, thresh_t: SimDuration) -> Self {
        self.thresh_t = thresh_t;
        self
    }
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy::paper_default()
    }
}

/// Tracks shadow-entry events and evaluates Algorithm 1.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::SimTime;
/// use rchdroid::{GcPolicy, ShadowAgeTracker};
///
/// let mut tracker = ShadowAgeTracker::new(GcPolicy::paper_default());
/// tracker.note_shadow_entry(SimTime::from_secs(0));
/// // 10 s later: far younger than THRESH_T = 50 s → keep.
/// let decision = tracker.evaluate(SimTime::from_secs(10), Some(SimTime::from_secs(0)));
/// assert!(!decision.should_collect());
/// ```
#[derive(Debug, Clone)]
pub struct ShadowAgeTracker {
    policy: GcPolicy,
    entries: VecDeque<SimTime>,
}

impl ShadowAgeTracker {
    /// Creates a tracker with the given policy.
    pub fn new(policy: GcPolicy) -> Self {
        ShadowAgeTracker {
            policy,
            entries: VecDeque::new(),
        }
    }

    /// Records that an activity entered the shadow state at `now`.
    pub fn note_shadow_entry(&mut self, now: SimTime) {
        self.entries.push_back(now);
    }

    /// Shadow entries within the sliding window ending at `now`
    /// (`shadow_frequency` in the paper).
    pub fn frequency(&mut self, now: SimTime) -> u32 {
        let horizon = now.saturating_since(SimTime::ZERO);
        let cutoff = if horizon.as_micros() > self.policy.window.as_micros() {
            SimTime::from_micros(now.as_micros() - self.policy.window.as_micros())
        } else {
            SimTime::ZERO
        };
        while self.entries.front().is_some_and(|&t| t < cutoff) {
            self.entries.pop_front();
        }
        self.entries.len() as u32
    }

    /// Algorithm 1: evaluates the current shadow instance, whose last
    /// shadow entry happened at `shadow_since` (`None` = no shadow).
    pub fn evaluate(&mut self, now: SimTime, shadow_since: Option<SimTime>) -> GcDecision {
        let Some(since) = shadow_since else {
            return GcDecision::NothingToCollect;
        };
        let age = now.saturating_since(since);
        if age <= self.policy.thresh_t {
            return GcDecision::TooYoung { age };
        }
        let entries_in_window = self.frequency(now);
        if entries_in_window >= self.policy.thresh_f {
            return GcDecision::TooFrequent { entries_in_window };
        }
        GcDecision::Collect
    }

    /// Forgets all recorded entries (the coupled foreground activity was
    /// switched or finished; the shadow is released immediately).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn no_shadow_nothing_to_collect() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        assert_eq!(t.evaluate(secs(100), None), GcDecision::NothingToCollect);
    }

    #[test]
    fn young_shadow_is_kept() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        t.note_shadow_entry(secs(0));
        let d = t.evaluate(secs(30), Some(secs(0)));
        assert!(matches!(d, GcDecision::TooYoung { .. }));
    }

    #[test]
    fn old_infrequent_shadow_is_collected() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        t.note_shadow_entry(secs(0));
        // 70 s later: age 70 > 50, and the single entry left the 60 s
        // window → frequency 0 < 4.
        assert_eq!(t.evaluate(secs(70), Some(secs(0))), GcDecision::Collect);
    }

    #[test]
    fn frequent_flipper_is_kept_even_when_old() {
        let policy = GcPolicy {
            thresh_t: SimDuration::from_secs(5),
            ..GcPolicy::paper_default()
        };
        let mut t = ShadowAgeTracker::new(policy);
        // Six entries in the last minute (the Fig. 11 workload rate).
        for i in 0..6 {
            t.note_shadow_entry(secs(40 + i * 10));
        }
        let d = t.evaluate(secs(96), Some(secs(90)));
        // age = 6s > 5s, but frequency ≥ 4 → kept.
        assert!(
            matches!(d, GcDecision::TooFrequent { entries_in_window } if entries_in_window >= 4)
        );
    }

    #[test]
    fn window_expires_old_entries() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        for i in 0..10 {
            t.note_shadow_entry(secs(i));
        }
        assert_eq!(t.frequency(secs(9)), 10);
        assert_eq!(t.frequency(secs(100)), 0, "all outside the 60 s window");
    }

    #[test]
    fn boundary_age_equal_to_thresh_is_kept() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        t.note_shadow_entry(secs(0));
        let d = t.evaluate(secs(50), Some(secs(0)));
        assert!(
            matches!(d, GcDecision::TooYoung { .. }),
            "strictly-greater comparison"
        );
    }

    #[test]
    fn reset_clears_history() {
        let mut t = ShadowAgeTracker::new(GcPolicy::paper_default());
        t.note_shadow_entry(secs(1));
        t.reset();
        assert_eq!(t.frequency(secs(2)), 0);
    }

    #[test]
    fn sweeping_thresh_t_changes_the_verdict() {
        // The Fig. 11 mechanism: a larger THRESH_T keeps shadows longer.
        // Shadow entered at t=0, GC check at t=101 s (window empty).
        for (thresh, collected) in [(20u64, true), (80, true), (200, false)] {
            let policy = GcPolicy::paper_default().with_thresh_t(SimDuration::from_secs(thresh));
            let mut t = ShadowAgeTracker::new(policy);
            t.note_shadow_entry(secs(0));
            let d = t.evaluate(secs(101), Some(SimTime::ZERO));
            assert_eq!(d.should_collect(), collected, "THRESH_T={thresh}");
        }
    }
}
