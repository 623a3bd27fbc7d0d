//! Supervision for the migration subsystem: typed errors, the
//! degradation ladder, and the flush watchdog.
//!
//! RCHDroid's contract is *never worse than stock Android*. Stock
//! Android's answer to any lifecycle fault is a process death; RCHDroid
//! therefore gets a ladder of strictly-better answers, tried in order:
//!
//! 1. **Contained per-view** — a fault touching one view (essence-map
//!    miss, attribute-copy error, a panic inside the Table-1 copy) skips
//!    that view and marks it stale; the rest of the batch migrates.
//! 2. **Fallback restart** — a fault poisoning the whole change (bundle
//!    corruption, allocation failure, flush-deadline overrun) abandons
//!    shadow/sunny handling and replays the stock
//!    `onSaveInstanceState` → destroy → recreate path, rolling back any
//!    coin-flip record swap in atms first.
//! 3. **Process crash** — app-logic bugs that would crash stock Android
//!    too (null-pointer on a released tree, window leak) mark the
//!    process crashed; they are *reported*, never unwound through the
//!    simulator.
//!
//! Every rung is recorded in a fault log (the crate-private `FaultLog`,
//! read through [`FaultMetrics`]) so tests and benches can assert which
//! rung absorbed which fault.

use core::fmt;
use droidsim_faults::FaultSite;
use droidsim_kernel::SimDuration;
use droidsim_metrics::FaultMetrics;
use droidsim_view::ViewError;

/// A fault that aborted a migration flush (rungs 2–3 of the ladder; rung
/// 1 never surfaces as an error — contained views are counted in the
/// [`MigrationReport`](crate::MigrationReport) instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The sunny tree rejected an essence copy with an app-crashing
    /// error (released tree, leaked window) — the one class the ladder
    /// cannot absorb below rung 3.
    Tree(ViewError),
    /// An armed [`FaultPlan`](droidsim_faults::FaultPlan) injected an
    /// uncontainable fault at `site`.
    Injected {
        /// Where the fault struck.
        site: FaultSite,
    },
    /// The watchdog aborted the flush: migrating the batch would have
    /// cost `needed` of virtual time against a budget of `budget`.
    DeadlineExceeded {
        /// The per-flush budget in force.
        budget: SimDuration,
        /// The batch's estimated cost.
        needed: SimDuration,
    },
    /// A panic escaped app/view code during migration and was caught at
    /// the supervision boundary.
    Panicked {
        /// Human-readable panic context.
        context: String,
    },
}

impl MigrationError {
    /// The fault site to attribute this error to, if it has one.
    pub fn site(&self) -> Option<FaultSite> {
        match self {
            MigrationError::Injected { site } => Some(*site),
            MigrationError::DeadlineExceeded { .. } => Some(FaultSite::FlushDeadlineOverrun),
            MigrationError::Tree(_) | MigrationError::Panicked { .. } => None,
        }
    }

    /// Whether this error is an app-logic bug that crashes stock Android
    /// too (rung 3) rather than a handling fault the ladder can absorb.
    pub fn is_app_crash(&self) -> bool {
        matches!(self, MigrationError::Tree(e) if e.is_crash())
    }
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::Tree(e) => write!(f, "sunny tree rejected migration: {e}"),
            MigrationError::Injected { site } => write!(f, "injected fault at {site}"),
            MigrationError::DeadlineExceeded { budget, needed } => write!(
                f,
                "flush watchdog: batch needs {:.3} ms against a {:.3} ms budget",
                needed.as_millis_f64(),
                budget.as_millis_f64()
            ),
            MigrationError::Panicked { context } => {
                write!(f, "panic during migration: {context}")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

impl From<ViewError> for MigrationError {
    fn from(e: ViewError) -> Self {
        MigrationError::Tree(e)
    }
}

/// Which rung of the degradation ladder absorbed a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LadderRung {
    /// Rung 1: the faulty view was skipped and marked stale; everything
    /// else migrated.
    ContainedPerView,
    /// Rung 2: the change fell back to the stock restart path.
    FallbackRestart,
    /// Rung 3: the process was marked crashed (stock Android's only
    /// rung).
    ProcessCrash,
}

impl LadderRung {
    /// A stable, log-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::ContainedPerView => "contained-per-view",
            LadderRung::FallbackRestart => "fallback-restart",
            LadderRung::ProcessCrash => "process-crash",
        }
    }
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Virtual-time deadline budget for one migration flush.
///
/// The watchdog prices a batch at `per_entry_cost × entries` and aborts
/// the flush (→ rung 2 fallback) when the price exceeds `budget`. The
/// defaults — 250 ms budget, 100 µs per entry — never trip for realistic
/// batches (thousands of views); they exist to bound the worst case, and
/// the fault plan's `flush-deadline-overrun` site exercises the abort
/// path deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationWatchdog {
    /// Maximum virtual time one flush may cost.
    pub budget: SimDuration,
    /// Modelled cost of migrating one queued entry.
    pub per_entry_cost: SimDuration,
}

impl Default for MigrationWatchdog {
    fn default() -> Self {
        MigrationWatchdog {
            budget: SimDuration::from_millis(250),
            per_entry_cost: SimDuration::from_micros(100),
        }
    }
}

impl MigrationWatchdog {
    /// A watchdog with an explicit budget and per-entry cost.
    pub fn new(budget: SimDuration, per_entry_cost: SimDuration) -> MigrationWatchdog {
        MigrationWatchdog {
            budget,
            per_entry_cost,
        }
    }

    /// Prices a batch of `entries`; returns the estimated cost when it
    /// exceeds the budget, `None` when the flush may proceed.
    pub fn exceeded(&self, entries: usize) -> Option<SimDuration> {
        let needed = self.per_entry_cost.saturating_mul(entries as u64);
        (needed > self.budget).then_some(needed)
    }
}

/// One absorbed fault: where it struck and which rung handled it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The fault site's stable name (or a synthetic name like
    /// `"app-logic"` for organic faults).
    pub site: &'static str,
    /// The rung that absorbed it.
    pub rung: LadderRung,
}

/// Per-handler fault accounting: lifetime [`FaultMetrics`] plus a
/// drainable record of recent faults (the device layer drains these into
/// logcat events).
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultLog {
    metrics: FaultMetrics,
    recent: Vec<FaultRecord>,
}

impl FaultLog {
    pub(crate) fn contained(&mut self, site: &'static str) {
        self.metrics.record_contained(site);
        self.recent.push(FaultRecord {
            site,
            rung: LadderRung::ContainedPerView,
        });
    }

    pub(crate) fn fallback(&mut self, site: &'static str, recovery_ms: f64) {
        self.metrics.record_fallback(site, recovery_ms);
        self.recent.push(FaultRecord {
            site,
            rung: LadderRung::FallbackRestart,
        });
    }

    pub(crate) fn crashed(&mut self, site: &'static str) {
        self.metrics.record_crash(site);
        self.recent.push(FaultRecord {
            site,
            rung: LadderRung::ProcessCrash,
        });
    }

    pub(crate) fn metrics(&self) -> &FaultMetrics {
        &self.metrics
    }

    pub(crate) fn drain(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_prices_batches_against_the_budget() {
        let dog = MigrationWatchdog::default();
        assert_eq!(dog.exceeded(0), None);
        assert_eq!(dog.exceeded(2_500), None, "exactly at budget is fine");
        let needed = dog.exceeded(2_501).expect("one entry over");
        assert!(needed > dog.budget);

        let tight = MigrationWatchdog {
            budget: SimDuration::from_micros(150),
            per_entry_cost: SimDuration::from_micros(100),
        };
        assert_eq!(tight.exceeded(1), None);
        assert_eq!(tight.exceeded(2), Some(SimDuration::from_micros(200)));
    }

    #[test]
    fn error_sites_attribute_to_the_right_fault() {
        let injected = MigrationError::Injected {
            site: FaultSite::AttributeCopy,
        };
        assert_eq!(injected.site(), Some(FaultSite::AttributeCopy));
        let overrun = MigrationError::DeadlineExceeded {
            budget: SimDuration::from_millis(1),
            needed: SimDuration::from_millis(2),
        };
        assert_eq!(overrun.site(), Some(FaultSite::FlushDeadlineOverrun));
        let panic = MigrationError::Panicked {
            context: "boom".into(),
        };
        assert_eq!(panic.site(), None);
        assert!(!panic.is_app_crash());
    }

    #[test]
    fn tree_crashes_are_rung_three() {
        use droidsim_view::ViewId;
        let crash = MigrationError::Tree(ViewError::NullPointer {
            view: ViewId::new(1),
        });
        assert!(crash.is_app_crash());
        let benign = MigrationError::Tree(ViewError::UnknownView(ViewId::new(1)));
        assert!(!benign.is_app_crash());
    }

    #[test]
    fn fault_log_keeps_metrics_and_records_in_sync() {
        let mut log = FaultLog::default();
        log.contained("attribute-copy");
        log.fallback("bundle-corruption", 0.5);
        log.crashed("app-logic");
        assert_eq!(log.metrics().total_faults(), 3);
        let records = log.drain();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].rung, LadderRung::ContainedPerView);
        assert_eq!(records[1].rung, LadderRung::FallbackRestart);
        assert_eq!(records[2].rung, LadderRung::ProcessCrash);
        assert!(log.drain().is_empty(), "drain empties the log");
        assert_eq!(log.metrics().total_faults(), 3, "metrics are lifetime");
    }

    #[test]
    fn rung_names_are_stable() {
        assert_eq!(LadderRung::ContainedPerView.name(), "contained-per-view");
        assert_eq!(LadderRung::FallbackRestart.name(), "fallback-restart");
        assert_eq!(LadderRung::ProcessCrash.name(), "process-crash");
        assert_eq!(LadderRung::FallbackRestart.to_string(), "fallback-restart");
    }
}
