//! Per-device metric sinks for fleet reduction.
//!
//! The serial harnesses could get away with one global accumulator; a
//! parallel fleet cannot — two workers folding histograms into a shared
//! sink would interleave nondeterministically. [`DeviceMetrics`] is the
//! per-device sink: each simulated device owns exactly one, filled only
//! by that device's handler, and the reducer merges the sinks **in
//! device-index order** after every worker has finished. Merging is
//! associative over disjoint devices, so the merged aggregate of a
//! parallel run equals the serial run's, histogram bins and all.

use core::fmt;

use crate::faults::FaultMetrics;
use crate::migration::MigrationMetrics;

/// Everything one device's handler measured: the lazy-migration counters
/// and the fault-ladder ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceMetrics {
    /// Lazy-migration flush counters and batch sizes.
    pub migration: MigrationMetrics,
    /// Degradation-ladder fault ledger.
    pub faults: FaultMetrics,
}

impl DeviceMetrics {
    /// Fresh, all-zero sink.
    pub fn new() -> DeviceMetrics {
        DeviceMetrics::default()
    }

    /// Folds another device's sink into this one. Call in device-index
    /// order from the fleet reducer so aggregates are reproducible.
    pub fn merge(&mut self, other: &DeviceMetrics) {
        self.migration.merge(&other.migration);
        self.faults.merge(&other.faults);
    }

    /// A stable one-line rendering of every field — counters, batch
    /// sizes, fault sites. All of them depend only on the simulation;
    /// this is what fleet determinism digests hash: it must be
    /// bit-identical between serial and parallel runs of the same seeds.
    pub fn deterministic_fingerprint(&self) -> String {
        let m = &self.migration;
        let f = &self.faults;
        format!(
            "migration[flushes={} raw={} coalesced={} batch[{}]] \
             faults[contained={} fallbacks={} crashes={} sites={:?}]",
            m.flushes,
            m.raw_invalidations,
            m.coalesced_entries,
            m.batch_size,
            f.contained_per_view,
            f.fallback_restarts,
            f.crashes,
            f.by_site(),
        )
    }
}

/// The fleet driver's outcome ledger: how every task of a run ended and
/// how often tasks were retried.
///
/// One ledger describes one `run_fleet_supervised` invocation; the
/// driver fills it from the per-slot outcomes **in task-index order**
/// after every worker has finished, so the counters are reproducible
/// for any worker count. The ledger is plain counters and `Copy`: it
/// keeps no per-attempt data, so merging it into a long-lived total (the
/// daemon's) costs the same after a million tasks as after one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetLedger {
    /// Tasks that produced a result (possibly after retries).
    pub ok: u64,
    /// Tasks quarantined after their final attempt panicked.
    pub panicked: u64,
    /// Tasks quarantined after their final attempt overran the watchdog
    /// budget.
    pub timed_out: u64,
    /// Tasks skipped because a resume journal already had their result.
    pub skipped: u64,
    /// Tasks never attempted (or abandoned between attempts) because
    /// the run's cooperative cancel token was set.
    pub cancelled: u64,
    /// Extra attempts beyond each task's first (retries actually run).
    pub retries: u64,
    /// Attempts that ended in an (injected or organic) panic.
    pub panicked_attempts: u64,
    /// Attempts the stall watchdog timed out.
    pub timed_out_attempts: u64,
    /// Injected `fleet-task` faults that actually struck.
    pub injected_faults: u64,
    /// Allocation events (see `droidsim_kernel::alloc_track`) observed
    /// across the whole run — the allocations-per-sim diet metric.
    /// Scratch-buffer reuse depends on scheduling, so this is excluded
    /// from the deterministic fingerprint.
    pub alloc_events: u64,
}

impl FleetLedger {
    /// Fresh, all-zero ledger.
    pub fn new() -> FleetLedger {
        FleetLedger::default()
    }

    /// Total tasks the ledger accounts for.
    pub fn tasks(&self) -> u64 {
        self.ok + self.panicked + self.timed_out + self.skipped + self.cancelled
    }

    /// Tasks that exhausted their retries (the quarantine list length).
    pub fn quarantined(&self) -> u64 {
        self.panicked + self.timed_out
    }

    /// Folds another run's ledger into this one (e.g. a resumed run's
    /// ledger onto the interrupted run's).
    pub fn merge(&mut self, other: &FleetLedger) {
        self.ok += other.ok;
        self.panicked += other.panicked;
        self.timed_out += other.timed_out;
        self.skipped += other.skipped;
        self.cancelled += other.cancelled;
        self.retries += other.retries;
        self.panicked_attempts += other.panicked_attempts;
        self.timed_out_attempts += other.timed_out_attempts;
        self.injected_faults += other.injected_faults;
        self.alloc_events += other.alloc_events;
    }

    /// The simulation-determined part of the ledger — everything except
    /// `alloc_events`. Identical between serial and parallel runs of the
    /// same seeds as long as no *organic* (host-speed-dependent) timeout
    /// fired.
    pub fn deterministic_fingerprint(&self) -> String {
        format!(
            "fleet[ok={} panicked={} timed_out={} skipped={} cancelled={} retries={} \
             panic_attempts={} timeout_attempts={} injected={}]",
            self.ok,
            self.panicked,
            self.timed_out,
            self.skipped,
            self.cancelled,
            self.retries,
            self.panicked_attempts,
            self.timed_out_attempts,
            self.injected_faults,
        )
    }
}

impl fmt::Display for FleetLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocs={}",
            self.deterministic_fingerprint(),
            self.alloc_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(flushes: u64, contained: u64) -> DeviceMetrics {
        let mut m = DeviceMetrics::new();
        for _ in 0..flushes {
            m.migration.record_flush(2, 4);
        }
        for _ in 0..contained {
            m.faults.record_contained("attribute-copy");
        }
        m
    }

    #[test]
    fn merge_is_order_stable_for_disjoint_devices() {
        // Serial reduction: fold device sinks 0, 1, 2 in order.
        let devices = [sink(1, 0), sink(2, 3), sink(0, 1)];
        let mut serial = DeviceMetrics::new();
        for d in &devices {
            serial.merge(d);
        }
        // "Parallel" reduction: same sinks, same index order (the fleet
        // reducer's contract), regardless of which worker filled them.
        let mut parallel = DeviceMetrics::new();
        for d in &devices {
            parallel.merge(d);
        }
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.deterministic_fingerprint(),
            parallel.deterministic_fingerprint()
        );
        assert_eq!(serial.migration.flushes, 3);
        assert_eq!(serial.faults.contained_per_view, 4);
    }

    #[test]
    fn deterministic_fingerprint_sees_every_simulation_difference() {
        let mut a = DeviceMetrics::new();
        let mut b = DeviceMetrics::new();
        a.migration.record_flush(2, 4);
        b.migration.record_flush(2, 4);
        a.faults.record_fallback("bundle-corruption");
        b.faults.record_fallback("bundle-corruption");
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        b.faults.record_contained("attribute-copy");
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        a.faults.record_contained("attribute-copy");
        b.migration.record_flush(3, 3); // a different batch size
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn fingerprint_covers_both_sinks() {
        let m = sink(1, 2);
        let line = m.deterministic_fingerprint();
        assert!(line.contains("flushes=1"), "got {line}");
        assert!(line.contains("contained=2"), "got {line}");
    }

    #[test]
    fn ledger_fingerprint_ignores_alloc_events() {
        let mut a = FleetLedger::new();
        let mut b = FleetLedger::new();
        a.ok = 7;
        a.retries = 2;
        b.ok = 7;
        b.retries = 2;
        b.alloc_events = 42; // scheduling-dependent, excluded
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        b.panicked += 1;
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn ledger_merge_adds_every_counter() {
        let mut a = FleetLedger {
            ok: 3,
            skipped: 2,
            retries: 1,
            ..FleetLedger::new()
        };
        let b = FleetLedger {
            ok: 4,
            panicked: 1,
            timed_out: 2,
            cancelled: 1,
            panicked_attempts: 3,
            timed_out_attempts: 2,
            injected_faults: 5,
            alloc_events: 24,
            ..FleetLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.cancelled, 1);
        assert_eq!(a.tasks(), 13);
        assert_eq!(a.quarantined(), 3);
        assert_eq!(a.retries, 1);
        assert_eq!(a.injected_faults, 5);
        assert_eq!(a.alloc_events, 24);
        let line = a.to_string();
        assert!(line.contains("ok=7"), "got {line}");
        assert!(line.contains("allocs=24"), "got {line}");
    }
}
