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
use crate::stats::Histogram;

/// Everything one device's handler measured: the lazy-migration counters
/// and the fault-ladder ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceMetrics {
    /// Lazy-migration flush counters and histograms.
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

    /// A stable one-line rendering covering every counter and histogram
    /// summary, including the wall-clock latency histograms.
    pub fn fingerprint(&self) -> String {
        self.to_string()
    }

    /// Like [`DeviceMetrics::fingerprint`], restricted to fields that
    /// depend only on the simulation — counters, batch sizes, fault
    /// sites. The flush-latency and recovery-latency histograms measure
    /// host wall-clock, so they contribute only their observation
    /// counts. This is what fleet determinism digests hash: it must be
    /// bit-identical between serial and parallel runs of the same seeds.
    pub fn deterministic_fingerprint(&self) -> String {
        let m = &self.migration;
        let f = &self.faults;
        format!(
            "migration[flushes={} raw={} coalesced={} batch[{}] latencies={}] \
             faults[contained={} fallbacks={} crashes={} recoveries={} sites={:?}]",
            m.flushes,
            m.raw_invalidations,
            m.coalesced_entries,
            m.batch_size,
            m.flush_latency_ns.count(),
            f.contained_per_view,
            f.fallback_restarts,
            f.crashes,
            f.recovery_latency_ms.count(),
            f.by_site(),
        )
    }
}

impl fmt::Display for DeviceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "migration[{}] faults[{}]", self.migration, self.faults)
    }
}

/// The fleet driver's outcome ledger: how every task of a run ended,
/// how often tasks were retried, and how long attempts took.
///
/// One ledger describes one `run_fleet_supervised` invocation; the
/// driver fills it from the per-slot outcomes **in task-index order**
/// after every worker has finished, so the counters are reproducible
/// for any worker count. The attempt-latency histogram measures host
/// wall-clock and therefore follows the same fingerprint rule as the
/// other latency histograms: it is excluded from
/// [`FleetLedger::deterministic_fingerprint`] entirely (not even its
/// count — a watchdog retry that a faster host avoids would change it).
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Scratch-buffer reuse depends on scheduling, so this follows the
    /// wall-clock rule: excluded from the deterministic fingerprint.
    pub alloc_events: u64,
    /// Host wall-clock latency of every finished attempt (ms).
    pub attempt_latency_ms: Histogram,
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
        self.attempt_latency_ms.merge(&other.attempt_latency_ms);
    }

    /// Allocation events per accounted task, rounded down. Zero when the
    /// ledger has no tasks.
    pub fn allocs_per_task(&self) -> u64 {
        self.alloc_events.checked_div(self.tasks()).unwrap_or(0)
    }

    /// The simulation-determined part of the ledger — everything except
    /// the wall-clock attempt-latency histogram. Identical between
    /// serial and parallel runs of the same seeds as long as no
    /// *organic* (host-speed-dependent) timeout fired.
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
            "{} allocs={} latency[{}]",
            self.deterministic_fingerprint(),
            self.alloc_events,
            self.attempt_latency_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(flushes: u64, contained: u64) -> DeviceMetrics {
        let mut m = DeviceMetrics::new();
        for _ in 0..flushes {
            m.migration.record_flush(2, 4, 1_000);
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
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        assert_eq!(serial.migration.flushes, 3);
        assert_eq!(serial.faults.contained_per_view, 4);
    }

    #[test]
    fn deterministic_fingerprint_ignores_wall_clock() {
        let mut a = DeviceMetrics::new();
        let mut b = DeviceMetrics::new();
        a.migration.record_flush(2, 4, 1_000);
        b.migration.record_flush(2, 4, 9_999_999); // same flush, slower host
        a.faults.record_fallback("bundle-corruption", 0.5);
        b.faults.record_fallback("bundle-corruption", 123.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        // But it still sees every simulation-visible difference.
        b.faults.record_contained("attribute-copy");
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn fingerprint_covers_both_sinks() {
        let m = sink(1, 2);
        let line = m.fingerprint();
        assert!(line.contains("flushes=1"), "got {line}");
        assert!(line.contains("contained=2"), "got {line}");
    }

    #[test]
    fn ledger_fingerprint_ignores_attempt_latency() {
        let mut a = FleetLedger::new();
        let mut b = FleetLedger::new();
        a.ok = 7;
        a.retries = 2;
        a.attempt_latency_ms.record(1.0);
        b.ok = 7;
        b.retries = 2;
        b.attempt_latency_ms.record(900.0);
        b.attempt_latency_ms.record(900.0); // even the count is excluded
        b.alloc_events = 42; // scheduling-dependent, also excluded
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
        assert_eq!(a.allocs_per_task(), 1, "24 allocs over 13 tasks");
        let line = a.to_string();
        assert!(line.contains("ok=7"), "got {line}");
        assert!(line.contains("allocs=24"), "got {line}");
        assert!(line.contains("latency["), "got {line}");
    }
}
