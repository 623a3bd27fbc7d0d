//! The per-device metric sink and the fleet run's outcome ledger.
//!
//! [`DeviceMetrics`] is what one device's handler measured. Each
//! simulated device owns exactly one, filled only by that device's
//! handler, so a parallel fleet never interleaves writes into it. No
//! reducer merges device sinks: the fleet-determinism and memo-parity
//! gates hash each device's [`DeviceMetrics::deterministic_fingerprint`]
//! into that device's digest and combine the digests in device-index
//! order.
//!
//! [`FleetLedger`] counts how the tasks of one supervised run ended.
//!
//! Both hold only values the simulation fixes — no wall clock, no
//! allocation count — so their fingerprints are the same for any
//! worker count by construction.

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
    /// A stable one-line rendering of every field — counters, batch
    /// sizes, fault sites. All of them depend only on the simulation;
    /// this is what the fleet determinism gates hash: it must be
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

    /// Folds another run's ledger into this one (the daemon keeps the
    /// lifetime total of the jobs it ran).
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
    }

    /// Every counter on one line. Identical between serial and parallel
    /// runs of the same seeds as long as no *organic* (host-speed-
    /// dependent) timeout fired.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(flushes: u64, contained: u64) -> DeviceMetrics {
        let mut m = DeviceMetrics::default();
        for _ in 0..flushes {
            m.migration.record_flush(2, 4);
        }
        for _ in 0..contained {
            m.faults.record_contained("attribute-copy");
        }
        m
    }

    #[test]
    fn deterministic_fingerprint_sees_every_simulation_difference() {
        let mut a = DeviceMetrics::default();
        let mut b = DeviceMetrics::default();
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
            ..FleetLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.cancelled, 1);
        assert_eq!(a.tasks(), 13);
        assert_eq!(a.quarantined(), 3);
        assert_eq!(a.retries, 1);
        assert_eq!(a.injected_faults, 5);
        let line = a.deterministic_fingerprint();
        assert!(line.contains("ok=7"), "got {line}");
        let mut c = a;
        c.panicked += 1;
        assert_ne!(line, c.deterministic_fingerprint());
    }
}
