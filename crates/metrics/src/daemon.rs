//! The resident daemon's admission/queue/outcome ledger.
//!
//! `droidsimd` is a long-running service: unlike one fleet run's
//! [`FleetLedger`](crate::FleetLedger), its ledger accumulates over the
//! daemon's whole lifetime. A restarted daemon rebuilds it from its
//! journal (`Daemon::start`): settled jobs of the previous life count
//! as accepted and settled, unfinished ones as resumed. The counters
//! answer the questions an operator asks an overloaded service: how
//! many jobs were accepted vs explicitly rejected, how many the shedder
//! dropped with an explicit verdict, how deep the admission queue got,
//! and how much the resume pass recovered after a crash.
//!
//! Every rejected or shed job shows up here — the daemon's contract is
//! *zero silent drops*, so `accepted == completed + failed + cancelled +
//! shed + still-pending` must always reconcile. The `stats` endpoint
//! renders the ledger for operators ([`DaemonLedger::kv_fields`]), and
//! the daemon's tests read it there.
//!
//! The ledger carries no fingerprint: its queue gauge, allocation count
//! and chaos-edge counters depend on timing and the environment, so no
//! deterministic digest reads it.

/// Lifetime counters and gauges for one `droidsimd` process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonLedger {
    /// Jobs acknowledged: journaled, then answered `accepted`.
    pub accepted: u64,
    /// Submissions answered `rejected` (queue full, shutdown, bad spec,
    /// or an injected admission fault) — never silently dropped.
    pub rejected: u64,
    /// Of the rejected, how many were injected admission faults.
    pub rejected_injected: u64,
    /// Accepted jobs the shedder dropped under queue/memory pressure,
    /// each with an explicit terminal `shed` state a waiter observes.
    pub shed: u64,
    /// Accepted jobs re-enqueued by a restart's journal resume pass.
    pub resumed: u64,
    /// Jobs that ran to completion with a digest.
    pub completed: u64,
    /// Jobs whose execution failed (quarantined tasks, executor panic).
    pub failed: u64,
    /// Jobs cancelled by a client or a blown deadline.
    pub cancelled: u64,
    /// Deadline expiries the watchdog turned into cancellations.
    pub deadline_expired: u64,
    /// Reclaim passes the headroom probe triggered.
    pub reclaim_passes: u64,
    /// Current admission-queue depth (gauge, not a counter).
    pub queue_depth: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: u64,
    /// Allocation events (`droidsim_kernel::alloc_track`) observed since
    /// daemon start, refreshed at each `stats` snapshot. Wall-clock
    /// telemetry: other work in the process counts too.
    pub alloc_events: u64,
    /// Times the daemon entered the `degraded` health state because the
    /// journal stopped accepting writes (a real or injected I/O fault).
    pub degraded_entries: u64,
    /// Journal write/fsync failures observed (real or injected).
    pub journal_faults: u64,
    /// Submissions answered `result=duplicate` because their
    /// `dedupe_key` matched an already-accepted job.
    pub dedupe_hits: u64,
    /// Connections refused by the concurrent-connection cap with
    /// `error=too-many-connections`.
    pub conns_rejected: u64,
    /// Connections closed by the per-connection read timeout (slowloris
    /// defense).
    pub slowloris_closed: u64,
}

impl DaemonLedger {
    /// Fresh, all-zero ledger.
    pub fn new() -> DaemonLedger {
        DaemonLedger::default()
    }

    /// Jobs that reached a terminal state.
    pub fn settled(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.shed
    }

    /// Accepted jobs not yet settled (queued or running).
    pub fn in_flight(&self) -> u64 {
        (self.accepted + self.resumed).saturating_sub(self.settled())
    }

    /// Records a queue-depth observation, maintaining the high-water
    /// mark.
    pub fn observe_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
        self.queue_high_water = self.queue_high_water.max(depth);
    }

    /// The `stats`-endpoint fields as `(key, value)` pairs, in a fixed
    /// order, ready for one kv journal line.
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("accepted", self.accepted.to_string()),
            ("rejected", self.rejected.to_string()),
            ("rejected_injected", self.rejected_injected.to_string()),
            ("shed", self.shed.to_string()),
            ("resumed", self.resumed.to_string()),
            ("completed", self.completed.to_string()),
            ("failed", self.failed.to_string()),
            ("cancelled", self.cancelled.to_string()),
            ("deadline_expired", self.deadline_expired.to_string()),
            ("reclaim_passes", self.reclaim_passes.to_string()),
            ("in_flight", self.in_flight().to_string()),
            ("queue_depth", self.queue_depth.to_string()),
            ("queue_high_water", self.queue_high_water.to_string()),
            ("alloc_events", self.alloc_events.to_string()),
            ("degraded_entries", self.degraded_entries.to_string()),
            ("journal_faults", self.journal_faults.to_string()),
            ("dedupe_hits", self.dedupe_hits.to_string()),
            ("conns_rejected", self.conns_rejected.to_string()),
            ("slowloris_closed", self.slowloris_closed.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_and_in_flight_reconcile() {
        let mut l = DaemonLedger::new();
        l.accepted = 10;
        l.resumed = 2;
        l.completed = 6;
        l.failed = 1;
        l.cancelled = 1;
        l.shed = 2;
        assert_eq!(l.settled(), 10);
        assert_eq!(l.in_flight(), 2);
    }

    #[test]
    fn queue_depth_tracks_high_water() {
        let mut l = DaemonLedger::new();
        l.observe_queue_depth(3);
        l.observe_queue_depth(7);
        l.observe_queue_depth(2);
        assert_eq!(l.queue_depth, 2);
        assert_eq!(l.queue_high_water, 7);
    }

    #[test]
    fn kv_fields_cover_the_stats_contract() {
        let mut l = DaemonLedger::new();
        l.observe_queue_depth(4);
        l.alloc_events = 99;
        let kv = l.kv_fields();
        for key in [
            "accepted",
            "queue_high_water",
            "alloc_events",
            "shed",
            "degraded_entries",
            "journal_faults",
            "dedupe_hits",
            "conns_rejected",
            "slowloris_closed",
        ] {
            assert!(kv.iter().any(|(k, _)| *k == key), "missing {key}");
        }
        let find = |key: &str| kv.iter().find(|(k, _)| *k == key).unwrap().1.clone();
        assert_eq!(find("queue_high_water"), "4");
        assert_eq!(find("alloc_events"), "99");
    }
}
