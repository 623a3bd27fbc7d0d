//! Instrumentation for the lazy-migration path.
//!
//! Lazy migration copies class essence once per async delivery that
//! dirtied a shadowed activity's views: one *flush* per delivery, over
//! the views the delivery invalidated. Two questions describe it:
//!
//! * **coalesce ratio** — raw `invalidate()` calls per dirty view.
//!   The view tree folds repeated invalidations of one view within a
//!   delivery, so a ratio of 4 means four calls cost one essence copy;
//!   1.0 means every call touched a different view.
//! * **flush behaviour** — how big batches get, captured as a
//!   [`Histogram`] of per-batch entry counts.
//!
//! [`MigrationMetrics`] accumulates all of these over an engine's
//! lifetime; the benchmarks and the engine's tests read them back.

use crate::stats::Histogram;

/// Lifetime counters and distributions for one migration engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationMetrics {
    /// Number of flushes performed (one per delivery that dirtied a view).
    pub flushes: u64,
    /// Raw `invalidate()` deliveries observed before coalescing.
    pub raw_invalidations: u64,
    /// Coalesced entries (distinct dirty views) examined (≤ raw).
    pub coalesced_entries: u64,
    /// Per-flush batch size in coalesced entries.
    pub batch_size: Histogram,
}

impl MigrationMetrics {
    /// Records one flush: `raw` invalidations collapsed into `batch`
    /// coalesced entries.
    pub fn record_flush(&mut self, batch: usize, raw: usize) {
        debug_assert!(
            batch <= raw,
            "cannot coalesce {raw} raw into {batch} entries"
        );
        self.flushes += 1;
        self.raw_invalidations += raw as u64;
        self.coalesced_entries += batch as u64;
        self.batch_size.record(batch as f64);
    }

    /// Raw invalidations per coalesced entry (≥ 1 once anything was
    /// flushed; 1.0 when coalescing saved nothing; 0 when idle).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.coalesced_entries == 0 {
            0.0
        } else {
            self.raw_invalidations as f64 / self.coalesced_entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_ratio_tracks_raw_over_entries() {
        let mut m = MigrationMetrics::default();
        assert_eq!(m.coalesce_ratio(), 0.0);
        m.record_flush(3, 12);
        assert!((m.coalesce_ratio() - 4.0).abs() < 1e-12);
        m.record_flush(1, 1);
        assert!((m.coalesce_ratio() - 13.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.flushes, 2);
        assert!((m.batch_size.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eager_equivalent_usage_has_unit_ratio() {
        let mut m = MigrationMetrics::default();
        for _ in 0..5 {
            m.record_flush(1, 1);
        }
        assert!((m.coalesce_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(m.batch_size.max(), 1.0);
    }
}
