//! Observability for the supervised migration subsystem.
//!
//! Robustness is only real if it is measurable: every fault the handler
//! sees — injected by a fault plan or organic — is attributed to a site
//! (keyed by the site's stable name, so this crate needs no dependency
//! on the fault-injection crate) and to the **degradation-ladder rung**
//! that absorbed it:
//!
//! 1. *contained per-view* — the faulty view was skipped and marked
//!    stale; the rest of the batch migrated,
//! 2. *fallback restart* — the change abandoned shadow/sunny handling
//!    and replayed the stock save → destroy → recreate path,
//! 3. *process crash* — nothing could absorb it; the process died (the
//!    same outcome stock Android has for every lifecycle fault).

use std::collections::BTreeMap;

/// Lifetime fault counters for one handler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultMetrics {
    by_site: BTreeMap<String, u64>,
    /// Rung 1: faults contained by skipping a single view.
    pub contained_per_view: u64,
    /// Rung 2: changes degraded to the stock restart path.
    pub fallback_restarts: u64,
    /// Rung 3: faults that killed the process.
    pub crashes: u64,
}

impl FaultMetrics {
    /// Records a rung-1 containment at `site`.
    pub fn record_contained(&mut self, site: &str) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.contained_per_view += 1;
    }

    /// Records a rung-2 fallback restart at `site`.
    pub fn record_fallback(&mut self, site: &str) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.fallback_restarts += 1;
    }

    /// Records a rung-3 process crash at `site`.
    pub fn record_crash(&mut self, site: &str) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.crashes += 1;
    }

    /// Faults recorded at `site` (any rung).
    pub fn site_count(&self, site: &str) -> u64 {
        self.by_site.get(site).copied().unwrap_or(0)
    }

    /// Fault counts by site name.
    pub fn by_site(&self) -> &BTreeMap<String, u64> {
        &self.by_site
    }

    /// Total faults recorded across every site and rung.
    pub fn total_faults(&self) -> u64 {
        self.contained_per_view + self.fallback_restarts + self.crashes
    }

    /// Folds another handler's metrics into this one.
    pub fn merge(&mut self, other: &FaultMetrics) {
        for (site, count) in &other.by_site {
            *self.by_site.entry(site.clone()).or_insert(0) += count;
        }
        self.contained_per_view += other.contained_per_view;
        self.fallback_restarts += other.fallback_restarts;
        self.crashes += other.crashes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_accumulate_independently() {
        let mut m = FaultMetrics::default();
        m.record_contained("attribute-copy");
        m.record_contained("attribute-copy");
        m.record_fallback("flush-deadline-overrun");
        m.record_crash("app-logic");
        assert_eq!(m.contained_per_view, 2);
        assert_eq!(m.fallback_restarts, 1);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.total_faults(), 4);
        assert_eq!(m.site_count("attribute-copy"), 2);
        assert_eq!(m.site_count("flush-deadline-overrun"), 1);
        assert_eq!(m.site_count("unknown"), 0);
    }

    #[test]
    fn merge_aggregates_handlers() {
        let mut a = FaultMetrics::default();
        a.record_contained("essence-mapping-miss");
        let mut b = FaultMetrics::default();
        b.record_contained("essence-mapping-miss");
        b.record_fallback("bundle-corruption");
        a.merge(&b);
        assert_eq!(a.site_count("essence-mapping-miss"), 2);
        assert_eq!(a.fallback_restarts, 1);
        assert_eq!(a.total_faults(), 3);
    }
}
