//! The memory (PSS) model.
//!
//! The paper measures per-app memory with `dumpsys meminfo` (Total PSS).
//! The model decomposes PSS as: a per-app *base* (code, ART heap, shared
//! libraries — untouched by runtime changes) plus the heap of each alive
//! activity instance (views + drawables + bundles). RCHDroid's overhead is
//! therefore exactly one extra (shadow) instance while it remains alive —
//! which is what produces the paper's 1.12× (small apps, Fig. 8) and
//! +7.13 % (large apps, Fig. 14b).

/// Bytes in one mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// A point-in-time memory reading for one app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySnapshot {
    /// App base footprint (bytes).
    pub base_bytes: u64,
    /// Sum of alive activity heaps (bytes).
    pub activities_bytes: u64,
}

impl MemorySnapshot {
    /// Total PSS in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.base_bytes + self.activities_bytes
    }

    /// Total PSS in MiB.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / MIB as f64
    }
}

/// The per-app memory model.
///
/// # Examples
///
/// ```
/// use droidsim_metrics::MemoryModel;
///
/// let model = MemoryModel::new(40 * 1024 * 1024);
/// let snap = model.snapshot([6 * 1024 * 1024u64, 6 * 1024 * 1024]);
/// assert!((snap.total_mib() - 52.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    base_bytes: u64,
}

impl MemoryModel {
    /// Creates a model with the app's base footprint.
    pub fn new(base_bytes: u64) -> Self {
        MemoryModel { base_bytes }
    }

    /// The app's base footprint in bytes.
    pub fn base_bytes(&self) -> u64 {
        self.base_bytes
    }

    /// Takes a snapshot given the heap sizes of the alive activities.
    pub fn snapshot(&self, activity_heaps: impl IntoIterator<Item = u64>) -> MemorySnapshot {
        MemorySnapshot {
            base_bytes: self.base_bytes,
            activities_bytes: activity_heaps.into_iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = MemoryModel::new(10 * MIB);
        let s = m.snapshot([MIB, 2 * MIB]);
        assert_eq!(s.total_bytes(), 13 * MIB);
        assert!((s.total_mib() - 13.0).abs() < 1e-9);
    }

    #[test]
    fn shadow_instance_is_the_overhead() {
        // One activity vs the same app keeping a shadow instance too.
        let m = MemoryModel::new(41 * MIB);
        let stock = m.snapshot([6 * MIB]);
        let rchdroid = m.snapshot([6 * MIB, 6 * MIB]);
        let ratio = rchdroid.total_mib() / stock.total_mib();
        // ≈ the paper's 1.12× for small apps.
        assert!(ratio > 1.10 && ratio < 1.15, "ratio = {ratio}");
    }

    #[test]
    fn large_apps_have_smaller_relative_overhead() {
        let m = MemoryModel::new(150 * MIB);
        let stock = m.snapshot([12 * MIB]);
        let rchdroid = m.snapshot([12 * MIB, 12 * MIB]);
        let overhead = rchdroid.total_mib() / stock.total_mib() - 1.0;
        // ≈ the paper's +7.13 % for the top-100 set.
        assert!(overhead > 0.05 && overhead < 0.09, "overhead = {overhead}");
    }

    #[test]
    fn empty_app_is_just_base() {
        let m = MemoryModel::new(5 * MIB);
        assert_eq!(m.snapshot([]).total_bytes(), 5 * MIB);
    }
}
