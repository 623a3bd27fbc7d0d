//! The inflation-cache ledger.
//!
//! Every app process keeps the trees it inflated per configuration and
//! clones them for its later creations (`ActivityThread`, in
//! `droidsim-app`); [`kernel::memo`](droidsim_kernel::memo) sums those
//! per-process caches into process-wide tallies. This ledger is the
//! operator-facing view of them — hits, misses, evictions (always 0: a
//! process cache evicts nothing), resident entries and approximate
//! resident bytes — captured with [`MemoLedger::capture`].
//!
//! Hit/miss counts depend on job scheduling and the kept trees are
//! wall-clock state, so like the fleet ledger's `alloc_events` this
//! ledger is **fingerprint-excluded telemetry**: it never participates
//! in any deterministic fingerprint, and the memo ≡ cold gates assert
//! exactly that the *digests* stay identical while these counters
//! swing.

use core::fmt;
use droidsim_kernel::memo::{self, MemoSnapshot};

/// Point-in-time snapshot of every memo cache, name-sorted.
///
/// Scheduling-dependent telemetry — never enters a deterministic
/// fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoLedger {
    /// One entry per cache, sorted by name.
    pub caches: Vec<MemoSnapshot>,
}

impl MemoLedger {
    /// Captures the current counters from `droidsim_kernel::memo`.
    pub fn capture() -> MemoLedger {
        MemoLedger {
            caches: memo::snapshot_all(),
        }
    }

    /// Totals across all caches: (hits, misses, evictions, bytes).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        self.caches.iter().fold((0, 0, 0, 0), |acc, c| {
            (
                acc.0 + c.hits,
                acc.1 + c.misses,
                acc.2 + c.evictions,
                acc.3 + c.bytes,
            )
        })
    }

    /// The `stats`-endpoint fields as `(key, value)` pairs: aggregate
    /// totals first, then one packed field per device-path cache. Keys
    /// are `'static` to match the daemon's kv-line contract, so the
    /// per-cache field uses the fixed name of the inflation cache; any
    /// other cache folds into the totals only.
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        let (hits, misses, evictions, bytes) = self.totals();
        let mut out = vec![
            ("memo_hits", hits.to_string()),
            ("memo_misses", misses.to_string()),
            ("memo_evictions", evictions.to_string()),
            ("memo_bytes", bytes.to_string()),
        ];
        for cache in self.caches.iter().filter(|c| c.name == "inflate") {
            out.push((
                "memo_inflate",
                format!(
                    "{}/{}/{}/{}",
                    cache.hits, cache.misses, cache.evictions, cache.entries
                ),
            ));
        }
        out
    }
}

impl fmt::Display for MemoLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.caches.is_empty() {
            return write!(f, "memo[no caches registered]");
        }
        write!(f, "memo[")?;
        for (i, c) in self.caches.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(
                f,
                "{}: hits={} misses={} evictions={} entries={} bytes={}",
                c.name, c.hits, c.misses, c.evictions, c.entries, c.bytes
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoLedger {
        MemoLedger {
            caches: vec![
                MemoSnapshot {
                    name: "inflate",
                    hits: 30,
                    misses: 10,
                    evictions: 2,
                    entries: 8,
                    bytes: 4096,
                },
                MemoSnapshot {
                    name: "mapping",
                    hits: 5,
                    misses: 5,
                    evictions: 0,
                    entries: 5,
                    bytes: 640,
                },
                MemoSnapshot {
                    name: "resolve",
                    hits: 65,
                    misses: 15,
                    evictions: 1,
                    entries: 14,
                    bytes: 2048,
                },
            ],
        }
    }

    #[test]
    fn totals_sum_across_caches() {
        let l = sample();
        assert_eq!(l.totals(), (100, 30, 3, 6784));
    }

    #[test]
    fn kv_fields_pack_totals_then_per_cache() {
        let l = sample();
        let kv = l.kv_fields();
        let find = |key: &str| kv.iter().find(|(k, _)| *k == key).unwrap().1.clone();
        assert_eq!(find("memo_hits"), "100");
        assert_eq!(find("memo_misses"), "30");
        assert_eq!(find("memo_inflate"), "30/10/2/8");
        // Caches without a per-cache field count in the totals only.
        for absent in ["memo_resolve", "memo_mapping"] {
            assert!(!kv.iter().any(|(k, _)| *k == absent), "{absent}");
        }
    }

    #[test]
    fn unknown_cache_folds_into_totals_only() {
        let l = MemoLedger {
            caches: vec![MemoSnapshot {
                name: "mystery",
                hits: 7,
                misses: 3,
                evictions: 0,
                entries: 0,
                bytes: 0,
            }],
        };
        let kv = l.kv_fields();
        assert!(kv.iter().any(|(k, v)| *k == "memo_hits" && v == "7"));
        assert!(!kv.iter().any(|(k, _)| k.starts_with("memo_mystery")));
    }

    #[test]
    fn capture_reflects_registered_caches_sorted() {
        // Whatever the process has counted so far, capture() must not
        // panic and must come back name-sorted.
        let l = MemoLedger::capture();
        let names: Vec<&str> = l.caches.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let _ = l.to_string();
    }

    #[test]
    fn display_mentions_every_cache() {
        let line = sample().to_string();
        for name in ["resolve", "inflate", "mapping"] {
            assert!(line.contains(name), "missing {name} in {line}");
        }
    }
}
