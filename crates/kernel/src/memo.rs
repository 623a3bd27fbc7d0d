//! The inflation cache's kill switch and its process-wide tallies.
//!
//! One derivation recurs often enough to cache: an app process
//! re-creating its activity in a configuration it has already shown
//! inflates the same layout again, on every stock relaunch and on every
//! RCHDroid re-init after the GC. Each app process's activity thread
//! (`ActivityThread`, in `droidsim-app`) keeps the pristine tree of its
//! first inflation in each configuration, and every later creation
//! there clones it. The kept tree is shared copy-on-write
//! (`ViewTree::share` in `droidsim-view`), so a keep moves no view, a
//! clone shares every chunk of views, and a creation copies only the
//! chunks it writes. The cache lives and dies with its process, so it
//! is exact (the process's model and resources never change), needs no
//! lock, no key digest and no eviction, and cannot go stale: there is
//! nothing process-wide to invalidate.
//!
//! Nothing is shared across processes. An earlier process-wide,
//! content-addressed cache keyed every inflation by a template digest
//! and a table fingerprint; fresh apps paid those keys, tombstones and
//! publish clones without ever hitting, while the repeats that paid
//! were all within one process.
//!
//! This module keeps what the per-process caches share: the kill
//! switch and the telemetry.
//!
//! # Determinism contract
//!
//! A cache hit must be bit-identical to the cold derivation — that is the
//! `memo ≡ cold` invariant the fleet determinism suite asserts (per-device
//! logcat and metrics digests equal with the cache on and off, at any job
//! count). Hit/miss counts and resident bytes are wall-clock state and
//! telemetry, read through [`snapshot_all`] by the daemon's `stats`
//! endpoint (the `memo_*` fields), the `rchbench` benchmark's per-layer
//! `memo.*` metrics and the memo-parity tests. Like allocation events,
//! they never enter a deterministic fingerprint.
//!
//! # Kill switch
//!
//! The `DROIDSIM_NO_MEMO` environment variable (every harness and the
//! daemon pair honour it) or [`set_enabled`]`(false)` in-process (the
//! parity tests and benches) turns the caches off: a creation inflates
//! cold and nothing is kept. Because hits are bit-identical to cold
//! derivations, flipping the switch concurrently with running fleets is
//! safe — it only changes *where* results come from, never what they
//! are.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::memo;
//!
//! let before = memo::snapshot_all()[0].clone();
//! memo::record_probe(false);
//! memo::record_kept(1_024);
//! memo::record_probe(true);
//! let after = &memo::snapshot_all()[0];
//! assert_eq!(after.name, "inflate");
//! assert!(after.hits > before.hits && after.misses > before.misses);
//! memo::record_dropped(1, 1_024);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| AtomicBool::new(std::env::var_os("DROIDSIM_NO_MEMO").is_none()))
}

/// Whether the inflation caches are live. Defaults to `true` unless the
/// `DROIDSIM_NO_MEMO` environment variable is set.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns the inflation caches on or off process-wide (the in-process
/// form of the `DROIDSIM_NO_MEMO` kill switch). Safe to flip at any
/// time: hits are bit-identical to cold derivations, so concurrent
/// fleets observe no behavioural difference.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// One cache's counters at a point in time. Telemetry only: every field
/// is scheduling-dependent and must stay out of deterministic
/// fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// Cache name (stable, e.g. `inflate`).
    pub name: &'static str,
    /// Probes answered from a kept entry.
    pub hits: u64,
    /// Probes that fell through to the cold path.
    pub misses: u64,
    /// Entries dropped while their owner lived. The per-process caches
    /// evict nothing, so this stays 0; entries leave with their process.
    pub evictions: u64,
    /// Kept (value-bearing) entries currently resident.
    pub entries: u64,
    /// Approximate bytes held by resident entries.
    pub bytes: u64,
}

/// Counters summed over every app process's inflation cache.
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

static INFLATE: Tally = Tally {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    entries: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

/// Counts one lookup in a process's inflation cache: a hit clones a
/// kept tree, a miss inflates cold (whether or not it then keeps one).
pub fn record_probe(hit: bool) {
    let counter = if hit { &INFLATE.hits } else { &INFLATE.misses };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Counts one tree a process keeps, `bytes` resident.
pub fn record_kept(bytes: u64) {
    INFLATE.entries.fetch_add(1, Ordering::Relaxed);
    INFLATE.bytes.fetch_add(bytes, Ordering::Relaxed);
}

/// Counts `entries` kept trees of `bytes` in total leaving with their
/// process. Pairs with the [`record_kept`] calls that counted them.
pub fn record_dropped(entries: u64, bytes: u64) {
    INFLATE.entries.fetch_sub(entries, Ordering::Relaxed);
    INFLATE.bytes.fetch_sub(bytes, Ordering::Relaxed);
}

/// Counters for every cache, sorted by name for stable rendering: one
/// `inflate` snapshot summing the per-process inflation caches.
/// Telemetry only — fingerprint-excluded.
pub fn snapshot_all() -> Vec<MemoSnapshot> {
    vec![MemoSnapshot {
        name: "inflate",
        hits: INFLATE.hits.load(Ordering::Relaxed),
        misses: INFLATE.misses.load(Ordering::Relaxed),
        evictions: 0,
        entries: INFLATE.entries.load(Ordering::Relaxed),
        bytes: INFLATE.bytes.load(Ordering::Relaxed),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_one_inflate_cache_that_never_evicts() {
        let before = snapshot_all();
        assert_eq!(before.len(), 1);
        record_probe(false);
        record_kept(4_096);
        record_probe(true);
        let after = snapshot_all();
        assert_eq!(after[0].name, "inflate");
        assert!(after[0].hits > before[0].hits);
        assert!(after[0].misses > before[0].misses);
        assert_eq!(after[0].evictions, 0);
        record_dropped(1, 4_096);
    }
}
