//! Coarse allocation-event accounting for the simulation hot path.
//!
//! The fleet's scaling work put the per-sim path on an allocation diet:
//! traversal stacks, drain buffers, flush batches, and logcat line
//! buffers are reused instead of re-allocated. This module is how that
//! diet stays *measurable* — the known allocation sites that remain (or
//! that a fallback path re-introduces) bump a process-wide counter. Two
//! readers take deltas of it: the daemon's `stats` endpoint reports the
//! events since the daemon started (`alloc_events`), and the `rchbench`
//! benchmark reports events per operation (`alloc.events_per_op`).
//!
//! The counter is intentionally a single relaxed atomic, not a
//! thread-local: supervised attempts may run on a watchdog-spawned
//! thread, and a reader wants the whole process's total regardless of
//! which thread allocated. Events are coarse (one per buffer
//! materialised, not per byte), so the atomic is nowhere near any hot
//! loop. Like wall-clock latency, the value is **diagnostic**: no
//! deterministic fingerprint reads it, because scratch-buffer reuse
//! depends on scheduling and concurrent work in the process counts too.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::alloc_track;
//!
//! let before = alloc_track::current();
//! alloc_track::note(2);
//! assert!(alloc_track::current() >= before + 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Records `n` allocation events at an instrumented site.
pub fn note(n: u64) {
    EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// The monotone process-wide event count. Snapshot before and after a
/// region and subtract; concurrent regions overlap (the counter is a
/// diagnostic, not a per-task meter).
pub fn current() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone() {
        let a = current();
        note(1);
        note(3);
        let b = current();
        assert!(b >= a + 4, "other threads only ever add");
    }
}
