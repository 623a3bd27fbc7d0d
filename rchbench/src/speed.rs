//! Host-speed calibration: every timing is scaled to a reference speed.
//!
//! The benchmark runs on a share of a machine whose speed swings by a
//! third within seconds, as other tenants come and go. Runs of the same
//! code then spread by a quarter or more, and the swings are too slow
//! for a longer run to average away. So the runner times a fixed
//! reference computation ([`measure`]) before the first and after every
//! step, outside the timed calls, and scales the step's timings by
//! [`REFERENCE_MS`] ÷ the mean of the two readings. A reported time is
//! what the step would have taken at the host's reference speed.
//!
//! The reference work is allocation, string formatting and an ordered
//! map, as in the simulator and the analyzer: a compute-only loop tracks
//! the swings at about half their size, because the program loses more
//! speed to a busy neighbour than arithmetic does. The reference work
//! is the benchmark's own code, so no change to the program moves it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One pass of the reference work at the reference speed, in ms: the
/// median reading on the reference host (2 vCPUs of a shared Xeon).
pub const REFERENCE_MS: f64 = 1.5;

/// Map insertions per pass.
const PASS_ITERS: u64 = 4_000;
/// Timed passes per reading; the reading is their median, so one
/// preempted pass does not move it.
const PASSES: usize = 3;

/// The reference work: `iters` insertions of formatted keys into an
/// ordered map of vectors, with one removal in seven. Returns a checksum.
fn reference_work(iters: u64) -> usize {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(format!("view/{:x}", x % 4096))
            .or_default()
            .push(i);
        if i % 7 == 0 {
            map.remove(&format!("view/{:x}", (x >> 20) % 4096));
        }
    }
    map.values().map(Vec::len).sum()
}

/// Times the reference work: one untimed pass to warm the caches, then
/// the median of [`PASSES`] timed passes, in ms.
pub fn measure() -> f64 {
    black_box(reference_work(black_box(PASS_ITERS / 4)));
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            black_box(reference_work(black_box(PASS_ITERS)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&passes)
}

/// The factor that scales timings taken between readings `before` and
/// `after` (ms) to the reference speed.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_MS / (before + after).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_scales_with_its_size() {
        assert_eq!(reference_work(PASS_ITERS), reference_work(PASS_ITERS));
        let t = |iters| {
            let started = Instant::now();
            black_box(reference_work(black_box(iters)));
            started.elapsed().as_secs_f64()
        };
        t(PASS_ITERS);
        let (small, large) = (t(PASS_ITERS), t(PASS_ITERS * 16));
        assert!(large > 4.0 * small, "{small} s vs {large} s");
    }

    #[test]
    fn factor_scales_to_the_reference() {
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // A host at half speed reads twice the reference time.
        assert_eq!(factor(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        assert!(measure() > 0.0);
    }
}
