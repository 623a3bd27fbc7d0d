//! Process and machine facts read from `/proc`: CPU time, peak resident
//! memory, and the metadata stamped on every result.

/// Clock ticks per second of the `/proc/self/stat` CPU fields (Linux
/// `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of this process so far, in ms: every thread,
/// live or already exited.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * 1e3 / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) of this process in MiB, since the
/// process started or the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") / 1024.0
}

/// Resets `VmHWM` to the current resident size (`clear_refs` code 5).
/// Where the kernel refuses, the peak keeps counting from process start,
/// which only makes later readings larger.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Live threads of this process.
pub fn threads() -> usize {
    status_field("Threads:") as usize
}

/// The first number after `key` in `/proc/self/status` (0 if absent).
fn status_field(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mib();
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mib() <= peak);
        assert!(threads() >= 1);
        assert!(nproc() >= 1);
        assert!(!kernel().is_empty());
        let before = cpu_ms();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_ms() >= before);
    }
}
