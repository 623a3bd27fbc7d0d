//! Ablation study: what each of RCHDroid's design choices contributes.
//!
//! DESIGN.md calls for ablation benches on the design decisions the paper
//! motivates but does not isolate:
//!
//! * **coin-flipping** (§3.4) — with it off, every change creates a fresh
//!   sunny instance: steady-state latency degrades from the flip cost to
//!   the init cost (Fig. 10a's two RCHDroid lines collapse into one), and
//!   in-flight async callbacks go stale when the single-shadow invariant
//!   releases the previous shadow — the supervisor drops them (the update
//!   is lost) where stock Android would crash,
//! * **lazy migration** (§3.3) — with it off, async results still land
//!   safely (the shadow is alive, so no crash), but the foreground tree
//!   goes stale: correctness, not latency, is what migration buys,
//! * **threshold GC** (§3.5) — with an infinite `THRESH_T`, the shadow
//!   instance is never reclaimed: memory stays at the two-instance level
//!   forever instead of returning to baseline when the user stops
//!   rotating.

use crate::Study;
use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_fleet::{Digest, FleetConfig};
use droidsim_kernel::SimDuration;
use rch_workloads::BENCHMARK_BASE_MEMORY;
use rchdroid::{GcPolicy, RchOptions};

/// Outcome of one ablation arm.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// Arm label.
    pub label: &'static str,
    /// Mean steady-state handling latency (ms) over changes 2..=6.
    pub steady_latency_ms: f64,
    /// Whether the app survived the async-task scenario.
    pub survived: bool,
    /// Whether the foreground tree shows the async task's result.
    pub foreground_updated: bool,
    /// PSS (MiB) 90 s after the last change (GC had its chance).
    pub settled_memory_mib: f64,
}

impl AblationArm {
    /// A digest of every field, bit-exact for the float columns — what
    /// the supervised fleet journals per arm.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str(self.label);
        d.write_f64(self.steady_latency_ms);
        d.write_u64(u64::from(self.survived));
        d.write_u64(u64::from(self.foreground_updated));
        d.write_f64(self.settled_memory_mib);
        d.finish()
    }
}

/// The full ablation table.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// All arms, full system first.
    pub arms: Vec<AblationArm>,
}

impl Ablation {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Ablation: contribution of each RCHDroid design choice\n");
        out.push_str(&format!(
            "{:<26} {:>12} {:>9} {:>11} {:>12}\n",
            "arm", "steady(ms)", "survives", "fg updated", "settled MiB"
        ));
        for a in &self.arms {
            out.push_str(&format!(
                "{:<26} {:>12.1} {:>9} {:>11} {:>12.2}\n",
                a.label,
                a.steady_latency_ms,
                a.survived,
                a.foreground_updated,
                a.settled_memory_mib
            ));
        }
        out
    }
}

/// Runs one arm: six rotations with an async task in flight, then a 90 s
/// idle period.
pub fn run_arm(label: &'static str, mode: HandlingMode) -> AblationArm {
    let mut device = Device::new(mode);
    let app = SimpleApp::with_views(4);
    let task = app.button_task();
    let component = device
        .install_and_launch(Box::new(app), BENCHMARK_BASE_MEMORY, 1.0)
        .expect("launch");

    device.start_async_on_foreground(task).expect("press");
    let mut latencies = Vec::new();
    for i in 0..6 {
        if let Ok(report) = device.rotate() {
            if i > 0 {
                latencies.push(report.latency.as_millis_f64());
            }
        }
        device.advance(SimDuration::from_secs(2));
    }
    device.advance(SimDuration::from_secs(90));

    let survived = !device.is_crashed(&component);
    let settled_memory_mib = device
        .memory_snapshot(&component)
        .map_or(0.0, |s| s.total_mib());

    // The correctness probe runs on a fresh device with a SINGLE change:
    // with more changes a coin flip can bring the directly-updated
    // instance back to the foreground and mask a missing migration.
    let foreground_updated = {
        let mut probe = Device::new(mode);
        let app = SimpleApp::with_views(4);
        let task = app.button_task();
        let c = probe
            .install_and_launch(Box::new(app), BENCHMARK_BASE_MEMORY, 1.0)
            .expect("launch");
        probe.start_async_on_foreground(task).expect("press");
        let _ = probe.rotate();
        probe.advance(SimDuration::from_secs(8));
        !probe.is_crashed(&c)
            && probe
                .process(&c)
                .ok()
                .and_then(|p| {
                    let fg = p.foreground_activity()?;
                    let img = fg.tree.find_by_id_name("image_0")?;
                    let drawable = fg.tree.view(img).ok()?.attrs.drawable?;
                    Some(drawable.0.as_str() == "loaded_0.png")
                })
                .unwrap_or(false)
    };

    AblationArm {
        label,
        steady_latency_ms: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        survived,
        foreground_updated,
        settled_memory_mib,
    }
}

/// A GC policy that never collects.
pub fn gc_disabled() -> GcPolicy {
    GcPolicy::paper_default().with_thresh_t(SimDuration::from_secs(u64::MAX / 2_000_000))
}

/// The fixed arm matrix, full system first.
fn arm_matrix() -> Vec<(&'static str, HandlingMode)> {
    vec![
        ("full RCHDroid", HandlingMode::rchdroid_default()),
        (
            "no coin-flipping",
            HandlingMode::rchdroid_ablated(RchOptions {
                coin_flip: false,
                ..RchOptions::default()
            }),
        ),
        (
            "no lazy migration",
            HandlingMode::rchdroid_ablated(RchOptions {
                lazy_migration: false,
                ..RchOptions::default()
            }),
        ),
        (
            "no shadow GC",
            HandlingMode::RchDroid(gc_disabled(), RchOptions::default()),
        ),
        ("stock Android 10", HandlingMode::Android10),
    ]
}

/// The ablation: one fleet task per arm. Arm order in the result is
/// fixed (full system first) regardless of worker count.
pub const STUDY: Study<(&str, HandlingMode), AblationArm, Ablation> = Study {
    partial_title: "Ablation (partial): per-arm outcomes, supervised run",
    unit: "arm",
    digest_label: "study",
    items: arm_matrix,
    measure: |_ctx, (label, mode)| run_arm(label, mode),
    digest: AblationArm::digest,
    assemble: |arms| Ablation { arms },
    render_full: Ablation::render,
    partial_row: |a| {
        format!(
            "{:<26} steady={:.1}ms survives={} settled={:.2}MiB",
            a.label, a.steady_latency_ms, a.survived, a.settled_memory_mib
        )
    },
};

/// Runs the full ablation with the worker count taken from
/// `DROIDSIM_JOBS` (default: available cores).
pub fn run() -> Ablation {
    STUDY.complete(&FleetConfig::from_env(None, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_device::HandlingPath;

    /// The handling path of each of four rotations, a second apart, on
    /// one device in `mode`.
    fn paths_taken(mode: HandlingMode) -> Vec<HandlingPath> {
        let mut device = Device::new(mode);
        device
            .install_and_launch(
                Box::new(SimpleApp::with_views(4)),
                BENCHMARK_BASE_MEMORY,
                1.0,
            )
            .expect("launch");
        let mut paths = Vec::new();
        for _ in 0..4 {
            paths.push(device.rotate().expect("handled").path);
            device.advance(SimDuration::from_secs(1));
        }
        paths
    }

    #[test]
    fn coin_flip_off_pays_init_every_time() {
        let paths = paths_taken(HandlingMode::rchdroid_ablated(RchOptions {
            coin_flip: false,
            ..RchOptions::default()
        }));
        assert!(
            paths.iter().all(|&p| p == HandlingPath::RchInit),
            "{paths:?}"
        );

        let full = paths_taken(HandlingMode::rchdroid_default());
        assert_eq!(full[0], HandlingPath::RchInit);
        assert!(full[1..].iter().all(|&p| p == HandlingPath::RchFlip));
    }

    #[test]
    fn coin_flip_is_the_latency_win() {
        let study = run();
        let full = &study.arms[0];
        let no_flip = &study.arms[1];
        assert!(
            no_flip.steady_latency_ms > full.steady_latency_ms + 50.0,
            "flip {} vs init {}",
            full.steady_latency_ms,
            no_flip.steady_latency_ms
        );
        // A second-order finding the ablation surfaces: the coin flip
        // also preserves in-flight async work. Without reuse, the
        // single-shadow invariant forces the previous shadow to be
        // released on every change, so a task still bound to it goes
        // stale — the supervisor drops the callback (rung-1 containment
        // of what stock Android surfaces as the NullPointerException
        // crash), and the update is silently lost.
        assert!(no_flip.survived, "supervision contains the stale callback");
        assert!(full.survived);

        // The lost update is visible in the fault ledger.
        let mut d = Device::new(HandlingMode::rchdroid_ablated(RchOptions {
            coin_flip: false,
            ..RchOptions::default()
        }));
        let app = SimpleApp::with_views(4);
        let task = app.button_task();
        let c = d
            .install_and_launch(Box::new(app), BENCHMARK_BASE_MEMORY, 1.0)
            .expect("launch");
        d.start_async_on_foreground(task).expect("press");
        let _ = d.rotate();
        d.advance(SimDuration::from_secs(1));
        let _ = d.rotate(); // releases the first shadow: the task is now stale
        d.advance(SimDuration::from_secs(8));
        assert!(!d.is_crashed(&c));
        let faults = d.device_metrics(&c).unwrap().faults;
        assert_eq!(faults.site_count("stale-callback"), 1);
    }

    #[test]
    fn lazy_migration_is_the_correctness_win() {
        let study = run();
        let full = &study.arms[0];
        let no_migration = &study.arms[2];
        let stock = &study.arms[4];
        // Both RCHDroid arms survive (the shadow keeps the callback safe)…
        assert!(full.survived && no_migration.survived);
        // …but only full RCHDroid shows the async result in the foreground.
        assert!(full.foreground_updated);
        assert!(!no_migration.foreground_updated);
        // Stock crashes outright.
        assert!(!stock.survived);
    }

    #[test]
    fn gc_is_the_memory_win() {
        let study = run();
        let full = &study.arms[0];
        let no_gc = &study.arms[3];
        // After 90 idle seconds the full system has reclaimed the shadow;
        // the no-GC arm still carries the second instance.
        assert!(
            no_gc.settled_memory_mib > full.settled_memory_mib + 0.5,
            "no-GC {} vs full {}",
            no_gc.settled_memory_mib,
            full.settled_memory_mib
        );
    }
}
