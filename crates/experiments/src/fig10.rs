//! Fig. 10: scalability with the number of views.
//!
//! (a) Runtime change handling time for Android-10, RCHDroid (steady
//!     state / coin flip) and RCHDroid-init (first change) over the
//!     benchmark apps with 2⁰ … 2⁴ ImageViews. Paper: RCHDroid flat at
//!     89.2 ms; Android-10 ≈ 141.8 ms; init grows 154.6 → 180.2 ms.
//! (b) Asynchronous view-tree migration time over the same sweep,
//!     measured from actual lazy-migration passes. Paper: linear,
//!     8.6 → 20.2 ms.

use crate::Study;
use droidsim_app::SimpleApp;
use droidsim_device::{Device, DeviceEvent, HandlingMode, HandlingPath};
use droidsim_fleet::{Digest, FleetConfig};
use droidsim_kernel::SimDuration;
use rch_workloads::{view_sweep, BENCHMARK_BASE_MEMORY};

/// One sweep point of Fig. 10(a).
#[derive(Debug, Clone, Copy)]
pub struct Fig10aRow {
    /// ImageViews in the benchmark app.
    pub views: usize,
    /// Stock relaunch latency (ms).
    pub android10_ms: f64,
    /// RCHDroid steady-state (flip) latency (ms).
    pub rchdroid_ms: f64,
    /// RCHDroid first-change latency (ms).
    pub rchdroid_init_ms: f64,
}

/// One sweep point of Fig. 10(b).
#[derive(Debug, Clone, Copy)]
pub struct Fig10bRow {
    /// ImageViews updated by the async task.
    pub views: usize,
    /// Lazy-migration latency for the task's return (ms).
    pub migration_ms: f64,
    /// Stock handling time, shown by the paper as the comparison line.
    pub android10_ms: f64,
}

/// Both panels.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Panel (a).
    pub a: Vec<Fig10aRow>,
    /// Panel (b).
    pub b: Vec<Fig10bRow>,
}

/// The digest of one sweep point — both panels' values, bit-exact.
pub fn point_digest(point: &(Fig10aRow, Fig10bRow)) -> u64 {
    let (a, b) = point;
    let mut d = Digest::new();
    d.write_u64(a.views as u64);
    d.write_f64(a.android10_ms);
    d.write_f64(a.rchdroid_ms);
    d.write_f64(a.rchdroid_init_ms);
    d.write_f64(b.migration_ms);
    d.write_f64(b.android10_ms);
    d.finish()
}

impl Fig10 {
    /// Renders both panels.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fig. 10(a): runtime change handling time vs #views (ms)\n");
        out.push_str(&format!(
            "{:>6} {:>12} {:>10} {:>14}\n",
            "views", "Android-10", "RCHDroid", "RCHDroid-init"
        ));
        for r in &self.a {
            out.push_str(&format!(
                "{:>6} {:>12.1} {:>10.1} {:>14.1}\n",
                r.views, r.android10_ms, r.rchdroid_ms, r.rchdroid_init_ms
            ));
        }
        out.push_str("\nFig. 10(b): async view-tree migration time vs #views (ms)\n");
        out.push_str(&format!(
            "{:>6} {:>12} {:>12}\n",
            "views", "migration", "Android-10"
        ));
        for r in &self.b {
            out.push_str(&format!(
                "{:>6} {:>12.2} {:>12.1}\n",
                r.views, r.migration_ms, r.android10_ms
            ));
        }
        out
    }
}

/// Measures one view count.
fn measure(views: usize) -> (Fig10aRow, Fig10bRow) {
    // Android-10 relaunch latency.
    let mut stock = Device::new(HandlingMode::Android10);
    stock
        .install_and_launch(
            Box::new(SimpleApp::with_views(views)),
            BENCHMARK_BASE_MEMORY,
            1.0,
        )
        .expect("launch");
    let android10_ms = stock.rotate().expect("rotate").latency.as_millis_f64();

    // RCHDroid: first change (init), then steady-state flips; plus the
    // async migration measurement on the same device.
    let mut rch = Device::new(HandlingMode::rchdroid_default());
    let app = SimpleApp::with_views(views);
    let task = app.button_task();
    rch.install_and_launch(Box::new(app), BENCHMARK_BASE_MEMORY, 1.0)
        .expect("launch");

    rch.start_async_on_foreground(task).expect("button press");
    let init = rch.rotate().expect("first change");
    assert_eq!(init.path, HandlingPath::RchInit);

    // Let the 5 s task return onto the shadow instance and migrate, then
    // measure the steady-state flip.
    rch.advance(SimDuration::from_secs(8));
    let flip = rch.rotate().expect("second change");
    assert_eq!(flip.path, HandlingPath::RchFlip);
    let migration_ms = rch
        .events()
        .iter()
        .find_map(|e| match e {
            DeviceEvent::AsyncDelivered {
                migration_latency: Some(d),
                ..
            } => Some(d.as_millis_f64()),
            _ => None,
        })
        .expect("the task's updates were migrated");

    (
        Fig10aRow {
            views,
            android10_ms,
            rchdroid_ms: flip.latency.as_millis_f64(),
            rchdroid_init_ms: init.latency.as_millis_f64(),
        },
        Fig10bRow {
            views,
            migration_ms,
            android10_ms,
        },
    )
}

/// The sweep: one fleet task per view count. Each point runs two fresh
/// devices of its own, so any worker count reproduces the serial rows
/// exactly.
pub const STUDY: Study<usize, (Fig10aRow, Fig10bRow), Fig10> = Study {
    partial_title: "Fig. 10 (partial): per-point outcomes, supervised run",
    unit: "point",
    digest_label: "sweep",
    items: view_sweep,
    measure: |_ctx, views| measure(views),
    digest: point_digest,
    assemble: |points| {
        let (a, b) = points.into_iter().unzip();
        Fig10 { a, b }
    },
    render_full: Fig10::render,
    partial_row: |(a, b)| {
        format!(
            "views={:<3} a10={:.1}ms flip={:.1}ms migration={:.2}ms",
            a.views, a.android10_ms, a.rchdroid_ms, b.migration_ms
        )
    },
};

/// Runs the full sweep with the worker count taken from `DROIDSIM_JOBS`
/// (default: available cores).
pub fn run() -> Fig10 {
    STUDY.complete(&FleetConfig::from_env(None, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_matches_the_papers_shape() {
        let fig = run();
        assert_eq!(fig.a.len(), 5);
        // RCHDroid is flat at 89.2 ms.
        for r in &fig.a {
            assert!(
                (r.rchdroid_ms - 89.2).abs() < 0.5,
                "flip({}) = {}",
                r.views,
                r.rchdroid_ms
            );
        }
        // Android-10 near 141.8 ms across the sweep.
        for r in &fig.a {
            assert!(
                (r.android10_ms - 141.8).abs() < 8.0,
                "a10({}) = {}",
                r.views,
                r.android10_ms
            );
        }
        // Init grows from ≈154.6 to ≈180.2 ms.
        let first = fig.a.first().unwrap();
        let last = fig.a.last().unwrap();
        assert!(
            (first.rchdroid_init_ms - 154.6).abs() < 4.0,
            "{}",
            first.rchdroid_init_ms
        );
        assert!(
            (last.rchdroid_init_ms - 180.2).abs() < 4.0,
            "{}",
            last.rchdroid_init_ms
        );
        // And init is monotonically increasing.
        for pair in fig.a.windows(2) {
            assert!(pair[1].rchdroid_init_ms > pair[0].rchdroid_init_ms);
        }
    }

    #[test]
    fn panel_b_is_linear_from_8_6_to_20_2() {
        let fig = run();
        let first = fig.b.first().unwrap();
        let last = fig.b.last().unwrap();
        assert!(
            (first.migration_ms - 8.6).abs() < 0.3,
            "{}",
            first.migration_ms
        );
        assert!(
            (last.migration_ms - 20.2).abs() < 0.5,
            "{}",
            last.migration_ms
        );
        // Migration is far cheaper than a stock restart at every point.
        for r in &fig.b {
            assert!(r.migration_ms < r.android10_ms / 5.0, "views={}", r.views);
        }
    }

    #[test]
    fn ordering_holds_at_every_sweep_point() {
        let fig = run();
        for r in &fig.a {
            assert!(r.rchdroid_ms < r.android10_ms);
            assert!(r.android10_ms < r.rchdroid_init_ms);
        }
    }
}
