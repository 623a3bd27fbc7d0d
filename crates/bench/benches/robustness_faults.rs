//! Robustness overhead: the supervised change-handling path under
//! injected fault rates of 0 %, 5 % and 20 %.
//!
//! The 0 % row prices the supervision machinery itself (probe counters,
//! the `catch_unwind` boundary, the watchdog's batch pricing) against
//! PR 1's unsupervised path; the 5 % and 20 % rows add the ladder's
//! recovery work — per-view containment on the flush path and full
//! stock-restart fallbacks on the change path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_faults::FaultPlan;
use droidsim_kernel::SimDuration;
use std::hint::black_box;

/// The paper's benchmark app view count (Fig. 7/8/10).
const VIEWS: usize = 27;
/// Rotations (with an async task in flight) per measured run.
const CHANGES: usize = 6;

/// One full scripted run: launch, async task, `CHANGES` rotations with
/// deliveries pumped between them. Returns the fault ledger totals so
/// the work cannot be optimised away.
fn run(rate: f64, seed: u64) -> (u64, u64) {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let app = SimpleApp::with_views(VIEWS);
    let task = app.button_task();
    let c = d
        .install_and_launch(Box::new(app), 40 << 20, 1.0)
        .expect("launch");
    d.arm_faults(&c, FaultPlan::seeded(seed).with_rate_everywhere(rate))
        .expect("arm");
    d.start_async_on_foreground(task).expect("press");
    for _ in 0..CHANGES {
        let _ = d.rotate();
        d.advance(SimDuration::from_secs(2));
    }
    let m = d.device_metrics(&c).expect("metrics").faults;
    (m.contained_per_view, m.fallback_restarts)
}

fn bench_fault_rates(c: &mut Criterion) {
    let mut group = c.benchmark_group("robustness_faults");
    for &(label, rate) in &[("0pct", 0.0), ("5pct", 0.05), ("20pct", 0.20)] {
        group.bench_with_input(
            BenchmarkId::new("change_scenario", label),
            &rate,
            |b, &rate| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    black_box(run(black_box(rate), seed))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fault_rates);
criterion_main!(benches);
