//! Eager vs. batched lazy migration under the Fig. 10 workload shape:
//! the paper's 27-view benchmark app with a chatty async task that
//! invalidates every view several times before the frame deadline.
//!
//! Eager mode pays one `copy_essence` per delivered invalidation;
//! the batched fast path coalesces repeated invalidations of the same
//! view in the dirty queue and drains each view once at flush time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_kernel::{SimDuration, SimTime, Symbol};
use droidsim_view::{ViewKind, ViewOp, ViewTree};
use rchdroid::{FlushPolicy, MigrationEngine};
use std::hint::black_box;

/// The paper's benchmark app view count (Fig. 7/8/10).
const VIEWS: usize = 27;
/// Invalidation rounds per view before the flush deadline.
const ROUNDS: usize = 8;

fn tree_with(n: usize) -> ViewTree {
    let mut t = ViewTree::new();
    let root = t
        .add_view(t.root(), ViewKind::LinearLayout, Some("root"))
        .unwrap();
    for i in 0..n {
        t.add_view(root, ViewKind::ImageView, Some(&format!("v{i}")))
            .unwrap();
    }
    t
}

struct Rig {
    shadow: ViewTree,
    sunny: ViewTree,
    engine: MigrationEngine,
    ids: Vec<droidsim_view::ViewId>,
    frames: Vec<Symbol>,
}

fn coupled(policy: FlushPolicy) -> Rig {
    let mut shadow = tree_with(VIEWS);
    let mut sunny = tree_with(VIEWS);
    let mut engine = MigrationEngine::with_flush_policy(policy);
    // The checker replays the whole batch eagerly — benchmark the
    // production path, not the debug oracle.
    engine.set_equivalence_checking(false);
    engine.build_mapping(&mut shadow, &mut sunny);
    // Pre-resolve lookups so the measured loop is invalidation +
    // migration, not string formatting.
    let ids = (0..VIEWS)
        .map(|i| shadow.find_by_id_name(&format!("v{i}")).unwrap())
        .collect();
    let frames = (0..ROUNDS)
        .map(|r| Symbol::intern(&format!("frame_{r}.png")))
        .collect();
    Rig {
        shadow,
        sunny,
        engine,
        ids,
        frames,
    }
}

/// One "delivery": every view is invalidated once, then the engine sees
/// the invalidations. Repeated `ROUNDS` times, ending with a flush so
/// the batched variant does its (single) drain inside the measurement.
fn chatty_task(rig: &mut Rig) -> usize {
    let mut migrated = 0;
    for round in 0..ROUNDS {
        for &v in &rig.ids {
            rig.shadow
                .apply(v, ViewOp::SetDrawable(rig.frames[round], 64))
                .unwrap();
        }
        let now = SimTime::ZERO + SimDuration::from_millis(round as u64);
        migrated += rig
            .engine
            .migrate_invalidations(&mut rig.shadow, &mut rig.sunny, now)
            .unwrap()
            .migrated;
    }
    migrated += rig
        .engine
        .flush(&mut rig.shadow, &mut rig.sunny)
        .unwrap()
        .migrated;
    migrated
}

fn bench(c: &mut Criterion) {
    // Headline comparison printed like the figure benches: one run of
    // each mode plus the coalescing counters the batched path records.
    {
        let mut rig = coupled(FlushPolicy::batched(
            VIEWS * ROUNDS,
            SimDuration::from_millis(16),
        ));
        chatty_task(&mut rig);
        println!(
            "migration_batching: {} views x {} rounds -> {}",
            VIEWS,
            ROUNDS,
            rig.engine.metrics()
        );
    }

    let mut group = c.benchmark_group("migration_batching");
    for (name, policy) in [
        ("eager", FlushPolicy::Eager),
        (
            "batched",
            FlushPolicy::batched(VIEWS * ROUNDS, SimDuration::from_millis(16)),
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new(name, format!("{VIEWS}v x {ROUNDS}r")),
            &policy,
            |b, policy| {
                b.iter_batched(
                    || coupled(*policy),
                    |mut rig| black_box(chatty_task(&mut rig)),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench
}
criterion_main!(benches);
