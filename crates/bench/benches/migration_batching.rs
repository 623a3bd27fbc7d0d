//! Lazy migration under the Fig. 10 workload shape: the paper's 27-view
//! benchmark app with a chatty async task that invalidates every view
//! once per delivery, over several deliveries.
//!
//! Each delivery pays one `copy_essence` per dirty view, its peer looked
//! up by name in the sunny tree's index. The id keeps its `eager` segment so the
//! committed `results/BENCH_migration.json` row still applies.

use criterion::{criterion_group, criterion_main, Criterion};
use droidsim_kernel::Symbol;
use droidsim_view::{ViewKind, ViewOp, ViewTree};
use rchdroid::MigrationEngine;
use std::hint::black_box;

/// The paper's benchmark app view count (Fig. 7/8/10).
const VIEWS: usize = 27;
/// Deliveries per task, each invalidating every view once.
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

fn coupled() -> Rig {
    let shadow = tree_with(VIEWS);
    let sunny = tree_with(VIEWS);
    let engine = MigrationEngine::new();
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

/// `ROUNDS` deliveries: each invalidates every view once, then the
/// engine migrates the invalidations.
fn chatty_task(rig: &mut Rig) -> usize {
    let mut migrated = 0;
    for round in 0..ROUNDS {
        for &v in &rig.ids {
            rig.shadow
                .apply(v, ViewOp::SetDrawable(rig.frames[round], 64))
                .unwrap();
        }
        migrated += rig
            .engine
            .migrate_invalidations(&mut rig.shadow, &mut rig.sunny)
            .unwrap()
            .migrated;
    }
    migrated
}

fn bench(c: &mut Criterion) {
    // Headline printed like the figure benches: one run plus the
    // coalescing counters the engine records.
    {
        let mut rig = coupled();
        chatty_task(&mut rig);
        let m = rig.engine.metrics();
        println!(
            "migration_batching: {} views x {} rounds -> flushes={} raw={} coalesced={} \
             ratio={:.2} batch[{}]",
            VIEWS,
            ROUNDS,
            m.flushes,
            m.raw_invalidations,
            m.coalesced_entries,
            m.coalesce_ratio(),
            m.batch_size
        );
    }

    let mut group = c.benchmark_group("migration_batching");
    group.bench_function(&format!("eager/{VIEWS}v x {ROUNDS}r"), |b| {
        b.iter_batched(
            coupled,
            |mut rig| black_box(chatty_task(&mut rig)),
            criterion::BatchSize::SmallInput,
        );
    });
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
