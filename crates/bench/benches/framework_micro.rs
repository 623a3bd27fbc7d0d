//! Micro-benches of the framework substrate itself: the operations whose
//! costs the paper's patch touches (inflation, hierarchy save/restore,
//! mapping build, lazy migration, coin-flip search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_config::{Configuration, Orientation, UiMode};
use droidsim_resources::{Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::{ViewKind, ViewOp, ViewTree};
use rchdroid::MigrationEngine;
use std::hint::black_box;

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

/// `n` named views under one root: 1 in 16 an `EditText` holding typed
/// text, the rest `ImageView`s showing a drawable. The hierarchy save
/// writes an entry per editor and never visits the images, so the arm
/// reads the cost per stateful view.
fn stateful_tree(n: usize) -> ViewTree {
    let mut t = ViewTree::new();
    let root = t
        .add_view(t.root(), ViewKind::LinearLayout, Some("root"))
        .unwrap();
    for i in 0..n {
        let (kind, op) = if i % 16 == 0 {
            (ViewKind::EditText, ViewOp::SetText(format!("typed {i}")))
        } else {
            (ViewKind::ImageView, ViewOp::SetDrawable("x.png".into(), 64))
        };
        let v = t.add_view(root, kind, Some(&format!("v{i}"))).unwrap();
        t.apply(v, op).unwrap();
    }
    t
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_micro");
    for n in [16usize, 128, 1024] {
        group.bench_with_input(BenchmarkId::new("hierarchy_save", n), &n, |b, &n| {
            let t = stateful_tree(n);
            b.iter(|| black_box(t.save_hierarchy_state()));
        });
        group.bench_with_input(BenchmarkId::new("mapping_build", n), &n, |b, &n| {
            b.iter_batched(
                || (tree_with(n), tree_with(n), MigrationEngine::new()),
                |(mut shadow, mut sunny, mut engine)| {
                    black_box(engine.build_mapping(&mut shadow, &mut sunny))
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("lazy_migration", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut shadow = tree_with(n);
                    let mut sunny = tree_with(n);
                    let mut engine = MigrationEngine::new();
                    engine.build_mapping(&mut shadow, &mut sunny);
                    for i in 0..n {
                        let v = shadow.find_by_id_name(&format!("v{i}")).unwrap();
                        shadow
                            .apply(v, ViewOp::SetDrawable("new.png".into(), 64))
                            .unwrap();
                    }
                    (shadow, sunny, engine)
                },
                |(mut shadow, mut sunny, mut engine)| {
                    black_box(
                        engine
                            .migrate_invalidations(&mut shadow, &mut sunny)
                            .unwrap(),
                    )
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }

    // The resolution path: `put` keeps each name's variants in
    // descending-specificity order, so a resolve is a first-match scan
    // instead of a full max-by-specificity pass.
    for names in [8usize, 64] {
        group.bench_with_input(
            BenchmarkId::new("resource_resolve_cold", names),
            &names,
            |b, &names| {
                let mut table = ResourceTable::new();
                for i in 0..names {
                    let name = format!("s{i}");
                    table.put(
                        &name,
                        Qualifiers::any(),
                        ResourceValue::String(format!("v{i}")),
                    );
                    table.put(
                        &name,
                        Qualifiers::any().with_orientation(Orientation::Landscape),
                        ResourceValue::String(format!("v{i}-land")),
                    );
                    table.put(
                        &name,
                        Qualifiers::any().with_ui_mode(UiMode::Night),
                        ResourceValue::String(format!("v{i}-night")),
                    );
                    table.put(
                        &name,
                        Qualifiers::any().with_min_smallest_width(600),
                        ResourceValue::String(format!("v{i}-sw600")),
                    );
                }
                let portrait = Configuration::phone_portrait();
                let landscape = Configuration::phone_landscape();
                b.iter(|| {
                    let mut hits = 0usize;
                    for i in 0..names {
                        let name = format!("s{i}");
                        hits += usize::from(table.resolve_string(&name, &portrait).is_some());
                        hits += usize::from(table.resolve_string(&name, &landscape).is_some());
                    }
                    black_box(hits)
                });
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
