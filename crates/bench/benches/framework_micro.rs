//! Micro-benches of the framework substrate itself: the operations whose
//! costs the paper's patch touches (layout build, inflation and the
//! tree clone a kept inflation costs, hierarchy save, lazy migration,
//! an RCHDroid re-init after the GC, resource resolution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_app::SimpleApp;
use droidsim_config::{Configuration, Orientation, UiMode};
use droidsim_device::{Device, HandlingMode, HandlingPath};
use droidsim_kernel::{SimDuration, Symbol};
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::{inflate, ViewKind, ViewOp, ViewTree};
use rchdroid::MigrationEngine;
use std::cell::RefCell;
use std::hint::black_box;

/// Longer than THRESH_T: an idle this long lets the GC collect the
/// shadow.
const GC_IDLE: SimDuration = SimDuration::from_secs(120);

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

/// A layout shaped like a generated app's: a root holding `n - 1`
/// named image views, each with the one attribute every image carries,
/// `src="@drawable/asset"`. The names are interned beforehand, as the
/// app interns them once per process.
fn generic_layout(names: &[Symbol]) -> LayoutTemplate {
    let (image_view, src, asset) = (
        Symbol::intern("ImageView"),
        Symbol::intern("src"),
        Symbol::intern("@drawable/asset"),
    );
    let mut root = LayoutNode::new("LinearLayout").with_id("root");
    root.children.reserve_exact(names.len());
    for &name in names {
        root.children.push(
            LayoutNode::new(image_view)
                .with_id(name)
                .with_attr(src, asset),
        );
    }
    LayoutTemplate::new("activity_main", root)
}

/// An RCHDroid device running a `views`-view app whose first change
/// (the init) and a coin flip are done: its process keeps both
/// configurations' inflations.
fn flipped_device(views: usize) -> Device {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    d.install_and_launch(Box::new(SimpleApp::with_views(views)), 40 << 20, 1.0)
        .unwrap();
    for path in [HandlingPath::RchInit, HandlingPath::RchFlip] {
        assert_eq!(d.rotate().unwrap().path, path);
        d.advance(SimDuration::from_secs(1));
    }
    d
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_micro");
    let mut table = ResourceTable::new();
    table.put(
        "asset",
        Qualifiers::any(),
        ResourceValue::drawable("asset.png", 64 << 10),
    );
    let portrait = Configuration::phone_portrait();
    for n in [16usize, 128, 1024] {
        let names: Vec<Symbol> = (1..n)
            .map(|i| Symbol::intern(&format!("content_{i}")))
            .collect();
        group.bench_with_input(BenchmarkId::new("template_build", n), &n, |b, _| {
            b.iter(|| black_box(generic_layout(&names)));
        });
        let template = generic_layout(&names);
        group.bench_with_input(BenchmarkId::new("inflate", n), &n, |b, _| {
            b.iter(|| black_box(inflate(&template, &table, &portrait)));
        });
        let (tree, _) = inflate(&template, &table, &portrait);
        group.bench_with_input(BenchmarkId::new("tree_clone", n), &n, |b, _| {
            b.iter(|| black_box(tree.clone()));
        });
        group.bench_with_input(BenchmarkId::new("hierarchy_save", n), &n, |b, &n| {
            let t = stateful_tree(n);
            b.iter(|| black_box(t.save_hierarchy_state()));
        });
        group.bench_with_input(BenchmarkId::new("lazy_migration", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut shadow = tree_with(n);
                    let sunny = tree_with(n);
                    let engine = MigrationEngine::new();
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

    // One device re-initialising: each sample's set-up idles it past
    // THRESH_T so the GC collects the shadow, and the timed rotation is
    // the re-init. The device goes back into the slot, so no drop is
    // timed.
    for n in [64usize, 512, 2048] {
        let slot = RefCell::new(Some(flipped_device(n)));
        group.bench_with_input(BenchmarkId::new("reinit", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut d = slot.borrow_mut().take().unwrap();
                    d.advance(GC_IDLE);
                    d
                },
                |mut d| {
                    let path = d.rotate().unwrap().path;
                    *slot.borrow_mut() = Some(d);
                    assert_eq!(path, HandlingPath::RchInit, "the GC collected the shadow");
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
