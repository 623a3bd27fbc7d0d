//! The fleet driver itself: one top-100 sample simulated serially and
//! with 2/4/8 workers. Every worker count must reduce to the identical
//! digest — the bench asserts that before timing anything — so the only
//! difference between the arms is wall-clock, never results.
//!
//! On a single-core machine the parallel arms degenerate to roughly the
//! serial cost plus scheduling overhead; on an N-core runner the 4-way
//! arm is the headline number for the speedup criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_analysis::{analyze_specs, Suppressions};
use droidsim_app::AppModel;
use droidsim_config::{Orientation, UiMode};
use droidsim_device::{Device, HandlingMode};
use droidsim_fleet::{
    combine_ordered, run_fleet, run_fleet_reduce, run_fleet_supervised, Digest, FleetConfig,
    FleetOptions, TaskCtx,
};
use droidsim_kernel::memo;
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use rch_experiments::{run_app, RunConfig};
use rch_workloads::{dataloss_specs, top100_sample, GenericAppSpec};
use std::hint::black_box;
use std::sync::Arc;

/// Sample size: enough devices that partitioning matters, small enough
/// that a bench iteration stays under a second.
const APPS: usize = 12;

/// One sample app under both handling modes, digested.
fn app_digest(_ctx: TaskCtx, spec: &GenericAppSpec) -> u64 {
    let stock = run_app(spec, &RunConfig::new(HandlingMode::Android10));
    let rch = run_app(spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    let mut d = Digest::new();
    d.write_str(&spec.name);
    d.write_f64(stock.mean_latency_ms());
    d.write_f64(rch.mean_latency_ms());
    d.write_f64(stock.memory_mib);
    d.write_f64(rch.memory_mib);
    d.finish()
}

/// Simulates the sample under both handling modes through the streaming
/// reducer: per-chunk local folds, one atomic merge per chunk, no
/// ordered result draining. This is the hot arm the scaling criterion
/// (jobs=8 ≤ 0.5× jobs=1) is judged on.
fn simulate(cfg: &FleetConfig, sample: &[GenericAppSpec]) -> u64 {
    run_fleet_reduce(cfg, sample, app_digest)
}

/// The legacy collect-then-fold reduction, kept as the oracle the
/// streaming arm must agree with at every worker count.
fn simulate_ordered(cfg: &FleetConfig, sample: &[GenericAppSpec]) -> u64 {
    combine_ordered(run_fleet(cfg, sample.to_vec(), |ctx, spec| {
        app_digest(ctx, &spec)
    }))
}

/// The same sample through the supervised runner at zero fault rate:
/// what the crash-safety envelope (catch_unwind per attempt, outcome
/// slots, ledger fold) costs when nothing goes wrong. No journal — disk
/// fsync is a deliberate per-checkpoint cost, not runner overhead.
fn simulate_supervised(cfg: &FleetConfig, opts: &FleetOptions, sample: &[GenericAppSpec]) -> u64 {
    run_fleet_supervised(
        cfg,
        opts,
        sample.to_vec(),
        |ctx, spec| app_digest(ctx, &spec),
        |d| *d,
    )
    .unwrap()
    .combined_digest()
    .unwrap()
}

/// Devices in the memo arms' fleet. The timed arms run serially
/// (jobs=1) so the warm/cold ratio is a pure cache effect — the
/// per-call thread-spawn constant of a multi-worker fleet would dilute
/// the ratio without exercising the caches any harder.
const MEMO_DEVICES: usize = 16;
const MEMO_JOBS: usize = 1;
/// Rotations per device in the `warm`/`cold` arms: each one a stock
/// relaunch, alternating between portrait and landscape.
const MEMO_ROTATIONS: usize = 8;

/// Resource table the memo workload resolves against, shaped like a
/// real multi-config APK: every string has a default and a landscape
/// variant (so resolution depends on the configuration bucket) plus a
/// pile of higher-specificity variants — locales, smallest-width
/// buckets, night mode — that a phone config never matches but a cold
/// resolution must scan past every single time.
fn memo_table() -> ResourceTable {
    let mut t = ResourceTable::new();
    for i in 0..8 {
        let name = format!("s{i}");
        for lang in ["de", "fr", "ja", "pt", "es", "it", "ru", "zh"] {
            t.put(
                &name,
                Qualifiers::any().with_language(lang),
                ResourceValue::String(format!("str-{i}-{lang}")),
            );
        }
        for sw in [600, 720, 840, 960] {
            t.put(
                &name,
                Qualifiers::any().with_min_smallest_width(sw),
                ResourceValue::String(format!("str-{i}-sw{sw}")),
            );
        }
        t.put(
            &name,
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::String(format!("str-{i}-night")),
        );
        t.put(
            &name,
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::String(format!("str-{i}-land")),
        );
        t.put(
            &name,
            Qualifiers::any(),
            ResourceValue::String(format!("str-{i}")),
        );
        let drawable = format!("d{i}");
        t.put(
            &drawable,
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::Drawable {
                name: format!("d{i}-night.png").as_str().into(),
                bytes_hint: 4 << 10,
            },
        );
        for sw in [600, 840] {
            t.put(
                &drawable,
                Qualifiers::any().with_min_smallest_width(sw),
                ResourceValue::Drawable {
                    name: format!("d{i}-sw{sw}.png").as_str().into(),
                    bytes_hint: 8 << 10,
                },
            );
        }
        t.put(
            &drawable,
            Qualifiers::any(),
            ResourceValue::Drawable {
                name: format!("d{i}.png").as_str().into(),
                bytes_hint: 4 << 10,
            },
        );
    }
    t
}

/// A 241-node resolution-heavy layout: every row references two
/// strings and two drawables, 192 references over 16 distinct ones
/// (`s0`–`s7`, `d0`–`d7`), so a cold inflation pays 16 table
/// resolutions and 192 per-view writes where a warm one pays a tree
/// clone.
fn memo_template() -> LayoutTemplate {
    let mut root = LayoutNode::new("LinearLayout").with_id("root");
    for i in 0..48 {
        root = root.with_child(
            LayoutNode::new("LinearLayout")
                .with_id(&format!("row{i}"))
                .with_child(
                    LayoutNode::new("TextView")
                        .with_id(&format!("t{i}"))
                        .with_attr("text", &format!("@string/s{}", i % 8)),
                )
                .with_child(
                    LayoutNode::new("TextView")
                        .with_id(&format!("sub{i}"))
                        .with_attr("text", &format!("@string/s{}", (i + 3) % 8)),
                )
                .with_child(
                    LayoutNode::new("ImageView")
                        .with_id(&format!("img{i}"))
                        .with_attr("src", &format!("@drawable/d{}", i % 8)),
                )
                .with_child(
                    LayoutNode::new("ImageView")
                        .with_id(&format!("badge{i}"))
                        .with_attr("src", &format!("@drawable/d{}", (i + 5) % 8)),
                ),
        );
    }
    LayoutTemplate::new("memo_bench", root)
}

/// The memo arms' app: one activity whose main layout is the
/// resolution-heavy template, the same in both orientations, over the
/// multi-config table.
struct MemoApp {
    resources: Arc<ResourceTable>,
}

impl MemoApp {
    /// A freshly built app: its table and its layout.
    fn build() -> MemoApp {
        let mut resources = memo_table();
        resources.put(
            "memo_bench",
            Qualifiers::any(),
            ResourceValue::Layout(memo_template()),
        );
        MemoApp {
            resources: Arc::new(resources),
        }
    }
}

impl AppModel for MemoApp {
    fn component_name(&self) -> &str {
        "com.bench/.Memo"
    }

    fn resources(&self) -> &ResourceTable {
        &self.resources
    }

    fn main_layout(&self) -> &str {
        "memo_bench"
    }
}

/// One device of the memo arms: installs `app`, rotates it `rotations`
/// times under stock handling — every rotation a relaunch, alternating
/// between the two configurations — and digests what it observed.
fn memo_device(app: MemoApp, rotations: usize) -> u64 {
    let mut device = Device::new(HandlingMode::Android10);
    device
        .install_and_launch(Box::new(app), 40 << 20, 1.0)
        .expect("the memo app launches");
    let mut d = Digest::new();
    for _ in 0..rotations {
        let report = device.rotate().expect("a stock relaunch");
        d.write_u64(report.latency.as_micros());
    }
    device
        .with_foreground_activity_mut(|a| {
            let stats = a.inflate_stats();
            d.write_u64(stats.views_created as u64);
            d.write_u64(stats.drawable_bytes);
            d.write_u64(stats.strings_resolved as u64);
            let t0 = a.tree.find_by_id_name("t0").expect("row 0");
            d.write_str(a.tree.view(t0).unwrap().attrs.text.as_deref().unwrap_or(""));
        })
        .expect("the memo app is in the foreground");
    d.finish()
}

/// The relaunching fleet: every device is one process relaunching its
/// activity across two configurations. A process keeps the shared tree
/// of its first creation in each configuration, so of each device's 9
/// creations the first two (one per configuration) inflate cold and
/// keep theirs, and the other 7 clone a kept tree and copy the chunks
/// they write: 2 misses and 7 hits.
fn memo_fleet(app: &MemoApp) -> u64 {
    run_fleet_reduce(
        &FleetConfig::new(MEMO_JOBS, 0),
        &(0..MEMO_DEVICES).collect::<Vec<_>>(),
        |_ctx, _i| {
            let app = MemoApp {
                resources: Arc::clone(&app.resources),
            };
            memo_device(app, MEMO_ROTATIONS)
        },
    )
}

/// The unique fleet: a fresh app per device, created once. The cache
/// keeps that one inflation, so the arm reads what a process that never
/// re-creates its activity pays for the cache: one probe, one share of
/// the tree and one clone of its chunks, and the chunks its creation
/// then writes.
fn memo_fleet_unique() -> u64 {
    run_fleet_reduce(
        &FleetConfig::new(MEMO_JOBS, 0),
        &(0..MEMO_DEVICES).collect::<Vec<_>>(),
        |_ctx, _i| memo_device(MemoApp::build(), 0),
    )
}

/// The inflation-cache arms: `memo/warm` vs `memo/cold` is the ≥1.5×
/// speedup criterion on a relaunching fleet; `memo/unique` vs
/// `memo/unique_cold` is the no-regression criterion when nothing is
/// ever created twice. The memo ≡ cold digest identity is asserted
/// before any timing. The ratio is taken against the cold path, so
/// making inflation itself cheaper lowers it: `memo/cold` resolves each
/// of the template's 16 distinct references once per inflation, not
/// all 192 of its references.
fn bench_memo(c: &mut Criterion) {
    let app = MemoApp::build();
    memo::set_enabled(false);
    let (cold_digest, unique_cold_digest) = (memo_fleet(&app), memo_fleet_unique());
    memo::set_enabled(true);
    assert_eq!(
        memo_fleet(&app),
        cold_digest,
        "memoized fleet digest diverged from the cold run"
    );
    assert_eq!(
        memo_fleet_unique(),
        unique_cold_digest,
        "memoized unique fleet digest diverged from the cold run"
    );

    let mut group = c.benchmark_group("fleet_parallel");
    group.bench_function("memo/warm", |b| {
        memo::set_enabled(true);
        b.iter(|| black_box(memo_fleet(&app)));
    });
    group.bench_function("memo/cold", |b| {
        memo::set_enabled(false);
        b.iter(|| black_box(memo_fleet(&app)));
        memo::set_enabled(true);
    });
    group.bench_function("memo/unique", |b| {
        memo::set_enabled(true);
        b.iter(|| black_box(memo_fleet_unique()));
    });
    group.bench_function("memo/unique_cold", |b| {
        memo::set_enabled(false);
        b.iter(|| black_box(memo_fleet_unique()));
        memo::set_enabled(true);
    });
    group.finish();
}

/// The analyzer's fleet throughput over the whole generated data-loss
/// corpus (`rchlint --corpus dataloss`): shape extraction (one
/// inflation per orientation, through the inflation cache; shapes are
/// not memoized), the twelve lint passes and the three-mode verdicts
/// for every app, folded into the corpus report. Serial vs 8-way is the
/// `rchlint_throughput` scaling pair the bench gate tracks; the digest
/// identity across worker counts is asserted before any timing.
fn bench_rchlint(c: &mut Criterion) {
    let corpus = dataloss_specs();
    let allow = Suppressions::none();
    let analyze = |jobs: usize| analyze_specs(&corpus, &FleetConfig::new(jobs, 0), &allow);
    let serial_digest = analyze(1).digest();
    for jobs in [4usize, 8] {
        assert_eq!(
            analyze(jobs).digest(),
            serial_digest,
            "rchlint digest diverged at jobs={jobs}"
        );
    }
    let mut group = c.benchmark_group("fleet_parallel");
    for jobs in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("rchlint_throughput/jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| black_box(analyze(jobs).digest()));
            },
        );
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let sample = top100_sample(APPS);
    let serial = simulate(&FleetConfig::new(1, 0), &sample);
    let serial_ordered = simulate_ordered(&FleetConfig::new(1, 0), &sample);
    let opts = FleetOptions::new();
    let mut group = c.benchmark_group("fleet_parallel");
    for jobs in [1usize, 2, 4, 8] {
        // Digest identity is the contract: any worker count must
        // reproduce the serial reduction bit for bit — on both the
        // streaming (unordered, index-tagged) and the legacy ordered
        // path.
        assert_eq!(
            simulate(&FleetConfig::new(jobs, 0), &sample),
            serial,
            "jobs={jobs} diverged from the serial streaming digest"
        );
        assert_eq!(
            simulate_ordered(&FleetConfig::new(jobs, 0), &sample),
            serial_ordered,
            "jobs={jobs} diverged from the serial ordered digest"
        );
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            let cfg = FleetConfig::new(jobs, 0);
            b.iter(|| black_box(simulate(&cfg, &sample)));
        });

        // Crash-recovery overhead: the supervised runner at 0 % faults
        // must stay within a few percent of the plain driver (<5 %
        // against the matching fleet_parallel/jobs arm). Each pair is
        // measured back to back so host drift over the bench run cannot
        // masquerade as runner overhead; the jobs=1 pair is the
        // meaningful one on small runners, where the multi-worker arms
        // are dominated by scheduler noise.
        if jobs == 1 || jobs == 4 {
            assert_eq!(
                simulate_supervised(&FleetConfig::new(jobs, 0), &opts, &sample),
                serial_ordered,
                "the supervised runner diverged from the plain digest at jobs={jobs}"
            );
            group.bench_with_input(
                BenchmarkId::new("fleet_crash_recovery/jobs", jobs),
                &jobs,
                |b, &jobs| {
                    let cfg = FleetConfig::new(jobs, 0);
                    b.iter(|| black_box(simulate_supervised(&cfg, &opts, &sample)));
                },
            );
        }
    }
    group.finish();
}

fn fast() -> Criterion {
    // Longer windows than the other benches: the plain-vs-supervised
    // overhead comparison needs the per-arm means stable to a few
    // percent, which 800 ms windows cannot deliver on a busy host.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(2_500))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench, bench_memo, bench_rchlint
}
criterion_main!(benches);
