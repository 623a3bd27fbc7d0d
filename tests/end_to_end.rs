//! End-to-end integration tests spanning the whole stack: device, ATMS,
//! activity thread, RCHDroid handler, workloads and cost model.

use droidsim_app::activity::KEY_HIERARCHY;
use droidsim_app::SimpleApp;
use droidsim_bundle::Bundle;
use droidsim_device::{Device, DeviceEvent, HandlingMode, HandlingPath};
use droidsim_kernel::SimDuration;
use droidsim_view::{views_visited, ViewOp, ViewTree};
use rch_workloads::{tp27_specs, GenericApp, GenericAppSpec, StateItem, StateMechanism};
use std::rc::Rc;

fn bench_device(mode: HandlingMode, views: usize) -> (Device, Rc<str>) {
    let mut device = Device::new(mode);
    let component = device
        .install_and_launch(Box::new(SimpleApp::with_views(views)), 40 << 20, 1.0)
        .expect("launch");
    (device, component)
}

#[test]
fn identical_runs_are_bit_identical() {
    // The whole simulator is deterministic: two identical scripted runs
    // produce identical event logs and final memory.
    let run = || {
        let (mut d, c) = bench_device(HandlingMode::rchdroid_default(), 8);
        d.start_async_on_foreground(SimpleApp::with_views(8).button_task())
            .unwrap();
        for _ in 0..3 {
            d.rotate().unwrap();
            d.advance(SimDuration::from_secs(3));
        }
        d.advance(SimDuration::from_secs(10));
        let events = format!("{:?}", d.events());
        let memory = d.memory_snapshot(&c).unwrap().total_bytes();
        (events, memory, d.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn rchdroid_never_exceeds_two_instances_and_one_shadow() {
    let (mut d, c) = bench_device(HandlingMode::rchdroid_default(), 4);
    for i in 0..20 {
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(1));
        let p = d.process(&c).unwrap();
        assert!(p.thread().alive_instances().len() <= 2, "iteration {i}");
        assert!(d.atms().shadow_records().len() <= 1, "iteration {i}");
    }
}

#[test]
fn stock_mode_keeps_exactly_one_instance() {
    let (mut d, c) = bench_device(HandlingMode::Android10, 4);
    for _ in 0..10 {
        d.rotate().unwrap();
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
    }
}

#[test]
fn flip_latency_is_independent_of_change_count() {
    let (mut d, c) = bench_device(HandlingMode::rchdroid_default(), 16);
    let mut flips = Vec::new();
    for _ in 0..12 {
        let report = d.rotate().unwrap();
        if report.path == HandlingPath::RchFlip {
            flips.push(report.latency);
        }
        d.advance(SimDuration::from_secs(1));
    }
    assert!(flips.len() >= 10);
    assert!(
        flips.windows(2).all(|w| w[0] == w[1]),
        "flips are constant-cost"
    );
    let _ = c;
}

/// A generic app with `views` content views and three state items: a
/// framework `EditText`, a custom view that skips
/// `onSaveInstanceState`, and a view created in code.
fn three_state_app(views: usize) -> GenericApp {
    let mut spec = GenericAppSpec::sized("FlipWork", "1M+", false);
    for (key, mechanism) in [
        ("framework_field", StateMechanism::FrameworkView),
        ("custom_field", StateMechanism::CustomViewNoSave),
        ("dynamic_field", StateMechanism::DynamicViewNoSave),
    ] {
        spec = spec.with_issue(
            "State is lost after restart",
            StateItem::new(key, mechanism, "typed"),
        );
    }
    spec.view_count = views;
    spec.build()
}

/// The hierarchy save as a whole-tree walk: every view in pre-order, the
/// last stateful bearer of a name winning.
fn walked_save(tree: &ViewTree) -> Bundle {
    let mut out = Bundle::new();
    for id in tree.iter_ids() {
        let node = tree.view(id).unwrap();
        let state = node.attrs.user_state(node.freezes_text);
        if let (true, Some(name), Some(state)) = (node.saves_state, node.id_name, state) {
            out.put_bundle(name.hierarchy_key(), state);
        }
    }
    out
}

/// Views visited by one rotation of `d`, which must take `path`.
fn rotation_work(d: &mut Device, path: HandlingPath) -> u64 {
    let before = views_visited();
    assert_eq!(d.rotate().unwrap().path, path);
    views_visited() - before
}

/// The views holding state in the foreground tree of app `c`.
fn foreground_holders(d: &Device, c: &str) -> usize {
    let foreground = d.process(c).unwrap().foreground_activity().unwrap();
    foreground.tree.state_holders().len()
}

/// Views visited by an RCHDroid device's first change (the init), the
/// views holding state its shadow-to-be held, and the views visited by
/// each of the coin flips after it, with the stateful views each flip
/// snapshotted. Checks every flip's snapshot against a whole-tree walk.
fn change_work(views: usize) -> (u64, usize, Vec<(u64, usize)>) {
    let probe = three_state_app(views);
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let c = d
        .install_and_launch(Box::new(three_state_app(views)), 40 << 20, 1.0)
        .unwrap();
    d.with_foreground_activity_mut(|a| probe.apply_user_state(a))
        .unwrap();
    let holders = foreground_holders(&d, &c);
    let init = rotation_work(&mut d, HandlingPath::RchInit);
    let mut flips = Vec::new();
    for _ in 0..4 {
        d.advance(SimDuration::from_secs(1));
        let visited = rotation_work(&mut d, HandlingPath::RchFlip);
        let thread = d.process(&c).unwrap().thread();
        let shadow = thread.instance(thread.current_shadow().unwrap()).unwrap();
        let walked = walked_save(&shadow.tree);
        let snapshot = shadow.shadow_bundle.as_ref().unwrap();
        assert_eq!(snapshot.bundle(KEY_HIERARCHY), Some(&walked));
        flips.push((visited, walked.len()));
    }
    (init, holders, flips)
}

#[test]
fn a_flip_visits_the_stateful_views_not_the_tree() {
    let (small_init, holders, small_flips) = change_work(64);
    let (large_init, _, large_flips) = change_work(2_048);
    assert_eq!(
        small_flips, large_flips,
        "a flip's work is independent of the tree's size"
    );
    for (visited, stateful) in small_flips {
        assert!(stateful >= 1, "the typed framework field is saved");
        assert!(
            visited <= stateful as u64 + 2,
            "{visited} visits for {stateful} stateful views"
        );
    }
    // The init maps nothing: it visits the views that hold state
    // (snapshot and seeding) and the code-made view, whatever the size.
    assert_eq!(small_init, large_init, "init visits");
    assert!(holders >= 3, "three state items hold state: {holders}");
    assert!(
        large_init <= 2 * holders as u64 + 4,
        "{large_init} visits for {holders} stateful views"
    );
}

/// Views visited by an RCHDroid device's first change (the init) and by
/// its re-init after the GC collected the shadow the init and a coin
/// flip left, with the stateful views the re-init's new shadow holds.
fn reinit_work(views: usize) -> (u64, u64, usize) {
    let probe = three_state_app(views);
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let c = d
        .install_and_launch(Box::new(three_state_app(views)), 40 << 20, 1.0)
        .unwrap();
    d.with_foreground_activity_mut(|a| probe.apply_user_state(a))
        .unwrap();
    let init = rotation_work(&mut d, HandlingPath::RchInit);
    d.advance(SimDuration::from_secs(1));
    rotation_work(&mut d, HandlingPath::RchFlip);
    // Idle past THRESH_T with an empty frequency window: the GC collects.
    d.advance(SimDuration::from_secs(120));
    let thread = d.process(&c).unwrap().thread();
    assert_eq!(thread.current_shadow(), None, "the GC collected the shadow");
    let holders = foreground_holders(&d, &c);
    let reinit = rotation_work(&mut d, HandlingPath::RchInit);
    (init, reinit, holders)
}

#[test]
fn a_warm_reinit_visits_the_stateful_views_not_the_tree() {
    let (small_init, small_reinit, holders) = reinit_work(64);
    let (large_init, large_reinit, _) = reinit_work(2_048);
    // Neither init maps anything: each one's work is the views that
    // hold state (snapshot and seeding) and the code-made view each tree
    // added, whatever the tree's size.
    assert_eq!(small_init, large_init, "init visits");
    assert_eq!(small_reinit, large_reinit, "re-init visits");
    assert!(holders >= 3, "three state items hold state: {holders}");
    assert!(
        large_reinit <= 2 * holders as u64 + 4,
        "{large_reinit} visits for {holders} stateful views"
    );
}

#[test]
fn async_work_survives_arbitrary_rotation_counts_under_rchdroid() {
    for rotations in 1..=5 {
        let (mut d, c) = bench_device(HandlingMode::rchdroid_default(), 3);
        d.start_async_on_foreground(SimpleApp::with_views(3).button_task())
            .unwrap();
        for _ in 0..rotations {
            d.rotate().unwrap();
        }
        d.advance(SimDuration::from_secs(8));
        assert!(!d.is_crashed(&c), "{rotations} rotations");
        // The images always end up loaded on whatever instance is in the
        // foreground.
        let p = d.process(&c).unwrap();
        let fg = p.foreground_activity().expect("foreground alive");
        let img = fg.tree.find_by_id_name("image_0").unwrap();
        assert_eq!(
            fg.tree
                .view(img)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "loaded_0.png",
            "{rotations} rotations"
        );
    }
}

#[test]
fn stock_crash_requires_an_inflight_task() {
    // No async task → rotation alone never crashes stock Android.
    let (mut d, c) = bench_device(HandlingMode::Android10, 4);
    for _ in 0..5 {
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(2));
    }
    assert!(!d.is_crashed(&c));
}

#[test]
fn gc_then_new_change_pays_init_cost_again() {
    let (mut d, _) = bench_device(HandlingMode::rchdroid_default(), 4);
    let first = d.rotate().unwrap();
    assert_eq!(first.path, HandlingPath::RchInit);
    // Wait past THRESH_T with an empty frequency window → GC collects.
    d.advance(SimDuration::from_secs(120));
    let after_gc = d.rotate().unwrap();
    assert_eq!(after_gc.path, HandlingPath::RchInit, "shadow was reclaimed");
    assert_eq!(after_gc.latency, first.latency, "same init cost");
}

#[test]
fn every_tp27_mechanism_behaves_as_designed_end_to_end() {
    // Drive each app through a single change under all three systems and
    // check the mechanism table's predictions hold in the full simulation.
    use rch_experiments::{run_app, RunConfig};
    for spec in tp27_specs().iter().take(12) {
        let lossy = spec.state_items[0].mechanism;
        let stock = run_app(spec, &RunConfig::new(HandlingMode::Android10).changes(1));
        let rch = run_app(
            spec,
            &RunConfig::new(HandlingMode::rchdroid_default()).changes(1),
        );
        let rtd = run_app(spec, &RunConfig::new(HandlingMode::RuntimeDroid).changes(1));
        assert!(
            stock.issue_observed(),
            "{}: stock must show the issue",
            spec.name
        );
        assert_eq!(
            !rch.issue_observed(),
            lossy.fixed_by_rchdroid(),
            "{}: RCHDroid prediction",
            spec.name
        );
        if !spec.uses_async_task {
            assert_eq!(
                !rtd.issue_observed(),
                lossy.fixed_by_runtimedroid(),
                "{}: RuntimeDroid prediction",
                spec.name
            );
        }
    }
}

#[test]
fn self_handled_change_is_in_place_in_every_mode() {
    use droidsim_config::ConfigChanges;
    for mode in [HandlingMode::Android10, HandlingMode::rchdroid_default()] {
        let mut d = Device::new(mode);
        let app = SimpleApp::builder(4).handles(ConfigChanges::ALL).build();
        let c = d.install_and_launch(Box::new(app), 40 << 20, 1.0).unwrap();
        let report = d.rotate().unwrap();
        assert_eq!(report.path, HandlingPath::HandledByApp, "{mode:?}");
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
    }
}

#[test]
fn scroll_state_round_trips_through_both_restart_and_rchdroid() {
    for mode in [HandlingMode::Android10, HandlingMode::rchdroid_default()] {
        let (mut d, _) = bench_device(mode, 4);
        d.with_foreground_activity_mut(|a| {
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(1234)).unwrap();
        })
        .unwrap();
        d.rotate().unwrap();
        let scroll = d
            .with_foreground_activity_mut(|a| {
                let root = a.tree.find_by_id_name("root").unwrap();
                a.tree.view(root).unwrap().attrs.scroll_y()
            })
            .unwrap();
        // Framework-view user state survives under BOTH systems — that is
        // not what distinguishes them.
        assert_eq!(scroll, 1234, "{mode:?}");
    }
}

#[test]
fn event_log_is_ordered_and_complete() {
    let (mut d, c) = bench_device(HandlingMode::rchdroid_default(), 4);
    d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
        .unwrap();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(8));
    let events = d.events();
    assert!(
        events.windows(2).all(|w| w[0].at() <= w[1].at()),
        "monotone timestamps"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, DeviceEvent::AppLaunched { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, DeviceEvent::ConfigChange { .. })));
    assert!(events.iter().any(|e| matches!(
        e,
        DeviceEvent::AsyncDelivered {
            migration_latency: Some(_),
            ..
        }
    )));
    let _ = c;
}

#[test]
fn member_unsaved_state_lost_under_rchdroid_but_kept_by_runtimedroid() {
    use rch_experiments::{run_app, RunConfig};
    let spec = tp27_specs()
        .into_iter()
        .find(|s| s.state_items[0].mechanism == StateMechanism::MemberUnsaved)
        .expect("DiskDiggerPro");
    let rch = run_app(
        &spec,
        &RunConfig::new(HandlingMode::rchdroid_default()).changes(1),
    );
    assert!(
        rch.issue_observed(),
        "RCHDroid cannot restore unsaved fields"
    );
    let rtd = run_app(
        &spec,
        &RunConfig::new(HandlingMode::RuntimeDroid).changes(1),
    );
    assert!(rtd.crashed || !rtd.issue_observed() || spec.uses_async_task);
}
