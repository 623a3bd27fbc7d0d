//! The Shadow state's system-kill exemption (§3.2) under memory pressure,
//! and relaunch churn: a destroyed instance no callback captured leaves
//! its thread, views and all.

use droidsim_app::{ActivityInstanceId, ActivityState, AsyncResult, AsyncSpec};
use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_kernel::SimDuration;
use droidsim_metrics::MemorySnapshot;
use droidsim_view::ViewOp;
use rch_workloads::GenericAppSpec;
use std::rc::Rc;

fn two_apps(mode: HandlingMode) -> (Device, Rc<str>, Rc<str>) {
    let mut d = Device::new(mode);
    let a = GenericAppSpec::sized("PressureA", "1M+", false);
    let b = GenericAppSpec::sized("PressureB", "1M+", false);
    let ac = d
        .install_and_launch(Box::new(a.build()), a.base_memory_bytes, a.complexity)
        .unwrap();
    let bc = d
        .install_and_launch(Box::new(b.build()), b.base_memory_bytes, b.complexity)
        .unwrap();
    (d, ac, bc)
}

#[test]
fn pressure_reclaims_stopped_background_activities() {
    let (mut d, a, b) = two_apps(HandlingMode::rchdroid_default());
    // `a` was backgrounded by `b`'s launch → its activity is Stopped.
    let reclaimed = d.trigger_memory_pressure();
    assert_eq!(reclaimed, 1);
    assert!(d.process(&a).unwrap().thread().alive_instances().is_empty());
    // The foreground app is untouched.
    assert_eq!(d.process(&b).unwrap().thread().alive_instances().len(), 1);
}

#[test]
fn shadow_instances_are_exempt() {
    let (mut d, _a, b) = two_apps(HandlingMode::rchdroid_default());
    // Create the shadow coupling on the foreground app.
    d.rotate().unwrap();
    assert_eq!(d.process(&b).unwrap().thread().alive_instances().len(), 2);

    let before_shadow = d.process(&b).unwrap().thread().current_shadow();
    assert!(before_shadow.is_some());
    d.trigger_memory_pressure();
    // §3.2: the shadow survives system reclamation; only the GC policy
    // may release it.
    assert_eq!(
        d.process(&b).unwrap().thread().current_shadow(),
        before_shadow
    );
    assert_eq!(d.process(&b).unwrap().thread().alive_instances().len(), 2);
}

#[test]
fn gc_still_reclaims_the_exempted_shadow_later() {
    let (mut d, _a, b) = two_apps(HandlingMode::rchdroid_default());
    d.rotate().unwrap();
    d.trigger_memory_pressure();
    assert_eq!(d.process(&b).unwrap().thread().alive_instances().len(), 2);
    // The threshold GC is the one legitimate path.
    d.advance(SimDuration::from_secs(120));
    assert_eq!(d.process(&b).unwrap().thread().alive_instances().len(), 1);
}

#[test]
fn pressure_is_idempotent() {
    let (mut d, ..) = two_apps(HandlingMode::rchdroid_default());
    assert_eq!(d.trigger_memory_pressure(), 1);
    assert_eq!(d.trigger_memory_pressure(), 0, "nothing left to reclaim");
}

#[test]
fn reclaimed_activity_restores_from_the_retained_bundle() {
    // Android keeps onSaveInstanceState's bundle in the system server:
    // the user can return to a reclaimed background activity and find
    // their (view-held) state back.
    let (mut d, a, b) = two_apps(HandlingMode::rchdroid_default());
    d.switch_to_app(&a).unwrap();
    d.with_foreground_activity_mut(|act| {
        let root = act.tree.find_by_id_name("root").unwrap();
        act.tree.apply(root, ViewOp::ScrollTo(987)).unwrap();
    })
    .unwrap();
    d.switch_to_app(&b).unwrap();
    assert_eq!(d.trigger_memory_pressure(), 1, "a's instance reclaimed");
    assert!(d.process(&a).unwrap().thread().alive_instances().is_empty());

    // Coming back relaunches from the retained bundle.
    d.switch_to_app(&a).unwrap();
    let scroll = d
        .with_foreground_activity_mut(|act| {
            let root = act.tree.find_by_id_name("root").unwrap();
            act.tree.view(root).unwrap().attrs.scroll_y()
        })
        .unwrap();
    assert_eq!(scroll, 987);
}

#[test]
fn async_task_to_a_reclaimed_background_activity_crashes_like_stock() {
    // The exemption matters: a background activity WITHOUT shadow status
    // that is reclaimed while a task is in flight still produces the
    // classic crash — RCHDroid only protects the runtime-change path.
    let (mut d, a, _b) = two_apps(HandlingMode::rchdroid_default());
    d.switch_to_app(&a).unwrap();
    let spec = GenericAppSpec::sized("PressureA", "1M+", false);
    d.start_async_on_foreground(spec.async_task()).unwrap();
    // Background it again, then reclaim it.
    d.switch_to_app("com.pressureb/.Main").unwrap();
    d.trigger_memory_pressure();
    d.advance(SimDuration::from_secs(8));
    assert!(
        d.is_crashed(&a),
        "the stopped instance was reclaimed under the task"
    );
}

/// Views in the relaunch-churn app: the largest trees `rotation_storm`
/// rotates.
const CHURN_VIEWS: usize = 2048;

/// The PSS model's reading after the stock churn below. Pinned from the
/// code that kept every destroyed tree resident: freeing the dead arenas
/// must not move the simulated device memory, which counts alive
/// instances only.
const STOCK_CHURN_SNAPSHOT: MemorySnapshot = MemorySnapshot {
    base_bytes: 150_766_727,
    activities_bytes: 14_495_428,
};

/// The PSS model's reading after the RCHDroid GC cycles below, pinned
/// the same way.
const RCH_CHURN_SNAPSHOT: MemorySnapshot = MemorySnapshot {
    base_bytes: 150_766_727,
    activities_bytes: 14_495_467,
};

fn churn_app(mode: HandlingMode) -> (Device, Rc<str>, GenericAppSpec) {
    let mut spec = GenericAppSpec::sized("ChurnApp", "1M+", true);
    spec.view_count = CHURN_VIEWS;
    let mut d = Device::new(mode);
    let c = d
        .install_and_launch(
            Box::new(spec.build()),
            spec.base_memory_bytes,
            spec.complexity,
        )
        .unwrap();
    (d, c, spec)
}

/// `(state, view count)` of every instance the app's thread holds.
/// Instance ids are dense from 0 and a rotation creates at most one, so
/// after `rotations` of them no id is above `rotations`.
fn held_instances(d: &Device, component: &str, rotations: u64) -> Vec<(ActivityState, usize)> {
    let thread = d.process(component).unwrap().thread();
    (0..=rotations)
        .filter_map(|i| thread.instance(ActivityInstanceId::new(i)).ok())
        .map(|a| (a.state(), a.tree.view_count()))
        .collect()
}

/// Once no callback captures a destroyed instance, the thread holds
/// none, and every alive instance keeps its full layout.
fn assert_only_alive_instances_are_held(d: &Device, component: &str, rotations: u64) {
    let held = held_instances(d, component, rotations);
    assert!(!held.is_empty());
    for (state, views) in held {
        assert_ne!(
            state,
            ActivityState::Destroyed,
            "a destroyed instance stayed"
        );
        assert!(views > CHURN_VIEWS, "an alive tree lost views: {views}");
    }
}

/// The rendered exception of the device's first crash.
fn crash_text(d: &Device) -> String {
    d.events()
        .iter()
        .find_map(|e| match e {
            DeviceEvent::Crash { exception, .. } => Some(exception.clone()),
            _ => None,
        })
        .expect("the device crashed")
}

/// A 5 s task whose callback shows a dialog.
fn dialog_task() -> AsyncSpec {
    AsyncSpec {
        duration: SimDuration::from_secs(5),
        result: AsyncResult {
            ops: vec![("async_target".to_owned(), ViewOp::SetText("done".into()))],
            shows_dialog: true,
        },
    }
}

/// 128 stock relaunches, each destroying the previous instance.
fn stock_churn() -> (Device, Rc<str>, GenericAppSpec) {
    let (mut d, c, spec) = churn_app(HandlingMode::Android10);
    for _ in 0..128 {
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(2));
    }
    (d, c, spec)
}

#[test]
fn stock_relaunch_churn_frees_every_destroyed_tree() {
    let (mut d, c, spec) = stock_churn();
    assert_only_alive_instances_are_held(&d, &c, 128);
    assert_eq!(d.memory_snapshot(&c).unwrap(), STOCK_CHURN_SNAPSHOT);

    // A callback captured before one more restart still dereferences
    // the released tree, with the very same exception.
    d.start_async_on_foreground(spec.async_task()).unwrap();
    d.rotate().unwrap();
    let destroyed: Vec<usize> = held_instances(&d, &c, 129)
        .into_iter()
        .filter(|(state, _)| *state == ActivityState::Destroyed)
        .map(|(_, views)| views)
        .collect();
    assert_eq!(
        destroyed,
        [0],
        "the captured instance stays, views released"
    );
    d.advance(SimDuration::from_secs(8));
    assert!(d.is_crashed(&c));
    assert_eq!(
        crash_text(&d),
        "java.lang.NullPointerException: view ViewId#0 of a destroyed activity"
    );
}

#[test]
fn stock_dialog_after_relaunch_churn_still_leaks_its_window() {
    let (mut d, c, _) = stock_churn();
    d.start_async_on_foreground(dialog_task()).unwrap();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(8));
    assert!(d.is_crashed(&c));
    assert_eq!(
        crash_text(&d),
        "android.view.WindowLeaked: view ViewId#0 outlived its window"
    );
}

#[test]
fn rchdroid_gc_cycles_free_every_collected_shadow_tree() {
    let (mut d, c, _) = churn_app(HandlingMode::rchdroid_default());
    for _ in 0..4 {
        // Init, two flips, then an idle long enough for the GC.
        for _ in 0..3 {
            d.rotate().unwrap();
            d.advance(SimDuration::from_secs(2));
        }
        d.advance(SimDuration::from_secs(70));
    }
    let collected = d
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                DeviceEvent::GcPass {
                    collected: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(collected, 4);
    assert_only_alive_instances_are_held(&d, &c, 12);
    assert_eq!(d.memory_snapshot(&c).unwrap(), RCH_CHURN_SNAPSHOT);
}
