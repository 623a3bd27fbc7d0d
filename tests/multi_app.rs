//! Multi-app scenarios: app switching, the §3.5 immediate-release rule,
//! and per-app isolation of crashes and state.

use droidsim_device::{Device, DeviceError, HandlingMode};
use droidsim_kernel::SimDuration;
use droidsim_view::ViewOp;
use rch_workloads::GenericAppSpec;
use std::rc::Rc;

fn two_apps(mode: HandlingMode) -> (Device, Rc<str>, Rc<str>) {
    let mut d = Device::new(mode);
    let mail = GenericAppSpec::sized("MailClient", "10M+", false);
    let maps = GenericAppSpec::sized("MapsViewer", "10M+", false);
    let mail_c = d
        .install_and_launch(
            Box::new(mail.build()),
            mail.base_memory_bytes,
            mail.complexity,
        )
        .unwrap();
    let maps_c = d
        .install_and_launch(
            Box::new(maps.build()),
            maps.base_memory_bytes,
            maps.complexity,
        )
        .unwrap();
    (d, mail_c, maps_c)
}

#[test]
fn second_launch_takes_the_foreground() {
    let (d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    assert_eq!(d.foreground_component(), Some(maps.clone()));
    assert!(d.process(&mail).is_ok());
    assert_eq!(d.atms().stack().len(), 2, "two tasks");
}

#[test]
fn switch_to_app_round_trips() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    d.switch_to_app(&mail).unwrap();
    assert_eq!(d.foreground_component(), Some(mail.clone()));
    d.switch_to_app(&maps).unwrap();
    assert_eq!(d.foreground_component(), Some(maps));
    assert_eq!(
        d.switch_to_app("com.nope/.Main"),
        Err(DeviceError::UnknownApp("com.nope/.Main".to_owned()))
    );
}

#[test]
fn app_switch_releases_the_shadow_immediately() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    // maps is in the foreground; rotate to create its shadow coupling.
    d.rotate().unwrap();
    assert_eq!(
        d.process(&maps).unwrap().thread().alive_instances().len(),
        2
    );

    // §3.5: switching away releases the shadow at once — no waiting for
    // the threshold GC.
    d.switch_to_app(&mail).unwrap();
    assert_eq!(
        d.process(&maps).unwrap().thread().alive_instances().len(),
        1
    );
    assert_eq!(d.process(&maps).unwrap().thread().current_shadow(), None);
    // (Mail may now hold a shadow of its own: it resumed with a stale
    // configuration and RCHDroid handled that via the shadow/sunny path.)
    for record in d.atms().shadow_records() {
        assert_eq!(d.atms().record(record).unwrap().component(), &*mail);
    }
}

#[test]
fn at_most_one_shadow_across_the_whole_system() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    // Rotate maps (foreground), switch to mail, rotate mail.
    d.rotate().unwrap();
    d.switch_to_app(&mail).unwrap();
    d.rotate().unwrap();
    // The paper: "we maintain at most one shadow-state activity instance
    // for the whole Android system at any time."
    assert_eq!(d.atms().shadow_records().len(), 1);
    assert_eq!(
        d.process(&mail).unwrap().thread().alive_instances().len(),
        2
    );
    assert_eq!(
        d.process(&maps).unwrap().thread().alive_instances().len(),
        1
    );
}

#[test]
fn background_app_state_survives_the_switch() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    d.switch_to_app(&mail).unwrap();
    d.with_foreground_activity_mut(|a| {
        let root = a.tree.find_by_id_name("root").unwrap();
        a.tree.apply(root, ViewOp::ScrollTo(321)).unwrap();
    })
    .unwrap();
    d.switch_to_app(&maps).unwrap();
    d.switch_to_app(&mail).unwrap();
    let scroll = d
        .with_foreground_activity_mut(|a| {
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.view(root).unwrap().attrs.scroll_y()
        })
        .unwrap();
    assert_eq!(scroll, 321, "backgrounded instances keep their live state");
}

#[test]
fn a_crash_in_one_app_does_not_touch_the_other() {
    let mut d = Device::new(HandlingMode::Android10);
    let safe = GenericAppSpec::sized("SafeApp", "1M+", false);
    let mut risky = GenericAppSpec::sized("RiskyApp", "1M+", false);
    risky.uses_async_task = true;
    let safe_c = d
        .install_and_launch(
            Box::new(safe.build()),
            safe.base_memory_bytes,
            safe.complexity,
        )
        .unwrap();
    let risky_c = d
        .install_and_launch(
            Box::new(risky.build()),
            risky.base_memory_bytes,
            risky.complexity,
        )
        .unwrap();

    // risky starts its task, rotates (restart), task returns → crash.
    d.start_async_on_foreground(risky.async_task()).unwrap();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(8));
    assert!(d.is_crashed(&risky_c));
    assert!(!d.is_crashed(&safe_c));
    assert!(d.memory_snapshot(&safe_c).unwrap().total_bytes() > 0);

    // The crashed task is gone; safe can come to the foreground.
    d.switch_to_app(&safe_c).unwrap();
    assert_eq!(d.foreground_component(), Some(safe_c));
}

#[test]
fn back_press_releases_shadow_and_yields_the_foreground() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    d.rotate().unwrap(); // maps holds a shadow
    assert_eq!(
        d.process(&maps).unwrap().thread().alive_instances().len(),
        2
    );

    d.press_back().unwrap();
    // §3.5 "terminated": both maps instances are gone…
    assert!(d
        .process(&maps)
        .unwrap()
        .thread()
        .alive_instances()
        .is_empty());
    assert!(d.atms().shadow_records().is_empty());
    // …and mail's task is now on top.
    assert_eq!(d.foreground_component(), Some(mail));
}

#[test]
fn back_press_on_the_last_app_empties_the_stack() {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let spec = GenericAppSpec::sized("OnlyApp", "1K+", false);
    d.install_and_launch(
        Box::new(spec.build()),
        spec.base_memory_bytes,
        spec.complexity,
    )
    .unwrap();
    d.press_back().unwrap();
    assert_eq!(d.foreground_component(), None);
    assert_eq!(d.press_back(), Err(DeviceError::NoForegroundApp));
}

#[test]
fn rotation_after_switch_targets_the_new_foreground() {
    let (mut d, mail, maps) = two_apps(HandlingMode::rchdroid_default());
    d.switch_to_app(&mail).unwrap();
    let report = d.rotate().unwrap();
    assert_eq!(report.component, mail);
    assert_eq!(d.process(&maps).unwrap().latencies_ms().len(), 0);
    assert_eq!(d.process(&mail).unwrap().latencies_ms().len(), 1);
}
