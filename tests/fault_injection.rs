//! Fault injection: buggy app callbacks beyond the paper's async-return
//! scenario, and how each system contains (or doesn't contain) them.

use droidsim_app::{AsyncResult, AsyncSpec, SimpleApp};
use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_kernel::{SimDuration, SimTime};
use droidsim_view::ViewOp;
use std::rc::Rc;

fn device(mode: HandlingMode) -> (Device, Rc<str>) {
    let mut d = Device::new(mode);
    let c = d
        .install_and_launch(Box::new(SimpleApp::with_views(2)), 40 << 20, 1.0)
        .unwrap();
    (d, c)
}

/// A callback that applies a type-inappropriate operation (a logic bug in
/// the app, not a lifecycle bug).
fn buggy_task() -> AsyncSpec {
    AsyncSpec {
        duration: SimDuration::from_secs(1),
        result: AsyncResult {
            // SetProgress on an ImageView: InapplicableOp → uncaught
            // exception on the UI thread.
            ops: vec![("image_0".to_owned(), ViewOp::SetProgress(50))],
            shows_dialog: false,
        },
    }
}

/// A callback that shows a dialog (window-scoped resource).
fn dialog_task() -> AsyncSpec {
    AsyncSpec {
        duration: SimDuration::from_secs(5),
        result: AsyncResult {
            ops: vec![],
            shows_dialog: true,
        },
    }
}

#[test]
fn app_logic_bugs_crash_under_every_system() {
    // RCHDroid is transparent: it fixes lifecycle-induced crashes, not
    // app logic bugs. An uncaught exception still kills the process.
    for mode in [HandlingMode::Android10, HandlingMode::rchdroid_default()] {
        let (mut d, c) = device(mode);
        d.start_async_on_foreground(buggy_task()).unwrap();
        d.advance(SimDuration::from_secs(2));
        assert!(d.is_crashed(&c), "{mode:?}");
    }
}

#[test]
fn dialog_after_restart_leaks_window_under_stock() {
    let (mut d, c) = device(HandlingMode::Android10);
    d.start_async_on_foreground(dialog_task()).unwrap();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(6));
    assert!(d.is_crashed(&c));
    let has_leak = d.events().iter().any(
        |e| matches!(e, DeviceEvent::Crash { exception, .. } if exception.contains("WindowLeaked")),
    );
    assert!(has_leak, "events: {:?}", d.events());
}

#[test]
fn dialog_after_change_is_safe_under_rchdroid() {
    // The shadow instance's window is still alive (invisible), so the
    // dialog attaches without leaking.
    let (mut d, c) = device(HandlingMode::rchdroid_default());
    d.start_async_on_foreground(dialog_task()).unwrap();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(6));
    assert!(!d.is_crashed(&c));
}

#[test]
fn crash_cleans_up_every_instance_and_record() {
    let (mut d, c) = device(HandlingMode::rchdroid_default());
    d.rotate().unwrap(); // two instances alive
    d.start_async_on_foreground(buggy_task()).unwrap();
    d.advance(SimDuration::from_secs(2));
    assert!(d.is_crashed(&c));
    assert!(d.process(&c).unwrap().thread().alive_instances().is_empty());
    assert!(d.atms().shadow_records().is_empty());
    assert_eq!(d.memory_snapshot(&c).unwrap().total_bytes(), 0);
}

#[test]
fn crash_time_matches_the_task_deadline() {
    let (mut d, c) = device(HandlingMode::Android10);
    d.start_async_on_foreground(SimpleApp::with_views(2).button_task())
        .unwrap();
    let change_at = d.now();
    d.rotate().unwrap();
    d.advance(SimDuration::from_secs(10));
    let crash_at = d
        .events()
        .iter()
        .find_map(|e| match e {
            DeviceEvent::Crash { at, .. } => Some(*at),
            _ => None,
        })
        .expect("crashed");
    // The 5 s task was started just before the change.
    let expected = change_at + SimDuration::from_secs(5);
    assert!(crash_at >= expected && crash_at < expected + SimDuration::from_secs(1));
    assert!(crash_at > SimTime::ZERO);
    let _ = c;
}
