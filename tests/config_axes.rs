//! Every runtime-change axis end-to-end: rotation is the motivating
//! example, but the paper's problem statement covers screen resizing,
//! language switching, keyboard attachment, font scale and UI mode. Each
//! axis must flow through diffing → handling → resource re-selection.

use droidsim_app::SimpleApp;
use droidsim_config::{KeyboardState, Locale, UiMode};
use droidsim_device::{Device, HandlingMode, HandlingPath};
use droidsim_view::ViewOp;

fn device() -> Device {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    d.install_and_launch(Box::new(SimpleApp::with_views(4)), 40 << 20, 1.0)
        .unwrap();
    // User state to carry across every change.
    d.with_foreground_activity_mut(|a| {
        let root = a.tree.find_by_id_name("root").unwrap();
        a.tree.apply(root, ViewOp::ScrollTo(555)).unwrap();
    })
    .unwrap();
    d
}

fn foreground_scroll(d: &mut Device) -> i32 {
    d.with_foreground_activity_mut(|a| {
        let root = a.tree.find_by_id_name("root").unwrap();
        a.tree.view(root).unwrap().attrs.scroll_y()
    })
    .unwrap()
}

#[test]
fn wm_size_commands_follow_the_artifact_workflow() {
    let mut d = device();
    // §A.5: wm size 1080x1920 … wm size reset.
    let first = d.wm_size(1920, 1080).unwrap();
    assert_eq!(first.path, HandlingPath::RchInit);
    let reset = d.wm_size_reset().unwrap();
    assert_eq!(reset.path, HandlingPath::RchFlip);
    assert_eq!(foreground_scroll(&mut d), 555);
    assert_eq!(d.configuration().screen.to_string(), "1080x1920");
}

#[test]
fn resize_without_rotation_is_still_a_runtime_change() {
    let mut d = device();
    // Same orientation, different height (multi-window style).
    let report = d.wm_size(1080, 1600).unwrap();
    assert_ne!(report.path, HandlingPath::NoChange);
    assert_eq!(foreground_scroll(&mut d), 555);
}

#[test]
fn language_switch_axis() {
    let mut d = device();
    let zh = d.configuration().with_locale(Locale::zh_cn());
    let report = d.change_configuration(zh).unwrap();
    assert_eq!(report.path, HandlingPath::RchInit);
    assert_eq!(foreground_scroll(&mut d), 555);
    assert_eq!(d.configuration().locale, Locale::zh_cn());
}

#[test]
fn keyboard_attachment_axis() {
    let mut d = device();
    let with_kb = d.configuration().with_keyboard(KeyboardState::Attached);
    let report = d.change_configuration(with_kb).unwrap();
    assert_eq!(report.path, HandlingPath::RchInit);
    // Detach: the coin flip reuses the pre-attachment instance.
    let without = d.configuration().with_keyboard(KeyboardState::None);
    let second = d.change_configuration(without).unwrap();
    assert_eq!(second.path, HandlingPath::RchFlip);
    assert_eq!(foreground_scroll(&mut d), 555);
}

#[test]
fn font_scale_axis() {
    let mut d = device();
    let large_text = d.configuration().with_font_scale_milli(1300);
    let report = d.change_configuration(large_text).unwrap();
    assert_eq!(report.path, HandlingPath::RchInit);
    assert!((d.configuration().font_scale() - 1.3).abs() < 1e-9);
    assert_eq!(foreground_scroll(&mut d), 555);
}

#[test]
fn dark_mode_axis() {
    let mut d = device();
    let night = d.configuration().with_ui_mode(UiMode::Night);
    let report = d.change_configuration(night).unwrap();
    assert_eq!(report.path, HandlingPath::RchInit);
    assert_eq!(foreground_scroll(&mut d), 555);
}

#[test]
fn compound_change_is_handled_once() {
    let mut d = device();
    // Rotation + language + dark mode in one configuration update (e.g.
    // a profile switch): one change, one handling pass.
    let compound = d
        .configuration()
        .rotated()
        .with_locale(Locale::zh_cn())
        .with_ui_mode(UiMode::Night);
    let before = d.process("com.bench/.Main").unwrap().latencies_ms().len();
    let report = d.change_configuration(compound).unwrap();
    assert_eq!(report.path, HandlingPath::RchInit);
    let after = d.process("com.bench/.Main").unwrap().latencies_ms().len();
    assert_eq!(after, before + 1);
    assert_eq!(foreground_scroll(&mut d), 555);
}

#[test]
fn flip_requires_matching_configuration_history() {
    // A→B→C (three distinct configurations): the second change still
    // flips — the shadow is reused and re-dressed — and state survives.
    let mut d = device();
    d.wm_size(1920, 1080).unwrap();
    let third = d
        .change_configuration(d.configuration().with_locale(Locale::zh_cn()))
        .unwrap();
    assert_eq!(third.path, HandlingPath::RchFlip);
    assert_eq!(foreground_scroll(&mut d), 555);
}
