//! Fragment activities end-to-end (§2.2 of the paper): dynamically
//! attached fragments are where app-level static approaches fail and
//! where RCHDroid's system-level migration still works.

use droidsim_app::{Activity, AppModel, FragmentSpec};
use droidsim_bundle::Bundle;
use droidsim_device::{Device, HandlingMode};
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::ViewOp;
use std::rc::Rc;

/// An app whose login form lives in a dynamically attached fragment (the
/// framework-managed pattern: `onCreate` re-attaches it).
#[derive(Debug)]
struct FragmentApp {
    resources: ResourceTable,
}

impl FragmentApp {
    fn new() -> Self {
        let mut resources = ResourceTable::new();
        for (qualifiers, container) in [
            (Qualifiers::any(), "LinearLayout"),
            (
                Qualifiers::any().with_orientation(droidsim_config::Orientation::Landscape),
                "GridLayout",
            ),
        ] {
            resources.put(
                "activity_main",
                qualifiers,
                ResourceValue::Layout(LayoutTemplate::new(
                    "activity_main",
                    LayoutNode::new(container)
                        .with_id("root")
                        .with_child(LayoutNode::new("FrameLayout").with_id("fragment_host")),
                )),
            );
        }
        resources.put(
            "fragment_login",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new(
                "fragment_login",
                LayoutNode::new("LinearLayout")
                    .with_id("login_root")
                    .with_child(LayoutNode::new("EditText").with_id("username"))
                    .with_child(LayoutNode::new("EditText").with_id("password"))
                    .with_child(LayoutNode::new("Button").with_id("submit")),
            )),
        );
        FragmentApp { resources }
    }
}

impl AppModel for FragmentApp {
    fn component_name(&self) -> &str {
        "com.fragmented/.Main"
    }

    fn resources(&self) -> &ResourceTable {
        &self.resources
    }

    fn main_layout(&self) -> &str {
        "activity_main"
    }

    fn on_create(&self, activity: &mut Activity) {
        activity
            .attach_fragment(
                &self.resources,
                &FragmentSpec::new("login", "fragment_login", "fragment_host"),
            )
            .expect("container exists in every configuration");
    }

    fn on_save_instance_state(&self, _activity: &Activity, _out: &mut Bundle) {}
}

fn launch(mode: HandlingMode) -> (Device, Rc<str>) {
    let mut device = Device::new(mode);
    let component = device
        .install_and_launch(Box::new(FragmentApp::new()), 50 << 20, 1.0)
        .expect("launch");
    device
        .with_foreground_activity_mut(|a| {
            let username = a.tree.find_by_id_name("username").unwrap();
            a.tree
                .apply(username, ViewOp::SetText("alice@example.com".into()))
                .unwrap();
        })
        .unwrap();
    (device, component)
}

fn username_after_rotation(device: &mut Device) -> Option<String> {
    device.rotate().expect("handled");
    device
        .with_foreground_activity_mut(|a| {
            let username = a.tree.find_by_id_name("username")?;
            a.tree.view(username).ok()?.attrs.text.clone()
        })
        .ok()
        .flatten()
}

#[test]
fn fragment_views_exist_in_every_configuration() {
    let (device, component) = launch(HandlingMode::rchdroid_default());
    let p = device.process(&component).unwrap();
    let fg = p.foreground_activity().unwrap();
    assert!(fg.tree.find_by_id_name("username").is_some());
    assert_eq!(fg.fragments().len(), 1);
}

#[test]
fn rchdroid_preserves_fragment_state() {
    let (mut device, _) = launch(HandlingMode::rchdroid_default());
    // The sunny instance re-runs onCreate (re-attaching the fragment);
    // the essence mapping then links fragment views by id and the typed
    // username migrates.
    assert_eq!(
        username_after_rotation(&mut device).as_deref(),
        Some("alice@example.com")
    );
}

#[test]
fn stock_restart_preserves_framework_fragment_state() {
    // The fragment's EditText has an id and is re-attached by onCreate,
    // so the hierarchy bundle restores it: the framework-managed fragment
    // pattern is safe under stock Android too.
    let (mut device, _) = launch(HandlingMode::Android10);
    assert_eq!(
        username_after_rotation(&mut device).as_deref(),
        Some("alice@example.com")
    );
}

#[test]
fn runtimedroid_drops_the_whole_fragment() {
    // §2.2: "the views are distributed and assigned in different
    // fragments … the assignment insertion of RuntimeDroid cannot handle
    // these situations." Static reconstruction re-inflates the layout
    // resource, which contains only the empty fragment host.
    let (mut device, component) = launch(HandlingMode::RuntimeDroid);
    assert_eq!(
        username_after_rotation(&mut device),
        None,
        "fragment subtree is gone"
    );
    let p = device.process(&component).unwrap();
    let fg = p.foreground_activity().unwrap();
    assert!(
        fg.tree.find_by_id_name("fragment_host").is_some(),
        "host survives"
    );
    assert!(
        fg.tree.find_by_id_name("login_root").is_none(),
        "fragment does not"
    );
}

#[test]
fn rchdroid_keeps_fragment_state_across_many_flips() {
    let (mut device, _) = launch(HandlingMode::rchdroid_default());
    for i in 0..6 {
        let text = username_after_rotation(&mut device);
        assert_eq!(text.as_deref(), Some("alice@example.com"), "rotation {i}");
    }
}
