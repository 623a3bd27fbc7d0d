//! Fragments under rotation: a login form lives in a dynamically
//! attached fragment (§2.2's hard case for app-level tools); RCHDroid
//! keeps the half-typed credentials through the rotation.
//!
//! Run with: `cargo run --example fragment_form`

use droidsim_app::{Activity, AppModel, FragmentSpec};
use droidsim_bundle::Bundle;
use droidsim_device::{Device, HandlingMode};
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::ViewOp;

#[derive(Debug)]
struct FormApp {
    resources: ResourceTable,
}

impl FormApp {
    fn new() -> Self {
        let mut resources = ResourceTable::new();
        resources.put(
            "activity_main",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new(
                "activity_main",
                LayoutNode::new("LinearLayout")
                    .with_id("root")
                    .with_child(LayoutNode::new("FrameLayout").with_id("form_host")),
            )),
        );
        resources.put(
            "fragment_form",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new(
                "fragment_form",
                LayoutNode::new("LinearLayout")
                    .with_id("form")
                    .with_child(LayoutNode::new("EditText").with_id("email"))
                    .with_child(LayoutNode::new("EditText").with_id("password"))
                    .with_child(LayoutNode::new("CheckBox").with_id("remember_me"))
                    .with_child(LayoutNode::new("Button").with_id("sign_in")),
            )),
        );
        FormApp { resources }
    }
}

impl AppModel for FormApp {
    fn component_name(&self) -> &str {
        "com.form/.Main"
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
                &FragmentSpec::new("form", "fragment_form", "form_host"),
            )
            .expect("host exists");
    }

    fn on_save_instance_state(&self, _activity: &Activity, _out: &mut Bundle) {}
}

fn main() {
    let mut device = Device::new(HandlingMode::rchdroid_default());
    device
        .install_and_launch(Box::new(FormApp::new()), 45 << 20, 1.0)
        .expect("launch");

    // The user fills half the form.
    device
        .with_foreground_activity_mut(|a| {
            let email = a.tree.find_by_id_name("email").unwrap();
            a.tree
                .apply(email, ViewOp::SetText("alice@example.com".into()))
                .unwrap();
            let remember = a.tree.find_by_id_name("remember_me").unwrap();
            a.tree.apply(remember, ViewOp::SetChecked(true)).unwrap();
        })
        .unwrap();
    println!("form filled (fragment attached by onCreate, not in the layout resource)");

    // Rotate mid-form.
    let report = device.rotate().expect("handled");
    println!(
        "rotation handled via {:?} in {}",
        report.path, report.latency
    );

    // Everything typed is still there.
    device
        .with_foreground_activity_mut(|a| {
            let email = a.tree.find_by_id_name("email").unwrap();
            let remember = a.tree.find_by_id_name("remember_me").unwrap();
            let email_text = a.tree.view(email).unwrap().attrs.text.clone();
            let checked = a.tree.view(remember).unwrap().attrs.checked();
            println!("email after rotation:        {email_text:?}");
            println!("remember-me after rotation:  {checked:?}");
            assert_eq!(email_text.as_deref(), Some("alice@example.com"));
            assert_eq!(checked, Some(true));
            println!("fragments attached: {}", a.fragments().len());
        })
        .unwrap();
}
