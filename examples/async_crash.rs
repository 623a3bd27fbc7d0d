//! The motivating scenario of the paper's Fig. 1: an app starts an
//! asynchronous task, the user rotates the screen before it returns, and
//! the callback then touches the (destroyed) view tree.
//!
//! Under stock Android 10 this throws `NullPointerException` and the app
//! dies; under RCHDroid the old instance survives in the Shadow state and
//! the callback's updates are lazily migrated to the new foreground tree.
//!
//! Run with: `cargo run --example async_crash`

use droidsim_app::SimpleApp;
use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_kernel::SimDuration;

fn scenario(mode: HandlingMode, label: &str) {
    println!("--- {label} ---");
    let mut device = Device::new(mode);
    let app_model = SimpleApp::with_views(4);
    let task = app_model.button_task();
    let app = device
        .install_and_launch(Box::new(app_model), 40 << 20, 1.0)
        .expect("launch");

    // Button press: a 5-second AsyncTask that will update the ImageViews.
    device.start_async_on_foreground(task).expect("press");
    println!("t={}: AsyncTask started (5 s)", device.now());

    // The user rotates before the task returns.
    let report = device.rotate().expect("handled");
    println!(
        "t={}: rotation handled via {:?} in {}",
        device.now(),
        report.path,
        report.latency
    );

    // Let the task return.
    device.advance(SimDuration::from_secs(6));

    if device.is_crashed(&app) {
        let exception = device
            .events()
            .iter()
            .find_map(|e| match e {
                DeviceEvent::Crash { exception, .. } => Some(exception.clone()),
                _ => None,
            })
            .unwrap_or_default();
        println!("t={}: APP CRASHED: {exception}", device.now());
    } else {
        let migrated: usize = device
            .events()
            .iter()
            .filter_map(|e| match e {
                DeviceEvent::AsyncDelivered { migrated_views, .. } => Some(*migrated_views),
                _ => None,
            })
            .sum();
        println!(
            "t={}: task returned safely; {migrated} view updates migrated to the foreground tree",
            device.now()
        );
        // Prove the foreground tree really shows the loaded images.
        let p = device.process(&app).unwrap();
        let fg = p.foreground_activity().unwrap();
        let img = fg.tree.find_by_id_name("image_0").unwrap();
        println!(
            "image_0 now shows {:?}",
            fg.tree
                .view(img)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .map(|d| d.0.as_str())
        );
    }
    println!();
}

fn main() {
    scenario(
        HandlingMode::Android10,
        "stock Android 10 (restarting-based)",
    );
    scenario(
        HandlingMode::rchdroid_default(),
        "RCHDroid (shadow/sunny + lazy migration)",
    );
}
