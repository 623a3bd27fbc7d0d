//! Quickstart: rotate an app under RCHDroid and watch state survive.
//!
//! Run with: `cargo run --example quickstart`

use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_view::ViewOp;

fn main() {
    // A virtual device running RCHDroid, and the paper's benchmark app:
    // four ImageViews plus a button.
    let mut device = Device::new(HandlingMode::rchdroid_default());
    let app = device
        .install_and_launch(Box::new(SimpleApp::with_views(4)), 40 << 20, 1.0)
        .expect("launch");
    println!("launched {app} at t = {}", device.now());

    // The user scrolls the image list halfway down (user state held in
    // the root container).
    device
        .with_foreground_activity_mut(|activity| {
            let root = activity
                .tree
                .find_by_id_name("root")
                .expect("layout has a root");
            activity.tree.apply(root, ViewOp::ScrollTo(960)).unwrap();
        })
        .expect("foreground alive");

    // Rotate the device: RCHDroid shadows the old instance and creates a
    // sunny one for the new configuration — no restart.
    let first = device.rotate().expect("handled");
    println!(
        "first change handled via {:?} in {}",
        first.path, first.latency
    );

    // Rotate back: the coin flip reuses the shadow instance.
    let second = device.rotate().expect("handled");
    println!(
        "second change handled via {:?} in {}",
        second.path, second.latency
    );

    // The scroll position survived both changes, with zero app
    // modifications.
    let scroll = device
        .with_foreground_activity_mut(|activity| {
            let root = activity.tree.find_by_id_name("root").unwrap();
            activity.tree.view(root).unwrap().attrs.scroll_y()
        })
        .expect("foreground alive");
    println!("scroll position after two rotations: {scroll}px");
    assert_eq!(scroll, 960);

    let snapshot = device.memory_snapshot(&app).unwrap();
    println!(
        "memory: {:.2} MiB (the coupled shadow instance is included until the GC reclaims it)",
        snapshot.total_mib()
    );
}
