//! Deep-tree stress: RCHDroid's behaviour must be independent of tree
//! *shape*. These tests run the full protocol on trees nested hundreds of
//! levels deep.

use droidsim_device::{Device, HandlingMode, HandlingPath};
use droidsim_view::{layout, ViewOp};
use rch_workloads::DeepApp;
use std::rc::Rc;

fn deep_device(depth: usize) -> (Device, Rc<str>) {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let c = d
        .install_and_launch(Box::new(DeepApp::new(depth)), 40 << 20, 1.0)
        .unwrap();
    (d, c)
}

#[test]
fn deeply_nested_tree_inflates_completely() {
    let (d, c) = deep_device(300);
    let p = d.process(&c).unwrap();
    let fg = p.foreground_activity().unwrap();
    // decor + 300 levels + leaf
    assert_eq!(fg.tree.view_count(), 302);
    assert!(fg.tree.find_by_id_name("leaf").is_some());
    assert!(fg.tree.find_by_id_name("level_299").is_some());
}

#[test]
fn state_survives_the_change_at_depth() {
    let (mut d, _) = deep_device(300);
    d.with_foreground_activity_mut(|a| {
        let leaf = a.tree.find_by_id_name("leaf").unwrap();
        a.tree
            .apply(leaf, ViewOp::SetText("bottom of the world".into()))
            .unwrap();
    })
    .unwrap();
    let first = d.rotate().unwrap();
    assert_eq!(first.path, HandlingPath::RchInit);
    let text = d
        .with_foreground_activity_mut(|a| {
            let leaf = a.tree.find_by_id_name("leaf").unwrap();
            a.tree.view(leaf).unwrap().attrs.text.clone()
        })
        .unwrap();
    assert_eq!(text.as_deref(), Some("bottom of the world"));
}

#[test]
fn flip_still_constant_cost_at_depth() {
    let (mut d, _) = deep_device(300);
    d.rotate().unwrap();
    let flip = d.rotate().unwrap();
    assert_eq!(flip.path, HandlingPath::RchFlip);
    // The flip is O(1): same 89.2 ms regardless of 302 views of depth 301.
    assert!((flip.latency.as_millis_f64() - 89.2).abs() < 0.5);
}

#[test]
fn layout_pass_handles_depth() {
    let (d, c) = deep_device(300);
    let p = d.process(&c).unwrap();
    let fg = p.foreground_activity().unwrap();
    let result = layout(&fg.tree, d.configuration().screen);
    assert_eq!(result.len(), 302, "every level positioned");
    // A single-child chain: every level keeps the full screen box.
    let leaf = fg.tree.find_by_id_name("leaf").unwrap();
    assert!(result.rect(leaf).is_some());
}

#[test]
fn hierarchy_bundle_scales_with_depth_not_blowups() {
    let (mut d, _) = deep_device(500);
    d.with_foreground_activity_mut(|a| {
        let leaf = a.tree.find_by_id_name("leaf").unwrap();
        a.tree.apply(leaf, ViewOp::SetText("x".into())).unwrap();
        let bundle = a.tree.save_hierarchy_state();
        // Only the leaf holds user state: the bundle is tiny despite the
        // 500-level structure.
        assert_eq!(bundle.len(), 1);
    })
    .unwrap();
}
