//! Property tests: view-tree structural invariants under random operation
//! sequences, and save/restore behaviour — including reference oracles
//! that replay the whole-tree save/restore and user-state copies the
//! entry-driven code must match bit for bit, the save checked after every
//! step of scripts that start from inflated or grafted layouts — plus
//! the add-by-add walks inflation and RCH001's grouping used to do, as
//! oracles for the nesting check, the single-write inflater (strict and
//! lenient, on every attribute it resolves) and the repeated-names
//! query, a map oracle for layout attribute lists, and the rule that
//! user content is never interned.

use droidsim_app::{Activity, ActivityInstanceId, ActivityThread, AppModel, FragmentSpec};
use droidsim_atms::{ActivityRecordId, Atms};
use droidsim_bundle::Bundle;
use droidsim_config::Configuration;
use droidsim_kernel::Symbol;
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::{
    check_nesting, inflate, inflate_weighed, try_inflate, ViewAttrs, ViewError, ViewId, ViewKind,
    ViewOp, ViewTree,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rch_workloads::{GenericAppSpec, StateItem, StateMechanism};
use rchdroid::MigrationEngine;
use runtimedroid_baseline::RuntimeDroid;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Id names the scripts draw from. A small pool, so names repeat: a
/// tree ends up with several bearers of one name, and two trees built
/// from different scripts share names the way two inflations do.
const NAMES: [&str; 6] = ["v0", "v1", "v2", "v3", "v4", "v5"];

/// A random tree-building script: each step adds a view, mutates a
/// view, flips a view's save flags, restores a saved bundle, continues
/// on a clone, or releases the tree.
#[derive(Debug, Clone)]
enum BuildStep {
    /// Adds a view under any live view (so most adds under a leaf fail
    /// with `NotAContainer` and must change nothing) or, with
    /// `under_container`, under a container only, so trees grow deep.
    Add {
        parent_choice: usize,
        under_container: bool,
        kind: ViewKind,
        name: Option<usize>,
    },
    Mutate {
        choice: usize,
        op: ViewOp,
    },
    /// A custom view without `onSaveInstanceState` (`saves_state`), or
    /// `freezesText` declared on a label (or dropped from an editor).
    Flags {
        choice: usize,
        saves_state: bool,
        freezes_text: bool,
    },
    /// Restores a bundle saved from another script's tree.
    Restore(Bundle),
    /// Continues on a clone of the tree.
    Clone,
    /// Releases the tree: later steps find no views to pick.
    Release,
}

fn arb_kind() -> impl Strategy<Value = ViewKind> {
    prop_oneof![
        Just(ViewKind::TextView),
        Just(ViewKind::EditText),
        Just(ViewKind::Button),
        Just(ViewKind::ImageView),
        Just(ViewKind::ListView),
        Just(ViewKind::ScrollView),
        Just(ViewKind::ProgressBar),
        Just(ViewKind::LinearLayout),
        Just(ViewKind::FrameLayout),
    ]
}

fn arb_op() -> impl Strategy<Value = ViewOp> {
    prop_oneof![
        "[a-z ]{0,16}".prop_map(ViewOp::SetText),
        ("[a-z]{1,8}", 0u64..100_000).prop_map(|(n, b)| ViewOp::SetDrawable(n.as_str().into(), b)),
        (0i32..100).prop_map(ViewOp::SetSelection),
        (0i32..50, any::<bool>()).prop_map(|(i, c)| ViewOp::SetItemChecked(i, c)),
        (-5_000i32..5_000).prop_map(ViewOp::ScrollTo),
        (0i32..100).prop_map(ViewOp::SetProgress),
        any::<bool>().prop_map(ViewOp::SetChecked),
        any::<bool>().prop_map(ViewOp::SetEnabled),
        any::<bool>().prop_map(ViewOp::SetVisible),
    ]
}

fn arb_add(under_container: bool) -> impl Strategy<Value = BuildStep> {
    (any::<usize>(), arb_kind(), any::<bool>(), any::<usize>()).prop_map(
        move |(parent_choice, kind, named, n)| BuildStep::Add {
            parent_choice,
            under_container,
            kind,
            name: named.then_some(n),
        },
    )
}

fn arb_mutate() -> impl Strategy<Value = BuildStep> {
    (any::<usize>(), arb_op()).prop_map(|(choice, op)| BuildStep::Mutate { choice, op })
}

/// Adds (one under any view, one under a container) and mutations are
/// listed twice so trees grow and carry state; flag flips are rarer.
fn arb_step() -> impl Strategy<Value = BuildStep> {
    prop_oneof![
        arb_add(false),
        arb_add(true),
        arb_mutate(),
        arb_mutate(),
        (any::<usize>(), any::<bool>(), any::<bool>()).prop_map(
            |(choice, saves_state, freezes_text)| BuildStep::Flags {
                choice,
                saves_state,
                freezes_text,
            }
        ),
    ]
}

fn arb_script(max: usize) -> impl Strategy<Value = Vec<BuildStep>> {
    proptest::collection::vec(arb_step(), 0..max)
}

/// Step pairs that give a view state and take it away again on the next
/// step (neither step changes which view a choice picks): a scroll and a
/// scroll back to the top, an item checked and unchecked from a small
/// pool, and the save flags turned off, then on again.
fn arb_come_and_go() -> impl Strategy<Value = Vec<BuildStep>> {
    let pair = |choice, first, then| {
        vec![
            BuildStep::Mutate { choice, op: first },
            BuildStep::Mutate { choice, op: then },
        ]
    };
    prop_oneof![
        (any::<usize>(), 1i32..500).prop_map(move |(choice, y)| pair(
            choice,
            ViewOp::ScrollTo(y),
            ViewOp::ScrollTo(0)
        )),
        (any::<usize>(), 0i32..3).prop_map(move |(choice, item)| pair(
            choice,
            ViewOp::SetItemChecked(item, true),
            ViewOp::SetItemChecked(item, false)
        )),
        any::<usize>().prop_map(|choice| vec![
            BuildStep::Flags {
                choice,
                saves_state: false,
                freezes_text: false,
            },
            BuildStep::Flags {
                choice,
                saves_state: true,
                freezes_text: true,
            },
        ]),
    ]
}

/// A script for the save oracle: [`arb_step`]'s steps mixed with state
/// that comes and goes, restores of another script's saved bundle and
/// clones; with even odds the tree is released a few steps before the
/// end.
fn arb_save_script(max: usize) -> impl Strategy<Value = Vec<BuildStep>> {
    let step = prop_oneof![
        arb_step().prop_map(|step| vec![step]),
        arb_step().prop_map(|step| vec![step]),
        arb_step().prop_map(|step| vec![step]),
        arb_come_and_go(),
        arb_script(40).prop_map(|other| vec![BuildStep::Restore(oracle_save(&run_script(&other)))]),
        Just(vec![BuildStep::Clone]),
    ];
    (
        proptest::collection::vec(step.clone(), 0..max),
        any::<bool>(),
        proptest::collection::vec(step, 0..4),
    )
        .prop_map(|(body, release, tail)| {
            let mut steps = body.concat();
            if release {
                steps.push(BuildStep::Release);
                steps.extend(tail.concat());
            }
            steps
        })
}

/// Runs `steps` against `tree`, naming added views from `names`.
fn apply_script(tree: &mut ViewTree, steps: &[BuildStep], names: &[&str]) {
    for step in steps {
        let ids = tree.iter_ids();
        let pick = |choice: usize| ids.get(choice % ids.len().max(1)).copied();
        match step {
            BuildStep::Add {
                parent_choice,
                under_container,
                kind,
                name,
            } => {
                let parents: Vec<_> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        !under_container || tree.view(id).is_ok_and(|n| n.kind.is_container())
                    })
                    .collect();
                let Some(&parent) = parents.get(parent_choice % parents.len().max(1)) else {
                    continue;
                };
                let id_name = name.map(|n| names[n % names.len()]);
                let _ = tree.add_view(parent, *kind, id_name);
            }
            BuildStep::Mutate { choice, op } => {
                if let Some(id) = pick(*choice) {
                    let _ = tree.apply(id, op.clone());
                }
            }
            BuildStep::Flags {
                choice,
                saves_state,
                freezes_text,
            } => {
                if let Some(id) = pick(*choice) {
                    tree.set_saves_state(id, *saves_state).unwrap();
                    tree.set_freezes_text(id, *freezes_text).unwrap();
                }
            }
            BuildStep::Restore(saved) => tree.restore_hierarchy_state(saved),
            BuildStep::Clone => *tree = tree.clone(),
            BuildStep::Release => tree.release(),
        }
    }
}

fn run_script(steps: &[BuildStep]) -> ViewTree {
    let mut tree = ViewTree::new();
    apply_script(&mut tree, steps, &NAMES);
    tree
}

// ---- Where a save-oracle script starts: a random layout, inflated or
// ---- grafted, whose views may hold state straight from their attributes.

/// Classes a start layout draws from: containers first, then editable
/// and progress views, which inflate holding state from a `text` or
/// `progress` attribute, then views whose attributes are content.
const LAYOUT_CLASSES: [&str; 8] = [
    "LinearLayout",
    "FrameLayout",
    "ScrollView",
    "EditText",
    "com.app.NoteEditText",
    "ProgressBar",
    "TextView",
    "ImageView",
];
/// How many of [`LAYOUT_CLASSES`] are containers.
const LAYOUT_CONTAINERS: usize = 3;
const LAYOUT_TEXTS: [&str; 3] = ["draft", "@string/title", "@string/missing"];
const LAYOUT_PROGRESS: [&str; 3] = ["0", "42", "not a number"];
/// A drawable reference [`layout_table`] resolves, one it lacks, and a
/// literal asset.
const LAYOUT_SRCS: [&str; 3] = ["@drawable/hero", "@drawable/missing", "inline.png"];
/// A video URI, and a `@string/` reference that a `videoUri` keeps as
/// written.
const LAYOUT_VIDEOS: [&str; 2] = ["clip.mp4", "@string/title"];

/// What inflated start layouts resolve against: `@string/title` and
/// `@drawable/hero`; the `missing` references stay literal.
fn layout_table() -> ResourceTable {
    let mut table = ResourceTable::new();
    table.put("title", Qualifiers::any(), ResourceValue::string("Title"));
    table.put(
        "hero",
        Qualifiers::any(),
        ResourceValue::drawable("hero.png", 4_096),
    );
    table
}

/// A script's starting tree.
#[derive(Debug, Clone)]
enum Start {
    Empty,
    /// [`inflate`] of a layout whose leaves may hold children (dropped).
    Inflate(LayoutTemplate),
    /// [`try_inflate`] of a layout that nests under containers only.
    TryInflate(LayoutTemplate),
    /// The layout grafted under the decor view as a fragment.
    Graft(LayoutTemplate),
}

/// One layout node of a class among the first `classes` of
/// [`LAYOUT_CLASSES`], maybe named from [`NAMES`], maybe carrying `text`,
/// `progress`, `src` and `videoUri` attributes: every attribute the
/// inflater resolves, inline or boxed, in any combination.
fn arb_layout_node(classes: usize) -> impl Strategy<Value = LayoutNode> {
    (
        (0..classes, 0..NAMES.len() + 1),
        (
            0..LAYOUT_TEXTS.len() + 1,
            0..LAYOUT_PROGRESS.len() + 1,
            0..LAYOUT_SRCS.len() + 1,
            0..LAYOUT_VIDEOS.len() + 1,
        ),
    )
        .prop_map(|((class, name), (text, progress, src, video))| {
            let mut node = LayoutNode::new(LAYOUT_CLASSES[class]);
            if let Some(&name) = NAMES.get(name) {
                node = node.with_id(name);
            }
            for (key, value) in [
                ("text", LAYOUT_TEXTS.get(text)),
                ("progress", LAYOUT_PROGRESS.get(progress)),
                ("src", LAYOUT_SRCS.get(src)),
                ("videoUri", LAYOUT_VIDEOS.get(video)),
            ] {
                if let Some(&value) = value {
                    node = node.with_attr(key, value);
                }
            }
            node
        })
}

/// A layout of depth at most 3 whose inner nodes are among the first
/// `parent_classes` of [`LAYOUT_CLASSES`].
fn arb_layout(parent_classes: usize) -> impl Strategy<Value = LayoutTemplate> {
    arb_layout_node(LAYOUT_CLASSES.len())
        .prop_recursive(3, 0, 4, move |inner| {
            (
                arb_layout_node(parent_classes),
                proptest::collection::vec(inner, 1..5),
            )
                .prop_map(|(node, children)| node.with_children(children))
        })
        .prop_map(|root| LayoutTemplate::new("start", root))
}

fn arb_start() -> impl Strategy<Value = Start> {
    prop_oneof![
        Just(Start::Empty),
        arb_layout(LAYOUT_CLASSES.len()).prop_map(Start::Inflate),
        arb_layout(LAYOUT_CONTAINERS).prop_map(Start::TryInflate),
        arb_layout(LAYOUT_CLASSES.len()).prop_map(Start::Graft),
    ]
}

fn start_tree(start: &Start) -> ViewTree {
    let config = Configuration::phone_portrait();
    let mut table = layout_table();
    match start {
        Start::Empty => ViewTree::new(),
        Start::Inflate(layout) => inflate(layout, &table, &config).0,
        Start::TryInflate(layout) => try_inflate(layout, &table, &config).unwrap().0,
        Start::Graft(layout) => {
            table.put(
                "start",
                Qualifiers::any(),
                ResourceValue::Layout(layout.clone()),
            );
            let mut host = Activity::new(
                ActivityInstanceId::new(0),
                ActivityRecordId::new(0),
                "prop.FragmentHost",
                config,
            );
            host.attach_fragment(&table, &FragmentSpec::new("start", "start", "decor"))
                .unwrap();
            host.tree
        }
    }
}

// ---- Reference oracles: the whole-tree save/restore and put-then-remove
// ---- user-state copies the production code replaced.

/// Every user-state field, label text included.
fn oracle_user_state(attrs: &ViewAttrs) -> Bundle {
    let mut b = Bundle::new();
    if let Some(t) = &attrs.text {
        b.put_string("text", t);
    }
    if let Some(p) = attrs.selector_position() {
        b.put_i32("selector_position", p);
    }
    if !attrs.checked_items().is_empty() {
        b.put("checked_items", attrs.checked_items().to_vec());
    }
    if attrs.scroll_y() != 0 {
        b.put_i32("scroll_y", attrs.scroll_y());
    }
    if let Some(p) = attrs.progress() {
        b.put_i32("progress", p);
    }
    if let Some(c) = attrs.checked() {
        b.put_bool("checked", c);
    }
    b
}

/// Save everything, then take label text back out.
fn oracle_copy_state(freezes_text: bool, attrs: &ViewAttrs) -> Bundle {
    let mut state = oracle_user_state(attrs);
    if !freezes_text {
        state.remove("text");
    }
    state
}

/// Pre-order walk of every view; a named, saving view with a non-empty
/// state bundle gets an entry.
fn oracle_save(tree: &ViewTree) -> Bundle {
    let mut out = Bundle::new();
    for id in tree.iter_ids() {
        let node = tree.view(id).unwrap();
        if !node.saves_state {
            continue;
        }
        if let Some(name) = node.id_name {
            let state = oracle_copy_state(node.freezes_text, &node.attrs);
            if !state.is_empty() {
                out.put_bundle(name.hierarchy_key(), state);
            }
        }
    }
    out
}

/// Pre-order walk of every view, each looking up its own entry.
fn oracle_restore(tree: &mut ViewTree, state: &Bundle) {
    for id in tree.iter_ids() {
        let Some(name) = tree.view(id).unwrap().id_name else {
            continue;
        };
        if let Some(saved) = state.bundle(name.hierarchy_key()) {
            tree.edit_attrs(id, |attrs| attrs.restore_user_state(saved))
                .unwrap();
        }
    }
}

/// `MigrationEngine::seed_user_state` as it was: a pre-order walk of the
/// shadow tree, with a put-then-remove copy into every view's peer, the
/// bearer of its name in a name table rebuilt from the sunny tree's arena.
fn oracle_seed(shadow: &ViewTree, sunny: &mut ViewTree) -> Result<(), ViewError> {
    let names = sunny.rebuild_id_name_index();
    for view in shadow.iter_ids() {
        let node = shadow.view(view)?;
        let Some(&peer) = node.id_name.and_then(|name| names.get(&name)) else {
            continue;
        };
        let state = oracle_copy_state(node.freezes_text, &node.attrs);
        sunny.edit_attrs(peer, |attrs| attrs.restore_user_state(&state))?;
    }
    Ok(())
}

/// RuntimeDroid's hot reload as it was: re-inflate for `config`, restore
/// the old tree's oracle-saved hierarchy, then copy each named view's
/// state object-to-object from its old bearer.
fn oracle_hot_reload(old: &ViewTree, model: &dyn AppModel, config: &Configuration) -> ViewTree {
    let template = model
        .resources()
        .resolve_layout(model.main_layout(), config)
        .unwrap();
    let (mut tree, _) = inflate(template, model.resources(), config);
    oracle_restore(&mut tree, &oracle_save(old));
    for id in tree.iter_ids() {
        let Some(name) = tree.view(id).unwrap().id_name else {
            continue;
        };
        if let Some(&old_id) = old.id_name_index().get(&name) {
            let old_node = old.view(old_id).unwrap();
            let state = oracle_copy_state(old_node.freezes_text, &old_node.attrs);
            tree.edit_attrs(id, |attrs| attrs.restore_user_state(&state))
                .unwrap();
        }
    }
    tree
}

/// A launched generic app whose layout holds a framework `EditText`, a
/// non-saving custom view, a label and `images` image views.
fn launched_generic_app(
    images: usize,
) -> (
    rch_workloads::GenericApp,
    Atms,
    ActivityThread,
    droidsim_app::ActivityInstanceId,
) {
    let mut spec = GenericAppSpec::sized("PropViewHotReload", "1M+", false)
        .with_issue(
            "State is lost after restart",
            StateItem::new("custom_field", StateMechanism::CustomViewNoSave, "typed"),
        )
        .with_issue(
            "State is lost after restart",
            StateItem::new("framework_field", StateMechanism::FrameworkView, "typed"),
        );
    spec.view_count = images;
    let model = spec.build();
    let mut atms = Atms::new(Configuration::phone_portrait());
    let mut thread = ActivityThread::new();
    let start = atms.start_activity(model.component_name(), model.handled_changes());
    let instance =
        thread.perform_launch_activity(&model, start.record, Configuration::phone_portrait(), None);
    thread.resume_sequence(instance, false).unwrap();
    (model, atms, thread, instance)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structure_stays_consistent(steps in arb_script(60)) {
        let tree = run_script(&steps);
        let ids = tree.iter_ids();
        // The root is always alive and first in pre-order.
        prop_assert_eq!(ids[0], tree.root());
        // Every view is reachable from the root exactly once: the view
        // count, the arena's length, agrees with the walk.
        prop_assert_eq!(ids.len(), tree.view_count());
        // Parent/child links are symmetric.
        for id in &ids {
            let node = tree.view(*id).unwrap();
            for child in &node.children {
                prop_assert_eq!(tree.view(*child).unwrap().parent, Some(*id));
            }
            if let Some(parent) = node.parent {
                prop_assert!(tree.view(parent).unwrap().children.contains(id));
            }
        }
    }

    #[test]
    fn invalidations_reference_live_views(steps in arb_script(60)) {
        // No view leaves a tree, so every invalidation resolves.
        let mut tree = run_script(&steps);
        for inv in tree.drain_invalidations() {
            prop_assert!(tree.view(inv).is_ok());
        }
    }

    #[test]
    fn save_restore_is_idempotent(steps in arb_script(60)) {
        let tree = run_script(&steps);
        let saved_once = tree.save_hierarchy_state();
        let mut copy = tree.clone();
        copy.restore_hierarchy_state(&saved_once);
        let saved_twice = copy.save_hierarchy_state();
        // Restoring a tree's own saved state then saving again yields the
        // same bundle (fixpoint).
        prop_assert_eq!(saved_once, saved_twice);
    }

    #[test]
    fn save_matches_the_whole_tree_oracle(start in arb_start(), steps in arb_save_script(200)) {
        // Long scripts, so that some trees hold a stateful name whose
        // bearers' ids run against pre-order; checked from the start
        // and after every step, so state is also checked while it is
        // gone again.
        let mut tree = start_tree(&start);
        prop_assert_eq!(tree.save_hierarchy_state(), oracle_save(&tree));
        for step in &steps {
            apply_script(&mut tree, std::slice::from_ref(step), &NAMES);
            prop_assert_eq!(tree.save_hierarchy_state(), oracle_save(&tree), "after {:?}", step);
        }
    }

    #[test]
    fn restore_matches_the_whole_tree_oracle(
        source in arb_script(80),
        target in arb_script(80),
    ) {
        // Two trees sharing the name pool: the saved entries land on
        // duplicate bearers, on names the target lacks, and on views that
        // do not save state themselves.
        let saved = oracle_save(&run_script(&source));
        let fresh = run_script(&target);
        let mut restored = fresh.clone();
        restored.restore_hierarchy_state(&saved);
        let mut expected = fresh;
        oracle_restore(&mut expected, &saved);
        prop_assert_eq!(&restored, &expected);
        // And a tree's own state, restored onto itself.
        let own = restored.save_hierarchy_state();
        let mut again = restored.clone();
        again.restore_hierarchy_state(&own);
        oracle_restore(&mut restored, &own);
        prop_assert_eq!(again, restored);
    }

    #[test]
    fn seed_user_state_matches_the_put_then_remove_oracle(
        layout in arb_script(80),
        shadow_edits in arb_script(40),
        sunny_edits in arb_script(40),
    ) {
        // Two inflations of one layout, each edited on its own.
        let shadow = run_script(&[layout.clone(), shadow_edits].concat());
        let sunny = run_script(&[layout, sunny_edits].concat());
        let mut seeded = sunny.clone();
        let seeding = MigrationEngine::new().seed_user_state(&shadow, &mut seeded);
        let mut expected = sunny;
        prop_assert_eq!(seeding, oracle_seed(&shadow, &mut expected));
        prop_assert_eq!(seeded, expected);
    }

    #[test]
    fn released_trees_reject_everything(steps in arb_script(30)) {
        let mut tree = run_script(&steps);
        let ids = tree.iter_ids();
        tree.release();
        for id in ids {
            prop_assert!(tree.view(id).is_err());
            prop_assert!(tree.apply(id, ViewOp::SetVisible(false)).is_err());
        }
        // The arena is gone, not just fenced off.
        prop_assert_eq!(tree.view_count(), 0);
        prop_assert_eq!(tree.heap_bytes(), 0);
        for name in NAMES.iter().chain(&["decor"]) {
            prop_assert_eq!(tree.find_by_id_name(name), None);
        }
    }

    #[test]
    fn heap_accounting_never_underflows(steps in arb_script(60)) {
        let tree = run_script(&steps);
        // decor view alone is > 0.
        prop_assert!(tree.heap_bytes() >= 512);
    }
}

// ---- Copy-on-write: trees cloned from a kept, shared inflation write
// ---- their own chunks and never each other's.

/// One step of a sharing script, on one of the trees cloned from a kept
/// inflation.
#[derive(Debug, Clone)]
enum ShareStep {
    /// A [`BuildStep`]: an add, an `apply`, the save flags, a restore or
    /// a release (not a clone: [`ShareStep::Fork`] is that).
    Build(BuildStep),
    /// `edit_attrs`: a scroll written with no invalidation.
    Edit { choice: usize, scroll_y: i32 },
    /// Continues on a clone of tree `other`, sharing whatever chunks it
    /// copied so far.
    Fork { other: usize },
    /// Shares the tree (a no-op on a tree shared before).
    Share,
}

/// [`arb_step`]'s steps (listed three times, so trees change and carry
/// state), restores, releases, and the copy-on-write steps.
fn arb_share_step() -> impl Strategy<Value = ShareStep> {
    prop_oneof![
        arb_step().prop_map(ShareStep::Build),
        arb_step().prop_map(ShareStep::Build),
        arb_step().prop_map(ShareStep::Build),
        arb_script(20).prop_map(|other| ShareStep::Build(BuildStep::Restore(oracle_save(
            &run_script(&other)
        )))),
        Just(ShareStep::Build(BuildStep::Release)),
        (any::<usize>(), -500i32..500)
            .prop_map(|(choice, scroll_y)| ShareStep::Edit { choice, scroll_y }),
        any::<usize>().prop_map(|other| ShareStep::Fork { other }),
        Just(ShareStep::Share),
    ]
}

/// A layout of 10–60 random subtrees under one container: wide enough
/// that an inflation spans several chunks.
fn arb_wide_layout() -> impl Strategy<Value = LayoutTemplate> {
    let subtree = arb_layout(LAYOUT_CLASSES.len()).prop_map(|t| t.root().clone());
    proptest::collection::vec(subtree, 10..60).prop_map(|children| {
        LayoutTemplate::new(
            "wide",
            LayoutNode::new("LinearLayout")
                .with_id("v0")
                .with_children(children),
        )
    })
}

/// Runs `step` on `trees[at]`; `trees` are all the trees the step may
/// read from. Trees that must never share (the oracles) skip
/// [`ShareStep::Share`].
fn apply_share_step(trees: &mut [ViewTree], at: usize, step: &ShareStep, shares: bool) {
    let n = trees.len();
    match step {
        ShareStep::Build(step) => apply_script(&mut trees[at], std::slice::from_ref(step), &NAMES),
        ShareStep::Edit { choice, scroll_y } => {
            let tree = &mut trees[at];
            let ids = tree.iter_ids();
            if let Some(&id) = ids.get(choice % ids.len().max(1)) {
                tree.edit_attrs(id, |attrs| attrs.set_scroll_y(*scroll_y))
                    .unwrap();
            }
        }
        ShareStep::Fork { other } => trees[at] = trees[other % n].clone(),
        ShareStep::Share if shares => trees[at].share(),
        ShareStep::Share => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_write_never_reaches_a_tree_sharing_its_chunk(
        layout in arb_wide_layout(),
        clones in 2usize..4,
        script in proptest::collection::vec((any::<usize>(), arb_share_step()), 0..80),
    ) {
        // The process's cache: the first inflation shared and kept, its
        // creation (the source) and later ones cloned from the kept tree.
        // The oracles are never-shared inflations that get the same
        // steps.
        let config = Configuration::phone_portrait();
        let mut table = ResourceTable::new();
        table.put("title", Qualifiers::any(), ResourceValue::string("Title"));
        let cold = inflate(&layout, &table, &config).0;
        let mut source = cold.clone();
        source.share();
        let kept = source.clone();
        let mut trees = vec![source];
        trees.extend((0..clones).map(|_| kept.clone()));
        let mut oracles = vec![cold.clone(); trees.len()];
        for (which, step) in &script {
            let at = which % trees.len();
            apply_share_step(&mut trees, at, step, true);
            apply_share_step(&mut oracles, at, step, false);
            for (tree, oracle) in trees.iter().zip(&oracles) {
                prop_assert_eq!(tree, oracle, "after {:?} on tree {}", step, at);
                prop_assert_eq!(tree.save_hierarchy_state(), oracle.save_hierarchy_state());
            }
            prop_assert_eq!(&kept, &cold, "a write reached the kept tree");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runtimedroid_hot_reload_matches_the_put_then_remove_oracle(
        images in 1usize..6,
        steps in arb_script(40),
    ) {
        let (model, mut atms, mut thread, instance) = launched_generic_app(images);
        let tree = &mut thread.instance_mut(instance).unwrap().tree;
        // Label text (content) and typed text (user state) to start
        // with, then random edits and code-created views whose names
        // collide with the layout's.
        for (name, text) in [("async_target", "old label"), ("framework_field", "typed")] {
            let view = tree.find_by_id_name(name).unwrap();
            tree.apply(view, ViewOp::SetText(text.into())).unwrap();
        }
        let names = ["root", "async_target", "custom_field", "framework_field", "content_0", "extra"];
        apply_script(tree, &steps, &names);
        let old = tree.clone();

        let landscape = Configuration::phone_landscape();
        atms.update_global_config(landscape);
        RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &atms, &model)
            .unwrap();
        let expected = oracle_hot_reload(&old, &model, &landscape);
        prop_assert_eq!(&thread.instance(instance).unwrap().tree, &expected);
    }
}

// ---- What strict inflation and RCH001's grouping computed by building
// ---- and walking trees, now read off the template and the name index.

/// Inflation as it was, add by add: each node's view added with
/// [`ViewTree::add_view`] in pre-order, which re-checks its parent, and
/// given every attribute the start layouts carry, resolved against
/// `table` the way the inflater does. Strict, it stops at the first add
/// that fails; lenient, it skips a view whose add fails, with its
/// subtree, as the inflater drops the children of a leaf.
fn oracle_walk_inflate(
    layout: &LayoutTemplate,
    table: &ResourceTable,
    config: &Configuration,
    strict: bool,
) -> Result<ViewTree, ViewError> {
    fn add(
        node: &LayoutNode,
        parent: ViewId,
        tree: &mut ViewTree,
        env: (&ResourceTable, &Configuration, bool),
    ) -> Result<(), ViewError> {
        let (table, config, strict) = env;
        let kind = ViewKind::from_class_name(node.class.as_str());
        let id = match tree.add_view(parent, kind, node.id_name.map(Symbol::as_str)) {
            Ok(id) => id,
            Err(ViewError::NotAContainer { .. }) if !strict => return Ok(()),
            Err(e) => return Err(e),
        };
        tree.edit_attrs(id, |attrs| {
            for (key, value) in node.attrs() {
                let text = value.as_str();
                match key.as_str() {
                    "text" => {
                        let resolved = text
                            .strip_prefix("@string/")
                            .and_then(|name| table.resolve_string(name, config));
                        attrs.text = Some(resolved.unwrap_or(text).to_owned());
                    }
                    "progress" => attrs.set_progress(text.parse().ok().or(attrs.progress())),
                    "src" => {
                        let resolved = text
                            .strip_prefix("@drawable/")
                            .and_then(|name| table.resolve_drawable(name, config).ok());
                        attrs.drawable = Some(resolved.unwrap_or((*value, 0)));
                    }
                    "videoUri" => attrs.set_video_uri(Some(text.to_owned())),
                    _ => {}
                }
            }
        })?;
        for child in &node.children {
            add(child, id, tree, env)?;
        }
        Ok(())
    }
    let mut tree = ViewTree::new();
    let root = tree.root();
    add(layout.root(), root, &mut tree, (table, config, strict))?;
    Ok(tree)
}

/// RCH001's grouping as it was: every named view in pre-order, grouped
/// by the name's text, keeping the names two or more views bear.
fn oracle_repeated_names(tree: &ViewTree) -> BTreeMap<String, Vec<ViewId>> {
    let mut by_name: BTreeMap<String, Vec<ViewId>> = BTreeMap::new();
    for id in tree.iter_ids() {
        if let Some(name) = tree.view(id).unwrap().id_name_str() {
            by_name.entry(name.to_owned()).or_default().push(id);
        }
    }
    by_name.retain(|_, ids| ids.len() >= 2);
    by_name
}

/// [`ViewTree::repeated_names`] keyed by text, failing if a name is
/// listed twice.
fn repeated_names_by_text(tree: &ViewTree) -> Result<BTreeMap<String, Vec<ViewId>>, TestCaseError> {
    let listed = tree.repeated_names();
    let by_text: BTreeMap<String, Vec<ViewId>> = listed
        .iter()
        .map(|(name, ids)| (name.as_str().to_owned(), ids.clone()))
        .collect();
    prop_assert_eq!(by_text.len(), listed.len(), "a name listed twice");
    Ok(by_text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strict_nesting_matches_a_stop_at_the_first_failure_walk(
        layout in arb_layout(LAYOUT_CLASSES.len()),
    ) {
        // Leaves may hold children, so most layouts are malformed, and
        // the error must name the parent a strict walk stops at.
        let config = Configuration::phone_portrait();
        let table = layout_table();
        let reference = oracle_walk_inflate(&layout, &table, &config, true);
        prop_assert_eq!(check_nesting(&layout), reference.as_ref().map(|_| ()).map_err(Clone::clone));
        match (try_inflate(&layout, &table, &config), reference) {
            (Ok((strict, _)), Ok(reference)) => {
                prop_assert_eq!(&strict, &inflate(&layout, &table, &config).0);
                prop_assert_eq!(&strict, &reference);
            }
            (strict, reference) => prop_assert_eq!(strict.map(|_| ()), reference.map(|_| ())),
        }
    }

    #[test]
    fn lenient_inflation_matches_a_skip_what_fails_walk(
        layout in arb_layout(LAYOUT_CLASSES.len()),
    ) {
        // The inflater pushes each view without re-checking its parent;
        // on malformed layouts that must build what checked adds build.
        let config = Configuration::phone_portrait();
        let table = layout_table();
        let reference = oracle_walk_inflate(&layout, &table, &config, false)
            .map_err(|e| TestCaseError::fail(format!("a lenient walk failed: {e}")))?;
        let (tree, stats, bytes) = inflate_weighed(&layout, &table, &config);
        prop_assert_eq!(&tree, &reference);
        prop_assert_eq!(stats.views_created + 1, reference.view_count());
        prop_assert_eq!(tree.save_hierarchy_state(), reference.save_hierarchy_state());
        prop_assert_eq!(bytes, tree.resident_bytes());
    }

    #[test]
    fn a_fragment_attached_to_an_empty_host_is_its_inflation(
        layout in arb_layout(LAYOUT_CLASSES.len()),
    ) {
        // A fragment's layout joins the live tree under its container as
        // an inflation fills a fresh tree under the decor view, so on a
        // host that holds only its decor view the two build one tree.
        let attached = start_tree(&Start::Graft(layout.clone()));
        let inflated = inflate(&layout, &layout_table(), &Configuration::phone_portrait()).0;
        prop_assert_eq!(&attached, &inflated);
        prop_assert_eq!(attached.id_name_index(), inflated.id_name_index());
        prop_assert_eq!(repeated_names_by_text(&attached)?, repeated_names_by_text(&inflated)?);
        prop_assert_eq!(attached.save_hierarchy_state(), inflated.save_hierarchy_state());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repeated_names_match_the_pre_order_grouping(
        start in arb_start(),
        steps in arb_save_script(200),
    ) {
        // Adds under any live view put later ids ahead of earlier ones in
        // pre-order, so the bearers' order is the pre-order walk's, not
        // the ids'.
        let mut tree = start_tree(&start);
        prop_assert_eq!(repeated_names_by_text(&tree)?, oracle_repeated_names(&tree));
        for step in &steps {
            apply_script(&mut tree, std::slice::from_ref(step), &NAMES);
            prop_assert_eq!(
                repeated_names_by_text(&tree)?,
                oracle_repeated_names(&tree),
                "after {:?}",
                step
            );
        }
    }
}

// ---- Layout attribute lists: a sorted vector of interned pairs that must
// ---- behave exactly like a map keyed by the attribute's text.

/// Attribute keys and values the writes draw from: small pools, so keys
/// repeat (last write wins) and the inflater's keys (`text`, `src`,
/// `progress`, `videoUri`) meet resolvable and unresolvable values.
const ATTR_KEYS: [&str; 6] = [
    "text",
    "src",
    "progress",
    "videoUri",
    "gravity",
    "layout_width",
];
const ATTR_VALUES: [&str; 6] = [
    "@string/title",
    "@drawable/hero",
    "@string/missing",
    "42",
    "literal",
    "clip.mp4",
];

/// A sequence of `(key, value)` writes, as pool indices.
fn arb_attr_writes() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..ATTR_KEYS.len(), 0..ATTR_VALUES.len()), 0..16)
}

fn attr_node(writes: &[(usize, usize)]) -> LayoutNode {
    writes.iter().fold(
        LayoutNode::new("TextView").with_id("field"),
        |n, &(k, v)| n.with_attr(ATTR_KEYS[k], ATTR_VALUES[v]),
    )
}

fn attr_oracle(writes: &[(usize, usize)]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for &(k, v) in writes {
        map.insert(ATTR_KEYS[k].to_owned(), ATTR_VALUES[v].to_owned());
    }
    map
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn attr_template(node: LayoutNode) -> LayoutTemplate {
    LayoutTemplate::new(
        "attrs",
        LayoutNode::new("LinearLayout")
            .with_id("root")
            .with_child(node),
    )
}

fn attr_table(template: &LayoutTemplate) -> ResourceTable {
    let mut table = ResourceTable::new();
    table.put(
        "attrs",
        Qualifiers::any(),
        ResourceValue::Layout(template.clone()),
    );
    table.put("title", Qualifiers::any(), ResourceValue::string("Title"));
    table.put(
        "hero",
        Qualifiers::any(),
        ResourceValue::drawable("hero.png", 2_048),
    );
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn layout_attrs_match_a_map_in_any_insertion_order(
        writes in arb_attr_writes(),
        noise in arb_attr_writes(),
        ranks in proptest::collection::vec(any::<u64>(), ATTR_KEYS.len()..ATTR_KEYS.len() + 1),
        change in (any::<usize>(), 1..ATTR_VALUES.len()),
    ) {
        // (a) Same key order and last-write-wins as the map oracle.
        let oracle = attr_oracle(&writes);
        let node = attr_node(&writes);
        let pairs: Vec<(&str, &str)> =
            node.attrs().iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let expected: Vec<(&str, &str)> =
            oracle.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(pairs, expected);

        // (b) Another order ending in the same map: writes to the final
        // keys that are overwritten later, then the final entries in a
        // shuffled order.
        let index = |pool: &[&str], text: &str| pool.iter().position(|p| *p == text).unwrap();
        let mut last: Vec<(usize, usize)> = oracle
            .iter()
            .map(|(k, v)| (index(&ATTR_KEYS, k), index(&ATTR_VALUES, v)))
            .collect();
        last.sort_by_key(|&(k, _)| ranks[k]);
        let reordered: Vec<(usize, usize)> = noise
            .iter()
            .copied()
            .filter(|&(k, _)| oracle.contains_key(ATTR_KEYS[k]))
            .chain(last)
            .collect();
        prop_assert_eq!(&attr_oracle(&reordered), &oracle);
        let other = attr_node(&reordered);
        prop_assert_eq!(&other, &node);
        // Equal maps hash equal: a lone attribute is stored inline and
        // two or more as a sorted list, whatever order wrote them.
        prop_assert_eq!(hash_of(&other), hash_of(&node));

        let (a, b) = (attr_template(node.clone()), attr_template(other));
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        let (table_a, table_b) = (attr_table(&a), attr_table(&b));
        prop_assert_eq!(&table_a, &table_b);
        for config in [Configuration::phone_portrait(), Configuration::phone_landscape()] {
            prop_assert_eq!(inflate(&a, &table_a, &config), inflate(&b, &table_b, &config));
            let strict_a = try_inflate(&a, &table_a, &config).unwrap();
            let strict_b = try_inflate(&b, &table_b, &config).unwrap();
            prop_assert_eq!(strict_a, strict_b);
        }

        // (c) Changing one value makes an unequal template (on an empty
        // list, setting the first value does).
        let (key, value) = match oracle.iter().nth(change.0 % oracle.len().max(1)) {
            Some((k, v)) => (
                k.as_str(),
                ATTR_VALUES[(index(&ATTR_VALUES, v) + change.1) % ATTR_VALUES.len()],
            ),
            None => (ATTR_KEYS[change.0 % ATTR_KEYS.len()], ATTR_VALUES[change.1]),
        };
        let changed = attr_template(node.with_attr(key, value));
        prop_assert_ne!(&changed, &a);
    }
}

// ---- What a long-running process may intern: resource names from code,
// ---- never user content.

/// A string no code path has produced before, so it can only be in the
/// interner if user content was interned.
fn fresh_user_string(what: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        "user-{what}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// A tree holding an editor, a label and a video view, with user content
/// in each.
fn tree_with_user_content() -> (ViewTree, Vec<String>) {
    let mut tree = ViewTree::new();
    let root = tree
        .add_view(tree.root(), ViewKind::LinearLayout, Some("root"))
        .unwrap();
    let mut written = Vec::new();
    for (kind, name) in [
        (ViewKind::EditText, "editor"),
        (ViewKind::TextView, "label"),
        (ViewKind::VideoView, "player"),
    ] {
        let view = tree.add_view(root, kind, Some(name)).unwrap();
        let op = if kind == ViewKind::VideoView {
            let uri = fresh_user_string("uri");
            written.push(uri.clone());
            ViewOp::SetVideoUri(uri)
        } else {
            let text = fresh_user_string("text");
            written.push(text.clone());
            ViewOp::SetText(text)
        };
        tree.apply(view, op).unwrap();
    }
    (tree, written)
}

#[test]
fn user_content_never_enters_the_interner() {
    let mut written = Vec::new();

    // Hierarchy save/restore onto a fresh inflation of the same names.
    let (tree, strings) = tree_with_user_content();
    written.extend(strings);
    let saved = tree.save_hierarchy_state();
    let (mut restored, strings) = tree_with_user_content();
    written.extend(strings);
    restored.restore_hierarchy_state(&saved);
    assert_eq!(restored.save_hierarchy_state(), saved);

    // A lazy-migration flush from the shadow tree to its sunny peer.
    let (mut shadow, strings) = tree_with_user_content();
    written.extend(strings);
    let (mut sunny, strings) = tree_with_user_content();
    written.extend(strings);
    let mut engine = MigrationEngine::new();
    shadow.drain_invalidations(); // the set-up writes are not part of the flush
    let (text, uri) = (fresh_user_string("text"), fresh_user_string("uri"));
    for (name, op) in [
        ("editor", ViewOp::SetText(text.clone())),
        ("player", ViewOp::SetVideoUri(uri.clone())),
    ] {
        let view = shadow.find_by_id_name(name).unwrap();
        shadow.apply(view, op).unwrap();
    }
    written.extend([text, uri]);
    let report = engine
        .migrate_invalidations(&mut shadow, &mut sunny)
        .unwrap();
    assert_eq!(report.migrated, 2);

    // RuntimeDroid's hot reload of a launched app.
    let (model, mut atms, mut thread, instance) = launched_generic_app(2);
    let tree = &mut thread.instance_mut(instance).unwrap().tree;
    for name in ["framework_field", "custom_field", "async_target"] {
        let text = fresh_user_string("text");
        let view = tree.find_by_id_name(name).unwrap();
        tree.apply(view, ViewOp::SetText(text.clone())).unwrap();
        written.push(text);
    }
    atms.update_global_config(Configuration::phone_landscape());
    RuntimeDroid::new()
        .handle_configuration_change(&mut thread, &atms, &model)
        .unwrap();

    assert_eq!(written.len(), 17);
    for s in &written {
        assert_eq!(Symbol::lookup(s), None, "user content `{s}` was interned");
    }
}
