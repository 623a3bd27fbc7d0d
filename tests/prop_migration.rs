//! Property tests on RCHDroid's essence-based mapping and lazy migration.

use droidsim_view::{ViewId, ViewKind, ViewNode, ViewOp, ViewTree};
use proptest::prelude::*;
use rchdroid::MigrationEngine;

/// Migratable view kinds; `op_for(i, _)` picks an op `KINDS[i % 6]` takes.
const KINDS: [ViewKind; 6] = [
    ViewKind::EditText,
    ViewKind::ImageView,
    ViewKind::ListView,
    ViewKind::VideoView,
    ViewKind::ProgressBar,
    ViewKind::TextView,
];

/// Builds two trees with the same id names (as two inflations of one
/// layout would) containing `n` views of assorted migratable kinds.
fn coupled_trees(n: usize) -> (ViewTree, ViewTree, MigrationEngine) {
    let build = |container: ViewKind| {
        let mut t = ViewTree::new();
        let root = t.add_view(t.root(), container, Some("root")).unwrap();
        for i in 0..n {
            let kind = KINDS[i % KINDS.len()];
            t.add_view(root, kind, Some(&format!("v{i}"))).unwrap();
        }
        t
    };
    let shadow = build(ViewKind::LinearLayout);
    let sunny = build(ViewKind::GridLayout);
    (shadow, sunny, MigrationEngine::new())
}

/// An op applicable to the view kind at index `i`.
fn op_for(i: usize, payload: i32) -> ViewOp {
    match i % 6 {
        0 => ViewOp::SetText(format!("text-{payload}")),
        1 => ViewOp::SetDrawable(
            format!("img-{payload}.png").as_str().into(),
            payload.unsigned_abs() as u64,
        ),
        2 => ViewOp::SetSelection(payload),
        3 => ViewOp::SetVideoUri(format!("clip-{payload}.mp4")),
        4 => ViewOp::SetProgress(payload.rem_euclid(100)),
        _ => ViewOp::SetText(format!("label-{payload}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lazy_migration_reflects_every_invalidated_essence(
        n in 1usize..24,
        updates in proptest::collection::vec((any::<usize>(), any::<i32>()), 0..40),
    ) {
        let (mut shadow, mut sunny, mut engine) = coupled_trees(n);
        for (which, payload) in &updates {
            let i = which % n;
            let view = shadow.find_by_id_name(&format!("v{i}")).unwrap();
            shadow.apply(view, op_for(i, *payload)).unwrap();
        }
        engine.migrate_invalidations(&mut shadow, &mut sunny).unwrap();

        // Every updated view's migratable essence matches on the peer.
        for i in 0..n {
            let s = shadow.view(shadow.find_by_id_name(&format!("v{i}")).unwrap()).unwrap();
            let u = sunny.view(sunny.find_by_id_name(&format!("v{i}")).unwrap()).unwrap();
            match i % 6 {
                0 | 5 => {
                    let (st, ut) = (s.attrs.text.clone(), u.attrs.text.clone());
                    prop_assert_eq!(st, ut);
                }
                1 => prop_assert_eq!(&s.attrs.drawable, &u.attrs.drawable),
                2 => prop_assert_eq!(s.attrs.selector_position(), u.attrs.selector_position()),
                3 => prop_assert_eq!(s.attrs.video_uri(), u.attrs.video_uri()),
                4 => prop_assert_eq!(s.attrs.progress(), u.attrs.progress()),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn migration_is_idempotent(
        n in 1usize..16,
        updates in proptest::collection::vec((any::<usize>(), any::<i32>()), 1..20),
    ) {
        let (mut shadow, mut sunny, mut engine) = coupled_trees(n);
        for (which, payload) in &updates {
            let i = which % n;
            let view = shadow.find_by_id_name(&format!("v{i}")).unwrap();
            shadow.apply(view, op_for(i, *payload)).unwrap();
        }
        engine.migrate_invalidations(&mut shadow, &mut sunny).unwrap();
        let snapshot = sunny.clone();
        // A second pass with no new invalidations changes nothing.
        let report = engine.migrate_invalidations(&mut shadow, &mut sunny).unwrap();
        prop_assert_eq!(report.examined, 0);
        prop_assert_eq!(format!("{:?}", sunny), format!("{:?}", snapshot));
    }

    #[test]
    fn mapping_is_a_bijection_on_shared_id_names(n in 0usize..32) {
        let (shadow, sunny, _) = coupled_trees(n);
        // root + decor + n views all have ids.
        let (ids, peers) = (shadow.iter_ids(), sunny.iter_ids());
        prop_assert_eq!((ids.len(), peers.len()), (n + 2, n + 2));
        for id in ids {
            let peer = shadow.peer_in(id, &sunny).expect("all views have ids here");
            sunny.view(peer).unwrap();
            let back = sunny.peer_in(peer, &shadow).expect("reverse mapped");
            prop_assert_eq!(back, id);
        }
    }

    #[test]
    fn seed_copies_user_state_but_never_content(
        n in 1usize..16,
        scroll in -2_000i32..2_000,
        text in "[a-z]{1,12}",
    ) {
        let (mut shadow, mut sunny, mut engine) = coupled_trees(n);
        // User state: scroll on root + typed text in the EditText (v0).
        let root = shadow.find_by_id_name("root").unwrap();
        shadow.apply(root, ViewOp::ScrollTo(scroll)).unwrap();
        let edit = shadow.find_by_id_name("v0").unwrap();
        shadow.apply(edit, ViewOp::SetText(text.clone())).unwrap();
        // Content: a label (TextView at v5, if present) and a drawable.
        if n > 5 {
            let label = shadow.find_by_id_name("v5").unwrap();
            shadow.apply(label, ViewOp::SetText("old-config label".into())).unwrap();
        }
        if n > 1 {
            let img = shadow.find_by_id_name("v1").unwrap();
            shadow.apply(img, ViewOp::SetDrawable("old.png".into(), 10)).unwrap();
        }

        engine.seed_user_state(&shadow, &mut sunny).unwrap();

        let s_root = sunny.find_by_id_name("root").unwrap();
        prop_assert_eq!(sunny.view(s_root).unwrap().attrs.scroll_y(), scroll);
        let s_edit = sunny.find_by_id_name("v0").unwrap();
        prop_assert_eq!(sunny.view(s_edit).unwrap().attrs.text.as_deref(), Some(text.as_str()));
        if n > 5 {
            let s_label = sunny.find_by_id_name("v5").unwrap();
            prop_assert_ne!(
                sunny.view(s_label).unwrap().attrs.text.as_deref(),
                Some("old-config label"),
                "label content must not be seeded"
            );
        }
        if n > 1 {
            let s_img = sunny.find_by_id_name("v1").unwrap();
            prop_assert!(
                sunny.view(s_img).unwrap().attrs.drawable.is_none(),
                "drawable content must not be seeded"
            );
        }
    }
}

/// A tree under one container whose views take their id names from a
/// pool of six, `n0`..`n5`, so a name can have several bearers or none;
/// 6 leaves a view anonymous. A name's kind is fixed, as two layouts of
/// one screen agree on it, so `op_for` finds an op every peer accepts.
/// Returns the tree and its pooled views' ids.
fn pooled_tree(names: &[usize]) -> (ViewTree, Vec<ViewId>) {
    let mut t = ViewTree::new();
    let root = t
        .add_view(t.root(), ViewKind::LinearLayout, Some("root"))
        .unwrap();
    let ids = names
        .iter()
        .map(|&name| {
            let id_name = (name < 6).then(|| format!("n{name}"));
            t.add_view(root, KINDS[name % 6], id_name.as_deref())
                .unwrap()
        })
        .collect();
    (t, ids)
}

/// One step of a coupling's lifetime: an app update to a view of the
/// current shadow tree, an async delivery migrating what the shadow
/// tree recorded, or a runtime change that coin-flips the roles.
#[derive(Debug, Clone)]
enum Step {
    Update { which: usize, payload: i32 },
    Deliver,
    Flip,
}

/// The reference's Table-1 copy of `node` onto `peer`, for the kinds
/// [`pooled_tree`] builds: the one field [`op_for`] writes for the kind,
/// then enablement and visibility, each through `apply` so that the peer
/// records an invalidation as it does under the engine's copy.
fn reference_copy(node: &ViewNode, sunny: &mut ViewTree, peer: ViewId) {
    let a = &node.attrs;
    let essence = match node.kind {
        ViewKind::EditText | ViewKind::TextView => a.text.clone().map(ViewOp::SetText),
        ViewKind::ImageView => a
            .drawable
            .map(|(name, bytes)| ViewOp::SetDrawable(name, bytes)),
        ViewKind::ListView => a.selector_position().map(ViewOp::SetSelection),
        ViewKind::VideoView => a.video_uri().map(|uri| ViewOp::SetVideoUri(uri.to_owned())),
        ViewKind::ProgressBar => a.progress().map(ViewOp::SetProgress),
        _ => None,
    };
    let ops = essence
        .into_iter()
        .chain([ViewOp::SetEnabled(a.enabled), ViewOp::SetVisible(a.visible)]);
    for op in ops {
        sunny.apply(peer, op).unwrap();
    }
}

/// A coupled pair whose roles swap on a flip, plus the engine driving it.
struct System {
    trees: [ViewTree; 2],
    ids: [Vec<ViewId>; 2],
    names: [Vec<usize>; 2],
    shadow: usize,
    /// Drives the system under test; the reference has none.
    engine: Option<MigrationEngine>,
}

impl System {
    /// The system under test with an engine, the reference without one.
    fn new(names: &[Vec<usize>; 2], engine: Option<MigrationEngine>) -> System {
        let (side0, ids0) = pooled_tree(&names[0]);
        let (side1, ids1) = pooled_tree(&names[1]);
        System {
            trees: [side0, side1],
            ids: [ids0, ids1],
            names: names.clone(),
            shadow: 0,
            engine,
        }
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Update { which, payload } => {
                let side = self.shadow;
                let i = which % self.ids[side].len();
                let op = op_for(self.names[side][i] % 6, payload);
                self.trees[side].apply(self.ids[side][i], op).unwrap();
            }
            Step::Deliver => {
                let [a, b] = &mut self.trees;
                let (shadow, sunny) = if self.shadow == 0 { (a, b) } else { (b, a) };
                match &mut self.engine {
                    Some(engine) => {
                        engine.migrate_invalidations(shadow, sunny).unwrap();
                    }
                    None => {
                        // A name table rebuilt from the sunny tree's arena
                        // for the current roles.
                        let names = sunny.rebuild_id_name_index();
                        for view in shadow.drain_invalidations() {
                            let node = shadow.view(view).unwrap();
                            if let Some(&peer) = node.id_name.and_then(|n| names.get(&n)) {
                                reference_copy(node, sunny, peer);
                            }
                        }
                    }
                }
            }
            Step::Flip => self.shadow = 1 - self.shadow,
        }
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<i32>()).prop_map(|(which, payload)| Step::Update { which, payload }),
        Just(Step::Deliver),
        Just(Step::Flip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Coin flips rebuild no mapping (§3.4): for ANY interleaving of
    /// updates, deliveries and flips, on trees where names repeat or are
    /// missing on either side, the engine's looked-up peers leave every
    /// view of both trees exactly as a reference that rebuilds a name
    /// table for the current roles before each delivery.
    #[test]
    fn a_flip_migrates_like_a_fresh_mapping(
        side0 in proptest::collection::vec(0usize..7, 1..12),
        side1 in proptest::collection::vec(0usize..7, 1..12),
        script in proptest::collection::vec(step_strategy(), 0..48),
    ) {
        let names = [side0, side1];
        let mut real = System::new(&names, Some(MigrationEngine::new()));
        let mut reference = System::new(&names, None);
        for (k, step) in script.iter().enumerate() {
            real.step(step);
            reference.step(step);
            for side in 0..2 {
                for id in reference.trees[side].iter_ids() {
                    let want = reference.trees[side].view(id).unwrap();
                    let got = real.trees[side].view(id).unwrap();
                    prop_assert_eq!(
                        &want.attrs,
                        &got.attrs,
                        "step {} ({:?}): side {} view {} diverged", k, step, side, id
                    );
                }
            }
        }
    }
}
