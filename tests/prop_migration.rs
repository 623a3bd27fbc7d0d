//! Property tests on RCHDroid's essence-based mapping and lazy migration.

use droidsim_kernel::{SimDuration, SimTime};
use droidsim_view::{ViewKind, ViewOp, ViewTree};
use proptest::prelude::*;
use rchdroid::{FlushPolicy, MigrationEngine};

/// Builds two trees with the same id names (as two inflations of one
/// layout would) containing `n` views of assorted migratable kinds.
fn coupled_trees(n: usize) -> (ViewTree, ViewTree, MigrationEngine) {
    let kinds = [
        ViewKind::EditText,
        ViewKind::ImageView,
        ViewKind::ListView,
        ViewKind::VideoView,
        ViewKind::ProgressBar,
        ViewKind::TextView,
    ];
    let build = |container: ViewKind| {
        let mut t = ViewTree::new();
        let root = t.add_view(t.root(), container, Some("root")).unwrap();
        for i in 0..n {
            let kind = kinds[i % kinds.len()].clone();
            t.add_view(root, kind, Some(&format!("v{i}"))).unwrap();
        }
        t
    };
    let mut shadow = build(ViewKind::LinearLayout);
    let mut sunny = build(ViewKind::GridLayout);
    let mut engine = MigrationEngine::new();
    engine.build_mapping(&mut shadow, &mut sunny);
    (shadow, sunny, engine)
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
        engine.migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO).unwrap();

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
                2 => prop_assert_eq!(s.attrs.selector_position, u.attrs.selector_position),
                3 => prop_assert_eq!(&s.attrs.video_uri, &u.attrs.video_uri),
                4 => prop_assert_eq!(s.attrs.progress, u.attrs.progress),
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
        engine.migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO).unwrap();
        let snapshot = sunny.clone();
        // A second pass with no new invalidations changes nothing.
        let report = engine.migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO).unwrap();
        prop_assert_eq!(report.examined, 0);
        prop_assert_eq!(format!("{:?}", sunny), format!("{:?}", snapshot));
    }

    #[test]
    fn mapping_is_a_bijection_on_shared_id_names(n in 0usize..32) {
        let (shadow, sunny, engine) = coupled_trees(n);
        // root + decor + n views all have ids.
        prop_assert_eq!(engine.mapped_views(), n + 2);
        for id in shadow.iter_ids() {
            let node = shadow.view(id).unwrap();
            let peer = node.sunny_peer.expect("all views have ids here");
            let back = sunny.view(peer).unwrap().sunny_peer.expect("reverse mapped");
            prop_assert_eq!(back, id);
        }
    }

    #[test]
    fn seed_copies_user_state_but_never_content(
        n in 1usize..16,
        scroll in -2_000i32..2_000,
        text in "[a-z]{1,12}",
    ) {
        let (mut shadow, mut sunny, engine) = coupled_trees(n);
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
        prop_assert_eq!(sunny.view(s_root).unwrap().attrs.scroll_y, scroll);
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

/// One step of a shadow-instance lifetime: an app update to some view, an
/// async delivery draining invalidations into the engine, or a runtime
/// configuration change (which swaps the shadow/sunny roles — and, like
/// the handler, flushes any batched queue *before* the swap).
#[derive(Debug, Clone)]
enum Step {
    Update { which: usize, payload: i32 },
    Deliver,
    ConfigChange,
}

/// A coupled pair plus the engine driving it, with roles that can swap.
struct System {
    trees: [ViewTree; 2],
    shadow: usize,
    engine: MigrationEngine,
    clock: SimTime,
}

impl System {
    fn new(n: usize, policy: FlushPolicy) -> System {
        let (shadow, sunny, mut engine) = coupled_trees(n);
        engine.set_flush_policy(policy);
        System {
            trees: [shadow, sunny],
            shadow: 0,
            engine,
            clock: SimTime::ZERO,
        }
    }

    fn run(&mut self, n: usize, script: &[Step]) {
        for step in script {
            self.clock += SimDuration::from_millis(1);
            match step {
                Step::Update { which, payload } => {
                    let i = which % n;
                    let t = &mut self.trees[self.shadow];
                    let view = t.find_by_id_name(&format!("v{i}")).unwrap();
                    t.apply(view, op_for(i, *payload)).unwrap();
                }
                Step::Deliver => {
                    let [a, b] = &mut self.trees;
                    let (shadow, sunny) = if self.shadow == 0 { (a, b) } else { (b, a) };
                    self.engine
                        .migrate_invalidations(shadow, sunny, self.clock)
                        .unwrap();
                }
                Step::ConfigChange => {
                    let [a, b] = &mut self.trees;
                    let (shadow, sunny) = if self.shadow == 0 { (a, b) } else { (b, a) };
                    // The handler delivers outstanding callbacks and flushes
                    // the engine queue before any role change, so no applied
                    // update is ever stranded across a swap.
                    self.engine
                        .migrate_invalidations(shadow, sunny, self.clock)
                        .unwrap();
                    self.engine.flush(shadow, sunny).unwrap();
                    self.shadow = 1 - self.shadow;
                }
            }
        }
        // End of scenario: drain whatever is still queued.
        let [a, b] = &mut self.trees;
        let (shadow, sunny) = if self.shadow == 0 { (a, b) } else { (b, a) };
        let raw = shadow.pending_invalidation_count();
        if raw > 0 {
            self.engine
                .migrate_invalidations(shadow, sunny, self.clock)
                .unwrap();
        }
        self.engine.flush(shadow, sunny).unwrap();
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<i32>()).prop_map(|(which, payload)| Step::Update { which, payload }),
        Just(Step::Deliver),
        Just(Step::ConfigChange),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: for ANY interleaving of view updates,
    /// async deliveries and configuration changes, a batched engine ends
    /// with bit-identical trees to an eager engine fed the same script.
    /// (Each batched flush additionally self-checks against an eager
    /// replay via the engine's debug-mode equivalence checker.)
    #[test]
    fn batched_flush_is_equivalent_to_eager_migration(
        n in 1usize..16,
        script in proptest::collection::vec(step_strategy(), 0..48),
        max_pending in 1usize..10,
        max_delay_ms in 0u64..32,
    ) {
        let mut eager = System::new(n, FlushPolicy::Eager);
        let mut batched = System::new(
            n,
            FlushPolicy::batched(max_pending, SimDuration::from_millis(max_delay_ms)),
        );
        eager.run(n, &script);
        batched.run(n, &script);

        for side in 0..2 {
            for id in eager.trees[side].iter_ids() {
                let want = eager.trees[side].view(id).unwrap();
                let got = batched.trees[side].view(id).unwrap();
                prop_assert_eq!(
                    &want.attrs,
                    &got.attrs,
                    "side {} view {} diverged", side, id
                );
            }
        }
    }
}
