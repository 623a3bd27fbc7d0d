//! The structural and verdict analysis passes (`RCH001`–`RCH006`).
//!
//! Each pass maps an [`AppShape`] (plus the corpus descriptor, when one
//! exists) to zero or more [`Diagnostic`]s. Pass order and, within a
//! pass, pre-order tree walks keep the output deterministic — the JSON
//! renderer's byte-stability depends on it. The data-loss dataflow
//! passes (`RCH007`–`RCH012`) live in [`crate::passes_dataloss`] and
//! run last.

use crate::diag::{Diagnostic, LintCode, Loc, Severity};
use crate::passes_dataloss::dataloss_passes;
use crate::shape::{view_path, AppShape, ConfigTree};
use crate::verdict::{predict, AnalysisMode};
use rch_workloads::GenericAppSpec;

/// Runs every pass over one app. `spec` unlocks the descriptor-level
/// passes (4's aggravation note, 5, 6, and the data-loss family);
/// shape-only models (e.g. `SimpleApp`) still get the structural
/// passes.
pub fn analyze_app(shape: &AppShape, spec: Option<&GenericAppSpec>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    essence_key_collisions(shape, &mut out);
    unmapped_views(shape, &mut out);
    table1_coverage(shape, &mut out);
    stale_callbacks(shape, spec, &mut out);
    self_handling_conflicts(shape, spec, &mut out);
    predicted_issues(shape, spec, &mut out);
    if let Some(spec) = spec {
        dataloss_passes(shape, spec, &mut out);
    }
    out
}

/// Pass 1 (`RCH001`): duplicate `android:id` names in one layout.
///
/// `ViewTree::add_view` indexes names first-come-first-kept, so the
/// essence mapping and hierarchy restore both bind the *lowest-id* view
/// and every later duplicate is silently orphaned. The repeated names
/// come off the tree's own name index, reported in name order at their
/// first bearer in pre-order.
fn essence_key_collisions(shape: &AppShape, out: &mut Vec<Diagnostic>) {
    for ct in &shape.trees {
        let mut repeated = ct.tree.repeated_names();
        repeated.sort_unstable_by_key(|(name, _)| name.as_str());
        for (name, ids) in repeated {
            out.push(Diagnostic::new(
                LintCode::EssenceKeyCollision,
                Severity::Warning,
                loc_in(shape, ct, ids[0]),
                format!(
                    "id `{name}` is declared by {} views in the {} layout; the essence \
                     mapping and hierarchy restore bind the lowest view id and silently \
                     orphan the other {}",
                    ids.len(),
                    ct.label,
                    ids.len() - 1,
                ),
            ));
        }
    }
}

/// Pass 2 (`RCH002`): views invisible to the essence mapping.
///
/// Three shapes of the same defect: an editable view with no
/// `android:id` (unmappable, and its user input also misses the
/// hierarchy bundle), an async write whose target id resolves to no
/// view in some configuration, and a layout subtree the lenient runtime
/// inflater would silently drop.
fn unmapped_views(shape: &AppShape, out: &mut Vec<Diagnostic>) {
    for (label, err) in &shape.inflate_errors {
        out.push(Diagnostic::new(
            LintCode::UnmappedView,
            Severity::Error,
            Loc::app_level(&shape.app, &shape.activity),
            format!(
                "the {label} layout does not inflate strictly ({err}); the runtime \
                 inflater silently drops the offending subtree, so none of its views \
                 can be mapped or migrated"
            ),
        ));
    }
    for ct in &shape.trees {
        for id in ct.tree.iter_ids() {
            let Ok(node) = ct.tree.view(id) else { continue };
            if node.id_name.is_none() && node.kind.is_editable() {
                out.push(Diagnostic::new(
                    LintCode::UnmappedView,
                    Severity::Warning,
                    loc_in(shape, ct, id),
                    format!(
                        "editable `{}` in the {} layout has no android:id: the essence \
                         mapping cannot pair it across instances, so lazy migration \
                         (and the hierarchy bundle) drop its user input on a runtime \
                         change",
                        node.kind.class_name(),
                        ct.label,
                    ),
                ));
            }
        }
    }
    for spec in &shape.async_specs {
        for (target, op) in &spec.result.ops {
            for ct in &shape.trees {
                if ct.tree.find_by_id_name(target).is_none() {
                    out.push(Diagnostic::new(
                        LintCode::UnmappedView,
                        Severity::Warning,
                        Loc::app_level(&shape.app, &shape.activity),
                        format!(
                            "async `{}` targets id `{target}`, which no view in the {} \
                             layout declares: after a change to that configuration the \
                             write is dropped",
                            op.name(),
                            ct.label,
                        ),
                    ));
                }
            }
        }
    }
}

/// Pass 3 (`RCH003`): Table-1 coverage of async attribute writes.
///
/// Lazy migration carries exactly the attributes of the target's
/// migration class (paper Table 1). An async op outside that set raises
/// `InapplicableOp` at runtime — the write is lost under every scheme.
fn table1_coverage(shape: &AppShape, out: &mut Vec<Diagnostic>) {
    for spec in &shape.async_specs {
        for (target, op) in &spec.result.ops {
            for ct in &shape.trees {
                let Some(id) = ct.tree.find_by_id_name(target) else {
                    continue; // pass 2's finding
                };
                let Ok(node) = ct.tree.view(id) else { continue };
                let class = node.kind.migration_class();
                if !op.applies_to(class) {
                    out.push(Diagnostic::new(
                        LintCode::UncoveredAttribute,
                        Severity::Error,
                        loc_in(shape, ct, id),
                        format!(
                            "async `{}` targets `{target}` whose migration class {class} \
                             carries no such attribute (Table 1): the write raises \
                             InapplicableOp and is lost even under RCHDroid",
                            op.name(),
                        ),
                    ));
                }
            }
        }
    }
}

/// Pass 4 (`RCH004`): async deadlines that outlive a stock restart.
fn stale_callbacks(shape: &AppShape, spec: Option<&GenericAppSpec>, out: &mut Vec<Diagnostic>) {
    if shape.handles_changes {
        return; // no restart to go stale against
    }
    let member_unsaved = spec.is_some_and(|s| {
        s.state_items
            .iter()
            .any(|i| !i.mechanism.survives_stock_restart())
    });
    for a in &shape.async_specs {
        let aggravation = if member_unsaved {
            " — and the app holds state a restart already loses, so the crash also \
             discards the in-memory copy"
        } else {
            ""
        };
        out.push(Diagnostic::new(
            LintCode::StaleCallback,
            Severity::Warning,
            Loc::app_level(&shape.app, &shape.activity),
            format!(
                "a {:.0}-second async callback outlives the stock restart a runtime \
                 change triggers: it fires into the released view tree \
                 ({}){aggravation}",
                a.duration.as_secs_f64(),
                if a.result.shows_dialog {
                    "WindowLeaked"
                } else {
                    "NullPointerException"
                },
            ),
        ));
    }
}

/// Pass 5 (`RCH005`): `configChanges` self-handling masking unsaved
/// state.
fn self_handling_conflicts(
    shape: &AppShape,
    spec: Option<&GenericAppSpec>,
    out: &mut Vec<Diagnostic>,
) {
    if !shape.handles_changes {
        return;
    }
    let Some(spec) = spec else { return };
    for item in &spec.state_items {
        let saved = item.mechanism.survives_stock_restart()
            && (item.mechanism.is_view_held() || spec.saves_instance_state);
        if saved {
            continue;
        }
        out.push(Diagnostic::new(
            LintCode::SelfHandlingConflict,
            Severity::Warning,
            Loc::app_level(&shape.app, &shape.activity),
            format!(
                "android:configChanges masks unsaved state `{}` ({:?}): rotation keeps \
                 the instance alive, but death-and-recreation (low memory, background \
                 kill) still loses it",
                item.key, item.mechanism,
            ),
        ));
    }
}

/// Pass 6 (`RCH006`): the verdict prediction itself, as diagnostics.
fn predicted_issues(shape: &AppShape, spec: Option<&GenericAppSpec>, out: &mut Vec<Diagnostic>) {
    let Some(spec) = spec else { return };
    if spec.dataloss.is_some() {
        // The field-aware RCH012 summary in `passes_dataloss` owns the
        // data-loss corpus.
        return;
    }
    let stock = predict(spec, AnalysisMode::Stock);
    if stock.has_issue() {
        let detail = if stock.crashed {
            "the app crashes on the in-flight async callback".to_owned()
        } else {
            format!(
                "state lost after rotation: {}",
                stock.lost_after_one.join(", ")
            )
        };
        out.push(Diagnostic::new(
            LintCode::PredictedIssue,
            Severity::Warning,
            Loc::app_level(&shape.app, &shape.activity),
            format!("predicted runtime-change issue under stock handling: {detail}"),
        ));
    }
    let rch = predict(spec, AnalysisMode::RchDroid);
    if rch.has_issue() {
        out.push(Diagnostic::new(
            LintCode::PredictedIssue,
            Severity::Error,
            Loc::app_level(&shape.app, &shape.activity),
            format!(
                "predicted issue persists under RCHDroid: member state {} is never \
                 saved, so no migration scheme can restore it",
                rch.lost_after_one.join(", "),
            ),
        ));
    }
}

fn loc_in(shape: &AppShape, ct: &ConfigTree, id: droidsim_view::ViewId) -> Loc {
    Loc::view(
        &shape.app,
        &shape.activity,
        format!("{}:{}", ct.label, view_path(&ct.tree, id)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::AppShape;
    use droidsim_app::{AppModel, AsyncResult, AsyncSpec};
    use droidsim_kernel::{SimDuration, Symbol};
    use droidsim_resources::{LayoutNode, ResourceTable};
    use droidsim_view::{ViewError, ViewId, ViewKind, ViewOp, ViewTree};
    use rch_workloads::{StateItem, StateMechanism};

    fn base_spec(name: &str) -> GenericAppSpec {
        GenericAppSpec::sized(name, "1K+", false)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_app_produces_no_diagnostics() {
        let mut spec = base_spec("CleanApp");
        spec.saves_instance_state = true;
        spec.state_items.push(StateItem::new(
            "safe_state",
            StateMechanism::FrameworkView,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        assert!(analyze_app(&shape, Some(&spec)).is_empty());
    }

    #[test]
    fn async_issue_app_gets_stale_callback_and_prediction() {
        let mut spec = base_spec("AsyncApp").with_async_task();
        spec.state_items.push(StateItem::new(
            "issue_state",
            StateMechanism::CustomViewNoSave,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH004", "RCH006"]);
        assert!(diags[0].message.contains("5-second"));
        assert!(diags[0].message.contains("already loses"));
    }

    #[test]
    fn member_unsaved_app_escalates_to_an_error() {
        let mut spec = base_spec("ResidueApp");
        spec.state_items.push(StateItem::new(
            "issue_state",
            StateMechanism::MemberUnsaved,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH006", "RCH006"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[1].severity, Severity::Error);
        assert!(diags[1].message.contains("persists under RCHDroid"));
    }

    #[test]
    fn self_handling_with_unsaved_state_is_flagged() {
        let mut spec = base_spec("MaskedApp").self_handling();
        spec.state_items.push(StateItem::new(
            "masked_state",
            StateMechanism::MemberUnsaved,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH005"], "no RCH006: rotation is clean");
        assert!(diags[0].message.contains("masked_state"));
    }

    #[test]
    fn async_target_checks_cover_missing_ids_and_table1() {
        let mut spec = base_spec("TargetApp").with_async_task();
        let app = spec.build();
        // A hand-built shape: async ops targeting a missing id and an
        // attribute outside the target's migration class.
        let mut shape = AppShape::from_model(
            &spec.name,
            &app,
            vec![
                AsyncSpec {
                    duration: SimDuration::from_secs(5),
                    result: AsyncResult {
                        ops: vec![("nonexistent".to_owned(), ViewOp::SetText("x".into()))],
                        shows_dialog: false,
                    },
                },
                AsyncSpec {
                    duration: SimDuration::from_secs(5),
                    result: AsyncResult {
                        // async_target is a TextView; setProgress is
                        // ProgressBar-only in Table 1.
                        ops: vec![("async_target".to_owned(), ViewOp::SetProgress(10))],
                        shows_dialog: false,
                    },
                },
            ],
        );
        shape.handles_changes = true; // silence RCH004 for focus
        spec.handles_changes = true;
        spec.uses_async_task = false;
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH002", "RCH002", "RCH003", "RCH003"]);
        assert!(diags[0].message.contains("nonexistent"));
        assert!(diags[2].message.contains("TextView"));
    }

    #[test]
    fn duplicate_ids_collide_once_per_layout() {
        use droidsim_resources::{LayoutTemplate, Qualifiers, ResourceValue};
        let spec = base_spec("DupApp");
        let app = spec.build();
        let mut shape = AppShape::from_model(&spec.name, &app, Vec::new());
        // Splice in a hand-built tree with a duplicate id.
        let t = LayoutTemplate::new(
            "dup",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("EditText").with_id("twin"),
                    LayoutNode::new("EditText").with_id("twin"),
                ]),
        );
        let (tree, _) = droidsim_view::inflate(
            &t,
            app.resources(),
            &droidsim_config::Configuration::phone_portrait(),
        );
        shape.trees[0].tree = tree;
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH001"]);
        assert!(diags[0].message.contains("`twin`"));
        assert!(diags[0].loc.view_path.starts_with("portrait:"));

        // A fragment grafted into a slot that comes before the layout's
        // own `twin`: its bearer has the higher id but comes first in
        // pre-order, and the diagnostic sits there.
        let mut resources = ResourceTable::new();
        let fragment = LayoutNode::new("FrameLayout")
            .with_id("panel")
            .with_child(LayoutNode::new("EditText").with_id("twin"));
        resources.put(
            "frag",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new("frag", fragment)),
        );
        let host = LayoutTemplate::new(
            "host",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("FrameLayout").with_id("slot"),
                    LayoutNode::new("EditText").with_id("twin"),
                ]),
        );
        let config = droidsim_config::Configuration::phone_portrait();
        let mut activity = droidsim_app::Activity::new(
            droidsim_app::ActivityInstanceId::new(0),
            droidsim_atms::ActivityRecordId::new(0),
            "test.Host",
            config,
        );
        activity.tree = droidsim_view::inflate(&host, &resources, &config).0;
        let graft = droidsim_app::FragmentSpec::new("f", "frag", "slot");
        activity.attach_fragment(&resources, &graft).unwrap();
        let tree = &activity.tree;
        let own = tree.find_by_id_name("twin").unwrap();
        let panel = tree.find_by_id_name("panel").unwrap();
        let grafted = tree.view(panel).unwrap().children[0];
        assert!(grafted > own, "the grafted bearer has the higher id");
        shape.trees[0].tree = activity.tree;
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH001"]);
        assert!(diags[0].message.contains("`twin` is declared by 2 views"));
        assert_eq!(
            diags[0].loc.view_path,
            "portrait:decor>root>slot>panel>twin"
        );
    }

    /// A model with only the three required methods: a main layout that
    /// nests a child under a `TextView` in landscape only.
    struct MisnestedLandscape(ResourceTable);

    impl AppModel for MisnestedLandscape {
        fn component_name(&self) -> &str {
            "test.MisnestedLandscape"
        }
        fn resources(&self) -> &ResourceTable {
            &self.0
        }
        fn main_layout(&self) -> &str {
            "main"
        }
    }

    /// Strict inflation's walk: views added in pre-order until the first
    /// add fails.
    fn add_until_failure(
        node: &LayoutNode,
        parent: ViewId,
        tree: &mut ViewTree,
    ) -> Result<(), ViewError> {
        let kind = ViewKind::from_class(node.class);
        let id = tree.add_view(parent, kind, node.id_name.map(Symbol::as_str))?;
        for child in &node.children {
            add_until_failure(child, id, tree)?;
        }
        Ok(())
    }

    #[test]
    fn misnested_layouts_are_reported_with_the_strict_parent_id() {
        use droidsim_resources::{LayoutTemplate, Qualifiers, ResourceValue};
        let text = |id: &str| LayoutNode::new("TextView").with_id(id);
        let portrait = LayoutNode::new("LinearLayout")
            .with_id("root")
            .with_child(text("label"));
        // Pre-order: root 1, top 2, a 3, b 4, label 5; `after` also
        // misnests, but later.
        let landscape = LayoutNode::new("LinearLayout")
            .with_id("root")
            .with_children([
                LayoutNode::new("FrameLayout")
                    .with_id("top")
                    .with_children([text("a"), text("b")]),
                text("label").with_child(LayoutNode::new("Button").with_id("orphan")),
                text("after").with_child(text("late")),
            ]);
        let mut resources = ResourceTable::new();
        resources.put(
            "main",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new("main", portrait)),
        );
        resources.put(
            "main",
            Qualifiers::any().with_orientation(droidsim_config::Orientation::Landscape),
            ResourceValue::Layout(LayoutTemplate::new("main", landscape.clone())),
        );
        let mut reference = ViewTree::new();
        let decor = reference.root();
        let expected = add_until_failure(&landscape, decor, &mut reference).unwrap_err();
        assert_eq!(
            expected,
            ViewError::NotAContainer {
                parent: ViewId::new(5)
            }
        );

        let shape = AppShape::from_model("Misnested", &MisnestedLandscape(resources), Vec::new());
        assert_eq!(shape.inflate_errors, vec![("landscape", expected.clone())]);
        let diags = analyze_app(&shape, None);
        assert_eq!(codes(&diags), ["RCH002"]);
        assert!(diags[0].message.starts_with("the landscape layout"));
        assert!(diags[0].message.contains(&format!("({expected})")));
        assert!(diags[0].message.contains("ViewId#5"));
    }

    #[test]
    fn idless_editable_views_are_unmapped() {
        use droidsim_resources::LayoutTemplate;
        let spec = base_spec("NoIdApp");
        let app = spec.build();
        let mut shape = AppShape::from_model(&spec.name, &app, Vec::new());
        let t = LayoutTemplate::new(
            "noid",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_child(LayoutNode::new("EditText")),
        );
        let (tree, _) = droidsim_view::inflate(
            &t,
            app.resources(),
            &droidsim_config::Configuration::phone_portrait(),
        );
        shape.trees[1].tree = tree;
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH002"]);
        assert!(diags[0].message.contains("no android:id"));
        assert!(diags[0].loc.view_path.starts_with("landscape:"));
    }

    #[test]
    fn every_tp27_issue_app_is_diagnosed_and_every_clean_top100_app_is_not() {
        for spec in rch_workloads::tp27_specs() {
            let shape = AppShape::from_spec(&spec);
            assert!(
                !analyze_app(&shape, Some(&spec)).is_empty(),
                "{}: issue app must be diagnosed",
                spec.name
            );
        }
        for spec in rch_workloads::top100_specs() {
            let shape = AppShape::from_spec(&spec);
            let diags = analyze_app(&shape, Some(&spec));
            assert_eq!(
                spec.has_issue(),
                !diags.is_empty(),
                "{}: diagnostics iff the paper reports an issue ({:?})",
                spec.name,
                codes(&diags),
            );
        }
    }
}
