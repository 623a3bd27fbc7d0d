//! One activity instance: state + view tree + member ("Java field") state.

use crate::model::AppModel;
use crate::state::{ActivityState, StateError};
use droidsim_atms::ActivityRecordId;
use droidsim_bundle::Bundle;
use droidsim_config::Configuration;
use droidsim_view::{inflate_weighed, InflateStats, ViewTree};
use std::rc::Rc;

droidsim_kernel::define_id! {
    /// Identifies one activity *instance* inside an app process (distinct
    /// from the server-side record token it is bound to).
    pub struct ActivityInstanceId
}

/// Bundle key for the view hierarchy state.
pub const KEY_HIERARCHY: &str = "android:viewHierarchyState";
/// Bundle key for the app's own saved state.
pub const KEY_APP: &str = "app:savedState";

/// Inflates `model`'s main layout for `config`, uncached, with the
/// tree's resident bytes as the inflater counted them. A model without
/// a layout for `config` gets an empty `FrameLayout` with id `content`.
pub(crate) fn inflate_main_layout(
    model: &dyn AppModel,
    config: &Configuration,
) -> (ViewTree, InflateStats, u64) {
    // Inflate straight from the resolved template reference: a deep
    // clone of the whole template per create was once the largest
    // allocation on the relaunch path.
    match model
        .resources()
        .resolve_layout(model.main_layout(), config)
    {
        Ok(template) => inflate_weighed(template, model.resources(), config),
        Err(_) => {
            let fallback = droidsim_resources::LayoutTemplate::new(
                "empty",
                droidsim_resources::LayoutNode::new("FrameLayout").with_id("content"),
            );
            inflate_weighed(&fallback, model.resources(), config)
        }
    }
}

/// An activity instance living on the activity thread.
///
/// `member_state` models the instance's Java fields: state the app keeps
/// *outside* any view. On a restart a fresh instance starts with empty
/// fields; whatever was not written to the saved-state bundle is simply
/// gone — the paper's "state loss" failure class.
#[derive(Debug)]
pub struct Activity {
    id: ActivityInstanceId,
    token: ActivityRecordId,
    /// The component name, shared with the thread and every other
    /// instance of the app.
    component: Rc<str>,
    state: ActivityState,
    config: Configuration,
    /// The instance's view hierarchy.
    pub tree: ViewTree,
    /// The instance's fields (user state held in memory).
    pub member_state: Bundle,
    /// Snapshot taken when entering the shadow state (§3.2: "the activity
    /// thread will snapshot its states and store the state into a data
    /// bundle").
    pub shadow_bundle: Option<Bundle>,
    /// Fragments currently attached (see [`crate::fragment`]).
    pub(crate) fragments: Vec<crate::FragmentSpec>,
    inflate_stats: InflateStats,
}

impl Activity {
    /// Creates an instance bound to a server-side record token. The
    /// instance is inert until [`Activity::perform_create`] runs.
    pub fn new(
        id: ActivityInstanceId,
        token: ActivityRecordId,
        component: impl Into<Rc<str>>,
        config: Configuration,
    ) -> Self {
        Activity {
            id,
            token,
            component: component.into(),
            state: ActivityState::Created,
            config,
            tree: ViewTree::new(),
            member_state: Bundle::new(),
            shadow_bundle: None,
            fragments: Vec::new(),
            inflate_stats: InflateStats::default(),
        }
    }

    /// The instance id.
    pub fn id(&self) -> ActivityInstanceId {
        self.id
    }

    /// The bound record token.
    pub fn token(&self) -> ActivityRecordId {
        self.token
    }

    /// The component name.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// The current lifecycle state.
    pub fn state(&self) -> ActivityState {
        self.state
    }

    /// The configuration this instance was created for.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Stats from the last `onCreate` inflation (cost-model input).
    pub fn inflate_stats(&self) -> InflateStats {
        self.inflate_stats
    }

    /// Runs `onCreate`: inflates the model's main layout for this
    /// instance's configuration, lets the model add dynamic views, and —
    /// if a saved-state bundle is supplied — restores the view hierarchy
    /// and hands the app bundle to the model.
    ///
    /// This is the uncached path: the analyzer and the tests create
    /// through it. [`ActivityThread::perform_launch_activity`] creates
    /// from its process's kept inflation instead and shares everything
    /// after the inflation with this method.
    ///
    /// [`ActivityThread::perform_launch_activity`]: crate::ActivityThread::perform_launch_activity
    pub fn perform_create(&mut self, model: &dyn AppModel, saved: Option<&Bundle>) {
        let (tree, stats, _) = inflate_main_layout(model, &self.config);
        self.create_from(tree, stats, model, saved);
    }

    /// The `onCreate` work after the inflation: installs the freshly
    /// inflated `tree`, runs the model's `on_create` and the restore.
    pub(crate) fn create_from(
        &mut self,
        tree: ViewTree,
        stats: InflateStats,
        model: &dyn AppModel,
        saved: Option<&Bundle>,
    ) {
        self.tree = tree;
        self.inflate_stats = stats;
        self.fragments.clear();
        self.state = ActivityState::Created;
        model.on_create(self);
        if let Some(saved) = saved {
            if let Some(hierarchy) = saved.bundle(KEY_HIERARCHY) {
                self.tree.restore_hierarchy_state(hierarchy);
            }
            if model.implements_save_instance_state() {
                if let Some(app) = saved.bundle(KEY_APP) {
                    model.on_restore_instance_state(self, app);
                }
            }
        }
    }

    /// Checked lifecycle transition.
    ///
    /// # Errors
    ///
    /// [`StateError`] for edges Fig. 4 forbids.
    pub fn transition(&mut self, to: ActivityState) -> Result<(), StateError> {
        self.state = self.state.transition_to(to)?;
        if to == ActivityState::Destroyed {
            self.tree.release();
        }
        Ok(())
    }

    /// Walks the legal path from the current state to `Destroyed`
    /// (pausing/stopping as needed) and releases the view tree. This is
    /// what a relaunch or `finish()` does.
    ///
    /// A callback captured before the destroy keeps the instance on its
    /// thread ([`crate::ActivityThread::destroy_activity`]), finds it, and
    /// crashes with `NullPointer` (or `WindowLeaked` for a dialog) exactly
    /// as on stock Android. Its views do not stay: [`ViewTree::release`]
    /// frees the whole arena, so a destroyed instance keeps only its
    /// fields and bundles, however many views it had.
    pub fn destroy(&mut self) {
        use ActivityState::{Created, Destroyed, Paused, Resumed, Shadow, Started, Stopped, Sunny};
        loop {
            match self.state {
                Destroyed => break,
                Resumed | Sunny => {
                    self.state = Paused;
                }
                Created | Started => {
                    // Not yet visible: Android destroys directly.
                    self.state = Destroyed;
                }
                Paused => self.state = Stopped,
                Stopped | Shadow => self.state = Destroyed,
            }
        }
        self.tree.release();
    }

    /// `onSaveInstanceState`: saves the view hierarchy state and, when the
    /// app implements the callback, the app's own bundle.
    pub fn save_instance_state(&self, model: &dyn AppModel) -> Bundle {
        let mut out = Bundle::new();
        out.put_bundle(KEY_HIERARCHY, self.tree.save_hierarchy_state());
        if model.implements_save_instance_state() {
            let mut app = Bundle::new();
            model.on_save_instance_state(self, &mut app);
            out.put_bundle(KEY_APP, app);
        }
        out
    }

    /// Approximate heap footprint: instance overhead + view tree + bundles.
    pub fn heap_bytes(&self) -> u64 {
        let bundles = self.member_state.parcel_size() as u64
            + self
                .shadow_bundle
                .as_ref()
                .map_or(0, |b| b.parcel_size() as u64);
        4 * 1024 + self.tree.heap_bytes() + bundles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimpleApp;
    use droidsim_view::ViewOp;

    fn created_activity() -> (Activity, SimpleApp) {
        let model = SimpleApp::with_views(3);
        let mut a = Activity::new(
            ActivityInstanceId::new(0),
            ActivityRecordId::new(0),
            model.component_name(),
            Configuration::phone_portrait(),
        );
        a.perform_create(&model, None);
        (a, model)
    }

    #[test]
    fn create_inflates_layout() {
        let (a, _) = created_activity();
        // decor + root + 3 image views + button
        assert_eq!(a.tree.view_count(), 6);
        assert_eq!(a.inflate_stats().views_created, 5);
        assert_eq!(a.state(), ActivityState::Created);
    }

    #[test]
    fn full_lifecycle_reaches_sunny() {
        let (mut a, _) = created_activity();
        a.transition(ActivityState::Started).unwrap();
        a.transition(ActivityState::Sunny).unwrap();
        assert!(a.state().is_foreground());
    }

    #[test]
    fn destroy_releases_tree_from_any_state() {
        let (mut a, _) = created_activity();
        a.transition(ActivityState::Started).unwrap();
        a.transition(ActivityState::Resumed).unwrap();
        a.destroy();
        assert_eq!(a.state(), ActivityState::Destroyed);
        assert!(a.tree.is_released());
    }

    #[test]
    fn save_restore_round_trip_via_bundle() {
        let (mut a, model) = created_activity();
        // Scroll position is genuine user state for a container.
        let root = a.tree.find_by_id_name("root").unwrap();
        a.tree.apply(root, ViewOp::ScrollTo(480)).unwrap();
        let saved = a.save_instance_state(&model);

        let mut b = Activity::new(
            ActivityInstanceId::new(1),
            ActivityRecordId::new(1),
            model.component_name(),
            Configuration::phone_landscape(),
        );
        b.perform_create(&model, Some(&saved));
        let root_b = b.tree.find_by_id_name("root").unwrap();
        assert_eq!(b.tree.view(root_b).unwrap().attrs.scroll_y(), 480);
    }

    #[test]
    fn label_text_is_content_and_does_not_round_trip() {
        // Android's freezesText contract: a Button label set by the app
        // is content, not user state — it is rebuilt by the new
        // configuration's resources, not restored from the bundle.
        let (mut a, model) = created_activity();
        let button = a.tree.find_by_id_name("button").unwrap();
        a.tree
            .apply(button, ViewOp::SetText("pressed".into()))
            .unwrap();
        let saved = a.save_instance_state(&model);

        let mut b = Activity::new(
            ActivityInstanceId::new(1),
            ActivityRecordId::new(1),
            model.component_name(),
            Configuration::phone_landscape(),
        );
        b.perform_create(&model, Some(&saved));
        let button_b = b.tree.find_by_id_name("button").unwrap();
        assert_eq!(
            b.tree.view(button_b).unwrap().attrs.text.as_deref(),
            Some("Load")
        );
    }

    #[test]
    fn member_state_is_lost_without_save_callback() {
        let (mut a, model) = created_activity();
        a.member_state.put_string("secret", "not in any view");
        assert!(!model.implements_save_instance_state());
        let saved = a.save_instance_state(&model);
        assert!(saved.bundle(KEY_APP).is_none());

        let mut b = Activity::new(
            ActivityInstanceId::new(1),
            ActivityRecordId::new(1),
            model.component_name(),
            Configuration::phone_landscape(),
        );
        b.perform_create(&model, Some(&saved));
        assert!(b.member_state.is_empty(), "the field state is gone");
    }

    #[test]
    fn shadow_transition_flags_tree() {
        let (mut a, _) = created_activity();
        a.transition(ActivityState::Started).unwrap();
        a.transition(ActivityState::Resumed).unwrap();
        a.transition(ActivityState::Paused).unwrap();
        a.transition(ActivityState::Shadow).unwrap();
        assert_eq!(a.state(), ActivityState::Shadow);
        assert!(a.state().is_alive());
    }

    #[test]
    fn heap_counts_tree_and_bundles() {
        let (mut a, _) = created_activity();
        let before = a.heap_bytes();
        let img = a.tree.find_by_id_name("image_0").unwrap();
        // Replaces the 64 KiB placeholder with a 1 MiB drawable.
        a.tree
            .apply(img, ViewOp::SetDrawable("big.png".into(), 1 << 20))
            .unwrap();
        assert!(a.heap_bytes() >= before + 900_000);
    }
}
