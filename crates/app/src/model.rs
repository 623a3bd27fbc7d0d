//! The black-box app-model trait and a simple built-in model.

use crate::activity::Activity;
use droidsim_bundle::Bundle;
use droidsim_config::ConfigChanges;
use droidsim_kernel::{SimDuration, Symbol};
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::{ViewError, ViewOp};

/// What an asynchronous task does when it returns on the UI thread: a
/// user-defined callback that applies view mutations (and possibly shows a
/// dialog bound to the starting activity's window).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsyncResult {
    /// Mutations applied to views, addressed by `android:id` name.
    pub ops: Vec<(String, ViewOp)>,
    /// Whether the callback shows a dialog: if the starting activity's
    /// window is gone, this raises `WindowLeaked` instead of
    /// `NullPointer`.
    pub shows_dialog: bool,
}

/// A background task specification: how long it runs and what its
/// completion callback does.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncSpec {
    /// Virtual run time of the background work.
    pub duration: SimDuration,
    /// The completion callback's effect.
    pub result: AsyncResult,
}

/// Black-box app logic.
///
/// The framework calls these hooks exactly where Android calls the
/// corresponding app code; it never looks inside. Every method except
/// [`AppModel::component_name`], [`AppModel::resources`] and
/// [`AppModel::main_layout`] has a stock-Android default (no
/// `configChanges` declared, no `onSaveInstanceState` implemented, async
/// callbacks apply their recorded ops directly to the starting instance's
/// views — the exact pattern of Fig. 1a).
pub trait AppModel {
    /// The component this model implements (`package/.Activity`).
    fn component_name(&self) -> &str;

    /// The app's resource table (layouts for each configuration, strings,
    /// drawables). It must not change over the model's life, as an APK's
    /// resources do not: the app process keeps its inflations keyed by
    /// configuration alone (see [`ActivityThread`](crate::ActivityThread)).
    fn resources(&self) -> &ResourceTable;

    /// The layout inflated by `onCreate`. Fixed for the model's life,
    /// like [`AppModel::resources`].
    fn main_layout(&self) -> &str;

    /// The `android:configChanges` mask: diffs covered by it are delivered
    /// to [`AppModel::on_configuration_changed`] instead of restarting.
    /// 74 % of top apps leave this empty (§2.2).
    fn handled_changes(&self) -> ConfigChanges {
        ConfigChanges::NONE
    }

    /// Whether the app implements `onSaveInstanceState` for its member
    /// state. Most of the TP-set apps do not — that is the bug class.
    fn implements_save_instance_state(&self) -> bool {
        false
    }

    /// Extra `onCreate` work after layout inflation (dynamic views,
    /// fragment attachment). Default: nothing.
    fn on_create(&self, _activity: &mut Activity) {}

    /// Saves the app's member state. Only called when
    /// [`AppModel::implements_save_instance_state`] is true. Default:
    /// saves every member-state entry (the canonical implementation).
    fn on_save_instance_state(&self, activity: &Activity, out: &mut Bundle) {
        out.merge(activity.member_state.clone());
    }

    /// Restores what [`AppModel::on_save_instance_state`] saved.
    fn on_restore_instance_state(&self, activity: &mut Activity, saved: &Bundle) {
        activity.member_state.merge(saved.clone());
    }

    /// In-place reaction for self-handled changes (`configChanges`
    /// declared): the app updates its views itself. Default: nothing.
    fn on_configuration_changed(&self, _activity: &mut Activity) {}

    /// The async completion callback, running on the UI thread against the
    /// instance that started the task. Default: apply the recorded ops by
    /// id name — views resolved through the *instance's own tree*, which
    /// is why a destroyed instance crashes.
    ///
    /// # Errors
    ///
    /// Propagates [`ViewError`]s; `NullPointer`/`WindowLeaked` crash the
    /// app under stock handling.
    fn on_async_result(
        &self,
        activity: &mut Activity,
        result: &AsyncResult,
    ) -> Result<(), ViewError> {
        if activity.tree.is_released() {
            // The callback dereferences a view reference captured before
            // the restart.
            let root = activity.tree.root();
            return Err(if result.shows_dialog {
                ViewError::WindowLeaked { view: root }
            } else {
                ViewError::NullPointer { view: root }
            });
        }
        for (id_name, op) in &result.ops {
            let Some(view) = activity.tree.find_by_id_name(id_name) else {
                continue; // the new layout may not contain the view
            };
            activity.tree.apply(view, op.clone())?;
        }
        // A dialog needs a live window token. Shadow/stopped instances
        // still have one (their window is merely invisible); only a
        // destroyed activity's token is dead — and that case returned
        // `WindowLeaked` above.
        Ok(())
    }
}

/// A minimal concrete app: the paper's benchmark app shape — a column of
/// `ImageView`s plus a `Button` (§5.1, second app-set).
///
/// # Examples
///
/// ```
/// use droidsim_app::{AppModel, SimpleApp};
///
/// let app = SimpleApp::with_views(4);
/// assert_eq!(app.component_name(), "com.bench/.Main");
/// assert_eq!(app.image_count(), 4);
/// ```
#[derive(Debug)]
pub struct SimpleApp {
    component: String,
    resources: ResourceTable,
    image_count: usize,
    handled: ConfigChanges,
    saves_state: bool,
}

impl SimpleApp {
    /// The benchmark app with `n` ImageViews and one Button.
    pub fn with_views(n: usize) -> Self {
        SimpleApp::builder(n).build()
    }

    /// Starts building a customised benchmark app.
    pub fn builder(image_count: usize) -> SimpleAppBuilder {
        SimpleAppBuilder {
            image_count,
            handled: ConfigChanges::NONE,
            saves_state: false,
        }
    }

    /// Number of ImageViews in the layout.
    pub fn image_count(&self) -> usize {
        self.image_count
    }

    /// The async spec of the benchmark app's button: a 5-second task that
    /// updates every ImageView (§5.1: "when touching the button, an
    /// AsyncTask will be issued to update the ImageViews in five seconds").
    pub fn button_task(&self) -> AsyncSpec {
        AsyncSpec {
            duration: SimDuration::from_secs(5),
            result: AsyncResult {
                ops: (0..self.image_count)
                    .map(|i| {
                        (
                            format!("image_{i}"),
                            ViewOp::SetDrawable(
                                Symbol::intern(&format!("loaded_{i}.png")),
                                256 * 1024,
                            ),
                        )
                    })
                    .collect(),
                shows_dialog: false,
            },
        }
    }
}

/// Builder for [`SimpleApp`].
#[derive(Debug)]
pub struct SimpleAppBuilder {
    image_count: usize,
    handled: ConfigChanges,
    saves_state: bool,
}

impl SimpleAppBuilder {
    /// Declares an `android:configChanges` mask.
    pub fn handles(mut self, mask: ConfigChanges) -> Self {
        self.handled = mask;
        self
    }

    /// Makes the app implement `onSaveInstanceState`.
    pub fn saves_state(mut self) -> Self {
        self.saves_state = true;
        self
    }

    /// Builds the app and its two layout variants (portrait and
    /// landscape, mirroring the artifact's `layout-port`/`layout-land`).
    pub fn build(self) -> SimpleApp {
        let mut resources = ResourceTable::new();
        for (qualifiers, suffix) in [
            (Qualifiers::any(), "port"),
            (
                Qualifiers::any().with_orientation(droidsim_config::Orientation::Landscape),
                "land",
            ),
        ] {
            let images = (0..self.image_count).map(|i| {
                LayoutNode::new("ImageView")
                    .with_id(&format!("image_{i}"))
                    .with_attr("src", "@drawable/placeholder")
            });
            let root = LayoutNode::new(if suffix == "port" {
                "LinearLayout"
            } else {
                "GridLayout"
            })
            .with_id("root")
            .with_children(images)
            .with_child(
                LayoutNode::new("Button")
                    .with_id("button")
                    .with_attr("text", "Load"),
            );
            resources.put(
                "activity_main",
                qualifiers,
                ResourceValue::Layout(LayoutTemplate::new("activity_main", root)),
            );
        }
        resources.put(
            "placeholder",
            Qualifiers::any(),
            ResourceValue::drawable("placeholder.png", 64 * 1024),
        );
        SimpleApp {
            component: "com.bench/.Main".to_owned(),
            resources,
            image_count: self.image_count,
            handled: self.handled,
            saves_state: self.saves_state,
        }
    }
}

impl AppModel for SimpleApp {
    fn component_name(&self) -> &str {
        &self.component
    }

    fn resources(&self) -> &ResourceTable {
        &self.resources
    }

    fn main_layout(&self) -> &str {
        "activity_main"
    }

    fn handled_changes(&self) -> ConfigChanges {
        self.handled
    }

    fn implements_save_instance_state(&self) -> bool {
        self.saves_state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityInstanceId;
    use droidsim_atms::ActivityRecordId;
    use droidsim_config::Configuration;

    fn activity_for(model: &SimpleApp) -> Activity {
        let mut a = Activity::new(
            ActivityInstanceId::new(0),
            ActivityRecordId::new(0),
            model.component_name(),
            Configuration::phone_portrait(),
        );
        a.perform_create(model, None);
        a
    }

    #[test]
    fn benchmark_layout_has_images_and_button() {
        let model = SimpleApp::with_views(4);
        let a = activity_for(&model);
        for i in 0..4 {
            assert!(a.tree.find_by_id_name(&format!("image_{i}")).is_some());
        }
        assert!(a.tree.find_by_id_name("button").is_some());
    }

    #[test]
    fn landscape_layout_uses_grid() {
        let model = SimpleApp::with_views(2);
        let mut a = Activity::new(
            ActivityInstanceId::new(0),
            ActivityRecordId::new(0),
            model.component_name(),
            Configuration::phone_landscape(),
        );
        a.perform_create(&model, None);
        let root = a.tree.find_by_id_name("root").unwrap();
        assert_eq!(a.tree.view(root).unwrap().kind.class_name(), "GridLayout");
    }

    #[test]
    fn async_callback_applies_ops() {
        let model = SimpleApp::with_views(2);
        let mut a = activity_for(&model);
        let result = model.button_task().result;
        model.on_async_result(&mut a, &result).unwrap();
        let img = a.tree.find_by_id_name("image_0").unwrap();
        assert_eq!(
            a.tree
                .view(img)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "loaded_0.png"
        );
        // The generic invalidate hook saw every updated image.
        assert_eq!(a.tree.drain_invalidations().len(), 2);
    }

    #[test]
    fn async_callback_on_destroyed_instance_crashes() {
        let model = SimpleApp::with_views(1);
        let mut a = activity_for(&model);
        a.destroy();
        let err = model
            .on_async_result(&mut a, &model.button_task().result)
            .unwrap_err();
        assert!(err.is_crash());
    }

    #[test]
    fn dialog_after_destroy_leaks_window() {
        let model = SimpleApp::with_views(1);
        let mut a = activity_for(&model);
        a.destroy();
        let result = AsyncResult {
            ops: vec![],
            shows_dialog: true,
        };
        let err = model.on_async_result(&mut a, &result).unwrap_err();
        assert!(matches!(err, ViewError::WindowLeaked { .. }));
    }

    #[test]
    fn missing_views_are_skipped_not_crashed() {
        let model = SimpleApp::with_views(1);
        let mut a = activity_for(&model);
        let result = AsyncResult {
            ops: vec![("nonexistent".to_owned(), ViewOp::SetText("x".into()))],
            shows_dialog: false,
        };
        model.on_async_result(&mut a, &result).unwrap();
    }

    #[test]
    fn builder_configures_flags() {
        let app = SimpleApp::builder(1)
            .handles(ConfigChanges::ALL)
            .saves_state()
            .build();
        assert_eq!(app.handled_changes(), ConfigChanges::ALL);
        assert!(app.implements_save_instance_state());
    }

    #[test]
    fn button_task_targets_every_image() {
        let app = SimpleApp::with_views(8);
        let spec = app.button_task();
        assert_eq!(spec.result.ops.len(), 8);
        assert_eq!(spec.duration, SimDuration::from_secs(5));
    }
}
