//! The generic app model: a descriptor-driven black-box app.

use crate::dataloss::{DataLossScenario, FieldOwner, FieldPersistence};
use droidsim_app::{Activity, AppModel, AsyncResult, AsyncSpec, FragmentSpec};
use droidsim_bundle::Bundle;
use droidsim_config::ConfigChanges;
use droidsim_kernel::{SimDuration, SplitMix64, Symbol, Xoshiro256};
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use droidsim_view::{ViewKind, ViewOp};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// How a piece of app state is held — the property that *mechanically*
/// determines whether it survives each handling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateMechanism {
    /// In a framework view with an id: the hierarchy bundle carries it,
    /// every scheme preserves it.
    FrameworkView,
    /// In a layout-declared custom view that does **not** implement
    /// `onSaveInstanceState`: lost on a stock restart; preserved by
    /// RCHDroid (live-attribute migration) and RuntimeDroid (dynamic
    /// migration).
    CustomViewNoSave,
    /// In a view the app creates in code (absent from the layout
    /// resource), also without state saving: lost on a stock restart and
    /// by RuntimeDroid's static reconstruction; preserved by RCHDroid.
    DynamicViewNoSave,
    /// A member field the app saves in `onSaveInstanceState`: survives
    /// everywhere.
    MemberSaved,
    /// A member field the app never saves: lost on a stock restart and
    /// by RCHDroid (nothing to migrate — apps #9/#10 of Table 3);
    /// RuntimeDroid keeps it because the instance survives.
    MemberUnsaved,
}

impl StateMechanism {
    /// Whether the item survives a stock restarting-based change.
    pub fn survives_stock_restart(self) -> bool {
        matches!(
            self,
            StateMechanism::FrameworkView | StateMechanism::MemberSaved
        )
    }

    /// Whether RCHDroid preserves the item.
    pub fn fixed_by_rchdroid(self) -> bool {
        !matches!(self, StateMechanism::MemberUnsaved)
    }

    /// Whether RuntimeDroid preserves the item.
    pub fn fixed_by_runtimedroid(self) -> bool {
        !matches!(self, StateMechanism::DynamicViewNoSave)
    }

    /// Whether the item lives in a view (vs a member field).
    pub fn is_view_held(self) -> bool {
        matches!(
            self,
            StateMechanism::FrameworkView
                | StateMechanism::CustomViewNoSave
                | StateMechanism::DynamicViewNoSave
        )
    }
}

/// One piece of user state an app holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateItem {
    /// The view id name or member-field key.
    pub key: String,
    /// How the state is held.
    pub mechanism: StateMechanism,
    /// The value the test scenario sets before the runtime change.
    pub test_value: String,
}

impl StateItem {
    /// Creates an item.
    pub fn new(key: &str, mechanism: StateMechanism, test_value: &str) -> Self {
        StateItem {
            key: key.to_owned(),
            mechanism,
            test_value: test_value.to_owned(),
        }
    }
}

/// A descriptor for one evaluated app.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericAppSpec {
    /// App name as the paper lists it.
    pub name: String,
    /// Play-store download bucket (Table 3/5 column).
    pub downloads: &'static str,
    /// The documented runtime-change issue, if any.
    pub issue: Option<String>,
    /// The state the test scenario exercises.
    pub state_items: Vec<StateItem>,
    /// Views in the main layout.
    pub view_count: usize,
    /// Cost-model complexity multiplier.
    pub complexity: f64,
    /// Process base PSS in bytes.
    pub base_memory_bytes: u64,
    /// Target heap of one activity instance in bytes (drawables sized to
    /// hit it).
    pub activity_heap_bytes: u64,
    /// Whether the app declares `android:configChanges` for everything.
    pub handles_changes: bool,
    /// Whether the app implements `onSaveInstanceState`.
    pub saves_instance_state: bool,
    /// Whether the test scenario has an async task in flight across the
    /// change.
    pub uses_async_task: bool,
    /// The data-loss scenario this app exercises, if it belongs to the
    /// generated data-loss corpus (see [`crate::dataloss`]).
    pub dataloss: Option<DataLossScenario>,
}

impl GenericAppSpec {
    /// A plain spec with derived quantitative parameters; `large` selects
    /// the top-100 (vs TP-27) calibration ranges.
    pub fn sized(name: &str, downloads: &'static str, large: bool) -> Self {
        let mut rng = Xoshiro256::seed_from(SplitMix64::new(hash_name(name)).next_u64());
        let (view_count, complexity, base_mb, heap_mb) = if large {
            (
                rng.next_range(80, 250) as usize,
                rng.next_f64_range(1.5, 2.3),
                rng.next_f64_range(140.0, 161.0),
                rng.next_f64_range(10.0, 13.2),
            )
        } else {
            (
                rng.next_range(12, 56) as usize,
                rng.next_f64_range(0.8, 1.2),
                rng.next_f64_range(38.0, 45.0),
                rng.next_f64_range(5.0, 7.0),
            )
        };
        GenericAppSpec {
            name: name.to_owned(),
            downloads,
            issue: None,
            state_items: Vec::new(),
            view_count,
            complexity,
            base_memory_bytes: (base_mb * 1024.0 * 1024.0) as u64,
            activity_heap_bytes: (heap_mb * 1024.0 * 1024.0) as u64,
            handles_changes: false,
            saves_instance_state: false,
            uses_async_task: false,
            dataloss: None,
        }
    }

    /// Sets the documented issue and the state item that causes it.
    pub fn with_issue(mut self, issue: &str, item: StateItem) -> Self {
        self.issue = Some(issue.to_owned());
        self.state_items.push(item);
        self
    }

    /// Marks the app as declaring `android:configChanges`.
    pub fn self_handling(mut self) -> Self {
        self.handles_changes = true;
        self
    }

    /// Marks the app as implementing `onSaveInstanceState`.
    pub fn saving_state(mut self) -> Self {
        self.saves_instance_state = true;
        self
    }

    /// Marks the test scenario as having an in-flight async task.
    pub fn with_async_task(mut self) -> Self {
        self.uses_async_task = true;
        self
    }

    /// Whether the paper reports a runtime-change issue for this app.
    pub fn has_issue(&self) -> bool {
        self.issue.is_some()
    }

    /// Predicted: does the issue persist under stock Android?
    pub fn issue_under_stock(&self) -> bool {
        self.has_issue()
            && self
                .state_items
                .iter()
                .any(|i| !i.mechanism.survives_stock_restart())
    }

    /// Predicted: does RCHDroid fix every lossy item?
    pub fn fixed_by_rchdroid(&self) -> bool {
        self.state_items
            .iter()
            .filter(|i| !i.mechanism.survives_stock_restart())
            .all(|i| i.mechanism.fixed_by_rchdroid())
    }

    /// Builds the runnable black-box app.
    pub fn build(&self) -> GenericApp {
        GenericApp::new(self.clone())
    }

    /// The async task the scenario starts (targets a dedicated framework
    /// view so the callback exercises the crash path under stock).
    pub fn async_task(&self) -> AsyncSpec {
        AsyncSpec {
            duration: SimDuration::from_secs(5),
            result: AsyncResult {
                ops: vec![(
                    "async_target".to_owned(),
                    ViewOp::SetText("async done".into()),
                )],
                shows_dialog: false,
            },
        }
    }

    /// The async write racing the data-loss scenario's rotations: a
    /// 5-second task that writes each async-owned field's expected value
    /// into its layout view. `None` when the scenario has no such field.
    pub fn dataloss_async_task(&self) -> Option<AsyncSpec> {
        let dl = self.dataloss.as_ref()?;
        let ops: Vec<(String, ViewOp)> = dl
            .fields
            .iter()
            .filter(|f| f.owner == FieldOwner::AsyncView)
            .map(|f| (f.key.clone(), ViewOp::SetText(f.test_value.clone())))
            .collect();
        if ops.is_empty() {
            return None;
        }
        Some(AsyncSpec {
            duration: SimDuration::from_secs(5),
            result: AsyncResult {
                ops,
                shows_dialog: false,
            },
        })
    }
}

pub(crate) fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `content_0` … `content_{n-1}`, the image ids of an `n`-image layout.
/// The names are interned once per process, into a list that grows
/// under a lock as larger apps ask for more; each build copies the
/// prefix it needs, so it pays no interner probe for a name an earlier
/// build made.
fn content_names(n: usize) -> Vec<Symbol> {
    static NAMES: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());
    if let Some(prefix) = NAMES
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(..n)
    {
        return prefix.to_vec();
    }
    let mut names = NAMES.write().unwrap_or_else(PoisonError::into_inner);
    let mut name = String::new();
    for i in names.len()..n {
        name.clear();
        let _ = write!(name, "content_{i}");
        names.push(Symbol::intern(&name));
    }
    names[..n].to_vec()
}

/// The runnable generic app.
#[derive(Debug)]
pub struct GenericApp {
    spec: GenericAppSpec,
    component: String,
    /// Built from the spec on the first [`AppModel::resources`] call: a
    /// probe copy that only applies or checks state never builds layouts.
    resources: OnceLock<ResourceTable>,
    /// The app's persistent store ("disk"): written through at
    /// interaction time by store-persisted data-loss fields, re-read in
    /// `on_create`. Outlives any activity instance — and, unlike the
    /// instance bundle, even a reclaimed process record. Shared with
    /// probe copies via [`GenericApp::shared_probe`].
    store: Arc<Mutex<HashMap<String, String>>>,
}

impl GenericApp {
    /// Builds the app from its descriptor. The resource table — layouts
    /// for both orientations, image views sized so one activity's heap
    /// hits the spec target — is built on the first
    /// [`AppModel::resources`] call.
    pub fn new(spec: GenericAppSpec) -> Self {
        let component = format!(
            "com.{}/.Main",
            spec.name
                .to_ascii_lowercase()
                .replace([' ', '+', '&', '.', '\''], "")
        );
        GenericApp {
            spec,
            component,
            resources: OnceLock::new(),
            store: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The resource table `spec` describes.
    fn build_resources(spec: &GenericAppSpec) -> ResourceTable {
        let image_count = spec.view_count.max(1);
        let per_image = spec.activity_heap_bytes / image_count as u64;

        // The names every image node repeats, interned once per build
        // and shared by both orientations: an intern is a shard lock and
        // a hash probe, as dear as the allocation it saves.
        let image_view = Symbol::intern("ImageView");
        let src = Symbol::intern("src");
        let asset_ref = Symbol::intern("@drawable/asset");
        let content_ids = content_names(image_count);
        let extra_children =
            1 + spec.state_items.len() + spec.dataloss.as_ref().map_or(0, |dl| dl.fields.len());

        let mut resources = ResourceTable::new();
        for (qualifiers, container) in [
            (Qualifiers::any(), "LinearLayout"),
            (
                Qualifiers::any().with_orientation(droidsim_config::Orientation::Landscape),
                "GridLayout",
            ),
        ] {
            let mut root = LayoutNode::new(container).with_id("root");
            root.children.reserve_exact(image_count + extra_children);
            // Pushed into the reserved list: a `with_child` per node
            // would move the root through a builder call each time.
            let children = &mut root.children;
            for &id in &content_ids {
                children.push(
                    LayoutNode::new(image_view)
                        .with_id(id)
                        .with_attr(src, asset_ref),
                );
            }
            // The async-task target.
            children.push(LayoutNode::new("TextView").with_id("async_target"));
            // One layout-declared custom view per CustomViewNoSave item.
            for item in &spec.state_items {
                if item.mechanism == StateMechanism::CustomViewNoSave
                    || item.mechanism == StateMechanism::FrameworkView
                {
                    let class = if item.mechanism == StateMechanism::CustomViewNoSave {
                        "com.app.StatefulEditText"
                    } else {
                        "EditText"
                    };
                    children.push(LayoutNode::new(class).with_id(&item.key));
                }
            }
            // Layout-declared homes for data-loss fields: a fragment
            // container per fragment field, the async write's target
            // view, and the uncommitted input view. Dialog fields have
            // no layout presence (their subtree is created in code when
            // the dialog is shown); member fields have no view at all.
            if let Some(dl) = &spec.dataloss {
                for f in &dl.fields {
                    let home = match f.owner {
                        FieldOwner::Fragment => {
                            LayoutNode::new("FrameLayout").with_id(&format!("frag_{}", f.key))
                        }
                        FieldOwner::AsyncView => LayoutNode::new("TextView").with_id(&f.key),
                        FieldOwner::InputView => {
                            LayoutNode::new("com.app.InFlightEditText").with_id(&f.key)
                        }
                        FieldOwner::Member | FieldOwner::Dialog => continue,
                    };
                    children.push(home);
                }
            }
            resources.put(
                "activity_main",
                qualifiers,
                ResourceValue::Layout(LayoutTemplate::new("activity_main", root)),
            );
        }
        // One layout resource per fragment field, shared by both
        // orientations.
        if let Some(dl) = &spec.dataloss {
            for f in &dl.fields {
                if f.owner == FieldOwner::Fragment {
                    let name = format!("fragment_{}", f.key);
                    let root = LayoutNode::new("LinearLayout")
                        .with_id(&format!("fragroot_{}", f.key))
                        .with_child(LayoutNode::new("com.app.FieldEditText").with_id(&f.key));
                    resources.put(
                        &name,
                        Qualifiers::any(),
                        ResourceValue::Layout(LayoutTemplate::new(&name, root)),
                    );
                }
            }
        }
        resources.put(
            "asset",
            Qualifiers::any(),
            ResourceValue::drawable("asset.png", per_image),
        );
        resources
    }

    /// A probe copy sharing this app's persistent store, for oracles
    /// that install one copy into a device and apply/inspect state
    /// through another: store writes made through either copy are seen
    /// by both, like two handles on the same disk. The copy takes the
    /// resource table if this app has built it, and builds its own on
    /// first use otherwise.
    pub fn shared_probe(&self) -> GenericApp {
        GenericApp {
            spec: self.spec.clone(),
            component: self.component.clone(),
            resources: self.resources.clone(),
            store: Arc::clone(&self.store),
        }
    }

    /// The descriptor this app was built from.
    pub fn spec(&self) -> &GenericAppSpec {
        &self.spec
    }

    /// Applies the test scenario's user interaction: fills every state
    /// item with its test value.
    pub fn apply_user_state(&self, activity: &mut Activity) {
        for item in &self.spec.state_items {
            if item.mechanism.is_view_held() {
                if let Some(view) = activity.tree.find_by_id_name(&item.key) {
                    let _ = activity
                        .tree
                        .apply(view, ViewOp::SetText(item.test_value.clone()));
                }
            } else {
                activity
                    .member_state
                    .put_string(&item.key, &item.test_value);
            }
        }
        activity.tree.drain_invalidations();
    }

    /// Checks which state items still hold their test value.
    pub fn surviving_state(&self, activity: &Activity) -> Vec<(&StateItem, bool)> {
        self.spec
            .state_items
            .iter()
            .map(|item| {
                let survived = if item.mechanism.is_view_held() {
                    activity
                        .tree
                        .find_by_id_name(&item.key)
                        .and_then(|v| activity.tree.view(v).ok())
                        .and_then(|v| v.attrs.text.clone())
                        .is_some_and(|t| t == item.test_value)
                } else {
                    activity.member_state.string(&item.key) == Some(item.test_value.as_str())
                };
                (item, survived)
            })
            .collect()
    }

    /// Whether every state item survived (the app's issue is fixed).
    pub fn all_state_survived(&self, activity: &Activity) -> bool {
        self.surviving_state(activity).iter().all(|(_, ok)| *ok)
    }

    /// Shows a dialog-like subtree for a data-loss field: a container
    /// plus the field view, created in code and absent from the layout
    /// resource, neither participating in hierarchy save/restore — the
    /// sub-state-owner shape the paper's data-loss taxonomy flags.
    fn show_dialog(activity: &mut Activity, key: &str) {
        let panel_id = format!("dlg_{key}");
        if activity.tree.find_by_id_name(&panel_id).is_some() {
            return;
        }
        let root = activity
            .tree
            .find_by_id_name("root")
            .unwrap_or_else(|| activity.tree.root());
        let Ok(panel) = activity.tree.add_view(
            root,
            ViewKind::from_class_name("com.app.DialogLayout"),
            Some(&panel_id),
        ) else {
            return;
        };
        let _ = activity.tree.set_saves_state(panel, false);
        if let Ok(field) = activity.tree.add_view(
            panel,
            ViewKind::from_class_name("com.app.DialogEditText"),
            Some(key),
        ) {
            let _ = activity.tree.set_saves_state(field, false);
        }
    }

    /// Sets a view's text directly (the restore-path analogue of a user
    /// typing into it; bypasses the invalidation channel on purpose).
    fn set_view_text(activity: &mut Activity, key: &str, value: &str) {
        if let Some(view) = activity.tree.find_by_id_name(key) {
            let _ = activity
                .tree
                .edit_attrs(view, |attrs| attrs.text = Some(value.to_owned()));
        }
    }

    /// The bundle key a dialog field's value is explicitly saved under.
    fn dialog_key(key: &str) -> String {
        format!("dialog:{key}")
    }

    /// The store key marking a dialog as open.
    fn open_key(key: &str) -> String {
        format!("{key}:open")
    }

    /// Applies the data-loss scenario's user interaction: commits every
    /// field's expected value into its owner (member, dialog, fragment
    /// view, input view), writing store-persisted fields through to the
    /// persistent store. Async-owned fields are *not* set here — their
    /// value arrives via [`GenericAppSpec::dataloss_async_task`].
    pub fn apply_dataloss_state(&self, activity: &mut Activity) {
        let Some(dl) = &self.spec.dataloss else {
            return;
        };
        let mut store = self.store.lock().unwrap();
        for f in &dl.fields {
            match f.owner {
                FieldOwner::Member => {
                    activity.member_state.put_string(&f.key, &f.test_value);
                }
                FieldOwner::Dialog => {
                    Self::show_dialog(activity, &f.key);
                    Self::set_view_text(activity, &f.key, &f.test_value);
                    if f.persistence == FieldPersistence::StorePersisted {
                        store.insert(Self::open_key(&f.key), "open".to_owned());
                    }
                }
                FieldOwner::Fragment | FieldOwner::InputView => {
                    Self::set_view_text(activity, &f.key, &f.test_value);
                }
                FieldOwner::AsyncView => {}
            }
            if f.persistence == FieldPersistence::StorePersisted {
                store.insert(f.key.clone(), f.test_value.clone());
            }
        }
        activity.tree.drain_invalidations();
    }

    /// Checks which data-loss fields still hold their expected value on
    /// the given instance.
    pub fn dataloss_surviving(&self, activity: &Activity) -> Vec<(&crate::DataLossField, bool)> {
        let Some(dl) = &self.spec.dataloss else {
            return Vec::new();
        };
        dl.fields
            .iter()
            .map(|f| {
                let survived = if f.owner == FieldOwner::Member {
                    activity.member_state.string(&f.key) == Some(f.test_value.as_str())
                } else {
                    activity
                        .tree
                        .find_by_id_name(&f.key)
                        .and_then(|v| activity.tree.view(v).ok())
                        .and_then(|v| v.attrs.text.clone())
                        .is_some_and(|t| t == f.test_value)
                };
                (f, survived)
            })
            .collect()
    }
}

impl AppModel for GenericApp {
    fn component_name(&self) -> &str {
        &self.component
    }

    fn resources(&self) -> &ResourceTable {
        self.resources
            .get_or_init(|| Self::build_resources(&self.spec))
    }

    fn main_layout(&self) -> &str {
        "activity_main"
    }

    fn handled_changes(&self) -> ConfigChanges {
        if self.spec.handles_changes {
            ConfigChanges::ALL
        } else {
            ConfigChanges::NONE
        }
    }

    fn implements_save_instance_state(&self) -> bool {
        self.spec.saves_instance_state
    }

    fn on_create(&self, activity: &mut Activity) {
        // Custom views do not participate in hierarchy save/restore.
        for item in &self.spec.state_items {
            match item.mechanism {
                StateMechanism::CustomViewNoSave => {
                    if let Some(view) = activity.tree.find_by_id_name(&item.key) {
                        let _ = activity.tree.set_saves_state(view, false);
                    }
                }
                StateMechanism::DynamicViewNoSave => {
                    // Created by code, absent from the layout resource.
                    let root = activity
                        .tree
                        .find_by_id_name("root")
                        .unwrap_or_else(|| activity.tree.root());
                    if activity.tree.find_by_id_name(&item.key).is_none() {
                        if let Ok(view) = activity.tree.add_view(
                            root,
                            ViewKind::from_class_name("com.app.DynamicEditText"),
                            Some(&item.key),
                        ) {
                            let _ = activity.tree.set_saves_state(view, false);
                        }
                    }
                }
                _ => {}
            }
        }

        // Data-loss mechanics: attach fragments, mark non-saving views,
        // and replay the persistent store into members, fragment views
        // and re-shown dialogs.
        if let Some(dl) = &self.spec.dataloss {
            let store = self.store.lock().unwrap();
            for f in &dl.fields {
                match f.owner {
                    FieldOwner::Fragment => {
                        let fragment = FragmentSpec::new(
                            &format!("tag_{}", f.key),
                            &format!("fragment_{}", f.key),
                            &format!("frag_{}", f.key),
                        );
                        let _ = activity.attach_fragment(self.resources(), &fragment);
                        // Only a bundle-saved fragment field participates
                        // in hierarchy save/restore.
                        if f.persistence != FieldPersistence::BundleSaved {
                            if let Some(view) = activity.tree.find_by_id_name(&f.key) {
                                let _ = activity.tree.set_saves_state(view, false);
                            }
                        }
                        if f.persistence == FieldPersistence::StorePersisted {
                            if let Some(v) = store.get(&f.key) {
                                Self::set_view_text(activity, &f.key, v);
                            }
                        }
                    }
                    FieldOwner::InputView => {
                        // Uncommitted input: the app never wired this
                        // view into any save site.
                        if let Some(view) = activity.tree.find_by_id_name(&f.key) {
                            let _ = activity.tree.set_saves_state(view, false);
                        }
                    }
                    FieldOwner::Member => {
                        if f.persistence == FieldPersistence::StorePersisted {
                            if let Some(v) = store.get(&f.key) {
                                activity.member_state.put_string(&f.key, v);
                            }
                        }
                    }
                    FieldOwner::Dialog => {
                        // A store-persisted dialog re-shows itself from
                        // the open marker; a bundle-saved one re-shows in
                        // on_restore_instance_state; a transient one is
                        // simply gone.
                        if f.persistence == FieldPersistence::StorePersisted
                            && store.contains_key(&Self::open_key(&f.key))
                        {
                            Self::show_dialog(activity, &f.key);
                            if let Some(v) = store.get(&f.key) {
                                Self::set_view_text(activity, &f.key, v);
                            }
                        }
                    }
                    FieldOwner::AsyncView => {}
                }
            }
        }
    }

    fn on_save_instance_state(&self, activity: &Activity, out: &mut Bundle) {
        // The app saves only the fields it knows to save.
        for item in &self.spec.state_items {
            if item.mechanism == StateMechanism::MemberSaved {
                if let Some(v) = activity.member_state.string(&item.key) {
                    out.put_string(&item.key, v);
                }
            }
        }
        if let Some(dl) = &self.spec.dataloss {
            for f in &dl.fields {
                if f.persistence != FieldPersistence::BundleSaved {
                    continue;
                }
                match f.owner {
                    FieldOwner::Member => {
                        if let Some(v) = activity.member_state.string(&f.key) {
                            out.put_string(&f.key, v);
                        }
                    }
                    FieldOwner::Dialog => {
                        // Explicitly parcel the open dialog's value; the
                        // hierarchy bundle never sees its subtree.
                        let value = activity
                            .tree
                            .find_by_id_name(&f.key)
                            .and_then(|v| activity.tree.view(v).ok())
                            .and_then(|v| v.attrs.text.clone());
                        if let Some(v) = value {
                            out.put_string(&Self::dialog_key(&f.key), &v);
                        }
                    }
                    // Fragment fields ride the hierarchy bundle; async
                    // and input fields have nothing committed to save.
                    _ => {}
                }
            }
        }
    }

    fn on_restore_instance_state(&self, activity: &mut Activity, saved: &Bundle) {
        // Default behaviour first: members come back from the bundle.
        activity.member_state.merge(saved.clone());
        // Then re-show bundle-saved dialogs from their parceled values.
        if let Some(dl) = &self.spec.dataloss {
            for f in &dl.fields {
                if f.owner == FieldOwner::Dialog && f.persistence == FieldPersistence::BundleSaved {
                    if let Some(v) = saved.string(&Self::dialog_key(&f.key)).map(str::to_owned) {
                        Self::show_dialog(activity, &f.key);
                        Self::set_view_text(activity, &f.key, &v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_app::{ActivityInstanceId, ActivityThread};
    use droidsim_atms::ActivityRecordId;
    use droidsim_config::Configuration;

    fn spec_with(mechanism: StateMechanism) -> GenericAppSpec {
        let mut spec = GenericAppSpec::sized("TestApp", "1K+", false);
        spec.state_items
            .push(StateItem::new("the_state", mechanism, "value-1"));
        if mechanism == StateMechanism::MemberSaved {
            spec.saves_instance_state = true;
        }
        spec
    }

    fn launched(app: &GenericApp) -> Activity {
        let mut a = Activity::new(
            ActivityInstanceId::new(0),
            ActivityRecordId::new(0),
            app.component_name(),
            Configuration::phone_portrait(),
        );
        a.perform_create(app, None);
        a
    }

    #[test]
    fn layout_contains_content_and_state_views() {
        let spec = spec_with(StateMechanism::CustomViewNoSave);
        let app = spec.build();
        let a = launched(&app);
        assert!(a.tree.find_by_id_name("content_0").is_some());
        assert!(a.tree.find_by_id_name("async_target").is_some());
        assert!(a.tree.find_by_id_name("the_state").is_some());
    }

    #[test]
    fn custom_view_is_marked_non_saving() {
        let app = spec_with(StateMechanism::CustomViewNoSave).build();
        let a = launched(&app);
        let v = a.tree.find_by_id_name("the_state").unwrap();
        assert!(!a.tree.view(v).unwrap().saves_state);
    }

    #[test]
    fn dynamic_view_is_added_in_on_create() {
        let app = spec_with(StateMechanism::DynamicViewNoSave).build();
        let a = launched(&app);
        let v = a.tree.find_by_id_name("the_state").unwrap();
        assert!(!a.tree.view(v).unwrap().saves_state);
    }

    #[test]
    fn user_state_round_trip_detection() {
        let app = spec_with(StateMechanism::FrameworkView).build();
        let mut a = launched(&app);
        assert!(!app.all_state_survived(&a), "unset at first");
        app.apply_user_state(&mut a);
        assert!(app.all_state_survived(&a));
    }

    #[test]
    fn member_state_applies_to_fields() {
        let app = spec_with(StateMechanism::MemberUnsaved).build();
        let mut a = launched(&app);
        app.apply_user_state(&mut a);
        assert_eq!(a.member_state.string("the_state"), Some("value-1"));
    }

    #[test]
    fn framework_view_state_survives_stock_restart() {
        let app = spec_with(StateMechanism::FrameworkView).build();
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        app.apply_user_state(thread.instance_mut(id).unwrap());
        let saved = thread.instance(id).unwrap().save_instance_state(&app);
        thread.destroy_activity(id).unwrap();
        let new_id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_landscape(),
            Some(&saved),
        );
        assert!(app.all_state_survived(thread.instance(new_id).unwrap()));
    }

    #[test]
    fn custom_view_state_is_lost_on_stock_restart() {
        let app = spec_with(StateMechanism::CustomViewNoSave).build();
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        app.apply_user_state(thread.instance_mut(id).unwrap());
        let saved = thread.instance(id).unwrap().save_instance_state(&app);
        thread.destroy_activity(id).unwrap();
        let new_id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_landscape(),
            Some(&saved),
        );
        assert!(!app.all_state_survived(thread.instance(new_id).unwrap()));
    }

    #[test]
    fn member_saved_state_survives_stock_restart() {
        let app = spec_with(StateMechanism::MemberSaved).build();
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        app.apply_user_state(thread.instance_mut(id).unwrap());
        let saved = thread.instance(id).unwrap().save_instance_state(&app);
        thread.destroy_activity(id).unwrap();
        let new_id = thread.perform_launch_activity(
            &app,
            ActivityRecordId::new(0),
            Configuration::phone_landscape(),
            Some(&saved),
        );
        assert!(app.all_state_survived(thread.instance(new_id).unwrap()));
    }

    #[test]
    fn resource_table_is_the_same_whenever_it_is_built() {
        use crate::{DataLossClass, DataLossField, DataLossScenario};
        let mut spec = spec_with(StateMechanism::CustomViewNoSave);
        spec.dataloss = Some(DataLossScenario::new(
            DataLossClass::SubStateOwner,
            vec![
                DataLossField::new(
                    "frag_field",
                    FieldOwner::Fragment,
                    FieldPersistence::StorePersisted,
                ),
                DataLossField::new(
                    "in_field",
                    FieldOwner::InputView,
                    FieldPersistence::Transient,
                ),
            ],
        ));
        for second_builds_first in [false, true] {
            let (first, second) = (spec.build(), spec.build());
            // Taken before either app has built its table.
            let early = second.shared_probe();
            if second_builds_first {
                second.resources();
            }
            let (a, b) = (first.resources(), second.resources());
            assert!(a
                .resolve_layout("fragment_frag_field", &Configuration::phone_portrait())
                .is_ok());
            let late = first.shared_probe();
            for table in [b, early.resources(), late.resources()] {
                assert_eq!(table, a);
            }
        }
    }

    #[test]
    fn content_names_are_the_same_whatever_size_asked_first() {
        let text = |names: Vec<Symbol>| names.iter().map(|s| s.as_str()).collect::<Vec<_>>();
        for n in [3, 7, 2, 0, 7] {
            let expected: Vec<String> = (0..n).map(|i| format!("content_{i}")).collect();
            assert_eq!(text(content_names(n)), expected);
        }
    }

    #[test]
    fn sized_parameters_are_deterministic_and_in_range() {
        let a = GenericAppSpec::sized("Twitter", "1B+", true);
        let b = GenericAppSpec::sized("Twitter", "1B+", true);
        assert_eq!(a, b, "same name → same parameters");
        assert!((80..=250).contains(&a.view_count));
        assert!(a.complexity >= 1.5 && a.complexity <= 2.3);
        let small = GenericAppSpec::sized("AlarmKlock", "500K+", false);
        assert!(small.view_count < a.view_count);
    }

    #[test]
    fn activity_heap_matches_spec_target() {
        let spec = spec_with(StateMechanism::FrameworkView);
        let app = spec.build();
        let a = launched(&app);
        let heap = a.heap_bytes() as f64;
        let target = spec.activity_heap_bytes as f64;
        assert!(
            (heap - target).abs() / target < 0.05,
            "heap {heap} vs target {target}"
        );
    }

    #[test]
    fn predictions_match_mechanism_table() {
        use StateMechanism::*;
        for (m, stock, rch, rtd) in [
            (FrameworkView, true, true, true),
            (CustomViewNoSave, false, true, true),
            (DynamicViewNoSave, false, true, false),
            (MemberSaved, true, true, true),
            (MemberUnsaved, false, false, true),
        ] {
            assert_eq!(m.survives_stock_restart(), stock, "{m:?}");
            assert_eq!(m.fixed_by_rchdroid(), rch, "{m:?}");
            assert_eq!(m.fixed_by_runtimedroid(), rtd, "{m:?}");
        }
    }
}
