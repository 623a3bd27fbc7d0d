//! The RuntimeDroid baseline (Farooq & Zhao, MobiSys'18).
//!
//! RuntimeDroid is the state-of-the-art *Static-Analysis-way* comparator
//! in the paper's §5.7: an automatic patch tool that rewrites each app so
//! a runtime change no longer restarts the activity — the patched app
//! reloads resources and reconstructs its view tree *in place*, on the
//! same instance (hot resource reloading + dynamic view migration).
//!
//! Consequences the model reproduces:
//!
//! * **Faster than RCHDroid** — no second instance is created and no
//!   system-level IPC round trip is paid (Fig. 12),
//! * **Member state survives for free** — the instance is never destroyed,
//! * **But it needs per-app patches** — 760–2077 modified LoC per app
//!   (Table 4), and its static view reconstruction cannot rebuild views
//!   that are not declared in the layout resource (dynamically created
//!   views are dropped — the limitation §2.2 describes),
//! * **Per-app deployment cost** — patching takes 12.9–161.6 s per app
//!   versus one 92.87 s system image deployment for RCHDroid.

use droidsim_app::{ActivityInstanceId, ActivityThread, AppModel, ThreadError};
use droidsim_atms::{ActivityRecordId, Atms, AtmsError, ConfigDecision};

/// The outcome of RuntimeDroid's in-place handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtdOutcome {
    /// The (single, preserved) activity instance.
    pub instance: ActivityInstanceId,
    /// Views in the reconstructed tree.
    pub view_count: usize,
    /// Views present before reconstruction but not re-creatable from the
    /// layout resource (the static tool's blind spot).
    pub dropped_dynamic_views: usize,
}

/// Baseline errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RtdError {
    /// Nothing in the foreground.
    NoForegroundActivity,
    /// Activity-thread failure.
    Thread(ThreadError),
    /// ATMS failure.
    Atms(AtmsError),
}

impl core::fmt::Display for RtdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RtdError::NoForegroundActivity => write!(f, "no foreground activity"),
            RtdError::Thread(e) => write!(f, "{e}"),
            RtdError::Atms(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RtdError {}

impl From<ThreadError> for RtdError {
    fn from(e: ThreadError) -> Self {
        RtdError::Thread(e)
    }
}

impl From<AtmsError> for RtdError {
    fn from(e: AtmsError) -> Self {
        RtdError::Atms(e)
    }
}

/// The RuntimeDroid handler: in-place resource reload + view-tree
/// reconstruction on the surviving instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeDroid;

impl RuntimeDroid {
    /// Creates the handler.
    pub fn new() -> Self {
        RuntimeDroid
    }

    /// Handles a runtime change for the foreground activity: saves the
    /// hierarchy state, re-inflates the layout for the new configuration
    /// *into the same instance*, and restores the state. Dynamic views
    /// (added by code, absent from the layout resource) are lost.
    ///
    /// # Errors
    ///
    /// [`RtdError::NoForegroundActivity`] without a foreground activity;
    /// propagated thread/ATMS errors otherwise.
    pub fn handle_configuration_change(
        &self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        model: &dyn AppModel,
    ) -> Result<RtdOutcome, RtdError> {
        let record: ActivityRecordId = atms
            .foreground_record()
            .ok_or(RtdError::NoForegroundActivity)?;
        let instance = thread
            .instance_for_token(record)
            .ok_or(RtdError::NoForegroundActivity)?;
        // The patched app masks the relaunch (equivalent to RCHDroid's
        // prevent flag at the record level).
        let decision = atms.ensure_activity_configuration(record, true)?;
        if decision == ConfigDecision::NoChange {
            let a = thread.instance(instance)?;
            return Ok(RtdOutcome {
                instance,
                view_count: a.tree.view_count(),
                dropped_dynamic_views: 0,
            });
        }

        // Hot reload: re-inflate the layout resource for the new config,
        // through the process's inflation cache like any creation.
        let config = *atms.global_config();
        let (mut tree, _) = thread.inflate_main_layout(model, &config);
        let activity = thread.instance_mut(instance)?;
        let old_count = activity.tree.view_count();
        let hierarchy = activity.tree.save_hierarchy_state();
        tree.restore_hierarchy_state(&hierarchy);
        // Dynamic migration: RuntimeDroid's patch copies live view values
        // object-to-object, so state survives even for views that do not
        // implement onSaveInstanceState — as long as the view is declared
        // in the layout resource and can be matched by id. Each old name's
        // indexed view hands its user state to every new view of that
        // name (names never share a view, so the index's iteration order
        // cannot matter), while the freshly loaded resources (drawables,
        // strings) of the new configuration are kept: label text is
        // content (possibly localized for the old configuration), not
        // user state.
        for (&name, &old_id) in activity.tree.id_name_index() {
            let user_state = activity
                .tree
                .view(old_id)
                .ok()
                .and_then(|old| old.attrs.user_state(old.freezes_text));
            if let Some(state) = user_state {
                tree.restore_user_state_of(name, &state);
            }
        }
        let new_count = tree.view_count();
        activity.tree = tree;
        // Member state survives untouched: same instance, no restart.

        Ok(RtdOutcome {
            instance,
            view_count: new_count,
            dropped_dynamic_views: old_count.saturating_sub(new_count),
        })
    }
}

/// One row of Table 4: the per-app patching cost of RuntimeDroid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchInfo {
    /// App name.
    pub app: &'static str,
    /// App LoC on stock Android 10.
    pub loc_android10: u32,
    /// App LoC after RuntimeDroid patching.
    pub loc_runtimedroid: u32,
}

impl PatchInfo {
    /// Modified LoC (Table 4's last column).
    pub fn modification_loc(&self) -> u32 {
        self.loc_runtimedroid - self.loc_android10
    }
}

/// Table 4's eight evaluation apps.
pub fn table4_apps() -> Vec<PatchInfo> {
    vec![
        PatchInfo {
            app: "Mdapp",
            loc_android10: 26_342,
            loc_runtimedroid: 28_419,
        },
        PatchInfo {
            app: "Remindly",
            loc_android10: 6_966,
            loc_runtimedroid: 7_820,
        },
        PatchInfo {
            app: "AlarmKlock",
            loc_android10: 2_838,
            loc_runtimedroid: 3_610,
        },
        PatchInfo {
            app: "Weather",
            loc_android10: 10_949,
            loc_runtimedroid: 12_208,
        },
        PatchInfo {
            app: "PDFCreator",
            loc_android10: 19_624,
            loc_runtimedroid: 20_895,
        },
        PatchInfo {
            app: "Sieben",
            loc_android10: 20_518,
            loc_runtimedroid: 22_123,
        },
        PatchInfo {
            app: "AndroPTPB",
            loc_android10: 3_405,
            loc_runtimedroid: 5_127,
        },
        PatchInfo {
            app: "VlilleChecker",
            loc_android10: 12_083,
            loc_runtimedroid: 12_843,
        },
    ]
}

/// Deployment-cost constants (§5.7): RCHDroid deploys one system image;
/// RuntimeDroid patches every app.
pub mod deployment {
    /// RCHDroid's one-off system deployment time (ms).
    pub const RCHDROID_SYSTEM_DEPLOY_MS: u64 = 92_870;
    /// RuntimeDroid's per-app patch time range (ms).
    pub const RUNTIMEDROID_PATCH_MS: (u64, u64) = (12_867, 161_598);
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_app::SimpleApp;
    use droidsim_atms::Intent;
    use droidsim_config::Configuration;
    use droidsim_view::{ViewKind, ViewOp};

    fn boot() -> (SimpleApp, Atms, ActivityThread, ActivityInstanceId) {
        let model = SimpleApp::with_views(3);
        let mut atms = Atms::new(Configuration::phone_portrait());
        let mut thread = ActivityThread::new();
        let start = atms.start_activity(&Intent::new(model.component_name()));
        let instance = thread.perform_launch_activity(
            &model,
            start.record,
            Configuration::phone_portrait(),
            None,
        );
        thread.resume_sequence(instance, false).unwrap();
        (model, atms, thread, instance)
    }

    #[test]
    fn in_place_handling_keeps_the_instance() {
        let (model, mut atms, mut thread, instance) = boot();
        atms.update_global_config(Configuration::phone_landscape());
        let outcome = RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        assert_eq!(outcome.instance, instance);
        assert_eq!(thread.alive_instances().len(), 1, "no second instance ever");
    }

    #[test]
    fn member_state_survives_for_free() {
        let (model, mut atms, mut thread, instance) = boot();
        thread
            .instance_mut(instance)
            .unwrap()
            .member_state
            .put_i32("field", 9);
        atms.update_global_config(Configuration::phone_landscape());
        RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        assert_eq!(
            thread.instance(instance).unwrap().member_state.i32("field"),
            Some(9)
        );
    }

    #[test]
    fn view_state_restores_through_hierarchy() {
        let (model, mut atms, mut thread, instance) = boot();
        {
            let a = thread.instance_mut(instance).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(480)).unwrap();
        }
        atms.update_global_config(Configuration::phone_landscape());
        RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        let a = thread.instance(instance).unwrap();
        let root = a.tree.find_by_id_name("root").unwrap();
        assert_eq!(a.tree.view(root).unwrap().attrs.scroll_y(), 480);
    }

    #[test]
    fn dynamic_views_are_dropped() {
        // §2.2: RuntimeDroid's static reconstruction cannot rebuild views
        // created by code.
        let (model, mut atms, mut thread, instance) = boot();
        {
            let a = thread.instance_mut(instance).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree
                .add_view(root, ViewKind::TextView, Some("dynamic_banner"))
                .unwrap();
        }
        atms.update_global_config(Configuration::phone_landscape());
        let outcome = RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        assert_eq!(outcome.dropped_dynamic_views, 1);
        let a = thread.instance(instance).unwrap();
        assert!(a.tree.find_by_id_name("dynamic_banner").is_none());
    }

    #[test]
    fn async_task_cannot_crash_the_surviving_instance() {
        let (model, mut atms, mut thread, instance) = boot();
        thread
            .start_async(
                instance,
                model.button_task(),
                droidsim_kernel::SimTime::ZERO,
            )
            .unwrap();
        atms.update_global_config(Configuration::phone_landscape());
        RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        let due = thread.take_due_async(droidsim_kernel::SimTime::from_secs(5));
        thread.deliver_async(&model, &due[0]).unwrap();
    }

    #[test]
    fn table4_matches_the_paper() {
        let apps = table4_apps();
        assert_eq!(apps.len(), 8);
        let mods: Vec<u32> = apps.iter().map(PatchInfo::modification_loc).collect();
        assert_eq!(mods, vec![2077, 854, 772, 1259, 1271, 1605, 1722, 760]);
        let (lo, hi) = (mods.iter().min().unwrap(), mods.iter().max().unwrap());
        assert_eq!((*lo, *hi), (760, 2077), "the 760–2077 LoC range of §5.7");
    }

    #[test]
    fn no_change_is_a_cheap_no_op() {
        let (model, mut atms, mut thread, instance) = boot();
        let same = *atms.global_config();
        atms.update_global_config(same);
        let outcome = RuntimeDroid::new()
            .handle_configuration_change(&mut thread, &mut atms, &model)
            .unwrap();
        assert_eq!(outcome.instance, instance);
        assert_eq!(outcome.dropped_dynamic_views, 0);
    }
}
