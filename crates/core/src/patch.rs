//! The paper's patch inventory (Table 2) and its mapping onto this
//! reproduction's hook points.
//!
//! The prototype modifies eight Android 10 classes with 348 LoC in total.
//! Each entry below names the class, the modification, the paper's LoC
//! count, and where the equivalent mechanism lives in this codebase — so
//! a reader can audit that every patched behaviour is reproduced.

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchEntry {
    /// Patched Android class.
    pub class: &'static str,
    /// What the paper's patch does there.
    pub modification: &'static str,
    /// Lines of code in the paper's patch.
    pub loc: u32,
    /// Where the equivalent mechanism lives in this reproduction.
    pub reproduced_in: &'static str,
}

/// The full Table 2 inventory.
pub fn patch_inventory() -> Vec<PatchEntry> {
    vec![
        PatchEntry {
            class: "Activity",
            modification: "Add the Shadow/Sunny state and related functions \
                           (getAllSunnyViews, setSunnyViews)",
            loc: 81,
            reproduced_in: "droidsim_app::ActivityState::{Shadow,Sunny}, \
                            droidsim_view::ViewTree::id_name_index (setSunnyViews \
                            stores nothing: a peer is looked up there)",
        },
        PatchEntry {
            class: "View",
            modification: "Add the Shadow/Sunny state and the sunny view pointer; \
                           modify the invalidate function to catch updates",
            loc: 79,
            reproduced_in: "droidsim_view::ViewTree::{peer_in,invalidate,\
                            drain_invalidations}",
        },
        PatchEntry {
            class: "ViewGroup",
            modification: "Add dispatchShadowStateChanged / dispatchSunnyStateChanged",
            loc: 12,
            reproduced_in: "droidsim_view::ViewTree::{dispatch_shadow_state_changed,\
                            dispatch_sunny_state_changed}",
        },
        PatchEntry {
            class: "Intent",
            modification: "Add the sunny flag",
            loc: 4,
            reproduced_in: "droidsim_atms::IntentFlags::SUNNY",
        },
        PatchEntry {
            class: "ActivityThread",
            modification: "Add shadow/sunny instance pointers and the GC routine; modify \
                           performActivityConfigurationChanged, performLaunchActivity, \
                           handleResumeActivity",
            loc: 91,
            reproduced_in: "droidsim_app::ActivityThread::{current_shadow,current_sunny,\
                            enter_shadow,perform_launch_activity,resume_sequence}, \
                            rchdroid::RchDroid::{handle_configuration_change,run_gc}",
        },
        PatchEntry {
            class: "ActivityRecord",
            modification: "Add the Shadow state and interfaces; modify \
                           ensureActivityConfiguration to avoid relaunching",
            loc: 11,
            reproduced_in: "droidsim_atms::ActivityRecord::{is_shadow,set_shadow}, \
                            droidsim_atms::Atms::ensure_activity_configuration",
        },
        PatchEntry {
            class: "ActivityStack",
            modification: "Add findShadowActivityLocked",
            loc: 29,
            reproduced_in: "droidsim_atms::TaskRecord::find_shadow_activity",
        },
        PatchEntry {
            class: "ActivityStarter",
            modification: "Modify startActivityUnchecked / setTaskFromIntentActivity for \
                           the coin-flipping scheme",
            loc: 41,
            reproduced_in: "droidsim_atms::Atms::start_activity_with_mask (SUNNY path)",
        },
    ]
}

/// Total LoC of the paper's patch.
pub fn total_patch_loc() -> u32 {
    patch_inventory().iter().map(|e| e.loc).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals_348_loc() {
        assert_eq!(total_patch_loc(), 348);
    }

    #[test]
    fn eight_classes_are_patched() {
        let inv = patch_inventory();
        assert_eq!(inv.len(), 8);
        let classes: Vec<&str> = inv.iter().map(|e| e.class).collect();
        assert_eq!(
            classes,
            vec![
                "Activity",
                "View",
                "ViewGroup",
                "Intent",
                "ActivityThread",
                "ActivityRecord",
                "ActivityStack",
                "ActivityStarter"
            ]
        );
    }

    #[test]
    fn every_entry_names_a_reproduction_site() {
        for e in patch_inventory() {
            assert!(!e.reproduced_in.is_empty(), "{} lacks a mapping", e.class);
        }
    }
}
