//! Property tests: ATMS invariants under random intent streams.

use droidsim_atms::{Atms, Intent, IntentFlags, StartDisposition};
use droidsim_config::Configuration;
use droidsim_kernel::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum AtmsAction {
    Start { app: u8, activity: u8, flags: u8 },
    SunnyStart,
    DestroyForeground,
    UpdateConfig(bool),
}

fn arb_action() -> impl Strategy<Value = AtmsAction> {
    prop_oneof![
        (0u8..3, 0u8..3, 0u8..4).prop_map(|(app, activity, flags)| AtmsAction::Start {
            app,
            activity,
            flags
        }),
        Just(AtmsAction::SunnyStart),
        Just(AtmsAction::DestroyForeground),
        any::<bool>().prop_map(AtmsAction::UpdateConfig),
    ]
}

fn flags_of(code: u8) -> IntentFlags {
    match code {
        0 => IntentFlags::NONE,
        1 => IntentFlags::NEW_TASK,
        2 => IntentFlags::SINGLE_TOP,
        _ => IntentFlags::CLEAR_TOP,
    }
}

fn run_script(script: &[AtmsAction]) -> Atms {
    let mut atms = Atms::new(Configuration::phone_portrait());
    let mut clock = 0u64;
    for action in script {
        clock += 1;
        let now = SimTime::from_secs(clock);
        match action {
            AtmsAction::Start {
                app,
                activity,
                flags,
            } => {
                let component = format!("com.app{app}/.Activity{activity}");
                atms.start_activity_at(&Intent::new(&component).with_flags(flags_of(*flags)), now);
            }
            AtmsAction::SunnyStart => {
                if let Some(record) = atms.foreground_record() {
                    let component = atms.record(record).unwrap().component().to_owned();
                    let res = atms.start_activity_at(&Intent::sunny(&component), now);
                    // A SUNNY start never silently no-ops.
                    assert_ne!(res.disposition, StartDisposition::ReusedTop);
                }
            }
            AtmsAction::DestroyForeground => {
                if let Some(record) = atms.foreground_record() {
                    // §3.5's protocol, enforced by the layer above the raw
                    // ATMS: terminating the foreground activity releases
                    // its coupled shadow first. (Without this step the
                    // shadow record would surface as the new top — a state
                    // this suite's own exploration uncovered.)
                    let task = atms.stack().top_task().expect("foreground implies a task");
                    let shadow = task.find_shadow_activity(|id| atms.record(id));
                    if let Some(shadow) = shadow {
                        atms.destroy_record(shadow).unwrap();
                    }
                    atms.destroy_record(record).unwrap();
                }
            }
            AtmsAction::UpdateConfig(rotate) => {
                let next = if *rotate {
                    atms.global_config().rotated()
                } else {
                    *atms.global_config()
                };
                atms.update_global_config(next);
            }
        }
    }
    atms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stack_structure_stays_consistent(script in proptest::collection::vec(arb_action(), 0..50)) {
        let atms = run_script(&script);
        // Every task is non-empty and contains only alive records.
        for task in atms.stack().tasks() {
            prop_assert!(!task.is_empty(), "empty tasks are removed");
            for &record in task.records() {
                let r = atms.record(record).expect("records in tasks exist");
                prop_assert!(r.is_alive(), "destroyed records leave the stack");
                // Records live in the task matching their affinity.
                let affinity = r.component().split('/').next().unwrap();
                prop_assert_eq!(&task.affinity, affinity);
            }
        }
    }

    #[test]
    fn foreground_is_top_of_top_task(script in proptest::collection::vec(arb_action(), 0..50)) {
        let atms = run_script(&script);
        match (atms.foreground_record(), atms.stack().top_task()) {
            (Some(record), Some(task)) => prop_assert_eq!(Some(record), task.top()),
            (None, None) => {}
            (fore, task) => prop_assert!(
                false,
                "foreground {:?} inconsistent with top task {:?}",
                fore,
                task.map(droidsim_atms::TaskRecord::id)
            ),
        }
    }

    #[test]
    fn each_record_appears_in_exactly_one_task(
        script in proptest::collection::vec(arb_action(), 0..50)
    ) {
        let atms = run_script(&script);
        let mut seen = std::collections::HashSet::new();
        for task in atms.stack().tasks() {
            for &record in task.records() {
                prop_assert!(seen.insert(record), "{record} appears twice");
            }
        }
    }

    #[test]
    fn shadow_records_never_top_unless_alone(
        script in proptest::collection::vec(arb_action(), 0..50)
    ) {
        // A shadow record can only be below its sunny partner; the
        // foreground record itself is never in the shadow state.
        let atms = run_script(&script);
        if let Some(record) = atms.foreground_record() {
            prop_assert!(!atms.record(record).unwrap().is_shadow());
        }
    }

    #[test]
    fn at_most_one_shadow_per_task(script in proptest::collection::vec(arb_action(), 0..50)) {
        let atms = run_script(&script);
        for task in atms.stack().tasks() {
            let shadows = task
                .records()
                .iter()
                .filter(|&&r| atms.record(r).is_some_and(droidsim_atms::ActivityRecord::is_shadow))
                .count();
            prop_assert!(shadows <= 1, "task {} has {shadows} shadows", task.id());
        }
    }
}
