//! Property tests on the degradation ladder's rung-2 fallback: the
//! restart path must be indistinguishable from a stock fresh launch, and
//! the ATMS stack must come out of the rollback with its invariants
//! intact.

use droidsim_app::{ActivityInstanceId, ActivityThread, AppModel, SimpleApp};
use droidsim_atms::{ActivityRecordId, Atms, RecordState};
use droidsim_config::Configuration;
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_kernel::SimTime;
use droidsim_view::ViewOp;
use proptest::prelude::*;
use rchdroid::{ChangeKind, RchDroid};

struct Rig {
    model: SimpleApp,
    atms: Atms,
    thread: ActivityThread,
    rch: RchDroid,
    instance: ActivityInstanceId,
}

fn boot(views: usize) -> Rig {
    let model = SimpleApp::with_views(views);
    let mut atms = Atms::new(Configuration::phone_portrait());
    let mut thread = ActivityThread::new();
    let start = atms.start_activity(model.component_name(), model.handled_changes());
    let instance =
        thread.perform_launch_activity(&model, start.record, Configuration::phone_portrait(), None);
    thread.resume_sequence(instance, false).unwrap();
    Rig {
        model,
        atms,
        thread,
        rch: RchDroid::new(),
        instance,
    }
}

fn rotate(rig: &mut Rig, now: SimTime) -> rchdroid::ChangeOutcome {
    let next = rig.atms.global_config().rotated();
    rig.atms.update_global_config(next);
    rig.rch
        .handle_configuration_change(&mut rig.thread, &mut rig.atms, &rig.model, now)
        .unwrap()
}

/// The site to force for a given protocol phase: allocation failure only
/// probes on the create path (a flip allocates nothing), so steady-state
/// changes get a corrupted parcel instead.
fn site_for(prior_changes: usize, pick_allocation: bool) -> FaultSite {
    if pick_allocation && prior_changes == 0 {
        FaultSite::AllocationFailure
    } else {
        FaultSite::BundleCorruption
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After a rung-2 fallback, the surviving tree is *identical* to a
    /// fresh stock launch initialised from the same saved bundle — the
    /// fallback is the stock restart path, not an approximation of it.
    #[test]
    fn fallback_tree_matches_a_fresh_launch_from_the_saved_bundle(
        views in 1usize..8,
        scroll in 0i32..2000,
        prior_changes in 0usize..3,
        pick_allocation in any::<bool>(),
    ) {
        let mut rig = boot(views);
        for i in 0..prior_changes {
            rotate(&mut rig, SimTime::from_secs(i as u64 + 1));
        }
        // Genuine user state on the current foreground instance.
        let foreground = rig.thread.current_sunny().unwrap_or(rig.instance);
        {
            let a = rig.thread.instance_mut(foreground).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(scroll)).unwrap();
        }
        let saved = rig
            .thread
            .instance(foreground)
            .unwrap()
            .save_instance_state(&rig.model);

        let site = site_for(prior_changes, pick_allocation);
        rig.rch
            .arm_faults(FaultPlan::seeded(42).on_nth_probe(site, 1));
        let outcome = rotate(&mut rig, SimTime::from_secs(60));
        prop_assert_eq!(outcome.kind, ChangeKind::FallbackRestart);

        // Reference: a stock launch under the post-change configuration,
        // from the bundle the fallback had available — none when the
        // parcel was corrupted.
        let bundle = (site != FaultSite::BundleCorruption).then_some(&saved);
        let mut reference = ActivityThread::new();
        let ref_instance = reference.perform_launch_activity(
            &rig.model,
            ActivityRecordId::new(9_999),
            *rig.atms.global_config(),
            bundle,
        );
        reference.resume_sequence(ref_instance, false).unwrap();

        let got = &rig.thread.instance(outcome.sunny_instance).unwrap().tree;
        let want = &reference.instance(ref_instance).unwrap().tree;
        prop_assert_eq!(got, want);
    }

    /// After any fallback — including the allocation-failure rollback of
    /// the coin-flip record swap — the ATMS stack holds its invariants:
    /// exactly one alive record, resumed, in the foreground, with no
    /// shadow record leaked. And the protocol restarts cleanly.
    #[test]
    fn atms_stack_invariants_hold_after_rollback(
        views in 1usize..6,
        prior_changes in 0usize..4,
        pick_allocation in any::<bool>(),
    ) {
        let mut rig = boot(views);
        for i in 0..prior_changes {
            rotate(&mut rig, SimTime::from_secs(i as u64 + 1));
        }
        let site = site_for(prior_changes, pick_allocation);
        rig.rch
            .arm_faults(FaultPlan::seeded(7).on_nth_probe(site, 1));
        let outcome = rotate(&mut rig, SimTime::from_secs(60));
        prop_assert_eq!(outcome.kind, ChangeKind::FallbackRestart);

        // Single top, no shadow-record leak, nothing dangling.
        prop_assert_eq!(rig.atms.alive_record_count(), 1);
        prop_assert!(rig.atms.shadow_records().is_empty());
        let token = rig
            .thread
            .instance(outcome.sunny_instance)
            .unwrap()
            .token();
        prop_assert_eq!(rig.atms.foreground_record(), Some(token));
        prop_assert_eq!(
            rig.atms.record(token).unwrap().state,
            RecordState::Resumed
        );
        prop_assert_eq!(rig.thread.alive_instances(), vec![outcome.sunny_instance]);

        // The ladder recovers: the next change is a clean init with one
        // shadow record, and the one after flips.
        let next = rotate(&mut rig, SimTime::from_secs(61));
        prop_assert_eq!(next.kind, ChangeKind::Init);
        prop_assert_eq!(rig.atms.shadow_records().len(), 1);
        let after = rotate(&mut rig, SimTime::from_secs(62));
        prop_assert_eq!(after.kind, ChangeKind::Flip);
    }
}
