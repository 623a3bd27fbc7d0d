//! An automated runtime-change issue detector.
//!
//! §6's methodology — "when it is running in a state, we change screen
//! sizes and observe if the state can be correctly restored" — as a
//! reusable oracle, in the spirit of the double-orientation GUI checks of
//! Amalfitano et al. and Zaeem et al. (§7.1): set the app's user state,
//! rotate once and twice, and compare what the user sees against what
//! they left. A crash or any lost state item is an issue.
//!
//! Checking after **one** rotation matters: systems that preserve the
//! original instance (RCHDroid's coin flip) would mask member-state loss
//! on any even rotation count. The final probe additionally walks every
//! *live non-foreground* instance (RCHDroid's shadow): state missing
//! there is the same masked loss seen from the other side — the user
//! meets it on the next odd rotation — and is reported as
//! [`DetectionReport::latent_after_two`].

use droidsim_app::Activity;
use droidsim_device::{Device, HandlingMode};
use droidsim_kernel::SimDuration;
use rch_workloads::{DataLossClass, GenericApp, GenericAppSpec};
use std::collections::BTreeSet;

/// What the oracle found for one app under one system.
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// App name.
    pub app: String,
    /// State items lost after a single rotation.
    pub lost_after_one: Vec<String>,
    /// State items lost after the double rotation (foreground instance).
    pub lost_after_two: Vec<String>,
    /// State items missing from a live non-foreground (shadow-state)
    /// instance after the double rotation — loss the coin flip masks
    /// from the foreground check.
    pub latent_after_two: Vec<String>,
    /// Whether the app crashed during the check.
    pub crashed: bool,
}

impl DetectionReport {
    /// The oracle's verdict: does this app have a runtime-change issue
    /// under the checked system?
    pub fn has_issue(&self) -> bool {
        self.crashed
            || !self.lost_after_one.is_empty()
            || !self.lost_after_two.is_empty()
            || !self.latent_after_two.is_empty()
    }

    fn crashed_report(app: &str) -> DetectionReport {
        DetectionReport {
            app: app.to_owned(),
            lost_after_one: Vec::new(),
            lost_after_two: Vec::new(),
            latent_after_two: Vec::new(),
            crashed: true,
        }
    }
}

/// One probe of the app's live instances: the keys `lost_in` reports
/// for the *foreground* instance, and those it reports for any other
/// live, un-released instance (deduplicated — several shadows missing
/// the same key is one loss).
fn lost_items(
    device: &Device,
    component: &str,
    lost_in: impl Fn(&Activity) -> Vec<String>,
) -> Probe {
    let Ok(process) = device.process(component) else {
        return Probe::default();
    };
    let foreground = process.foreground_instance();
    let mut result = Probe::default();
    let mut latent = BTreeSet::new();
    for id in process.thread().alive_instances() {
        let Ok(activity) = process.thread().instance(id) else {
            continue;
        };
        if activity.tree.is_released() {
            continue; // a released tree holds no probe-able state
        }
        let lost = lost_in(activity);
        if Some(id) == foreground {
            result.foreground = lost;
        } else {
            latent.extend(lost);
        }
    }
    result.latent = latent.into_iter().collect();
    result
}

/// The keys of the state items `probe` set that `activity` lost.
fn lost_state(probe: &GenericApp, activity: &Activity) -> Vec<String> {
    probe
        .surviving_state(activity)
        .into_iter()
        .filter(|(_, survived)| !survived)
        .map(|(item, _)| item.key.clone())
        .collect()
}

/// The keys of the data-loss fields `probe` set that `activity` lost.
fn lost_fields(probe: &GenericApp, activity: &Activity) -> Vec<String> {
    probe
        .dataloss_surviving(activity)
        .into_iter()
        .filter(|(_, survived)| !survived)
        .map(|(field, _)| field.key.clone())
        .collect()
}

#[derive(Debug, Default)]
struct Probe {
    foreground: Vec<String>,
    latent: Vec<String>,
}

/// Runs the oracle for one app under one system.
pub fn check(spec: &GenericAppSpec, mode: HandlingMode) -> DetectionReport {
    let mut device = Device::new(mode);
    let probe = spec.build();
    let Ok(component) = device.install_and_launch(
        Box::new(spec.build()),
        spec.base_memory_bytes,
        spec.complexity,
    ) else {
        // Failing to even launch is an issue; there is nothing to probe.
        return DetectionReport::crashed_report(&spec.name);
    };
    if device
        .with_foreground_activity_mut(|a| probe.apply_user_state(a))
        .is_err()
    {
        return DetectionReport::crashed_report(&spec.name);
    }
    if spec.uses_async_task {
        let _ = device.start_async_on_foreground(spec.async_task());
    }

    let _ = device.rotate();
    device.advance(SimDuration::from_secs(8)); // let any async task land
    let lost_after_one = if device.is_crashed(&component) {
        Vec::new()
    } else {
        lost_items(&device, &component, |a| lost_state(&probe, a)).foreground
    };

    let _ = device.rotate();
    let crashed = device.is_crashed(&component);
    let (lost_after_two, latent_after_two) = if crashed {
        (Vec::new(), Vec::new())
    } else {
        let p = lost_items(&device, &component, |a| lost_state(&probe, a));
        (p.foreground, p.latent)
    };

    DetectionReport {
        app: spec.name.clone(),
        lost_after_one,
        lost_after_two,
        latent_after_two,
        crashed,
    }
}

/// The dynamic data-loss oracle: drives the scenario's lifecycle
/// interleaving (per [`DataLossClass`]) and diffs pre-change field state
/// against what each live instance shows afterwards.
///
/// Rotation-based classes mirror [`check`]'s double-rotation schedule
/// (the single-rotation probe catches what RCHDroid's coin flip masks,
/// the latent probe catches the stale replacement shadow). The async
/// race lets the write land *after* both rotations, so only the final
/// probe is meaningful. Process death backgrounds the app behind a
/// parked helper, reclaims it under memory pressure — the ATMS retains
/// the save bundle, the persistent store survives by definition — and
/// switches back.
pub fn check_dataloss(spec: &GenericAppSpec, mode: HandlingMode) -> DetectionReport {
    let Some(class) = spec.dataloss.as_ref().map(|dl| dl.class) else {
        return DetectionReport {
            app: spec.name.clone(),
            lost_after_one: Vec::new(),
            lost_after_two: Vec::new(),
            latent_after_two: Vec::new(),
            crashed: false,
        };
    };
    let mut device = Device::new(mode);
    let app = spec.build();
    // The probe shares the installed copy's persistent store: state it
    // applies through the foreground activity writes the same "disk"
    // the installed model's on_create reads back.
    let probe = app.shared_probe();
    let Ok(component) =
        device.install_and_launch(Box::new(app), spec.base_memory_bytes, spec.complexity)
    else {
        return DetectionReport::crashed_report(&spec.name);
    };

    match class {
        DataLossClass::StopRestart
        | DataLossClass::SubStateOwner
        | DataLossClass::InputInFlight => {
            if device
                .with_foreground_activity_mut(|a| probe.apply_dataloss_state(a))
                .is_err()
            {
                return DetectionReport::crashed_report(&spec.name);
            }
            let _ = device.rotate();
            let lost_after_one = if device.is_crashed(&component) {
                Vec::new()
            } else {
                lost_items(&device, &component, |a| lost_fields(&probe, a)).foreground
            };
            let _ = device.rotate();
            let crashed = device.is_crashed(&component);
            let (lost_after_two, latent_after_two) = if crashed {
                (Vec::new(), Vec::new())
            } else {
                let p = lost_items(&device, &component, |a| lost_fields(&probe, a));
                (p.foreground, p.latent)
            };
            DetectionReport {
                app: spec.name.clone(),
                lost_after_one,
                lost_after_two,
                latent_after_two,
                crashed,
            }
        }
        DataLossClass::AsyncRace => {
            if let Some(task) = spec.dataloss_async_task() {
                let _ = device.start_async_on_foreground(task);
            }
            let _ = device.rotate();
            let _ = device.rotate();
            device.advance(SimDuration::from_secs(8)); // the racing write lands
            let crashed = device.is_crashed(&component);
            let (lost_after_two, latent_after_two) = if crashed {
                (Vec::new(), Vec::new())
            } else {
                let p = lost_items(&device, &component, |a| lost_fields(&probe, a));
                (p.foreground, p.latent)
            };
            DetectionReport {
                app: spec.name.clone(),
                // Nothing to lose before the write lands.
                lost_after_one: Vec::new(),
                lost_after_two,
                latent_after_two,
                crashed,
            }
        }
        DataLossClass::ProcessDeath => {
            if device
                .with_foreground_activity_mut(|a| probe.apply_dataloss_state(a))
                .is_err()
            {
                return DetectionReport::crashed_report(&spec.name);
            }
            // Background the app behind a parked helper, reclaim it,
            // come back.
            let parker = GenericAppSpec::sized("DlParkerApp", "1K+", false);
            if device
                .install_and_launch(
                    Box::new(parker.build()),
                    parker.base_memory_bytes,
                    parker.complexity,
                )
                .is_err()
                || {
                    device.trigger_memory_pressure();
                    device.switch_to_app(&component).is_err()
                }
            {
                return DetectionReport::crashed_report(&spec.name);
            }
            let crashed = device.is_crashed(&component);
            let lost = if crashed {
                Vec::new()
            } else {
                lost_items(&device, &component, |a| lost_fields(&probe, a)).foreground
            };
            DetectionReport {
                app: spec.name.clone(),
                lost_after_one: lost.clone(),
                lost_after_two: lost,
                latent_after_two: Vec::new(),
                crashed,
            }
        }
    }
}

/// Runs the oracle over a whole app set; returns the apps flagged.
pub fn flagged(specs: &[GenericAppSpec], mode: HandlingMode) -> Vec<String> {
    specs
        .iter()
        .map(|s| check(s, mode))
        .filter(DetectionReport::has_issue)
        .map(|r| r.app)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rch_workloads::{top100_specs, tp27_specs};

    #[test]
    fn oracle_rediscovers_table3_under_stock() {
        let specs = tp27_specs();
        let flagged = flagged(&specs, HandlingMode::Android10);
        assert_eq!(flagged.len(), 27, "every TP-27 app is flagged: {flagged:?}");
    }

    #[test]
    fn oracle_confirms_rchdroids_residue_on_tp27() {
        let specs = tp27_specs();
        let flagged = flagged(&specs, HandlingMode::rchdroid_default());
        assert_eq!(
            flagged,
            vec!["DiskDiggerPro", "Dock4Droid"],
            "only the member-unsaved two"
        );
    }

    #[test]
    fn oracle_rediscovers_table5_counts() {
        let specs = top100_specs();
        let stock = flagged(&specs, HandlingMode::Android10);
        assert_eq!(stock.len(), 63);
        let rch = flagged(&specs, HandlingMode::rchdroid_default());
        assert_eq!(
            rch,
            vec!["Filto", "HaircutPrank", "CastForChrome", "KingJamesBible"]
        );
    }

    #[test]
    fn single_rotation_check_is_what_catches_member_state() {
        // Under RCHDroid the double rotation flips the ORIGINAL instance
        // back: member state reappears and only the single-rotation check
        // sees the loss.
        let spec = tp27_specs().swap_remove(8); // DiskDiggerPro (MemberUnsaved)
        let report = check(&spec, HandlingMode::rchdroid_default());
        assert!(!report.lost_after_one.is_empty());
        assert!(report.lost_after_two.is_empty(), "masked by the flip");
        assert!(report.has_issue());
    }

    #[test]
    fn shadow_probe_sees_the_masked_loss_from_the_other_side() {
        // After the flip the foreground is whole again, but the shadow —
        // the replacement instance that never received the unsaved member
        // field — is not. The latent probe catches exactly that.
        let spec = tp27_specs().swap_remove(8); // DiskDiggerPro (MemberUnsaved)
        let report = check(&spec, HandlingMode::rchdroid_default());
        assert_eq!(
            report.latent_after_two, report.lost_after_one,
            "the shadow instance is missing what the sunny one lost before the flip"
        );

        // A view-held issue RCHDroid fixes leaves no latent residue: the
        // shadow was seeded by the essence migration.
        let fixed = tp27_specs().swap_remove(0);
        let report = check(&fixed, HandlingMode::rchdroid_default());
        assert!(report.latent_after_two.is_empty(), "{report:?}");
        assert!(!report.has_issue());
    }

    #[test]
    fn issue_free_apps_pass_the_oracle() {
        let specs = top100_specs();
        let instagram = specs.iter().find(|s| s.name == "Instagram").unwrap();
        let report = check(instagram, HandlingMode::Android10);
        assert!(!report.has_issue());
    }
}
