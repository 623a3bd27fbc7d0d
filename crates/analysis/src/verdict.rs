//! Static verdict prediction: what the §6 dynamic oracle will find,
//! computed from the descriptor alone.
//!
//! The prediction mirrors the simulator's mechanics field by field, and
//! the differential gate (`rchlint --differential`) holds the two to
//! *exact* agreement — crash flag and every lost-item list — over every
//! corpus. The reasoning per mode:
//!
//! **Self-handling** (`android:configChanges`): the framework only
//! calls `onConfigurationChanged`; the instance, its views and its
//! members all survive, and an async callback lands on a live tree.
//! Clean under stock and RCHDroid — but *not* under RuntimeDroid, whose
//! hot-reload patch intercepts the change before the manifest
//! declaration is consulted.
//!
//! **Stock (Android 10)**: a rotation destroys and recreates the
//! activity. An in-flight async task then fires at its captured —
//! now released — tree: NullPointer (or WindowLeaked), i.e. the app
//! *crashes* and the oracle probes nothing further. Otherwise an item
//! survives only if the save/restore pipeline carries it: framework
//! views via the hierarchy bundle, member fields via
//! `onSaveInstanceState` — which the app must actually implement.
//! The loss is identical after one and two rotations.
//!
//! **RCHDroid**: the sunny instance is launched *from the shadow
//! snapshot* (hierarchy bundle + app bundle), then essence migration
//! seeds every live view attribute the bundle missed — so view-held
//! state always survives and async results are re-routed, never
//! crashing. What RCHDroid cannot conjure is a member field the app
//! never saved: it is missing from the sunny instance (lost after one
//! rotation), *reappears* when the double rotation flips the original
//! instance back (`lost_after_two` is empty — the coin-flip mask), and
//! stays missing on the now-shadow replacement instance
//! (`latent_after_two`).
//!
//! **RuntimeDroid**: the instance survives (members intact, no crash),
//! but the patch re-inflates the *layout resource* and copies state
//! across by id — anything the layout cannot name is rebuilt empty:
//! views the app created in code, dialog subtrees, fragment subtrees.
//! The loss is in-place, so it is identical after one and two rotations
//! and never latent.
//!
//! Data-loss corpus apps carry a [`DataLossScenario`] instead of state
//! items; [`predict`] dispatches to the per-field save/restore
//! reachability rules (documented on the private `predict_dataloss` and
//! in DESIGN.md §15).

use droidsim_fleet::Digest;
use rch_workloads::{
    DataLossClass, DataLossField, DataLossScenario, FieldOwner, FieldPersistence, GenericAppSpec,
    StateItem, StateMechanism,
};

/// Which handling scheme the verdict is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisMode {
    /// Stock Android 10 restart-based handling.
    Stock,
    /// RCHDroid shadow/sunny migration.
    RchDroid,
    /// RuntimeDroid in-place hot reload.
    RuntimeDroid,
}

impl AnalysisMode {
    /// Every mode, in report order.
    pub const ALL: [AnalysisMode; 3] = [
        AnalysisMode::Stock,
        AnalysisMode::RchDroid,
        AnalysisMode::RuntimeDroid,
    ];

    /// Stable label used in reports and digests.
    pub fn label(self) -> &'static str {
        match self {
            AnalysisMode::Stock => "stock",
            AnalysisMode::RchDroid => "rchdroid",
            AnalysisMode::RuntimeDroid => "runtimedroid",
        }
    }
}

/// What the double-rotation check finds for one app under one system:
/// [`predict`] computes it from the descriptor, and the dynamic oracle
/// (`experiments::detector`) observes it on a device. The differential
/// gate holds the two equal field by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// App name.
    pub app: String,
    /// The app crashed during the check.
    pub crashed: bool,
    /// State items lost after a single rotation.
    pub lost_after_one: Vec<String>,
    /// Items lost (on the foreground instance) after the double
    /// rotation.
    pub lost_after_two: Vec<String>,
    /// Items missing from a live *non-foreground* (shadow) instance
    /// after the double rotation — loss the coin flip masks.
    pub latent_after_two: Vec<String>,
}

impl Verdict {
    /// Whether the app has a runtime-change issue under the checked
    /// system.
    pub fn has_issue(&self) -> bool {
        self.crashed
            || !self.lost_after_one.is_empty()
            || !self.lost_after_two.is_empty()
            || !self.latent_after_two.is_empty()
    }

    /// Whether `key` appears in any loss list.
    pub fn loses(&self, key: &str) -> bool {
        self.lost_after_one.iter().any(|k| k == key)
            || self.lost_after_two.iter().any(|k| k == key)
            || self.latent_after_two.iter().any(|k| k == key)
    }

    /// A clean verdict.
    pub fn clean(app: &str) -> Verdict {
        Verdict {
            app: app.to_owned(),
            crashed: false,
            lost_after_one: Vec::new(),
            lost_after_two: Vec::new(),
            latent_after_two: Vec::new(),
        }
    }

    /// Folds the verdict into a digest.
    pub fn digest_into(&self, d: &mut Digest) {
        d.write_str(&self.app);
        d.write_u64(u64::from(self.crashed));
        for list in [
            &self.lost_after_one,
            &self.lost_after_two,
            &self.latent_after_two,
        ] {
            d.write_u64(list.len() as u64);
            for k in list {
                d.write_str(k);
            }
        }
    }
}

/// Whether the save/restore pipeline carries this item across a
/// restart: framework views ride the hierarchy bundle unconditionally;
/// member fields ride `onSaveInstanceState` only if the app both *uses*
/// that mechanism for the item and *implements* the callback.
fn survives_restart(item: &StateItem, spec: &GenericAppSpec) -> bool {
    match item.mechanism {
        StateMechanism::FrameworkView => true,
        StateMechanism::MemberSaved => spec.saves_instance_state,
        StateMechanism::CustomViewNoSave
        | StateMechanism::DynamicViewNoSave
        | StateMechanism::MemberUnsaved => false,
    }
}

/// Whether the item is a member field the shadow snapshot cannot carry
/// to the sunny instance (RCHDroid's only residue).
fn member_not_snapshotted(item: &StateItem, spec: &GenericAppSpec) -> bool {
    match item.mechanism {
        StateMechanism::MemberUnsaved => true,
        StateMechanism::MemberSaved => !spec.saves_instance_state,
        StateMechanism::FrameworkView
        | StateMechanism::CustomViewNoSave
        | StateMechanism::DynamicViewNoSave => false,
    }
}

fn keys(spec: &GenericAppSpec, pred: impl Fn(&StateItem) -> bool) -> Vec<String> {
    spec.state_items
        .iter()
        .filter(|i| pred(i))
        .map(|i| i.key.clone())
        .collect()
}

/// Predicts the dynamic oracle's report for `spec` under `mode`.
pub fn predict(spec: &GenericAppSpec, mode: AnalysisMode) -> Verdict {
    if let Some(dl) = &spec.dataloss {
        return predict_dataloss(spec, dl, mode);
    }
    // RuntimeDroid's patch hooks the change before `configChanges` is
    // consulted, so self-handling only short-circuits the other two.
    if spec.handles_changes && mode != AnalysisMode::RuntimeDroid {
        return Verdict::clean(&spec.name);
    }
    match mode {
        AnalysisMode::Stock => {
            if spec.uses_async_task {
                // The 5 s callback fires into the released tree during
                // the oracle's 8 s settle; nothing is probed after a
                // crash.
                Verdict {
                    crashed: true,
                    ..Verdict::clean(&spec.name)
                }
            } else {
                let lost = keys(spec, |i| !survives_restart(i, spec));
                Verdict {
                    lost_after_one: lost.clone(),
                    lost_after_two: lost,
                    ..Verdict::clean(&spec.name)
                }
            }
        }
        AnalysisMode::RchDroid => {
            let member_lost = keys(spec, |i| member_not_snapshotted(i, spec));
            Verdict {
                lost_after_one: member_lost.clone(),
                // The double rotation flips the original instance back:
                // its member fields reappear on the foreground…
                lost_after_two: Vec::new(),
                // …but stay missing on the shadow-state replacement.
                latent_after_two: member_lost,
                ..Verdict::clean(&spec.name)
            }
        }
        AnalysisMode::RuntimeDroid => {
            // Hot reload keeps the instance (members, async delivery)
            // but rebuilds the tree from the layout resource: a view
            // the app created in code is never rebuilt, since
            // `onCreate` does not re-run.
            let lost = keys(spec, |i| !i.mechanism.fixed_by_runtimedroid());
            Verdict {
                lost_after_one: lost.clone(),
                lost_after_two: lost,
                ..Verdict::clean(&spec.name)
            }
        }
    }
}

fn field_keys(dl: &DataLossScenario, pred: impl Fn(&DataLossField) -> bool) -> Vec<String> {
    dl.fields
        .iter()
        .filter(|f| pred(f))
        .map(|f| f.key.clone())
        .collect()
}

/// The per-field save/restore reachability verdict — the static mirror
/// of the detector's `check_dataloss` oracle, scenario by scenario:
///
/// * **Stop/restart** — only a save site carries a field across the
///   restart; a `Transient` member is lost under stock, masked-then-
///   latent under RCHDroid (the snapshot cannot hold it), and untouched
///   under RuntimeDroid (same instance). `configChanges` skips the
///   restart under stock/RCHDroid; RuntimeDroid never restarts anyway.
/// * **Sub-state owners** — stock drops transient dialog/fragment state
///   with the instance. RCHDroid's sunny `onCreate` re-attaches
///   fragments (seeded from the live shadow) but cannot re-open a
///   dialog no save site recorded: transient dialog state is masked
///   loss. RuntimeDroid re-inflates the *layout resource* only, so
///   every dialog and fragment subtree is dropped — whatever the save
///   site says, and even for self-handling apps.
/// * **Async race** — the write lands after the double rotation: stock
///   has already crashed on the released tree; RCHDroid delivers to the
///   foreground but the replacement shadow never hears of it (latent);
///   RuntimeDroid delivers in place, cleanly.
/// * **Process death** — mode-independent: the ATMS retains the save
///   bundle and the store survives by definition, so exactly the
///   `Transient` fields die with the process.
/// * **Input in flight** — uncommitted text is only in the view: the
///   stock restart drops it; RCHDroid migrates live attributes and
///   RuntimeDroid copies them by id.
fn predict_dataloss(spec: &GenericAppSpec, dl: &DataLossScenario, mode: AnalysisMode) -> Verdict {
    let clean = Verdict::clean(&spec.name);
    let transient = |f: &DataLossField| f.persistence == FieldPersistence::Transient;
    match dl.class {
        DataLossClass::ProcessDeath => {
            let lost = field_keys(dl, transient);
            Verdict {
                lost_after_one: lost.clone(),
                lost_after_two: lost,
                ..clean
            }
        }
        DataLossClass::StopRestart => match mode {
            _ if spec.handles_changes => clean,
            AnalysisMode::Stock => {
                let lost = field_keys(dl, transient);
                Verdict {
                    lost_after_one: lost.clone(),
                    lost_after_two: lost,
                    ..clean
                }
            }
            AnalysisMode::RchDroid => {
                let lost = field_keys(dl, transient);
                Verdict {
                    lost_after_one: lost.clone(),
                    latent_after_two: lost,
                    ..clean
                }
            }
            AnalysisMode::RuntimeDroid => clean,
        },
        DataLossClass::SubStateOwner => match mode {
            AnalysisMode::Stock => {
                if spec.handles_changes {
                    clean
                } else {
                    let lost = field_keys(dl, transient);
                    Verdict {
                        lost_after_one: lost.clone(),
                        lost_after_two: lost,
                        ..clean
                    }
                }
            }
            AnalysisMode::RchDroid => {
                if spec.handles_changes {
                    clean
                } else {
                    // Fragments re-attach in the sunny onCreate and are
                    // seeded from the live shadow; a transient dialog
                    // has no save site and no onCreate site either.
                    let lost = field_keys(dl, |f| transient(f) && f.owner == FieldOwner::Dialog);
                    Verdict {
                        lost_after_one: lost.clone(),
                        latent_after_two: lost,
                        ..clean
                    }
                }
            }
            AnalysisMode::RuntimeDroid => {
                let lost = field_keys(dl, |_| true);
                Verdict {
                    lost_after_one: lost.clone(),
                    lost_after_two: lost,
                    ..clean
                }
            }
        },
        DataLossClass::AsyncRace => match mode {
            _ if spec.handles_changes => clean,
            AnalysisMode::Stock => Verdict {
                crashed: true,
                ..clean
            },
            AnalysisMode::RchDroid => Verdict {
                latent_after_two: field_keys(dl, |_| true),
                ..clean
            },
            AnalysisMode::RuntimeDroid => clean,
        },
        DataLossClass::InputInFlight => match mode {
            _ if spec.handles_changes => clean,
            AnalysisMode::Stock => {
                let lost = field_keys(dl, |_| true);
                Verdict {
                    lost_after_one: lost.clone(),
                    lost_after_two: lost,
                    ..clean
                }
            }
            AnalysisMode::RchDroid | AnalysisMode::RuntimeDroid => clean,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rch_workloads::{dataloss_specs, top100_specs, tp27_specs};

    #[test]
    fn tp27_predictions_match_the_tables() {
        let specs = tp27_specs();
        let stock_flagged: Vec<&str> = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::Stock).has_issue())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(stock_flagged.len(), 27, "Table 3: every TP-27 app");
        let rch_flagged: Vec<&str> = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::RchDroid).has_issue())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(rch_flagged, ["DiskDiggerPro", "Dock4Droid"]);
        let rtd_flagged = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::RuntimeDroid).has_issue())
            .count();
        assert_eq!(rtd_flagged, 4, "the four dynamic-view apps");
    }

    #[test]
    fn top100_predictions_match_table5() {
        let specs = top100_specs();
        let stock = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::Stock).has_issue())
            .count();
        assert_eq!(stock, 63);
        let rch: Vec<&str> = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::RchDroid).has_issue())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            rch,
            ["Filto", "HaircutPrank", "CastForChrome", "KingJamesBible"]
        );
        let rtd = specs
            .iter()
            .filter(|s| predict(s, AnalysisMode::RuntimeDroid).has_issue())
            .count();
        assert_eq!(rtd, 5, "the report-page apps recreate views in code");
    }

    #[test]
    fn coin_flip_mask_shows_up_as_latent_loss() {
        let spec = tp27_specs().swap_remove(8); // DiskDiggerPro (MemberUnsaved)
        let v = predict(&spec, AnalysisMode::RchDroid);
        assert!(!v.lost_after_one.is_empty());
        assert!(v.lost_after_two.is_empty(), "masked by the flip");
        assert_eq!(v.latent_after_two, v.lost_after_one);
        assert!(v.has_issue());
    }

    /// The dataloss label (`hazardous`) and the three-mode prediction
    /// union must be the same predicate — the corpus would otherwise
    /// mislabel its own apps.
    #[test]
    fn dataloss_labels_equal_the_prediction_union() {
        for spec in dataloss_specs() {
            let any = AnalysisMode::ALL
                .iter()
                .any(|m| predict(&spec, *m).has_issue());
            assert_eq!(spec.has_issue(), any, "{}", spec.name);
        }
    }

    /// Spot-checks of the per-class outcome matrix (the full matrix is
    /// enforced app-by-app by the differential gate).
    #[test]
    fn dataloss_matrix_spot_checks() {
        use DataLossClass::*;
        let spec = |class, owner, persistence, handles: bool| {
            let mut s = GenericAppSpec::sized("MatrixProbe", "1K+", false);
            s.handles_changes = handles;
            s.saves_instance_state = persistence == FieldPersistence::BundleSaved;
            s.dataloss = Some(DataLossScenario::new(
                class,
                vec![DataLossField::new("alpha_field", owner, persistence)],
            ));
            s
        };
        let verdicts = |s: &GenericAppSpec| AnalysisMode::ALL.map(|m| predict(s, m));

        // A transient member across stop/restart: stock loses it,
        // RCHDroid masks it (latent), RuntimeDroid keeps the instance.
        let [stock, rch, rtd] = verdicts(&spec(
            StopRestart,
            FieldOwner::Member,
            FieldPersistence::Transient,
            false,
        ));
        assert_eq!(stock.lost_after_one, ["alpha_field"]);
        assert_eq!(stock.lost_after_two, ["alpha_field"]);
        assert_eq!(rch.lost_after_one, ["alpha_field"]);
        assert!(rch.lost_after_two.is_empty());
        assert_eq!(rch.latent_after_two, ["alpha_field"]);
        assert!(!rtd.has_issue());

        // Sub-state is always lost under RuntimeDroid — bundle-saved,
        // store-persisted and self-handling apps included.
        for p in [
            FieldPersistence::Transient,
            FieldPersistence::BundleSaved,
            FieldPersistence::StorePersisted,
        ] {
            for handles in [false, true] {
                for owner in [FieldOwner::Dialog, FieldOwner::Fragment] {
                    let [_, _, rtd] = verdicts(&spec(SubStateOwner, owner, p, handles));
                    assert_eq!(rtd.lost_after_one, ["alpha_field"], "{owner:?}/{p:?}");
                    assert_eq!(rtd.lost_after_two, ["alpha_field"]);
                }
            }
        }
        // …while RCHDroid only misses the transient dialog (fragments
        // re-attach in the sunny onCreate).
        let [_, rch, _] = verdicts(&spec(
            SubStateOwner,
            FieldOwner::Dialog,
            FieldPersistence::Transient,
            false,
        ));
        assert_eq!(rch.latent_after_two, ["alpha_field"]);
        let [_, rch, _] = verdicts(&spec(
            SubStateOwner,
            FieldOwner::Fragment,
            FieldPersistence::Transient,
            false,
        ));
        assert!(!rch.has_issue());

        // The async race crashes stock and leaves RCHDroid's
        // replacement shadow stale.
        let [stock, rch, rtd] = verdicts(&spec(
            AsyncRace,
            FieldOwner::AsyncView,
            FieldPersistence::Transient,
            false,
        ));
        assert!(stock.crashed);
        assert!(!rch.crashed);
        assert_eq!(rch.latent_after_two, ["alpha_field"]);
        assert!(!rtd.has_issue());

        // Process death is mode-independent.
        for m in AnalysisMode::ALL {
            let v = predict(
                &spec(
                    ProcessDeath,
                    FieldOwner::Member,
                    FieldPersistence::Transient,
                    false,
                ),
                m,
            );
            assert_eq!(v.lost_after_one, ["alpha_field"], "{}", m.label());
            assert_eq!(v.lost_after_two, ["alpha_field"]);
            let saved = predict(
                &spec(
                    ProcessDeath,
                    FieldOwner::Member,
                    FieldPersistence::BundleSaved,
                    false,
                ),
                m,
            );
            assert!(!saved.has_issue(), "{}", m.label());
        }

        // In-flight input dies with the stock restart only.
        let [stock, rch, rtd] = verdicts(&spec(
            InputInFlight,
            FieldOwner::InputView,
            FieldPersistence::Transient,
            false,
        ));
        assert_eq!(stock.lost_after_one, ["alpha_field"]);
        assert!(!rch.has_issue());
        assert!(!rtd.has_issue());
    }
}
