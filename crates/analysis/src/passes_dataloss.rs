//! The data-loss dataflow passes (`RCH007`–`RCH012`).
//!
//! A field-level save/restore reachability analysis over [`AppShape`]:
//! for every [`DataLossField`] the pass determines which save site
//! writes it (none, `onSaveInstanceState`, the persistent store), which
//! restore site reads it back (`onRestoreInstanceState`, the hierarchy
//! bundle, the `onCreate` store replay), and under which lifecycle
//! interleaving that save→restore edge is skipped — per handling
//! scheme. The lattice is the [`predict`] rules of
//! [`crate::verdict`]: a field diagnostic is emitted **iff** some mode
//! loses the field, which is exactly the dynamic oracle's hazard
//! predicate — `tests/prop_dataloss.rs` holds the two equal and the
//! differential gate re-checks it app by app.
//!
//! Field findings use the class-specific codes `RCH007`–`RCH011` (one
//! lint per lifecycle interleaving); `RCH012` then summarises the
//! per-mode verdict in the style of `RCH006` — warning where stock or
//! RuntimeDroid loses data, error where even RCHDroid cannot save it.

use crate::diag::{Diagnostic, LintCode, Loc, Severity};
use crate::shape::{view_path, AppShape};
use crate::verdict::{predict, AnalysisMode, Verdict};
use rch_workloads::{DataLossClass, DataLossField, FieldOwner, GenericAppSpec};

/// Runs the data-loss passes over one app. A no-op for apps without a
/// [`rch_workloads::DataLossScenario`].
pub fn dataloss_passes(shape: &AppShape, spec: &GenericAppSpec, out: &mut Vec<Diagnostic>) {
    let Some(dl) = &spec.dataloss else { return };
    let verdicts = AnalysisMode::ALL.map(|m| (m, predict(spec, m)));
    for field in &dl.fields {
        field_reachability(shape, dl.class, field, &verdicts, out);
    }
    predicted_data_loss(shape, &verdicts, out);
}

/// Passes 7–11: one finding per field some handling scheme loses, with
/// the save/restore reachability chain spelled out.
fn field_reachability(
    shape: &AppShape,
    class: DataLossClass,
    field: &DataLossField,
    verdicts: &[(AnalysisMode, Verdict); 3],
    out: &mut Vec<Diagnostic>,
) {
    let lost_under: Vec<String> = verdicts
        .iter()
        .filter_map(|(mode, v)| loss_annotation(mode, v, class, &field.key))
        .collect();
    if lost_under.is_empty() {
        return; // every mode's restore site is reached
    }
    let loc = match shape.field_site(&field.key, field.owner) {
        Some((ct, id)) => Loc::view(
            &shape.app,
            &shape.activity,
            format!("{}:{}", ct.label, view_path(&ct.tree, id)),
        ),
        None => Loc::app_level(&shape.app, &shape.activity),
    };
    let written_by = match shape.save_site(field.persistence) {
        Some(site) => format!("written by {site}"),
        None => "written by no save site".to_owned(),
    };
    out.push(Diagnostic::new(
        class_code(class),
        Severity::Warning,
        loc,
        format!(
            "{} field `{}` is {written_by}, so the {} interleaving skips its \
             restore under {}",
            owner_noun(field.owner),
            field.key,
            class.label(),
            lost_under.join(", "),
        ),
    ));
}

/// The lint code of one lifecycle interleaving.
fn class_code(class: DataLossClass) -> LintCode {
    match class {
        DataLossClass::StopRestart => LintCode::UnsavedFieldLoss,
        DataLossClass::SubStateOwner => LintCode::SubStateLoss,
        DataLossClass::AsyncRace => LintCode::AsyncFieldRace,
        DataLossClass::ProcessDeath => LintCode::ProcessDeathLoss,
        DataLossClass::InputInFlight => LintCode::InputInFlightLoss,
    }
}

fn owner_noun(owner: FieldOwner) -> &'static str {
    match owner {
        FieldOwner::Member => "member",
        FieldOwner::Dialog => "dialog sub-state",
        FieldOwner::Fragment => "fragment sub-state",
        FieldOwner::AsyncView => "async-written view",
        FieldOwner::InputView => "uncommitted input",
    }
}

/// How `mode` loses `key`, if it does: plain loss, loss the coin flip
/// masks after the double rotation, loss only a latent (shadow-side)
/// probe sees, or a crash that pre-empts the field entirely.
fn loss_annotation(
    mode: &AnalysisMode,
    v: &Verdict,
    class: DataLossClass,
    key: &str,
) -> Option<String> {
    let label = mode.label();
    if v.crashed && class == DataLossClass::AsyncRace {
        return Some(format!("{label} (crash before the write lands)"));
    }
    let in_list = |list: &[String]| list.iter().any(|k| k == key);
    if in_list(&v.lost_after_two) {
        Some(label.to_owned())
    } else if in_list(&v.lost_after_one) && in_list(&v.latent_after_two) {
        Some(format!("{label} (masked by the flip, latent)"))
    } else if in_list(&v.latent_after_two) {
        Some(format!("{label} (latent)"))
    } else if in_list(&v.lost_after_one) {
        Some(format!("{label} (after one rotation)"))
    } else {
        None
    }
}

/// Pass 12 (`RCH012`): the data-loss verdict itself, per mode.
fn predicted_data_loss(
    shape: &AppShape,
    verdicts: &[(AnalysisMode, Verdict); 3],
    out: &mut Vec<Diagnostic>,
) {
    for (mode, v) in verdicts {
        if !v.has_issue() {
            continue;
        }
        let severity = match mode {
            // RCHDroid is the scheme under evaluation: loss it cannot
            // fix is a defect, loss a baseline suffers is a warning.
            AnalysisMode::RchDroid => Severity::Error,
            AnalysisMode::Stock | AnalysisMode::RuntimeDroid => Severity::Warning,
        };
        let detail = if v.crashed {
            "the racing async write crashes the restarted activity".to_owned()
        } else {
            let mut keys: Vec<&str> = Vec::new();
            for list in [&v.lost_after_one, &v.lost_after_two, &v.latent_after_two] {
                for k in list {
                    if !keys.contains(&k.as_str()) {
                        keys.push(k);
                    }
                }
            }
            format!("fields lost: {}", keys.join(", "))
        };
        out.push(Diagnostic::new(
            LintCode::PredictedDataLoss,
            severity,
            Loc::app_level(&shape.app, &shape.activity),
            format!("predicted data loss under {}: {detail}", mode.label()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze_app;
    use rch_workloads::{DataLossField, DataLossScenario, FieldPersistence};

    fn dl_spec(
        class: DataLossClass,
        owner: FieldOwner,
        persistence: FieldPersistence,
    ) -> GenericAppSpec {
        let mut s = GenericAppSpec::sized("DlPassProbe", "1K+", false);
        s.saves_instance_state = persistence == FieldPersistence::BundleSaved;
        s.dataloss = Some(DataLossScenario::new(
            class,
            vec![DataLossField::new("alpha_field", owner, persistence)],
        ));
        s
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn transient_member_raises_rch007_plus_verdicts() {
        let spec = dl_spec(
            DataLossClass::StopRestart,
            FieldOwner::Member,
            FieldPersistence::Transient,
        );
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        // RCH007 for the field, RCH012 for stock and for rchdroid
        // (RuntimeDroid keeps the instance: no third verdict).
        assert_eq!(codes(&diags), ["RCH007", "RCH012", "RCH012"]);
        assert!(diags[0].message.contains("written by no save site"));
        assert!(diags[0].message.contains("stop-restart"));
        assert_eq!(diags[1].severity, Severity::Warning);
        assert_eq!(diags[2].severity, Severity::Error, "RCHDroid cannot fix it");
    }

    #[test]
    fn bundle_saved_member_is_clean() {
        let spec = dl_spec(
            DataLossClass::StopRestart,
            FieldOwner::Member,
            FieldPersistence::BundleSaved,
        );
        let shape = AppShape::from_spec(&spec);
        assert!(analyze_app(&shape, Some(&spec)).is_empty());
    }

    #[test]
    fn store_persisted_fragment_still_dies_under_runtimedroid() {
        let spec = dl_spec(
            DataLossClass::SubStateOwner,
            FieldOwner::Fragment,
            FieldPersistence::StorePersisted,
        );
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH008", "RCH012"]);
        assert!(diags[0].message.contains("written by the persistent store"));
        assert!(diags[0].message.contains("runtimedroid"));
        assert!(
            diags[0].loc.view_path.contains("alpha_field"),
            "fragment views have a tree site: {}",
            diags[0].loc.view_path
        );
        assert!(diags[1].message.contains("under runtimedroid"));
        assert_eq!(diags[1].severity, Severity::Warning);
    }

    #[test]
    fn async_race_chains_stale_callback_and_race_findings() {
        let spec = dl_spec(
            DataLossClass::AsyncRace,
            FieldOwner::AsyncView,
            FieldPersistence::Transient,
        );
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        // RCH004 (the in-flight callback outlives the stock restart),
        // then RCH009 and the stock + rchdroid verdicts.
        assert_eq!(codes(&diags), ["RCH004", "RCH009", "RCH012", "RCH012"]);
        assert!(diags[1].message.contains("crash before the write lands"));
        assert!(diags[1].message.contains("rchdroid (latent)"));
        assert!(diags[2].message.contains("crashes the restarted activity"));
    }

    #[test]
    fn process_death_loss_is_mode_independent() {
        let spec = dl_spec(
            DataLossClass::ProcessDeath,
            FieldOwner::Member,
            FieldPersistence::Transient,
        );
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH010", "RCH012", "RCH012", "RCH012"]);
        assert!(diags[0].message.contains("stock, rchdroid, runtimedroid"));
    }

    #[test]
    fn self_handling_still_loses_sub_state_under_runtimedroid() {
        let mut spec = dl_spec(
            DataLossClass::SubStateOwner,
            FieldOwner::Dialog,
            FieldPersistence::BundleSaved,
        );
        spec.handles_changes = true;
        let shape = AppShape::from_spec(&spec);
        let diags = analyze_app(&shape, Some(&spec));
        assert_eq!(codes(&diags), ["RCH008", "RCH012"]);
        assert!(diags[0].message.contains("runtimedroid"));
        assert!(!diags[0].message.contains("stock"), "{}", diags[0].message);
    }
}
