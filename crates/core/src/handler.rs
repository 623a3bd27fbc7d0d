//! The RCHDroid change handler: orchestrates the shadow/sunny protocol
//! across the activity thread and the ATMS (Fig. 3).

use crate::gc::{GcDecision, GcPolicy, ShadowAgeTracker};
use crate::migration::{MigrationEngine, MigrationReport};
use crate::supervise::{FaultLog, FaultRecord, MigrationError, MigrationWatchdog};
use core::fmt;
use droidsim_app::{Activity, ActivityInstanceId};
use droidsim_app::{ActivityState, ActivityThread, AppModel, AsyncWork, ThreadError};
use droidsim_atms::{Atms, AtmsError, ConfigDecision, Intent, RecordState, StartDisposition};
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_kernel::SimTime;
use droidsim_metrics::FaultMetrics;
use droidsim_view::ViewError;
use std::panic::{self, AssertUnwindSafe};

/// Which path a runtime change took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The global configuration did not actually change.
    NoChange,
    /// The app declared `android:configChanges` and handled it in place.
    HandledByApp,
    /// First change: a new sunny instance was created and coupled
    /// (RCHDroid-init in the paper's plots).
    Init,
    /// Steady state: the coupled shadow instance was coin-flipped back.
    Flip,
    /// A fault degraded the change to the stock restart path (rung 2 of
    /// the ladder): saved state → destroy → recreate, coupling abandoned.
    FallbackRestart,
}

/// The outcome of one handled runtime change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeOutcome {
    /// The path taken.
    pub kind: ChangeKind,
    /// The foreground instance after handling.
    pub sunny_instance: ActivityInstanceId,
    /// The coupled shadow instance, if one exists.
    pub shadow_instance: Option<ActivityInstanceId>,
    /// The view count of the foreground tree (cost-model input).
    pub view_count: usize,
    /// The fault that forced a [`ChangeKind::FallbackRestart`], if it is
    /// attributable to a named injection site.
    pub fault: Option<FaultSite>,
}

/// What one async delivery amounted to under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncDelivery {
    /// The callback ran; nothing needed migrating (foreground delivery,
    /// or the lazy-migration ablation is off).
    Delivered,
    /// The callback ran on the shadow and its updates flushed.
    Migrated(MigrationReport),
    /// The callback panicked (or an injected `async-callback-panic`
    /// struck); the delivery was dropped and the fault contained.
    CallbackPanicked,
    /// The callback's captured instance no longer exists (it died in a
    /// fallback restart or a GC pass); the supervisor dropped the stale
    /// delivery instead of replaying the stock NullPointerException.
    DroppedStale,
    /// Migration faulted uncontainably; the foreground activity was
    /// restarted through the stock path.
    FallbackRestart {
        /// The named injection site, when the fault has one.
        site: Option<FaultSite>,
    },
}

impl AsyncDelivery {
    /// The migration report, when this delivery flushed one (keeps the
    /// happy-path call sites shaped like the old `Option` return).
    pub fn report(&self) -> Option<MigrationReport> {
        match self {
            AsyncDelivery::Migrated(r) => Some(*r),
            _ => None,
        }
    }
}

/// Handler errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HandlerError {
    /// No foreground activity to handle the change for.
    NoForegroundActivity,
    /// Activity-thread failure.
    Thread(ThreadError),
    /// ATMS failure.
    Atms(AtmsError),
    /// View-system failure during coupling/migration.
    View(ViewError),
    /// Migration failure the ladder could not absorb below rung 3 (an
    /// app-logic crash stock Android would die on too).
    Migration(MigrationError),
    /// A protocol invariant the handler relies on was violated (these
    /// replace what used to be `unreachable!` panics).
    Internal(&'static str),
}

impl fmt::Display for HandlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerError::NoForegroundActivity => write!(f, "no foreground activity"),
            HandlerError::Thread(e) => write!(f, "{e}"),
            HandlerError::Atms(e) => write!(f, "{e}"),
            HandlerError::View(e) => write!(f, "{e}"),
            HandlerError::Migration(e) => write!(f, "{e}"),
            HandlerError::Internal(what) => write!(f, "handler invariant violated: {what}"),
        }
    }
}

impl std::error::Error for HandlerError {}

impl From<ThreadError> for HandlerError {
    fn from(e: ThreadError) -> Self {
        HandlerError::Thread(e)
    }
}

impl From<AtmsError> for HandlerError {
    fn from(e: AtmsError) -> Self {
        HandlerError::Atms(e)
    }
}

impl From<ViewError> for HandlerError {
    fn from(e: ViewError) -> Self {
        HandlerError::View(e)
    }
}

impl From<MigrationError> for HandlerError {
    fn from(e: MigrationError) -> Self {
        HandlerError::Migration(e)
    }
}

/// Ablation switches for RCHDroid's design choices (all on by default —
/// the paper's full system). Turning one off isolates its contribution:
///
/// * without **coin-flipping**, every change pays the init cost (creating
///   and seeding a fresh sunny instance) — the Fig. 10a
///   "RCHDroid-init" line becomes the steady state,
/// * without **lazy migration**, async-task results still land safely on
///   the alive shadow instance (no crash), but the foreground tree never
///   learns about them — stale UI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RchOptions {
    /// Reuse the coupled shadow instance on later changes (§3.4).
    pub coin_flip: bool,
    /// Migrate intercepted shadow-tree updates to the sunny tree (§3.3).
    pub lazy_migration: bool,
}

impl Default for RchOptions {
    fn default() -> Self {
        RchOptions {
            coin_flip: true,
            lazy_migration: true,
        }
    }
}

/// The RCHDroid runtime-change handler.
///
/// One handler instance serves one app process (matching the paper's
/// at-most-one-shadow-per-system invariant for the foreground app).
#[derive(Debug)]
pub struct RchDroid {
    tracker: ShadowAgeTracker,
    engine: MigrationEngine,
    options: RchOptions,
    /// Fault schedule probed on the change path (sites
    /// `bundle-corruption`, `async-callback-panic`,
    /// `allocation-failure`). The engine holds a clone probing the
    /// *disjoint* flush-path sites, so per-site streams stay aligned.
    faults: FaultPlan,
    fault_log: FaultLog,
    /// Instances THIS handler destroyed (fallback restarts, shadow
    /// releases, GC passes). A late async callback bound to one of these
    /// is dropped as rung-1 containment; a callback to an instance the
    /// *system* reclaimed outside the protocol still crashes like stock.
    supervised_dead: std::collections::HashSet<ActivityInstanceId>,
}

impl RchDroid {
    /// A handler with the paper's GC operating point.
    pub fn new() -> Self {
        RchDroid::with_policy(GcPolicy::paper_default())
    }

    /// A handler with a custom GC policy (the Fig. 11 sweep).
    pub fn with_policy(policy: GcPolicy) -> Self {
        RchDroid::with_options(policy, RchOptions::default())
    }

    /// A handler with ablation options.
    pub fn with_options(policy: GcPolicy, options: RchOptions) -> Self {
        RchDroid {
            tracker: ShadowAgeTracker::new(policy),
            engine: MigrationEngine::new(),
            options,
            faults: FaultPlan::disarmed(),
            fault_log: FaultLog::default(),
            supervised_dead: std::collections::HashSet::new(),
        }
    }

    /// Arms (or disarms) the fault schedule. The plan is cloned into the
    /// migration engine too; that is deterministic because the handler
    /// and the engine probe disjoint site sets and every site draws from
    /// its own PRNG stream.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.engine.arm_faults(plan.clone());
        self.faults = plan;
    }

    /// Replaces the migration watchdog's per-flush budget.
    pub fn set_watchdog(&mut self, watchdog: MigrationWatchdog) {
        self.engine.set_watchdog(watchdog);
    }

    /// Lifetime fault metrics: handler-path and flush-path faults merged.
    pub fn fault_metrics(&self) -> FaultMetrics {
        let mut merged = self.fault_log.metrics().clone();
        merged.merge(self.engine.fault_metrics());
        merged
    }

    /// Drains the recent fault records from both the handler and the
    /// engine (the device layer turns these into logcat events).
    pub fn take_fault_records(&mut self) -> Vec<FaultRecord> {
        let mut records = self.fault_log.drain();
        records.extend(self.engine.take_fault_records());
        records
    }

    /// The ablation options in force.
    pub fn options(&self) -> RchOptions {
        self.options
    }

    /// Lifetime migration metrics (batch sizes, coalesce ratio, flush
    /// latencies) of this handler's engine.
    pub fn migration_metrics(&self) -> &droidsim_metrics::MigrationMetrics {
        self.engine.metrics()
    }

    /// Handles a runtime configuration change for the foreground activity
    /// (the ATMS global configuration must already be updated).
    ///
    /// Implements steps ①–③ of Fig. 3: shadow the current instance,
    /// sunny-start (create or coin-flip), restore state and couple the
    /// trees. Step ④ (lazy migration) happens later, per async return,
    /// via [`RchDroid::on_async_delivered`].
    ///
    /// # Errors
    ///
    /// [`HandlerError::NoForegroundActivity`] when nothing is in the
    /// foreground; otherwise propagated thread/ATMS/view errors. Handling
    /// faults never surface as errors here — the degradation ladder
    /// absorbs them into a [`ChangeKind::FallbackRestart`] outcome; only
    /// rung-3 app-logic crashes propagate.
    pub fn handle_configuration_change(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        model: &dyn AppModel,
        now: SimTime,
    ) -> Result<ChangeOutcome, HandlerError> {
        let fore_record = atms
            .foreground_record()
            .ok_or(HandlerError::NoForegroundActivity)?;
        let old_instance = thread
            .instance_for_token(fore_record)
            .ok_or(HandlerError::NoForegroundActivity)?;

        // RCHDroid always prevents the relaunch test (§3.1).
        let decision = atms.ensure_activity_configuration(fore_record, true)?;
        match decision {
            ConfigDecision::NoChange => {
                let view_count = thread.instance(old_instance)?.tree.view_count();
                return Ok(ChangeOutcome {
                    kind: ChangeKind::NoChange,
                    sunny_instance: old_instance,
                    shadow_instance: thread.current_shadow(),
                    view_count,
                    fault: None,
                });
            }
            ConfigDecision::HandledByApp(_) => {
                let activity = thread.instance_mut(old_instance)?;
                model.on_configuration_changed(activity);
                let view_count = activity.tree.view_count();
                return Ok(ChangeOutcome {
                    kind: ChangeKind::HandledByApp,
                    sunny_instance: old_instance,
                    shadow_instance: thread.current_shadow(),
                    view_count,
                    fault: None,
                });
            }
            ConfigDecision::Relaunch(_) => {
                return Err(HandlerError::Internal(
                    "prevent_relaunch=true never yields Relaunch",
                ));
            }
            ConfigDecision::PreventedRelaunch(_) => {}
        }

        // Ablation: with coin-flipping disabled, release any existing
        // shadow so the starter's search finds nothing and every change
        // pays the creation cost.
        if !self.options.coin_flip {
            if let Some(existing) = thread.current_shadow() {
                if existing != old_instance {
                    self.release_shadow(thread, atms, existing)?;
                }
            }
        }

        // Step ①: put the current instance into the Shadow state (this
        // snapshots its saved state into the shadow bundle).
        thread.enter_shadow(old_instance, model)?;
        self.tracker.note_shadow_entry(now);

        // Fault site `bundle-corruption`: the snapshot parcel is lost.
        // The sunny instance cannot restore from it, so the change falls
        // back to a stock restart — launched without saved state, exactly
        // what stock Android does when a parcel fails to unmarshal.
        if self.faults.should_inject(FaultSite::BundleCorruption) {
            if let Ok(activity) = thread.instance_mut(old_instance) {
                activity.shadow_bundle = None;
            }
            return self.fallback_restart(
                thread,
                atms,
                model,
                old_instance,
                Some(FaultSite::BundleCorruption),
            );
        }

        // Step ②: sunny-start through the ATMS (creates or coin-flips).
        let component = thread.instance(old_instance)?.component();
        let start =
            atms.start_activity_with_mask(&Intent::sunny(component), now, model.handled_changes());

        match start.disposition {
            StartDisposition::CreatedNew => {
                // Fault site `allocation-failure`: creating the sunny
                // instance fails under GC pressure. The record swap the
                // starter just performed is rolled back so the stack
                // never references an instance that was never born.
                if self.faults.should_inject(FaultSite::AllocationFailure) {
                    atms.rollback_sunny_start(&start, fore_record, now)?;
                    return self.fallback_restart(
                        thread,
                        atms,
                        model,
                        old_instance,
                        Some(FaultSite::AllocationFailure),
                    );
                }
                // First change: launch the sunny instance from the shadow
                // bundle and couple it (step ③).
                let shadow_bundle = thread.instance(old_instance)?.shadow_bundle.clone();
                let sunny_instance = thread.perform_launch_activity(
                    model,
                    start.record,
                    *atms.global_config(),
                    shadow_bundle.as_ref(),
                );
                if thread.resume_sequence(sunny_instance, true).is_err() {
                    self.supervised_dead.insert(sunny_instance);
                    let _ = thread.destroy_activity(sunny_instance);
                    atms.rollback_sunny_start(&start, fore_record, now)?;
                    return self.fallback_restart(thread, atms, model, old_instance, None);
                }
                thread.set_current_shadow(Some(old_instance));
                // The mapping is the two trees' id-name indexes, so nothing
                // is built: seed the user state the bundle restore missed
                // (views that skip onSaveInstanceState), then clear the
                // bookkeeping invalidations.
                let engine = &mut self.engine;
                let view_count = thread.with_instance_pair(
                    old_instance,
                    sunny_instance,
                    |shadow, sunny| {
                        engine.seed_user_state(&shadow.tree, &mut sunny.tree)?;
                        shadow.tree.drain_invalidations();
                        sunny.tree.drain_invalidations();
                        Ok::<_, ViewError>(sunny.tree.view_count())
                    },
                )??;
                Ok(ChangeOutcome {
                    kind: ChangeKind::Init,
                    sunny_instance,
                    shadow_instance: Some(old_instance),
                    view_count,
                    fault: None,
                })
            }
            StartDisposition::FlippedShadow { .. } => {
                // The record that came back on top belongs to the previous
                // shadow instance: flip it to Sunny on the thread side. If
                // the thread lost that instance, the record swap is rolled
                // back and the change degrades to a stock restart.
                let Some(sunny_instance) = thread.instance_for_token(start.record) else {
                    atms.rollback_sunny_start(&start, fore_record, now)?;
                    return self.fallback_restart(thread, atms, model, old_instance, None);
                };
                if thread.resume_sequence(sunny_instance, true).is_err() {
                    self.supervised_dead.insert(sunny_instance);
                    let _ = thread.destroy_activity(sunny_instance);
                    atms.rollback_sunny_start(&start, fore_record, now)?;
                    return self.fallback_restart(thread, atms, model, old_instance, None);
                }
                thread.set_current_shadow(Some(old_instance));
                thread.set_current_sunny(Some(sunny_instance));
                let view_count = thread.instance(sunny_instance)?.tree.view_count();
                Ok(ChangeOutcome {
                    kind: ChangeKind::Flip,
                    sunny_instance,
                    shadow_instance: Some(old_instance),
                    view_count,
                    fault: None,
                })
            }
            StartDisposition::ReusedTop => Err(HandlerError::Internal(
                "SUNNY starts never reuse the top record",
            )),
        }
    }

    /// Step ④ (lazy migration): runs an async callback and, if it landed
    /// on the shadow instance, migrates the intercepted view updates to
    /// the coupled sunny instance.
    ///
    /// The supervision boundary lives here: a panicking callback (app
    /// bug or injected `async-callback-panic`) is caught and contained —
    /// the delivery is dropped, the process survives. A migration fault
    /// degrades through the ladder (per-view containment inside the
    /// flush, fallback restart of the foreground when the whole flush is
    /// poisoned).
    ///
    /// # Errors
    ///
    /// Thread errors (a crash-worthy delivery target — e.g. the shadow
    /// was GC'd before the task returned, the paper's residual risk —
    /// is recorded as a rung-3 fault and propagated for the process to
    /// be marked crashed), and rung-3 migration errors.
    pub fn on_async_delivered(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        model: &dyn AppModel,
        work: &AsyncWork,
    ) -> Result<AsyncDelivery, HandlerError> {
        // Fault site `async-callback-panic`: the callback throws before
        // touching any view. Contained — the delivery is dropped.
        if self.faults.should_inject(FaultSite::AsyncCallbackPanic) {
            self.fault_log
                .contained(FaultSite::AsyncCallbackPanic.name());
            return Ok(AsyncDelivery::CallbackPanicked);
        }
        // A callback captured by an instance THIS handler destroyed — in
        // a fallback restart, a shadow release, or a GC pass. Stock
        // Android replays this as the motivating NullPointerException;
        // the supervised handler drops it as rung-1 containment instead.
        // (An instance the system reclaimed outside the protocol is NOT
        // covered: that delivery crashes exactly as on stock.)
        if self.supervised_dead.contains(&work.instance) {
            self.fault_log.contained("stale-callback");
            return Ok(AsyncDelivery::DroppedStale);
        }
        match panic::catch_unwind(AssertUnwindSafe(|| thread.deliver_async(model, work))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(self.escalate(HandlerError::Thread(e))),
            Err(_) => {
                // An organic panic in the app's callback: same containment
                // as the injected one.
                self.fault_log
                    .contained(FaultSite::AsyncCallbackPanic.name());
                return Ok(AsyncDelivery::CallbackPanicked);
            }
        }
        let instance = work.instance;
        let state = thread.instance(instance)?.state();
        if !self.options.lazy_migration {
            // Ablation: the callback ran safely on the shadow instance,
            // but nothing propagates to the foreground tree.
            thread.instance_mut(instance)?.tree.drain_invalidations();
            return Ok(AsyncDelivery::Delivered);
        }
        if state != ActivityState::Shadow {
            // Foreground instance updated directly; nothing to migrate.
            thread.instance_mut(instance)?.tree.drain_invalidations();
            return Ok(AsyncDelivery::Delivered);
        }
        let Some(sunny) = thread.current_sunny() else {
            return Ok(AsyncDelivery::Delivered);
        };
        let engine = &mut self.engine;
        let migrated = thread.with_instance_pair(instance, sunny, |shadow, sunny| {
            engine.migrate_invalidations(&mut shadow.tree, &mut sunny.tree)
        })?;
        match migrated {
            Ok(report) => Ok(AsyncDelivery::Migrated(report)),
            Err(e) if !e.is_app_crash() => {
                let site = e.site();
                self.fallback_restart(thread, atms, model, sunny, site)?;
                Ok(AsyncDelivery::FallbackRestart { site })
            }
            Err(e) => Err(self.escalate(HandlerError::Migration(e))),
        }
    }

    /// Rung 2 of the degradation ladder: abandon shadow/sunny handling
    /// for this change and replay the stock restart path —
    /// `onSaveInstanceState`, then [`ActivityThread::relaunch`], the
    /// method stock Android's relaunch calls — on `old_instance`'s
    /// record. Any coupled partner instance (and its record) is
    /// reclaimed first so the task stack never references a dead
    /// instance.
    fn fallback_restart(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        model: &dyn AppModel,
        old_instance: ActivityInstanceId,
        site: Option<FaultSite>,
    ) -> Result<ChangeOutcome, HandlerError> {
        self.abandon_coupling(thread, atms, old_instance)?;

        // Stock `onSaveInstanceState`: reuse the shadow snapshot when the
        // protocol already took one this change, save fresh otherwise. A
        // corrupted parcel restores nothing — stock behaviour again.
        let bundle = if site == Some(FaultSite::BundleCorruption) {
            None
        } else {
            let activity = thread.instance(old_instance)?;
            match activity.shadow_bundle.clone() {
                Some(bundle) if activity.state() == ActivityState::Shadow => Some(bundle),
                _ => Some(activity.save_instance_state(model)),
            }
        };

        // The stock relaunch on the same record token, with the
        // configuration the change was about.
        let token = thread.instance(old_instance)?.token();
        self.supervised_dead.insert(old_instance);
        let config = *atms.global_config();
        let new_instance = thread.relaunch(model, old_instance, config, bundle.as_ref())?;
        atms.set_record_state(token, RecordState::Resumed)?;

        let site_name = site.map_or("migration-error", FaultSite::name);
        self.fault_log.fallback(site_name);

        let view_count = thread.instance(new_instance)?.tree.view_count();
        Ok(ChangeOutcome {
            kind: ChangeKind::FallbackRestart,
            sunny_instance: new_instance,
            shadow_instance: None,
            view_count,
            fault: site,
        })
    }

    /// Tears down everything the shadow/sunny protocol holds except
    /// `keep`: any partner instance still on the thread, the partner's
    /// ATMS record, the shadow and sunny pointers and the GC tracker (the
    /// engine keeps no per-coupling state). Partners are found by
    /// component, not by the shadow/sunny pointers — `enter_shadow`
    /// repoints those mid-change, and a second alive instance of the
    /// activity can only ever be the protocol's coupling partner.
    fn abandon_coupling(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        keep: ActivityInstanceId,
    ) -> Result<(), HandlerError> {
        let component = thread.instance(keep)?.component();
        let partners: Vec<ActivityInstanceId> = thread
            .alive_activities()
            .filter(|a| a.id() != keep && a.component() == component)
            .map(Activity::id)
            .collect();
        for partner in partners {
            let token = thread.instance(partner)?.token();
            self.supervised_dead.insert(partner);
            thread.destroy_activity(partner)?;
            let _ = atms.destroy_record(token);
        }
        thread.set_current_shadow(None);
        thread.set_current_sunny(None);
        self.tracker.reset();
        Ok(())
    }

    /// Records a rung-3 escalation for errors that are about to unwind to
    /// the device layer (which marks the process crashed — never a
    /// panic).
    fn escalate(&mut self, error: HandlerError) -> HandlerError {
        self.fault_log.crashed("app-logic");
        error
    }

    /// `doGcForShadowIfNeeded` (§3.5): evaluates Algorithm 1 and, on a
    /// `Collect` verdict, destroys the shadow instance and its record.
    ///
    /// # Errors
    ///
    /// Thread/ATMS errors during reclamation.
    pub fn run_gc(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        now: SimTime,
    ) -> Result<GcDecision, HandlerError> {
        let Some(shadow_instance) = thread.current_shadow() else {
            return Ok(GcDecision::NothingToCollect);
        };
        let token = thread.instance(shadow_instance)?.token();
        let shadow_since = atms.record(token).and_then(|r| r.shadow_since);
        let decision = self.tracker.evaluate(now, shadow_since);
        if decision.should_collect() {
            self.release_shadow(thread, atms, shadow_instance)?;
        }
        Ok(decision)
    }

    /// Releases the shadow immediately (foreground activity finished or
    /// switched to another app — §3.5's immediate-release rule).
    ///
    /// # Errors
    ///
    /// Thread/ATMS errors during reclamation.
    pub fn on_foreground_switched(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
    ) -> Result<bool, HandlerError> {
        let Some(shadow_instance) = thread.current_shadow() else {
            self.tracker.reset();
            return Ok(false);
        };
        self.release_shadow(thread, atms, shadow_instance)?;
        self.tracker.reset();
        Ok(true)
    }

    fn release_shadow(
        &mut self,
        thread: &mut ActivityThread,
        atms: &mut Atms,
        shadow_instance: ActivityInstanceId,
    ) -> Result<(), HandlerError> {
        let token = thread.instance(shadow_instance)?.token();
        self.supervised_dead.insert(shadow_instance);
        thread.destroy_activity(shadow_instance)?;
        atms.destroy_record(token)?;
        Ok(())
    }
}

impl Default for RchDroid {
    fn default() -> Self {
        RchDroid::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::LadderRung;
    use droidsim_app::SimpleApp;
    use droidsim_config::Configuration;
    use droidsim_kernel::SimDuration;
    use droidsim_view::ViewOp;

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
        let start = atms.start_activity(&Intent::new(model.component_name()));
        let instance = thread.perform_launch_activity(
            &model,
            start.record,
            Configuration::phone_portrait(),
            None,
        );
        thread.resume_sequence(instance, false).unwrap();
        Rig {
            model,
            atms,
            thread,
            rch: RchDroid::new(),
            instance,
        }
    }

    fn rotate(rig: &mut Rig, now: SimTime) -> ChangeOutcome {
        let next = rig.atms.global_config().rotated();
        rig.atms.update_global_config(next);
        rig.rch
            .handle_configuration_change(&mut rig.thread, &mut rig.atms, &rig.model, now)
            .unwrap()
    }

    #[test]
    fn first_change_is_init_and_couples_instances() {
        let mut rig = boot(4);
        let outcome = rotate(&mut rig, SimTime::from_millis(17));
        assert_eq!(outcome.kind, ChangeKind::Init);
        assert_eq!(outcome.shadow_instance, Some(rig.instance));
        assert_ne!(outcome.sunny_instance, rig.instance);
        // Old instance alive in Shadow, new one in Sunny.
        assert_eq!(
            rig.thread.instance(rig.instance).unwrap().state(),
            ActivityState::Shadow
        );
        assert_eq!(
            rig.thread.instance(outcome.sunny_instance).unwrap().state(),
            ActivityState::Sunny
        );
    }

    #[test]
    fn second_change_is_flip_back_to_original_instance() {
        let mut rig = boot(4);
        let first = rotate(&mut rig, SimTime::from_millis(17));
        let second = rotate(&mut rig, SimTime::from_millis(79));
        assert_eq!(second.kind, ChangeKind::Flip);
        assert_eq!(
            second.sunny_instance, rig.instance,
            "original instance returns"
        );
        assert_eq!(second.shadow_instance, Some(first.sunny_instance));
        assert_eq!(
            rig.thread.alive_instances().len(),
            2,
            "never a third instance"
        );
    }

    #[test]
    fn no_change_short_circuits() {
        let mut rig = boot(2);
        let same = *rig.atms.global_config();
        rig.atms.update_global_config(same);
        let outcome = rig
            .rch
            .handle_configuration_change(&mut rig.thread, &mut rig.atms, &rig.model, SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.kind, ChangeKind::NoChange);
        assert_eq!(rig.thread.alive_instances().len(), 1);
    }

    #[test]
    fn self_handling_app_stays_in_place() {
        let model = SimpleApp::builder(2)
            .handles(droidsim_config::ConfigChanges::ALL)
            .build();
        let mut atms = Atms::new(Configuration::phone_portrait());
        let mut thread = ActivityThread::new();
        let start = atms.start_activity_with_mask(
            &Intent::new(model.component_name()),
            SimTime::ZERO,
            model.handled_changes(),
        );
        let instance = thread.perform_launch_activity(
            &model,
            start.record,
            Configuration::phone_portrait(),
            None,
        );
        thread.resume_sequence(instance, false).unwrap();
        let mut rch = RchDroid::new();
        atms.update_global_config(Configuration::phone_landscape());
        let outcome = rch
            .handle_configuration_change(&mut thread, &mut atms, &model, SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.kind, ChangeKind::HandledByApp);
        assert_eq!(thread.alive_instances().len(), 1);
    }

    #[test]
    fn state_survives_the_change_via_the_bundle() {
        let mut rig = boot(2);
        // The user scrolls the list — genuine user state on a container.
        {
            let a = rig.thread.instance_mut(rig.instance).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(480)).unwrap();
        }
        let outcome = rotate(&mut rig, SimTime::from_millis(10));
        let sunny = rig.thread.instance(outcome.sunny_instance).unwrap();
        let root = sunny.tree.find_by_id_name("root").unwrap();
        assert_eq!(sunny.tree.view(root).unwrap().attrs.scroll_y(), 480);
    }

    #[test]
    fn async_task_survives_and_migrates_to_sunny() {
        let mut rig = boot(3);
        // Start the 5 s AsyncTask, then rotate before it returns (Fig. 1b).
        rig.thread
            .start_async(rig.instance, rig.model.button_task(), SimTime::ZERO)
            .unwrap();
        let outcome = rotate(&mut rig, SimTime::from_millis(100));

        // Task returns at t = 5 s, onto the SHADOW instance.
        let due = rig.thread.take_due_async(SimTime::from_secs(5));
        assert_eq!(due.len(), 1);
        let report = rig
            .rch
            .on_async_delivered(&mut rig.thread, &mut rig.atms, &rig.model, &due[0])
            .unwrap()
            .report()
            .expect("migration ran");
        assert_eq!(report.migrated, 3, "all three images migrated");

        // The SUNNY tree shows the loaded images.
        let sunny = rig.thread.instance(outcome.sunny_instance).unwrap();
        for i in 0..3 {
            let v = sunny.tree.find_by_id_name(&format!("image_{i}")).unwrap();
            assert_eq!(
                sunny
                    .tree
                    .view(v)
                    .unwrap()
                    .attrs
                    .drawable
                    .as_ref()
                    .unwrap()
                    .0
                    .as_str(),
                format!("loaded_{i}.png")
            );
        }
    }

    #[test]
    fn async_to_foreground_instance_needs_no_migration() {
        let mut rig = boot(2);
        let outcome = rotate(&mut rig, SimTime::from_millis(10));
        // Task started AFTER the change, on the sunny instance.
        rig.thread
            .start_async(
                outcome.sunny_instance,
                rig.model.button_task(),
                SimTime::from_secs(1),
            )
            .unwrap();
        let due = rig.thread.take_due_async(SimTime::from_secs(6));
        let delivery = rig
            .rch
            .on_async_delivered(&mut rig.thread, &mut rig.atms, &rig.model, &due[0])
            .unwrap();
        assert_eq!(delivery, AsyncDelivery::Delivered);
        assert!(delivery.report().is_none());
    }

    #[test]
    fn gc_collects_old_shadow_and_next_change_is_init_again() {
        let mut rig = boot(2);
        rotate(&mut rig, SimTime::from_secs(1));
        // 100 s later: age 99 > 50 and frequency 0 → collect.
        let decision = rig
            .rch
            .run_gc(&mut rig.thread, &mut rig.atms, SimTime::from_secs(101))
            .unwrap();
        assert!(decision.should_collect());
        assert_eq!(rig.thread.current_shadow(), None);
        assert_eq!(rig.thread.alive_instances().len(), 1);

        // The next change cannot flip: it's an init again.
        let outcome = rotate(&mut rig, SimTime::from_secs(102));
        assert_eq!(outcome.kind, ChangeKind::Init);
    }

    #[test]
    fn gc_keeps_young_shadow() {
        let mut rig = boot(2);
        rotate(&mut rig, SimTime::from_secs(1));
        let decision = rig
            .rch
            .run_gc(&mut rig.thread, &mut rig.atms, SimTime::from_secs(10))
            .unwrap();
        assert!(!decision.should_collect());
        assert!(rig.thread.current_shadow().is_some());
    }

    #[test]
    fn gc_keeps_frequent_flipper() {
        let mut rig = boot(2);
        let policy = GcPolicy::paper_default().with_thresh_t(SimDuration::from_secs(2));
        rig.rch = RchDroid::with_policy(policy);
        // Six flips, 10 s apart.
        for i in 0..6u64 {
            rotate(&mut rig, SimTime::from_secs(10 * i));
        }
        // 5 s after the last flip: age 5 > 2 but frequency ≥ 4 → keep.
        let decision = rig
            .rch
            .run_gc(&mut rig.thread, &mut rig.atms, SimTime::from_secs(55))
            .unwrap();
        assert!(matches!(decision, GcDecision::TooFrequent { .. }));
    }

    #[test]
    fn foreground_switch_releases_shadow_immediately() {
        let mut rig = boot(2);
        rotate(&mut rig, SimTime::from_secs(1));
        assert!(rig.thread.current_shadow().is_some());
        let released = rig
            .rch
            .on_foreground_switched(&mut rig.thread, &mut rig.atms)
            .unwrap();
        assert!(released);
        assert_eq!(rig.thread.current_shadow(), None);
    }

    #[test]
    fn at_most_one_shadow_exists_across_many_changes() {
        let mut rig = boot(2);
        for i in 0..8u64 {
            rotate(&mut rig, SimTime::from_secs(i + 1));
            assert!(rig.atms.shadow_records().len() <= 1);
            assert_eq!(rig.thread.alive_instances().len(), 2);
        }
    }

    #[test]
    fn member_unsaved_state_is_still_lost() {
        // Apps #9/#10 of Table 3: state not in any view, no
        // onSaveInstanceState → RCHDroid cannot help (§5.2).
        let mut rig = boot(1);
        rig.thread
            .instance_mut(rig.instance)
            .unwrap()
            .member_state
            .put_string("scan_pct", "47");
        let outcome = rotate(&mut rig, SimTime::from_secs(1));
        let sunny = rig.thread.instance(outcome.sunny_instance).unwrap();
        assert!(sunny.member_state.is_empty(), "the field did not survive");
    }

    /// Asserts the single-activity steady state the fallback must leave
    /// behind: one alive instance, one resumed record, no shadow records.
    fn assert_stock_steady_state(rig: &Rig, foreground: ActivityInstanceId) {
        assert_eq!(rig.thread.alive_instances(), vec![foreground]);
        assert!(rig.atms.shadow_records().is_empty(), "no shadow leaked");
        let token = rig.thread.instance(foreground).unwrap().token();
        assert_eq!(rig.atms.foreground_record(), Some(token));
        assert_eq!(
            rig.thread.instance(foreground).unwrap().state(),
            ActivityState::Resumed,
            "stock restart resumes, not sunny"
        );
        assert_eq!(rig.thread.current_shadow(), None);
        assert_eq!(rig.thread.current_sunny(), None);
    }

    #[test]
    fn bundle_corruption_falls_back_to_stock_restart() {
        let mut rig = boot(2);
        // The user scrolls; a corrupted parcel must lose this state,
        // exactly like a stock restart whose bundle never arrives.
        {
            let a = rig.thread.instance_mut(rig.instance).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(480)).unwrap();
        }
        rig.rch
            .arm_faults(FaultPlan::seeded(7).on_nth_probe(FaultSite::BundleCorruption, 1));
        let outcome = rotate(&mut rig, SimTime::from_secs(1));
        assert_eq!(outcome.kind, ChangeKind::FallbackRestart);
        assert_eq!(outcome.fault, Some(FaultSite::BundleCorruption));
        assert_eq!(outcome.shadow_instance, None);
        assert_stock_steady_state(&rig, outcome.sunny_instance);
        let fresh = rig.thread.instance(outcome.sunny_instance).unwrap();
        let root = fresh.tree.find_by_id_name("root").unwrap();
        assert_eq!(
            fresh.tree.view(root).unwrap().attrs.scroll_y(),
            0,
            "corrupted parcel restores nothing"
        );
        let m = rig.rch.fault_metrics();
        assert_eq!(m.fallback_restarts, 1);
        assert_eq!(m.site_count("bundle-corruption"), 1);
    }

    #[test]
    fn allocation_failure_rolls_back_the_sunny_start() {
        let mut rig = boot(3);
        let token = rig.thread.instance(rig.instance).unwrap().token();
        rig.rch
            .arm_faults(FaultPlan::seeded(9).on_nth_probe(FaultSite::AllocationFailure, 1));
        let outcome = rotate(&mut rig, SimTime::from_secs(1));
        assert_eq!(outcome.kind, ChangeKind::FallbackRestart);
        assert_eq!(outcome.fault, Some(FaultSite::AllocationFailure));
        assert_stock_steady_state(&rig, outcome.sunny_instance);
        // The stillborn sunny record was rolled back: the surviving
        // record is the ORIGINAL token, and only one record is alive.
        assert_eq!(
            rig.thread.instance(outcome.sunny_instance).unwrap().token(),
            token
        );
        assert_eq!(rig.atms.alive_record_count(), 1);

        // The ladder recovers: the next change runs the full protocol.
        let next = rotate(&mut rig, SimTime::from_secs(2));
        assert_eq!(next.kind, ChangeKind::Init);
    }

    #[test]
    fn fallback_during_flip_reclaims_the_old_shadow() {
        let mut rig = boot(2);
        rotate(&mut rig, SimTime::from_secs(1));
        assert_eq!(rig.thread.alive_instances().len(), 2);
        // Second change is a flip; corrupt its bundle mid-change. The
        // fallback must reclaim the change-1 shadow partner even though
        // `enter_shadow` already repointed the pointers at the old sunny.
        rig.rch
            .arm_faults(FaultPlan::seeded(11).on_nth_probe(FaultSite::BundleCorruption, 1));
        let second = rotate(&mut rig, SimTime::from_secs(2));
        assert_eq!(second.kind, ChangeKind::FallbackRestart);
        assert_stock_steady_state(&rig, second.sunny_instance);
        assert_eq!(rig.atms.alive_record_count(), 1);
        // And the protocol restarts cleanly afterwards.
        let next = rotate(&mut rig, SimTime::from_secs(3));
        assert_eq!(next.kind, ChangeKind::Init);
        assert_eq!(rig.thread.alive_instances().len(), 2);
    }

    #[test]
    fn async_callback_panic_is_contained() {
        let mut rig = boot(3);
        rig.thread
            .start_async(rig.instance, rig.model.button_task(), SimTime::ZERO)
            .unwrap();
        let outcome = rotate(&mut rig, SimTime::from_millis(100));
        rig.rch
            .arm_faults(FaultPlan::seeded(13).on_nth_probe(FaultSite::AsyncCallbackPanic, 1));
        let due = rig.thread.take_due_async(SimTime::from_secs(5));
        let delivery = rig
            .rch
            .on_async_delivered(&mut rig.thread, &mut rig.atms, &rig.model, &due[0])
            .unwrap();
        assert_eq!(delivery, AsyncDelivery::CallbackPanicked);
        // Rung 1: the callback was dropped, both instances live on.
        assert_eq!(rig.thread.alive_instances().len(), 2);
        let sunny = rig.thread.instance(outcome.sunny_instance).unwrap();
        let v = sunny.tree.find_by_id_name("image_0").unwrap();
        assert_ne!(
            sunny
                .tree
                .view(v)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "loaded_0.png",
            "the dropped callback never mutated the tree"
        );
        let m = rig.rch.fault_metrics();
        assert_eq!(m.contained_per_view, 1);
        assert_eq!(m.site_count("async-callback-panic"), 1);
        assert_eq!(m.fallback_restarts, 0);
    }

    #[test]
    fn watchdog_overrun_on_delivery_falls_back() {
        let mut rig = boot(3);
        rig.rch.set_watchdog(MigrationWatchdog::new(
            SimDuration::from_micros(50),
            SimDuration::from_micros(100),
        ));
        rig.thread
            .start_async(rig.instance, rig.model.button_task(), SimTime::ZERO)
            .unwrap();
        rotate(&mut rig, SimTime::from_millis(100));

        // The delivery dirties 3 views × 100 µs against a 50 µs budget:
        // the watchdog fires and the delivery degrades to a fallback
        // restart of the foreground.
        let due = rig.thread.take_due_async(SimTime::from_secs(5));
        let delivery = rig
            .rch
            .on_async_delivered(&mut rig.thread, &mut rig.atms, &rig.model, &due[0])
            .unwrap();
        assert_eq!(
            delivery,
            AsyncDelivery::FallbackRestart {
                site: Some(FaultSite::FlushDeadlineOverrun)
            }
        );
        let foreground = rig.thread.alive_instances()[0];
        assert_stock_steady_state(&rig, foreground);
        let m = rig.rch.fault_metrics();
        assert_eq!(m.fallback_restarts, 1);
        assert_eq!(m.site_count("flush-deadline-overrun"), 1);
    }

    #[test]
    fn fault_records_name_the_rung_that_handled_each_fault() {
        let mut rig = boot(2);
        rig.rch
            .arm_faults(FaultPlan::seeded(19).on_nth_probe(FaultSite::BundleCorruption, 1));
        rotate(&mut rig, SimTime::from_secs(1));
        let records = rig.rch.take_fault_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].site, "bundle-corruption");
        assert_eq!(records[0].rung, LadderRung::FallbackRestart);
        assert!(rig.rch.take_fault_records().is_empty(), "drained");
    }
}
