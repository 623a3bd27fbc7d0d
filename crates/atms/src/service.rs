//! The ATMS facade: record arena + activity stack + starter logic.

use crate::intent::{Intent, IntentFlags};
use crate::record::{ActivityRecord, ActivityRecordId, RecordState};
use crate::stack::{ActivityStack, TaskId, TaskRecord};
use core::fmt;
use droidsim_config::{ConfigChanges, Configuration};
use droidsim_kernel::{IdGen, SimTime};
use std::collections::BTreeMap;

/// How an activity-start request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDisposition {
    /// A new record was created and pushed.
    CreatedNew,
    /// The top record already matched (default/SINGLE_TOP semantics);
    /// nothing was created.
    ReusedTop,
    /// RCHDroid coin-flip: an alive shadow record was reordered to the top
    /// and its shadow state removed; the previous top became the shadow.
    FlippedShadow {
        /// The record that just became the shadow-state instance.
        now_shadow: ActivityRecordId,
    },
}

/// The outcome of [`Atms::start_activity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartResult {
    /// The record now at the top of the task (the foreground activity).
    pub record: ActivityRecordId,
    /// Its task.
    pub task: TaskId,
    /// How the request was satisfied.
    pub disposition: StartDisposition,
}

/// `ensureActivityConfiguration`'s verdict for one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigDecision {
    /// The configurations are identical.
    NoChange,
    /// The app declared it handles every changed axis: deliver
    /// `onConfigurationChanged`, no relaunch.
    HandledByApp(ConfigChanges),
    /// Stock Android: destroy and recreate the activity.
    Relaunch(ConfigChanges),
    /// RCHDroid: the relaunch test is skipped; the change handler will run
    /// the shadow/sunny protocol instead.
    PreventedRelaunch(ConfigChanges),
}

/// ATMS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtmsError {
    /// No record with this token.
    UnknownRecord(ActivityRecordId),
    /// No task with this id.
    UnknownTask(TaskId),
}

impl fmt::Display for AtmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtmsError::UnknownRecord(r) => write!(f, "unknown activity record {r}"),
            AtmsError::UnknownTask(t) => write!(f, "unknown task {t}"),
        }
    }
}

impl std::error::Error for AtmsError {}

/// The activity task manager service.
///
/// Owns the activity stack and the record arena, and implements the
/// starter logic — including the RCHDroid start path taken for intents
/// carrying [`IntentFlags::SUNNY`].
///
/// # Examples
///
/// ```
/// use droidsim_atms::{Atms, Intent, IntentFlags, StartDisposition};
/// use droidsim_config::Configuration;
/// use droidsim_kernel::SimTime;
///
/// let mut atms = Atms::new(Configuration::phone_portrait());
/// let first = atms.start_activity_at(&Intent::new("app/.Main"), SimTime::ZERO);
/// // A sunny start creates a *second* instance of the same component:
/// let sunny = atms.start_activity_at(&Intent::sunny("app/.Main"), SimTime::from_secs(1));
/// assert!(matches!(sunny.disposition, StartDisposition::CreatedNew));
/// assert!(atms.record(first.record).unwrap().is_shadow());
/// ```
#[derive(Debug, Clone)]
pub struct Atms {
    stack: ActivityStack,
    records: BTreeMap<ActivityRecordId, ActivityRecord>,
    record_ids: IdGen,
    global_config: Configuration,
    /// Default handled-changes mask applied to newly started components
    /// (set per-start via [`Atms::start_activity_with_mask`]).
    default_handled: ConfigChanges,
}

impl Atms {
    /// Creates an ATMS with the given boot configuration.
    pub fn new(global_config: Configuration) -> Self {
        Atms {
            stack: ActivityStack::new(),
            records: BTreeMap::new(),
            record_ids: IdGen::new(),
            global_config,
            default_handled: ConfigChanges::NONE,
        }
    }

    /// The current global configuration.
    pub fn global_config(&self) -> &Configuration {
        &self.global_config
    }

    /// Replaces the global configuration, returning the foreground record
    /// (the one that must now handle the change), if any.
    pub fn update_global_config(&mut self, config: Configuration) -> Option<ActivityRecordId> {
        self.global_config = config;
        self.foreground_record()
    }

    /// The foreground (top-of-top-task) record.
    pub fn foreground_record(&self) -> Option<ActivityRecordId> {
        self.stack.top_task().and_then(TaskRecord::top)
    }

    /// Brings an existing app's task to the front (the recents/app-switch
    /// gesture). Returns the record now in the foreground.
    pub fn bring_to_front(&mut self, component: &str) -> Option<ActivityRecordId> {
        let task = self.stack.task_by_affinity(affinity_of(component))?;
        self.stack.move_task_to_front(task);
        let record = self.stack.task(task)?.top()?;
        if let Some(r) = self.records.get_mut(&record) {
            r.state = RecordState::Resumed;
        }
        Some(record)
    }

    /// Starts an activity at time zero (tests/examples convenience).
    pub fn start_activity(&mut self, intent: &Intent) -> StartResult {
        self.start_activity_at(intent, SimTime::ZERO)
    }

    /// Starts an activity with default handled-mask.
    pub fn start_activity_at(&mut self, intent: &Intent, now: SimTime) -> StartResult {
        self.start_activity_with_mask(intent, now, self.default_handled)
    }

    /// Starts an activity, declaring the component's
    /// `android:configChanges` mask.
    ///
    /// Implements `ActivityStarter.startActivityUnchecked` +
    /// `setTaskFromIntentActivity`, including the paper's +41 LoC: when the
    /// intent carries [`IntentFlags::SUNNY`], first search the current task
    /// for an alive shadow record and coin-flip instead of creating.
    pub fn start_activity_with_mask(
        &mut self,
        intent: &Intent,
        now: SimTime,
        handled: ConfigChanges,
    ) -> StartResult {
        // NEW_TASK with an existing task reuses it, like Android; a task is
        // created only when none with the affinity exists yet.
        let affinity = affinity_of(intent.component);
        let task_id = self
            .stack
            .task_by_affinity(affinity)
            .unwrap_or_else(|| self.stack.create_task(affinity));
        self.stack.move_task_to_front(task_id);

        if intent.flags.contains(IntentFlags::SUNNY) {
            return self.start_sunny(intent, task_id, now, handled);
        }

        // CLEAR_TOP: if an instance of the component exists anywhere in
        // the task, destroy everything above it and deliver to it.
        if intent.flags.contains(IntentFlags::CLEAR_TOP) {
            let existing = self.stack.task(task_id).and_then(|t| {
                t.records().iter().copied().find(|id| {
                    self.records
                        .get(id)
                        .is_some_and(|r| r.component() == intent.component && r.is_alive())
                })
            });
            if let Some(target) = existing {
                let above: Vec<ActivityRecordId> = self
                    .stack
                    .task(task_id)
                    .map(|t| {
                        t.records()
                            .iter()
                            .copied()
                            .skip_while(|&id| id != target)
                            .skip(1)
                            .collect()
                    })
                    .unwrap_or_default();
                for record in above {
                    let _ = self.destroy_record(record);
                }
                if let Some(r) = self.records.get_mut(&target) {
                    r.state = RecordState::Resumed;
                }
                return StartResult {
                    record: target,
                    task: task_id,
                    disposition: StartDisposition::ReusedTop,
                };
            }
        }

        // Stock semantics: with default or SINGLE_TOP flags, starting the
        // activity already on top is a no-op.
        let top = self.stack.task(task_id).and_then(TaskRecord::top);
        if let Some(top_id) = top {
            let matches_top = self
                .records
                .get(&top_id)
                .is_some_and(|r| r.component() == intent.component && !r.is_shadow());
            if matches_top {
                return StartResult {
                    record: top_id,
                    task: task_id,
                    disposition: StartDisposition::ReusedTop,
                };
            }
        }

        let record = self.create_record(intent.component, handled);
        self.push_record(task_id, affinity, record);
        StartResult {
            record,
            task: task_id,
            disposition: StartDisposition::CreatedNew,
        }
    }

    /// Pushes `record` onto `task_id`, recreating the task if it vanished
    /// in between (keeps the starter panic-free on the hot path).
    fn push_record(&mut self, task_id: TaskId, affinity: &str, record: ActivityRecordId) {
        let task_id = if self.stack.task(task_id).is_some() {
            task_id
        } else {
            self.stack.create_task(affinity)
        };
        if let Some(task) = self.stack.task_mut(task_id) {
            task.push(record);
        }
    }

    /// The SUNNY start path (RCHDroid §3.4).
    fn start_sunny(
        &mut self,
        intent: &Intent,
        task_id: TaskId,
        now: SimTime,
        handled: ConfigChanges,
    ) -> StartResult {
        let current_top = self.stack.task(task_id).and_then(TaskRecord::top);

        // Coin-flip: search the task for an alive shadow-state record.
        let shadow = self
            .stack
            .task(task_id)
            .and_then(|t| t.find_shadow_activity(|id| self.records.get(&id)));

        if let Some(shadow_id) = shadow {
            // Reorder it to the top, remove its shadow state, and flip the
            // previous top into the shadow state.
            if let Some(task) = self.stack.task_mut(task_id) {
                task.move_to_top(shadow_id);
            }
            if let Some(r) = self.records.get_mut(&shadow_id) {
                r.set_shadow(false, now);
                r.config = self.global_config;
                r.state = RecordState::Resumed;
            }
            if let Some(prev) = current_top.filter(|&p| p != shadow_id) {
                if let Some(r) = self.records.get_mut(&prev) {
                    r.set_shadow(true, now);
                    r.state = RecordState::Stopped;
                }
            }
            let now_shadow = current_top.unwrap_or(shadow_id);
            return StartResult {
                record: shadow_id,
                task: task_id,
                disposition: StartDisposition::FlippedShadow { now_shadow },
            };
        }

        // First runtime change: create a *second* instance of the same
        // component (the stock same-as-top test is bypassed for SUNNY),
        // push it, and shadow the previous top.
        let record = self.create_record(intent.component, handled);
        self.push_record(task_id, affinity_of(intent.component), record);
        if let Some(prev) = current_top {
            if let Some(r) = self.records.get_mut(&prev) {
                r.set_shadow(true, now);
                r.state = RecordState::Stopped;
            }
        }
        StartResult {
            record,
            task: task_id,
            disposition: StartDisposition::CreatedNew,
        }
    }

    fn create_record(&mut self, component: &str, handled: ConfigChanges) -> ActivityRecordId {
        let id = ActivityRecordId::new(self.record_ids.next());
        self.records.insert(
            id,
            ActivityRecord::new(id, component, self.global_config, handled),
        );
        id
    }

    /// `ActivityRecord.ensureActivityConfiguration`: decides how `record`
    /// reacts to the current global configuration. `prevent_relaunch` is
    /// the paper's modification — RCHDroid "skips this test and always
    /// prevents restarting".
    ///
    /// The record's stored configuration is updated in every non-`NoChange`
    /// case.
    ///
    /// # Errors
    ///
    /// [`AtmsError::UnknownRecord`] for stale tokens.
    pub fn ensure_activity_configuration(
        &mut self,
        record: ActivityRecordId,
        prevent_relaunch: bool,
    ) -> Result<ConfigDecision, AtmsError> {
        let global = self.global_config;
        let r = self
            .records
            .get_mut(&record)
            .ok_or(AtmsError::UnknownRecord(record))?;
        let diff = r.config.diff(&global);
        if diff.is_empty() {
            return Ok(ConfigDecision::NoChange);
        }
        r.config = global;
        if diff.is_subset_of(r.handled_changes) {
            Ok(ConfigDecision::HandledByApp(diff))
        } else if prevent_relaunch {
            Ok(ConfigDecision::PreventedRelaunch(diff))
        } else {
            Ok(ConfigDecision::Relaunch(diff))
        }
    }

    /// Marks a record's server-side lifecycle state.
    ///
    /// # Errors
    ///
    /// [`AtmsError::UnknownRecord`] for stale tokens.
    pub fn set_record_state(
        &mut self,
        record: ActivityRecordId,
        state: RecordState,
    ) -> Result<(), AtmsError> {
        self.records
            .get_mut(&record)
            .map(|r| r.state = state)
            .ok_or(AtmsError::UnknownRecord(record))
    }

    /// Destroys a record: marks it `Destroyed` and removes it from its
    /// task (removing the task too if it empties). Used both for normal
    /// `finish()` and for shadow GC.
    ///
    /// # Errors
    ///
    /// [`AtmsError::UnknownRecord`] for stale tokens.
    pub fn destroy_record(&mut self, record: ActivityRecordId) -> Result<(), AtmsError> {
        let r = self
            .records
            .get_mut(&record)
            .ok_or(AtmsError::UnknownRecord(record))?;
        r.state = RecordState::Destroyed;
        r.set_shadow(false, SimTime::ZERO);
        let task_ids: Vec<TaskId> = self.stack.tasks().iter().map(TaskRecord::id).collect();
        let mut emptied = None;
        for tid in task_ids {
            if let Some(task) = self.stack.task_mut(tid) {
                if task.remove(record) && task.is_empty() {
                    emptied = Some(tid);
                }
            }
        }
        if let Some(tid) = emptied {
            self.stack.remove_task(tid);
        }
        Ok(())
    }

    /// Rolls back a SUNNY start whose sunny instance could not be brought
    /// up (RCHDroid's fallback-restart path): the record the starter just
    /// put on top is destroyed, and `previous_top` — the record that was
    /// foreground before the start — is un-shadowed, resumed and
    /// reordered back to the top. After this the stack looks exactly as
    /// it did before [`Atms::start_activity_with_mask`] ran, so it never
    /// references an instance that failed to come up.
    ///
    /// # Errors
    ///
    /// [`AtmsError::UnknownRecord`] if `previous_top` is gone.
    pub fn rollback_sunny_start(
        &mut self,
        start: &StartResult,
        previous_top: ActivityRecordId,
        now: SimTime,
    ) -> Result<(), AtmsError> {
        match start.disposition {
            StartDisposition::CreatedNew | StartDisposition::FlippedShadow { .. } => {
                if start.record != previous_top {
                    let _ = self.destroy_record(start.record);
                }
            }
            StartDisposition::ReusedTop => {}
        }
        let r = self
            .records
            .get_mut(&previous_top)
            .ok_or(AtmsError::UnknownRecord(previous_top))?;
        r.set_shadow(false, now);
        r.state = RecordState::Resumed;
        let affinity = affinity_of(r.component());
        let task_id = self
            .stack
            .task_by_affinity(affinity)
            .unwrap_or_else(|| self.stack.create_task(affinity));
        if let Some(task) = self.stack.task_mut(task_id) {
            if !task.move_to_top(previous_top) {
                task.push(previous_top);
            }
        }
        self.stack.move_task_to_front(task_id);
        Ok(())
    }

    /// Looks up a record.
    pub fn record(&self, id: ActivityRecordId) -> Option<&ActivityRecord> {
        self.records.get(&id)
    }

    /// Mutable record lookup.
    pub fn record_mut(&mut self, id: ActivityRecordId) -> Option<&mut ActivityRecord> {
        self.records.get_mut(&id)
    }

    /// The stack (read-only).
    pub fn stack(&self) -> &ActivityStack {
        &self.stack
    }

    /// All alive shadow-state records (the paper maintains at most one per
    /// system; the invariant is asserted by tests and the RCHDroid
    /// handler).
    pub fn shadow_records(&self) -> Vec<ActivityRecordId> {
        self.records
            .values()
            .filter(|r| r.is_shadow() && r.is_alive())
            .map(ActivityRecord::id)
            .collect()
    }

    /// Number of alive records.
    pub fn alive_record_count(&self) -> usize {
        self.records.values().filter(|r| r.is_alive()).count()
    }
}

/// The package part of `package/.Activity`: the task a component's
/// activities collect in.
fn affinity_of(component: &str) -> &str {
    component
        .split_once('/')
        .map_or(component, |(package, _)| package)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atms() -> Atms {
        Atms::new(Configuration::phone_portrait())
    }

    #[test]
    fn first_start_creates_task_and_record() {
        let mut a = atms();
        let res = a.start_activity(&Intent::new("com.x/.Main"));
        assert_eq!(res.disposition, StartDisposition::CreatedNew);
        assert_eq!(a.foreground_record(), Some(res.record));
        assert_eq!(a.alive_record_count(), 1);
    }

    #[test]
    fn default_flag_reuses_top_same_component() {
        let mut a = atms();
        let first = a.start_activity(&Intent::new("com.x/.Main"));
        let second = a.start_activity(&Intent::new("com.x/.Main"));
        assert_eq!(second.disposition, StartDisposition::ReusedTop);
        assert_eq!(second.record, first.record);
        assert_eq!(a.alive_record_count(), 1);
    }

    #[test]
    fn different_component_stacks_in_same_task() {
        let mut a = atms();
        a.start_activity(&Intent::new("com.x/.Main"));
        let detail = a.start_activity(&Intent::new("com.x/.Detail"));
        assert_eq!(detail.disposition, StartDisposition::CreatedNew);
        let task = a.stack().top_task().unwrap();
        assert_eq!(task.len(), 2);
        assert_eq!(task.top(), Some(detail.record));
    }

    #[test]
    fn sunny_start_creates_second_instance_and_shadows_previous() {
        let mut a = atms();
        let first = a.start_activity(&Intent::new("com.x/.Main"));
        let sunny = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1));
        assert_eq!(sunny.disposition, StartDisposition::CreatedNew);
        assert_ne!(sunny.record, first.record);
        assert!(a.record(first.record).unwrap().is_shadow());
        assert_eq!(a.shadow_records(), vec![first.record]);
        // Both instances of the SAME component coexist in one task.
        assert_eq!(a.stack().top_task().unwrap().len(), 2);
    }

    #[test]
    fn second_sunny_start_coin_flips() {
        let mut a = atms();
        let first = a.start_activity(&Intent::new("com.x/.Main"));
        let second = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1));
        let third = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(2));
        // No third record: the shadow (first) was flipped back to sunny.
        assert_eq!(
            third.disposition,
            StartDisposition::FlippedShadow {
                now_shadow: second.record
            }
        );
        assert_eq!(third.record, first.record);
        assert_eq!(a.alive_record_count(), 2);
        assert!(!a.record(first.record).unwrap().is_shadow());
        assert!(a.record(second.record).unwrap().is_shadow());
        assert_eq!(a.foreground_record(), Some(first.record));
    }

    #[test]
    fn coin_flip_alternates_indefinitely() {
        let mut a = atms();
        let r0 = a.start_activity(&Intent::new("com.x/.Main")).record;
        let r1 = a
            .start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1))
            .record;
        let mut expect = [r0, r1];
        for i in 2..10u64 {
            let res = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(i));
            assert!(matches!(
                res.disposition,
                StartDisposition::FlippedShadow { .. }
            ));
            assert_eq!(res.record, expect[0]);
            expect.swap(0, 1);
            assert_eq!(a.alive_record_count(), 2, "never more than two instances");
            assert_eq!(a.shadow_records().len(), 1, "exactly one shadow");
        }
    }

    #[test]
    fn sunny_after_shadow_gc_creates_again() {
        let mut a = atms();
        let first = a.start_activity(&Intent::new("com.x/.Main")).record;
        let _second = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1));
        // GC the shadow (first).
        a.destroy_record(first).unwrap();
        let third = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(2));
        assert_eq!(third.disposition, StartDisposition::CreatedNew);
        assert_ne!(third.record, first);
    }

    #[test]
    fn clear_top_pops_back_to_existing_instance() {
        let mut a = atms();
        let main = a.start_activity(&Intent::new("com.x/.Main")).record;
        a.start_activity(&Intent::new("com.x/.Detail"));
        a.start_activity(&Intent::new("com.x/.Settings"));
        assert_eq!(a.stack().top_task().unwrap().len(), 3);

        let res = a.start_activity(&Intent::new("com.x/.Main").with_flags(IntentFlags::CLEAR_TOP));
        assert_eq!(res.record, main);
        assert_eq!(res.disposition, StartDisposition::ReusedTop);
        assert_eq!(
            a.stack().top_task().unwrap().len(),
            1,
            "everything above destroyed"
        );
        assert_eq!(a.alive_record_count(), 1);
        assert_eq!(a.foreground_record(), Some(main));
    }

    #[test]
    fn clear_top_without_existing_instance_creates() {
        let mut a = atms();
        a.start_activity(&Intent::new("com.x/.Main"));
        let res = a.start_activity(&Intent::new("com.x/.Other").with_flags(IntentFlags::CLEAR_TOP));
        assert_eq!(res.disposition, StartDisposition::CreatedNew);
        assert_eq!(a.stack().top_task().unwrap().len(), 2);
    }

    #[test]
    fn ensure_configuration_relaunches_by_default() {
        let mut a = atms();
        let rec = a.start_activity(&Intent::new("com.x/.Main")).record;
        a.update_global_config(Configuration::phone_landscape());
        let d = a.ensure_activity_configuration(rec, false).unwrap();
        assert!(matches!(d, ConfigDecision::Relaunch(_)));
        // Config was applied: a second call sees no change.
        let d2 = a.ensure_activity_configuration(rec, false).unwrap();
        assert_eq!(d2, ConfigDecision::NoChange);
    }

    #[test]
    fn ensure_configuration_honours_handled_mask() {
        let mut a = atms();
        let rec = a
            .start_activity_with_mask(
                &Intent::new("com.x/.Main"),
                SimTime::ZERO,
                ConfigChanges::ALL,
            )
            .record;
        a.update_global_config(Configuration::phone_landscape());
        let d = a.ensure_activity_configuration(rec, false).unwrap();
        assert!(matches!(d, ConfigDecision::HandledByApp(_)));
    }

    #[test]
    fn ensure_configuration_prevented_for_rchdroid() {
        let mut a = atms();
        let rec = a.start_activity(&Intent::new("com.x/.Main")).record;
        a.update_global_config(Configuration::phone_landscape());
        let d = a.ensure_activity_configuration(rec, true).unwrap();
        assert!(matches!(d, ConfigDecision::PreventedRelaunch(_)));
    }

    #[test]
    fn destroy_record_empties_task() {
        let mut a = atms();
        let rec = a.start_activity(&Intent::new("com.x/.Main")).record;
        a.destroy_record(rec).unwrap();
        assert!(a.stack().is_empty());
        assert_eq!(a.alive_record_count(), 0);
        assert_eq!(a.foreground_record(), None);
    }

    #[test]
    fn unknown_record_errors() {
        let mut a = atms();
        let bogus = ActivityRecordId::new(99);
        assert_eq!(
            a.ensure_activity_configuration(bogus, false),
            Err(AtmsError::UnknownRecord(bogus))
        );
        assert!(a.destroy_record(bogus).is_err());
    }

    #[test]
    fn rollback_of_created_sunny_start_restores_the_stack() {
        let mut a = atms();
        let first = a.start_activity(&Intent::new("com.x/.Main")).record;
        let start = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1));
        assert!(a.record(first).unwrap().is_shadow());

        a.rollback_sunny_start(&start, first, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(a.foreground_record(), Some(first));
        assert!(!a.record(first).unwrap().is_shadow());
        assert_eq!(a.record(first).unwrap().state, RecordState::Resumed);
        assert_eq!(a.alive_record_count(), 1, "the stillborn record is gone");
        assert!(a.shadow_records().is_empty());
        assert_eq!(a.stack().top_task().unwrap().len(), 1, "single top");
    }

    #[test]
    fn rollback_of_flipped_sunny_start_restores_the_stack() {
        let mut a = atms();
        let r0 = a.start_activity(&Intent::new("com.x/.Main")).record;
        let r1 = a
            .start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(1))
            .record;
        // Second change coin-flips r0 back to the top; r1 becomes shadow.
        let flip = a.start_activity_at(&Intent::sunny("com.x/.Main"), SimTime::from_secs(2));
        assert_eq!(flip.record, r0);

        // The flip could not be brought up on the thread side: roll back.
        a.rollback_sunny_start(&flip, r1, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(a.foreground_record(), Some(r1), "previous top returns");
        assert!(!a.record(r1).unwrap().is_shadow());
        assert!(
            !a.record(r0).unwrap().is_alive(),
            "the dead flip target left the stack"
        );
        assert!(a.shadow_records().is_empty(), "no shadow-record leak");
        assert_eq!(a.stack().top_task().unwrap().len(), 1);
    }

    #[test]
    fn separate_apps_get_separate_tasks() {
        let mut a = atms();
        a.start_activity(&Intent::new("com.x/.Main"));
        a.start_activity(&Intent::new("com.y/.Main"));
        assert_eq!(a.stack().len(), 2);
        assert_eq!(a.stack().top_task().unwrap().affinity, "com.y");
    }
}
