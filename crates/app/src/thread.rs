//! The activity thread: instance table, in-flight async callbacks,
//! inflation cache.

use crate::activity::{self, Activity, ActivityInstanceId};
use crate::model::{AppModel, AsyncResult, AsyncSpec};
use crate::state::{ActivityState, StateError};
use core::fmt;
use droidsim_atms::ActivityRecordId;
use droidsim_bundle::Bundle;
use droidsim_config::Configuration;
use droidsim_kernel::{memo, IdGen, SimTime};
use droidsim_view::{InflateStats, ViewError, ViewTree};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A completed background task heading for the UI thread: which instance's
/// callback runs and what it does.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncWork {
    /// The instance whose callback was captured when the task started.
    pub instance: ActivityInstanceId,
    /// The callback's effect.
    pub result: AsyncResult,
}

/// Activity-thread errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ThreadError {
    /// No such instance.
    UnknownInstance(ActivityInstanceId),
    /// Illegal lifecycle transition.
    State(StateError),
    /// A view operation failed (possibly a crash).
    View(ViewError),
}

impl fmt::Display for ThreadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadError::UnknownInstance(id) => write!(f, "unknown activity instance {id}"),
            ThreadError::State(e) => write!(f, "{e}"),
            ThreadError::View(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ThreadError {}

impl From<StateError> for ThreadError {
    fn from(e: StateError) -> Self {
        ThreadError::State(e)
    }
}

impl From<ViewError> for ThreadError {
    fn from(e: ViewError) -> Self {
        ThreadError::View(e)
    }
}

/// One (main layout, configuration) the process has created its
/// activity in, with the tree its first inflation there left: shared,
/// and taken before `on_create` or a restore touched it.
#[derive(Debug)]
struct Kept {
    layout: String,
    config: Configuration,
    tree: ViewTree,
    stats: InflateStats,
}

/// The process's inflation cache. Re-creating the activity in a
/// configuration the process has already shown — a stock relaunch, an
/// RCHDroid re-init after the GC, a hot reload — clones the kept tree
/// instead of walking the template again.
///
/// The first creation in a (layout, configuration) keeps its inflation,
/// and every later one clones it. A kept tree is shared
/// ([`ViewTree::share`]), so keeping it moves its views into chunks
/// without copying them, a clone shares every chunk, and a creation
/// copies only the chunks its `on_create`, restore and later updates
/// write.
///
/// Keyed by (main layout, configuration) alone, which is exact because
/// one thread serves one model and a model's resources never change.
/// The kept trees are wall-clock state: they stay out of
/// [`ActivityThread::heap_bytes`], the PSS model and every fingerprint,
/// and leave with the thread.
#[derive(Debug, Default)]
struct InflationCache {
    kept: Vec<Kept>,
    /// The kept trees' resident bytes, as counted into
    /// [`memo::record_kept`].
    bytes: u64,
}

impl InflationCache {
    fn get(&self, layout: &str, config: &Configuration) -> Option<&Kept> {
        self.kept
            .iter()
            .find(|kept| kept.config == *config && kept.layout == layout)
    }

    /// Keeps `tree`, a first inflation in (`layout`, `config`) whose
    /// resident bytes the inflater counted as `bytes`, and counts it
    /// into the process-wide tallies.
    fn keep(
        &mut self,
        layout: &str,
        config: &Configuration,
        tree: ViewTree,
        stats: InflateStats,
        bytes: u64,
    ) {
        memo::record_kept(bytes);
        self.bytes += bytes;
        self.kept.push(Kept {
            layout: layout.to_owned(),
            config: *config,
            tree,
            stats,
        });
    }
}

impl Drop for InflationCache {
    fn drop(&mut self) {
        if !self.kept.is_empty() {
            memo::record_dropped(self.kept.len() as u64, self.bytes);
        }
    }
}

/// One app process's activity thread.
///
/// Owns the activity instances and the in-flight async callbacks. The
/// paper's `ActivityThread` patch (+91 LoC) adds the
/// `current_shadow`/`current_sunny` pointers and hooks three functions;
/// the pointers live here, the behaviour is driven by the change handler.
///
/// A thread serves **one** [`AppModel`] for its whole life, the way an
/// app process runs one app: every method that takes a model must be
/// passed the same one (a debug build checks the component name at each
/// inflation), and the model's [`resources`](AppModel::resources) never
/// change. The thread's inflation cache relies on both: it keeps the
/// pristine, shared tree of the first creation in each configuration
/// and clones it for every later one
/// ([`ActivityThread::inflate_main_layout`]).
///
/// # Examples
///
/// ```
/// use droidsim_app::{ActivityThread, SimpleApp};
/// use droidsim_atms::ActivityRecordId;
/// use droidsim_config::Configuration;
///
/// let model = SimpleApp::with_views(2);
/// let mut thread = ActivityThread::new();
/// let id = thread.perform_launch_activity(
///     &model,
///     ActivityRecordId::new(0),
///     Configuration::phone_portrait(),
///     None,
/// );
/// thread.resume_sequence(id, false).unwrap();
/// assert!(thread.instance(id).unwrap().state().is_foreground());
/// ```
#[derive(Debug)]
pub struct ActivityThread {
    /// The alive instances, and the destroyed ones a pending callback
    /// captured: a late callback still finds its instance and crashes as
    /// on stock Android.
    instances: BTreeMap<ActivityInstanceId, Activity>,
    /// The served model's component name, allocated at the first launch
    /// and shared by every instance.
    component: Option<Rc<str>>,
    ids: IdGen,
    current_shadow: Option<ActivityInstanceId>,
    current_sunny: Option<ActivityInstanceId>,
    /// In-flight async callbacks keyed by (deadline, start order): the
    /// order the UI thread runs them in.
    pending: BTreeMap<(SimTime, u64), AsyncWork>,
    /// How many async tasks the thread has started.
    started: u64,
    inflations: InflationCache,
}

impl ActivityThread {
    /// Creates an empty thread.
    pub fn new() -> Self {
        ActivityThread {
            instances: BTreeMap::new(),
            component: None,
            ids: IdGen::new(),
            current_shadow: None,
            current_sunny: None,
            pending: BTreeMap::new(),
            started: 0,
            inflations: InflationCache::default(),
        }
    }

    /// The component name of the model this thread serves, once it has
    /// launched an activity. Every instance shares this one allocation.
    pub fn component(&self) -> Option<&Rc<str>> {
        self.component.as_ref()
    }

    /// `performLaunchActivity`: creates an instance bound to `token` and
    /// runs its `onCreate` with the optional saved-state bundle (for
    /// relaunches this is the pre-restart state; for RCHDroid sunny starts
    /// it is the shadow bundle). The layout comes from
    /// [`ActivityThread::inflate_main_layout`].
    pub fn perform_launch_activity(
        &mut self,
        model: &dyn AppModel,
        token: ActivityRecordId,
        config: Configuration,
        saved: Option<&Bundle>,
    ) -> ActivityInstanceId {
        let (tree, stats) = self.inflate_main_layout(model, &config);
        let id = ActivityInstanceId::new(self.ids.next());
        let component = self
            .component
            .get_or_insert_with(|| model.component_name().into());
        let mut activity = Activity::new(id, token, Rc::clone(component), config);
        activity.create_from(tree, stats, model, saved);
        self.instances.insert(id, activity);
        id
    }

    /// The model's main layout inflated for `config`. The first time this
    /// process inflates in `config` it inflates cold, shares the tree
    /// ([`ViewTree::share`]) and keeps a clone; every later time it
    /// clones the kept tree, which shares its chunks until a write
    /// copies one. Under the memo kill switch it inflates cold and keeps
    /// nothing. Either way the result is exactly what
    /// [`Activity::perform_create`] inflates.
    pub fn inflate_main_layout(
        &mut self,
        model: &dyn AppModel,
        config: &Configuration,
    ) -> (ViewTree, InflateStats) {
        debug_assert!(
            self.component
                .as_deref()
                .is_none_or(|c| c == model.component_name()),
            "one activity thread serves one app model"
        );
        if !memo::enabled() {
            let (tree, stats, _) = activity::inflate_main_layout(model, config);
            return (tree, stats);
        }
        let layout = model.main_layout();
        if let Some(kept) = self.inflations.get(layout, config) {
            memo::record_probe(true);
            return (kept.tree.clone(), kept.stats);
        }
        memo::record_probe(false);
        let (mut tree, stats, bytes) = activity::inflate_main_layout(model, config);
        tree.share();
        self.inflations
            .keep(layout, config, tree.clone(), stats, bytes);
        (tree, stats)
    }

    /// Walks an instance to the foreground: `Created/Stopped → Started →
    /// Resumed` (or `Sunny` when `sunny` is set — `handleResumeActivity`
    /// with the sunny flag).
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`] / [`ThreadError::State`].
    pub fn resume_sequence(
        &mut self,
        id: ActivityInstanceId,
        sunny: bool,
    ) -> Result<(), ThreadError> {
        let a = self.instance_mut(id)?;
        if matches!(a.state(), ActivityState::Created | ActivityState::Stopped) {
            a.transition(ActivityState::Started)?;
        }
        match a.state() {
            ActivityState::Started => {
                a.transition(if sunny {
                    ActivityState::Sunny
                } else {
                    ActivityState::Resumed
                })?;
            }
            ActivityState::Paused => {
                a.transition(ActivityState::Resumed)?;
            }
            ActivityState::Shadow if sunny => {
                a.transition(ActivityState::Sunny)?;
            }
            _ => {}
        }
        if sunny {
            self.current_sunny = Some(id);
        }
        Ok(())
    }

    /// Walks an instance into the background: `Resumed/Sunny → Paused →
    /// Stopped`.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`] / [`ThreadError::State`].
    pub fn pause_stop_sequence(&mut self, id: ActivityInstanceId) -> Result<(), ThreadError> {
        let a = self.instance_mut(id)?;
        if a.state().is_foreground() {
            a.transition(ActivityState::Paused)?;
        }
        if a.state() == ActivityState::Paused {
            a.transition(ActivityState::Stopped)?;
        }
        Ok(())
    }

    /// Puts an instance into the Shadow state, snapshotting its saved
    /// state into the shadow bundle (§3.2). The instance becomes the
    /// thread's current shadow.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`] / [`ThreadError::State`].
    pub fn enter_shadow(
        &mut self,
        id: ActivityInstanceId,
        model: &dyn AppModel,
    ) -> Result<(), ThreadError> {
        let a = self.instance_mut(id)?;
        if a.state().is_foreground() {
            a.transition(ActivityState::Paused)?;
        }
        let snapshot = a.save_instance_state(model);
        let a = self.instance_mut(id)?;
        a.shadow_bundle = Some(snapshot);
        a.transition(ActivityState::Shadow)?;
        if self.current_sunny == Some(id) {
            self.current_sunny = None;
        }
        self.current_shadow = Some(id);
        Ok(())
    }

    /// Destroys an instance (releasing its views). In-flight async tasks
    /// are **not** cancelled — faithfully reproducing the failure mode the
    /// paper targets — and each keeps its instance on the thread until it runs.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`].
    pub fn destroy_activity(&mut self, id: ActivityInstanceId) -> Result<(), ThreadError> {
        self.instance_mut(id)?.destroy();
        if !self.pending.values().any(|work| work.instance == id) {
            self.instances.remove(&id);
        }
        if self.current_shadow == Some(id) {
            self.current_shadow = None;
        }
        if self.current_sunny == Some(id) {
            self.current_sunny = None;
        }
        Ok(())
    }

    /// `handleRelaunchActivity`: destroys `current`, launches a fresh
    /// instance for `config` on `current`'s record token with `saved`
    /// restored, and resumes it. Stock Android passes the state it saved
    /// just before; RCHDroid's fallback passes its own choice of bundle.
    /// In-flight async tasks keep targeting the destroyed instance.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`] if `current` is not on the thread.
    pub fn relaunch(
        &mut self,
        model: &dyn AppModel,
        current: ActivityInstanceId,
        config: Configuration,
        saved: Option<&Bundle>,
    ) -> Result<ActivityInstanceId, ThreadError> {
        let token = self.instance(current)?.token();
        self.destroy_activity(current)?;
        let id = self.perform_launch_activity(model, token, config, saved);
        self.resume_sequence(id, false)?;
        Ok(id)
    }

    /// Starts a background task at `now` whose callback targets
    /// `instance` and comes due after `spec.duration`. Nothing cancels it:
    /// like the paper's apps, a task outlives the instance it captured.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`].
    pub fn start_async(
        &mut self,
        instance: ActivityInstanceId,
        spec: AsyncSpec,
        now: SimTime,
    ) -> Result<(), ThreadError> {
        if !self.instances.contains_key(&instance) {
            return Err(ThreadError::UnknownInstance(instance));
        }
        let work = AsyncWork {
            instance,
            result: spec.result,
        };
        self.pending
            .insert((now + spec.duration, self.started), work);
        self.started += 1;
        Ok(())
    }

    /// Removes and returns the callbacks due at or before `now`, by
    /// deadline and then by start order: the order the UI thread runs
    /// them in. The caller delivers them all before it takes again, so a
    /// destroyed instance no pending callback captures leaves here.
    pub fn take_due_async(&mut self, now: SimTime) -> Vec<AsyncWork> {
        let pending = &self.pending;
        self.instances
            .retain(|&id, a| a.state().is_alive() || pending.values().any(|w| w.instance == id));
        let mut due = Vec::new();
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > now {
                break;
            }
            due.push(entry.remove());
        }
        due
    }

    /// Runs one async callback against its instance (the UI thread's
    /// dispatch step).
    ///
    /// # Errors
    ///
    /// [`ThreadError::View`] with a crash error if the instance is gone —
    /// the stock NullPointer scenario; [`ThreadError::UnknownInstance`] if
    /// the id was never valid.
    pub fn deliver_async(
        &mut self,
        model: &dyn AppModel,
        work: &AsyncWork,
    ) -> Result<(), ThreadError> {
        let a = self
            .instances
            .get_mut(&work.instance)
            .ok_or(ThreadError::UnknownInstance(work.instance))?;
        model.on_async_result(a, &work.result)?;
        Ok(())
    }

    /// The earliest deadline among the in-flight async callbacks.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Looks up an instance.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`].
    pub fn instance(&self, id: ActivityInstanceId) -> Result<&Activity, ThreadError> {
        self.instances
            .get(&id)
            .ok_or(ThreadError::UnknownInstance(id))
    }

    /// Mutable instance lookup.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`].
    pub fn instance_mut(&mut self, id: ActivityInstanceId) -> Result<&mut Activity, ThreadError> {
        self.instances
            .get_mut(&id)
            .ok_or(ThreadError::UnknownInstance(id))
    }

    /// Runs `f` with mutable access to two *distinct* instances at once —
    /// the shape RCHDroid needs to couple and migrate between the shadow
    /// and sunny trees.
    ///
    /// # Errors
    ///
    /// [`ThreadError::UnknownInstance`] if either id is stale or the ids
    /// are equal.
    pub fn with_instance_pair<R>(
        &mut self,
        a: ActivityInstanceId,
        b: ActivityInstanceId,
        f: impl FnOnce(&mut Activity, &mut Activity) -> R,
    ) -> Result<R, ThreadError> {
        if a == b {
            return Err(ThreadError::UnknownInstance(b));
        }
        let mut act_a = self
            .instances
            .remove(&a)
            .ok_or(ThreadError::UnknownInstance(a))?;
        let result = match self.instances.get_mut(&b) {
            Some(act_b) => Ok(f(&mut act_a, act_b)),
            None => Err(ThreadError::UnknownInstance(b)),
        };
        self.instances.insert(a, act_a);
        result
    }

    /// The current shadow instance pointer (+91 LoC patch field).
    pub fn current_shadow(&self) -> Option<ActivityInstanceId> {
        self.current_shadow
    }

    /// The current sunny instance pointer (+91 LoC patch field).
    pub fn current_sunny(&self) -> Option<ActivityInstanceId> {
        self.current_sunny
    }

    /// Explicitly repoints the shadow pointer (coin flip bookkeeping).
    pub fn set_current_shadow(&mut self, id: Option<ActivityInstanceId>) {
        self.current_shadow = id;
    }

    /// Explicitly repoints the sunny pointer (coin flip bookkeeping).
    pub fn set_current_sunny(&mut self, id: Option<ActivityInstanceId>) {
        self.current_sunny = id;
    }

    /// The alive (non-destroyed) instances, in id order, without
    /// collecting them: what a read-only pass over them walks.
    pub fn alive_activities(&self) -> impl Iterator<Item = &Activity> {
        self.instances.values().filter(|a| a.state().is_alive())
    }

    /// Alive (non-destroyed) instance ids, collected: for a caller that
    /// destroys instances while it goes through them.
    pub fn alive_instances(&self) -> Vec<ActivityInstanceId> {
        self.alive_activities().map(Activity::id).collect()
    }

    /// Total heap footprint of alive instances, in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.alive_activities().map(Activity::heap_bytes).sum()
    }

    /// Finds the instance bound to a record token.
    pub fn instance_for_token(&self, token: ActivityRecordId) -> Option<ActivityInstanceId> {
        self.alive_activities()
            .find(|a| a.token() == token)
            .map(Activity::id)
    }
}

impl Default for ActivityThread {
    fn default() -> Self {
        ActivityThread::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimpleApp;
    use droidsim_resources::ResourceTable;
    use droidsim_view::ViewOp;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn launched() -> (ActivityThread, SimpleApp, ActivityInstanceId) {
        let model = SimpleApp::with_views(2);
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &model,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        thread.resume_sequence(id, false).unwrap();
        (thread, model, id)
    }

    #[test]
    fn launch_and_resume() {
        let (thread, _, id) = launched();
        assert_eq!(thread.instance(id).unwrap().state(), ActivityState::Resumed);
        assert_eq!(thread.alive_instances(), vec![id]);
    }

    #[test]
    fn relaunch_restores_the_saved_state_on_the_same_token() {
        let (mut thread, model, first) = launched();
        let token = thread.instance(first).unwrap().token();
        let a = thread.instance_mut(first).unwrap();
        let root = a.tree.find_by_id_name("root").unwrap();
        a.tree.apply(root, ViewOp::ScrollTo(640)).unwrap();
        let saved = thread.instance(first).unwrap().save_instance_state(&model);

        let landscape = Configuration::phone_landscape();
        let second = thread
            .relaunch(&model, first, landscape, Some(&saved))
            .unwrap();
        assert_ne!(second, first);
        assert_eq!(
            thread.instance(first).unwrap_err(),
            ThreadError::UnknownInstance(first),
            "no callback captured the destroyed instance, so it left"
        );
        assert_eq!(thread.alive_instances(), vec![second]);
        assert_eq!(thread.instance_for_token(token), Some(second));
        let a = thread.instance(second).unwrap();
        let root = a.tree.find_by_id_name("root").unwrap();
        assert_eq!(a.tree.view(root).unwrap().attrs.scroll_y(), 640);
        assert_eq!(a.state(), ActivityState::Resumed);
        assert_eq!(a.config(), &landscape);
    }

    #[test]
    fn async_round_trip_updates_views() {
        let (mut thread, model, id) = launched();
        let spec = model.button_task();
        thread.start_async(id, spec, SimTime::ZERO).unwrap();
        assert_eq!(thread.next_wakeup(), Some(SimTime::from_secs(5)));
        assert!(thread
            .take_due_async(SimTime::from_millis(4_999))
            .is_empty());

        let due = thread.take_due_async(SimTime::from_secs(5));
        assert_eq!(due.len(), 1);
        assert_eq!(thread.next_wakeup(), None, "taken once");
        thread.deliver_async(&model, &due[0]).unwrap();
        let a = thread.instance(id).unwrap();
        let img = a.tree.find_by_id_name("image_1").unwrap();
        assert_eq!(
            a.tree
                .view(img)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "loaded_1.png"
        );
    }

    #[test]
    fn async_after_destroy_crashes() {
        let (mut thread, model, id) = launched();
        thread
            .start_async(id, model.button_task(), SimTime::ZERO)
            .unwrap();
        // The restart destroys the instance but does NOT cancel the task.
        thread.destroy_activity(id).unwrap();
        assert_eq!(thread.next_wakeup(), Some(SimTime::from_secs(5)));

        let due = thread.take_due_async(SimTime::from_secs(5));
        let err = thread.deliver_async(&model, &due[0]).unwrap_err();
        match err {
            ThreadError::View(v) => assert!(v.is_crash()),
            other => panic!("expected a crash, got {other}"),
        }
    }

    #[test]
    fn a_thousand_relaunches_leave_one_alive_instance_and_a_crashing_callback() {
        let (mut thread, model, first) = launched();
        let token = thread.instance(first).unwrap().token();
        thread
            .start_async(first, model.button_task(), SimTime::ZERO)
            .unwrap();
        let configs = [
            Configuration::phone_landscape(),
            Configuration::phone_portrait(),
        ];
        let mut current = first;
        for round in 0..1_000 {
            let saved = thread
                .instance(current)
                .unwrap()
                .save_instance_state(&model);
            current = thread
                .relaunch(&model, current, configs[round % 2], Some(&saved))
                .unwrap();
        }
        assert_eq!(thread.alive_instances(), vec![current]);
        assert_eq!(thread.instance_for_token(token), Some(current));
        assert_eq!(
            thread.heap_bytes(),
            thread.instance(current).unwrap().heap_bytes()
        );
        assert_eq!(
            thread.instance(first).unwrap().state(),
            ActivityState::Destroyed,
            "the captured instance stays on the thread, destroyed"
        );
        assert!(
            (1..1_000).all(|i| thread.instance(ActivityInstanceId::new(i)).is_err()),
            "no callback captured the others, so none stayed"
        );
        let due = thread.take_due_async(SimTime::from_secs(5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].instance, first, "the callback kept its capture");
        let err = thread.deliver_async(&model, &due[0]).unwrap_err();
        assert!(
            err.to_string().contains("NullPointerException"),
            "stock Android's crash: {err}"
        );
        // Its last callback delivered, the instance leaves at the next take.
        assert!(thread.take_due_async(SimTime::from_secs(6)).is_empty());
        assert!(thread.instance(first).is_err());
        assert_eq!(thread.alive_instances(), vec![current]);
    }

    #[test]
    fn enter_shadow_snapshots_state() {
        let (mut thread, model, id) = launched();
        thread
            .instance_mut(id)
            .unwrap()
            .member_state
            .put_i32("field", 7);
        thread.enter_shadow(id, &model).unwrap();
        let a = thread.instance(id).unwrap();
        assert_eq!(a.state(), ActivityState::Shadow);
        assert!(a.shadow_bundle.is_some());
        assert_eq!(thread.current_shadow(), Some(id));
    }

    #[test]
    fn shadow_instance_still_receives_async_results() {
        let (mut thread, model, id) = launched();
        thread
            .start_async(id, model.button_task(), SimTime::ZERO)
            .unwrap();
        thread.enter_shadow(id, &model).unwrap();

        let due = thread.take_due_async(SimTime::from_secs(5));
        // The shadow instance is alive: the callback succeeds.
        thread.deliver_async(&model, &due[0]).unwrap();
        let a = thread.instance_mut(id).unwrap();
        assert_eq!(
            a.tree.drain_invalidations().len(),
            2,
            "updates caught for migration"
        );
    }

    #[test]
    fn destroy_clears_pointers() {
        let (mut thread, model, id) = launched();
        thread.enter_shadow(id, &model).unwrap();
        thread.destroy_activity(id).unwrap();
        assert_eq!(thread.current_shadow(), None);
        assert!(thread.alive_instances().is_empty());
    }

    #[test]
    fn token_lookup_skips_dead_instances() {
        let (mut thread, model, id) = launched();
        let token = thread.instance(id).unwrap().token();
        assert_eq!(thread.instance_for_token(token), Some(id));
        thread.destroy_activity(id).unwrap();
        assert_eq!(thread.instance_for_token(token), None);
        let _ = model;
    }

    #[test]
    fn sunny_resume_sets_pointer() {
        let model = SimpleApp::with_views(1);
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &model,
            ActivityRecordId::new(1),
            Configuration::phone_landscape(),
            None,
        );
        thread.resume_sequence(id, true).unwrap();
        assert_eq!(thread.instance(id).unwrap().state(), ActivityState::Sunny);
        assert_eq!(thread.current_sunny(), Some(id));
    }

    #[test]
    fn start_async_on_unknown_instance_errors() {
        let (mut thread, model, _) = launched();
        let bogus = ActivityInstanceId::new(99);
        let err = thread
            .start_async(bogus, model.button_task(), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, ThreadError::UnknownInstance(bogus));
    }

    /// Sets the process-wide memo switch for one test and restores it on
    /// drop, holding a lock so the cache tests never see each other's
    /// setting.
    struct MemoSwitch {
        was: bool,
        _serial: MutexGuard<'static, ()>,
    }

    impl MemoSwitch {
        fn set(on: bool) -> MemoSwitch {
            static LOCK: Mutex<()> = Mutex::new(());
            let serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            let was = memo::enabled();
            memo::set_enabled(on);
            MemoSwitch {
                was,
                _serial: serial,
            }
        }
    }

    impl Drop for MemoSwitch {
        fn drop(&mut self) {
            memo::set_enabled(self.was);
        }
    }

    /// The benchmark app, plus an `on_create` that edits the fresh tree
    /// and a save callback, so no created instance looks pristine.
    struct EditingApp(SimpleApp);

    impl AppModel for EditingApp {
        fn component_name(&self) -> &str {
            self.0.component_name()
        }

        fn resources(&self) -> &ResourceTable {
            self.0.resources()
        }

        fn main_layout(&self) -> &str {
            self.0.main_layout()
        }

        fn implements_save_instance_state(&self) -> bool {
            true
        }

        fn on_create(&self, activity: &mut Activity) {
            let button = activity.tree.find_by_id_name("button").unwrap();
            activity
                .tree
                .apply(button, ViewOp::SetText("created".into()))
                .unwrap();
            activity.member_state.put_i32("created", 1);
        }
    }

    impl ActivityThread {
        /// How many configurations this thread keeps a tree for.
        fn kept_trees(&self) -> usize {
            self.inflations.kept.len()
        }

        /// The tree kept for `config`, if any.
        fn kept_tree(&self, config: &Configuration) -> Option<&ViewTree> {
            let kept = self.inflations.get("activity_main", config)?;
            Some(&kept.tree)
        }
    }

    /// Delivers every async result due by `at` on `thread`.
    fn deliver_due(thread: &mut ActivityThread, model: &dyn AppModel, at: SimTime) {
        for work in thread.take_due_async(at) {
            thread.deliver_async(model, &work).unwrap();
        }
    }

    #[test]
    fn the_first_creation_keeps_its_pristine_inflation() {
        let _on = MemoSwitch::set(true);
        let model = EditingApp(SimpleApp::with_views(2));
        let portrait = Configuration::phone_portrait();
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(&model, ActivityRecordId::new(0), portrait, None);
        let cold = activity::inflate_main_layout(&model, &portrait).0;
        assert_eq!(thread.kept_trees(), 1, "kept on the first creation");
        assert!(thread.inflations.bytes > 0);
        assert_eq!(
            thread.kept_tree(&portrait),
            Some(&cold),
            "the instance's on_create wrote its own copy, not the kept tree"
        );
        let created = &thread.instance(id).unwrap().tree;
        let button = created.find_by_id_name("button").unwrap();
        assert_eq!(
            created.view(button).unwrap().attrs.text.as_deref(),
            Some("created")
        );
    }

    #[test]
    fn the_second_creation_is_the_first_hit_and_equals_a_cold_create() {
        let _on = MemoSwitch::set(true);
        let model = EditingApp(SimpleApp::with_views(3));
        let portrait = Configuration::phone_portrait();
        let mut thread = ActivityThread::new();
        let mut saved = None;
        let mut scroll = 0;
        let mut instance = None;
        // Three creations in one configuration, each a stock relaunch of
        // the last: `on_create` edits each fresh tree, then a user edit
        // and an async update land on it, and its saved state is
        // restored into the next. The second and third are hits.
        for creation in 1..=3 {
            let id = thread.perform_launch_activity(
                &model,
                ActivityRecordId::new(0),
                portrait,
                saved.as_ref(),
            );
            assert_eq!(
                thread.kept_trees(),
                1,
                "creation {creation}: one tree, kept from the first on"
            );
            if creation == 3 {
                instance = Some(id);
                break;
            }
            thread.resume_sequence(id, false).unwrap();
            scroll += 120;
            let a = thread.instance_mut(id).unwrap();
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(scroll)).unwrap();
            let start = SimTime::from_secs(5 * (creation - 1));
            thread
                .start_async(id, model.0.button_task(), start)
                .unwrap();
            deliver_due(&mut thread, &model, SimTime::from_secs(5 * creation));
            saved = Some(thread.instance(id).unwrap().save_instance_state(&model));
            thread.destroy_activity(id).unwrap();
        }

        assert_eq!(thread.inflations.kept.len(), 1, "one configuration");
        assert_eq!(
            thread.kept_tree(&portrait),
            Some(&activity::inflate_main_layout(&model, &portrait).0),
            "the kept tree is still the pristine inflation"
        );
        let mut reference = Activity::new(
            ActivityInstanceId::new(99),
            ActivityRecordId::new(0),
            model.component_name(),
            portrait,
        );
        reference.perform_create(&model, saved.as_ref());
        let third = thread.instance(instance.unwrap()).unwrap();
        let root = third.tree.find_by_id_name("root").unwrap();
        assert_eq!(third.tree.view(root).unwrap().attrs.scroll_y(), 240);
        assert_eq!(
            third.tree, reference.tree,
            "a hit creates what a cold create does"
        );
        assert_eq!(third.inflate_stats(), reference.inflate_stats());
        assert_eq!(third.member_state, reference.member_state);
    }

    #[test]
    fn two_configurations_are_kept_apart() {
        let _on = MemoSwitch::set(true);
        let model = SimpleApp::with_views(2);
        let (portrait, landscape) = (
            Configuration::phone_portrait(),
            Configuration::phone_landscape(),
        );
        let mut thread = ActivityThread::new();
        for (round, config) in [&portrait, &landscape, &portrait, &landscape, &portrait]
            .into_iter()
            .enumerate()
        {
            if round == 2 {
                assert_eq!(thread.kept_trees(), 2, "each kept on its first creation");
            }
            let id =
                thread.perform_launch_activity(&model, ActivityRecordId::new(0), *config, None);
            assert_eq!(
                thread.instance(id).unwrap().tree,
                activity::inflate_main_layout(&model, config).0
            );
            thread.destroy_activity(id).unwrap();
        }
        assert_eq!(thread.kept_trees(), 2);
        let class_of = |config: &Configuration| {
            let tree = thread.kept_tree(config).unwrap();
            let root = tree.find_by_id_name("root").unwrap();
            tree.view(root).unwrap().kind.class_name()
        };
        assert_eq!(class_of(&portrait), "LinearLayout");
        assert_eq!(class_of(&landscape), "GridLayout");
    }

    #[test]
    fn the_kill_switch_keeps_and_records_nothing() {
        let _off = MemoSwitch::set(false);
        let model = SimpleApp::with_views(2);
        let config = Configuration::phone_portrait();
        let mut thread = ActivityThread::new();
        for _ in 0..3 {
            let id = thread.perform_launch_activity(&model, ActivityRecordId::new(0), config, None);
            assert_eq!(
                thread.instance(id).unwrap().tree,
                activity::inflate_main_layout(&model, &config).0
            );
            thread.destroy_activity(id).unwrap();
        }
        assert!(thread.inflations.kept.is_empty());
    }
}
