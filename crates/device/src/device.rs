//! The virtual device.

use crate::events::{DeviceEvent, HandlingPath};
use crate::process::AppProcess;
use core::fmt;
use droidsim_app::{AppModel, AsyncSpec};
use droidsim_atms::{Atms, ConfigDecision, Intent, RecordState};
use droidsim_config::Configuration;
use droidsim_faults::FaultPlan;
use droidsim_kernel::{SimDuration, SimTime, Xoshiro256};
use droidsim_metrics::{CostModel, DeviceMetrics, MemorySnapshot};
use rchdroid::{AsyncDelivery, ChangeKind, GcDecision, GcPolicy, LadderRung, RchOptions};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which runtime-change handling system the device runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HandlingMode {
    /// Stock Android 10: restarting-based handling.
    Android10,
    /// RCHDroid with the given GC policy and ablation options.
    RchDroid(GcPolicy, RchOptions),
    /// The RuntimeDroid app-level baseline (assumes every installed app
    /// has been patched).
    RuntimeDroid,
}

impl HandlingMode {
    /// RCHDroid at the paper's chosen GC operating point.
    pub fn rchdroid_default() -> Self {
        HandlingMode::RchDroid(GcPolicy::paper_default(), RchOptions::default())
    }

    /// RCHDroid with a custom GC policy (the Fig. 11 sweep).
    pub fn rchdroid_with_policy(policy: GcPolicy) -> Self {
        HandlingMode::RchDroid(policy, RchOptions::default())
    }

    /// RCHDroid with ablation options (design-choice studies).
    pub fn rchdroid_ablated(options: RchOptions) -> Self {
        HandlingMode::RchDroid(GcPolicy::paper_default(), options)
    }

    /// Whether this mode is RCHDroid.
    pub fn is_rchdroid(self) -> bool {
        matches!(self, HandlingMode::RchDroid(..))
    }
}

/// The report returned for one configuration change.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeReport {
    /// Handling path taken.
    pub path: HandlingPath,
    /// Change arrival → activity resumed.
    pub latency: SimDuration,
    /// Foreground component that handled the change.
    pub component: Rc<str>,
}

/// Device-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// No app is in the foreground.
    NoForegroundApp,
    /// The named component is not installed.
    UnknownApp(String),
    /// The foreground app has crashed; relaunch it first.
    AppCrashed(String),
    /// Internal handling failure (bug in a handler).
    Handling(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NoForegroundApp => write!(f, "no app in the foreground"),
            DeviceError::UnknownApp(c) => write!(f, "app `{c}` is not installed"),
            DeviceError::AppCrashed(c) => write!(f, "app `{c}` has crashed"),
            DeviceError::Handling(m) => write!(f, "handling failure: {m}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// One virtual Android device.
pub struct Device {
    mode: HandlingMode,
    cost: CostModel,
    atms: Atms,
    /// The installed apps, keyed by their component name: one shared
    /// allocation per app, which events and reports share too.
    apps: BTreeMap<Rc<str>, AppProcess>,
    clock: SimTime,
    events: Vec<DeviceEvent>,
    gc_interval: SimDuration,
    next_gc: SimTime,
    /// Optional measurement noise: each charged latency is scaled by a
    /// uniform factor with the given coefficient of variation. Used to
    /// reproduce the paper's §5.1 protocol (mean of ≥5 runs, std < 5 %
    /// of the mean); `None` keeps the device bit-deterministic.
    jitter: Option<(Xoshiro256, f64)>,
}

impl Device {
    /// A device booted in portrait with the calibrated cost model.
    pub fn new(mode: HandlingMode) -> Self {
        let gc_interval = SimDuration::from_secs(1);
        Device {
            mode,
            cost: CostModel::calibrated(),
            atms: Atms::new(Configuration::phone_portrait()),
            apps: BTreeMap::new(),
            clock: SimTime::ZERO,
            events: Vec::new(),
            gc_interval,
            next_gc: SimTime::ZERO + gc_interval,
            jitter: None,
        }
    }

    /// Enables latency jitter: every charged latency is multiplied by a
    /// seeded uniform factor whose standard deviation is `cv` of the
    /// mean. Different seeds model the run-to-run variation of real
    /// hardware.
    pub fn with_jitter(mut self, seed: u64, cv: f64) -> Self {
        self.jitter = Some((Xoshiro256::seed_from(seed), cv.max(0.0)));
        self
    }

    fn jittered(&mut self, latency: SimDuration) -> SimDuration {
        match &mut self.jitter {
            None => latency,
            Some((rng, cv)) => {
                // Uniform on [1-√3·cv, 1+√3·cv] has std = cv.
                let half_width = 3.0f64.sqrt() * *cv;
                let factor = rng.next_f64_range(1.0 - half_width, 1.0 + half_width);
                latency.mul_f64(factor.max(0.0))
            }
        }
    }

    /// The virtual clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The handling mode.
    pub fn mode(&self) -> HandlingMode {
        self.mode
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The current global configuration.
    pub fn configuration(&self) -> &Configuration {
        self.atms.global_config()
    }

    /// The event log.
    pub fn events(&self) -> &[DeviceEvent] {
        &self.events
    }

    /// Read access to the ATMS (assertions).
    pub fn atms(&self) -> &Atms {
        &self.atms
    }

    /// Installs an app and launches it to the foreground. When RCHDroid
    /// mode is active and the previous foreground app holds a shadow, the
    /// switch releases it (§3.5's immediate-release rule).
    ///
    /// Returns the component name used to address the app later: the
    /// app's one shared name.
    ///
    /// # Errors
    ///
    /// Propagates handler failures.
    pub fn install_and_launch(
        &mut self,
        model: Box<dyn AppModel>,
        base_memory_bytes: u64,
        complexity: f64,
    ) -> Result<Rc<str>, DeviceError> {
        self.background_foreground_app()?;

        if self.apps.contains_key(model.component_name()) {
            return Err(DeviceError::Handling(format!(
                "`{}` is already installed",
                model.component_name()
            )));
        }
        let handled = model.handled_changes();
        let mut process = AppProcess::new(model, base_memory_bytes, complexity);
        if let HandlingMode::RchDroid(policy, options) = self.mode {
            process.rch = rchdroid::RchDroid::with_options(policy, options);
        }

        let start = self.atms.start_activity_with_mask(
            &Intent::new(process.model.component_name()),
            self.clock,
            handled,
        );
        let instance = process.thread.perform_launch_activity(
            process.model.as_ref(),
            start.record,
            *self.atms.global_config(),
            None,
        );
        let component = Rc::clone(process.thread.component().expect("just launched"));
        process
            .thread
            .resume_sequence(instance, false)
            .map_err(|e| DeviceError::Handling(e.to_string()))?;
        let _ = self
            .atms
            .set_record_state(start.record, RecordState::Resumed);

        let profile = process.cost_profile();
        let latency = self.cost.create(&profile)
            + self.cost.inflate(&profile)
            + self.cost.resume_fresh(&profile);
        self.clock += latency;
        self.events.push(DeviceEvent::AppLaunched {
            at: self.clock,
            component: Rc::clone(&component),
        });
        self.apps.insert(Rc::clone(&component), process);
        Ok(component)
    }

    /// Backgrounds the foreground app, if any: pauses and stops its
    /// foreground activity, marks its record `Stopped` and, under
    /// RCHDroid, releases its shadow (§3.5's immediate-release rule).
    fn background_foreground_app(&mut self) -> Result<(), DeviceError> {
        let Some(p) = self
            .foreground_component()
            .and_then(|c| self.apps.get_mut(&c))
        else {
            return Ok(());
        };
        if let Some(a) = p.foreground_activity() {
            let (instance, token) = (a.id(), a.token());
            let _ = p.thread.pause_stop_sequence(instance);
            let _ = self.atms.set_record_state(token, RecordState::Stopped);
        }
        if self.mode.is_rchdroid() {
            p.rch
                .on_foreground_switched(&mut p.thread, &mut self.atms)
                .map_err(|e| DeviceError::Handling(e.to_string()))?;
        }
        Ok(())
    }

    /// The component of the foreground activity, if an installed app
    /// owns it: the app's shared name, so the lookup copies no text.
    pub fn foreground_component(&self) -> Option<Rc<str>> {
        let record = self.atms.foreground_record()?;
        let component = self.atms.record(record)?.component();
        self.apps
            .get_key_value(component)
            .map(|(name, _)| Rc::clone(name))
    }

    /// Switches to an already-installed app (the recents gesture). The
    /// previous foreground app is paused/stopped and — under RCHDroid —
    /// its shadow instance is released immediately (§3.5: "If the
    /// foreground activity instance is terminated or switched, the
    /// corresponding shadow-state activity will be released immediately").
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownApp`] if the target is not installed or has
    /// crashed.
    pub fn switch_to_app(&mut self, component: &str) -> Result<(), DeviceError> {
        if !self.apps.contains_key(component) || self.is_crashed(component) {
            return Err(DeviceError::UnknownApp(component.to_owned()));
        }
        if self.foreground_component().as_deref() == Some(component) {
            return Ok(());
        }
        self.background_foreground_app()?;

        // Bring the target's task to the front and resume its activity.
        let record = self
            .atms
            .bring_to_front(component)
            .ok_or_else(|| DeviceError::UnknownApp(component.to_owned()))?;
        let p = self.apps.get_mut(component).expect("checked above");
        // An instance reclaimed under memory pressure is launched again
        // from the bundle the system retained.
        let instance = p.thread.instance_for_token(record).unwrap_or_else(|| {
            let saved = self
                .atms
                .record(record)
                .and_then(|r| r.saved_state.as_ref());
            let config = *self.atms.global_config();
            p.thread
                .perform_launch_activity(p.model.as_ref(), record, config, saved)
        });
        p.thread
            .resume_sequence(instance, false)
            .map_err(|e| DeviceError::Handling(e.to_string()))?;
        let _ = self.atms.set_record_state(record, RecordState::Resumed);
        let profile = p.cost_profile();
        let latency = self.cost.resume_existing(&profile);
        let latency = self.jittered(latency);
        self.clock += latency;

        // If the configuration changed while the app was backgrounded,
        // Android handles the stale configuration on resume (stock:
        // relaunch; RCHDroid: shadow/sunny). Re-applying the current
        // global configuration triggers exactly that path.
        let stale = self
            .atms
            .record(record)
            .is_some_and(|r| r.config != *self.atms.global_config());
        if stale {
            let current = *self.atms.global_config();
            let _ = self.change_configuration(current);
        }
        Ok(())
    }

    /// The back button: finishes the foreground activity. Any coupled
    /// shadow instance is released first (§3.5: "If the foreground
    /// activity instance is terminated or switched, the corresponding
    /// shadow-state activity will be released immediately").
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoForegroundApp`] with nothing in the foreground.
    pub fn press_back(&mut self) -> Result<(), DeviceError> {
        let component = self
            .foreground_component()
            .ok_or(DeviceError::NoForegroundApp)?;
        let record = self
            .atms
            .foreground_record()
            .ok_or(DeviceError::NoForegroundApp)?;
        let p = self.apps.get_mut(&component).expect("installed");

        if self.mode.is_rchdroid() {
            p.rch
                .on_foreground_switched(&mut p.thread, &mut self.atms)
                .map_err(|e| DeviceError::Handling(e.to_string()))?;
        }
        if let Some(instance) = p.thread.instance_for_token(record) {
            let _ = p.thread.destroy_activity(instance);
        }
        let _ = self.atms.destroy_record(record);
        Ok(())
    }

    /// Simulates system memory pressure: Android reclaims *stopped*
    /// (invisible, backgrounded) activities. The Shadow state's whole
    /// point (§3.2) is its exemption: "A Shadow state activity … will not
    /// be destroyed by the Android system unless it is garbage-collected."
    ///
    /// Returns the number of activity instances reclaimed.
    pub fn trigger_memory_pressure(&mut self) -> usize {
        let mut reclaimed = 0;
        for p in self.apps.values_mut() {
            if p.crashed.is_some() {
                continue;
            }
            for instance in p.thread.alive_instances() {
                let Ok(activity) = p.thread.instance(instance) else {
                    continue;
                };
                // Only Stopped instances are reclaimable; Shadow is exempt.
                if activity.state() != droidsim_app::ActivityState::Stopped {
                    continue;
                }
                let token = activity.token();
                // Android retains the saved-state bundle in the system
                // server so the user can come back later.
                let saved = activity.save_instance_state(p.model.as_ref());
                if p.thread.destroy_activity(instance).is_ok() {
                    if let Some(record) = self.atms.record_mut(token) {
                        record.saved_state = Some(saved);
                        record.state = RecordState::Stopped;
                    }
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// Read access to an installed app process.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownApp`].
    pub fn process(&self, component: &str) -> Result<&AppProcess, DeviceError> {
        self.apps
            .get(component)
            .ok_or_else(|| DeviceError::UnknownApp(component.to_owned()))
    }

    /// Whether an app has crashed.
    pub fn is_crashed(&self, component: &str) -> bool {
        self.apps
            .get(component)
            .is_some_and(|p| p.crashed.is_some())
    }

    /// PSS snapshot for an app.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownApp`].
    pub fn memory_snapshot(&self, component: &str) -> Result<MemorySnapshot, DeviceError> {
        Ok(self.process(component)?.memory_snapshot())
    }

    /// Runs `f` against the foreground activity (user interaction: typing
    /// into views, adding dynamic views, scrolling).
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoForegroundApp`] / [`DeviceError::AppCrashed`].
    pub fn with_foreground_activity_mut<R>(
        &mut self,
        f: impl FnOnce(&mut droidsim_app::Activity) -> R,
    ) -> Result<R, DeviceError> {
        let component = self
            .foreground_component()
            .ok_or(DeviceError::NoForegroundApp)?;
        let p = self
            .apps
            .get_mut(&component)
            .expect("foreground app installed");
        if p.crashed.is_some() {
            return Err(DeviceError::AppCrashed(component.to_string()));
        }
        let instance = p
            .foreground_instance()
            .ok_or(DeviceError::NoForegroundApp)?;
        let activity = p
            .thread
            .instance_mut(instance)
            .map_err(|e| DeviceError::Handling(e.to_string()))?;
        Ok(f(activity))
    }

    /// Starts an async task whose callback targets the current foreground
    /// instance (a button press).
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoForegroundApp`] / [`DeviceError::AppCrashed`].
    pub fn start_async_on_foreground(&mut self, spec: AsyncSpec) -> Result<(), DeviceError> {
        let component = self
            .foreground_component()
            .ok_or(DeviceError::NoForegroundApp)?;
        let p = self
            .apps
            .get_mut(&component)
            .expect("foreground app installed");
        if p.crashed.is_some() {
            return Err(DeviceError::AppCrashed(component.to_string()));
        }
        let instance = p
            .foreground_instance()
            .ok_or(DeviceError::NoForegroundApp)?;
        let now = self.clock;
        p.thread
            .start_async(instance, spec, now)
            .map_err(|e| DeviceError::Handling(e.to_string()))?;
        Ok(())
    }

    /// Issues a 90° rotation (the `wm size` toggle of the paper's
    /// workflow).
    ///
    /// # Errors
    ///
    /// As [`Device::change_configuration`].
    pub fn rotate(&mut self) -> Result<ChangeReport, DeviceError> {
        self.change_configuration(self.atms.global_config().rotated())
    }

    /// The artifact's `adb shell wm size WxH` command: overrides the
    /// usable screen size (a SCREEN_SIZE — and possibly ORIENTATION —
    /// runtime change).
    ///
    /// # Errors
    ///
    /// As [`Device::change_configuration`].
    pub fn wm_size(&mut self, width_dp: u32, height_dp: u32) -> Result<ChangeReport, DeviceError> {
        let screen = droidsim_config::ScreenSize::new(width_dp, height_dp);
        self.change_configuration(self.atms.global_config().with_screen(screen))
    }

    /// The artifact's `adb shell wm size reset`: back to the boot screen.
    ///
    /// # Errors
    ///
    /// As [`Device::change_configuration`].
    pub fn wm_size_reset(&mut self) -> Result<ChangeReport, DeviceError> {
        let boot = Configuration::phone_portrait();
        self.change_configuration(self.atms.global_config().with_screen(boot.screen))
    }

    /// Applies a runtime configuration change and handles it for the
    /// foreground app per the device's mode. The virtual clock advances by
    /// the handling latency.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoForegroundApp`] if nothing is in the foreground;
    /// [`DeviceError::AppCrashed`] if the foreground app already crashed.
    pub fn change_configuration(
        &mut self,
        config: Configuration,
    ) -> Result<ChangeReport, DeviceError> {
        let component = self
            .foreground_component()
            .ok_or(DeviceError::NoForegroundApp)?;
        if self.is_crashed(&component) {
            return Err(DeviceError::AppCrashed(component.to_string()));
        }
        let record = self
            .atms
            .foreground_record()
            .ok_or(DeviceError::NoForegroundApp)?;
        self.atms.update_global_config(config);

        let p = self.apps.get_mut(&component).expect("installed");
        let profile = p.cost_profile();
        let now = self.clock;

        let (path, latency) = match self.mode {
            HandlingMode::Android10 => {
                let decision = self
                    .atms
                    .ensure_activity_configuration(record, false)
                    .map_err(|e| DeviceError::Handling(e.to_string()))?;
                match decision {
                    ConfigDecision::NoChange => (HandlingPath::NoChange, SimDuration::ZERO),
                    ConfigDecision::HandledByApp(_) => {
                        if let Some(instance) = p.foreground_instance() {
                            let activity = p
                                .thread
                                .instance_mut(instance)
                                .map_err(|e| DeviceError::Handling(e.to_string()))?;
                            p.model.on_configuration_changed(activity);
                        }
                        (
                            HandlingPath::HandledByApp,
                            self.cost.handled_by_app(&profile),
                        )
                    }
                    ConfigDecision::Relaunch(_) => {
                        // Stock relaunch: save, destroy, recreate, resume.
                        // Async tasks keep running against the dead
                        // instance — the crash scenario.
                        let model = p.model.as_ref();
                        let (current, saved) = p
                            .thread
                            .instance_for_token(record)
                            .and_then(|id| p.thread.instance(id).ok())
                            .map(|a| (a.id(), a.save_instance_state(model)))
                            .ok_or(DeviceError::NoForegroundApp)?;
                        let config = *self.atms.global_config();
                        p.thread
                            .relaunch(model, current, config, Some(&saved))
                            .map_err(|e| DeviceError::Handling(e.to_string()))?;
                        let _ = self.atms.set_record_state(record, RecordState::Resumed);
                        (
                            HandlingPath::Relaunch,
                            self.cost.android10_relaunch(&profile),
                        )
                    }
                    ConfigDecision::PreventedRelaunch(_) => {
                        return Err(DeviceError::Handling(
                            "prevent=false never yields PreventedRelaunch".to_owned(),
                        ));
                    }
                }
            }
            HandlingMode::RchDroid(..) => {
                let outcome = match p.rch.handle_configuration_change(
                    &mut p.thread,
                    &mut self.atms,
                    p.model.as_ref(),
                    now,
                ) {
                    Ok(outcome) => outcome,
                    // Rung 3: the ladder could not absorb the failure.
                    // The process is marked crashed — never an unwind.
                    Err(e) => {
                        Self::mark_crashed(
                            &mut self.atms,
                            &mut self.events,
                            p,
                            &component,
                            now,
                            e.to_string(),
                        );
                        return Err(DeviceError::AppCrashed(component.to_string()));
                    }
                };
                match outcome.kind {
                    ChangeKind::NoChange => (HandlingPath::NoChange, SimDuration::ZERO),
                    ChangeKind::HandledByApp => (
                        HandlingPath::HandledByApp,
                        self.cost.handled_by_app(&profile),
                    ),
                    ChangeKind::Init => (HandlingPath::RchInit, self.cost.rchdroid_init(&profile)),
                    ChangeKind::Flip => (HandlingPath::RchFlip, self.cost.rchdroid_flip(&profile)),
                    // Rung 2: the change degraded to the stock restart
                    // path, so it pays the stock relaunch price.
                    ChangeKind::FallbackRestart => (
                        HandlingPath::RchFallback,
                        self.cost.android10_relaunch(&profile),
                    ),
                }
            }
            HandlingMode::RuntimeDroid => {
                p.rtd
                    .handle_configuration_change(&mut p.thread, &mut self.atms, p.model.as_ref())
                    .map_err(|e| DeviceError::Handling(e.to_string()))?;
                (
                    HandlingPath::RuntimeDroidInPlace,
                    self.cost.runtimedroid(&profile),
                )
            }
        };

        let latency = self.jittered(latency);
        self.clock += latency;
        let p = self.apps.get_mut(&component).expect("installed");
        if path != HandlingPath::NoChange {
            p.latencies.push((now, latency));
        }
        if self.mode.is_rchdroid() {
            Self::drain_fault_records(&mut self.events, p, &component, now);
        }
        self.events.push(DeviceEvent::ConfigChange {
            at: now,
            latency,
            path,
            component: Rc::clone(&component),
        });
        Ok(ChangeReport {
            path,
            latency,
            component,
        })
    }

    /// Advances the virtual clock by `duration`, running each async
    /// callback at its deadline and the shadow GC (RCHDroid mode) on its
    /// interval.
    pub fn advance(&mut self, duration: SimDuration) {
        let target = self.clock + duration;
        loop {
            let next_app_wakeup = self
                .apps
                .values()
                .filter(|p| p.crashed.is_none())
                .filter_map(|p| p.thread.next_wakeup())
                .min();
            let next_gc = if self.mode.is_rchdroid() {
                Some(self.next_gc)
            } else {
                None
            };
            let next = match (next_app_wakeup, next_gc) {
                (Some(a), Some(g)) => Some(a.min(g)),
                (a, g) => a.or(g),
            };
            let Some(next) = next.filter(|&t| t <= target) else {
                break;
            };
            self.clock = self.clock.max(next);

            // GC tick.
            if self.mode.is_rchdroid() && next >= self.next_gc {
                self.run_gc_tick();
                self.next_gc += self.gc_interval;
                continue;
            }

            // Due async callbacks, for every live app.
            self.pump_apps_until(next);
        }
        self.clock = self.clock.max(target);
    }

    /// One shadow-GC tick: a pass, and its event, for every live app
    /// that holds a shadow.
    fn run_gc_tick(&mut self) {
        let now = self.clock;
        for p in self.apps.values_mut() {
            if p.crashed.is_some() || p.thread.current_shadow().is_none() {
                continue;
            }
            let collected = p
                .rch
                .run_gc(&mut p.thread, &mut self.atms, now)
                .is_ok_and(GcDecision::should_collect);
            self.events.push(DeviceEvent::GcPass { at: now, collected });
        }
    }

    /// Delivers every live app's callbacks due at `now`.
    fn pump_apps_until(&mut self, now: SimTime) {
        for (component, p) in &mut self.apps {
            if p.crashed.is_some() {
                continue;
            }
            for work in p.thread.take_due_async(now) {
                // A process that died on an earlier callback runs none of
                // the others.
                if p.crashed.is_some() {
                    break;
                }
                match self.mode {
                    HandlingMode::RchDroid(..) => {
                        match p.rch.on_async_delivered(
                            &mut p.thread,
                            &mut self.atms,
                            p.model.as_ref(),
                            &work,
                        ) {
                            Ok(AsyncDelivery::Delivered) => {
                                self.events.push(DeviceEvent::AsyncDelivered {
                                    at: now,
                                    component: Rc::clone(component),
                                    migration_latency: None,
                                    migrated_views: 0,
                                });
                            }
                            Ok(AsyncDelivery::Migrated(r)) => {
                                self.events.push(DeviceEvent::AsyncDelivered {
                                    at: now,
                                    component: Rc::clone(component),
                                    migration_latency: Some(self.cost.async_migration(r.migrated)),
                                    migrated_views: r.migrated,
                                });
                            }
                            // Rungs 1 and 2: the callback was dropped
                            // (panic, stale target) or the handler
                            // degraded to a stock restart. Nothing was
                            // delivered; the fault-record drain below
                            // logs what happened.
                            Ok(AsyncDelivery::CallbackPanicked)
                            | Ok(AsyncDelivery::DroppedStale)
                            | Ok(AsyncDelivery::FallbackRestart { .. }) => {}
                            Err(e) => {
                                Self::mark_crashed(
                                    &mut self.atms,
                                    &mut self.events,
                                    p,
                                    component,
                                    now,
                                    e.to_string(),
                                );
                            }
                        }
                    }
                    HandlingMode::Android10 | HandlingMode::RuntimeDroid => {
                        match p.thread.deliver_async(p.model.as_ref(), &work) {
                            Ok(()) => {
                                self.events.push(DeviceEvent::AsyncDelivered {
                                    at: now,
                                    component: Rc::clone(component),
                                    migration_latency: None,
                                    migrated_views: 0,
                                });
                            }
                            Err(e) => {
                                Self::mark_crashed(
                                    &mut self.atms,
                                    &mut self.events,
                                    p,
                                    component,
                                    now,
                                    e.to_string(),
                                );
                            }
                        }
                    }
                }
            }
            // Frame boundary: faults absorbed on the delivery path reach
            // the event log (and logcat).
            if self.mode.is_rchdroid() {
                Self::drain_fault_records(&mut self.events, p, component, now);
            }
        }
    }

    /// Moves the handler's absorbed-fault records (rungs 1 and 2) into
    /// the device event log. Rung-3 records are skipped — the same
    /// escalation already surfaced as a [`DeviceEvent::Crash`].
    fn drain_fault_records(
        events: &mut Vec<DeviceEvent>,
        p: &mut AppProcess,
        component: &Rc<str>,
        now: SimTime,
    ) {
        for record in p.rch.take_fault_records() {
            if record.rung == LadderRung::ProcessCrash {
                continue;
            }
            events.push(DeviceEvent::Fault {
                at: now,
                component: Rc::clone(component),
                site: record.site,
                rung: record.rung.name(),
            });
        }
    }

    /// Arms a deterministic fault plan on an app's RCHDroid handler
    /// ([`FaultPlan::disarmed`] turns injection back off). Only
    /// meaningful in RCHDroid mode; other modes ignore the plan.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownApp`].
    pub fn arm_faults(&mut self, component: &str, plan: FaultPlan) -> Result<(), DeviceError> {
        let p = self
            .apps
            .get_mut(component)
            .ok_or_else(|| DeviceError::UnknownApp(component.to_owned()))?;
        p.rch.arm_faults(plan);
        Ok(())
    }

    /// The app's complete per-device metric sink: the lazy-migration
    /// counters plus the fault ledger (faults by site and the rung that
    /// absorbed each). Each device fills its own, so parallel runs never
    /// interleave writes; the fleet determinism gates hash its
    /// fingerprint per device.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownApp`].
    pub fn device_metrics(&self, component: &str) -> Result<DeviceMetrics, DeviceError> {
        let p = self.process(component)?;
        Ok(DeviceMetrics {
            migration: p.rch.migration_metrics().clone(),
            faults: p.rch.fault_metrics(),
        })
    }

    fn mark_crashed(
        atms: &mut Atms,
        events: &mut Vec<DeviceEvent>,
        p: &mut AppProcess,
        component: &Rc<str>,
        now: SimTime,
        exception: String,
    ) {
        // Process death: destroy every instance and its record.
        for instance in p.thread.alive_instances() {
            if let Ok(a) = p.thread.instance(instance) {
                let token = a.token();
                let _ = atms.destroy_record(token);
            }
            let _ = p.thread.destroy_activity(instance);
        }
        p.crashed = Some(exception.clone());
        events.push(DeviceEvent::Crash {
            at: now,
            component: Rc::clone(component),
            exception,
        });
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("mode", &self.mode)
            .field("clock", &self.clock)
            .field("apps", &self.apps.keys().collect::<Vec<_>>())
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_app::{AsyncResult, SimpleApp};
    use droidsim_view::ViewOp;

    fn device_with_app(mode: HandlingMode, views: usize) -> (Device, Rc<str>) {
        let mut d = Device::new(mode);
        let c = d
            .install_and_launch(Box::new(SimpleApp::with_views(views)), 40 << 20, 1.0)
            .unwrap();
        (d, c)
    }

    #[test]
    fn launch_brings_app_to_foreground() {
        let (d, c) = device_with_app(HandlingMode::Android10, 4);
        assert_eq!(d.foreground_component(), Some(c.clone()));
        assert!(!d.is_crashed(&c));
        assert!(d.now() > SimTime::ZERO, "launch took time");
    }

    #[test]
    fn stock_rotation_relaunches() {
        let (mut d, c) = device_with_app(HandlingMode::Android10, 4);
        let report = d.rotate().unwrap();
        assert_eq!(report.path, HandlingPath::Relaunch);
        let lat = report.latency.as_millis_f64();
        assert!((lat - 141.8).abs() < 4.0, "≈ the paper's 141.8 ms: {lat}");
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
    }

    #[test]
    fn rchdroid_rotation_init_then_flip() {
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        let first = d.rotate().unwrap();
        assert_eq!(first.path, HandlingPath::RchInit);
        let second = d.rotate().unwrap();
        assert_eq!(second.path, HandlingPath::RchFlip);
        assert!((second.latency.as_millis_f64() - 89.2).abs() < 0.5);
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 2);
    }

    #[test]
    fn runtimedroid_rotation_in_place() {
        let (mut d, c) = device_with_app(HandlingMode::RuntimeDroid, 4);
        let report = d.rotate().unwrap();
        assert_eq!(report.path, HandlingPath::RuntimeDroidInPlace);
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
    }

    #[test]
    fn stock_async_after_rotation_crashes_the_app() {
        // The Fig. 9 scenario: touch → AsyncTask → resize → task returns.
        let (mut d, c) = device_with_app(HandlingMode::Android10, 4);
        let spec = SimpleApp::with_views(4).button_task();
        d.start_async_on_foreground(spec).unwrap();
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(6));
        assert!(d.is_crashed(&c), "NullPointer on task return");
        assert!(d
            .events()
            .iter()
            .any(|e| matches!(e, DeviceEvent::Crash { exception, .. }
                if exception.contains("NullPointerException"))));
        assert_eq!(
            d.memory_snapshot(&c).unwrap().total_bytes(),
            0,
            "process gone"
        );
    }

    #[test]
    fn a_dead_process_runs_none_of_its_other_due_callbacks() {
        // Two presses at one instant, then a relaunch: both callbacks come
        // due together, and both captured the destroyed instance. The
        // first one's NullPointerException kills the process, so the
        // second, which would leak a dialog's window, never runs.
        let (mut d, c) = device_with_app(HandlingMode::Android10, 4);
        d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
            .unwrap();
        let dialog = AsyncSpec {
            duration: SimDuration::from_secs(5),
            result: AsyncResult {
                ops: Vec::new(),
                shows_dialog: true,
            },
        };
        d.start_async_on_foreground(dialog).unwrap();
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(10));
        let crashes: Vec<&str> = d
            .events()
            .iter()
            .filter_map(|e| match e {
                DeviceEvent::Crash { exception, .. } => Some(exception.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 1, "one process death, one crash");
        assert!(crashes[0].contains("NullPointerException"), "{crashes:?}");
        assert_eq!(d.process(&c).unwrap().crash(), Some(crashes[0]));
    }

    #[test]
    fn rchdroid_async_after_rotation_migrates_instead() {
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        let spec = SimpleApp::with_views(4).button_task();
        d.start_async_on_foreground(spec).unwrap();
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(6));
        assert!(!d.is_crashed(&c));
        let migrated: usize = d
            .events()
            .iter()
            .filter_map(|e| match e {
                DeviceEvent::AsyncDelivered { migrated_views, .. } => Some(*migrated_views),
                _ => None,
            })
            .sum();
        assert_eq!(migrated, 4, "all four images migrated to the sunny tree");
        // The sunny (foreground) tree shows the loaded images.
        let p = d.process(&c).unwrap();
        let fg = p.foreground_activity().unwrap();
        let img = fg.tree.find_by_id_name("image_0").unwrap();
        assert_eq!(
            fg.tree
                .view(img)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "loaded_0.png"
        );
    }

    #[test]
    fn runtimedroid_async_after_rotation_survives() {
        let (mut d, c) = device_with_app(HandlingMode::RuntimeDroid, 4);
        let spec = SimpleApp::with_views(4).button_task();
        d.start_async_on_foreground(spec).unwrap();
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(6));
        assert!(!d.is_crashed(&c));
    }

    #[test]
    fn rchdroid_memory_includes_the_shadow() {
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        let before = d.memory_snapshot(&c).unwrap().total_bytes();
        d.rotate().unwrap();
        let after = d.memory_snapshot(&c).unwrap().total_bytes();
        assert!(after > before, "two instances alive: {before} -> {after}");
    }

    #[test]
    fn gc_reclaims_shadow_after_idle_period() {
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        d.rotate().unwrap();
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 2);
        // THRESH_T = 50 s: idle 60 s (frequency drops out of the window).
        d.advance(SimDuration::from_secs(70));
        assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
        assert!(d.events().iter().any(|e| matches!(
            e,
            DeviceEvent::GcPass {
                collected: true,
                ..
            }
        )));
    }

    #[test]
    fn view_state_survives_rchdroid_change() {
        let (mut d, _) = device_with_app(HandlingMode::rchdroid_default(), 2);
        d.with_foreground_activity_mut(|a| {
            let root = a.tree.find_by_id_name("root").unwrap();
            a.tree.apply(root, ViewOp::ScrollTo(777)).unwrap();
        })
        .unwrap();
        d.rotate().unwrap();
        let scroll = d
            .with_foreground_activity_mut(|a| {
                let root = a.tree.find_by_id_name("root").unwrap();
                a.tree.view(root).unwrap().attrs.scroll_y()
            })
            .unwrap();
        assert_eq!(scroll, 777);
    }

    #[test]
    fn crashed_app_rejects_further_changes() {
        let (mut d, c) = device_with_app(HandlingMode::Android10, 2);
        d.start_async_on_foreground(SimpleApp::with_views(2).button_task())
            .unwrap();
        d.rotate().unwrap();
        d.advance(SimDuration::from_secs(6));
        assert!(d.is_crashed(&c));
        assert_eq!(d.rotate(), Err(DeviceError::NoForegroundApp));
    }

    #[test]
    fn foreground_switch_releases_shadow() {
        let (mut d, c1) = device_with_app(HandlingMode::rchdroid_default(), 2);
        d.rotate().unwrap();
        assert_eq!(d.process(&c1).unwrap().thread().alive_instances().len(), 2);
        // Launch a second app → the first app's shadow is released.
        let mut other = SimpleApp::builder(1).build();
        let _ = &mut other;
        // Give it a distinct component by wrapping: SimpleApp is fixed to
        // com.bench/.Main, so simulate the switch directly instead.
        let p = d.apps.get_mut(&c1).unwrap();
        p.rch
            .on_foreground_switched(&mut p.thread, &mut d.atms)
            .unwrap();
        assert_eq!(d.process(&c1).unwrap().thread().alive_instances().len(), 1);
    }

    #[test]
    fn empty_device_has_no_foreground() {
        let mut d = Device::new(HandlingMode::rchdroid_default());
        assert_eq!(d.foreground_component(), None);
        assert_eq!(d.rotate(), Err(DeviceError::NoForegroundApp));
        assert_eq!(d.trigger_memory_pressure(), 0);
    }

    #[test]
    fn double_install_is_rejected() {
        let (mut d, _) = device_with_app(HandlingMode::rchdroid_default(), 2);
        let err = d
            .install_and_launch(Box::new(SimpleApp::with_views(2)), 1 << 20, 1.0)
            .unwrap_err();
        assert!(matches!(err, DeviceError::Handling(_)));
    }

    #[test]
    fn no_change_is_free() {
        let (mut d, _) = device_with_app(HandlingMode::rchdroid_default(), 2);
        let same = *d.configuration();
        let report = d.change_configuration(same).unwrap();
        assert_eq!(report.path, HandlingPath::NoChange);
        assert_eq!(report.latency, SimDuration::ZERO);
    }

    #[test]
    fn injected_fault_degrades_to_fallback_not_crash() {
        use droidsim_faults::FaultSite;
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        d.arm_faults(
            &c,
            FaultPlan::seeded(1).on_nth_probe(FaultSite::BundleCorruption, 1),
        )
        .unwrap();
        let report = d.rotate().unwrap();
        assert_eq!(report.path, HandlingPath::RchFallback);
        assert!(
            report.latency > SimDuration::ZERO,
            "fallback pays the stock relaunch price"
        );
        assert!(!d.is_crashed(&c), "absorbed, not fatal");
        assert!(d.events().iter().any(|e| matches!(
            e,
            DeviceEvent::Fault { site, rung, .. }
                if *site == "bundle-corruption" && *rung == "fallback-restart"
        )));
        let m = d.device_metrics(&c).unwrap().faults;
        assert_eq!(m.fallback_restarts, 1);
        assert_eq!(m.site_count("bundle-corruption"), 1);
        // The ladder recovers: the next change runs the protocol again.
        assert_eq!(d.rotate().unwrap().path, HandlingPath::RchInit);
    }

    #[test]
    fn contained_async_fault_is_logged_not_fatal() {
        use droidsim_faults::FaultSite;
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
            .unwrap();
        d.rotate().unwrap();
        d.arm_faults(
            &c,
            FaultPlan::seeded(2).on_nth_probe(FaultSite::AsyncCallbackPanic, 1),
        )
        .unwrap();
        d.advance(SimDuration::from_secs(6));
        assert!(!d.is_crashed(&c), "rung 1 contained the panic");
        assert!(d.events().iter().any(|e| matches!(
            e,
            DeviceEvent::Fault { site, rung, .. }
                if *site == "async-callback-panic" && *rung == "contained-per-view"
        )));
        assert_eq!(d.device_metrics(&c).unwrap().faults.contained_per_view, 1);
        assert_eq!(
            d.process(&c).unwrap().thread().alive_instances().len(),
            2,
            "shadow and sunny both survive the dropped callback"
        );
    }

    #[test]
    fn latencies_are_recorded_per_app() {
        let (mut d, c) = device_with_app(HandlingMode::rchdroid_default(), 4);
        for _ in 0..4 {
            d.rotate().unwrap();
        }
        let lats = d.process(&c).unwrap().latencies_ms();
        assert_eq!(lats.len(), 4);
        assert!(lats[0] > lats[1], "init slower than flips");
        assert!((lats[1] - lats[3]).abs() < 0.01, "flips are flat");
    }
}
