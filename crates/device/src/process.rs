//! One installed app process.

use droidsim_app::{Activity, ActivityInstanceId, ActivityThread, AppModel};
use droidsim_kernel::{SimDuration, SimTime};
use droidsim_metrics::{AppCostProfile, MemoryModel, MemorySnapshot};
use rchdroid::RchDroid;
use runtimedroid_baseline::RuntimeDroid;

/// An installed app: its model (black-box logic), its activity thread,
/// per-process change handlers, and bookkeeping the experiments read.
pub struct AppProcess {
    pub(crate) model: Box<dyn AppModel>,
    pub(crate) thread: ActivityThread,
    pub(crate) rch: RchDroid,
    pub(crate) rtd: RuntimeDroid,
    pub(crate) complexity: f64,
    pub(crate) memory: MemoryModel,
    pub(crate) crashed: Option<String>,
    pub(crate) latencies: Vec<(SimTime, SimDuration)>,
}

impl AppProcess {
    pub(crate) fn new(model: Box<dyn AppModel>, base_memory_bytes: u64, complexity: f64) -> Self {
        AppProcess {
            model,
            thread: ActivityThread::new(),
            rch: RchDroid::new(),
            rtd: RuntimeDroid::new(),
            complexity,
            memory: MemoryModel::new(base_memory_bytes),
            crashed: None,
            latencies: Vec::new(),
        }
    }

    /// The app's component name.
    pub fn component(&self) -> &str {
        self.model.component_name()
    }

    /// The black-box app model.
    pub fn model(&self) -> &dyn AppModel {
        self.model.as_ref()
    }

    /// The process's activity thread (read access for assertions).
    pub fn thread(&self) -> &ActivityThread {
        &self.thread
    }

    /// The exception message if the process crashed.
    pub fn crash(&self) -> Option<&str> {
        self.crashed.as_deref()
    }

    /// Handling latencies recorded so far (change time, latency).
    pub fn latencies(&self) -> &[(SimTime, SimDuration)] {
        &self.latencies
    }

    /// Latencies in milliseconds (experiment convenience).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .map(|(_, d)| d.as_millis_f64())
            .collect()
    }

    /// The cost profile for the current foreground tree.
    pub fn cost_profile(&self) -> AppCostProfile {
        let view_count = self
            .foreground_activity()
            .map_or(1, |a| a.tree.view_count());
        AppCostProfile {
            complexity: self.complexity,
            view_count,
        }
    }

    /// The instance currently in the foreground (resumed or sunny).
    pub fn foreground_activity(&self) -> Option<&Activity> {
        self.thread
            .alive_activities()
            .find(|a| a.state().is_foreground())
    }

    /// The foreground instance id.
    pub fn foreground_instance(&self) -> Option<ActivityInstanceId> {
        self.foreground_activity().map(Activity::id)
    }

    /// PSS snapshot: base + alive activities (0 after a crash — the
    /// process is gone).
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        if self.crashed.is_some() {
            return MemorySnapshot::default();
        }
        self.memory
            .snapshot(self.thread.alive_activities().map(Activity::heap_bytes))
    }
}

impl core::fmt::Debug for AppProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AppProcess")
            .field("component", &self.component())
            .field("complexity", &self.complexity)
            .field("crashed", &self.crashed)
            .field("alive_instances", &self.thread.alive_activities().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_app::SimpleApp;
    use droidsim_atms::ActivityRecordId;
    use droidsim_config::Configuration;

    fn process_with_instance() -> AppProcess {
        let mut p = AppProcess::new(Box::new(SimpleApp::with_views(3)), 10 << 20, 1.5);
        let model = SimpleApp::with_views(3);
        let id = p.thread.perform_launch_activity(
            &model,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        p.thread.resume_sequence(id, false).unwrap();
        p
    }

    #[test]
    fn cost_profile_reflects_the_live_tree() {
        let p = process_with_instance();
        let profile = p.cost_profile();
        assert_eq!(profile.complexity, 1.5);
        // decor + root + 3 images + button
        assert_eq!(profile.view_count, 6);
    }

    #[test]
    fn foreground_accessors_agree() {
        let p = process_with_instance();
        let fg = p.foreground_activity().unwrap();
        assert_eq!(Some(fg.id()), p.foreground_instance());
        assert!(fg.state().is_foreground());
    }

    #[test]
    fn memory_snapshot_is_zero_after_crash() {
        let mut p = process_with_instance();
        assert!(p.memory_snapshot().total_bytes() > 10 << 20);
        p.crashed = Some("boom".to_owned());
        assert_eq!(p.memory_snapshot().total_bytes(), 0);
        assert_eq!(p.crash(), Some("boom"));
    }

    #[test]
    fn latencies_convert_to_ms() {
        let mut p = process_with_instance();
        p.latencies
            .push((droidsim_kernel::SimTime::ZERO, SimDuration::from_millis(89)));
        assert_eq!(p.latencies_ms(), vec![89.0]);
        assert_eq!(p.latencies().len(), 1);
    }

    #[test]
    fn debug_is_informative() {
        let p = process_with_instance();
        let s = format!("{p:?}");
        assert!(s.contains("com.bench/.Main"));
        assert!(s.contains("alive_instances: 1"));
    }
}
