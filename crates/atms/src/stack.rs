//! The activity stack: tasks and per-task record stacks.

use crate::record::{ActivityRecord, ActivityRecordId};

droidsim_kernel::define_id! {
    /// Identifies a task (≈ one app) in the activity stack.
    pub struct TaskId
}

/// One task: an app's back stack of activity records (Fig. 2b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    id: TaskId,
    /// The task's affinity: the package whose activities it collects.
    pub affinity: String,
    /// Record tokens, bottom → top. The last element is the task's
    /// foreground activity.
    records: Vec<ActivityRecordId>,
}

impl TaskRecord {
    /// Creates an empty task.
    pub fn new(id: TaskId, affinity: &str) -> Self {
        TaskRecord {
            id,
            affinity: affinity.to_owned(),
            records: Vec::new(),
        }
    }

    /// The task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The topmost record, if any.
    pub fn top(&self) -> Option<ActivityRecordId> {
        self.records.last().copied()
    }

    /// Pushes a record on top.
    pub fn push(&mut self, record: ActivityRecordId) {
        self.records.push(record);
    }

    /// Removes a record wherever it is in the stack. Returns whether it
    /// was present.
    pub fn remove(&mut self, record: ActivityRecordId) -> bool {
        let before = self.records.len();
        self.records.retain(|&r| r != record);
        self.records.len() != before
    }

    /// Moves an existing record to the top (the reorder step of the
    /// coin-flip). Returns whether it was present.
    pub fn move_to_top(&mut self, record: ActivityRecordId) -> bool {
        if self.remove(record) {
            self.records.push(record);
            true
        } else {
            false
        }
    }

    /// Records bottom → top.
    pub fn records(&self) -> &[ActivityRecordId] {
        &self.records
    }

    /// Number of records in the task.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the task has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `ActivityStack.findShadowActivityLocked` (the +29 LoC patch):
    /// searches this task's stack, top-down, for an alive shadow-state
    /// record, given access to the record arena.
    pub fn find_shadow_activity<'a>(
        &self,
        resolve: impl Fn(ActivityRecordId) -> Option<&'a ActivityRecord>,
    ) -> Option<ActivityRecordId> {
        self.records
            .iter()
            .rev()
            .filter_map(|&id| resolve(id))
            .find(|r| r.is_shadow() && r.is_alive())
            .map(ActivityRecord::id)
    }
}

/// The global activity stack: an ordered set of tasks, topmost last.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityStack {
    tasks: Vec<TaskRecord>,
    next_task_id: u64,
}

impl ActivityStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        ActivityStack::default()
    }

    /// The foreground task, if any.
    pub fn top_task(&self) -> Option<&TaskRecord> {
        self.tasks.last()
    }

    /// Finds a task by affinity.
    pub fn task_by_affinity(&self, affinity: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .find(|t| t.affinity == affinity)
            .map(TaskRecord::id)
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Mutable task lookup.
    pub fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRecord> {
        self.tasks.iter_mut().find(|t| t.id() == id)
    }

    /// Creates a new task for `affinity` and returns its id.
    pub fn create_task(&mut self, affinity: &str) -> TaskId {
        let id = TaskId::new(self.next_task_id);
        self.next_task_id += 1;
        self.tasks.push(TaskRecord::new(id, affinity));
        id
    }

    /// Moves a task to the foreground. Returns whether it was present.
    pub fn move_task_to_front(&mut self, id: TaskId) -> bool {
        if let Some(pos) = self.tasks.iter().position(|t| t.id() == id) {
            let task = self.tasks.remove(pos);
            self.tasks.push(task);
            true
        } else {
            false
        }
    }

    /// Removes a task entirely (its app finished).
    pub fn remove_task(&mut self, id: TaskId) -> bool {
        let before = self.tasks.len();
        self.tasks.retain(|t| t.id() != id);
        self.tasks.len() != before
    }

    /// Tasks bottom → top.
    pub fn tasks(&self) -> &[TaskRecord] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_config::{ConfigChanges, Configuration};
    use droidsim_kernel::SimTime;

    #[test]
    fn task_stack_push_top_remove() {
        let mut t = TaskRecord::new(TaskId::new(0), "com.example");
        let a = ActivityRecordId::new(1);
        let b = ActivityRecordId::new(2);
        t.push(a);
        t.push(b);
        assert_eq!(t.top(), Some(b));
        assert!(t.remove(a));
        assert!(!t.remove(a));
        assert_eq!(t.records(), &[b]);
    }

    #[test]
    fn move_to_top_reorders() {
        let mut t = TaskRecord::new(TaskId::new(0), "x");
        let a = ActivityRecordId::new(1);
        let b = ActivityRecordId::new(2);
        t.push(a);
        t.push(b);
        assert!(t.move_to_top(a));
        assert_eq!(t.top(), Some(a));
        assert_eq!(t.len(), 2);
        assert!(!t.move_to_top(ActivityRecordId::new(99)));
    }

    #[test]
    fn find_shadow_activity_scans_top_down() {
        let mut t = TaskRecord::new(TaskId::new(0), "x");
        let mk = |raw: u64, shadow: bool| {
            let mut r = ActivityRecord::new(
                ActivityRecordId::new(raw),
                "x/.A",
                Configuration::phone_portrait(),
                ConfigChanges::NONE,
            );
            if shadow {
                r.set_shadow(true, SimTime::ZERO);
            }
            r
        };
        let records = vec![mk(1, true), mk(2, false), mk(3, true)];
        for r in &records {
            t.push(r.id());
        }
        let found = t.find_shadow_activity(|id| records.iter().find(|r| r.id() == id));
        // Top-down search finds record 3 first.
        assert_eq!(found, Some(ActivityRecordId::new(3)));
    }

    #[test]
    fn find_shadow_activity_skips_dead_records() {
        let mut t = TaskRecord::new(TaskId::new(0), "x");
        let mut r = ActivityRecord::new(
            ActivityRecordId::new(1),
            "x/.A",
            Configuration::phone_portrait(),
            ConfigChanges::NONE,
        );
        r.set_shadow(true, SimTime::ZERO);
        r.state = crate::record::RecordState::Destroyed;
        t.push(r.id());
        let records = [r];
        let found = t.find_shadow_activity(|id| records.iter().find(|r| r.id() == id));
        assert_eq!(found, None);
    }

    #[test]
    fn stack_task_lifecycle() {
        let mut s = ActivityStack::new();
        let t1 = s.create_task("com.a");
        let t2 = s.create_task("com.b");
        assert_eq!(s.top_task().map(TaskRecord::id), Some(t2));
        assert!(s.move_task_to_front(t1));
        assert_eq!(s.top_task().map(TaskRecord::id), Some(t1));
        assert_eq!(s.task_by_affinity("com.b"), Some(t2));
        assert!(s.remove_task(t2));
        assert_eq!(s.len(), 1);
    }
}
