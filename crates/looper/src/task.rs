//! Asynchronous background tasks.

use droidsim_kernel::{SimDuration, SimTime};
use std::collections::BTreeMap;

droidsim_kernel::define_id! {
    /// Identifies one in-flight asynchronous task.
    pub struct AsyncTaskId
}

/// A finished task: id, completion time and its payload, ready to be
/// posted to the UI thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCompletion<P> {
    /// The task.
    pub id: AsyncTaskId,
    /// When it finished.
    pub finished_at: SimTime,
    /// The payload handed back to the UI-thread callback.
    pub payload: P,
}

#[derive(Debug, Clone)]
struct InFlight<P> {
    deadline: SimTime,
    payload: P,
}

/// The set of in-flight background tasks of one app process.
///
/// Models `AsyncTask`/worker threads: work takes a fixed virtual duration
/// and, on completion, the payload must be handed to the UI thread.
/// Cancellation mirrors `AsyncTask.cancel` — the paper's point is that
/// 92.4 % of developers *don't* cancel on configuration change.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::{SimDuration, SimTime};
/// use droidsim_looper::AsyncTaskPool;
///
/// let mut pool = AsyncTaskPool::new();
/// let id = pool.spawn(SimTime::ZERO, SimDuration::from_secs(5), "work");
/// assert!(pool.cancel(id));
/// assert!(pool.completions_until(SimTime::from_secs(10)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AsyncTaskPool<P> {
    next_id: u64,
    in_flight: BTreeMap<AsyncTaskId, InFlight<P>>,
}

impl<P> AsyncTaskPool<P> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        AsyncTaskPool {
            next_id: 0,
            in_flight: BTreeMap::new(),
        }
    }

    /// Starts a task at `now` that will complete after `duration`,
    /// delivering `payload`.
    pub fn spawn(&mut self, now: SimTime, duration: SimDuration, payload: P) -> AsyncTaskId {
        let id = AsyncTaskId::new(self.next_id);
        self.next_id += 1;
        self.in_flight.insert(
            id,
            InFlight {
                deadline: now + duration,
                payload,
            },
        );
        id
    }

    /// Cancels an in-flight task. Returns `false` if it already completed
    /// (or never existed) — matching `AsyncTask.cancel`'s best-effort
    /// contract.
    pub fn cancel(&mut self, id: AsyncTaskId) -> bool {
        self.in_flight.remove(&id).is_some()
    }

    /// Removes and returns every task whose deadline is at or before
    /// `now`, ordered by completion time then spawn order.
    pub fn completions_until(&mut self, now: SimTime) -> Vec<TaskCompletion<P>> {
        let done: Vec<AsyncTaskId> = self
            .in_flight
            .iter()
            .filter(|(_, t)| t.deadline <= now)
            .map(|(id, _)| *id)
            .collect();
        let mut completions: Vec<TaskCompletion<P>> = done
            .into_iter()
            .map(|id| {
                let t = self.in_flight.remove(&id).expect("collected above");
                TaskCompletion {
                    id,
                    finished_at: t.deadline,
                    payload: t.payload,
                }
            })
            .collect();
        completions.sort_by_key(|c| (c.finished_at, c.id));
        completions
    }

    /// The earliest pending deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.in_flight.values().map(|t| t.deadline).min()
    }

    /// Number of in-flight tasks.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether no tasks are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

impl<P> Default for AsyncTaskPool<P> {
    fn default() -> Self {
        AsyncTaskPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_complete_at_their_deadline() {
        let mut pool = AsyncTaskPool::new();
        pool.spawn(SimTime::ZERO, SimDuration::from_secs(5), "a");
        pool.spawn(SimTime::ZERO, SimDuration::from_secs(2), "b");
        assert_eq!(pool.next_deadline(), Some(SimTime::from_secs(2)));

        let first = pool.completions_until(SimTime::from_secs(3));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].payload, "b");

        let second = pool.completions_until(SimTime::from_secs(5));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].payload, "a");
        assert!(pool.is_empty());
    }

    #[test]
    fn completions_sort_by_time_then_spawn_order() {
        let mut pool = AsyncTaskPool::new();
        let t1 = pool.spawn(SimTime::ZERO, SimDuration::from_secs(3), 1);
        let t2 = pool.spawn(SimTime::ZERO, SimDuration::from_secs(3), 2);
        let t3 = pool.spawn(SimTime::ZERO, SimDuration::from_secs(1), 3);
        let done = pool.completions_until(SimTime::from_secs(10));
        let order: Vec<AsyncTaskId> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![t3, t1, t2]);
    }

    #[test]
    fn cancel_prevents_completion() {
        let mut pool = AsyncTaskPool::new();
        let id = pool.spawn(SimTime::ZERO, SimDuration::from_secs(1), ());
        assert!(pool.cancel(id));
        assert!(!pool.cancel(id), "second cancel is a no-op");
        assert!(pool.is_empty());
        assert!(pool.completions_until(SimTime::from_secs(2)).is_empty());
    }

    #[test]
    fn completed_task_cannot_be_cancelled() {
        let mut pool = AsyncTaskPool::new();
        let id = pool.spawn(SimTime::ZERO, SimDuration::from_secs(1), ());
        let done = pool.completions_until(SimTime::from_secs(1));
        assert_eq!(done.len(), 1);
        assert!(!pool.cancel(id));
    }
}
