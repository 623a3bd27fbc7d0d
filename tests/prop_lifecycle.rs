//! Property tests on the activity lifecycle state machine (Fig. 4), the
//! activity thread's async callbacks and the deterministic simulation
//! kernel.

use droidsim_app::{ActivityState, ActivityThread, AsyncResult, AsyncSpec, SimpleApp};
use droidsim_atms::ActivityRecordId;
use droidsim_config::Configuration;
use droidsim_kernel::{SimDuration, SimTime, Xoshiro256};
use droidsim_view::ViewOp;
use proptest::prelude::*;

const ALL_STATES: [ActivityState; 8] = [
    ActivityState::Created,
    ActivityState::Started,
    ActivityState::Resumed,
    ActivityState::Paused,
    ActivityState::Stopped,
    ActivityState::Destroyed,
    ActivityState::Shadow,
    ActivityState::Sunny,
];

proptest! {
    #[test]
    fn destroyed_is_absorbing(target in 0usize..8) {
        let to = ALL_STATES[target];
        prop_assert!(!ActivityState::Destroyed.can_transition_to(to));
    }

    #[test]
    fn random_walks_stay_on_legal_edges(choices in proptest::collection::vec(any::<usize>(), 0..50)) {
        let mut state = ActivityState::Created;
        for choice in choices {
            let to = ALL_STATES[choice % 8];
            match state.transition_to(to) {
                Ok(next) => {
                    prop_assert!(state.can_transition_to(to));
                    state = next;
                }
                Err(e) => {
                    prop_assert_eq!(e.from, state);
                    prop_assert_eq!(e.to, to);
                }
            }
        }
    }

    #[test]
    fn shadow_is_alive_and_invisible_everywhere(choices in proptest::collection::vec(any::<usize>(), 0..50)) {
        let mut state = ActivityState::Created;
        for choice in choices {
            if let Ok(next) = state.transition_to(ALL_STATES[choice % 8]) {
                state = next;
            }
            if state == ActivityState::Shadow {
                prop_assert!(state.is_alive());
                prop_assert!(!state.is_visible());
                prop_assert!(!state.is_foreground());
            }
            if state == ActivityState::Sunny {
                prop_assert!(state.is_foreground());
            }
        }
    }

    #[test]
    fn async_callbacks_come_due_once_in_deadline_then_start_order(
        mut tasks in proptest::collection::vec((0u64..1_000, 0u64..1_000), 0..64),
        steps in proptest::collection::vec(0u64..120, 0..16),
    ) {
        let model = SimpleApp::with_views(1);
        let mut thread = ActivityThread::new();
        let id = thread.perform_launch_activity(
            &model,
            ActivityRecordId::new(0),
            Configuration::phone_portrait(),
            None,
        );
        // Tasks start in clock order; each callback names its start index.
        tasks.sort_by_key(|&(start, _)| start);
        let deadlines: Vec<SimTime> = tasks
            .iter()
            .map(|&(start, run)| SimTime::from_micros(start + run))
            .collect();
        for (i, &(start, run)) in tasks.iter().enumerate() {
            let spec = AsyncSpec {
                duration: SimDuration::from_micros(run),
                result: AsyncResult {
                    ops: vec![("button".to_owned(), ViewOp::SetText(i.to_string()))],
                    shows_dialog: false,
                },
            };
            thread.start_async(id, spec, SimTime::from_micros(start)).unwrap();
        }

        // Take at increasing instants, the last one past every deadline.
        let mut at = 0;
        let instants = steps
            .iter()
            .map(|step| {
                at += step;
                at
            })
            .chain([2_000]);
        let mut taken: Vec<usize> = Vec::new();
        let mut previous = None;
        for now in instants.map(SimTime::from_micros) {
            let pending = (0..tasks.len()).filter(|i| !taken.contains(i));
            prop_assert_eq!(thread.next_wakeup(), pending.map(|i| deadlines[i]).min());
            for work in thread.take_due_async(now) {
                let ViewOp::SetText(label) = &work.result.ops[0].1 else {
                    unreachable!("every callback sets a text")
                };
                let i: usize = label.parse().unwrap();
                prop_assert!(deadlines[i] <= now, "never before its deadline");
                prop_assert!(
                    previous.is_none_or(|before| deadlines[i] > before),
                    "taken at the first instant at or after its deadline"
                );
                taken.push(i);
            }
            previous = Some(now);
        }
        prop_assert_eq!(thread.next_wakeup(), None);
        // Each callback exactly once, by deadline and then start order.
        let mut expected: Vec<usize> = (0..tasks.len()).collect();
        expected.sort_by_key(|&i| (deadlines[i], i));
        prop_assert_eq!(taken, expected);
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = Xoshiro256::seed_from(seed);
        let mut b = Xoshiro256::seed_from(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_range_is_inclusive_and_bounded(seed in any::<u64>(), lo in 0u64..100, span in 0u64..100) {
        let hi = lo + span;
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..100 {
            let v = rng.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }
}
