//! The memo ≡ cold contract: the inflation cache each app process keeps
//! (`ActivityThread`, one pristine tree per configuration its activity
//! was created in) is pure memoization. Disabling it with the kill
//! switch must never change a single observable digest — at any worker
//! count, with faults injected, for arbitrary app specs, and over a
//! long-lived device whose relaunches and re-inits keep hitting it.
//!
//! The tests toggle the process-global memo switch, so every test in
//! this binary serialises on [`FLAG_LOCK`] and restores the enabled
//! state on exit (panic included) via [`MemoGuard`].

use droidsim_analysis::{AppAnalysis, Suppressions};
use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_faults::FaultPlan;
use droidsim_fleet::{run_fleet, Digest, FleetConfig, TaskCtx};
use droidsim_kernel::{memo, SimDuration};
use proptest::prelude::*;
use rch_experiments::{run_app, RunConfig, RunOutcome};
use rch_workloads::{GenericAppSpec, StateItem, StateMechanism};
use std::sync::Mutex;

/// Serialises the tests of this binary around the process-global memo
/// switch.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// RAII: sets the memo switch for a scope and restores `enabled` on
/// drop, so a failing assertion cannot leak a disabled cache into the
/// next test.
struct MemoGuard;

impl MemoGuard {
    fn set(on: bool) -> MemoGuard {
        memo::set_enabled(on);
        MemoGuard
    }
}

impl Drop for MemoGuard {
    fn drop(&mut self) {
        memo::set_enabled(true);
    }
}

/// Devices per fleet (enough that 1/4/8 workers partition differently).
const DEVICES: usize = 8;
/// Fault injection probability at every probe site.
const FAULT_RATE: f64 = 0.05;

/// One faulty device workload, digesting everything observable — the
/// same shape as the fleet determinism suite, so the inflation cache
/// sees launches, relaunches and inits under degradation.
fn device_digest(fault_seed: u64, jitter_seed: u64) -> u64 {
    let mut d = Device::new(HandlingMode::rchdroid_default()).with_jitter(jitter_seed, 0.1);
    let c = d
        .install_and_launch(Box::new(SimpleApp::with_views(4)), 40 << 20, 1.0)
        .unwrap();
    d.arm_faults(
        &c,
        FaultPlan::seeded(fault_seed).with_rate_everywhere(FAULT_RATE),
    )
    .unwrap();
    d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
        .unwrap();
    let _ = d.rotate();
    d.advance(SimDuration::from_secs(6));
    if !d.is_crashed(&c) {
        let _ = d.rotate();
        d.advance(SimDuration::from_secs(1));
    }

    let mut digest = Digest::new();
    d.for_each_logcat_line(None, |line| digest.write_str(line));
    digest.write_str(&d.device_metrics(&c).unwrap().deterministic_fingerprint());
    digest.write_u64(u64::from(d.is_crashed(&c)));
    digest.write_str(d.foreground_component().as_deref().unwrap_or("<none>"));
    digest.finish()
}

fn device_task(mut ctx: TaskCtx, _i: usize) -> u64 {
    let fault_seed = ctx.rng.next_u64();
    let jitter_seed = ctx.rng.next_u64();
    device_digest(fault_seed, jitter_seed)
}

fn fleet_digests(jobs: usize, seed: u64) -> Vec<u64> {
    run_fleet(
        &FleetConfig::new(jobs, seed),
        (0..DEVICES).collect(),
        device_task,
    )
}

#[test]
fn memo_equals_cold_at_every_worker_count_under_faults() {
    let _serial = FLAG_LOCK.lock().unwrap();
    for seed in [1u64, 11] {
        let cold = {
            let _off = MemoGuard::set(false);
            fleet_digests(1, seed)
        };
        let _on = MemoGuard::set(true);
        for jobs in [1usize, 4, 8] {
            assert_eq!(
                fleet_digests(jobs, seed),
                cold,
                "seed {seed}: memoized fleet at jobs={jobs} diverged from the cold run"
            );
        }
    }
}

/// Digests everything a scenario run observes.
fn outcome_digest(o: &RunOutcome) -> u64 {
    let mut d = Digest::new();
    for l in &o.latencies_ms {
        d.write_u64(l.to_bits());
    }
    d.write_u64(u64::from(o.crashed));
    d.write_u64(u64::from(o.state_ok));
    d.write_u64(o.memory_mib.to_bits());
    d.write_u64(o.busy_ms.to_bits());
    d.finish()
}

/// A random app spec: derived quantitative parameters from the name,
/// every behaviour flag free, optionally a state item of any mechanism
/// (the table5 study's spec space).
fn spec_strategy() -> impl Strategy<Value = GenericAppSpec> {
    // flags is a bitmask: large / handles-changes / saves-state / async.
    // mechanism 0..5 selects a state mechanism; 5 means "no state item".
    (0u32..1000, 0u32..16, 0usize..6).prop_map(|(n, flags, mechanism)| {
        let (large, handles, saves, with_async) = (
            flags & 1 != 0,
            flags & 2 != 0,
            flags & 4 != 0,
            flags & 8 != 0,
        );
        let mut spec = GenericAppSpec::sized(&format!("prop-app-{n}"), "10M+", large);
        if handles {
            spec = spec.self_handling();
        }
        if saves {
            spec = spec.saving_state();
        }
        if with_async {
            spec = spec.with_async_task();
        }
        if mechanism < 5 {
            let mechanism = [
                StateMechanism::FrameworkView,
                StateMechanism::CustomViewNoSave,
                StateMechanism::DynamicViewNoSave,
                StateMechanism::MemberSaved,
                StateMechanism::MemberUnsaved,
            ][mechanism];
            spec = spec.with_issue(
                "state loss on change",
                StateItem::new("prop-state", mechanism, "prop-value"),
            );
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any app spec, driven through the table5-style handling scenario
    /// under both systems, produces bit-identical outcomes with the
    /// caches on and off — including the warm re-run that actually
    /// hits the caches.
    #[test]
    fn any_app_spec_runs_identically_with_and_without_memo(spec in spec_strategy()) {
        let _serial = FLAG_LOCK.lock().unwrap();
        let run = |mode: HandlingMode| run_app(&spec, &RunConfig::new(mode));
        let cold: Vec<u64> = {
            let _off = MemoGuard::set(false);
            [HandlingMode::Android10, HandlingMode::rchdroid_default()]
                .map(|m| outcome_digest(&run(m)))
                .to_vec()
        };
        let _on = MemoGuard::set(true);
        for pass in 0..2 {
            let warm: Vec<u64> = [HandlingMode::Android10, HandlingMode::rchdroid_default()]
                .map(|m| outcome_digest(&run(m)))
                .to_vec();
            prop_assert_eq!(
                &warm, &cold,
                "{}: warm pass {} diverged from the cold run", spec.name, pass
            );
        }
    }
}

/// The analyzer has no inflation cache: each shape's throwaway
/// `perform_create` is the uncached creation path. Analyses of the same
/// corpus with the switch off and on, and on repeated passes, must
/// produce identical per-app digests — diagnostics, verdicts and
/// suppression counts.
#[test]
fn cached_inflation_never_changes_analysis_results() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let specs: Vec<GenericAppSpec> = rch_workloads::tp27_specs()
        .into_iter()
        .chain(rch_workloads::dataloss_specs().into_iter().step_by(23))
        .collect();
    let digest_all = || -> Vec<u64> {
        specs
            .iter()
            .map(|s| AppAnalysis::of(s, &Suppressions::none()).digest())
            .collect()
    };
    let cold = {
        let _off = MemoGuard::set(false);
        digest_all()
    };
    let _on = MemoGuard::set(true);
    for pass in 0..2 {
        assert_eq!(digest_all(), cold, "warm pass {pass} diverged");
    }
}

/// Changes one long-lived device makes: enough that the GC collects the
/// shadow and the next change re-inits, again and again.
const LONG_LIVED_CHANGES: usize = 64;

/// The custom view `on_create` flags as not saving its state.
fn custom_state() -> StateItem {
    StateItem::new("long-lived-state", StateMechanism::CustomViewNoSave, "kept")
}

/// A 12–56-view app: every view fits in one chunk of a shared tree.
fn small_spec() -> GenericAppSpec {
    GenericAppSpec::sized("memo-parity-long-lived", "10M+", false)
        .with_async_task()
        .with_issue("state loss on change", custom_state())
}

/// A 12–56-view app whose `on_create` adds a view the layout lacks, so
/// every creation's tree differs from its kept inflation by one view:
/// its name goes to the overlay of the shared index, where every peer
/// lookup finds it.
fn dynamic_spec() -> GenericAppSpec {
    let dynamic = StateItem::new(
        "long-lived-dynamic",
        StateMechanism::DynamicViewNoSave,
        "typed",
    );
    GenericAppSpec::sized("memo-parity-dynamic", "10M+", false)
        .with_async_task()
        .with_issue("state loss on change", dynamic)
}

/// A 705-view app whose writes land in chunks far apart. The layout
/// lists 600 images, the async target, then each state item's view in
/// order: 100 framework fields that save their typed text, and last the
/// custom view, over a hundred views after the target and the first
/// fields.
fn wide_spec() -> GenericAppSpec {
    let mut spec = GenericAppSpec::sized("memo-parity-wide", "10M+", true).with_async_task();
    spec.view_count = 600;
    for i in 0..100 {
        let field = StateItem::new(
            &format!("field_{i}"),
            StateMechanism::FrameworkView,
            "typed",
        );
        spec = spec.with_issue("state loss on change", field);
    }
    spec.with_issue("state loss on change", custom_state())
}

/// One long-lived device under `mode` running `spec`: 64 rotations with
/// async tasks (RCHDroid only; under stock they are the crash bug), a
/// 70 s idle after every 16th change so the GC collects the shadow, and
/// a 5 % fault rate, so relaunches, re-inits and fallbacks keep
/// re-creating the activity in configurations the process has already
/// shown.
fn long_lived_device_digest(spec: &GenericAppSpec, mode: HandlingMode, fault_seed: u64) -> u64 {
    let probe = spec.build();
    let mut d = Device::new(mode).with_jitter(fault_seed, 0.1);
    let c = d
        .install_and_launch(
            Box::new(spec.build()),
            spec.base_memory_bytes,
            spec.complexity,
        )
        .unwrap();
    d.arm_faults(
        &c,
        FaultPlan::seeded(fault_seed).with_rate_everywhere(FAULT_RATE),
    )
    .unwrap();
    let _ = d.with_foreground_activity_mut(|a| probe.apply_user_state(a));

    let mut digest = Digest::new();
    for change in 0..LONG_LIVED_CHANGES {
        if d.is_crashed(&c) {
            break;
        }
        if mode.is_rchdroid() && change % 8 == 0 {
            let _ = d.start_async_on_foreground(spec.async_task());
        }
        match d.rotate() {
            Ok(r) => digest.write_u64(r.latency.as_micros()),
            Err(e) => digest.write_str(&e.to_string()),
        }
        let idle = if (change + 1) % 16 == 0 { 70 } else { 2 };
        d.advance(SimDuration::from_secs(idle));
    }
    d.for_each_logcat_line(None, |line| digest.write_str(line));
    digest.write_str(&d.device_metrics(&c).unwrap().deterministic_fingerprint());
    digest.write_u64(u64::from(d.is_crashed(&c)));
    let survived = d
        .with_foreground_activity_mut(|a| probe.all_state_survived(a))
        .unwrap_or(false);
    digest.write_u64(u64::from(survived));
    digest.finish()
}

#[test]
fn a_long_lived_device_digests_the_same_with_and_without_the_cache() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let inflate_hits = || memo::snapshot_all()[0].hits;
    // The wide app's custom view lies more than two 32-view chunks past
    // the async target.
    let mut probe = Device::new(HandlingMode::Android10);
    probe
        .install_and_launch(Box::new(wide_spec().build()), 0, 1.0)
        .unwrap();
    let gap = probe
        .with_foreground_activity_mut(|a| {
            let id = |name| a.tree.find_by_id_name(name).unwrap().raw();
            id("long-lived-state") - id("async_target")
        })
        .unwrap();
    assert_eq!(gap, 101);
    for spec in [small_spec(), dynamic_spec(), wide_spec()] {
        for mode in [HandlingMode::rchdroid_default(), HandlingMode::Android10] {
            for fault_seed in [42u64, 43] {
                let name = &spec.name;
                let cold = {
                    let _off = MemoGuard::set(false);
                    long_lived_device_digest(&spec, mode, fault_seed)
                };
                let _on = MemoGuard::set(true);
                let before = inflate_hits();
                assert_eq!(
                    long_lived_device_digest(&spec, mode, fault_seed),
                    cold,
                    "{name}, {mode:?}, fault seed {fault_seed}: the cached run diverged"
                );
                assert!(
                    inflate_hits() > before,
                    "{name}, {mode:?}, fault seed {fault_seed}: the device never hit its cache"
                );
            }
        }
    }
}
