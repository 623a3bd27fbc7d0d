//! The memo ≡ cold contract: the warm-path cache (`kernel::memo`'s
//! inflated templates, on the device path and under the analyzer's
//! shape extraction) is pure memoization. Disabling it with the kill
//! switch, evicting it under pressure, or invalidating it mid-workload
//! must never change a single observable digest — at any worker count,
//! with faults injected, for arbitrary app specs.
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
/// sees the full resolve → inflate → build_mapping path under
/// degradation.
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

/// The analyzer goes through the inflation cache too: each shape's
/// throwaway `perform_create` inflates its orientations through
/// `kernel::memo`, and shapes themselves are not memoized. Cold (memo
/// off), warm (tombstones, then publishes, then hits under the
/// inflater's three-touch admission), and post-reclaim /
/// post-invalidate analyses of the same corpus must produce identical
/// per-app digests — diagnostics, verdicts and suppression counts.
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
    let inflate_hits = || {
        memo::snapshot_all()
            .iter()
            .find(|s| s.name == "inflate")
            .map_or(0, |s| s.hits)
    };
    let cold = {
        let _off = MemoGuard::set(false);
        digest_all()
    };
    let _on = MemoGuard::set(true);
    assert_eq!(digest_all(), cold, "first warm pass leaves tombstones");
    assert_eq!(digest_all(), cold, "second warm pass leaves tombstones");
    assert_eq!(
        digest_all(),
        cold,
        "third warm pass fills the inflation cache"
    );
    let before = inflate_hits();
    assert_eq!(
        digest_all(),
        cold,
        "fourth warm pass hits the inflation cache"
    );
    assert!(inflate_hits() > before, "the analyzer's inflations hit");
    memo::reclaim_all();
    assert_eq!(digest_all(), cold, "reclaim never changes analysis results");
    memo::invalidate_all();
    assert_eq!(digest_all(), cold, "invalidation never changes results");
}

#[test]
fn eviction_and_invalidation_under_pressure_never_change_results() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let cold = {
        let _off = MemoGuard::set(false);
        device_digest(42, 7)
    };
    let _on = MemoGuard::set(true);
    // Warm the caches, then interleave the daemon's pressure responses
    // (reclaim halves every shard; invalidate buries every generation)
    // between and with repeated runs: every single run must still
    // reproduce the cold digest.
    for round in 0..4 {
        assert_eq!(
            device_digest(42, 7),
            cold,
            "round {round}: warm run diverged before reclaim"
        );
        match round % 3 {
            0 => {
                memo::reclaim_all();
            }
            1 => memo::invalidate_all(),
            _ => {
                memo::reclaim_all();
                memo::invalidate_all();
            }
        }
        assert_eq!(
            device_digest(42, 7),
            cold,
            "round {round}: warm run diverged after reclaim/invalidate"
        );
    }
}
