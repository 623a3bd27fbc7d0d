//! The fault matrix: deterministic injection at every site, across
//! several seeds, under RCHDroid's default handling. The contract under
//! test is the degradation ladder's guarantee — **no injected fault ever
//! escapes as a panic**; each one is either contained per view, absorbed
//! by a fallback restart, or (for organic app bugs only) surfaces as a
//! marked process crash.
//!
//! CI runs this suite once per seed via the `FAULT_SEED` environment
//! variable (the `fault-matrix` job); without it, every built-in seed
//! runs in one pass.

use droidsim_app::SimpleApp;
use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_fleet::{run_fleet_supervised, Digest, FleetConfig, FleetOptions};
use droidsim_kernel::SimDuration;
use rchdroid::GcPolicy;
use std::rc::Rc;

/// The matrix loops fan out across the fleet (`DROIDSIM_JOBS`, default
/// all cores); each cell simulates on its own `Device` and returns only
/// plain data, so outcomes are identical for any worker count.
fn fleet() -> FleetConfig {
    FleetConfig::from_env(None, 0)
}

/// Seeds exercised when `FAULT_SEED` is unset.
const DEFAULT_SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEED") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("FAULT_SEED is comma-separated u64s")
            })
            .collect(),
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// One scripted scenario that reaches every probe site: an async task in
/// flight across a change (flush sites + callback site), the change
/// itself (bundle + allocation sites), and a follow-up change.
fn run_scenario(plan: FaultPlan) -> (Device, Rc<str>) {
    let mut d = Device::new(HandlingMode::rchdroid_default());
    let c = d
        .install_and_launch(Box::new(SimpleApp::with_views(4)), 40 << 20, 1.0)
        .unwrap();
    d.arm_faults(&c, plan).unwrap();
    d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
        .unwrap();
    let _ = d.rotate();
    d.advance(SimDuration::from_secs(6));
    if !d.is_crashed(&c) {
        let _ = d.rotate();
        d.advance(SimDuration::from_secs(1));
    }
    (d, c)
}

/// What one matrix cell observed; `Device` itself stays inside the
/// fleet task (app models are not `Send`), only this crosses threads.
#[derive(Clone)]
struct CellOutcome {
    label: String,
    injected: u64,
    at_site: u64,
    crashed: bool,
    rung3: u64,
    has_foreground: bool,
}

impl CellOutcome {
    /// What a journaled matrix run records per cell.
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str(&self.label);
        d.write_u64(self.injected);
        d.write_u64(self.at_site);
        d.write_u64(u64::from(self.crashed));
        d.write_u64(self.rung3);
        d.write_u64(u64::from(self.has_foreground));
        d.finish()
    }
}

#[test]
fn every_forced_site_is_absorbed_by_the_ladder() {
    let mut cells = Vec::new();
    for seed in seeds() {
        for site in FaultSite::ALL {
            cells.push((seed, site));
        }
    }
    // The matrix runs under the supervised fleet: a cell whose scenario
    // panics is quarantined and reported with a repro line instead of
    // tearing down every other cell of the matrix.
    let run = run_fleet_supervised(
        &fleet(),
        &FleetOptions::new(),
        cells,
        |_ctx, (seed, site)| {
            let plan = FaultPlan::seeded(seed).on_nth_probe(site, 1);
            let (d, c) = run_scenario(plan);
            let m = d.device_metrics(&c).unwrap().faults;
            CellOutcome {
                label: format!("seed {seed}: {site}"),
                injected: m.total_faults(),
                at_site: m.site_count(site.name()),
                crashed: d.is_crashed(&c),
                rung3: m.crashes,
                has_foreground: d.foreground_component().is_some(),
            }
        },
        CellOutcome::digest,
    )
    .unwrap();
    assert!(run.report.is_clean(), "{}", run.report.render());
    let outcomes: Vec<CellOutcome> = run
        .outcomes
        .iter()
        .map(|o| o.ok().cloned().unwrap())
        .collect();
    for o in outcomes {
        assert!(o.injected >= 1, "{} never injected", o.label);
        assert!(o.at_site >= 1, "{} absorbed under the wrong site", o.label);
        assert!(!o.crashed, "{} escalated to a crash", o.label);
        assert_eq!(o.rung3, 0, "{} recorded a rung-3 escalation", o.label);
        // The device stays usable after absorption.
        assert!(o.has_foreground, "{} lost its foreground", o.label);
    }
}

#[test]
fn rate_injection_never_escapes_a_panic() {
    // 50 % at every site is far past any realistic fault load; the
    // guarantee is that the scripted run completes (an escaped panic
    // quarantines its cell, which `is_clean` rejects) and the books
    // balance. Event inspection happens inside the task — only
    // violations cross back.
    let run = run_fleet_supervised(
        &fleet(),
        &FleetOptions::new(),
        seeds(),
        |_ctx, seed| {
            let plan = FaultPlan::seeded(seed).with_rate_everywhere(0.5);
            let (d, c) = run_scenario(plan);
            let m = d.device_metrics(&c).unwrap().faults;
            let mut bad = Vec::new();
            if m.total_faults() != m.contained_per_view + m.fallback_restarts + m.crashes {
                bad.push(format!("seed {seed}: fault ledger out of balance"));
            }
            if m.crashes != 0 {
                bad.push(format!(
                    "seed {seed}: injected faults must not reach rung 3"
                ));
            }
            // Every absorbed fault names its site and rung in the log.
            for e in d.events() {
                if let DeviceEvent::Fault { site, rung, .. } = e {
                    if site.is_empty()
                        || (*rung != "contained-per-view" && *rung != "fallback-restart")
                    {
                        bad.push(format!("seed {seed}: unexpected rung {rung} for {site}"));
                    }
                }
            }
            bad
        },
        |bad| {
            let mut d = Digest::new();
            for line in bad {
                d.write_str(line);
            }
            d.finish()
        },
    )
    .unwrap();
    assert!(run.report.is_clean(), "{}", run.report.render());
    let violations: Vec<String> = run
        .outcomes
        .iter()
        .flat_map(|o| o.ok().cloned().unwrap())
        .collect();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn disarmed_plan_changes_nothing() {
    let (d, c) = run_scenario(FaultPlan::disarmed());
    assert!(!d.is_crashed(&c));
    let m = d.device_metrics(&c).unwrap().faults;
    assert_eq!(m.total_faults(), 0);
    assert!(!d
        .events()
        .iter()
        .any(|e| matches!(e, DeviceEvent::Fault { .. })));
}

#[test]
fn forced_and_rate_runs_are_deterministic_per_seed() {
    let fingerprint = |seed: u64| {
        let plan = FaultPlan::seeded(seed).with_rate_everywhere(0.2);
        let (d, c) = run_scenario(plan);
        let m = d.device_metrics(&c).unwrap().faults;
        (
            m.total_faults(),
            m.contained_per_view,
            m.fallback_restarts,
            m.by_site().clone(),
            d.events().len(),
        )
    };
    for seed in seeds() {
        assert_eq!(fingerprint(seed), fingerprint(seed), "seed {seed}");
    }
}

/// The paper's GC must keep working under injected faults: a fallback
/// clears the coupling, so a later idle period has nothing to collect
/// and the device keeps running.
#[test]
fn gc_and_fallback_interleave_cleanly() {
    let policy = GcPolicy::paper_default();
    let mut d = Device::new(HandlingMode::rchdroid_with_policy(policy));
    let c = d
        .install_and_launch(Box::new(SimpleApp::with_views(3)), 40 << 20, 1.0)
        .unwrap();
    d.arm_faults(
        &c,
        FaultPlan::seeded(21).on_nth_probe(FaultSite::BundleCorruption, 1),
    )
    .unwrap();
    let _ = d.rotate(); // fallback: single stock instance remains
    d.advance(SimDuration::from_secs(70)); // GC interval passes harmlessly
    assert!(!d.is_crashed(&c));
    assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
    let _ = d.rotate(); // protocol restarts
    d.advance(SimDuration::from_secs(70)); // now a real shadow gets collected
    assert_eq!(d.process(&c).unwrap().thread().alive_instances().len(), 1);
}
