//! Crash-safety soak: a bounded fleet with injected panics and stalls.
//!
//! Runs 40 top-100 app simulations under the supervised fleet with a 5 %
//! `fleet-task` fault rate, a stall watchdog, two retries, and two apps
//! hard-broken on purpose (they panic on every attempt). The run must
//! finish — isolating every injected fault, retrying the transient ones,
//! and quarantining the hard-broken pair — and exit 0 with a non-empty
//! quarantine report. The journal and per-task crash dumps land under
//! `target/soak/` so CI can archive them.
//!
//! ```text
//! soak [--version]
//! ```
//!
//! It takes no other flag: the soak's size, faults, retries and journal
//! are fixed, and the worker count comes from `DROIDSIM_JOBS` (else
//! every core).
//!
//! Exit codes: 0 — survived with the expected quarantine; 1 — the soak
//! contract was violated (no quarantine, or collateral task loss); 2 —
//! a usage error, or an invalid `DROIDSIM_JOBS`.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_fleet::{run_fleet_supervised, FleetConfig, FleetOptions};
use rch_experiments::daemon_exec::{app_digest, measure_app};
use rch_workloads::top100_sample;

const TASKS: usize = 40;
const FAULT_RATE: f64 = 0.05;
const SOAK_SEED: u64 = 0x50AC;
/// Two tasks that panic on every attempt: the quarantine report is
/// guaranteed non-empty, which is what the soak asserts.
const HARD_FAIL: [usize; 2] = [7, 23];

fn main() {
    let cfg = rch_experiments::Args::cli(|_| {
        FleetConfig::try_from_env(None, SOAK_SEED).map_err(|e| e.to_string())
    });
    let dir = PathBuf::from("target/soak");
    fs::create_dir_all(&dir).expect("create target/soak");
    let journal = dir.join("soak.journal");
    let _ = fs::remove_file(&journal); // each soak starts fresh

    let mut opts = FleetOptions::new()
        .with_retries(2)
        .with_budget(Duration::from_millis(2_000))
        .with_faults(
            FaultPlan::seeded(SOAK_SEED)
                .with_rate(FaultSite::FleetTask, FAULT_RATE)
                // Force one transient stall (task 14's kind-draw lands on
                // "stall" under this seed) so every soak provably drives
                // the watchdog: the first attempt times out, the retry
                // recovers the task.
                .on_nth_probe(FaultSite::FleetTask, 15),
        )
        .with_hard_fail(HARD_FAIL.to_vec())
        .with_journal(&journal);
    // Injected stalls sleep far past the budget so the watchdog (not the
    // sleep ending) is what reclaims the worker.
    opts.stall_for = Duration::from_secs(5);

    let run = run_fleet_supervised(&cfg, &opts, top100_sample(TASKS), measure_app, app_digest)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });

    print!("{}", run.report.render());

    // Archive one crash dump per quarantined task for CI artifacts.
    for q in &run.report.quarantined {
        let dump = dir.join(format!("crash-{:03}.txt", q.index));
        fs::write(
            &dump,
            format!(
                "kind: {}\nattempts: {}\npayload: {}\n{}\n",
                q.kind,
                q.attempts,
                q.payload,
                q.repro_line()
            ),
        )
        .expect("write crash dump");
    }
    println!(
        "soak: {} task(s), {} quarantined, journal {} dumps in {}",
        TASKS,
        run.report.quarantined.len(),
        journal.display(),
        dir.display()
    );

    // The soak contract: the hard-broken pair is quarantined, nothing
    // else is lost, and every other task produced a result.
    let quarantined: Vec<usize> = run.report.quarantined.iter().map(|q| q.index).collect();
    if quarantined != HARD_FAIL.to_vec() {
        eprintln!(
            "soak FAILED: expected quarantine {:?}, got {:?} — an injected fault leaked \
             past its retries or a hard-broken task survived",
            HARD_FAIL, quarantined
        );
        std::process::exit(1);
    }
    let ok = run.outcomes.iter().filter(|o| o.is_ok()).count();
    if ok != TASKS - HARD_FAIL.len() {
        eprintln!(
            "soak FAILED: {ok} results, expected {}",
            TASKS - HARD_FAIL.len()
        );
        std::process::exit(1);
    }
    println!("soak OK: fleet survived injected panics and stalls");
}
