//! `study_fleet`: what a researcher runs (table5 / fig10 / soak).
//!
//! Closed batches through `run_fleet_supervised` at jobs=1. Each batch is
//! 64 fresh top-100-calibrated apps × {Android 10, RCHDroid default}, and
//! each task is the 4-change `run_app` scenario. One op is one app run.
//! No app repeats, so the memo caches see a working set larger than
//! their capacity: the miss-heavy workload.

use super::{is_check_step, Workload, CHECK_JOBS, JOBS};
use crate::meter::Meter;
use crate::replica::{outcome_digest, run_app_traced};
use crate::{gen, trace};
use droidsim_device::HandlingMode;
use droidsim_fleet::{run_fleet_supervised, FleetConfig, FleetOptions};
use rch_experiments::{run_app, RunConfig};
use rch_workloads::GenericAppSpec;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batch index of the first untimed warm-up batch (counting down, disjoint
/// from measured ones).
const WARMUP_BATCH: u64 = u64::MAX;

/// The workload's state between timed calls.
pub struct Study {
    seed: u64,
    next_batch: u64,
}

type Task = (GenericAppSpec, HandlingMode);

fn tasks(seed: u64, batch: u64) -> Vec<Task> {
    gen::study_batch(seed, batch)
        .into_iter()
        .flat_map(|spec| {
            [
                (spec.clone(), HandlingMode::Android10),
                (spec, HandlingMode::rchdroid_default()),
            ]
        })
        .collect()
}

/// Runs one batch under fleet supervision. Returns the per-task digests
/// (`None` when any task was quarantined) and the app-run latencies in
/// ms. With tracing on, each task runs the traced `run_app` replica as a
/// `fleet.task` span under `call`.
fn run_batch(
    tasks: Vec<Task>,
    jobs: usize,
    seed: u64,
    call: (u64, u64),
) -> (Option<Vec<u64>>, Vec<f64>) {
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(tasks.len())));
    let sink = Arc::clone(&latencies);
    let run = run_fleet_supervised(
        &FleetConfig::new(jobs, seed),
        &FleetOptions::new(),
        tasks,
        move |_ctx, (spec, mode): Task| {
            let task = trace::open_under(call.0, call.1);
            let cfg = RunConfig::new(mode);
            let started = Instant::now();
            let outcome = if trace::enabled() {
                run_app_traced(&spec, &cfg)
            } else {
                run_app(&spec, &cfg)
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            task.close("fleet.task", 0);
            trace::flush();
            sink.lock().expect("latency sink").push(ms);
            outcome_digest(&outcome)
        },
        |d: &u64| *d,
    );
    let digests = run.ok().and_then(|r| r.digests.into_iter().collect());
    let latencies = std::mem::take(&mut *latencies.lock().expect("latency sink"));
    (digests, latencies)
}

impl Workload for Study {
    fn setup(seed: u64, rep: u64) -> Result<Study, String> {
        let warmup = tasks(seed, WARMUP_BATCH - rep);
        let (timed, _) = run_batch(warmup.clone(), JOBS, seed, (0, 0));
        let (check, _) = run_batch(warmup, CHECK_JOBS, seed, (0, 0));
        if timed.is_none() || timed != check {
            return Err("study_fleet warm-up: jobs=1 digests differ from jobs=2".to_owned());
        }
        Ok(Study {
            seed,
            next_batch: 0,
        })
    }

    fn step(&mut self, meter: &mut Meter) {
        let batch = self.next_batch;
        self.next_batch += 1;
        let tasks = tasks(self.seed, batch);
        let n = tasks.len() as u64;
        let ((digests, latencies), _) = meter.time(|| {
            let call = trace::open_under(0, batch + 1);
            let out = run_batch(tasks.clone(), JOBS, self.seed, (call.id(), batch + 1));
            call.close("fleet.call", n);
            out
        });
        trace::flush();
        let mut ok = digests.is_some();
        if ok && is_check_step(batch) {
            // The jobs=2 re-run takes the library `run_app` path, so in a
            // traced step it also checks replica ≡ library.
            let (check, _) = trace::paused(|| run_batch(tasks, CHECK_JOBS, self.seed, (0, 0)));
            ok = check == digests;
        }
        meter.ops(n, if ok { 0 } else { n });
        meter.latencies(latencies);
    }
}
