//! `rotation_storm`: the paper's mechanism on real code.
//!
//! One long task per device through `run_fleet_reduce` at jobs=1. Each
//! device runs one generated app (64–2048 views, log-uniform) through
//! 128 rotations with 2 s pauses, which keep flips above THRESH_F, and a
//! 70 s idle after every 32nd change, which crosses THRESH_T so the GC
//! collects the shadow and the next change re-inits. RCHDroid devices
//! start the 5 s async task before every 8th change; stock devices never
//! do, because there it is the crash bug. One op is one `Device::rotate`.
//!
//! One device in four runs stock Android 10, so the same device and
//! view layers also run the other way (inflate + bundle instead of
//! mapping + flip): a gain on one path that costs the other shows.

use super::{is_check_step, Workload, CHECK_JOBS, JOBS};
use crate::gen::{self, StormDevice};
use crate::meter::Meter;
use crate::replica::rotate_span;
use crate::trace::{self, span};
use droidsim_device::{Device, DeviceEvent, HandlingMode};
use droidsim_fleet::{run_fleet_reduce, Digest, FleetConfig};
use droidsim_kernel::SimDuration;
use std::sync::Mutex;
use std::time::Instant;

/// Devices per timed `run_fleet_reduce` call: one stratification block,
/// so every call carries the same spread of tree sizes.
const DEVICES_PER_CALL: usize = gen::STORM_BLOCK as usize;
/// Rotations per device.
const CHANGES: usize = 128;
/// A 70 s idle follows every this many changes.
const IDLE_EVERY: usize = 32;
/// RCHDroid devices start an async task before every this many changes.
const ASYNC_EVERY: usize = 8;
/// Devices in the warm-up call.
const WARMUP_DEVICES: usize = 16;

/// The workload's state between timed calls.
pub struct Storm {
    seed: u64,
    next_device: u64,
}

/// What the devices of one call report besides their digests.
#[derive(Default)]
struct Sink {
    latency_ms: Vec<f64>,
    failed_ops: u64,
    counters: Vec<(&'static str, f64)>,
}

/// Runs one device's storm; returns its digest.
fn run_device(dev: &StormDevice, sink: &Mutex<Sink>, call: (u64, u64)) -> u64 {
    let task = trace::open_under(call.0, call.1);
    let views = dev.spec.view_count as u64;
    let mode = if dev.stock {
        HandlingMode::Android10
    } else {
        HandlingMode::rchdroid_default()
    };
    let probe = span("app.build", || dev.spec.build());
    let model = span("app.build", || dev.spec.build());
    let launched = span("device.launch", || {
        let mut device = Device::new(mode);
        device
            .install_and_launch(
                Box::new(model),
                dev.spec.base_memory_bytes,
                dev.spec.complexity,
            )
            .map(|component| (device, component))
    });
    let Ok((mut device, component)) = launched else {
        task.close("fleet.task", views);
        trace::flush();
        sink.lock().expect("storm sink").failed_ops += CHANGES as u64;
        return 0;
    };
    span("device.advance.short", || {
        device.advance(SimDuration::from_secs(1));
    });
    let mut ok = span("device.state", || {
        device.with_foreground_activity_mut(|a| probe.apply_user_state(a))
    })
    .is_ok();

    let mut digest = Digest::new();
    let mut latency_ms = Vec::with_capacity(CHANGES);
    for change in 0..CHANGES {
        if !dev.stock && change % ASYNC_EVERY == 0 {
            ok &= span("device.state", || {
                device.start_async_on_foreground(dev.spec.async_task())
            })
            .is_ok();
        }
        let rotate = trace::open();
        let started = Instant::now();
        let report = device.rotate();
        latency_ms.push(started.elapsed().as_secs_f64() * 1e3);
        match report {
            Ok(r) => {
                rotate.close(rotate_span(r.path), views);
                digest.write_str(rotate_span(r.path));
                digest.write_u64(r.latency.as_micros());
            }
            Err(_) => {
                rotate.close("device.rotate.failed", views);
                ok = false;
            }
        }
        if (change + 1) % IDLE_EVERY == 0 {
            span("device.advance.idle", || {
                device.advance(SimDuration::from_secs(70));
            });
        } else {
            span("device.advance.short", || {
                device.advance(SimDuration::from_secs(2));
            });
        }
    }

    let (crashed, survived, metrics, gc_passes, delivered) = span("device.state", || {
        let crashed = device.is_crashed(&component);
        let survived = device
            .with_foreground_activity_mut(|a| probe.all_state_survived(a))
            .unwrap_or(false);
        let metrics = device.device_metrics(&component).ok();
        let (mut gc, mut delivered) = (0u64, 0u64);
        for e in device.events() {
            match e {
                DeviceEvent::GcPass { .. } => gc += 1,
                DeviceEvent::AsyncDelivered { .. } => delivered += 1,
                _ => {}
            }
        }
        (crashed, survived, metrics, gc, delivered)
    });
    // Stock devices lose the state by design; an RCHDroid device must
    // keep every item it can migrate.
    ok &= !crashed && (dev.stock || !dev.spec.fixed_by_rchdroid() || survived);
    digest.write_u64(u64::from(crashed));
    digest.write_u64(u64::from(survived));
    digest.write_u64(gc_passes);
    digest.write_u64(delivered);
    let migration = metrics.map(|m| m.migration).unwrap_or_default();
    digest.write_u64(migration.flushes);
    digest.write_u64(migration.raw_invalidations);
    digest.write_u64(migration.coalesced_entries);
    span("device.drop", move || drop((device, probe)));

    task.close("fleet.task", views);
    trace::flush();
    let mut s = sink.lock().expect("storm sink");
    s.latency_ms.extend(latency_ms);
    if !ok {
        s.failed_ops += CHANGES as u64;
    }
    s.counters.extend([
        ("device.gc_passes", gc_passes as f64),
        ("device.async_delivered", delivered as f64),
        ("migration.flushes", migration.flushes as f64),
        (
            "migration.raw_invalidations",
            migration.raw_invalidations as f64,
        ),
        (
            "migration.coalesced_entries",
            migration.coalesced_entries as f64,
        ),
    ]);
    digest.finish()
}

/// One `run_fleet_reduce` call over `devices`; returns the reduced
/// digest and what the devices reported.
fn run_call(devices: &[StormDevice], jobs: usize, seed: u64, call: (u64, u64)) -> (u64, Sink) {
    let sink = Mutex::new(Sink::default());
    let digest = run_fleet_reduce(&FleetConfig::new(jobs, seed), devices, |_ctx, dev| {
        run_device(dev, &sink, call)
    });
    (digest, sink.into_inner().expect("storm sink"))
}

/// The [`CHECK_JOBS`] re-run of a call.
fn check_call(devices: &[StormDevice], seed: u64) -> u64 {
    trace::paused(|| run_call(devices, CHECK_JOBS, seed, (0, 0)).0)
}

impl Workload for Storm {
    fn setup(seed: u64, rep: u64) -> Result<Storm, String> {
        let warmup = gen::storm_warmup(seed, rep, WARMUP_DEVICES);
        let (timed, sink) = run_call(&warmup, JOBS, seed, (0, 0));
        if sink.failed_ops > 0 || timed != check_call(&warmup, seed) {
            return Err("rotation_storm warm-up: failed checks or jobs=1 ≠ jobs=2".to_owned());
        }
        Ok(Storm {
            seed,
            next_device: 0,
        })
    }

    fn step(&mut self, meter: &mut Meter) {
        let call_index = self.next_device / DEVICES_PER_CALL as u64;
        let devices = gen::storm_devices(self.seed, self.next_device, DEVICES_PER_CALL);
        self.next_device += DEVICES_PER_CALL as u64;
        let ((digest, sink), _) = meter.time(|| {
            let call = trace::open_under(0, call_index + 1);
            let out = run_call(&devices, JOBS, self.seed, (call.id(), call_index + 1));
            call.close("fleet.call", devices.len() as u64);
            out
        });
        trace::flush();
        let ops = (devices.len() * CHANGES) as u64;
        let mut failed = sink.failed_ops;
        if is_check_step(call_index) && check_call(&devices, self.seed) != digest {
            failed = ops;
        }
        meter.ops(ops, failed);
        meter.latencies(sink.latency_ms);
        for (name, v) in sink.counters {
            meter.count(name, v);
        }
    }
}
