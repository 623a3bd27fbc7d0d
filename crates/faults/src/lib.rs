//! Deterministic fault injection for the supervised migration subsystem.
//!
//! RCHDroid's promise is that runtime-change handling never leaves an
//! activity in a worse state than stock Android's restart path. Testing
//! that promise needs failures on demand: a [`FaultPlan`] decides, at
//! named [`FaultSite`]s on the handling path, whether this particular
//! probe fails — either at a seeded per-site rate or forced at an exact
//! probe index.
//!
//! Determinism is the whole point: every site draws from its **own**
//! PRNG stream (derived from the plan seed with a SplitMix64 splitter),
//! so the verdicts at one site do not depend on how often other sites
//! were probed, and two holders of clones of the same plan that probe
//! *disjoint* site sets reproduce the exact same fault schedule as a
//! single holder would. Replaying a failing seed replays the faults.

use core::fmt;
use droidsim_kernel::{SplitMix64, Xoshiro256};

/// A named point on the change-handling path where a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The essence-based mapping fails to resolve a view's sunny peer
    /// even though one should exist (a stale or lost coupling entry).
    EssenceMappingMiss,
    /// The per-type Table-1 attribute copy of one view blows up.
    AttributeCopy,
    /// The saved-instance-state parcel is corrupted when the shadow
    /// bundle is snapshotted (restore must proceed without it).
    BundleCorruption,
    /// The app's async callback panics while running on the shadow
    /// instance.
    AsyncCallbackPanic,
    /// A migration flush overruns its virtual-time deadline budget.
    FlushDeadlineOverrun,
    /// Allocating the sunny instance fails under GC pressure.
    AllocationFailure,
    /// A whole fleet task (one device simulation) panics or stalls.
    /// Probed by the fleet driver per task *attempt*, never on the
    /// change-handling path — so it is not part of [`FaultSite::ALL`],
    /// which the fault matrix drives through a single device.
    FleetTask,
    /// The daemon's admission path drops a submission: the accept
    /// bookkeeping fails transiently before the job can be queued, so
    /// the client receives an explicit `Rejected` instead of an ack.
    /// Probed by `droidsimd` once per submission; like
    /// [`FaultSite::FleetTask`] it lives outside the change-handling
    /// path and is therefore not part of [`FaultSite::ALL`].
    Admission,
    /// A daemon-journal record write fails (`ENOSPC`, or a short write
    /// that tears the record mid-line). Probed by the daemon's I/O shim
    /// once per appended record; outside [`FaultSite::ALL`].
    JournalWrite,
    /// The `fsync` after a daemon-journal append fails: the bytes may
    /// or may not be durable, so the writer must treat the record as
    /// unjournaled. Probed once per append; outside [`FaultSite::ALL`].
    JournalSync,
    /// A server-side socket read breaks mid-request (peer reset or a
    /// stall the governor converts into a close). Probed by the
    /// connection handler before each read; outside [`FaultSite::ALL`].
    SocketRead,
    /// A server-side socket write breaks before the response line is
    /// flushed — the client sees EOF where an acknowledgment should
    /// be, the canonical lost-ack window idempotent submission covers.
    /// Probed before each response write; outside [`FaultSite::ALL`].
    SocketWrite,
}

impl FaultSite {
    /// Every change-handling-path site, in a fixed order (the fault
    /// matrix iterates this). [`FaultSite::FleetTask`] lives outside the
    /// handling path and is probed by the fleet driver instead.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::EssenceMappingMiss,
        FaultSite::AttributeCopy,
        FaultSite::BundleCorruption,
        FaultSite::AsyncCallbackPanic,
        FaultSite::FlushDeadlineOverrun,
        FaultSite::AllocationFailure,
    ];

    /// A stable, log-friendly name (keys metrics and logcat lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::EssenceMappingMiss => "essence-mapping-miss",
            FaultSite::AttributeCopy => "attribute-copy",
            FaultSite::BundleCorruption => "bundle-corruption",
            FaultSite::AsyncCallbackPanic => "async-callback-panic",
            FaultSite::FlushDeadlineOverrun => "flush-deadline-overrun",
            FaultSite::AllocationFailure => "allocation-failure",
            FaultSite::FleetTask => "fleet-task",
            FaultSite::Admission => "admission",
            FaultSite::JournalWrite => "journal-write",
            FaultSite::JournalSync => "journal-sync",
            FaultSite::SocketRead => "socket-read",
            FaultSite::SocketWrite => "socket-write",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::EssenceMappingMiss => 0,
            FaultSite::AttributeCopy => 1,
            FaultSite::BundleCorruption => 2,
            FaultSite::AsyncCallbackPanic => 3,
            FaultSite::FlushDeadlineOverrun => 4,
            FaultSite::AllocationFailure => 5,
            FaultSite::FleetTask => 6,
            FaultSite::Admission => 7,
            FaultSite::JournalWrite => 8,
            FaultSite::JournalSync => 9,
            FaultSite::SocketRead => 10,
            FaultSite::SocketWrite => 11,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// + FleetTask, Admission, and the four daemon-edge I/O sites, all
// outside ALL (they are probed by the fleet driver and the daemon's
// I/O shim, never on the change-handling path).
const SITES: usize = FaultSite::ALL.len() + 6;

/// The daemon-edge I/O sites the chaos shim probes, in a fixed order
/// (the `--io-fault-pct` flag arms exactly these).
pub const IO_SITES: [FaultSite; 4] = [
    FaultSite::JournalWrite,
    FaultSite::JournalSync,
    FaultSite::SocketRead,
    FaultSite::SocketWrite,
];

/// A seeded, deterministic schedule of injected faults.
///
/// Each site has an independent injection rate (probability per probe),
/// an optional set of *forced* probe indices (1-based: "fail the nth
/// time this site is asked"), and its own PRNG stream. The default plan
/// is [`FaultPlan::disarmed`] — it never injects and never draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    site_seeds: [u64; SITES],
    rngs: [Xoshiro256; SITES],
    rates: [f64; SITES],
    forced: [Vec<u64>; SITES],
    probes: [u64; SITES],
    injected: [u64; SITES],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disarmed()
    }
}

impl FaultPlan {
    /// A plan that never injects (the production configuration).
    pub fn disarmed() -> Self {
        FaultPlan::seeded(0)
    }

    /// A plan with per-site streams derived from `seed` and all rates at
    /// zero; arm sites with [`FaultPlan::with_rate`] /
    /// [`FaultPlan::on_nth_probe`].
    pub fn seeded(seed: u64) -> Self {
        let mut splitter = SplitMix64::new(seed);
        let site_seeds: [u64; SITES] = core::array::from_fn(|_| splitter.next_u64());
        FaultPlan {
            seed,
            site_seeds,
            rngs: core::array::from_fn(|i| Xoshiro256::seed_from(site_seeds[i])),
            rates: [0.0; SITES],
            forced: core::array::from_fn(|_| Vec::new()),
            probes: [0; SITES],
            injected: [0; SITES],
        }
    }

    /// The seed the per-site streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets one site's injection probability per probe (clamped to
    /// `[0, 1]`).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets every site's injection probability (clamped to `[0, 1]`).
    pub fn with_rate_everywhere(mut self, rate: f64) -> Self {
        for site in FaultSite::ALL {
            self.rates[site.index()] = rate.clamp(0.0, 1.0);
        }
        self
    }

    /// Forces an injection at the `nth` probe of `site` (1-based),
    /// regardless of the site's rate. Repeatable for several indices.
    pub fn on_nth_probe(mut self, site: FaultSite, nth: u64) -> Self {
        if nth > 0 {
            self.forced[site.index()].push(nth);
        }
        self
    }

    /// Whether any site can ever inject.
    pub fn is_armed(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0) || self.forced.iter().any(|f| !f.is_empty())
    }

    /// One probe: should the fault at `site` strike now?
    ///
    /// Counts the probe, consults the forced indices, then (only for a
    /// non-zero rate) draws from the site's own stream — so rate-zero
    /// sites cost nothing and never perturb other sites' verdicts.
    pub fn should_inject(&mut self, site: FaultSite) -> bool {
        let i = site.index();
        self.probes[i] += 1;
        let hit = if self.forced[i].contains(&self.probes[i]) {
            true
        } else if self.rates[i] > 0.0 {
            self.rngs[i].next_f64() < self.rates[i]
        } else {
            false
        };
        if hit {
            self.injected[i] += 1;
        }
        hit
    }

    /// The injection probability currently configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// The forced probe indices (1-based) configured for `site`.
    pub fn forced_probes(&self, site: FaultSite) -> &[u64] {
        &self.forced[site.index()]
    }

    /// A *stateless* per-`(site, lane)` stream for probes whose verdicts
    /// must not depend on probe order — e.g. the fleet driver probing
    /// [`FaultSite::FleetTask`] from many worker threads at once. Two
    /// calls with the same plan seed, site and lane return identical
    /// streams no matter what else was probed in between; distinct lanes
    /// (one per fleet task index) never share a stream.
    pub fn site_stream(&self, site: FaultSite, lane: u64) -> Xoshiro256 {
        Xoshiro256::stream(self.site_seeds[site.index()], lane)
    }

    /// Probes recorded at `site` so far.
    pub fn probes(&self, site: FaultSite) -> u64 {
        self.probes[site.index()]
    }

    /// Injections recorded at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_injects() {
        let mut plan = FaultPlan::disarmed();
        assert!(!plan.is_armed());
        for _ in 0..1000 {
            for site in FaultSite::ALL {
                assert!(!plan.should_inject(site));
            }
        }
        assert!(FaultSite::ALL.iter().all(|&site| plan.injected(site) == 0));
        assert_eq!(plan.probes(FaultSite::AttributeCopy), 1000);
    }

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let schedule = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(seed).with_rate_everywhere(0.3);
            (0..200)
                .map(|i| plan.should_inject(FaultSite::ALL[i % FaultSite::ALL.len()]))
                .collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43), "different seeds diverge");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Probing extra sites in between must not change another site's
        // verdict sequence.
        let isolated = |noise: bool| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(7).with_rate_everywhere(0.5);
            (0..100)
                .map(|_| {
                    if noise {
                        plan.should_inject(FaultSite::BundleCorruption);
                        plan.should_inject(FaultSite::AllocationFailure);
                    }
                    plan.should_inject(FaultSite::AttributeCopy)
                })
                .collect()
        };
        assert_eq!(isolated(false), isolated(true));
    }

    #[test]
    fn rate_controls_the_injection_fraction() {
        let mut plan = FaultPlan::seeded(1).with_rate(FaultSite::AttributeCopy, 0.2);
        let hits = (0..10_000)
            .filter(|_| plan.should_inject(FaultSite::AttributeCopy))
            .count();
        let fraction = hits as f64 / 10_000.0;
        assert!((fraction - 0.2).abs() < 0.02, "got {fraction}");
        assert_eq!(plan.injected(FaultSite::AttributeCopy), hits as u64);
    }

    #[test]
    fn forced_nth_probe_fires_exactly_there() {
        let mut plan = FaultPlan::seeded(9)
            .on_nth_probe(FaultSite::BundleCorruption, 3)
            .on_nth_probe(FaultSite::BundleCorruption, 5);
        let verdicts: Vec<bool> = (0..6)
            .map(|_| plan.should_inject(FaultSite::BundleCorruption))
            .collect();
        assert_eq!(verdicts, [false, false, true, false, true, false]);
        assert!(plan.is_armed());
    }

    #[test]
    fn rates_clamp_to_unit_interval() {
        let mut plan = FaultPlan::seeded(2).with_rate(FaultSite::AsyncCallbackPanic, 7.5);
        assert!(plan.should_inject(FaultSite::AsyncCallbackPanic));
        let mut never = FaultPlan::seeded(2).with_rate(FaultSite::AsyncCallbackPanic, -1.0);
        assert!(!never.should_inject(FaultSite::AsyncCallbackPanic));
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for site in FaultSite::ALL
            .into_iter()
            .chain([FaultSite::FleetTask, FaultSite::Admission])
            .chain(IO_SITES)
        {
            assert!(seen.insert(site.name()));
            assert_eq!(site.to_string(), site.name());
        }
        assert_eq!(seen.len(), 12);
        assert!(!FaultSite::ALL.contains(&FaultSite::FleetTask));
        assert!(!FaultSite::ALL.contains(&FaultSite::Admission));
        for site in IO_SITES {
            assert!(!FaultSite::ALL.contains(&site), "{site} is daemon-edge");
        }
    }

    #[test]
    fn io_sites_draw_independent_streams_and_stay_disarmed_by_default() {
        // Arming the I/O sites must not perturb the handling-path
        // schedules (seeded CI runs stay stable), and
        // with_rate_everywhere must leave them disarmed — the daemon
        // arms them explicitly via --io-fault-pct.
        let schedule = |arm_io: bool| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(21).with_rate_everywhere(0.3);
            if arm_io {
                for site in IO_SITES {
                    plan = plan.with_rate(site, 1.0);
                }
            }
            (0..60)
                .map(|i| plan.should_inject(FaultSite::ALL[i % FaultSite::ALL.len()]))
                .collect()
        };
        assert_eq!(schedule(false), schedule(true));
        let mut blanket = FaultPlan::seeded(21).with_rate_everywhere(1.0);
        for site in IO_SITES {
            assert!(!blanket.should_inject(site), "{site} must stay disarmed");
        }
        // And each I/O site injects independently when armed.
        let mut armed = FaultPlan::seeded(21);
        for site in IO_SITES {
            armed = armed.with_rate(site, 0.5);
        }
        for site in IO_SITES {
            let hits = (0..200).filter(|_| armed.should_inject(site)).count();
            assert!(hits > 50 && hits < 150, "{site}: {hits}/200");
        }
    }

    #[test]
    fn admission_site_draws_its_own_stream() {
        // The admission site must be probeable at a rate without
        // perturbing the handling-path sites (same seed, noise on and
        // off), and with_rate_everywhere must leave it disarmed — the
        // daemon arms it explicitly.
        let schedule = |noise: bool| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(3).with_rate(FaultSite::Admission, 0.4);
            (0..100)
                .map(|_| {
                    if noise {
                        plan.should_inject(FaultSite::AttributeCopy);
                    }
                    plan.should_inject(FaultSite::Admission)
                })
                .collect()
        };
        assert_eq!(schedule(false), schedule(true));
        assert!(schedule(false).iter().any(|&v| v));
        let mut blanket = FaultPlan::seeded(3).with_rate_everywhere(1.0);
        assert!(!blanket.should_inject(FaultSite::Admission));
    }

    #[test]
    fn site_streams_are_order_independent_and_lane_disjoint() {
        let plan = FaultPlan::seeded(11).with_rate(FaultSite::FleetTask, 0.5);
        // Probing other sites (stateful API) must not perturb the
        // stateless per-lane streams.
        let mut noisy = plan.clone();
        for _ in 0..50 {
            noisy.should_inject(FaultSite::AttributeCopy);
        }
        for lane in 0..8 {
            assert_eq!(
                plan.site_stream(FaultSite::FleetTask, lane).next_u64(),
                noisy.site_stream(FaultSite::FleetTask, lane).next_u64(),
                "lane {lane}"
            );
        }
        let firsts: std::collections::BTreeSet<u64> = (0..64)
            .map(|lane| plan.site_stream(FaultSite::FleetTask, lane).next_u64())
            .collect();
        assert_eq!(firsts.len(), 64, "lanes must not collide");
        assert_eq!(plan.rate(FaultSite::FleetTask), 0.5);
        assert!(plan.forced_probes(FaultSite::FleetTask).is_empty());
    }

    #[test]
    fn fleet_task_site_does_not_disturb_handling_site_schedules() {
        // The 7th per-site seed is drawn after the six handling sites',
        // so pre-existing fault schedules (seeded runs in CI) are
        // unchanged by the FleetTask addition.
        let schedule = |arm_fleet: bool| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(42).with_rate_everywhere(0.3);
            assert_eq!(plan.rate(FaultSite::FleetTask), 0.0, "ALL excludes it");
            if arm_fleet {
                plan = plan.with_rate(FaultSite::FleetTask, 1.0);
            }
            (0..60)
                .map(|i| plan.should_inject(FaultSite::ALL[i % FaultSite::ALL.len()]))
                .collect()
        };
        assert_eq!(schedule(false), schedule(true));
    }
}
