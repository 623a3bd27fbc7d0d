//! Seeded input generation.
//!
//! Every input the benchmark feeds the system is built here from public
//! constructors only (`GenericAppSpec::sized` on seed-derived names,
//! `DataLossScenario`/`DataLossField`), drawing from the kernel's
//! `Xoshiro256` streams. The same `(seed, index)` always yields the same
//! inputs; the program under test never sees anything but the generated
//! specs.

use droidsim_kernel::Xoshiro256;
use rch_workloads::{
    DataLossClass, DataLossField, DataLossScenario, FieldPersistence, GenericAppSpec, StateItem,
    StateMechanism,
};

/// Apps per `study_fleet` batch (each runs under both handling modes).
const STUDY_APPS: usize = 64;
/// Apps per `lint_corpus` project.
const LINT_APPS: usize = 64;
/// Data-loss apps per lint project (50 %).
const LINT_DATALOSS: usize = 32;
/// Top-100-style apps per lint project (30 %); the rest are TP-27-style.
const LINT_TOP100: usize = 19;
/// Smallest `rotation_storm` view count.
const STORM_MIN_VIEWS: usize = 64;
/// Largest `rotation_storm` view count.
const STORM_MAX_VIEWS: usize = 2048;

/// Distinct stream roots per workload, so two workloads at one seed share
/// no inputs.
const STUDY_LANE: u64 = 0x5717_D1E5;
const STORM_LANE: u64 = 0x0057_0A11;
const LINT_LANE: u64 = 0x0011_17C0;

fn stream(lane: u64, seed: u64, index: u64) -> Xoshiro256 {
    Xoshiro256::stream(lane ^ seed.rotate_left(17), index)
}

fn pick<T: Copy>(rng: &mut Xoshiro256, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

const PROBLEMS: [(&str, &str); 5] = [
    ("State loss (text box)", "alice@example.com"),
    ("State loss (scroll location)", "scrolled to 1840 px"),
    ("State loss (selection list)", "item #3 selected"),
    ("State loss (login page)", "alice@example.com"),
    ("State loss (zoom bar)", "level 7"),
];

/// A top-100-calibrated app (80–250 views) in Table 5's mix: 63 % with a
/// documented issue (4 of 63 in unsaved members, 5 of 63 in code-created
/// views, the rest in non-saving custom views), 26 % self-handling and
/// 11 % restart-safe.
fn top100_style(name: &str, rng: &mut Xoshiro256) -> GenericAppSpec {
    let spec = GenericAppSpec::sized(name, "10M+", true);
    let roll = rng.next_below(100);
    if roll < 63 {
        let mechanism = match rng.next_below(63) {
            0..=3 => StateMechanism::MemberUnsaved,
            4..=8 => StateMechanism::DynamicViewNoSave,
            _ => StateMechanism::CustomViewNoSave,
        };
        let (problem, value) = pick(rng, &PROBLEMS);
        spec.with_issue(problem, StateItem::new("issue_state", mechanism, value))
    } else if roll < 89 {
        spec.self_handling()
    } else {
        let mut spec = spec.saving_state();
        spec.state_items.push(StateItem::new(
            "safe_state",
            StateMechanism::FrameworkView,
            "safe value",
        ));
        spec
    }
}

/// A TP-27-calibrated app (12–56 views): every app has an issue, 2 of 27
/// unfixable member fields, 3 of 27 code-created views, 4 of 27 with an
/// async task in flight.
fn tp27_style(name: &str, rng: &mut Xoshiro256) -> GenericAppSpec {
    let mechanism = match rng.next_below(27) {
        0..=1 => StateMechanism::MemberUnsaved,
        2..=4 => StateMechanism::DynamicViewNoSave,
        _ => StateMechanism::CustomViewNoSave,
    };
    let spec = GenericAppSpec::sized(name, "1M+", false).with_issue(
        "State is lost after restart",
        StateItem::new("issue_state", mechanism, "user-set value"),
    );
    if rng.next_below(27) < 4 {
        spec.with_async_task()
    } else {
        spec
    }
}

/// Field keys, disjoint from the generic layout's fixed id names.
const FIELD_KEYS: [&str; 3] = ["alpha_field", "beta_field", "gamma_field"];

/// A labelled data-loss app of `class`: small layout, one to three
/// fields with owners and persistence drawn from the class, a sixth of
/// the rotation-based apps self-handling, and the issue label set from
/// `hazardous()`.
fn dataloss_style(name: &str, class: DataLossClass, rng: &mut Xoshiro256) -> GenericAppSpec {
    let mut spec = GenericAppSpec::sized(name, "10K+", false);
    spec.view_count = rng.next_range(6, 20) as usize;
    let fields = match class {
        DataLossClass::AsyncRace => rng.next_range(1, 2),
        _ => rng.next_range(1, 3),
    } as usize;
    let fields = FIELD_KEYS[..fields]
        .iter()
        .map(|key| {
            let owner = pick(rng, class.owners());
            let persistence = pick(rng, class.persistences());
            DataLossField::new(key, owner, persistence)
        })
        .collect();
    let scenario = DataLossScenario::new(class, fields);
    if class.is_rotation_based() {
        spec.handles_changes = rng.next_below(6) == 0;
    }
    spec.saves_instance_state = scenario
        .fields
        .iter()
        .any(|f| f.persistence == FieldPersistence::BundleSaved);
    if scenario.hazardous(spec.handles_changes) {
        spec.issue = Some(format!("data-loss/{}", class.label()));
    }
    spec.dataloss = Some(scenario);
    spec
}

/// `study_fleet` batch `batch`: 64 fresh top-100-style apps.
pub fn study_batch(seed: u64, batch: u64) -> Vec<GenericAppSpec> {
    let mut rng = stream(STUDY_LANE, seed, batch);
    (0..STUDY_APPS)
        .map(|i| top100_style(&format!("Fleet{seed:x}B{batch}A{i}"), &mut rng))
        .collect()
}

/// One `rotation_storm` device: its app and whether it runs stock
/// Android 10 (else RCHDroid).
#[derive(Debug, Clone, PartialEq)]
pub struct StormDevice {
    /// The single installed app.
    pub spec: GenericAppSpec,
    /// Stock Android 10 instead of RCHDroid.
    pub stock: bool,
}

/// `rotation_storm` devices are stratified in aligned blocks of this many:
/// within a block, the stock devices and the RCHDroid devices each cover
/// the view-count range evenly, so every block costs about the same.
pub const STORM_BLOCK: u64 = 32;

/// The view count at quantile `q` of the storm's log-uniform range.
fn storm_views_at(q: f64) -> usize {
    let octaves = (STORM_MAX_VIEWS as f64 / STORM_MIN_VIEWS as f64).log2();
    let views = STORM_MIN_VIEWS as f64 * 2f64.powf(q * octaves);
    (views.round() as usize).clamp(STORM_MIN_VIEWS, STORM_MAX_VIEWS)
}

/// `rotation_storm` devices `first..first + count`: one app each, view
/// count log-uniform in [64, 2048] (stratified per [`STORM_BLOCK`]),
/// one device in four on stock
/// Android 10. Every app holds one piece of lossy state; nine in ten
/// keep it where RCHDroid can migrate it.
pub fn storm_devices(seed: u64, first: u64, count: usize) -> Vec<StormDevice> {
    (first..first + count as u64)
        .map(|index| {
            let (block, pos) = (index / STORM_BLOCK, index % STORM_BLOCK);
            let stock = pos % 4 == 0;
            // Rank among the block's devices of the same mode, and that
            // group's size; a seeded permutation maps rank to stratum.
            let (rank, group) = if stock {
                (pos / 4, STORM_BLOCK / 4)
            } else {
                (pos - pos / 4 - 1, STORM_BLOCK - STORM_BLOCK / 4)
            };
            let mut strata: Vec<u64> = (0..group).collect();
            stream(STORM_LANE ^ u64::from(stock), seed, block).shuffle(&mut strata);
            let mut rng = stream(STORM_LANE, seed, index);
            let q = (strata[rank as usize] as f64 + rng.next_f64()) / group as f64;
            let mut spec = GenericAppSpec::sized(&format!("Storm{seed:x}D{index}"), "1M+", true);
            spec.view_count = storm_views_at(q);
            let mechanism = match rng.next_below(10) {
                0 => StateMechanism::MemberUnsaved,
                1 => StateMechanism::DynamicViewNoSave,
                _ => StateMechanism::CustomViewNoSave,
            };
            let spec = spec.with_issue(
                "State loss (text box)",
                StateItem::new("issue_state", mechanism, "typed before the storm"),
            );
            StormDevice { spec, stock }
        })
        .collect()
}

/// Warm-up devices for set-up repetition `rep`: fresh devices (disjoint
/// from every measured index) whose view counts sit at evenly spaced
/// quantiles of the storm's range, so each set-up does the same amount
/// of work whatever the seed.
pub fn storm_warmup(seed: u64, rep: u64, count: usize) -> Vec<StormDevice> {
    let first = u64::MAX / 2 + rep * count as u64;
    let mut devices = storm_devices(seed, first, count);
    for (i, d) in devices.iter_mut().enumerate() {
        d.spec.view_count = storm_views_at((i as f64 + 0.5) / count as f64);
    }
    devices
}

/// `lint_corpus` project `call`: 64 apps, of which 32 are data-loss apps
/// cycling through all five classes, 19 top-100-style and 13 TP-27-style.
pub fn lint_project(seed: u64, call: u64) -> Vec<GenericAppSpec> {
    let mut rng = stream(LINT_LANE, seed, call);
    (0..LINT_APPS)
        .map(|i| {
            let name = format!("Lint{seed:x}P{call}A{i}");
            if i < LINT_DATALOSS {
                let class = DataLossClass::ALL[i % DataLossClass::ALL.len()];
                dataloss_style(&format!("Dl{}{name}", class.tag()), class, &mut rng)
            } else if i < LINT_DATALOSS + LINT_TOP100 {
                top100_style(&name, &mut rng)
            } else {
                tp27_style(&name, &mut rng)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_fleet::Digest;

    fn spec_digest(spec: &GenericAppSpec) -> u64 {
        let mut d = Digest::new();
        d.write_str(&format!("{spec:?}"));
        d.finish()
    }

    fn digests(specs: &[GenericAppSpec]) -> Vec<u64> {
        specs.iter().map(spec_digest).collect()
    }

    fn storm_specs(seed: u64) -> Vec<GenericAppSpec> {
        storm_devices(seed, 0, 64)
            .into_iter()
            .map(|d| d.spec)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_specs() {
        assert_eq!(digests(&study_batch(1, 3)), digests(&study_batch(1, 3)));
        assert_eq!(digests(&lint_project(1, 3)), digests(&lint_project(1, 3)));
        assert_eq!(digests(&storm_specs(1)), digests(&storm_specs(1)));
    }

    #[test]
    fn different_seeds_and_batches_differ() {
        assert_ne!(digests(&study_batch(1, 0)), digests(&study_batch(2, 0)));
        assert_ne!(digests(&study_batch(1, 0)), digests(&study_batch(1, 1)));
        assert_ne!(digests(&lint_project(1, 0)), digests(&lint_project(2, 0)));
        assert_ne!(digests(&storm_specs(1)), digests(&storm_specs(2)));
    }

    #[test]
    fn names_are_fresh_within_and_across_batches() {
        let mut names: Vec<String> = (0..4)
            .flat_map(|b| study_batch(7, b))
            .map(|s| s.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn view_count_ranges_hold() {
        for spec in study_batch(1, 0) {
            assert!((80..=250).contains(&spec.view_count), "{}", spec.name);
        }
        let views: Vec<usize> = storm_devices(1, 0, 2000)
            .iter()
            .map(|d| d.spec.view_count)
            .collect();
        assert!(views
            .iter()
            .all(|v| (STORM_MIN_VIEWS..=STORM_MAX_VIEWS).contains(v)));
        // Log-uniform: each of the five octaves holds about a fifth.
        let small = views.iter().filter(|&&v| v < 128).count();
        let large = views.iter().filter(|&&v| v >= 1024).count();
        assert!((300..500).contains(&small), "{small} below 128 views");
        assert!((300..500).contains(&large), "{large} at 1024+ views");
    }

    #[test]
    fn storm_blocks_carry_the_same_tree_sizes() {
        let totals: Vec<usize> = (0..6)
            .map(|b| {
                storm_devices(4, b * STORM_BLOCK, STORM_BLOCK as usize)
                    .iter()
                    .filter(|d| !d.stock)
                    .map(|d| d.spec.view_count)
                    .sum()
            })
            .collect();
        let (lo, hi) = (totals.iter().min(), totals.iter().max());
        let (lo, hi) = (*lo.expect("blocks") as f64, *hi.expect("blocks") as f64);
        assert!(hi / lo < 1.05, "{totals:?}");
    }

    #[test]
    fn storm_mode_mix_is_three_to_one() {
        let devices = storm_devices(3, 0, 400);
        let stock = devices.iter().filter(|d| d.stock).count();
        assert_eq!(stock * 4, devices.len());
    }

    #[test]
    fn study_mix_follows_table5() {
        let specs: Vec<GenericAppSpec> = (0..16).flat_map(|b| study_batch(5, b)).collect();
        let share = |n: usize| n as f64 / specs.len() as f64;
        let issue = specs.iter().filter(|s| s.has_issue()).count();
        let self_handling = specs.iter().filter(|s| s.handles_changes).count();
        assert!((0.57..0.69).contains(&share(issue)), "{issue}");
        assert!(
            (0.20..0.32).contains(&share(self_handling)),
            "{self_handling}"
        );
    }

    #[test]
    fn lint_project_mixes_all_five_classes() {
        let project = lint_project(1, 0);
        assert_eq!(project.len(), LINT_APPS);
        let dataloss: Vec<&GenericAppSpec> =
            project.iter().filter(|s| s.dataloss.is_some()).collect();
        assert_eq!(dataloss.len(), LINT_DATALOSS);
        for class in DataLossClass::ALL {
            let n = dataloss
                .iter()
                .filter(|s| s.dataloss.as_ref().is_some_and(|d| d.class == class))
                .count();
            assert!(n >= 6, "{class:?}: {n}");
        }
        for spec in dataloss {
            let dl = spec.dataloss.as_ref().expect("filtered");
            assert_eq!(spec.has_issue(), dl.hazardous(spec.handles_changes));
        }
        let large = project
            .iter()
            .filter(|s| s.dataloss.is_none() && s.view_count >= 80)
            .count();
        assert_eq!(large, LINT_TOP100);
    }
}
