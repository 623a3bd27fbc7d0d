//! Allocation budgets of the steady-state handling paths.
//!
//! A counting global allocator tallies this thread's fresh allocations
//! around one handling step, so each test pins exactly what the step
//! allocates:
//!
//! - an RCHDroid coin flip allocates its shadow snapshot and nothing
//!   else (§3.4: a flip moves a task record and swaps two instances'
//!   states);
//! - a stock relaunch from the inflation cache allocates its saved
//!   bundle and the fresh instance built from the kept tree, but copies
//!   no configuration and no component name;
//! - an `advance` whose GC ticks find a shadow to keep allocates nothing.
//!
//! Every count must be the same at 64 and at 2,048 views. A `realloc`
//! is not counted: an amortized `Vec` growth (the device's event log)
//! lands on a different step at different tree sizes, while a fresh
//! allocation is a site the step itself pays each time. A failure
//! names the path and the counts; bisect the path with
//! [`fresh_allocations`] around its parts to find the site that grew.
//!
//! This is the workspace's only `unsafe` code: the allocator delegates
//! every call to [`System`] and bumps a thread-local counter.
#![allow(unsafe_code)]

use droidsim_device::{Device, HandlingMode, HandlingPath};
use droidsim_kernel::SimDuration;
use rch_workloads::{GenericApp, GenericAppSpec, StateItem, StateMechanism};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's fresh allocations.
struct Counting;

thread_local! {
    /// Fresh allocations (`alloc`, `alloc_zeroed`) made on this thread.
    /// `const`-initialised, so reading or bumping it never allocates.
    static FRESH: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; an
    // allocation then goes uncounted, which no budget reads.
    let _ = FRESH.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the fresh allocations it made
/// on this thread.
fn fresh_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = FRESH.with(Cell::get);
    let out = f();
    (out, FRESH.with(Cell::get) - before)
}

/// A generic app of `views` views with one custom view that skips
/// `onSaveInstanceState`.
fn custom_view_app(views: usize) -> GenericApp {
    let mut spec = GenericAppSpec::sized("AllocBudget", "1K+", false).with_issue(
        "State is lost after restart",
        StateItem::new("custom_field", StateMechanism::CustomViewNoSave, "typed"),
    );
    spec.view_count = views;
    spec.build()
}

/// A device in `mode` running the app with its user state applied.
fn launched(mode: HandlingMode, views: usize) -> Device {
    let probe = custom_view_app(views);
    let mut d = Device::new(mode);
    d.install_and_launch(Box::new(custom_view_app(views)), 40 << 20, 1.0)
        .unwrap();
    d.with_foreground_activity_mut(|a| probe.apply_user_state(a))
        .unwrap();
    d
}

/// What a steady-state flip allocates, what the snapshot it takes
/// allocates alone, and what the `advance(2 s)` after it allocates.
fn flip_budget(views: usize) -> (u64, u64, u64) {
    let mut d = launched(HandlingMode::rchdroid_default(), views);
    assert_eq!(d.rotate().unwrap().path, HandlingPath::RchInit);
    d.advance(SimDuration::from_secs(2));
    assert_eq!(d.rotate().unwrap().path, HandlingPath::RchFlip);
    d.advance(SimDuration::from_secs(2));

    // The flip snapshots the foreground instance into its shadow bundle.
    let component = d.foreground_component().unwrap();
    let p = d.process(&component).unwrap();
    let foreground = p.foreground_activity().unwrap();
    let (_, snapshot) = fresh_allocations(|| foreground.save_instance_state(p.model()));

    let (report, flip) = fresh_allocations(|| d.rotate().unwrap());
    assert_eq!(report.path, HandlingPath::RchFlip);
    assert!(d
        .process(&component)
        .unwrap()
        .thread()
        .current_shadow()
        .is_some());
    let ((), advance) = fresh_allocations(|| d.advance(SimDuration::from_secs(2)));
    (flip, snapshot, advance)
}

/// What a stock relaunch from the inflation cache allocates.
fn relaunch_budget(views: usize) -> u64 {
    let mut d = launched(HandlingMode::Android10, views);
    // The first landscape creation inflates cold and keeps its tree;
    // from the second change on every creation clones a kept tree.
    for _ in 0..2 {
        assert_eq!(d.rotate().unwrap().path, HandlingPath::Relaunch);
        d.advance(SimDuration::from_secs(2));
    }
    let (report, relaunch) = fresh_allocations(|| d.rotate().unwrap());
    assert_eq!(report.path, HandlingPath::Relaunch);
    relaunch
}

#[test]
fn a_flip_allocates_only_its_snapshot() {
    let small = flip_budget(64);
    let large = flip_budget(2_048);
    assert_eq!(
        small, large,
        "(flip, snapshot, advance) at 64 and 2,048 views"
    );
    let (flip, snapshot, _) = small;
    assert_eq!(
        flip, snapshot,
        "a flip allocates its snapshot and nothing else"
    );
    assert_eq!(snapshot, 4, "the snapshot of one stateful custom view");
}

#[test]
fn a_stock_relaunch_copies_no_configuration_or_name() {
    let small = relaunch_budget(64);
    let large = relaunch_budget(2_048);
    assert_eq!(small, large, "relaunch allocations at 64 and 2,048 views");
    assert_eq!(small, 12, "a relaunch from the inflation cache");
}

#[test]
fn gc_ticks_that_keep_the_shadow_allocate_nothing() {
    let (_, _, small) = flip_budget(64);
    let (_, _, large) = flip_budget(2_048);
    assert_eq!((small, large), (0, 0), "advance(2 s) with a shadow");
}
