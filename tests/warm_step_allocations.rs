//! Warm steps allocate no leaf-sized buffer anywhere.
//!
//! `tests/kernel_allocations.rs` counts allocations inside kernel bodies
//! only, and the pool-miss tests count only pooled buffers, so a stage
//! task that built its own `rhs` or grid copy, or a u⁰ store re-created every
//! step, passes both.  Here a counting global allocator counts *every*
//! heap allocation, on any thread, at least as large as the smallest
//! per-leaf grid the stepper keeps (a u⁰: `NF` fields of `N³` interior
//! words); after warm-up steps the count over further steps of both
//! steppers must be zero.  This binary holds one test so no other test's
//! allocations reach its counter.

use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, NF};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting every allocation of at least
/// `THRESHOLD` bytes.
struct CountingAlloc;

static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn large_allocs() -> u64 {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// V1309 on a uniform level-2 tree of N = 8 leaves, gravity on, over two
/// localities of one worker each.  Returns the large allocations over
/// `steps` steps after `warm` warm-up steps.
fn large_allocations_after_warm_up(pipeline: bool, warm: usize, steps: usize) -> u64 {
    let cluster = SimCluster::new(2, 1);
    let scenario = Scenario::build(ScenarioKind::V1309, &cluster, 2, 0, 8);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    opts.pipeline = pipeline;
    opts.localities = 2;
    let mut sim = Simulation::new(scenario.grid, opts);
    let before = large_allocs();
    for _ in 0..warm {
        sim.step(&cluster);
    }
    let warm_up = large_allocs() - before;
    LARGEST.store(0, Ordering::Relaxed);
    for _ in 0..steps {
        sim.step(&cluster);
    }
    let steady = large_allocs() - before - warm_up;
    let largest = LARGEST.load(Ordering::Relaxed);
    cluster.shutdown();
    eprintln!(
        "pipeline {pipeline}: {warm_up} large allocations warming up, {steady} after \
         (largest {largest} B)"
    );
    steady
}

#[test]
fn warm_steps_allocate_no_leaf_sized_buffer() {
    let n = 8;
    let interior_grid = NF * n * n * n * std::mem::size_of::<f64>();
    THRESHOLD.store(interior_grid, Ordering::Relaxed);
    // The counter is live: one interior grid's worth is counted.
    let before = large_allocs();
    std::hint::black_box(vec![0.0f64; NF * n * n * n]);
    assert_eq!(large_allocs() - before, 1);

    for pipeline in [false, true] {
        assert_eq!(
            large_allocations_after_warm_up(pipeline, 1, 2),
            0,
            "pipeline {pipeline}: warm steps allocated a leaf-sized buffer"
        );
    }
}
