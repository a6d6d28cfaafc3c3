//! Kernel bodies do not allocate once their buffers are recycled.
//!
//! Every `kokkos-rs` launch runs its chunks as `hpx_rt::kernel_body`s.  A
//! counting global allocator counts each allocation made while the calling
//! thread is inside one; after warm-up steps (which build the plans, pools
//! and workspaces) the count over further steps must be zero.  This binary
//! holds one test so no other test's kernels reach its counter.

use octo_repro::hpx::{in_kernel_body, SimCluster};
use octo_repro::kokkos::{parallel_for, ExecSpace, RangePolicy};
use octo_repro::octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation made inside a kernel
/// body.
struct CountingAlloc;

static KERNEL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if in_kernel_body() {
        KERNEL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn kernel_allocs() -> u64 {
    KERNEL_ALLOCS.load(Ordering::Relaxed)
}

/// V1309 on a uniform level-2 tree of N = 8 leaves (8 tiles each), gravity
/// on, sharded over two localities: the slot-table launches, far-field
/// M2L targets, the tile build and evaluation kernels, and — pipelined —
/// the Δt reduction.  Returns the kernel allocations over `steps` steps
/// after `warm` warm-up steps.
fn allocations_after_warm_up(pipeline: bool, warm: usize, steps: usize) -> u64 {
    let cluster = SimCluster::new(2, 1);
    let scenario = Scenario::build(ScenarioKind::V1309, &cluster, 2, 0, 8);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    opts.pipeline = pipeline;
    opts.localities = 2;
    let mut sim = Simulation::new(scenario.grid, opts);
    let before = kernel_allocs();
    for _ in 0..warm {
        sim.step(&cluster);
    }
    let warm_up = kernel_allocs() - before;
    let mut m2l = 0;
    for _ in 0..steps {
        let stats = sim.step(&cluster);
        m2l += stats.gravity_stats.map_or(0, |g| g.m2l_interactions);
    }
    let steady = kernel_allocs() - before - warm_up;
    cluster.shutdown();
    assert!(m2l > 0, "pipeline {pipeline}: the run has no far-field M2L");
    eprintln!("pipeline {pipeline}: {warm_up} kernel allocations warming up, {steady} after");
    steady
}

#[test]
fn warm_kernel_bodies_do_not_allocate() {
    // The counter is live: a kernel that allocates is counted.
    let before = kernel_allocs();
    parallel_for(&ExecSpace::Serial, RangePolicy::new(0, 3), |i| {
        std::hint::black_box(Vec::<f64>::with_capacity(8 + i));
    });
    assert_eq!(kernel_allocs() - before, 3);

    for pipeline in [false, true] {
        assert_eq!(
            allocations_after_warm_up(pipeline, 1, 2),
            0,
            "pipeline {pipeline}: warm kernel bodies allocated"
        );
    }
}
