//! Integration tests for the scratch-recycling subsystem (the zero-alloc
//! steady state): recycling must be a pure performance switch — pooled and
//! fresh-allocation runs produce bit-identical physics — and the pools must
//! actually reach steady state, where `scratch/misses` stops growing.

mod common;

use common::step_uncached;
use hpx_rt::SimCluster;
use kokkos_rs::pool::ScratchArena;
use kokkos_rs::ExecSpace;
use octotiger::gravity::direct::PointMasses;
use octotiger::gravity::{GravityOptions, GravitySolver, LeafSources};
use octotiger::{
    ConservationLedger, Scenario, ScenarioKind, SimOptions, Simulation, StepStats, NF,
};
use octree::{NodeId, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// Counts the heap allocations of the *calling thread*, so a test can
/// meter code it runs inline (`ExecSpace::Serial` launches) while the
/// binary's other tests allocate on their own threads.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator is still called while a thread tears its
    // locals down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised `Cell` without
// a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn build(cluster: &SimCluster, pipeline: bool) -> Simulation {
    let sc = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
    let mut opts = SimOptions::default();
    opts.gravity = true; // exercise the pooled gravity LeafFields too
    opts.omega = sc.omega;
    opts.pipeline = pipeline;
    Simulation::new(sc.grid, opts)
}

/// Step a pooled sim and an unpooled one (a fresh arena and fresh
/// workspaces every step) `steps` times and assert every field of every
/// leaf is bit-identical afterwards, as are the conservation ledgers.
fn assert_bit_identical(pipeline: bool, steps: usize) {
    let cluster_a = SimCluster::new(2, 2);
    let cluster_b = SimCluster::new(2, 2);
    let mut pooled = build(&cluster_a, pipeline);
    let mut fresh = build(&cluster_b, pipeline);
    for _ in 0..steps {
        let sa = pooled.step(&cluster_a);
        let sb = step_uncached(&mut fresh, &cluster_b);
        assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "Δt must be bit-identical");
    }
    for leaf in pooled.grid.leaves() {
        let ga = pooled.grid.grid(leaf);
        let gb = fresh.grid.grid(leaf);
        let (ga, gb) = (ga.read(), gb.read());
        for f in 0..NF {
            assert_eq!(ga.field(f), gb.field(f), "field {f} differs at {leaf}");
        }
    }
    let la = ConservationLedger::measure(&pooled.grid);
    let lb = ConservationLedger::measure(&fresh.grid);
    assert_eq!(la.mass.to_bits(), lb.mass.to_bits(), "mass ledger differs");
    assert_eq!(
        la.gas_energy.to_bits(),
        lb.gas_energy.to_bits(),
        "energy ledger differs"
    );
    cluster_a.shutdown();
    cluster_b.shutdown();
}

#[test]
fn pooled_and_fresh_barrier_runs_are_bit_identical() {
    assert_bit_identical(false, 3);
}

#[test]
fn pooled_and_fresh_pipelined_runs_are_bit_identical() {
    assert_bit_identical(true, 3);
}

#[test]
fn barrier_steady_state_is_allocation_free_after_warmup() {
    // The barrier stepper's checkout pattern is identical every step (the
    // exchange gathers all payloads before unpacking any), so after the
    // warm-up step populates the pools, `scratch/misses` must not grow at
    // all over a 10-step run — the acceptance criterion for the subsystem.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, false);
    let warm = sim.step(&cluster);
    assert!(warm.scratch_misses > 0, "warm-up must populate the pools");
    let stats: Vec<StepStats> = (0..10).map(|_| sim.step(&cluster)).collect();
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(
            s.scratch_misses,
            warm.scratch_misses,
            "step {} allocated fresh scratch in steady state",
            i + 2
        );
        assert!(s.scratch_hits > warm.scratch_hits, "pools must be serving");
    }
    // Everything checked out during the step was returned by its end
    // except the kernel scratch of the stage workspaces on the free list.
    let last = stats.last().unwrap();
    assert!(last.scratch_high_water >= last.scratch_bytes_in_use);
    cluster.shutdown();
}

#[test]
fn pipelined_steady_state_misses_plateau() {
    // The pipelined stepper overlaps pack/unpack windows, so the maximum
    // number of simultaneously live payload buffers — and therefore the
    // pool population — depends on scheduling.  The cumulative miss count
    // still plateaus: it is bounded by the worst-case overlap (one step's
    // full link set beyond the warm-up population) and in practice stops
    // growing after the first couple of steps.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, true);
    let warm = sim.step(&cluster);
    assert!(warm.scratch_misses > 0);
    let stats: Vec<StepStats> = (0..10).map(|_| sim.step(&cluster)).collect();
    let last = stats.last().unwrap();
    let growth = last.scratch_misses - warm.scratch_misses;
    assert!(
        growth <= warm.ghost_links_total,
        "pipelined miss growth {growth} exceeds one step's link set {}",
        warm.ghost_links_total
    );
    // Recycling must dominate: the ten steady steps serve hundreds of
    // checkouts from the free lists while allocating at most a handful
    // (a miss after warm-up only happens when scheduling produces a new
    // maximum of simultaneously live payloads).
    let hits_gained = last.scratch_hits - warm.scratch_hits;
    assert!(
        hits_gained > 20 * growth.max(1),
        "pools barely recycling: {hits_gained} hits vs {growth} misses after warm-up"
    );
    cluster.shutdown();
}

/// Unit point masses on every leaf's `n`³ cell lattice, i-major.
fn lattice_sources(tree: &Tree, n: usize) -> HashMap<NodeId, LeafSources> {
    let mut out = HashMap::new();
    for leaf in tree.leaves() {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let mut points = PointMasses::with_capacity(n * n * n);
        for c in 0..n * n * n {
            let at = [c / (n * n), c / n % n, c % n];
            let x: [f64; 3] = std::array::from_fn(|a| {
                (corner[a] + (at[a] as f64 + 0.5) * h - 0.5) * octotiger::units::BOX_SIZE
            });
            points.push(x, 1.0 + 0.1 * (c % 7) as f64);
        }
        out.insert(leaf, LeafSources { points });
    }
    out
}

#[test]
fn tiled_gravity_solve_recycles_everything_after_warmup() {
    // N = 8 turns every leaf into 8 tiles: a tile-major copy, tile
    // multipoles and per-tile near-field lists on top of the N = 4 solve's
    // buffers.  All of it must recycle: the second solve on the unchanged
    // tree misses the scratch pool zero times, and allocates exactly what
    // the single-tile solve of the same tree does — the per-solve result
    // map, nothing per launch, leaf or tile.  (`Serial` launches run
    // inline, on the metered thread.)
    let tree = Tree::new_uniform(1);
    let steady_allocs = |n: usize| {
        let arena = ScratchArena::new();
        let solver = GravitySolver::with_scratch(GravityOptions::default(), arena.clone());
        let sources = lattice_sources(&tree, n);
        let warm = solver.solve(&tree, &sources, &ExecSpace::Serial);
        drop(warm);
        let misses = arena.stats().misses;
        let before = THREAD_ALLOCS.with(Cell::get);
        let second = solver.solve(&tree, &sources, &ExecSpace::Serial);
        let allocs = THREAD_ALLOCS.with(Cell::get) - before;
        assert_eq!(second.0.len(), tree.num_leaves());
        assert_eq!(arena.stats().misses, misses, "N={n}: second solve missed");
        allocs
    };
    assert_eq!(steady_allocs(8), steady_allocs(4));
}
