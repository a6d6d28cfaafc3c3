//! Integration tests for the cached FMM interaction plan: caching must be
//! a pure performance switch — a persistent solver reusing its plan
//! produces bit-identical physics to one that re-traverses every step —
//! and the cache must actually work: one rebuild for a whole run on an
//! unchanged tree, an invalidation (and only one) after a regrid.

mod common;

use common::step_uncached;
use hpx_rt::SimCluster;
use octotiger::{
    ConservationLedger, Scenario, ScenarioKind, SimOptions, Simulation, StepStats, NF,
};

fn build(cluster: &SimCluster, pipeline: bool) -> Simulation {
    let sc = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
    let mut opts = SimOptions::default();
    opts.gravity = true;
    opts.omega = sc.omega;
    opts.pipeline = pipeline;
    Simulation::new(sc.grid, opts)
}

/// Step a plan-caching sim and a traverse-every-step sim (a fresh solver
/// per step) side by side and assert every field of every leaf — and the
/// conservation ledgers — are bit-identical afterwards.
fn assert_bit_identical(pipeline: bool, steps: usize) {
    let cluster_a = SimCluster::new(2, 2);
    let cluster_b = SimCluster::new(2, 2);
    let mut cached = build(&cluster_a, pipeline);
    let mut rebuilt = build(&cluster_b, pipeline);
    for step in 0..steps {
        let sa = cached.step(&cluster_a);
        let sb = step_uncached(&mut rebuilt, &cluster_b);
        assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "Δt must be bit-identical");
        assert_eq!(sa.gravity_stats, sb.gravity_stats, "solve stats differ");
        assert_eq!(sa.gravity_plan_hit, step > 0, "cached side must hit");
        assert!(!sb.gravity_plan_hit, "uncached side must never hit");
        assert_eq!(rebuilt.gravity_plan_counters(), (0, 1));
    }
    for leaf in cached.grid.leaves() {
        let ga = cached.grid.grid(leaf);
        let gb = rebuilt.grid.grid(leaf);
        let (ga, gb) = (ga.read(), gb.read());
        for f in 0..NF {
            assert_eq!(ga.field(f), gb.field(f), "field {f} differs at {leaf}");
        }
    }
    let la = ConservationLedger::measure(&cached.grid);
    let lb = ConservationLedger::measure(&rebuilt.grid);
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
fn cached_and_rebuilt_barrier_runs_are_bit_identical() {
    assert_bit_identical(false, 4);
}

#[test]
fn cached_and_rebuilt_pipelined_runs_are_bit_identical() {
    assert_bit_identical(true, 4);
}

#[test]
fn ten_step_run_rebuilds_the_plan_exactly_once() {
    // The acceptance criterion for the subsystem: on an unchanged tree the
    // dual-tree traversal runs once for the whole run, not once per step.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, false);
    let stats: Vec<StepStats> = (0..10).map(|_| sim.step(&cluster)).collect();
    assert!(!stats[0].gravity_plan_hit, "first solve must traverse");
    for (i, s) in stats.iter().enumerate().skip(1) {
        assert!(s.gravity_plan_hit, "step {} re-traversed the tree", i + 1);
    }
    assert_eq!(
        sim.gravity_plan_counters(),
        (9, 1),
        "expected 9 plan hits and exactly 1 rebuild over 10 steps"
    );
    cluster.shutdown();
}

#[test]
fn pipelined_run_shares_the_cache_across_step_futures() {
    // The pipelined stepper moves a solver clone into each step's gravity
    // future; the clones must all hit the persistent solver's cache.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, true);
    let stats: Vec<StepStats> = (0..5).map(|_| sim.step(&cluster)).collect();
    assert!(!stats[0].gravity_plan_hit);
    assert!(stats[1..].iter().all(|s| s.gravity_plan_hit));
    assert_eq!(sim.gravity_plan_counters(), (4, 1));
    cluster.shutdown();
}

#[test]
fn regrid_invalidates_the_plan_exactly_once() {
    // Refining the tree bumps its topology version; the next solve must
    // rebuild the plan (once), and the steps after it must hit again.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, false);
    sim.step(&cluster);
    sim.step(&cluster);
    assert_eq!(sim.gravity_plan_counters(), (1, 1));
    let leaf = sim.grid.leaves()[0];
    sim.grid.refine_balanced(leaf);
    let s = sim.step(&cluster);
    assert!(!s.gravity_plan_hit, "post-regrid solve must re-traverse");
    let s = sim.step(&cluster);
    assert!(
        s.gravity_plan_hit,
        "second post-regrid solve must hit again"
    );
    assert_eq!(sim.gravity_plan_counters(), (2, 2));
    cluster.shutdown();
}

#[test]
fn theta_change_rebuilds_the_plan_but_is_not_a_regrid_rebuild() {
    // θ is part of the plan's key, so changing it between steps misses the
    // cache — but no topology changed, and `/octotiger/regrid/plan-rebuilt`
    // counts only the rebuilds a regrid caused.  Sharded over two
    // localities, so the halo plan (keyed on θ too) takes the same path.
    let cluster = SimCluster::new(2, 2);
    let mut sim = build(&cluster, false);
    sim.opts.localities = 2;
    sim.step(&cluster);
    sim.opts.gravity_opts.theta = 0.4;
    let s = sim.step(&cluster);
    assert!(!s.gravity_plan_hit, "a θ change must re-traverse");
    let view = sim.counters(&cluster);
    let value = |name: &str| hpx_rt::counters::select(&view, name)[0].1;
    assert_eq!(value("/octotiger/gravity/plan-rebuilds"), 2);
    assert_eq!(value("/octotiger/gravity/dist-plan-rebuilds"), 2);
    assert_eq!(value("/octotiger/regrid/plan-rebuilt"), 0);
    cluster.shutdown();
}

/// The `/octotiger/...` names `sim` itself owns: everything but the parcel
/// block, the one family that is process-wide by design.
fn own_counters(sim: &Simulation, cluster: &SimCluster) -> Vec<(String, u64)> {
    let mut all = hpx_rt::counters::select(&sim.counters(cluster), "/octotiger/*");
    all.retain(|(name, _)| !name.starts_with("/octotiger/parcels/"));
    all
}

#[test]
fn counters_are_scoped_to_their_simulation() {
    // Two simulations in one process, stepped interleaved: `a` runs three
    // plain steps, `b` four steps sharded over two localities with a
    // cadence regrid before its third.  Each `counters()` view must show
    // exactly its own events, whatever else runs in this process.
    let cluster_a = SimCluster::new(2, 2);
    let cluster_b = SimCluster::new(2, 2);
    let mut a = build(&cluster_a, false);
    a.opts.localities = 1;
    let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster_b, 2, 0, 4);
    let mut opts = SimOptions::default();
    opts.omega = sc.omega;
    opts.localities = 2;
    opts.regrid_cadence = Some(2);
    let mut b = Simulation::new(sc.grid, opts);

    let value = |view: &[(String, u64)], name: &str| -> u64 {
        let hit: Vec<_> = view.iter().filter(|(n, _)| n == name).collect();
        assert_eq!(hit.len(), 1, "{name} must be listed exactly once");
        hit[0].1
    };
    let mut refined = 0;
    let mut last = (a.step(&cluster_a), b.step(&cluster_b));
    for _ in 1..3 {
        last = (a.step(&cluster_a), b.step(&cluster_b));
        refined += last.1.regrid_refined;
    }
    // `a` is done; nothing `b` does from here on may move `a`'s view.
    let a_view = own_counters(&a, &cluster_a);
    let b_last = b.step(&cluster_b);
    assert!(refined > 0, "the cadence regrid must have refined the star");
    assert_eq!(own_counters(&a, &cluster_a), a_view);
    let b_view = own_counters(&b, &cluster_b);

    for (view, expect) in [
        (
            &a_view,
            [
                ("/octotiger/gravity/plan-hits", 2),
                ("/octotiger/gravity/plan-rebuilds", 1),
                ("/octotiger/gravity/dist-plan-hits", 0),
                ("/octotiger/gravity/dist-plan-rebuilds", 0),
                ("/octotiger/regrid/refined", 0),
                ("/octotiger/regrid/derefined", 0),
                ("/octotiger/regrid/plan-rebuilt", 0),
                ("/octotiger/scratch/misses", last.0.scratch_misses),
            ],
        ),
        (
            // Build, hit, rebuild (interaction + halo plan), hit.
            &b_view,
            [
                ("/octotiger/gravity/plan-hits", 2),
                ("/octotiger/gravity/plan-rebuilds", 2),
                ("/octotiger/gravity/dist-plan-hits", 2),
                ("/octotiger/gravity/dist-plan-rebuilds", 2),
                ("/octotiger/regrid/refined", refined),
                ("/octotiger/regrid/derefined", 0),
                ("/octotiger/regrid/plan-rebuilt", 2),
                ("/octotiger/scratch/misses", b_last.scratch_misses),
            ],
        ),
    ] {
        for (name, want) in expect {
            assert_eq!(value(view, name), want, "{name}");
        }
    }
    assert_ne!(
        value(&a_view, "/octotiger/scratch/misses"),
        value(&b_view, "/octotiger/scratch/misses"),
        "different trees warm different pools"
    );

    // The wildcard query returns the documented names, in table order.
    let gravity = hpx_rt::counters::select(&b.counters(&cluster_b), "/octotiger/gravity/*");
    let names: Vec<&str> = gravity.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "/octotiger/gravity/plan-hits",
            "/octotiger/gravity/plan-rebuilds",
            "/octotiger/gravity/dist-plan-hits",
            "/octotiger/gravity/dist-plan-rebuilds",
        ]
    );
    // Per-locality names are listed once per locality of the cluster.
    let executed = hpx_rt::counters::select(
        &b.counters(&cluster_b),
        "/threads{locality#*}/count/cumulative",
    );
    assert_eq!(executed.len(), 2);
    assert!(executed.iter().all(|(_, tasks)| *tasks > 0));
    cluster_a.shutdown();
    cluster_b.shutdown();
}
