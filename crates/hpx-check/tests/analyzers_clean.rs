//! The acceptance runs: the real pipelined step under the model checker,
//! bit-identical to `step_barrier` on every explored schedule, plus full
//! pipelined and distributed runs.

use hpx_check::{ModelChecker, RealStep};
use hpx_rt::{parcel_counters, SimCluster};
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};

/// Explore seeds 1-16 of the real pipelined step in configuration `check`,
/// which ends on `leaves` leaves: every schedule must drain, contain no
/// task panic, and end bit-identical to `step_barrier`.
fn real_step_is_clean_on_sixteen_seeds(check: RealStep, leaves: usize) {
    let reference = check.reference();
    assert_eq!(reference.leaf_count(), leaves, "{check:?}");
    let report = ModelChecker::new()
        .schedules(16)
        .explore(|rt| check.run(rt, &reference));
    assert!(report.is_clean(), "{check:?}: {report}");
    assert_eq!(report.schedules_run, 16);
}

#[test]
fn pipelined_run_passes_all_analyzers() {
    // The model checker over the real step: two pipelined steps, gravity
    // on, 16 seeded schedules.
    real_step_is_clean_on_sixteen_seeds(RealStep::two_steps(1), 8);

    // And a threaded run of the default scenario: three pipelined steps,
    // every link drained.
    let cluster = SimCluster::new(2, 2);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    opts.pipeline = true;
    let mut sim = Simulation::new(scenario.grid, opts);
    for _ in 0..3 {
        let stats = sim.step(&cluster);
        assert!(stats.dt > 0.0 && stats.dt.is_finite());
        assert_eq!(stats.ghost_links_resolved, stats.ghost_links_total);
    }
    cluster.shutdown();
}

#[test]
fn pipelined_step_after_a_coarsening_regrid_matches_barrier_on_every_seed() {
    // The same check across a topology change: the third step runs on the
    // tree the cadence-2 regrid collapsed to one leaf, with every plan,
    // ghost link and u⁰ buffer rebuilt or dropped.
    real_step_is_clean_on_sixteen_seeds(RealStep::coarsen_then_step(1), 1);
}

#[test]
fn pipelined_step_on_two_and_four_localities_matches_barrier_on_every_seed() {
    // Every locality on the one seeded pool: the ghost exchange's parcel
    // links and the sharded solve are interleaved by the seed too.
    real_step_is_clean_on_sixteen_seeds(RealStep::two_steps(2), 8);
    real_step_is_clean_on_sixteen_seeds(RealStep::two_steps(4), 8);
}

#[test]
fn pipelined_step_on_a_tree_with_coarse_fine_faces_matches_barrier_on_every_seed() {
    // One octant refined: prolonged and restricted ghost links (four fine
    // sources a link) gate and fill under every seeded schedule.
    real_step_is_clean_on_sixteen_seeds(RealStep::two_steps_refined(1), 15);
    real_step_is_clean_on_sixteen_seeds(RealStep::two_steps_refined(2), 15);
}

#[test]
fn distributed_run_passes_the_dist_analyzers() {
    // A four-locality sharded run must both step and communicate.
    let cluster = SimCluster::new(4, 2);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    opts.localities = 4;
    let mut sim = Simulation::new(scenario.grid, opts);

    let before = parcel_counters().snapshot();
    for _ in 0..3 {
        let stats = sim.step(&cluster);
        assert!(stats.dt > 0.0 && stats.dt.is_finite());
    }
    let delta = parcel_counters().snapshot().since(&before);
    assert!(
        delta.gravity_count() > 0,
        "the distributed gravity path must move parcels"
    );
    cluster.shutdown();
}
