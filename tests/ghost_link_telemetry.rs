//! StepStats ghost-link telemetry contract: the pipelined stepper's
//! counters must account for exactly the link set the tree implies —
//! `6 face links × leaves × 3 RK stages` — and every link must be drained
//! (`resolved == total`), on uniform *and* refined trees.  The stepper's
//! undrained-link `debug_assert` rests on these counters, so they must not
//! drift.

use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, StepStats};

fn pipelined_sim(cluster: &SimCluster, level: u8) -> Simulation {
    let scenario = Scenario::build(ScenarioKind::RotatingStar, cluster, level, 0, 4);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = false;
    opts.pipeline = true;
    Simulation::new(scenario.grid, opts)
}

fn assert_link_accounting(stats: &StepStats, leaves: usize) {
    assert_eq!(
        stats.ghost_links_total,
        6 * leaves as u64 * 3,
        "total must be 6 links × {leaves} leaves × 3 stages"
    );
    assert_eq!(
        stats.ghost_links_resolved, stats.ghost_links_total,
        "a drained pipelined step must resolve every link"
    );
}

#[test]
fn uniform_tree_accounts_for_every_ghost_link() {
    let cluster = SimCluster::new(2, 2);
    let mut sim = pipelined_sim(&cluster, 2);
    let leaves = sim.grid.leaves().len();
    assert_eq!(leaves, 64);
    let stats = sim.step(&cluster);
    assert_link_accounting(&stats, leaves);
    cluster.shutdown();
}

#[test]
fn refined_tree_accounts_for_every_ghost_link() {
    let cluster = SimCluster::new(2, 2);
    let mut sim = pipelined_sim(&cluster, 2);
    // Refine where the star actually is so the tree becomes mixed-level.
    let outcome = sim.regrid(3, 1.0);
    assert!(outcome.refined > 0, "the star must trigger refinement");
    let leaves = sim.grid.leaves().len();
    assert!(leaves > 64, "refinement must add leaves");
    let stats = sim.step(&cluster);
    assert_link_accounting(&stats, leaves);

    // The counters agree with the link classification the analyzers use.
    assert_eq!(sim.grid.link_specs().len(), 6 * leaves);
    cluster.shutdown();
}

#[test]
fn barrier_and_pipelined_steppers_count_the_same_links() {
    let cluster_a = SimCluster::new(1, 2);
    let cluster_b = SimCluster::new(1, 2);
    let mut barrier = pipelined_sim(&cluster_a, 1);
    barrier.opts.pipeline = false;
    let mut pipelined = pipelined_sim(&cluster_b, 1);
    let sa = barrier.step(&cluster_a);
    let sb = pipelined.step(&cluster_b);
    assert_eq!(sa.ghost_links_total, sb.ghost_links_total);
    assert_link_accounting(&sb, pipelined.grid.leaves().len());
    cluster_a.shutdown();
    cluster_b.shutdown();
}
