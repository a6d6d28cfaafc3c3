//! Checkpoint/restart integration: a run interrupted by a silo-lite
//! checkpoint and restored on a *different* cluster layout must continue
//! exactly like the uninterrupted run, bit for bit.

use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{io, Scenario, ScenarioKind, SimOptions, Simulation, NF};

fn snapshot(sim: &Simulation) -> Vec<Vec<f64>> {
    sim.grid
        .leaves()
        .into_iter()
        .map(|leaf| {
            let g = sim.grid.grid(leaf);
            let gg = g.read();
            let mut block = Vec::new();
            for f in 0..NF {
                block.extend_from_slice(gg.field(f));
            }
            block
        })
        .collect()
}

#[test]
fn restart_continues_identically() {
    let tmp = std::env::temp_dir().join(format!("octo_repro_restart_{}.slt", std::process::id()));

    // Uninterrupted reference run: 2 steps.
    let cluster_a = SimCluster::new(1, 2);
    let scenario_a = Scenario::build(ScenarioKind::RotatingStar, &cluster_a, 2, 0, 4);
    let omega = scenario_a.omega;
    let mut opts = SimOptions::default();
    opts.omega = omega;
    opts.gravity = true;
    let mut reference = Simulation::new(scenario_a.grid, opts);
    reference.step(&cluster_a);
    // Checkpoint after step 1.
    io::save(&tmp, &reference.grid, reference.time, reference.step_count)
        .expect("checkpoint written");
    reference.step(&cluster_a);
    let expected = snapshot(&reference);
    cluster_a.shutdown();

    // Restore on a different cluster layout and run the second step.
    let cluster_b = SimCluster::new(2, 1);
    let ckpt = io::read_checkpoint(&tmp).expect("checkpoint read");
    let grid = ckpt.restore(&cluster_b);
    let mut resumed = Simulation::new(grid, opts);
    resumed.time = ckpt.time;
    resumed.step_count = ckpt.step;
    resumed.step(&cluster_b);
    let actual = snapshot(&resumed);
    cluster_b.shutdown();
    std::fs::remove_file(&tmp).ok();

    assert_eq!(expected.len(), actual.len());
    for (leaf, (e, a)) in expected.iter().zip(&actual).enumerate() {
        for (i, (x, y)) in e.iter().zip(a).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "restart diverged at leaf {leaf} word {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn checkpoint_preserves_adaptive_topology() {
    let cluster = SimCluster::new(1, 1);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 1, 2, 4);
    let leaves_before = scenario.grid.leaves();
    assert!(
        leaves_before.iter().any(|l| l.level() > 1),
        "scenario should have refined leaves"
    );
    let ckpt = io::Checkpoint::capture(&scenario.grid, 0.0, 0);
    let restored = ckpt.restore(&cluster);
    assert_eq!(restored.leaves(), leaves_before);
    restored.with_tree(|t| t.check_invariants().expect("invariants"));
    cluster.shutdown();
}
