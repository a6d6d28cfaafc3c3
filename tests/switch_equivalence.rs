//! The paper's performance switches must be physics-neutral: SVE vs
//! scalar (Figure 7), communication optimization on/off (Figure 8),
//! multipole task splitting 1 vs 16 (Figure 9), and the distribution over
//! localities itself all change *timings*, never *results*.

use octo_repro::amr::GhostConfig;
use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, NF};
use octo_repro::simd::VectorMode;

/// Run `steps` steps of the rotating star with the given configuration and
/// return the final state of every leaf, in SFC order.
fn run(
    localities: usize,
    workers: usize,
    steps: usize,
    configure: impl Fn(&mut SimOptions),
) -> Vec<Vec<f64>> {
    let cluster = SimCluster::new(localities, workers);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    configure(&mut opts);
    let mut sim = Simulation::new(scenario.grid, opts);
    for _ in 0..steps {
        sim.step(&cluster);
    }
    let mut out = Vec::new();
    for leaf in sim.grid.leaves() {
        let g = sim.grid.grid(leaf);
        let gg = g.read();
        let mut block = Vec::new();
        for f in 0..NF {
            block.extend_from_slice(gg.field(f));
        }
        out.push(block);
    }
    cluster.shutdown();
    out
}

fn assert_states_close(a: &[Vec<f64>], b: &[Vec<f64>], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: leaf count differs");
    for (la, lb) in a.iter().zip(b) {
        for (x, y) in la.iter().zip(lb) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "{what}: state diverged: {x} vs {y}"
            );
        }
    }
}

#[test]
fn sve_and_scalar_give_identical_physics() {
    // Bit-identical, not merely close: every ported kernel reduces through
    // the same stripe-blocked partial sums at every width (see DESIGN.md),
    // so the width is invisible.
    let sve = run(1, 2, 2, |o| o.vector_mode = VectorMode::Sve512);
    let scalar = run(1, 2, 2, |o| o.vector_mode = VectorMode::Scalar);
    assert_states_close(&sve, &scalar, 0.0, "SVE vs scalar");
}

#[test]
fn comm_optimization_is_physics_neutral() {
    let on = run(2, 1, 2, |o| {
        o.ghost = GhostConfig {
            direct_local_access: true,
        }
    });
    let off = run(2, 1, 2, |o| {
        o.ghost = GhostConfig {
            direct_local_access: false,
        }
    });
    assert_states_close(&on, &off, 0.0, "comm opt on vs off");
}

#[test]
fn multipole_task_splitting_is_physics_neutral() {
    let one = run(1, 4, 2, |o| o.gravity_opts.tasks_per_multipole_kernel = 1);
    let sixteen = run(1, 4, 2, |o| o.gravity_opts.tasks_per_multipole_kernel = 16);
    assert_states_close(&one, &sixteen, 1e-11, "1 vs 16 multipole tasks");
}

#[test]
fn pipeline_matches_barrier() {
    // The futurized per-leaf dependency pipeline re-orders *when* every
    // pack/unpack/kernel runs, but the dependency gates must make the
    // result bit-compatible with the barrier stepper: same fields after N
    // steps, same conservation totals.

    let steps = 3;
    let run_with = |pipeline: bool| {
        let cluster = SimCluster::new(2, 2);
        let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.omega = scenario.omega;
        opts.gravity = true;
        opts.pipeline = pipeline;
        let mut sim = Simulation::new(scenario.grid, opts);
        let (before, after, stats) = sim.run(&cluster, steps);
        let mut state = Vec::new();
        for leaf in sim.grid.leaves() {
            let g = sim.grid.grid(leaf);
            let gg = g.read();
            let mut block = Vec::new();
            for f in 0..NF {
                block.extend_from_slice(gg.field(f));
            }
            state.push(block);
        }
        cluster.shutdown();
        (before, after, stats, state)
    };

    let (barrier_before, barrier_after, barrier_stats, barrier_state) = run_with(false);
    let (pipe_before, pipe_after, pipe_stats, pipe_state) = run_with(true);

    assert_states_close(&barrier_state, &pipe_state, 1e-12, "barrier vs pipeline");

    // Identical conservation ledgers: totals are measured from the grid, so
    // agreement here is agreement of the full state, not just a summary.
    let ledgers = [(barrier_before, pipe_before), (barrier_after, pipe_after)];
    for (a, b) in ledgers {
        assert_eq!(a.mass.to_bits(), b.mass.to_bits(), "ledger mass differs");
        assert_eq!(
            a.gas_energy.to_bits(),
            b.gas_energy.to_bits(),
            "ledger gas energy differs"
        );
        assert_eq!(a.momentum, b.momentum, "ledger momentum differs");
        assert_eq!(
            a.angular_momentum_z.to_bits(),
            b.angular_momentum_z.to_bits(),
            "ledger Lz differs"
        );
    }

    // Per-step telemetry contract.
    for (sa, sb) in barrier_stats.iter().zip(&pipe_stats) {
        assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "Δt diverged");
        assert_eq!(sa.overlapped_tasks, 0, "barrier path must never overlap");
        assert_eq!(
            sb.ghost_links_resolved, sb.ghost_links_total,
            "pipelined step left undrained links"
        );
        assert_eq!(sa.ghost_links_total, sb.ghost_links_total);
    }
}

#[test]
fn locality_count_is_physics_neutral() {
    // Distributing the octree over more localities changes communication
    // paths, never results.
    let one = run(1, 2, 2, |_| {});
    let four = run(4, 1, 2, |_| {});
    assert_states_close(&one, &four, 1e-11, "1 vs 4 localities");
}
