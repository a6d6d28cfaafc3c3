//! Quickstart: build the paper's rotating-star problem, evolve it a few
//! steps with hydro + FMM gravity in the rotating frame, and print the
//! paper's metric (processed cells per second), the conservation ledger
//! and the run's named performance counters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{ConservationLedger, Scenario, ScenarioKind, SimOptions, Simulation};

fn main() {
    // Two logical HPX localities with two worker threads each — a
    // miniature of one Fugaku rack.
    let cluster = SimCluster::new(2, 2);

    // Rotating star at octree level 2 with one AMR level on top, N = 8
    // sub-grids like the paper.
    let scenario = {
        // Debug builds are ~30x slower; shrink so `cargo run` stays snappy.
        let (level, amr, n) = if cfg!(debug_assertions) {
            (2, 0, 4)
        } else {
            (2, 1, 8)
        };
        Scenario::build(ScenarioKind::RotatingStar, &cluster, level, amr, n)
    };
    println!(
        "scenario: {} | leaves: {} | cells: {} | omega: {:.4}",
        scenario.kind.name(),
        scenario.grid.leaves().len(),
        scenario.total_cells(),
        scenario.omega
    );

    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    let mut sim = Simulation::new(scenario.grid, opts);

    let before = ConservationLedger::measure(&sim.grid);
    println!("initial ledger: {before}");

    for step in 0..3 {
        let stats = sim.step(&cluster);
        println!(
            "step {step}: dt = {:.3e}  cells/s = {:.3e}  kernels = {}  direct ghost links = {}  m2l = {}",
            stats.dt,
            stats.cells_per_second,
            stats.kernel_launches,
            stats.direct_ghost_links,
            stats
                .gravity_stats
                .map(|g| g.m2l_interactions)
                .unwrap_or(0),
        );
    }

    let after = ConservationLedger::measure(&sim.grid);
    println!("final ledger:   {after}");
    println!(
        "mass ledger closure (drift + tracked outflow): {:.3e}",
        (after.mass + sim.mass_outflow - before.mass).abs() / before.mass
    );
    // Every counter of the run by its HPX-style name, each read from the
    // object that counts it (DESIGN.md §3.1 has the table).
    for (name, value) in sim.counters(&cluster) {
        println!("{name:<44} {value}");
    }
    cluster.shutdown();
}
