//! The paper's experiments in miniature, on the host: run the rotating
//! star with each of the paper's switches and print real measured
//! cells-per-second — SIMD on/off (Figure 7), communication optimization
//! on/off (Figure 8), multipole task splitting (Figure 9), and 1 vs 4
//! localities.
//!
//! ```sh
//! cargo run --release --example rotating_star_scaling
//! ```

use octo_repro::amr::GhostConfig;
use octo_repro::hpx::SimCluster;
use octo_repro::octotiger::{Scenario, ScenarioKind, SimOptions, Simulation};
use octo_repro::simd::VectorMode;

fn run_config(label: &str, localities: usize, workers: usize, configure: impl Fn(&mut SimOptions)) {
    let cluster = SimCluster::new(localities, workers);
    let scenario = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 8);
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = true;
    configure(&mut opts);
    let mut sim = Simulation::new(scenario.grid, opts);
    // Warm-up step, then measure.
    sim.step(&cluster);
    let stats = sim.step(&cluster);
    println!(
        "{label:44} cells/s = {:.3e}  (dt = {:.2e}, direct links = {})",
        stats.cells_per_second, stats.dt, stats.direct_ghost_links
    );
    cluster.shutdown();
}

fn main() {
    println!("rotating star, level 2, N=8, real execution on this host\n");

    run_config("baseline (SVE, comm opt, 1 task/kernel)", 1, 4, |_| {});
    run_config("SIMD OFF (scalar kernels)            ", 1, 4, |o| {
        o.vector_mode = VectorMode::Scalar;
    });
    run_config("communication optimization OFF       ", 2, 2, |o| {
        o.ghost = GhostConfig {
            direct_local_access: false,
        };
    });
    run_config("communication optimization ON        ", 2, 2, |_| {});
    run_config("multipole kernel split into 16 tasks ", 1, 4, |o| {
        o.gravity_opts.tasks_per_multipole_kernel = 16;
    });
    run_config("4 localities x 1 worker              ", 4, 1, |_| {});

    println!("\n(The cluster-scale versions of these sweeps are the fig07/fig08/fig09 binaries.)");
}
