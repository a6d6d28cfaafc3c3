//! Shared by the caching-equivalence suites.

use hpx_rt::SimCluster;
use octotiger::{Simulation, StepStats};

/// One step of the uncached baseline: a fresh [`Simulation`] around the
/// same grid — new scratch arena, workspaces, gravity solver and plan
/// cache at once — carrying only the clock and the outflow ledger, so
/// nothing a previous step built is reused.
pub fn step_uncached(sim: &mut Simulation, cluster: &SimCluster) -> StepStats {
    let mut fresh = Simulation::new(sim.grid.clone(), sim.opts);
    fresh.time = sim.time;
    fresh.step_count = sim.step_count;
    fresh.mass_outflow = sim.mass_outflow;
    let stats = fresh.step(cluster);
    *sim = fresh;
    stats
}
