//! The real pipelined step under the model checker.
//!
//! `Simulation::step_pipelined` is the one place where the order of the
//! program's writes depends on the schedule: every leaf's RK-stage kernel
//! is a continuation on its ghost, pack, Δt and gravity futures, and only
//! those gates keep a stage from reading a half-updated neighbour.  Every
//! other ordering — the sharded solve's level and tile joins, the kernels'
//! disjoint `&mut` slots, the tuner's step-boundary split — is a borrow or a
//! `Runtime::scope` join the compiler checks.
//!
//! [`RealStep`] therefore checks the code itself rather than a replica of
//! it: it builds a one-locality `SimCluster` over the model checker's
//! [`Runtime::deterministic`] pool, runs the real pipelined
//! `Simulation::step` there, and compares the final state bit for bit with
//! `step_barrier` run on a threaded cluster.  Per seed it reports a stall (a
//! dropped or cyclic gate), a contained panic, or the first
//! `(leaf, field, cell)` whose bits differ (a missing gate that let a
//! kernel race its neighbour's pack or unpack).

use hpx_rt::{Runtime, SimCluster};
use octotiger::{Scenario, ScenarioKind, SimOptions, Simulation, NF};
use octree::{NodeId, SubGrid};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// One configuration of the real-step check: the rotating star at level 1
/// (8 leaves of N = 4), gravity on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealStep {
    /// Steps to take.
    steps: usize,
    /// Regrid at cadence 2 with every octet collapsible, so the third step
    /// runs on the coarsened tree (8 leaves -> 1).
    coarsen: bool,
}

/// Final state of a run: every leaf's sub-grid, in leaf order.
pub type LeafStates = Vec<(NodeId, SubGrid)>;

impl RealStep {
    /// Two pipelined steps on the unchanged tree.
    pub const TWO_STEPS: RealStep = RealStep {
        steps: 2,
        coarsen: false,
    };
    /// Two steps, a coarsening regrid, then a third step.
    pub const COARSEN_THEN_STEP: RealStep = RealStep {
        steps: 3,
        coarsen: true,
    };
    /// Both configurations, as `hpx-check model` runs them.
    pub const ALL: [RealStep; 2] = [Self::TWO_STEPS, Self::COARSEN_THEN_STEP];

    /// Build the scenario on `cluster`, take the steps with the chosen
    /// stepper, and return the final state.
    fn simulate(&self, cluster: &SimCluster, pipeline: bool) -> LeafStates {
        let scenario = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
        let mut opts = SimOptions::default();
        opts.omega = scenario.omega;
        opts.gravity = true;
        opts.pipeline = pipeline;
        opts.localities = 1;
        opts.regrid_cadence = self.coarsen.then_some(2);
        opts.regrid_refine_threshold = f64::INFINITY;
        opts.regrid_coarsen_threshold = f64::INFINITY;
        let mut sim = Simulation::new(scenario.grid, opts);
        for _ in 0..self.steps {
            sim.step(cluster);
        }
        let leaves = sim.grid.leaves();
        (leaves.into_iter())
            .map(|leaf| (leaf, sim.grid.grid(leaf).read().clone()))
            .collect()
    }

    /// The reference: the same run with `step_barrier` on a threaded
    /// one-locality cluster.
    pub fn reference(&self) -> LeafStates {
        let cluster = SimCluster::new(1, 2);
        let state = self.simulate(&cluster, false);
        cluster.shutdown();
        state
    }

    /// Run the pipelined steps on the deterministic pool `rt` (the
    /// [`crate::ModelChecker`] closure) and panic, naming the first
    /// `(leaf, field, cell)`, if the final state differs from `reference`
    /// in any bit.
    pub fn run(&self, rt: &Runtime, reference: &LeafStates) {
        let cluster = SimCluster::from_runtimes(vec![rt.clone()]);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.simulate(&cluster, true)));
        cluster.shutdown();
        let state = outcome.unwrap_or_else(|panic| resume_unwind(panic));
        if let Some(diff) = first_difference(&state, reference) {
            panic!("{self:?}: final state differs from step_barrier at {diff}");
        }
    }
}

/// The first interior cell whose bits differ, as `leaf L field F cell
/// (i, j, k): pipelined vs barrier`, or a differing leaf set.
fn first_difference(state: &LeafStates, reference: &LeafStates) -> Option<String> {
    let (got, want): (Vec<NodeId>, Vec<NodeId>) = (
        state.iter().map(|(leaf, _)| *leaf).collect(),
        reference.iter().map(|(leaf, _)| *leaf).collect(),
    );
    if got != want {
        return Some(format!("the leaf set: {got:?} vs {want:?}"));
    }
    for ((leaf, got), (_, want)) in state.iter().zip(reference) {
        let n = got.n();
        for f in 0..NF {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let (a, b) = (got.get_interior(f, i, j, k), want.get_interior(f, i, j, k));
                        if a.to_bits() != b.to_bits() {
                            return Some(format!(
                                "leaf {leaf} field {f} cell ({i}, {j}, {k}): {a:e} vs {b:e}"
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}
