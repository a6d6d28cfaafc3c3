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
//! it: it builds a `SimCluster` of 1, 2 or 4 localities over the model
//! checker's one [`Runtime::deterministic`] pool, runs the real pipelined
//! `Simulation::step` there, and compares the run bit for bit with
//! `step_barrier` run on a threaded cluster of as many localities: every
//! step's Δt, the run's `mass_outflow` (folded outside the grid) and the
//! final state.  A parcel is a task on its destination's runtime, so at
//! N > 1 the seed also interleaves the ghost exchange's parcel links and
//! the sharded solve.  Per seed it reports a stall (a dropped or cyclic
//! gate, a lost parcel), a contained panic, or the first quantity whose
//! bits differ: a Δt or the outflow (a float fold in task-completion
//! order), or a `(leaf, field, cell)` (a missing gate that let a kernel
//! race its neighbour's pack or unpack).

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
    /// Refine the octant at the origin before the first step (15 leaves):
    /// the fills then prolong onto its fine leaves' outer faces and
    /// restrict onto their coarse neighbours' faces.
    refined: bool,
    /// Localities the leaves are sharded over (`SimOptions::localities`).
    localities: usize,
}

/// What a run leaves behind, compared bit for bit: every step's Δt, the
/// run's `mass_outflow`, and every leaf's final sub-grid, in leaf order.
pub struct RunRecord {
    dts: Vec<f64>,
    mass_outflow: f64,
    leaves: Vec<(NodeId, SubGrid)>,
}

impl RunRecord {
    /// Leaves of the final tree.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

impl RealStep {
    /// Two pipelined steps on the unchanged tree, on `localities`.
    pub const fn two_steps(localities: usize) -> RealStep {
        RealStep {
            steps: 2,
            coarsen: false,
            refined: false,
            localities,
        }
    }
    /// Two pipelined steps on a tree with coarse-fine faces (one octant
    /// refined), on `localities`.
    pub const fn two_steps_refined(localities: usize) -> RealStep {
        RealStep {
            refined: true,
            ..Self::two_steps(localities)
        }
    }
    /// Two steps, a coarsening regrid, then a third step, on `localities`.
    pub const fn coarsen_then_step(localities: usize) -> RealStep {
        RealStep {
            steps: 3,
            coarsen: true,
            refined: false,
            localities,
        }
    }
    /// Every configuration, as `hpx-check model` runs them.
    pub const ALL: [RealStep; 7] = [
        Self::two_steps(1),
        Self::two_steps(2),
        Self::two_steps(4),
        Self::coarsen_then_step(1),
        Self::coarsen_then_step(2),
        Self::two_steps_refined(1),
        Self::two_steps_refined(2),
    ];

    /// Build the scenario on `cluster`, take the steps with the chosen
    /// stepper, and record the run.  A refined configuration whose tree
    /// has no prolonged and no restricted ghost link panics: it would have
    /// checked a uniform tree again.
    fn simulate(&self, cluster: &SimCluster, pipeline: bool) -> RunRecord {
        let scenario = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
        if self.refined {
            scenario
                .grid
                .refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
            let links = scenario.grid.link_specs();
            let jumps = |finer: bool| {
                (links.iter().filter(|l| !l.is_boundary()))
                    .filter(|l| l.sources[0].level() != l.leaf.level())
                    .filter(|l| (l.sources[0].level() > l.leaf.level()) == finer)
                    .count()
            };
            let (prolonged, restricted) = (jumps(false), jumps(true));
            assert!(
                prolonged > 0 && restricted > 0,
                "{self:?}: {prolonged} prolonged and {restricted} restricted ghost links"
            );
        }
        let mut opts = SimOptions::default();
        opts.omega = scenario.omega;
        opts.gravity = true;
        opts.pipeline = pipeline;
        opts.localities = self.localities;
        opts.regrid_cadence = self.coarsen.then_some(2);
        opts.regrid_refine_threshold = f64::INFINITY;
        opts.regrid_coarsen_threshold = f64::INFINITY;
        let mut sim = Simulation::new(scenario.grid, opts);
        let dts = (0..self.steps).map(|_| sim.step(cluster).dt).collect();
        let leaves = (sim.grid.leaves().into_iter())
            .map(|leaf| (leaf, sim.grid.grid(leaf).read().clone()))
            .collect();
        RunRecord {
            dts,
            mass_outflow: sim.mass_outflow,
            leaves,
        }
    }

    /// The reference: the same run with `step_barrier` on a threaded
    /// cluster of as many localities, one worker each.
    pub fn reference(&self) -> RunRecord {
        let cluster = SimCluster::new(self.localities, 1);
        let state = self.simulate(&cluster, false);
        cluster.shutdown();
        state
    }

    /// Run the pipelined steps on the deterministic pool `rt` (the
    /// [`crate::ModelChecker`] closure), every locality on that one pool,
    /// and panic, naming the first differing quantity, if the run differs
    /// from `reference` in any bit.  A multi-locality run that sent no
    /// parcel panics too: it would have checked the one-locality path.
    pub fn run(&self, rt: &Runtime, reference: &RunRecord) {
        let cluster = SimCluster::from_runtimes(vec![rt.clone(); self.localities]);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.simulate(&cluster, true)));
        let parcels = cluster.total_counters().parcels_sent;
        cluster.shutdown();
        let record = outcome.unwrap_or_else(|panic| resume_unwind(panic));
        assert!(
            self.localities == 1 || parcels > 0,
            "{self:?}: {} localities sent no parcel",
            self.localities
        );
        if let Some(diff) = first_difference(&record, reference) {
            panic!("{self:?}: run differs from step_barrier at {diff}");
        }
    }
}

/// The first quantity whose bits differ, pipelined vs barrier: a step's
/// Δt, the outflow, the leaf set, or an interior cell as `leaf L field F
/// cell (i, j, k)`.
fn first_difference(record: &RunRecord, reference: &RunRecord) -> Option<String> {
    for (step, (a, b)) in record.dts.iter().zip(&reference.dts).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Some(format!("step {step}'s Δt: {a:e} vs {b:e}"));
        }
    }
    let (a, b) = (record.mass_outflow, reference.mass_outflow);
    if a.to_bits() != b.to_bits() {
        return Some(format!("mass_outflow: {a:e} vs {b:e}"));
    }
    let (state, reference) = (&record.leaves, &reference.leaves);
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
