//! The one harness that checks the paper's performance switches change
//! timings, never results: SIMD width (Figure 7), the same-locality ghost
//! shortcut (Figure 8), multipole task splitting (Figure 9) and the
//! distribution over localities, and with them the stepper, the granularity
//! tuner and mid-run regridding.
//!
//! A [`Problem`] is a scenario, a step count and an optional regrid
//! schedule.  Its reference run — `SimOptions::default()` on a one-locality,
//! two-worker cluster — is computed once per test binary and shared by
//! every test in it.  Every other configuration ([`Config`]) is compared to
//! it **bit for bit**: the initial ledger, then per step Δt, the
//! conservation ledger, the accumulated `mass_outflow`, the regrid outcome
//! and the ghost link count, then every word of every leaf's final state.
//! Runs are serialized, so the process-wide parcel counters see one run at
//! a time, and each run must show that it took the path it claims
//! ([`check_run`]), so no comparison passes vacuously.
//!
//! The rows live with the switch they test: `switch_equivalence.rs`,
//! `distributed_equivalence.rs`, `autotune_equivalence.rs`,
//! `simd_equivalence.rs` and `equivalence.rs`, which also holds the
//! `#[ignore]`d full product.

// Each test binary runs a subset of the problems and config builders.
#![allow(dead_code)]

use octo_repro::amr::{GhostConfig, NodeId};
use octo_repro::hpx::{counters, parcel_counters, SimCluster};
use octo_repro::octotiger::{
    ConservationLedger, Scenario, ScenarioKind, SimOptions, Simulation, StepStats, NF,
};
use octo_repro::simd::VectorMode;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A physics problem: everything a [`Config`] must leave unchanged.
pub struct Problem {
    name: &'static str,
    /// Base level of the rotating star's tree, and the extra AMR levels
    /// where the star sits.
    level: u8,
    amr_extra: u8,
    gravity: bool,
    steps: usize,
    regrid: Option<Regrid>,
    reference: OnceLock<Run>,
}

/// Cadence-driven regridding during a run.
struct Regrid {
    cadence: usize,
    max_level: u8,
    refine: f64,
    coarsen: f64,
    /// From this step on nothing refines and every octet may coarsen, so
    /// the run must coarsen as well as refine.
    collapse_from: Option<usize>,
}

impl Problem {
    const fn new(
        name: &'static str,
        (level, amr_extra): (u8, u8),
        gravity: bool,
        steps: usize,
        regrid: Option<Regrid>,
    ) -> Problem {
        Problem {
            name,
            level,
            amr_extra,
            gravity,
            steps,
            regrid,
            reference: OnceLock::new(),
        }
    }
}

/// The rotating star on a uniform level-2 tree: 64 leaves of 4³ cells.
pub static UNIFORM: Problem = Problem::new("uniform", (2, 0), true, 10, None);
/// One extra AMR level where the star sits: mixed-level leaves, so shard
/// boundaries cut through refinement transitions.
pub static REFINED: Problem = Problem::new("refined", (2, 1), true, 10, None);
/// Regrid before every third step at the star's density: the tree
/// refines mid-run and every cached plan is rebuilt at the new version.
pub static REGRID: Problem = Problem::new(
    "regrid",
    (2, 0),
    true,
    10,
    Some(Regrid {
        cadence: 3,
        max_level: 3,
        refine: 1.0,
        coarsen: 1e-8,
        collapse_from: None,
    }),
);
/// Regrid before every second step: the first pass refines every leaf
/// (8 → 64), and from step 3 every octet collapses (→ 8 → 1).
pub static ADAPTIVE: Problem = Problem::new(
    "adaptive",
    (1, 0),
    true,
    7,
    Some(Regrid {
        cadence: 2,
        max_level: 2,
        refine: 0.0,
        coarsen: 0.0,
        collapse_from: Some(3),
    }),
);
/// Eight leaves, two steps, with and without gravity.
pub static SMALL: Problem = Problem::new("small", (1, 0), true, 2, None);
pub static SMALL_HYDRO: Problem = Problem::new("small, no gravity", (1, 0), false, 2, None);

/// One point in the configuration space: every field is a switch that
/// must not change the physics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Simulated localities of the cluster, and workers per locality.
    pub cluster: (usize, usize),
    /// `SimOptions::localities`: shards of the gravity solve (clamped to
    /// the cluster).
    pub localities: usize,
    pub width: VectorMode,
    pub pipeline: bool,
    pub autotune: bool,
    pub tasks_per_multipole_kernel: usize,
    pub direct_local_access: bool,
}

/// `SimOptions::default()` on a one-locality, two-worker cluster.
pub const REFERENCE: Config = Config {
    cluster: (1, 2),
    localities: 1,
    width: VectorMode::Sve512,
    pipeline: false,
    autotune: false,
    tasks_per_multipole_kernel: 1,
    direct_local_access: true,
};

impl Config {
    /// `n` localities of two workers, the gravity solve sharded over all.
    pub const fn sharded(n: usize) -> Config {
        Config {
            cluster: (n, 2),
            localities: n,
            ..REFERENCE
        }
    }

    /// Same options on a different cluster shape.
    pub const fn on(self, localities: usize, workers: usize) -> Config {
        Config {
            cluster: (localities, workers),
            ..self
        }
    }

    pub const fn gravity_localities(self, localities: usize) -> Config {
        Config { localities, ..self }
    }

    pub const fn scalar(self) -> Config {
        Config {
            width: VectorMode::Scalar,
            ..self
        }
    }

    pub const fn pipelined(self) -> Config {
        Config {
            pipeline: true,
            ..self
        }
    }

    pub const fn tuned(self) -> Config {
        Config {
            autotune: true,
            ..self
        }
    }

    pub const fn split(self, tasks_per_multipole_kernel: usize) -> Config {
        Config {
            tasks_per_multipole_kernel,
            ..self
        }
    }

    pub const fn no_direct(self) -> Config {
        Config {
            direct_local_access: false,
            ..self
        }
    }

    fn apply(self, opts: &mut SimOptions) {
        opts.localities = self.localities;
        opts.vector_mode = self.width;
        opts.pipeline = self.pipeline;
        opts.autotune = self.autotune;
        opts.gravity_opts.tasks_per_multipole_kernel = self.tasks_per_multipole_kernel;
        opts.ghost = GhostConfig {
            direct_local_access: self.direct_local_access,
        };
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = match self.width {
            VectorMode::Scalar => 1,
            VectorMode::Sve512 => 8,
        };
        let stepper = if self.pipeline {
            "pipelined"
        } else {
            "barrier"
        };
        let (n, workers) = self.cluster;
        write!(
            f,
            "W={width} N={} on {n}x{workers}, {stepper}",
            self.localities
        )?;
        if self.autotune {
            f.write_str(", tuned")?;
        }
        if self.tasks_per_multipole_kernel != 1 {
            write!(f, ", {} multipole tasks", self.tasks_per_multipole_kernel)?;
        }
        if !self.direct_local_access {
            f.write_str(", direct access off")?;
        }
        Ok(())
    }
}

/// The per-step quantities that must match bit for bit.
const RECORDED: [&str; 10] = [
    "Δt",
    "mass",
    "gas energy",
    "x momentum",
    "y momentum",
    "z momentum",
    "Lz",
    "primary tracer mass",
    "secondary tracer mass",
    "mass outflow",
];

/// One step's record; the first one is the ledger before the first step.
struct Record {
    values: [f64; 10],
    /// Leaves refined, octets coarsened, ghost links.
    counts: [u64; 3],
}

impl Record {
    fn new(sim: &Simulation, stats: Option<&StepStats>) -> Record {
        let l = ConservationLedger::measure(&sim.grid);
        let dt = stats.map_or(0.0, |s| s.dt);
        let [px, py, pz] = l.momentum;
        let [m1, m2] = l.component_mass;
        Record {
            values: [
                dt,
                l.mass,
                l.gas_energy,
                px,
                py,
                pz,
                l.angular_momentum_z,
                m1,
                m2,
                sim.mass_outflow,
            ],
            counts: stats.map_or([0; 3], |s| {
                [s.regrid_refined, s.regrid_derefined, s.ghost_links_total]
            }),
        }
    }
}

/// What one run reports.
struct Run {
    records: Vec<Record>,
    /// Final state: leaves in sorted order, every field's words.
    state: Vec<(NodeId, Vec<u64>)>,
    stats: Vec<StepStats>,
    gravity_parcels: u64,
    total_parcels: u64,
    plans_rebuilt: u64,
    /// Steps timed under each width's apex label, scalar then SVE.
    width_steps: [u64; 2],
}

/// Runs hold this, so each run's parcel-counter delta is its own traffic.
/// It guards no data, so a lock poisoned by a failed run is still sound.
static SERIAL: Mutex<()> = Mutex::new(());

fn execute(problem: &Problem, cfg: Config) -> Run {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = SimCluster::new(cfg.cluster.0, cfg.cluster.1);
    let scenario = Scenario::build(
        ScenarioKind::RotatingStar,
        &cluster,
        problem.level,
        problem.amr_extra,
        4,
    );
    let mut opts = SimOptions::default();
    opts.omega = scenario.omega;
    opts.gravity = problem.gravity;
    cfg.apply(&mut opts);
    if let Some(r) = &problem.regrid {
        opts.regrid_cadence = Some(r.cadence);
        opts.regrid_max_level = r.max_level;
        opts.regrid_refine_threshold = r.refine;
        opts.regrid_coarsen_threshold = r.coarsen;
    }
    let mut sim = Simulation::new(scenario.grid, opts);
    let parcels = parcel_counters().snapshot();
    let mut records = vec![Record::new(&sim, None)];
    let mut stats = Vec::with_capacity(problem.steps);
    for step in 0..problem.steps {
        if problem.regrid.as_ref().and_then(|r| r.collapse_from) == Some(step) {
            sim.opts.regrid_refine_threshold = f64::INFINITY;
            sim.opts.regrid_coarsen_threshold = f64::INFINITY;
        }
        let s = sim.step(&cluster);
        records.push(Record::new(&sim, Some(&s)));
        stats.push(s);
    }
    let parcels = parcel_counters().snapshot().since(&parcels);
    let rebuilt = counters::select(&sim.counters(&cluster), "/octotiger/regrid/plan-rebuilt");
    let mut leaves = sim.grid.leaves();
    leaves.sort();
    let state = leaves
        .into_iter()
        .map(|leaf| {
            let handle = sim.grid.grid(leaf);
            let g = handle.read();
            let bits = (0..NF)
                .flat_map(|f| g.field(f).iter().map(|v| v.to_bits()))
                .collect();
            (leaf, bits)
        })
        .collect();
    cluster.shutdown();
    Run {
        records,
        state,
        stats,
        gravity_parcels: parcels.gravity_count(),
        total_parcels: parcels.total_count(),
        plans_rebuilt: rebuilt[0].1,
        width_steps: ["step:simd-scalar", "step:simd-sve512"].map(|l| sim.apex.stats(l).count),
    }
}

/// The checks that make a comparison meaningful: the run took the path its
/// configuration claims.
fn check_run(problem: &Problem, cfg: Config, run: &Run) {
    let what = format!("{}, {cfg}", problem.name);
    let steps = problem.steps as u64;

    let shards = cfg.localities.min(cfg.cluster.0);
    if problem.gravity && shards > 1 {
        assert!(run.gravity_parcels > 0, "{what}: no gravity parcels moved");
    } else {
        assert_eq!(
            run.gravity_parcels, 0,
            "{what}: unsharded solve sent parcels"
        );
    }
    if cfg.cluster.0 == 1 && cfg.direct_local_access {
        // Without direct access even same-locality ghosts travel as parcels.
        assert_eq!(run.total_parcels, 0, "{what}: one locality sent parcels");
    }

    let changing = run
        .stats
        .iter()
        .filter(|s| s.regrid_refined + s.regrid_derefined > 0)
        .count() as u64;
    if let Some(r) = &problem.regrid {
        let refined: u64 = run.stats.iter().map(|s| s.regrid_refined).sum();
        let derefined: u64 = run.stats.iter().map(|s| s.regrid_derefined).sum();
        assert!(refined > 0, "{what}: the regrid passes never refined");
        if r.collapse_from.is_some() {
            assert!(derefined > 0, "{what}: the regrid passes never coarsened");
        }
    }
    // One rebuild per cached plan per topology-changing pass: the
    // interaction plan, plus the halo plan when the solve is sharded.
    let plans = match (problem.gravity, shards) {
        (false, _) => 0,
        (true, 1) => 1,
        _ => 2,
    };
    assert_eq!(
        run.plans_rebuilt,
        plans * changing,
        "{what}: plan rebuilds vs {changing} topology changes"
    );

    for s in &run.stats {
        assert_eq!(s.tuner.is_some(), cfg.autotune, "{what}: tuner snapshot");
    }
    if let Some(t) = run.stats.last().and_then(|s| s.tuner) {
        // The tuner climbs the multipole split on the `gravity:kernels`
        // window, which a run without gravity never opens.
        if problem.gravity {
            assert!(t.probes > 0, "{what}: the tuner never probed");
        } else {
            assert_eq!(t.probes, 0, "{what}: the tuner probed without gravity");
        }
        assert_eq!(
            t.topology_reprobes, changing,
            "{what}: the tuner must re-probe once per topology change"
        );
    }

    for s in &run.stats {
        assert_eq!(
            s.ghost_links_resolved, s.ghost_links_total,
            "{what}: undrained ghost links"
        );
        if !cfg.pipeline {
            assert_eq!(
                s.overlapped_tasks, 0,
                "{what}: the barrier stepper overlapped"
            );
        }
        assert_eq!(s.vector_mode, cfg.width, "{what}: reported width");
    }
    let direct: u64 = run.stats.iter().map(|s| s.direct_ghost_links).sum();
    if cfg.direct_local_access {
        assert!(direct > 0, "{what}: no ghost link took the direct path");
    } else {
        assert_eq!(direct, 0, "{what}: direct access is off");
    }

    let expected = match cfg.width {
        VectorMode::Scalar => [steps, 0],
        VectorMode::Sve512 => [0, steps],
    };
    assert_eq!(run.width_steps, expected, "{what}: steps per width label");
}

fn assert_identical(problem: &Problem, cfg: Config, reference: &Run, run: &Run) {
    let what = format!("{}, {cfg} vs reference {REFERENCE}", problem.name);
    for (step, (a, b)) in reference.records.iter().zip(&run.records).enumerate() {
        for ((name, x), y) in RECORDED.iter().zip(a.values).zip(b.values) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name} diverged at step {step}: {x:e} vs {y:e}"
            );
        }
        let counts = ["leaves refined", "octets coarsened", "ghost links"];
        for ((name, x), y) in counts.iter().zip(a.counts).zip(b.counts) {
            assert_eq!(x, y, "{what}: {name} diverged at step {step}");
        }
    }
    assert_eq!(reference.state.len(), run.state.len(), "{what}: leaf count");
    for ((la, a), (lb, b)) in reference.state.iter().zip(&run.state) {
        assert_eq!(la, lb, "{what}: leaf set diverged");
        if let Some(w) = a.iter().zip(b).position(|(x, y)| x != y) {
            let cells = a.len() / NF;
            let (x, y) = (f64::from_bits(a[w]), f64::from_bits(b[w]));
            panic!(
                "{what}: leaf {la} field {} cell {} diverged: {x:e} vs {y:e}",
                w / cells,
                w % cells
            );
        }
    }
}

/// Run every row of `problem` and compare it with the shared reference.
/// A row whose other-stepper twin ran before it must also count the same
/// direct ghost links.
pub fn check(problem: &'static Problem, rows: &[Config]) {
    let reference = problem.reference.get_or_init(|| {
        let run = execute(problem, REFERENCE);
        check_run(problem, REFERENCE, &run);
        run
    });
    let direct_links =
        |run: &Run| -> Vec<u64> { run.stats.iter().map(|s| s.direct_ghost_links).collect() };
    let mut seen = HashMap::from([(REFERENCE, direct_links(reference))]);
    for &cfg in rows {
        let run = execute(problem, cfg);
        check_run(problem, cfg, &run);
        assert_identical(problem, cfg, reference, &run);
        let links = direct_links(&run);
        let twin = Config {
            pipeline: !cfg.pipeline,
            ..cfg
        };
        if let Some(other) = seen.get(&twin) {
            assert_eq!(
                other, &links,
                "{}, {cfg}: the steppers count different direct ghost links",
                problem.name
            );
        }
        seen.insert(cfg, links);
    }
}
