//! The time-step driver: Octo-Tiger's per-step orchestration.
//!
//! One step (paper Sections IV-B/IV-C): solve gravity with the FMM, pick
//! the global fixed Δt from the CFL reduction, then run three SSP-RK3
//! stages, each preceded by a ghost-layer exchange.  Every leaf's hydro
//! RHS is an independently launched kernel — the paper counts "multiple
//! (> 10) kernel launches per sub-grid in each time-step", which is
//! exactly what the launch counter here reproduces — and leaves execute as
//! HPX tasks on their owner locality's worker pool.
//!
//! The step's physics is spelled once and scheduled twice.  The pieces —
//! the gravity dispatch (`solve_gravity`: one sharded solve, of which one
//! locality is the local case), the Δt reduction (`dt_term`), the
//! prologue (`Simulation::begin_step`: the u⁰ store and boundary-face
//! masks), the gated per-leaf face-slab ghost fill
//! (`DistGrid::exchange_ghosts_pipelined`), the per-leaf RK-stage kernel
//! (`StepShared::run_stage`, in place on the leaf's grid; stage 0 saves
//! u⁰ first), the fixed-order outflow fold and the [`StepStats`]
//! assembly (`Simulation::finish_step`) — are shared by two short
//! schedulers: `Simulation::step_barrier` joins after every piece,
//! `Simulation::step_pipelined` chains the same pieces as one future graph
//! (DESIGN.md §4 records the measurements that keep both).
//!
//! The driver reports the paper's throughput metric: **processed cells per
//! second** (Figures 4–10 all plot cells/s or sub-grids/s).

use crate::diag::ConservationLedger;
use crate::gravity::direct::PointMasses;
use crate::gravity::{GravityOptions, GravitySolver, LeafField, LeafSources};
use crate::hydro::{self, HydroOptions, SourceInput};
use crate::state::{field, NF};
use crate::units::BOX_SIZE;
use crate::workspace::{self, StagePool, StageWorkspace};
use hpx_rt::{Future, SimCluster};
use kokkos_rs::pool::ScratchArena;
use kokkos_rs::ExecSpace;
use octree::{DistGrid, GhostConfig, NodeId, SubGrid};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use sve_simd::VectorMode;

/// All the paper's run-time switches in one place.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// SIMD width (Figure 7: scalar vs SVE).
    pub vector_mode: VectorMode,
    /// Ghost-exchange configuration (Figure 8: communication optimization).
    pub ghost: GhostConfig,
    /// Solve self-gravity each step.
    pub gravity: bool,
    /// FMM options (Figure 9: `tasks_per_multipole_kernel`).
    pub gravity_opts: GravityOptions,
    /// Rotating-frame frequency (from the scenario's SCF model).
    pub omega: f64,
    /// CFL number.
    pub cfl: f64,
    /// Futurized per-leaf stepper: instead of a barrier between ghost
    /// exchange and RK stage, every leaf's stage kernel chains on one gate
    /// over its own ghost fill and the fills reading it (its face
    /// neighbours'), so interior leaves of stage N+1 run while boundary
    /// exchanges of stage N are in flight and the gravity FMM overlaps the
    /// first stage's ghost fill.  Bit-identical
    /// physics to the barrier path (see `tests/switch_equivalence.rs`).
    pub pipeline: bool,
    /// Simulated localities to shard the gravity octree over (clamped to
    /// the cluster's locality count).  The leaves are partitioned with
    /// [`octree::partition_morton`], each shard's kernels run on its own
    /// locality's runtime, and every cross-locality interaction moves as a
    /// typed parcel (metered under `/octotiger/parcels/*`); at `1` — the
    /// reference configuration — the same solve has nothing to exchange.
    /// Bit-identical physics at every count (`tests/distributed_equivalence.rs`).
    pub localities: usize,
    /// Mid-run adaptive regridding: every `Some(k)` steps the driver runs
    /// the density criterion pass ([`Simulation::regrid`]) before the
    /// step proper.  A pass that changes the tree bumps its
    /// `topology_version`; the step that follows rebuilds the gravity
    /// plans and the ghost plan at the new version and provisions u⁰
    /// buffers for the new leaves only.  `None` — the default — never
    /// regrids mid-run.
    pub regrid_cadence: Option<usize>,
    /// Maximum refinement level the cadence-driven criterion pass may
    /// create (the `max_level` argument of [`Simulation::regrid`]).
    pub regrid_max_level: u8,
    /// Refine a leaf when its peak interior density exceeds this (paper
    /// Section IV-C: "AMR is based on the density field").
    pub regrid_refine_threshold: f64,
    /// Coarsen an octet back into its parent when every child's peak
    /// density falls below this (`0.0` disables coarsening).
    pub regrid_coarsen_threshold: f64,
    /// Online auto-tuning of task granularity (the closed-loop Figure 9):
    /// an [`hpx_rt::Tuner`] reads each step's `gravity:kernels` apex
    /// window and hill-climbs
    /// [`GravityOptions::tasks_per_multipole_kernel`] from its configured
    /// value, and nothing else.  The split flows through a
    /// chunk-count-independent launch, so physics is bit-identical
    /// tuner-on vs tuner-off (see `tests/autotune_equivalence.rs`).  Off
    /// by default.
    pub autotune: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            vector_mode: VectorMode::default(),
            ghost: GhostConfig::default(),
            gravity: true,
            gravity_opts: GravityOptions::default(),
            omega: 0.0,
            cfl: 0.4,
            pipeline: false,
            localities: 1,
            regrid_cadence: None,
            regrid_max_level: 3,
            regrid_refine_threshold: 1.0,
            regrid_coarsen_threshold: 0.0,
            autotune: false,
        }
    }
}

/// Telemetry of one step.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// SIMD backend the step's kernels ran on (Figure 7 axis).
    pub vector_mode: VectorMode,
    /// Time step used.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Interior cells processed (3 RK stages × cells).
    pub cells_processed: u64,
    /// Wall-clock seconds.
    pub elapsed_seconds: f64,
    /// The paper's throughput metric.
    pub cells_per_second: f64,
    /// Kernel launches this step (hydro RHS + stage combines + gravity).
    pub kernel_launches: u64,
    /// Ghost links served via the direct local path (Figure 8 numerator).
    pub direct_ghost_links: u64,
    /// Mass that left through the outflow boundary during this step.
    pub mass_outflow: f64,
    /// (leaf, direction) ghost links this step across all RK stages.
    pub ghost_links_total: u64,
    /// Ghost links whose data actually arrived (equals the total when the
    /// step drained cleanly; the pipelined stepper asserts this).
    pub ghost_links_resolved: u64,
    /// Communication/compute overlap: leaf stage kernels that started while
    /// their stage's ghost exchange still had unresolved links elsewhere.
    /// Always 0 for the barrier stepper, which fully drains each exchange
    /// before launching any kernel.
    pub overlapped_tasks: u64,
    /// Scratch-pool checkouts served from a free list (cumulative across
    /// the run; kernel-scratch, gravity, and ghost-payload pools combined).
    pub scratch_hits: u64,
    /// Scratch-pool checkouts that had to allocate (cumulative).  In steady
    /// state this stops growing after the first step.
    pub scratch_misses: u64,
    /// Bytes currently checked out of the scratch pools.
    pub scratch_bytes_in_use: u64,
    /// High-water mark of bytes simultaneously checked out.
    pub scratch_high_water: u64,
    /// FMM interaction counts, if gravity ran.
    pub gravity_stats: Option<crate::gravity::solver::SolveStats>,
    /// Whether this step's gravity solve reused the cached interaction
    /// plan (`false` when the plan was rebuilt — first step, post-regrid,
    /// θ change — and when gravity is off).
    pub gravity_plan_hit: bool,
    /// Leaves refined by this step's cadence-driven regrid pass (0 when no
    /// regrid ran; the run's total is `/octotiger/regrid/refined`).
    pub regrid_refined: u64,
    /// Octets coarsened by this step's cadence-driven regrid pass (the
    /// run's total is `/octotiger/regrid/derefined`).
    pub regrid_derefined: u64,
    /// Always `false`: plans are rebuilt per `topology_version`, never
    /// patched (DESIGN.md §7).  Kept because `benchmark/` reads it.
    pub gravity_plan_patched: bool,
    /// The granularity tuner's chosen split and activity counts after
    /// this step (`None` unless [`SimOptions::autotune`] is on).
    pub tuner: Option<hpx_rt::TunerSnapshot>,
}

/// Breakdown of one [`Simulation::regrid`] criterion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridOutcome {
    /// Leaves split into octets (including 2:1-balance drag-alongs).
    pub refined: usize,
    /// Octets collapsed back into their parent leaf.
    pub derefined: usize,
}

/// What one gravity solve hands the stage kernels: the per-leaf fields
/// (shared by every stage task) and the interaction counts.
type GravityResult = (
    Arc<HashMap<NodeId, LeafField>>,
    crate::gravity::solver::SolveStats,
);

/// The one gravity dispatch of both schedulers: acquire the interaction
/// plan and the halo plan sharding it over `rts` (both cached, keyed on
/// the same topology version), then run the sharded solve — one locality
/// is simply the shard count at which nothing crosses a boundary.  Plan
/// acquisition (cache hit: no traversal) and the dense kernels are timed
/// separately, so the apex report shows what caching actually saves.
fn solve_gravity(
    solver: &GravitySolver,
    grid: &DistGrid,
    apex: &hpx_rt::Apex,
    sources: &Arc<HashMap<NodeId, LeafSources>>,
    rts: &[hpx_rt::Runtime],
) -> GravityResult {
    let plan = {
        let _p = apex.timer("gravity:plan");
        grid.with_tree(|t| solver.plan_for(t))
    };
    let _k = apex.timer("gravity:kernels");
    let owner = grid.with_tree(|t| octree::partition_morton(t, rts.len()));
    let dist = solver.dist_plan_for(&plan, &owner, rts.len());
    let (fields, stats) = solver.solve_distributed(&plan, &dist, sources, rts);
    (Arc::new(fields), stats)
}

/// What the schedulers count differently; everything else in
/// [`StepStats`] is assembled identically by `Simulation::finish_step`.
#[derive(Default)]
struct StepTally {
    /// Kernel launches beyond the stage and gravity kernels.
    extra_launches: u64,
    direct_ghost_links: u64,
    ghost_links_total: u64,
    ghost_links_resolved: u64,
    overlapped_tasks: u64,
}

/// The hydro options of `opts` (its vector width and CFL number).
fn hydro_options(opts: &SimOptions) -> HydroOptions {
    HydroOptions {
        vector_mode: opts.vector_mode,
        cfl: opts.cfl,
    }
}

/// The Δt reduction of both steppers: per leaf `dt_term`, (cell width,
/// fastest signal speed), folded by `dt_join` from this identity, then
/// `dt_of`.  min and max associate and commute: every fold order gives
/// the same bits.
const DT_IDENTITY: (f64, f64) = (f64::INFINITY, 1e-30);

fn dt_term(opts: &SimOptions, n: usize, leaf: NodeId, u: &SubGrid) -> (f64, f64) {
    let h = leaf.cube().1 * BOX_SIZE / n as f64;
    (h, hydro::max_signal_speed(u, &hydro_options(opts)))
}

fn dt_join(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0.min(b.0), a.1.max(b.1))
}

fn dt_of(opts: &SimOptions, (h_min, max_speed): (f64, f64)) -> f64 {
    opts.cfl * h_min / max_speed
}

/// What every stage kernel of one step reads, shared by all stage tasks.
struct StepShared {
    grid: DistGrid,
    opts: SimOptions,
    /// The step's leaves, in the fixed order the outflow ledger folds in.
    leaves: Vec<NodeId>,
    /// Each leaf's step-start state u⁰ (interior only), saved by the leaf's
    /// stage-0 task (`run_stage`).
    u0: HashMap<NodeId, Arc<parking_lot::Mutex<SubGrid>>>,
    /// The free list every stage task takes its buffers from.
    stage_workspaces: Arc<StagePool>,
    /// Each leaf's domain-boundary face mask, one flag per face in
    /// `Dir::faces` order: [-x, +x, -y, +y, -z, +z].
    boundary_masks: Arc<HashMap<NodeId, [bool; 6]>>,
    /// Per-leaf boundary outflow rates of each stage.  Folded in fixed
    /// leaf order after the step's join ([`StepShared::fold_outflow`]): a
    /// shared `+=` in task-completion order would make the mass ledger
    /// scheduling-dependent (float addition does not associate), breaking
    /// bit-reproducibility across runs and between vector widths.
    outflow_rates: [parking_lot::Mutex<HashMap<NodeId, f64>>; 3],
}

impl StepShared {
    /// The per-leaf RK-stage kernel: at stage 0 save the leaf's interior
    /// into its u⁰ entry, then compute the hydro RHS (with the gravity and
    /// rotating-frame sources) from the leaf's grid and apply stage
    /// `stage`'s SSP-RK3 combination to the grid's interior in place (its
    /// ghost words keep the fill's values until the next fill).  The
    /// scheduler guarantees the leaf's face ghost slabs are filled and that
    /// no other task touches the leaf's grid or u⁰ meanwhile: no fill reads
    /// the interior (the barrier's join, or `outgoing_packed` in the stage
    /// gate), and the next fill waits for the update.  Only the leaf's own
    /// stage tasks write its interior, so at stage 0 it still holds uⁿ:
    /// the u⁰ copy runs on the owner's worker, under the `try_lock` the
    /// combine takes anyway, not serially before the step.  The task's `rhs` and
    /// kernel scratch are a [`StageWorkspace`] taken off the simulation's
    /// free list when it starts and given back when it ends, both outside
    /// the kernel body.
    fn run_stage(
        &self,
        leaf: NodeId,
        stage: usize,
        dt: f64,
        gravity: Option<&HashMap<NodeId, LeafField>>,
    ) {
        let opts = &self.opts;
        let handle = self.grid.grid(leaf);
        let (corner, size) = leaf.cube();
        let nn = self.grid.n();
        let h = size * BOX_SIZE / nn as f64;
        let origin = corner.map(|c| (c + 0.5 * size / nn as f64 - 0.5) * BOX_SIZE);
        let mut u0 = self.u0[&leaf]
            .try_lock()
            .expect("leaf u⁰ aliased by a concurrent task");
        if stage == 0 {
            u0.copy_interior_from(&handle.read());
        }
        let mut ws = self.stage_workspaces.take(nn, self.grid.ghost_width());
        let StageWorkspace { rhs, scratch } = &mut ws;
        let src = SourceInput {
            gravity: gravity
                .map(|m| &m[&leaf])
                .map(|f| [&f.gx[..], &f.gy[..], &f.gz[..]]),
            omega: opts.omega,
            origin,
            h,
            boundary_faces: self.boundary_masks[&leaf],
        };
        let info = hydro::compute_rhs(&handle.read(), rhs, &src, &hydro_options(opts), scratch);
        self.outflow_rates[stage]
            .lock()
            .insert(leaf, info.boundary_mass_outflow_rate);
        let mode = opts.vector_mode;
        // `None`: the stage input is the grid itself, combined in place.
        hydro::rk3::stage(stage, &u0, None, rhs, dt, &mut handle.write(), mode);
        self.stage_workspaces.give(ws);
    }

    /// Mass that left through the domain boundary this step: the stages'
    /// per-leaf rates, summed in leaf order and integrated with the
    /// effective Shu-Osher weights of the three RHS evaluations in the
    /// final update, uⁿ⁺¹ = uⁿ + Δt (L⁰/6 + L¹/6 + 2L²/3).
    fn fold_outflow(&self, dt: f64) -> f64 {
        let stage_weight = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0];
        let mut step_outflow = 0.0;
        for (rates, weight) in self.outflow_rates.iter().zip(stage_weight) {
            let rates = rates.lock();
            let stage_rate: f64 = self.leaves.iter().map(|l| rates[l]).sum();
            step_outflow += weight * dt * stage_rate;
        }
        step_outflow
    }
}

/// A running simulation bound to a cluster's localities.
pub struct Simulation {
    /// The distributed AMR grid.
    pub grid: DistGrid,
    /// Options (mutable between steps, like re-launching with new flags).
    pub opts: SimOptions,
    /// Current simulation time.
    pub time: f64,
    /// Steps taken.
    pub step_count: u64,
    /// Cumulative mass that left the domain through the outflow boundary
    /// (tracked so the conservation ledger closes to machine precision).
    pub mass_outflow: f64,
    /// APEX-style phase profiler (paper conclusion: "more runs using HPX's
    /// performance counters or APEX are needed" — here it is built in).
    pub apex: hpx_rt::Apex,
    /// The simulation's scratch arena: kernel scratch and gravity fields
    /// check their buffers out of this pool.
    scratch: ScratchArena,
    /// Each leaf's step-start state u⁰, interior only (the RK combines
    /// read no ghost word of it), the one buffer a leaf keeps besides its
    /// grid; entries follow the leaf set (`ensure_workspaces`).
    u0: HashMap<NodeId, Arc<parking_lot::Mutex<SubGrid>>>,
    /// The stage tasks' free list of [`StageWorkspace`]s, about one per
    /// worker (`ensure_workspaces`).
    stage_workspaces: Arc<StagePool>,
    /// The persistent FMM solver: its cached interaction plan (and pooled
    /// expansion buffers) survive across steps, so a solve on an unchanged
    /// tree skips the dual-tree traversal entirely.
    gravity_solver: GravitySolver,
    /// The online granularity tuner ([`SimOptions::autotune`]); its chosen
    /// multipole split overrides the static one at the start of each step.
    tuner: Option<hpx_rt::Tuner>,
    /// Leaves refined / octets coarsened by every [`Simulation::regrid`]
    /// pass of this run (`/octotiger/regrid/{refined,derefined}`).
    regrid_totals: RegridOutcome,
}

impl Simulation {
    /// Wrap an initialized grid.
    pub fn new(grid: DistGrid, opts: SimOptions) -> Simulation {
        let scratch = ScratchArena::new();
        let gravity_solver = GravitySolver::with_scratch(opts.gravity_opts, scratch.clone());
        // The tuner's ladder: powers of two around Figure 9's 1 and 16,
        // climbed from the configured split.
        let tuner = opts.autotune.then(|| {
            let start = opts.gravity_opts.tasks_per_multipole_kernel.max(1);
            hpx_rt::Tuner::new(vec![1, 2, 4, 8, 16, 32], start)
        });
        Simulation {
            grid,
            opts,
            time: 0.0,
            step_count: 0,
            mass_outflow: 0.0,
            apex: hpx_rt::Apex::new(false),
            stage_workspaces: Arc::new(StagePool::new(scratch.clone())),
            scratch,
            u0: HashMap::new(),
            gravity_solver,
            tuner,
            regrid_totals: RegridOutcome::default(),
        }
    }

    /// This run's (plan-hit, plan-rebuild) counts of the persistent gravity
    /// solver (`/octotiger/gravity/plan-{hits,rebuilds}`).
    pub fn gravity_plan_counters(&self) -> (u64, u64) {
        self.gravity_solver.plan_counters()
    }

    /// Every named counter of this run, HPX-style, read from the object
    /// that counts it: the `/octotiger/{scratch,gravity,regrid,tuner}/...`
    /// names from this simulation's own pools, solver, regrid passes and
    /// tuner (zeros without [`SimOptions::autotune`]), the
    /// `/octotiger/memory/...` bytes of its u⁰ store and stage free list,
    /// then the process-wide `/octotiger/parcels/...` block and `cluster`'s
    /// per-locality `/threads|/lcos|/parcels{locality#i}/...` names.
    /// Narrow the listing with [`hpx_rt::counters::select`]
    /// (`"/octotiger/gravity/*"`).
    pub fn counters(&self, cluster: &SimCluster) -> Vec<(String, u64)> {
        let (hits, misses, bytes_in_use, high_water) = self.scratch_telemetry();
        let solver = &self.gravity_solver;
        let (plan_hits, plan_rebuilds) = solver.plan_counters();
        let (dist_hits, dist_rebuilds) = solver.dist_plan_counters();
        let tuner = self
            .tuner
            .as_ref()
            .map(hpx_rt::Tuner::snapshot)
            .unwrap_or_default();
        let own = [
            ("/octotiger/scratch/hits", hits),
            ("/octotiger/scratch/misses", misses),
            ("/octotiger/scratch/bytes-in-use", bytes_in_use),
            ("/octotiger/scratch/high-water", high_water),
            ("/octotiger/gravity/plan-hits", plan_hits),
            ("/octotiger/gravity/plan-rebuilds", plan_rebuilds),
            ("/octotiger/gravity/dist-plan-hits", dist_hits),
            ("/octotiger/gravity/dist-plan-rebuilds", dist_rebuilds),
            (
                "/octotiger/regrid/refined",
                self.regrid_totals.refined as u64,
            ),
            (
                "/octotiger/regrid/derefined",
                self.regrid_totals.derefined as u64,
            ),
            ("/octotiger/regrid/plan-rebuilt", solver.topology_rebuilds()),
            ("/octotiger/tuner/probes", tuner.probes),
            ("/octotiger/tuner/moves", tuner.moves),
            ("/octotiger/tuner/frozen", tuner.frozen),
            (
                "/octotiger/tuner/regressions-rejected",
                tuner.regressions_rejected,
            ),
            (
                "/octotiger/memory/step-start-bytes",
                self.u0.len() as u64 * workspace::grid_bytes(self.grid.n(), 0),
            ),
            (
                "/octotiger/memory/stage-workspace-bytes",
                self.stage_workspaces.bytes(),
            ),
        ];
        own.into_iter()
            .chain(hpx_rt::parcel_counters().snapshot().entries())
            .map(|(name, value)| (name.to_owned(), value))
            .chain(cluster.counters())
            .collect()
    }

    /// Make the u⁰ store follow the leaf set — drop the entries of leaves
    /// a regrid consumed, create the new leaves', keep every survivor's
    /// `Arc` — and top the stage free list up to one workspace per worker
    /// of `cluster`.  Stage tasks never block, so a worker runs one at a
    /// time and a warm step never finds the list empty (the sizing
    /// `GhostPlan::prewarm` uses for concurrently running fills).
    fn ensure_workspaces(&mut self, cluster: &SimCluster) {
        let n = self.grid.n();
        let gw = self.grid.ghost_width();
        let leaves = self.grid.leaves();
        let live: std::collections::HashSet<NodeId> = leaves.iter().copied().collect();
        self.u0.retain(|id, _| live.contains(id));
        for leaf in leaves {
            self.u0
                .entry(leaf)
                .or_insert_with(|| Arc::new(parking_lot::Mutex::new(SubGrid::new(n, 0, NF))));
        }
        let workers = (cluster.localities().iter()).map(|l| l.runtime().num_workers());
        self.stage_workspaces.prewarm(workers.sum(), n, gw);
    }

    /// Combined pool telemetry: the simulation arena plus the grid's
    /// ghost-payload pool, as the four `StepStats` scratch fields.
    fn scratch_telemetry(&self) -> (u64, u64, u64, u64) {
        let a = self.scratch.stats();
        let b = self.grid.scratch().stats();
        (
            a.hits + b.hits,
            a.misses + b.misses,
            a.bytes_in_use + b.bytes_in_use,
            a.high_water + b.high_water,
        )
    }

    /// Leaf-parallel execution: each locality runs its own leaves, one
    /// task per leaf, on its own worker pool, mirroring HPX's per-locality
    /// scheduling.
    fn for_each_leaf(&self, cluster: &SimCluster, f: impl Fn(NodeId) + Send + Sync + 'static) {
        let f = Arc::new(f);
        let mut futures: Vec<Future<()>> = Vec::new();
        for loc in cluster.localities() {
            let leaves = self.grid.leaves_of(loc.id());
            if leaves.is_empty() {
                continue;
            }
            let f = f.clone();
            let rt = loc.runtime().clone();
            let rt_inner = rt.clone();
            futures.push(rt.async_call(move || {
                let f = &*f;
                rt_inner.scope(|s| {
                    for leaf in leaves {
                        s.spawn(move || f(leaf));
                    }
                });
            }));
        }
        for fut in futures {
            fut.wait();
        }
    }

    /// Gather per-leaf point masses for the gravity solver.
    fn leaf_sources(&self) -> HashMap<NodeId, LeafSources> {
        let n = self.grid.n();
        let mut out = HashMap::new();
        for leaf in self.grid.leaves() {
            let (corner, size) = leaf.cube();
            let h = size / n as f64;
            let h_phys = h * BOX_SIZE;
            let vol = h_phys * h_phys * h_phys;
            let handle = self.grid.grid(leaf);
            let g = handle.read();
            let mut points = PointMasses::with_capacity(n * n * n);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let x = (corner[0] + (i as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        let y = (corner[1] + (j as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        let z = (corner[2] + (k as f64 + 0.5) * h - 0.5) * BOX_SIZE;
                        points.push([x, y, z], g.get_interior(field::RHO, i, j, k) * vol);
                    }
                }
            }
            out.insert(leaf, LeafSources { points });
        }
        out
    }

    /// Global CFL time step (fixed across the whole grid, per the paper).
    pub fn compute_dt(&self) -> f64 {
        let (opts, n) = (&self.opts, self.grid.n());
        let terms = (self.grid.leaves().into_iter())
            .map(|leaf| dt_term(opts, n, leaf, &self.grid.grid(leaf).read()));
        dt_of(opts, terms.fold(DT_IDENTITY, dt_join))
    }

    /// Advance one full RK3 step; returns the step telemetry.
    pub fn step(&mut self, cluster: &SimCluster) -> StepStats {
        // Options are mutable between steps: push the current FMM knobs
        // into the persistent solver (a θ change invalidates the cached
        // plan by itself, via the plan's validity key).
        self.gravity_solver.opts = GravityOptions {
            vector_mode: self.opts.vector_mode,
            ..self.opts.gravity_opts
        };
        // ---- Mid-run adaptive regrid (every `regrid_cadence` steps). ----
        // Runs before the u⁰ store is ensured, so both steppers see the new
        // topology; its version bump is what the step's plan lookups miss on.
        let regrid = match self.opts.regrid_cadence {
            Some(k) if self.step_count > 0 && self.step_count.is_multiple_of(k as u64) => {
                let _t = self.apex.timer("regrid:criterion_pass");
                self.regrid(
                    self.opts.regrid_max_level,
                    self.opts.regrid_refine_threshold,
                )
            }
            _ => RegridOutcome::default(),
        };
        // ---- Online granularity tuner (apply phase). ----
        // Runs after the regrid so `note_topology` sees the post-regrid
        // version: a topology change unfreezes the climb for exactly one
        // re-probe cycle.  The split is written here, through `&mut self`
        // before any kernel of the step launches, and every launch copies
        // it by value: no kernel can be re-split mid-launch (DESIGN.md §8).
        if let Some(t) = &mut self.tuner {
            let ver = self.grid.with_tree(|tr| tr.topology_version());
            t.note_topology(ver);
            self.gravity_solver.opts.tasks_per_multipole_kernel = t.current();
        }
        self.ensure_workspaces(cluster);
        let mut stats = if self.opts.pipeline {
            self.step_pipelined(cluster)
        } else {
            self.step_barrier(cluster)
        };
        stats.regrid_refined = regrid.refined as u64;
        stats.regrid_derefined = regrid.derefined as u64;
        // ---- Online granularity tuner (observe phase). ----
        // Feed the step's gravity-kernel window back, then close it so the
        // next step's observation is not diluted by this one.  Without
        // gravity there is no window, and the climb never starts.
        if let Some(tuner) = self.tuner.as_mut() {
            let g = self.apex.stats("gravity:kernels");
            if g.window_count > 0 {
                tuner.observe(g.window_mean_s());
            }
            self.apex.reset_window("gravity:kernels");
            stats.tuner = Some(tuner.snapshot());
        }
        stats
    }

    /// Apex label for the active SIMD backend, so the profile table shows
    /// scalar and SVE step time side by side (the Figure 7 comparison).
    fn simd_timer_label(&self) -> &'static str {
        match self.opts.vector_mode {
            VectorMode::Scalar => "step:simd-scalar",
            VectorMode::Sve512 => "step:simd-sve512",
        }
    }

    /// The runtimes the gravity solve is sharded over: the first
    /// [`SimOptions::localities`] of the cluster's (clamped to what the
    /// cluster has, at least one).
    fn gravity_runtimes(&self, cluster: &SimCluster) -> Vec<hpx_rt::Runtime> {
        let nloc = self.opts.localities.min(cluster.num_localities()).max(1);
        (0..nloc)
            .map(|i| cluster.locality(i).runtime().clone())
            .collect()
    }

    /// The step's shared prologue: bundle what the stage kernels read, the
    /// u⁰ store (each leaf's stage-0 task fills its entry) and the stage
    /// free list included.
    fn begin_step(&self) -> Arc<StepShared> {
        let leaves = self.grid.leaves();
        Arc::new(StepShared {
            grid: self.grid.clone(),
            opts: self.opts,
            leaves,
            u0: self.u0.clone(),
            stage_workspaces: self.stage_workspaces.clone(),
            boundary_masks: self.grid.boundary_faces(),
            outflow_rates: Default::default(),
        })
    }

    /// The step's shared epilogue: fold the boundary outflow, advance the
    /// clock and assemble the telemetry.
    fn finish_step(
        &mut self,
        t0: Instant,
        dt: f64,
        shared: &StepShared,
        gravity_stats: Option<crate::gravity::solver::SolveStats>,
        tally: StepTally,
    ) -> StepStats {
        let leaves = shared.leaves.len() as u64;
        let mass_outflow = shared.fold_outflow(dt);
        self.mass_outflow += mass_outflow;
        self.time += dt;
        self.step_count += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let cells = 3 * (self.grid.n() as u64).pow(3) * leaves;
        // Per stage and leaf an RHS and a combine launch; per solve the
        // M2L launches and one evaluation per leaf.
        let gravity_launches =
            gravity_stats.map_or(0, |s| s.multipole_kernel_launches as u64 + leaves);
        let (scratch_hits, scratch_misses, scratch_bytes_in_use, scratch_high_water) =
            self.scratch_telemetry();
        StepStats {
            vector_mode: self.opts.vector_mode,
            dt,
            time: self.time,
            cells_processed: cells,
            elapsed_seconds: elapsed,
            cells_per_second: cells as f64 / elapsed.max(1e-12),
            kernel_launches: tally.extra_launches + 6 * leaves + gravity_launches,
            direct_ghost_links: tally.direct_ghost_links,
            mass_outflow,
            ghost_links_total: tally.ghost_links_total,
            ghost_links_resolved: tally.ghost_links_resolved,
            overlapped_tasks: tally.overlapped_tasks,
            scratch_hits,
            scratch_misses,
            scratch_bytes_in_use,
            scratch_high_water,
            gravity_stats,
            gravity_plan_hit: self.opts.gravity && self.gravity_solver.last_plan_hit(),
            regrid_refined: 0,
            regrid_derefined: 0,
            gravity_plan_patched: false,
            tuner: None,
        }
    }

    /// The classic scheduler: the gravity solve, the Δt reduction and each
    /// stage's ghost exchange all join before the next piece starts.
    fn step_barrier(&mut self, cluster: &SimCluster) -> StepStats {
        let t0 = Instant::now();
        let _mode_timer = self.apex.timer(self.simd_timer_label());
        let mut tally = StepTally::default();

        // ---- Gravity (once per step; reused across RK stages). ---------
        let gravity: Option<GravityResult> = self.opts.gravity.then(|| {
            let _t = self.apex.timer("gravity:solve");
            let sources = Arc::new(self.leaf_sources());
            let rts = self.gravity_runtimes(cluster);
            solve_gravity(&self.gravity_solver, &self.grid, &self.apex, &sources, &rts)
        });

        // ---- Global fixed time step. -----------------------------------
        let dt = {
            let _t = self.apex.timer("hydro:cfl_reduction");
            self.compute_dt()
        };

        // ---- Three SSP-RK3 stages, a full exchange before each. --------
        let shared = self.begin_step();
        for stage in 0..3 {
            {
                let _t = self.apex.timer("comm:ghost_exchange");
                tally.direct_ghost_links +=
                    self.grid.exchange_ghosts(cluster, self.opts.ghost) as u64;
            }
            let _stage_timer = self.apex.timer("hydro:rk_stage");
            let shared = shared.clone();
            let fields = gravity.as_ref().map(|g| g.0.clone());
            // Each exchange drains before any stage task runs, so exactly
            // one task touches a leaf's grid and u⁰ at a time.
            self.for_each_leaf(cluster, move |leaf| {
                shared.run_stage(leaf, stage, dt, fields.as_deref());
            });
        }
        tally.ghost_links_total = 3 * self.grid.total_ghost_links() as u64;
        tally.ghost_links_resolved = tally.ghost_links_total;
        self.finish_step(t0, dt, &shared, gravity.map(|g| g.1), tally)
    }

    /// The futurized scheduler: one dependency graph for the whole step.
    ///
    /// Per RK stage, [`DistGrid::exchange_ghosts_pipelined`] turns every
    /// leaf's ghost fill into a continuation gated on the leaves its six
    /// face links read, and each leaf's stage kernel becomes a continuation on
    /// - its ghost fill (its stencil inputs),
    /// - the fills of the leaves reading it (its interior may not be
    ///   overwritten while a neighbour is still packing from it), and
    /// - at stage 0, the global Δt reduction and the gravity solve, both of
    ///   which run as futures overlapping the first stage's ghost fill.
    ///
    /// All three stage graphs are built eagerly up front; the only blocking
    /// point is the final join on the stage-2 update futures.  Physics is
    /// bit-identical to [`Simulation::step_barrier`]: both schedule the same
    /// pieces, packs read exactly the interiors the barrier path reads
    /// (stage-consistent via the gates), the six face slabs a fill unpacks
    /// are disjoint, and the Δt reduction is
    /// associative-commutative (min/max), so no result depends on
    /// completion order.
    fn step_pipelined(&mut self, cluster: &SimCluster) -> StepStats {
        use std::sync::atomic::{AtomicU64, Ordering};

        let t0 = Instant::now();
        let _step_timer = self.apex.timer("step:pipelined");
        let _mode_timer = self.apex.timer(self.simd_timer_label());
        let rt0 = cluster.locality(0).runtime().clone();
        // The Δt reduction is a real kernel launch here.
        let mut tally = StepTally {
            extra_launches: 1,
            ..StepTally::default()
        };

        // ---- Gravity as a future (overlaps the stage-0 ghost fill). -----
        // Sources are gathered synchronously from uⁿ; nothing writes until
        // the stage-0 gates open, and those include this future's ticket.
        let gravity_fut: Option<Future<GravityResult>> = self.opts.gravity.then(|| {
            let sources = Arc::new(self.leaf_sources());
            // The clone shares the persistent solver's plan cache, so the
            // solve inside the future still hits the cached plan.
            let (solver, grid, apex) = (
                self.gravity_solver.clone(),
                self.grid.clone(),
                self.apex.clone(),
            );
            let rts = self.gravity_runtimes(cluster);
            rt0.async_call(move || {
                let _t = apex.timer("gravity:solve");
                solve_gravity(&solver, &grid, &apex, &sources, &rts)
            })
        });

        let shared = self.begin_step();
        let leaves = &shared.leaves;

        // ---- Global Δt as an asynchronous Kokkos reduction. -------------
        // `compute_dt`'s terms, chunked: the same Δt bits in any order.
        let dt_fut: Future<f64> = {
            let (opts, n) = (self.opts, self.grid.n());
            let handles: Vec<_> = leaves.iter().map(|&l| (l, self.grid.grid(l))).collect();
            let space = ExecSpace::hpx(rt0.clone());
            kokkos_rs::launch_reduce_async(
                &rt0,
                space,
                kokkos_rs::RangePolicy::new(0, handles.len()),
                DT_IDENTITY,
                move |i| dt_term(&opts, n, handles[i].0, &handles[i].1.read()),
                dt_join,
            )
            .then(&rt0, move |folded| dt_of(&opts, folded))
        };
        let dt_gate = dt_fut.ticket();
        let gravity_gate: Option<Future<()>> = gravity_fut.as_ref().map(|f| f.ticket());

        // ---- Build all three stage graphs eagerly. ----------------------
        let overlapped = Arc::new(AtomicU64::new(0));
        let mut stage_links: Vec<Arc<std::sync::atomic::AtomicUsize>> = Vec::new();
        let mut ready: HashMap<NodeId, Future<()>> = leaves
            .iter()
            .map(|&l| (l, hpx_rt::make_ready_future(())))
            .collect();
        for stage in 0..3 {
            let ex = self
                .grid
                .exchange_ghosts_pipelined(cluster, self.opts.ghost, &ready);
            tally.ghost_links_total += ex.total_links as u64;
            tally.direct_ghost_links += ex.direct_links as u64;
            let mut next: HashMap<NodeId, Future<()>> = HashMap::with_capacity(leaves.len());
            for &leaf in leaves {
                let mut parts: Vec<Future<()>> = vec![
                    ex.ghosts_filled[&leaf].clone(),
                    ex.outgoing_packed[&leaf].clone(),
                ];
                if stage == 0 {
                    parts.push(dt_gate.clone());
                    parts.extend(gravity_gate.clone());
                }
                let rt = cluster.locality(self.grid.owner(leaf).0).runtime().clone();
                let gate = hpx_rt::when_all_of(&rt, &parts);
                let (shared, gravity_fut, dt_fut) =
                    (shared.clone(), gravity_fut.clone(), dt_fut.clone());
                let (resolved, total) = (ex.links_resolved.clone(), ex.total_links);
                let overlapped = overlapped.clone();
                // The per-leaf future chain (`ready` → exchange gates →
                // this update) serializes every task touching this leaf's
                // grid and u⁰.
                let update = gate.then(&rt, move |()| {
                    if resolved.load(Ordering::Relaxed) < total {
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    }
                    // The gate transitively includes the Δt/gravity futures,
                    // so these `get`s never block.
                    let fields = gravity_fut.as_ref().map(|f| f.get().0);
                    shared.run_stage(leaf, stage, dt_fut.get(), fields.as_deref());
                });
                next.insert(leaf, update);
            }
            stage_links.push(ex.links_resolved);
            ready = next;
        }

        // ---- The single blocking point: join the stage-2 updates. -------
        for f in ready.values() {
            f.wait();
        }
        tally.ghost_links_resolved = stage_links
            .iter()
            .map(|c| c.load(Ordering::SeqCst) as u64)
            .sum();
        debug_assert_eq!(
            tally.ghost_links_resolved, tally.ghost_links_total,
            "pipelined step finished with undrained ghost links"
        );
        tally.overlapped_tasks = overlapped.load(Ordering::SeqCst);
        let gravity_stats = gravity_fut.as_ref().map(|f| f.get().1);
        self.finish_step(t0, dt_fut.get(), &shared, gravity_stats, tally)
    }

    /// Run `steps` steps; returns the ledger before and after plus per-step
    /// stats.
    pub fn run(
        &mut self,
        cluster: &SimCluster,
        steps: usize,
    ) -> (ConservationLedger, ConservationLedger, Vec<StepStats>) {
        let before = ConservationLedger::measure(&self.grid);
        let mut stats = Vec::with_capacity(steps);
        for _ in 0..steps {
            stats.push(self.step(cluster));
        }
        let after = ConservationLedger::measure(&self.grid);
        (before, after, stats)
    }
}

impl Simulation {
    /// Peak interior density of one leaf — the refinement indicator of the
    /// criterion pass.
    fn leaf_peak_density(&self, leaf: NodeId) -> f64 {
        let handle = self.grid.grid(leaf);
        let g = handle.read();
        let n = g.n();
        let mut peak = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    peak = peak.max(g.get_interior(field::RHO, i, j, k));
                }
            }
        }
        peak
    }

    /// Octo-Tiger's regrid, both directions of it (paper Section IV-C:
    /// "AMR is based on the density field"):
    ///
    /// * **refine** every leaf below `max_level` whose peak interior
    ///   density exceeds `threshold`, prolonging payloads into the new
    ///   children conservatively;
    /// * **coarsen** every octet whose eight children are leaves with peak
    ///   density below [`SimOptions::regrid_coarsen_threshold`],
    ///   restricting the children back into the parent — via the
    ///   polite [`DistGrid::derefine`], which refuses rather than drag
    ///   still-wanted fine neighbours coarser.
    ///
    /// 2:1 balance is maintained throughout.  The pass tells no cache what
    /// it did: every change bumps the tree's `topology_version`, and the
    /// next step's plan lookups (gravity, halo, ghost) rebuild at the new
    /// version while `ensure_workspaces` drops the consumed leaves' u⁰
    /// buffers and keeps every surviving leaf's.
    pub fn regrid(&mut self, max_level: u8, threshold: f64) -> RegridOutcome {
        let coarsen = self.opts.regrid_coarsen_threshold;
        let mut outcome = RegridOutcome::default();
        loop {
            let candidates: Vec<NodeId> = self
                .grid
                .leaves()
                .into_iter()
                .filter(|&leaf| {
                    if leaf.level() >= max_level {
                        return false;
                    }
                    self.leaf_peak_density(leaf) > threshold
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            for leaf in candidates {
                // A previous refinement in this round may have consumed it.
                if self.grid.with_tree(|t| t.is_leaf(leaf)) {
                    self.grid.refine_balanced(leaf);
                    outcome.refined += 1;
                }
            }
        }
        if coarsen > 0.0 {
            let mut parents: Vec<NodeId> = self
                .grid
                .leaves()
                .into_iter()
                .filter_map(|l| l.parent())
                .collect();
            parents.sort();
            parents.dedup();
            for p in parents {
                let whole_octet_of_leaves = self.grid.with_tree(|t| {
                    octree::Octant::all()
                        .into_iter()
                        .all(|o| t.is_leaf(p.child(o)))
                });
                let collapsible = whole_octet_of_leaves
                    && (octree::Octant::all().into_iter())
                        .all(|o| self.leaf_peak_density(p.child(o)) < coarsen);
                if collapsible && self.grid.derefine(p) {
                    outcome.derefined += 1;
                }
            }
        }
        self.regrid_totals.refined += outcome.refined;
        self.regrid_totals.derefined += outcome.derefined;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};

    fn small_sim(cluster: &SimCluster, gravity: bool) -> Simulation {
        let sc = Scenario::build(ScenarioKind::RotatingStar, cluster, 1, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = gravity;
        opts.omega = sc.omega;
        Simulation::new(sc.grid, opts)
    }

    #[test]
    fn dt_is_positive_and_finite() {
        let cluster = SimCluster::new(1, 2);
        let sim = small_sim(&cluster, false);
        let dt = sim.compute_dt();
        assert!(dt.is_finite() && dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn hydro_step_conserves_mass_to_machine_precision() {
        // Mass + tracked boundary outflow must close to machine precision
        // (the property Octo-Tiger's fixed time step exists to protect).
        let cluster = SimCluster::new(2, 2);
        let mut sim = small_sim(&cluster, false);
        let (before, after, stats) = sim.run(&cluster, 2);
        assert_eq!(stats.len(), 2);
        let closed = (after.mass + sim.mass_outflow - before.mass).abs() / before.mass;
        assert!(
            closed < 1e-12,
            "mass ledger does not close: drift {closed}, outflow {}",
            sim.mass_outflow
        );
        assert!(stats[0].cells_per_second > 0.0);
        assert!(stats[0].kernel_launches > 0);
        cluster.shutdown();
    }

    #[test]
    fn pipelined_warm_steps_miss_the_pools_zero_times() {
        // The pipelined step builds its three stage graphs before stage 0
        // finishes; once warm, neither the arena nor the ghost-payload
        // pool allocates.
        let cluster = SimCluster::new(2, 2);
        let mut sim = small_sim(&cluster, true);
        sim.opts.pipeline = true;
        let warm = sim.step(&cluster);
        for _ in 0..5 {
            let stats = sim.step(&cluster);
            assert_eq!(stats.scratch_misses, warm.scratch_misses);
        }
        cluster.shutdown();
    }

    #[test]
    fn gravity_step_runs_and_reports_stats() {
        let cluster = SimCluster::new(1, 2);
        // Level 2: deep enough for the dual-tree traversal to produce
        // far-field (M2L) interactions; level 1 is all near-field.
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = true;
        opts.omega = sc.omega;
        let mut sim = Simulation::new(sc.grid, opts);
        let s = sim.step(&cluster);
        assert!(s.gravity_stats.is_some());
        assert!(s.gravity_stats.unwrap().m2l_interactions > 0);
        assert!(s.gravity_stats.unwrap().p2p_pairs > 0);
        assert!(s.dt > 0.0);
        // State must remain finite everywhere.
        for leaf in sim.grid.leaves() {
            let g = sim.grid.grid(leaf);
            let gg = g.read();
            assert!(gg.field(field::RHO).iter().all(|v| v.is_finite()));
            assert!(gg.field(field::EGAS).iter().all(|v| v.is_finite()));
        }
        cluster.shutdown();
    }

    #[test]
    fn apex_profiles_the_step_phases() {
        let cluster = SimCluster::new(1, 2);
        let mut sim = small_sim(&cluster, true);
        sim.step(&cluster);
        let gravity = sim.apex.stats("gravity:solve");
        let stages = sim.apex.stats("hydro:rk_stage");
        let ghosts = sim.apex.stats("comm:ghost_exchange");
        assert_eq!(gravity.count, 1);
        assert_eq!(stages.count, 3);
        assert_eq!(ghosts.count, 3);
        assert!(gravity.total_s > 0.0);
        let table = sim.apex.summary_table();
        assert!(table.contains("gravity:solve"));
        cluster.shutdown();
    }

    #[test]
    fn regrid_refines_dense_leaves_and_conserves_mass() {
        let cluster = SimCluster::new(1, 2);
        // Level 2 so cell centers actually sample the (small) star.
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = false;
        opts.omega = sc.omega;
        let mut sim = Simulation::new(sc.grid, opts);
        let before = crate::diag::ConservationLedger::measure(&sim.grid);
        let leaves_before = sim.grid.leaves().len();
        let refined = sim.regrid(3, 1.0);
        assert!(refined.refined > 0, "the star should trigger refinement");
        assert_eq!(refined.derefined, 0, "coarsening is off by default");
        assert!(sim.grid.leaves().len() > leaves_before);
        sim.grid
            .with_tree(|t| t.check_invariants().expect("balanced"));
        let after = crate::diag::ConservationLedger::measure(&sim.grid);
        assert!(
            after.mass_drift(&before) < 1e-12,
            "prolongation must conserve mass: {}",
            after.mass_drift(&before)
        );
        // And the refined grid still steps.
        let s = sim.step(&cluster);
        assert!(s.dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn regrid_coarsens_vacuum_octets_and_reports_breakdown() {
        let cluster = SimCluster::new(1, 2);
        // Base level 3: the star at the box centre leaves the corner
        // level-2 octets fully below the floor, so they can collapse
        // (at level 2 every octet touches the centre and nothing could).
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 3, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = false;
        opts.omega = sc.omega;
        opts.regrid_coarsen_threshold = 1e-6;
        let mut sim = Simulation::new(sc.grid, opts);
        let before = crate::diag::ConservationLedger::measure(&sim.grid);
        let leaves_before = sim.grid.leaves().len();
        // An infinite refine threshold isolates the coarsen direction: the
        // far-field octets (floor density) collapse, the star stays put.
        let out = sim.regrid(3, f64::INFINITY);
        assert_eq!(out.refined, 0);
        assert!(out.derefined > 0, "vacuum octets should collapse");
        assert!(sim.grid.leaves().len() < leaves_before);
        sim.grid
            .with_tree(|t| t.check_invariants().expect("balanced"));
        let after = crate::diag::ConservationLedger::measure(&sim.grid);
        assert!(
            after.mass_drift(&before) < 1e-12,
            "restriction must conserve mass: {}",
            after.mass_drift(&before)
        );
        // And the coarsened grid still steps.
        let s = sim.step(&cluster);
        assert!(s.dt > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn cadence_regrid_rebuilds_gravity_plans_mid_run() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut opts = SimOptions::default();
        opts.gravity = true;
        opts.omega = sc.omega;
        opts.regrid_cadence = Some(1);
        let mut sim = Simulation::new(sc.grid, opts);
        // Step 0 never regrids (there is nothing mid-run about it yet).
        let s0 = sim.step(&cluster);
        assert_eq!(s0.regrid_refined, 0);
        assert!(!s0.gravity_plan_hit, "the first solve builds the plan");
        // The cadence fires before step 1: the star refines, the version
        // bump invalidates the cached interaction plan, and the solve that
        // follows rebuilds it (and, in debug builds, checks its tables'
        // held marks, like every solve).
        let s1 = sim.step(&cluster);
        assert!(s1.regrid_refined > 0, "the star should trigger refinement");
        assert!(!s1.gravity_plan_hit, "a stale plan must not be reused");
        assert!(!s1.gravity_plan_patched, "nothing is patched");
        assert!(s1.dt > 0.0);
        // One locality: exactly the interaction plan was rebuilt for the
        // regrid, once, on top of step 0's first build.
        assert_eq!(sim.gravity_plan_counters(), (0, 2));
        let regrid = hpx_rt::counters::select(&sim.counters(&cluster), "/octotiger/regrid/*");
        let expect = [
            ("/octotiger/regrid/refined", s1.regrid_refined),
            ("/octotiger/regrid/derefined", 0),
            ("/octotiger/regrid/plan-rebuilt", 1),
        ];
        assert_eq!(regrid, expect.map(|(n, v)| (n.to_owned(), v)));
        cluster.shutdown();
    }

    #[test]
    fn regrid_keeps_every_surviving_leafs_u0() {
        let cluster = SimCluster::new(1, 2);
        let mut sim = small_sim(&cluster, false);
        sim.step(&cluster);
        let before = sim.u0.clone();
        // Make one leaf the densest, so the criterion pass refines exactly
        // it (a level-1 tree is balanced whichever leaf splits, so nothing
        // is dragged along).
        let target = sim.grid.leaves()[3];
        let peak = (sim.grid.leaves().into_iter())
            .map(|l| sim.leaf_peak_density(l))
            .fold(0.0, f64::max);
        (sim.grid.grid(target).write()).set_interior(field::RHO, 1, 1, 1, 2.0 * peak);
        let out = sim.regrid(2, 1.5 * peak);
        assert_eq!((out.refined, out.derefined), (1, 0));
        sim.step(&cluster);
        assert_eq!(sim.u0.len(), before.len() + 7);
        for (leaf, u0) in &before {
            match sim.u0.get(leaf) {
                Some(kept) => assert!(Arc::ptr_eq(kept, u0), "{leaf} lost its u⁰"),
                None => assert_eq!(*leaf, target, "only the refined leaf's goes"),
            }
        }
        assert!(!sim.u0.contains_key(&target));
        for oct in octree::Octant::all() {
            assert!(!before.contains_key(&target.child(oct)));
            assert!(sim.u0.contains_key(&target.child(oct)));
        }
        // Every leaf owns its u⁰: two leaves sharing one would only trip
        // `run_stage`'s `try_lock` when their tasks happen to overlap, and
        // otherwise overwrite each other's step-start state.
        let mut distinct: Vec<_> = sim.u0.values().map(Arc::as_ptr).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), sim.u0.len(), "two leaves share a u⁰");
        cluster.shutdown();
    }

    #[test]
    fn stage_workspaces_are_per_running_task_not_per_leaf() {
        // One ghosted NF-field grid, the rhs (the stage reads and updates
        // the leaf's grid in place), and the N = 4 kernel window
        // (`workspace_scratch_comes_from_the_pool`); u⁰ is the interior
        // alone.
        let grid = (NF * 8 * 8 * 8 * 8) as u64;
        let interior = (NF * 4 * 4 * 4 * 8) as u64;
        let workspace = grid + 8 * (2048 + 576);
        for (localities, workers, pipeline) in [(1, 2, false), (2, 1, true)] {
            let cluster = SimCluster::new(localities, workers);
            let mut sim = small_sim(&cluster, true);
            sim.opts.pipeline = pipeline;
            let list_bytes = (localities * workers) as u64 * workspace;
            // Prewarmed to one per worker before the first stage task runs,
            // and never grown: no warm-up step may supply a missing one.
            sim.ensure_workspaces(&cluster);
            assert_eq!(sim.stage_workspaces.bytes(), list_bytes);
            for _ in 0..3 {
                sim.step(&cluster);
            }
            let leaves = sim.grid.leaves().len();
            assert!(leaves > localities * workers, "more leaves than workers");
            assert_eq!(sim.u0.len(), leaves);
            let memory = hpx_rt::counters::select(&sim.counters(&cluster), "/octotiger/memory/*");
            let expect = [
                (
                    "/octotiger/memory/step-start-bytes",
                    leaves as u64 * interior,
                ),
                ("/octotiger/memory/stage-workspace-bytes", list_bytes),
            ];
            assert_eq!(memory, expect.map(|(n, v)| (n.to_owned(), v)));
            cluster.shutdown();
        }
    }
}
