//! The FMM solver: its options, plan caches and per-slot kernels.
//!
//! Phase structure follows paper Section VII-C: *"In each gravity solver
//! iteration, we have one bottom-up tree traversal.  In the second step, we
//! then calculate the same-level cell-to-cell interactions on each tree
//! level.  Lastly, we do a third top-down step tree-traversal to compute
//! the final results."*  Each phase's per-slot body is written exactly once
//! here — `GravitySolver::upward_level` (P2M/M2M),
//! `GravitySolver::m2l_kernel`, `GravitySolver::downward_level` (L2L)
//! and `GravitySolver::evaluate_leaves` (evaluation + near field) — as a
//! launch over one locality's *owned index list*, and there is exactly one
//! solve that schedules them: the sharded phase loop in [`super::dist`].
//!
//! **Leaves are tile lists.**  The plan's traversal stops at the leaves;
//! the evaluation continues it below them ([`super::tiles`]): a leaf
//! of (4k)³ cells, k > 1, is k³ tiles of 4³ cells (the paper's N = 8
//! sub-grid: 8 tiles), any other leaf is its own single tile.  The near
//! field of a target tile is *tile M2L + cell M2P + touching-cell P2P*,
//! every tier decided by the plan's own acceptance test: every tile of
//! every near leaf is tested tile against tile and the accepted ones are
//! summed by the M2L kernel from tile multipoles; every cell of the target
//! tile is then tested, as a point, against every rejected tile, and takes
//! the tile's multipole directly where it passes ([`super::m2p_simd`]);
//! only the cells that touch a source tile sum it point by point.  All
//! sums run in ascending (leaf, tile) order, so the bit-identity argument
//! below carries over unchanged, and a pair of single-tile leaves — the
//! pair the plan rejected — is re-tested at neither level, so a tree of
//! single-tile leaves sums exactly what the plan lists.
//! **The local solve is its one-locality case**: [`GravitySolver::solve`]
//! and [`GravitySolver::solve_with_plan`] hand it the trivial one-locality
//! [`DistPlan`] (every exchange list empty, so no parcel moves) and launch
//! on the caller's `ExecSpace`.  The multipole (M2L) kernel is launched
//! through the Kokkos-style `ExecSpace` with a configurable
//! [`GravityOptions::tasks_per_multipole_kernel`]: 1 task (Octo-Tiger's
//! default, hot cache) or 16 tasks (the paper's anti-starvation setting,
//! Figure 9), honoured at every locality count; the slot-table and
//! evaluation launches have no such knob and run `ChunkSpec::Auto`.
//!
//! The *dual-tree traversal* that decides near/far is **not** redone per
//! solve: it is frozen into a [`GravityPlan`] keyed on
//! [`Tree::topology_version`] and θ, cached on the solver (and shared by
//! its clones), and only rebuilt after a regrid — mirroring the real
//! Octo-Tiger, which computes interaction lists once per regrid.  Plan
//! reuse is observable through the global
//! `/octotiger/gravity/plan-{hits,rebuilds}` counters and the per-solver
//! [`GravitySolver::plan_counters`].  All launches are dense-index kernels
//! over the plan's slot table with per-chunk disjoint `&mut` output slices
//! ([`kokkos_rs::parallel_for_mut`]) — no `HashMap` lookups and no `Mutex`
//! traffic on the hot path — and the per-locality working sets recycle
//! through the plan cache, so steady-state solves allocate nothing.

use super::direct::{p2p_at_ref, PointMasses, PointsRef};
use super::dist::DistPlan;
#[cfg(debug_assertions)]
use super::dist::Phase;
use super::m2l_simd::{m2l_accumulate, MultipoleSoA};
use super::m2p_simd::m2p_accumulate;
use super::multipole::{LocalExpansion, Multipole};
use super::plan::{GravityPlan, SlotKind};
use super::tiles::{NearTier, TileSet, TILE_CELLS};
use hpx_rt::LocalityId;
use kokkos_rs::pool::{Recycled, ScratchArena};
use kokkos_rs::{parallel_for_mut, ChunkSpec, ExecSpace, RangePolicy};
use octree::{NodeId, Tree};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use sve_simd::VectorMode;

#[cfg(test)]
pub(crate) use super::plan::node_geometry;

/// FMM solver options.
#[derive(Debug, Clone, Copy)]
pub struct GravityOptions {
    /// Multipole acceptance parameter: nodes are well separated when
    /// `(r_a + r_b) / d < theta`.  Smaller = more accurate, more P2P.
    pub theta: f64,
    /// Include the octupole term — the paper's angular-momentum-conserving
    /// FMM modification.
    pub use_octupole: bool,
    /// HPX tasks per multipole-kernel launch (Figure 9: 1 = OFF, 16 = ON).
    /// The other launches run `ChunkSpec::Auto` (one task per worker).
    pub tasks_per_multipole_kernel: usize,
    /// SIMD width for the P2P kernels (Figure 7).
    pub vector_mode: VectorMode,
}

impl Default for GravityOptions {
    fn default() -> Self {
        GravityOptions {
            theta: 0.5,
            use_octupole: true,
            tasks_per_multipole_kernel: 1,
            vector_mode: VectorMode::default(),
        }
    }
}

/// Point-mass content of one leaf (cell centers + cell masses, physical
/// coordinates).
#[derive(Debug, Clone, Default)]
pub struct LeafSources {
    /// SoA point masses of the leaf's cells.  (4k)³ points, k > 1, are
    /// read as the leaf cube's cell lattice in i-major order and tiled
    /// (`super::tiles`); any other count is an opaque point set.
    pub points: PointMasses,
}

/// Gravity output for one leaf: potential and acceleration per cell, in the
/// same cell order as the input points.
///
/// The arrays are checked out of the solver's [`ScratchArena`]: dropping a
/// step's field map returns them for the next solve, so steady-state
/// gravity allocates nothing.  (A `Default`/`Clone` field is detached —
/// owned outright, freed on drop.)
#[derive(Debug, Clone, Default)]
pub struct LeafField {
    pub phi: Recycled<f64>,
    pub gx: Recycled<f64>,
    pub gy: Recycled<f64>,
    pub gz: Recycled<f64>,
}

/// Interaction statistics of one solve (inputs to the cluster workload
/// model and the Figure 9 discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of M2L (multipole) interactions.
    pub m2l_interactions: usize,
    /// Number of ordered P2P leaf pairs (including self pairs).
    pub p2p_pairs: usize,
    /// Number of M2L kernel launches (targets with a non-empty list).
    pub multipole_kernel_launches: usize,
}

/// The solver's plan cache: shared (`Arc`) between a solver and its clones
/// so the pipelined stepper's solver clone hits the same cache.
#[derive(Debug, Default)]
struct PlanCache {
    plan: Mutex<Option<Arc<GravityPlan>>>,
    /// Per-locality working sets, recycled from solve to solve.
    buffers: Mutex<Option<Vec<LocBufs>>>,
    /// The trivial one-locality halo plan the local solve runs over.
    single: Mutex<Option<Arc<DistPlan>>>,
    hits: AtomicU64,
    rebuilds: AtomicU64,
    last_hit: AtomicBool,
    /// Cached halo plan of the distributed solve, keyed (like the
    /// interaction plan itself) on `topology_version`, θ, and the
    /// locality count — a regrid invalidates both plans together.
    dist: Mutex<Option<Arc<DistPlan>>>,
    dist_hits: AtomicU64,
    dist_rebuilds: AtomicU64,
    /// Cached plans (interaction or halo) rebuilt because the topology
    /// changed under them (`/octotiger/regrid/plan-rebuilt`).
    topology_rebuilds: AtomicU64,
}

/// The FMM solver.
#[derive(Debug, Clone, Default)]
pub struct GravitySolver {
    pub opts: GravityOptions,
    /// Arena the per-leaf output fields (and the sharded solve's parcel
    /// payloads) are checked out of.  Pass a long-lived pool via
    /// [`GravitySolver::with_scratch`] to recycle them across solves; a
    /// solver built with [`GravitySolver::new`] gets its own (then
    /// recycling only spans that solver's lifetime).
    pub(super) scratch: ScratchArena,
    /// Cached interaction plan + recycled solve buffers, shared with
    /// clones of this solver.
    cache: Arc<PlanCache>,
}

impl GravitySolver {
    /// New solver with the given options and a private scratch arena.
    pub fn new(opts: GravityOptions) -> GravitySolver {
        GravitySolver {
            opts,
            scratch: ScratchArena::new(),
            cache: Arc::new(PlanCache::default()),
        }
    }

    /// New solver drawing its output buffers from `scratch` — the
    /// simulation passes its own arena so fields recycle across steps.
    pub fn with_scratch(opts: GravityOptions, scratch: ScratchArena) -> GravitySolver {
        GravitySolver {
            opts,
            scratch,
            cache: Arc::new(PlanCache::default()),
        }
    }

    /// The interaction plan for `tree`: the cached one while it is still
    /// valid (a *plan hit* — zero traversal work), else a freshly traversed
    /// one (a *plan rebuild*).  [`Tree::topology_version`] is the only
    /// invalidation signal a regrid sends; nothing is patched.
    pub fn plan_for(&self, tree: &Tree) -> Arc<GravityPlan> {
        let mut guard = self.cache.plan.lock();
        if let Some(plan) = guard.as_ref() {
            if plan.is_valid_for(tree, self.opts.theta) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.cache.last_hit.store(true, Ordering::Relaxed);
                return plan.clone();
            }
            // A θ change alone also misses; only a regrid counts here.
            if plan.topology_version != tree.topology_version() {
                self.cache.topology_rebuilds.fetch_add(1, Ordering::Relaxed);
            }
        }
        let plan = Arc::new(GravityPlan::build(tree, self.opts.theta));
        self.cache.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.cache.last_hit.store(false, Ordering::Relaxed);
        *guard = Some(plan.clone());
        plan
    }

    /// Whether the most recent [`GravitySolver::plan_for`] reused the
    /// cached plan.
    pub(crate) fn last_plan_hit(&self) -> bool {
        self.cache.last_hit.load(Ordering::Relaxed)
    }

    /// This solver's (plan-hit, plan-rebuild) counts.
    pub(crate) fn plan_counters(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.rebuilds.load(Ordering::Relaxed),
        )
    }

    /// The halo plan sharding `plan` over `num_localities`: cached when
    /// still valid (same `topology_version`, node count, θ, and locality
    /// count), else rebuilt from `owner`.
    ///
    /// `owner` must be a deterministic function of (tree topology,
    /// locality count) — the driver derives it from
    /// [`octree::partition_morton`] — since it is *not* part of the cache
    /// key; only the quantities above are.  One locality shards nothing:
    /// that is the trivial plan of the local solve, whatever `owner` says.
    pub fn dist_plan_for(
        &self,
        plan: &GravityPlan,
        owner: &HashMap<NodeId, LocalityId>,
        num_localities: usize,
    ) -> Arc<DistPlan> {
        if num_localities == 1 {
            return self.single_locality_plan(plan);
        }
        let mut guard = self.cache.dist.lock();
        if let Some(dist) = guard.as_ref() {
            if dist.is_valid_for(plan, num_localities) {
                self.cache.dist_hits.fetch_add(1, Ordering::Relaxed);
                return dist.clone();
            }
            // A locality-count (or θ) change alone also misses; only a
            // regrid counts here.
            if dist.topology_version != plan.topology_version {
                self.cache.topology_rebuilds.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dist = Arc::new(DistPlan::build(plan, owner, num_localities));
        self.cache.dist_rebuilds.fetch_add(1, Ordering::Relaxed);
        *guard = Some(dist.clone());
        dist
    }

    /// Per-solver (halo-plan-hit, halo-plan-rebuild) counts.
    pub(crate) fn dist_plan_counters(&self) -> (u64, u64) {
        (
            self.cache.dist_hits.load(Ordering::Relaxed),
            self.cache.dist_rebuilds.load(Ordering::Relaxed),
        )
    }

    /// Cached plans (interaction and halo) this solver rebuilt because a
    /// topology change invalidated them.
    pub(crate) fn topology_rebuilds(&self) -> u64 {
        self.cache.topology_rebuilds.load(Ordering::Relaxed)
    }

    /// The trivial one-locality [`DistPlan`] of `plan` — locality 0 owns
    /// every slot, every exchange list is empty — cached apart from the
    /// halo plan, so a solver alternating local and sharded solves never
    /// evicts the halo plan.
    fn single_locality_plan(&self, plan: &GravityPlan) -> Arc<DistPlan> {
        let mut guard = self.cache.single.lock();
        match guard.as_ref() {
            Some(dist) if dist.is_valid_for(plan, 1) => dist.clone(),
            _ => guard
                .insert(Arc::new(DistPlan::single_locality(plan)))
                .clone(),
        }
    }

    /// Solve for the gravitational field of `sources` on `tree`, running
    /// the kernels on `space`.  Equivalent to [`GravitySolver::plan_for`]
    /// followed by [`GravitySolver::solve_with_plan`].
    pub fn solve(
        &self,
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
        space: &ExecSpace,
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        let plan = self.plan_for(tree);
        self.solve_with_plan(&plan, sources, space)
    }

    /// The local solve: the sharded solve on one locality (nothing crosses
    /// a boundary, so no parcel moves), its kernels launched on `space`.
    pub fn solve_with_plan(
        &self,
        plan: &GravityPlan,
        sources: &HashMap<NodeId, LeafSources>,
        space: &ExecSpace,
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        let dist = self.single_locality_plan(plan);
        self.solve_sharded(plan, &dist, sources, std::slice::from_ref(space))
    }

    /// Check the per-locality working sets out of the plan cache (fresh on
    /// first use, or when a concurrent solve holds them).
    pub(super) fn take_buffers(&self, num_localities: usize) -> Vec<LocBufs> {
        let mut bufs = self.cache.buffers.lock().take().unwrap_or_default();
        bufs.resize_with(num_localities, LocBufs::default);
        for (loc, b) in bufs.iter_mut().enumerate() {
            b.loc = loc;
        }
        bufs
    }

    /// Return the working sets for the next solve to recycle.
    pub(super) fn put_buffers(&self, bufs: Vec<LocBufs>) {
        *self.cache.buffers.lock() = Some(bufs);
    }

    /// Freeze the M2L phase's inputs (upward pass + SoA transpose, run
    /// once) so [`GravitySolver::m2l_bench_run`] can time the multipole
    /// kernel alone — the Figure 9 sweep, without the other phases
    /// diluting the granularity signal.
    pub fn m2l_bench_inputs(
        &self,
        plan: &GravityPlan,
        sources: &HashMap<NodeId, LeafSources>,
    ) -> M2lBench {
        let dist = self.single_locality_plan(plan);
        let (serial, mut bufs) = (ExecSpace::Serial, LocBufs::default());
        bufs.reset_tables(plan);
        for level in (0..plan.level_ranges.len()).rev() {
            self.upward_level(plan, &dist, level, sources, &mut bufs, &serial);
        }
        bufs.soa.fill(&bufs.multipoles);
        M2lBench { bufs, dist }
    }

    /// Run exactly one M2L kernel launch over frozen inputs, split per the
    /// solver's current [`GravityOptions::tasks_per_multipole_kernel`].
    /// Buffers persist inside `bench`, so repeated calls measure the
    /// kernel, not allocation.
    pub fn m2l_bench_run(&self, plan: &GravityPlan, bench: &mut M2lBench, space: &ExecSpace) {
        self.m2l_kernel(plan, &bench.dist, &mut bench.bufs, space);
    }
}

/// Frozen M2L-phase inputs and reusable output buffers for the
/// closed-loop granularity bench (see [`GravitySolver::m2l_bench_inputs`]).
#[derive(Debug)]
pub struct M2lBench {
    bufs: LocBufs,
    /// The one-locality plan whose launch lists the bench runs.
    dist: Arc<DistPlan>,
}

/// One locality's working set of a solve: full-length slot tables, the
/// dense launch outputs, the received P2P halo and the owned output
/// fields.  An entry of a table is readable only once this locality has
/// computed it (its owned slots) or received it in this solve; the rest
/// hold zeros or, in the halo, a previous solve's points — after a regrid
/// possibly another leaf's.  Debug builds record which entries are
/// readable in [`Held`] and check it at every read and every exchange.
/// Recycled across solves through the plan cache (CPPuddle-style, like
/// the `ScratchArena` the `LeafField` outputs recycle through), so
/// steady-state solves allocate nothing.
#[derive(Debug, Default)]
pub(super) struct LocBufs {
    /// The locality this working set belongs to.
    pub(super) loc: usize,
    /// Per-slot multipole moments (the upward pass's output).
    pub(super) multipoles: Vec<Multipole>,
    /// Per-slot local expansions (M2L targets + downward accumulation).
    pub(super) locals: Vec<LocalExpansion>,
    /// Dense outputs of one slot-table launch, aligned with its owned list.
    mp_out: Vec<Multipole>,
    local_out: Vec<LocalExpansion>,
    /// Component-major multipole lanes for the SIMD M2L kernel's gathers.
    pub(super) soa: MultipoleSoA,
    /// Point masses of the near-field leaves owned elsewhere, by leaf
    /// index; readable only where received in this solve's P2P halo.
    pub(super) halo_points: Vec<PointMasses>,
    /// The visible leaves as tiles ([`GravitySolver::evaluate_leaves`]
    /// rebuilds them every solve).
    tiles: TileSet,
    /// Evaluation slots of the owned leaves, aligned with the owned list.
    pub(super) evals: Vec<LeafEval>,
    /// Which table entries are readable in this solve.
    #[cfg(debug_assertions)]
    pub(super) held: Held,
}

/// Debug builds: which entries of its tables one locality holds in the
/// current solve, and how.  The launches mark their owned indices
/// [`Hold::Own`], `dist::exchange` checks that a sender holds what it ships
/// and that a receiver neither owns it nor received it already, and every
/// read checks that the entry is held.  So a halo plan that drops,
/// duplicates or misroutes a transfer panics naming the phase, the link
/// and the slot instead of computing different bits.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub(super) struct Held {
    /// By slot: the multipole.
    multipoles: Vec<Hold>,
    /// By slot: the local expansion.
    locals: Vec<Hold>,
    /// By leaf index: the point masses.
    points: Vec<Hold>,
}

/// How a locality holds one table entry in the current solve.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hold {
    /// Neither computed nor received: not readable.
    Missing,
    /// Its own: computed by its launch, or its own leaf's points.
    Own,
    /// Received in a parcel of this solve, once.
    Received,
}

#[cfg(debug_assertions)]
impl Held {
    /// The entries of the table `phase` moves: multipoles up and in the
    /// M2L halo, local expansions down, point masses in the P2P halo.
    pub(super) fn table(&mut self, phase: Phase) -> &mut [Hold] {
        match phase {
            Phase::Up(_) | Phase::M2lHalo => &mut self.multipoles,
            Phase::Down(_) => &mut self.locals,
            Phase::P2pHalo => &mut self.points,
        }
    }

    /// Entry `i` of the table `phase` moves.
    pub(super) fn get(&self, phase: Phase, i: usize) -> Hold {
        match phase {
            Phase::Up(_) | Phase::M2lHalo => self.multipoles[i],
            Phase::Down(_) => self.locals[i],
            Phase::P2pHalo => self.points[i],
        }
    }
}

/// Debug builds: panic unless locality `reader` holds entry `i` of `held`,
/// which `owner` computes and `phase` ships to the localities reading it.
#[cfg(debug_assertions)]
fn assert_held(
    held: &[Hold],
    plan: &GravityPlan,
    phase: Phase,
    owner: usize,
    reader: usize,
    i: usize,
) {
    if held[i] == Hold::Missing {
        let level = match phase {
            Phase::P2pHalo => plan.leaves[i].level(),
            _ => plan.nodes[i].level(),
        };
        panic!(
            "starved receive: phase {phase}: link {owner}→{reader}: locality {reader} reads \
             {} {i} (level {level}), which it neither computed nor received",
            phase.entry()
        );
    }
}

/// One owned leaf's slot of the evaluation launch: the output field (moved
/// out when the solve assembles its result) and two lists of one target
/// tile at a time, recycled with the slot.
#[derive(Debug, Default)]
pub(super) struct LeafEval {
    pub(super) field: LeafField,
    /// The accepted near tiles.
    m2l: Vec<usize>,
    /// Which of the tile's cells see the current source tile as far.
    far: Vec<bool>,
}

impl LocBufs {
    /// Size the slot tables for `plan` and zero the multipoles; the locals
    /// are zeroed by [`GravitySolver::m2l_kernel`], which opens their phase.
    /// Nothing is held yet.
    pub(super) fn reset_tables(&mut self, plan: &GravityPlan) {
        self.multipoles.clear();
        self.multipoles
            .resize(plan.num_nodes, Multipole::zero([0.0; 3]));
        self.halo_points
            .resize_with(plan.leaves.len(), PointMasses::default);
        #[cfg(debug_assertions)]
        for (table, len) in [
            (&mut self.held.multipoles, plan.num_nodes),
            (&mut self.held.locals, plan.num_nodes),
            (&mut self.held.points, plan.leaves.len()),
        ] {
            table.clear();
            table.resize(len, Hold::Missing);
        }
    }
}

/// One slot-table launch: `table[s] = body(s, table)` for every owned slot
/// `s`.  Results land in the dense `out` buffer — every task owns a
/// disjoint `&mut` chunk of it, carved per `policy` — and are swapped into
/// the table after the join, so `body` reads the table as of launch start:
/// the other levels' finalized slots and the slot's own previous value.
fn launch_slots<T: Clone + Send + Sync>(
    space: &ExecSpace,
    policy: RangePolicy,
    owned: &[usize],
    table: &mut [T],
    out: &mut Vec<T>,
    fill: T,
    body: impl Fn(usize, &[T]) -> T + Sync,
) {
    out.resize(owned.len(), fill);
    let shared = &*table;
    parallel_for_mut(space, policy, out, |i, o| *o = body(owned[i], shared));
    for (&s, o) in owned.iter().zip(out.iter_mut()) {
        std::mem::swap(&mut table[s], o);
    }
}

/// Carving of the slot-table (upward/downward) launches: one task per
/// worker, with boundaries rounded to `SVE_LANES_F64`-slot blocks, so a
/// short level runs as a few block-sized tasks instead of many one-slot
/// ones.  The kernels store one element per `&mut` slot, so the carving
/// never changes a result.
fn slot_policy(len: usize) -> RangePolicy {
    RangePolicy::new(0, len)
        .with_chunk(ChunkSpec::Auto)
        .with_lanes(sve_simd::SVE_LANES_F64)
}

impl GravitySolver {
    /// Phase 1, tree level `level` of locality `bufs.loc`: P2M at its
    /// owned leaves (straight from their SoA points,
    /// [`Multipole::from_soa`] — no per-leaf AoS copy), M2M at its owned
    /// interiors, whose children sit at deeper, already finalized (or
    /// received) slots.
    pub(super) fn upward_level(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        level: usize,
        sources: &HashMap<NodeId, LeafSources>,
        bufs: &mut LocBufs,
        space: &ExecSpace,
    ) {
        let owned = &dist.owned_by_level[bufs.loc][level];
        #[cfg(debug_assertions)]
        let (held, loc) = (&bufs.held.multipoles, bufs.loc);
        launch_slots(
            space,
            slot_policy(owned.len()),
            owned,
            &mut bufs.multipoles,
            &mut bufs.mp_out,
            Multipole::zero([0.0; 3]),
            |s, mps| {
                let mp = match plan.kinds[s] {
                    SlotKind::Leaf(li) => {
                        Multipole::from_soa(sources[&plan.leaves[li]].points.view())
                    }
                    SlotKind::Interior(kids) => {
                        #[cfg(debug_assertions)]
                        for &c in &kids {
                            let owner = dist.slot_owner[c];
                            assert_held(held, plan, Phase::Up(level + 1), owner, loc, c);
                        }
                        // Fixed-size gather: no per-slot heap allocation
                        // inside the kernel body (the zero-alloc steady
                        // state `tests/kernel_allocations.rs` checks).
                        let children: [&Multipole; 8] = std::array::from_fn(|c| &mps[kids[c]]);
                        Multipole::combine(&children)
                    }
                };
                if mp.m == 0.0 {
                    Multipole::zero(plan.centers[s])
                } else {
                    mp
                }
            },
        );
        #[cfg(debug_assertions)]
        for &s in owned {
            bufs.held.multipoles[s] = Hold::Own;
        }
    }

    /// Phase 2: M2L for the targets locality `bufs.loc` owns, split into
    /// `tasks_per_multipole_kernel` HPX tasks (Figure 9), reading the
    /// source multipoles from `bufs.soa` (the caller transposes the slot
    /// table once per solve).  Per-target source order comes from the
    /// plan's CSR lists; the width-generic kernel accumulates source `i`
    /// into stripe `i % 8` and folds the stripes in one fixed order at
    /// every width, so the sum is bit-identical for any task count *and*
    /// any vector width.
    pub(super) fn m2l_kernel(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        bufs: &mut LocBufs,
        space: &ExecSpace,
    ) {
        let targets = &dist.owned_m2l_slots[bufs.loc];
        bufs.locals.clear();
        bufs.locals.resize(plan.num_nodes, LocalExpansion::zero());
        // Every owned slot's local expansion starts here: its M2L sum, or
        // zero.
        #[cfg(debug_assertions)]
        for &s in dist.owned_by_level[bufs.loc].iter().flatten() {
            bufs.held.locals[s] = Hold::Own;
        }
        #[cfg(debug_assertions)]
        let (held, loc) = (&bufs.held.multipoles, bufs.loc);
        let soa = &bufs.soa;
        launch_slots(
            space,
            RangePolicy::new(0, targets.len())
                .with_chunk(ChunkSpec::Tasks(self.opts.tasks_per_multipole_kernel)),
            targets,
            &mut bufs.locals,
            &mut bufs.local_out,
            LocalExpansion::zero(),
            |target, _| {
                let mut sum = LocalExpansion::zero();
                let srcs = plan.m2l_sources_of(target);
                #[cfg(debug_assertions)]
                for &src in srcs {
                    assert!(
                        src != target,
                        "phase {}: M2L target slot {target} (level {}) lists itself as a source",
                        Phase::M2lHalo,
                        plan.nodes[target].level()
                    );
                    let owner = dist.slot_owner[src];
                    assert_held(held, plan, Phase::M2lHalo, owner, loc, src);
                }
                let center = plan.centers[target];
                m2l_accumulate(
                    soa,
                    srcs,
                    center,
                    self.opts.use_octupole,
                    self.opts.vector_mode,
                    &mut sum,
                );
                sum
            },
        );
    }

    /// Phase 3a, tree level `level` of locality `bufs.loc`: L2L in
    /// *gather* form — every owned slot adds its parent's shifted
    /// expansion; the parent sits at a shallower, already finalized (or
    /// received) slot.
    pub(super) fn downward_level(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        level: usize,
        bufs: &mut LocBufs,
        space: &ExecSpace,
    ) {
        let owned = &dist.owned_by_level[bufs.loc][level];
        #[cfg(debug_assertions)]
        let (held, loc) = (&bufs.held.locals, bufs.loc);
        launch_slots(
            space,
            slot_policy(owned.len()),
            owned,
            &mut bufs.locals,
            &mut bufs.local_out,
            LocalExpansion::zero(),
            |s, locals| {
                let p = plan.parent_slot[s];
                #[cfg(debug_assertions)]
                {
                    assert!(
                        p > s,
                        "phase {}: slot {s} (level {level}) reads parent slot {p}, which is not \
                         above it in the slot table",
                        Phase::Down(level)
                    );
                    assert_held(held, plan, Phase::Down(level), dist.slot_owner[p], loc, p);
                }
                let (pc, cc) = (plan.centers[p], plan.centers[s]);
                let mut local = locals[s].clone();
                local.add_assign(&locals[p].shifted([cc[0] - pc[0], cc[1] - pc[1], cc[2] - pc[2]]));
                local
            },
        );
    }

    /// Phase 3b on locality `bufs.loc`: its owned leaves' fields — far field
    /// from the local expansions, near field tile by tile — one disjoint
    /// output slot per leaf, no locks.  `points[li]` is leaf `li`'s input
    /// point set; the locality reads its own leaves there and every other
    /// from the halo copy it received.
    ///
    /// First [`TileSet::rebuild`] turns the visible leaves into tiles (one
    /// launch).  Then, per target tile: every tile of every near leaf is
    /// classified by the plan's acceptance test on tile geometry, the
    /// leaf's local expansion is L2L-shifted to the tile center (a
    /// single-tile leaf skips the shift), the accepted tiles are added by
    /// the width-generic M2L kernel in ascending (leaf, tile) order and the
    /// expansion is evaluated at the tile's cells.  Every rejected tile,
    /// ascending again, is then put to the same test cell by cell, each
    /// cell a point: the cells that pass add the tile's multipole (M2P),
    /// the others its points one by one (P2P).  Between two single-tile
    /// leaves nothing is re-tested: every cell sums every point.
    pub(super) fn evaluate_leaves(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        points: &[&PointMasses],
        bufs: &mut LocBufs,
        space: &ExecSpace,
    ) {
        let LocBufs {
            loc,
            halo_points,
            tiles,
            locals,
            evals,
            #[cfg(debug_assertions)]
            held,
            ..
        } = bufs;
        let loc = *loc;
        let owned = &dist.owned_leaves[loc][..];
        let near: Vec<&PointMasses> = (0..points.len())
            .map(|li| match dist.leaf_owner[li] == loc {
                true => points[li],
                false => &halo_points[li],
            })
            .collect();
        let near = &near[..];
        // Every near-field leaf the tile build and the evaluation read.
        #[cfg(debug_assertions)]
        for &sl in owned.iter().flat_map(|&li| plan.p2p_sources_of(li)) {
            let owner = dist.leaf_owner[sl];
            assert_held(&held.points, plan, Phase::P2pHalo, owner, loc, sl);
        }
        let mode = self.opts.vector_mode;
        tiles.rebuild(plan, owned, near, space);
        let tiles = &*tiles;
        // Not cleared: a slot's lists keep their capacity.
        evals.resize_with(owned.len(), LeafEval::default);
        let policy = RangePolicy::new(0, owned.len()).with_chunk(ChunkSpec::Auto);
        parallel_for_mut(space, policy, evals, |i, out| {
            let li = owned[i];
            let ncells = near[li].len();
            let mut field = LeafField {
                phi: self.scratch.checkout(ncells),
                gx: self.scratch.checkout(ncells),
                gy: self.scratch.checkout(ncells),
                gz: self.scratch.checkout(ncells),
            };
            let slot = plan.leaf_slots[li];
            let leaf_center = plan.centers[slot];
            let LeafEval { m2l, far, .. } = out;
            for tile in tiles.tiles_of(li) {
                m2l.clear();
                tiles.for_each_near(plan, li, tile, |src, tier| {
                    if tier == NearTier::TileM2l {
                        m2l.push(src);
                    }
                });
                let center = tiles.center(tile);
                let single = tiles.is_single(li);
                let mut local = match single {
                    true => locals[slot].clone(),
                    false => locals[slot].shifted([
                        center[0] - leaf_center[0],
                        center[1] - leaf_center[1],
                        center[2] - leaf_center[2],
                    ]),
                };
                if !m2l.is_empty() {
                    m2l_accumulate(
                        tiles.soa(),
                        m2l,
                        center,
                        self.opts.use_octupole,
                        mode,
                        &mut local,
                    );
                }
                let target = Target {
                    leaf: li,
                    tile,
                    pts: tiles.points(tile, near),
                    local: &local,
                };
                // A single-tile leaf's tile order is the leaf's own: its
                // sums run in the output arrays.  A 4³-cell tile's run on
                // the stack and are scattered once.
                let mut stack = [[0.0; TILE_CELLS]; 4];
                let mut sums: [&mut [f64]; 4] = match single {
                    true => [&mut field.phi, &mut field.gx, &mut field.gy, &mut field.gz],
                    false => stack.each_mut().map(|run| &mut run[..]),
                };
                self.tile_field(plan, tiles, near, &target, far, &mut sums);
                if !single {
                    let cells = tiles.cells(tile);
                    for q in 0..TILE_CELLS {
                        let c = cells.index(q);
                        field.phi[c] = stack[0][q];
                        field.gx[c] = stack[1][q];
                        field.gy[c] = stack[2][q];
                        field.gz[c] = stack[3][q];
                    }
                }
            }
            out.field = field;
        });
    }

    /// The field of one target tile, written to `sums` (`[phi, gx, gy,
    /// gz]`) in the order of the tile's cells: its local expansion
    /// evaluated at every cell, then every near tile the tile-level test
    /// did not accept, ascending — the tile's multipole (M2P) at the cells
    /// that pass the acceptance test as points, its points one by one
    /// (P2P) at the others.  `far` is the slot's flag list.
    fn tile_field(
        &self,
        plan: &GravityPlan,
        tiles: &TileSet,
        near: &[&PointMasses],
        target: &Target<'_>,
        far: &mut Vec<bool>,
        sums: &mut [&mut [f64]; 4],
    ) {
        let (pts, mode) = (target.pts, self.opts.vector_mode);
        let center = tiles.center(target.tile);
        for q in 0..pts.len() {
            let off = [
                pts.xs[q] - center[0],
                pts.ys[q] - center[1],
                pts.zs[q] - center[2],
            ];
            let (phi, g) = target.local.evaluate(off);
            sums[0][q] = phi;
            sums[1][q] = g[0];
            sums[2][q] = g[1];
            sums[3][q] = g[2];
        }
        // Source tile outermost: its moments and its points stay in L1
        // across the target tile's cells.  Each cell still adds its
        // sources in ascending order.
        tiles.for_each_near(plan, target.leaf, target.tile, |src, tier| {
            let src_pts = tiles.points(src, near);
            let p2p = |sums: &mut [&mut [f64]; 4], q: usize| {
                let x = [pts.xs[q], pts.ys[q], pts.zs[q]];
                let (p, g) = p2p_at_ref(src_pts, x, mode);
                sums[0][q] += p;
                sums[1][q] += g[0];
                sums[2][q] += g[1];
                sums[3][q] += g[2];
            };
            match tier {
                NearTier::TileM2l => {}
                NearTier::Points => (0..pts.len()).for_each(|q| p2p(sums, q)),
                NearTier::Cells => {
                    far.resize(pts.len(), false);
                    let nfar = m2p_accumulate(
                        tiles.moment(src),
                        tiles.sphere(src),
                        plan.theta,
                        self.opts.use_octupole,
                        pts,
                        mode,
                        far,
                        sums,
                    );
                    if nfar < pts.len() {
                        (0..pts.len())
                            .filter(|&q| !far[q])
                            .for_each(|q| p2p(sums, q));
                    }
                }
            }
        });
    }
}

/// One target tile of the evaluation: tile `tile` of leaf `leaf`, its
/// cells and the local expansion about its centre.
struct Target<'a> {
    leaf: usize,
    tile: usize,
    pts: PointsRef<'a>,
    local: &'a LocalExpansion,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::direct::direct_field;
    use crate::gravity::plan::well_separated;
    use crate::units::BOX_SIZE;

    /// Deterministic pseudo-random density on a leaf's cell centers.
    fn make_sources(tree: &Tree, n: usize) -> HashMap<NodeId, LeafSources> {
        let mut out = HashMap::new();
        for leaf in tree.leaves() {
            let (corner, size) = leaf.cube();
            let h = size / n as f64;
            let mut points = PointMasses::default();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let ux = corner[0] + (i as f64 + 0.5) * h;
                        let uy = corner[1] + (j as f64 + 0.5) * h;
                        let uz = corner[2] + (k as f64 + 0.5) * h;
                        let x = (ux - 0.5) * BOX_SIZE;
                        let y = (uy - 0.5) * BOX_SIZE;
                        let z = (uz - 0.5) * BOX_SIZE;
                        // Smooth blob + deterministic ripple.
                        let r2 = x * x + y * y + z * z;
                        let m = (1.0 + 0.3 * (13.0 * ux).sin() * (7.0 * uy).cos())
                            * (-2.0 * r2).exp()
                            * h
                            * h
                            * h;
                        points.push([x, y, z], m);
                    }
                }
            }
            out.insert(leaf, LeafSources { points });
        }
        out
    }

    fn all_points(sources: &HashMap<NodeId, LeafSources>, tree: &Tree) -> PointMasses {
        let mut all = PointMasses::default();
        for leaf in tree.leaves() {
            let p = &sources[&leaf].points;
            for c in 0..p.len() {
                all.push([p.xs[c], p.ys[c], p.zs[c]], p.ms[c]);
            }
        }
        all
    }

    /// Direct-sum acceleration at every cell, in `tree.leaves()` order.
    fn direct_g(tree: &Tree, sources: &HashMap<NodeId, LeafSources>) -> Vec<[f64; 3]> {
        let all = all_points(sources, tree);
        direct_field(&all, &all, VectorMode::Sve512).1
    }

    fn rel_g_error(
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
        fields: &HashMap<NodeId, LeafField>,
    ) -> f64 {
        rel_g_error_against(&direct_g(tree, sources), tree, fields)
    }

    fn rel_g_error_against(
        g_ref: &[[f64; 3]],
        tree: &Tree,
        fields: &HashMap<NodeId, LeafField>,
    ) -> f64 {
        let mut idx = 0usize;
        let mut num = 0.0;
        let mut den = 0.0;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            for c in 0..f.phi.len() {
                let gr = g_ref[idx];
                let df = [f.gx[c] - gr[0], f.gy[c] - gr[1], f.gz[c] - gr[2]];
                num += df.iter().map(|v| v * v).sum::<f64>();
                den += gr.iter().map(|v| v * v).sum::<f64>();
                idx += 1;
            }
        }
        (num / den).sqrt()
    }

    #[test]
    fn fmm_matches_direct_on_uniform_tree() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        let (fields, stats) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert!(stats.m2l_interactions > 0);
        assert!(stats.p2p_pairs > 0);
        let err = rel_g_error(&tree, &sources, &fields);
        assert!(err < 2e-3, "FMM acceleration error too large: {err}");
    }

    #[test]
    fn fmm_matches_direct_on_adaptive_tree() {
        // The dual-tree traversal must cover adaptive trees without gaps.
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        tree.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        assert!(tree.check_invariants().is_ok());
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        let (fields, _) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        let err = rel_g_error(&tree, &sources, &fields);
        assert!(err < 5e-3, "adaptive FMM error too large: {err}");
    }

    /// FNV-1a over every leaf's `phi/gx/gy/gz` bit patterns, in
    /// `tree.leaves()` order.
    fn field_hash(tree: &Tree, fields: &HashMap<NodeId, LeafField>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            for arr in [&f.phi, &f.gx, &f.gy, &f.gz] {
                for v in arr.iter() {
                    h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Solve sharded over `nloc` Morton-partitioned localities, two
    /// workers each.
    /// The sharded solve over `nloc` runtimes of `workers` threads each.
    fn solve_on_localities(
        solver: &GravitySolver,
        tree: &Tree,
        sources: &Arc<HashMap<NodeId, LeafSources>>,
        nloc: usize,
        workers: usize,
    ) -> HashMap<NodeId, LeafField> {
        let plan = solver.plan_for(tree);
        let dist = solver.dist_plan_for(&plan, &octree::partition_morton(tree, nloc), nloc);
        let rts: Vec<hpx_rt::Runtime> = (0..nloc).map(|_| hpx_rt::Runtime::new(workers)).collect();
        let (fields, _) = solver.solve_distributed(&plan, &dist, sources, &rts);
        for rt in rts {
            rt.shutdown();
        }
        fields
    }

    #[test]
    fn unified_solve_reproduces_the_pinned_local_solve_bits() {
        // The hashes were recorded from the one-locality Serial solve when
        // the M2L kernel moved to the closed-form contractions (debug and
        // release alike; before that they pinned the separate local
        // kernels' `solve_with_plan`, 32b98f3); the one sharded solve must
        // reproduce them at every locality count, on either space, at
        // either width.
        let mut refined = Tree::new_uniform(1);
        refined.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        refined.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        // The n = 8 row runs the tiled near field (8 tiles a leaf, on the
        // smallest tree that shards: a debug-build P2P interaction costs
        // ~0.4 µs); its reference is the one-locality Serial solve instead
        // of a pin.
        let rt = hpx_rt::Runtime::new(2);
        for (tree, n, pinned) in [
            (Tree::new_uniform(2), 3, Some(0x3b6e_ce65_3686_736fu64)),
            (refined, 3, Some(0x65fd_eb07_a660_1831u64)),
            (Tree::new_uniform(1), 8, None),
        ] {
            let sources = Arc::new(make_sources(&tree, n));
            let pinned = pinned.unwrap_or_else(|| {
                let serial = GravitySolver::default().solve(&tree, &sources, &ExecSpace::Serial);
                field_hash(&tree, &serial.0)
            });
            for mode in [VectorMode::Scalar, VectorMode::Sve512] {
                let mut opts = GravityOptions::default();
                opts.vector_mode = mode;
                let solver = GravitySolver::new(opts);
                for space in [ExecSpace::Serial, ExecSpace::hpx(rt.clone())] {
                    let (fields, _) = solver.solve(&tree, &sources, &space);
                    assert_eq!(
                        field_hash(&tree, &fields),
                        pinned,
                        "{mode:?} on {}",
                        space.name()
                    );
                }
                for nloc in [2, 4, 7] {
                    let fields = solve_on_localities(&solver, &tree, &sources, nloc, 2);
                    assert_eq!(field_hash(&tree, &fields), pinned, "{mode:?}, nloc={nloc}");
                }
            }
        }
        rt.shutdown();
    }

    #[test]
    fn task_splitting_does_not_change_results() {
        // Figure 9's knob and the worker count are performance-only at
        // every locality count: per-target summation order is fixed by the
        // plan's CSR lists and every launch writes disjoint per-index
        // outputs, so splitting is bitwise neutral.  The tile, evaluation
        // and slot launches run `ChunkSpec::Auto`, so 1, 2 and 3 workers
        // carve them 1, 2 and 3 ways.  The n = 8 row splits the tile launch
        // and the tiled evaluation.
        for (tree, n, nlocs) in [
            (Tree::new_uniform(2), 3, &[1, 2, 4][..]),
            (Tree::new_uniform(1), 8, &[2][..]),
        ] {
            let sources = Arc::new(make_sources(&tree, n));
            let reference = field_hash(
                &tree,
                &GravitySolver::default()
                    .solve(&tree, &sources, &ExecSpace::Serial)
                    .0,
            );
            for &nloc in nlocs {
                for (workers, multipole) in [(1, 16), (2, 1), (3, 16)] {
                    let mut opts = GravityOptions::default();
                    opts.tasks_per_multipole_kernel = multipole;
                    let solver = GravitySolver::new(opts);
                    let fields = solve_on_localities(&solver, &tree, &sources, nloc, workers);
                    assert_eq!(
                        field_hash(&tree, &fields),
                        reference,
                        "n={n}, nloc={nloc}, {workers} workers, {multipole} multipole tasks"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_and_sve_solves_are_bit_identical() {
        // Figure 7's switch is performance-only: the width-generic M2L and
        // P2P kernels fold lanes in source order, so the two backends must
        // agree to the last bit on uniform and adaptive trees.
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(NodeId::from_coords(1, [0, 1, 0]));
        // The n = 8 row adds the tile M2L and the 64-source tile P2P.
        for (tree, n) in [
            (Tree::new_uniform(2), 3),
            (adaptive, 3),
            (Tree::new_uniform(1), 8),
        ] {
            let sources = make_sources(&tree, n);
            let mut opts = GravityOptions::default();
            opts.vector_mode = VectorMode::Scalar;
            let (f_scalar, s_scalar) =
                GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
            opts.vector_mode = VectorMode::Sve512;
            let (f_sve, s_sve) =
                GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
            assert_eq!(s_scalar, s_sve);
            for leaf in tree.leaves() {
                let (fa, fb) = (&f_scalar[&leaf], &f_sve[&leaf]);
                for c in 0..fa.phi.len() {
                    assert_eq!(fa.phi[c].to_bits(), fb.phi[c].to_bits());
                    assert_eq!(fa.gx[c].to_bits(), fb.gx[c].to_bits());
                    assert_eq!(fa.gy[c].to_bits(), fb.gy[c].to_bits());
                    assert_eq!(fa.gz[c].to_bits(), fb.gz[c].to_bits());
                }
            }
        }
    }

    /// `tree` with every leaf refined once, holding the same cells as the
    /// n = 8 `sources` at n = 4: child `(oi, oj, ok)` of a leaf takes the
    /// leaf's cells `(4 oi + i, 4 oj + j, 4 ok + k)`.  Returns the fine
    /// tree and sources, and for every coarse cell where it went.
    #[allow(clippy::type_complexity)]
    fn one_level_down(
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
    ) -> (
        Tree,
        HashMap<NodeId, LeafSources>,
        HashMap<NodeId, Vec<(NodeId, usize)>>,
    ) {
        let mut fine = tree.clone();
        let mut fine_sources = HashMap::new();
        let mut went = HashMap::new();
        for leaf in tree.leaves() {
            fine.refine(leaf);
            let (corner, size) = leaf.cube();
            let p = &sources[&leaf].points;
            let mut cells = vec![(leaf, 0); p.len()];
            for o in octree::Octant::all() {
                let child = leaf.child(o);
                let (cc, _) = child.cube();
                let oct: [usize; 3] =
                    std::array::from_fn(|a| ((cc[a] - corner[a]) / (0.5 * size)).round() as usize);
                let mut points = PointMasses::default();
                for i in 0..4 {
                    for j in 0..4 {
                        for k in 0..4 {
                            let c = ((4 * oct[0] + i) * 8 + 4 * oct[1] + j) * 8 + 4 * oct[2] + k;
                            cells[c] = (child, points.len());
                            points.push([p.xs[c], p.ys[c], p.zs[c]], p.ms[c]);
                        }
                    }
                }
                fine_sources.insert(child, LeafSources { points });
            }
            went.insert(leaf, cells);
        }
        assert!(fine.check_invariants().is_ok());
        (fine, fine_sources, went)
    }

    /// Move every (near leaf, cell) pair of a solve on `tree` whose cell, a
    /// point, passes the acceptance test against the leaf from P2P to M2P
    /// — what the cell tier does to the tiles `tree`'s leaves are one
    /// level up — spelled with `well_separated`, `Multipole::m2l` and
    /// `p2p_at_ref`, not with the tile set or the M2P kernel.
    fn m2p_minus_p2p(
        tree: &Tree,
        sources: &HashMap<NodeId, LeafSources>,
        opts: GravityOptions,
        fields: &mut HashMap<NodeId, LeafField>,
    ) {
        let plan = GravityPlan::build(tree, opts.theta);
        for (li, leaf) in plan.leaves.iter().enumerate() {
            let (pts, field) = (&sources[leaf].points, fields.get_mut(leaf).unwrap());
            for &sl in plan.p2p_sources_of(li) {
                let src = sources[&plan.leaves[sl]].points.view();
                let (center, radius) = node_geometry(plan.leaves[sl]);
                let mp = Multipole::from_soa(src);
                for q in 0..pts.len() {
                    let x = [pts.xs[q], pts.ys[q], pts.zs[q]];
                    if !well_separated(x, 0.0, center, radius, opts.theta) {
                        continue;
                    }
                    let m2p = mp.m2l(x, opts.use_octupole);
                    let (phi, g) = p2p_at_ref(src, x, opts.vector_mode);
                    field.phi[q] += m2p.l0 - phi;
                    field.gx[q] -= m2p.l1[0] + g[0];
                    field.gy[q] -= m2p.l1[1] + g[1];
                    field.gz[q] -= m2p.l1[2] + g[2];
                }
            }
        }
    }

    #[test]
    fn tiled_solve_matches_the_plain_solve_one_level_down() {
        // The tile classifier continues the plan's traversal one level
        // below the leaves, tile against tile.  Wherever the traversal of
        // the one-level-finer tree also decides every pair the coarse plan
        // left near at that granularity — it accepts nothing between a
        // fine leaf and a coarser node — the two solves take the same
        // tiles by M2L and reject the same ones, and differ only in how a
        // rejected tile is summed: the plain solve's leaves are single
        // tiles, which sum each other point by point, where the tiled
        // one's cells take the tile by M2P wherever they pass the
        // acceptance test as points.  `m2p_minus_p2p` moves exactly those
        // (tile, cell) pairs of the plain solve from P2P to M2P; after
        // that the two are the same sums up to association (and
        // P2M-vs-M2M rounding in the moments).
        // That holds on the level-1 tree at the default θ (no fine leaf is
        // 2.6 coarse-leaf edges from a coarse leaf's center) and on its
        // once-refined version for θ ≤ 1/3.  It does not on level 2 at
        // θ = 0.5: there the finer tree takes a (child, leaf) pair at
        // offset (2, 1, 1) by one M2L where the flat classifier takes
        // eight, and the solves differ at truncation level (2e-4 in phi).
        let mut refined = Tree::new_uniform(1);
        refined.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        for (tree, theta) in [(Tree::new_uniform(1), 0.5), (refined, 0.3)] {
            let sources = make_sources(&tree, 8);
            let (fine, fine_sources, went) = one_level_down(&tree, &sources);
            let mut opts = GravityOptions::default();
            opts.theta = theta;
            let solver = GravitySolver::new(opts);
            let (tiled, _) = solver.solve(&tree, &sources, &ExecSpace::Serial);
            let (mut plain, stats) = solver.solve(&fine, &fine_sources, &ExecSpace::Serial);
            assert!(stats.m2l_interactions > 0, "the oracle has a far field");
            m2p_minus_p2p(&fine, &fine_sources, opts, &mut plain);
            let (mut diff, mut scale) = ([0.0f64; 2], [0.0f64; 2]);
            for leaf in tree.leaves() {
                let t = &tiled[&leaf];
                for (c, &(child, fc)) in went[&leaf].iter().enumerate() {
                    let f = &plain[&child];
                    diff[0] = diff[0].max((t.phi[c] - f.phi[fc]).abs());
                    scale[0] = scale[0].max(f.phi[fc].abs());
                    for (tg, fg) in [(&t.gx, &f.gx), (&t.gy, &f.gy), (&t.gz, &f.gz)] {
                        diff[1] = diff[1].max((tg[c] - fg[fc]).abs());
                        scale[1] = scale[1].max(fg[fc].abs());
                    }
                }
            }
            assert!(diff[0] <= 1e-10 * scale[0], "phi: {diff:?} vs {scale:?}");
            assert!(diff[1] <= 1e-10 * scale[1], "g: {diff:?} vs {scale:?}");
            // Against direct summation at the default θ; θ = 0.3 only
            // tightens it.
            if theta == GravityOptions::default().theta {
                let err = rel_g_error(&tree, &sources, &tiled);
                assert!(err < 2e-3, "tiled FMM error too large: {err}");
            }
        }
    }

    #[test]
    fn cached_plan_solve_is_bit_identical_to_fresh_traversal() {
        // Solve twice with one solver (second solve hits the cached plan)
        // and once with a fresh solver (fresh traversal): all three must
        // agree bit-for-bit, on a uniform and on an adaptive tree.
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(NodeId::from_coords(1, [1, 1, 1]));
        for tree in [Tree::new_uniform(2), adaptive] {
            let sources = make_sources(&tree, 4);
            let cached = GravitySolver::default();
            let (f_first, s_first) = cached.solve(&tree, &sources, &ExecSpace::Serial);
            assert!(!cached.last_plan_hit());
            let (f_hit, s_hit) = cached.solve(&tree, &sources, &ExecSpace::Serial);
            assert!(cached.last_plan_hit(), "second solve must reuse the plan");
            assert_eq!(cached.plan_counters(), (1, 1));
            let fresh = GravitySolver::default();
            let (f_fresh, s_fresh) = fresh.solve(&tree, &sources, &ExecSpace::Serial);
            assert_eq!(s_first, s_hit);
            assert_eq!(s_first, s_fresh);
            for leaf in tree.leaves() {
                for (a, b) in [(&f_first, &f_hit), (&f_first, &f_fresh)] {
                    let (fa, fb) = (&a[&leaf], &b[&leaf]);
                    for c in 0..fa.phi.len() {
                        assert_eq!(fa.phi[c].to_bits(), fb.phi[c].to_bits());
                        assert_eq!(fa.gx[c].to_bits(), fb.gx[c].to_bits());
                        assert_eq!(fa.gy[c].to_bits(), fb.gy[c].to_bits());
                        assert_eq!(fa.gz[c].to_bits(), fb.gz[c].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn refinement_triggers_a_plan_rebuild_matching_a_fresh_solver() {
        let mut tree = Tree::new_uniform(1);
        let sources = make_sources(&tree, 4);
        let solver = GravitySolver::default();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(solver.plan_counters(), (0, 1));
        // Regrid: topology version bumps, the cached plan must be stale.
        let v0 = tree.topology_version();
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        assert!(tree.topology_version() > v0);
        let sources = make_sources(&tree, 4);
        let (f_cached, s_cached) = solver.solve(&tree, &sources, &ExecSpace::Serial);
        assert!(!solver.last_plan_hit(), "stale plan must not be reused");
        assert_eq!(solver.plan_counters(), (0, 2));
        let fresh = GravitySolver::default();
        let (f_fresh, s_fresh) = fresh.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(s_cached, s_fresh);
        for leaf in tree.leaves() {
            let (fa, fb) = (&f_cached[&leaf], &f_fresh[&leaf]);
            for c in 0..fa.phi.len() {
                assert_eq!(fa.phi[c].to_bits(), fb.phi[c].to_bits());
                assert_eq!(fa.gx[c].to_bits(), fb.gx[c].to_bits());
            }
        }
    }

    #[test]
    fn solver_clones_share_the_plan_cache() {
        // The pipelined stepper moves a clone into the gravity future; the
        // clone's solve must hit the original's cached plan (and vice
        // versa), or the persistence would silently do nothing.
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 2);
        let solver = GravitySolver::default();
        let clone = solver.clone();
        solver.solve(&tree, &sources, &ExecSpace::Serial);
        clone.solve(&tree, &sources, &ExecSpace::Serial);
        assert_eq!(solver.plan_counters(), (1, 1));
        assert_eq!(clone.plan_counters(), (1, 1));
        assert!(clone.last_plan_hit());
    }

    #[test]
    fn octupole_reduces_error() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let mut opts = GravityOptions::default();
        opts.use_octupole = false;
        let (f_no, _) = GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
        opts.use_octupole = true;
        let (f_yes, _) = GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
        let err_no = rel_g_error(&tree, &sources, &f_no);
        let err_yes = rel_g_error(&tree, &sources, &f_yes);
        assert!(
            err_yes < err_no,
            "octupole should improve accuracy: {err_yes} vs {err_no}"
        );
    }

    #[test]
    fn total_force_nearly_vanishes() {
        // Newton's third law: Σ m·g ≈ 0 (exactly for P2P, to truncation
        // order for M2L).
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 4);
        let (fields, _) = GravitySolver::default().solve(&tree, &sources, &ExecSpace::Serial);
        let mut total = [0.0f64; 3];
        let mut scale = 0.0f64;
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            let p = &sources[&leaf].points;
            for c in 0..p.len() {
                total[0] += p.ms[c] * f.gx[c];
                total[1] += p.ms[c] * f.gy[c];
                total[2] += p.ms[c] * f.gz[c];
                scale += p.ms[c] * (f.gx[c].powi(2) + f.gy[c].powi(2) + f.gz[c].powi(2)).sqrt();
            }
        }
        let mag = (total[0].powi(2) + total[1].powi(2) + total[2].powi(2)).sqrt();
        assert!(
            mag / scale < 1e-3,
            "net self-force too large: {mag} vs scale {scale}"
        );
    }

    #[test]
    fn theta_tightening_improves_accuracy() {
        // The n = 8 row runs all three near-field tiers under each θ (on
        // the smallest tree with a far field at θ = 0.8: debug-build P2P).
        for (tree, n) in [(Tree::new_uniform(2), 4), (Tree::new_uniform(1), 8)] {
            let sources = make_sources(&tree, n);
            let g_ref = direct_g(&tree, &sources);
            let mut errs = Vec::new();
            for theta in [0.8, 0.5, 0.3] {
                let mut opts = GravityOptions::default();
                opts.theta = theta;
                let (fields, _) =
                    GravitySolver::new(opts).solve(&tree, &sources, &ExecSpace::Serial);
                errs.push(rel_g_error_against(&g_ref, &tree, &fields));
            }
            assert!(
                errs[0] > errs[1] && errs[1] > errs[2],
                "n={n}: error must fall with theta: {errs:?}"
            );
        }
    }

    #[test]
    fn empty_leaves_are_tolerated() {
        let tree = Tree::new_uniform(1);
        let mut sources: HashMap<NodeId, LeafSources> = HashMap::new();
        for (i, leaf) in tree.leaves().into_iter().enumerate() {
            let mut points = PointMasses::default();
            if i == 0 {
                let (c, _) = node_geometry(leaf);
                points.push(c, 1.0);
            } else {
                // Leaf with zero-mass cells.
                let (c, _) = node_geometry(leaf);
                points.push(c, 0.0);
            }
            sources.insert(leaf, LeafSources { points });
        }
        let (fields, _) = GravitySolver::default().solve(&tree, &sources, &ExecSpace::Serial);
        // All finite.
        for leaf in tree.leaves() {
            let f = &fields[&leaf];
            assert!(f.phi.iter().all(|v| v.is_finite()));
            assert!(f.gx.iter().all(|v| v.is_finite()));
        }
    }
}
