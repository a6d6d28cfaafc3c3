//! The distributed FMM: per-locality halo plans and the multi-locality
//! solve.
//!
//! The paper's Fugaku runs shard the octree over HPX localities and move
//! every cross-locality interaction as a parcel.  This module does the
//! same over `hpx-rt` simulated localities: leaves are assigned to
//! localities by a deterministic partition of the SFC, interior slots
//! inherit the owner of their SFC-first descendant, and a [`DistPlan`]
//! freezes — once per regrid, keyed on the same `topology_version` as the
//! [`GravityPlan`] itself — exactly which expansions must cross which
//! locality boundary in each solver phase:
//!
//! * **upward** (class `multipole-up`): per child level, child multipoles
//!   whose parent slot is owned elsewhere;
//! * **M2L halo** (class `m2l`): far-field source multipoles read by
//!   targets owned elsewhere, deduplicated per `(from, to)` lane;
//! * **downward** (class `multipole-down`): per child level, parent local
//!   expansions read by children owned elsewhere;
//! * **P2P halo** (class `p2p`): near-field source leaves' point masses
//!   read by leaves owned elsewhere.
//!
//! `GravitySolver::solve_sharded` — the one gravity solve — then runs
//! the phases in level lockstep: each locality launches the per-slot
//! kernels of [`super::solver`] on its owned indices on its own runtime,
//! and between phases every frozen exchange is one parcel: encoded into
//! a recycled payload buffer, metered by class into
//! `/octotiger/parcels/*` and decoded into the receiver's table (one
//! parcel per `(from, to)` pair per phase/level).  **Local = one
//! locality**: [`GravitySolver::solve_with_plan`] is this loop over the
//! trivial one-locality plan, whose exchange lists are all empty, and
//! [`GravitySolver::solve_distributed`] is this loop over one HPX space
//! per runtime.
//!
//! **Bit-identity.**  Every locality count runs the same kernel code, fed
//! the same operands in the same plan-frozen order — transported values
//! are exact `f64` copies, and consumers fold them in CSR order, never
//! arrival order.  `tests/distributed_equivalence.rs` pins this: any
//! locality count produces bit-identical fields (and therefore
//! bit-identical 10-step ledgers) to the single-locality reference, and a
//! `solver.rs` test pins both to the bits the separate local kernels
//! produced before they were deleted.

use super::direct::PointMasses;
use super::multipole::{LocalExpansion, Multipole};
use super::plan::{GravityPlan, SlotKind};
#[cfg(debug_assertions)]
use super::solver::Hold;
use super::solver::{GravitySolver, LeafField, LeafSources, LocBufs, SolveStats};
use hpx_rt::{parcel_counters, LocalityId, ParcelClass, Runtime};
use kokkos_rs::pool::ScratchArena;
use kokkos_rs::ExecSpace;
use octree::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One batched cross-locality transfer: the plan-frozen list of slot (or
/// leaf) indices whose payloads travel the `(from, to)` lane together in
/// one parcel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Exchange {
    /// Sending locality.
    pub(crate) from: usize,
    /// Receiving locality.
    pub(crate) to: usize,
    /// Plan slot indices (or leaf indices for P2P), ascending — the
    /// serialization order on both ends.
    pub(crate) slots: Vec<usize>,
}

/// The per-locality halo plan: slot ownership plus the frozen exchange
/// lists of every phase.  Built once per (plan, locality count) and
/// cached by the solver next to the [`GravityPlan`] itself, keyed on the
/// same `topology_version` — a regrid invalidates both together, and
/// `solve_sharded` asserts in debug builds that it never runs a halo plan
/// against a plan it was not built for (`DistPlan::is_valid_for`).
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// `topology_version` of the plan this halo plan shards.
    pub(crate) topology_version: u64,
    /// θ of the underlying plan.
    pub(crate) theta: f64,
    /// Node count of the underlying plan.
    pub(crate) num_nodes: usize,
    /// Localities the tree is sharded over.
    pub(crate) num_localities: usize,
    /// Owner locality of every plan slot (leaves from the partition,
    /// interiors from their SFC-first descendant).
    pub(crate) slot_owner: Vec<usize>,
    /// Owner locality of every leaf index.
    pub(crate) leaf_owner: Vec<usize>,
    /// `owned_by_level[loc][level]` — slots of `loc` at `level`,
    /// ascending.
    pub(crate) owned_by_level: Vec<Vec<Vec<usize>>>,
    /// `owned_m2l_slots[loc]` — M2L target slots owned by `loc`,
    /// ascending (the locality's share of the multipole-kernel launch).
    pub(crate) owned_m2l_slots: Vec<Vec<usize>>,
    /// `owned_leaves[loc]` — leaf indices owned by `loc`, ascending (SFC
    /// order).
    pub(crate) owned_leaves: Vec<Vec<usize>>,
    /// Upward-pass exchanges, indexed by child tree level: child
    /// multipoles shipped to the parent slot's owner.
    pub(crate) up: Vec<Vec<Exchange>>,
    /// M2L halo exchanges: source multipoles shipped to the owners of the
    /// targets that read them.
    pub(crate) m2l_halo: Vec<Exchange>,
    /// Downward-pass exchanges, indexed by child tree level: parent local
    /// expansions shipped to the child slots' owners.
    pub(crate) down: Vec<Vec<Exchange>>,
    /// P2P halo exchanges: source leaves' point masses shipped to the
    /// owners of near-field neighbours.
    pub(crate) p2p_halo: Vec<Exchange>,
}

/// One exchange barrier of the phase-lockstep distributed solve, in the
/// order `GravitySolver::solve_sharded` runs them: `up[deepest]` …
/// `up[1]`, the M2L halo, `down[1]` … `down[deepest]`, the P2P halo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// After computing tree level `.0`: child multipoles up to the parent
    /// slot's owner (`up[level]`).
    Up(usize),
    /// Far-field source multipoles to the owners of the targets reading
    /// them (`m2l_halo`).
    M2lHalo,
    /// Before computing tree level `.0`: parent local expansions down to
    /// the child slots' owners (`down[level]`).
    Down(usize),
    /// Near-field source leaves' point masses to the owners of their
    /// neighbours (`p2p_halo`).
    P2pHalo,
}

impl Phase {
    /// The parcel class this phase's exchanges are metered under.
    fn class(self) -> ParcelClass {
        match self {
            Phase::Up(_) => ParcelClass::MultipoleUp,
            Phase::M2lHalo => ParcelClass::M2l,
            Phase::Down(_) => ParcelClass::MultipoleDown,
            Phase::P2pHalo => ParcelClass::P2p,
        }
    }

    /// What one entry of the table this phase moves is, for reports.
    #[cfg(debug_assertions)]
    pub(super) fn entry(self) -> &'static str {
        match self {
            Phase::Up(_) | Phase::M2lHalo => "multipole slot",
            Phase::Down(_) => "local-expansion slot",
            Phase::P2pHalo => "leaf",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Up(level) => write!(f, "up[level {level}]"),
            Phase::M2lHalo => write!(f, "m2l-halo"),
            Phase::Down(level) => write!(f, "down[level {level}]"),
            Phase::P2pHalo => write!(f, "p2p-halo"),
        }
    }
}

/// Turn a `(from, to) → indices` map into a deterministic exchange list:
/// lanes sorted by `(from, to)`, indices sorted ascending, deduplicated.
fn freeze(map: BTreeMap<(usize, usize), Vec<usize>>) -> Vec<Exchange> {
    map.into_iter()
        .map(|((from, to), mut slots)| {
            slots.sort_unstable();
            slots.dedup();
            Exchange { from, to, slots }
        })
        .collect()
}

/// One halo (M2L over slots, P2P over leaf indices): every source a target
/// reads that is owned elsewhere travels the `(source owner, target owner)`
/// lane, once however many of the receiver's targets read it.
fn halo_table<'a>(
    targets: impl Iterator<Item = usize>,
    owner: &[usize],
    sources_of: impl Fn(usize) -> &'a [usize],
) -> Vec<Exchange> {
    let mut lanes: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for t in targets {
        for &src in sources_of(t) {
            if owner[src] != owner[t] {
                lanes.entry((owner[src], owner[t])).or_default().push(src);
            }
        }
    }
    freeze(lanes)
}

/// Leaf slots inherit the partition owner; interiors their SFC-first
/// child's.  Children live at strictly smaller slots, so one ascending
/// sweep resolves every interior.
fn slot_owner_table(plan: &GravityPlan, leaf_owner: &[usize]) -> Vec<usize> {
    let mut slot_owner = vec![usize::MAX; plan.num_nodes];
    for (li, &slot) in plan.leaf_slots.iter().enumerate() {
        slot_owner[slot] = leaf_owner[li];
    }
    for s in 0..plan.num_nodes {
        if let SlotKind::Interior(kids) = plan.kinds[s] {
            slot_owner[s] = slot_owner[kids[0]];
        }
    }
    slot_owner
}

/// The per-locality index tables — O(num slots) ascending sweeps.
#[allow(clippy::type_complexity)]
fn locality_tables(
    plan: &GravityPlan,
    slot_owner: &[usize],
    leaf_owner: &[usize],
    num_localities: usize,
) -> (Vec<Vec<Vec<usize>>>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let nlev = plan.level_ranges.len();
    let mut owned_by_level = vec![vec![Vec::new(); nlev]; num_localities];
    for (level, &(b, e)) in plan.level_ranges.iter().enumerate() {
        for s in b..e {
            owned_by_level[slot_owner[s]][level].push(s);
        }
    }
    let mut owned_m2l_slots = vec![Vec::new(); num_localities];
    for &t in &plan.m2l_targets {
        owned_m2l_slots[slot_owner[t]].push(t);
    }
    let mut owned_leaves = vec![Vec::new(); num_localities];
    for (li, &o) in leaf_owner.iter().enumerate() {
        owned_leaves[o].push(li);
    }
    (owned_by_level, owned_m2l_slots, owned_leaves)
}

/// The up/down exchange schedules — one O(num slots) sweep over the
/// parent links.
fn up_down_tables(
    plan: &GravityPlan,
    slot_owner: &[usize],
) -> (Vec<Vec<Exchange>>, Vec<Vec<Exchange>>) {
    let nlev = plan.level_ranges.len();
    let mut up: Vec<BTreeMap<(usize, usize), Vec<usize>>> = vec![BTreeMap::new(); nlev];
    let mut down: Vec<BTreeMap<(usize, usize), Vec<usize>>> = vec![BTreeMap::new(); nlev];
    for (level, &(b, e)) in plan.level_ranges.iter().enumerate().skip(1) {
        for s in b..e {
            let p = plan.parent_slot[s];
            let (so, po) = (slot_owner[s], slot_owner[p]);
            if so != po {
                // Child multipole up to the parent's owner; parent
                // local expansion down to the child's owner.
                up[level].entry((so, po)).or_default().push(s);
                down[level].entry((po, so)).or_default().push(p);
            }
        }
    }
    (
        up.into_iter().map(freeze).collect(),
        down.into_iter().map(freeze).collect(),
    )
}

impl DistPlan {
    /// Shard `plan` over `num_localities` according to `owner` (the leaf
    /// partition; the driver passes [`octree::partition_morton`]).
    pub fn build(
        plan: &GravityPlan,
        owner: &HashMap<NodeId, LocalityId>,
        num_localities: usize,
    ) -> DistPlan {
        let leaf_owner = plan.leaves.iter().map(|l| owner[l].0).collect();
        Self::from_leaf_owner(plan, leaf_owner, num_localities)
    }

    /// The one-locality plan the local solve runs over: locality 0 owns
    /// every slot, so every exchange list is empty and no parcel moves.
    pub(super) fn single_locality(plan: &GravityPlan) -> DistPlan {
        Self::from_leaf_owner(plan, vec![0; plan.leaves.len()], 1)
    }

    /// The plan proper from the leaf partition: the owner tables, the
    /// per-locality index lists, the up/down schedules and the two halos,
    /// each one sweep over the interaction plan.
    fn from_leaf_owner(
        plan: &GravityPlan,
        leaf_owner: Vec<usize>,
        num_localities: usize,
    ) -> DistPlan {
        assert!(num_localities > 0, "need at least one locality");
        let slot_owner = slot_owner_table(plan, &leaf_owner);
        debug_assert!(slot_owner.iter().all(|&o| o < num_localities));
        let (owned_by_level, owned_m2l_slots, owned_leaves) =
            locality_tables(plan, &slot_owner, &leaf_owner, num_localities);
        let (up, down) = up_down_tables(plan, &slot_owner);
        let mut m2l_halo = halo_table(plan.m2l_targets.iter().copied(), &slot_owner, |t| {
            plan.m2l_sources_of(t)
        });
        // The up pass already delivered a child's multipole to its parent's
        // owner: the halo does not ship it there again.
        for ex in &mut m2l_halo {
            ex.slots
                .retain(|&s| slot_owner.get(plan.parent_slot[s]) != Some(&ex.to));
        }
        m2l_halo.retain(|ex| !ex.slots.is_empty());
        let p2p_halo = halo_table(0..leaf_owner.len(), &leaf_owner, |li| {
            plan.p2p_sources_of(li)
        });
        DistPlan {
            topology_version: plan.topology_version,
            theta: plan.theta,
            num_nodes: plan.num_nodes,
            num_localities,
            slot_owner,
            leaf_owner,
            owned_by_level,
            owned_m2l_slots,
            owned_leaves,
            up,
            m2l_halo,
            down,
            p2p_halo,
        }
    }

    /// The halo plan's invalidation rule: it shards exactly `plan` (same
    /// `topology_version`, node count and θ) over the same locality
    /// count.  The owner map is not part of the key because it is a pure
    /// function of (topology, locality count).
    pub(crate) fn is_valid_for(&self, plan: &GravityPlan, num_localities: usize) -> bool {
        self.topology_version == plan.topology_version
            && self.num_nodes == plan.num_nodes
            && self.theta == plan.theta
            && self.num_localities == num_localities
    }

    /// Total parcels one solve moves (every exchange is one parcel).
    pub(crate) fn parcels_per_solve(&self) -> usize {
        self.up.iter().map(Vec::len).sum::<usize>()
            + self.m2l_halo.len()
            + self.down.iter().map(Vec::len).sum::<usize>()
            + self.p2p_halo.len()
    }
}

/// Words of the flat parcel encoding of a point set.
fn points_flat_len(p: &PointMasses) -> usize {
    1 + 4 * p.len()
}

/// Append the flat parcel encoding of a point set: count, then the four
/// SoA component runs (exact bit copies).
fn write_points_flat(p: &PointMasses, out: &mut Vec<f64>) {
    out.push(p.len() as f64);
    out.extend_from_slice(&p.xs);
    out.extend_from_slice(&p.ys);
    out.extend_from_slice(&p.zs);
    out.extend_from_slice(&p.ms);
}

/// Decode one point set from the front of `buf` into `out`, reusing its
/// storage.
fn read_points_flat(buf: &[f64], out: &mut PointMasses) {
    let n = buf[0] as usize;
    for (k, run) in [&mut out.xs, &mut out.ys, &mut out.zs, &mut out.ms]
        .into_iter()
        .enumerate()
    {
        run.clear();
        run.extend_from_slice(&buf[1 + k * n..1 + (k + 1) * n]);
    }
}

/// Run `f(loc, bufs[loc])` for every locality and join.  Locality 0's
/// share runs on the calling thread — like any kernel launch, so the
/// one-locality solve spawns nothing here — and every further locality's
/// as a scoped task on its own runtime (inline on a space without one),
/// opened outermost-last so the caller finishes its own share before it
/// helps the others drain.
fn run_phase<F>(spaces: &[ExecSpace], bufs: &mut [LocBufs], f: &F)
where
    F: Fn(usize, &mut LocBufs) + Sync,
{
    let Some((last, rest)) = bufs.split_last_mut() else {
        return;
    };
    let loc = rest.len();
    match &spaces[loc] {
        ExecSpace::Hpx(hpx) if loc > 0 => hpx.runtime.scope(|s| {
            s.spawn(move || f(loc, last));
            run_phase(spaces, rest, f);
        }),
        _ => {
            run_phase(spaces, rest, f);
            f(loc, last);
        }
    }
}

/// Ship one phase's exchange list, one parcel per `(from, to)` exchange:
/// encode on the sender's side into a recycled payload of exactly the
/// exchange's word count (so its arena bucket is stable from solve to
/// solve), meter it by the phase's class, decode it into the receiver's
/// table in the same frozen order.  The class names the cargo: multipoles
/// on the way up and for the M2L halo, local expansions on the way down,
/// and the listed leaves' `points` for the P2P halo.  Phases are joined
/// before any exchange runs, and no exchange of a phase reads what
/// another writes (senders hold what they ship, nothing is received
/// twice), so parcels are delivered in list order.  Debug builds
/// check both entry by entry against the localities' `Held` marks: a
/// foreign send or a double receive panics naming the phase, the link and
/// the slot.  Returns the `(parcels, bytes)` shipped.
fn exchange(
    arena: &ScratchArena,
    points: &[&PointMasses],
    bufs: &mut [LocBufs],
    exchanges: &[Exchange],
    phase: Phase,
) -> (usize, usize) {
    let class = phase.class();
    let words = |i: usize| match class {
        ParcelClass::P2p => points_flat_len(points[i]),
        ParcelClass::MultipoleDown => LocalExpansion::FLAT_LEN,
        _ => Multipole::FLAT_LEN,
    };
    let mut shipped = 0usize;
    for ex in exchanges {
        let mut payload = arena.checkout_empty(ex.slots.iter().map(|&i| words(i)).sum());
        let sender = &bufs[ex.from];
        for &i in &ex.slots {
            #[cfg(debug_assertions)]
            assert!(
                sender.held.get(phase, i) != Hold::Missing,
                "foreign send: phase {phase}: link {}→{}: locality {} ships {} {i}, which it \
                 neither computed nor received",
                ex.from,
                ex.to,
                ex.from,
                phase.entry()
            );
            match class {
                ParcelClass::P2p => write_points_flat(points[i], &mut payload),
                ParcelClass::MultipoleDown => sender.locals[i].write_flat(&mut payload),
                _ => sender.multipoles[i].write_flat(&mut payload),
            }
        }
        let bytes = payload.len() * std::mem::size_of::<f64>();
        parcel_counters().note_send(class, bytes as u64);
        shipped += bytes;
        let receiver = &mut bufs[ex.to];
        let mut off = 0usize;
        for &i in &ex.slots {
            #[cfg(debug_assertions)]
            {
                let held = &mut receiver.held.table(phase)[i];
                assert!(
                    *held == Hold::Missing,
                    "double receive: phase {phase}: link {}→{}: locality {} already holds {} {i} \
                     ({held:?})",
                    ex.from,
                    ex.to,
                    ex.to,
                    phase.entry()
                );
                *held = Hold::Received;
            }
            let buf = &payload[off..off + words(i)];
            match class {
                ParcelClass::P2p => read_points_flat(buf, &mut receiver.halo_points[i]),
                ParcelClass::MultipoleDown => receiver.locals[i] = LocalExpansion::read_flat(buf),
                _ => receiver.multipoles[i] = Multipole::read_flat(buf),
            }
            off += buf.len();
        }
        debug_assert_eq!(off, payload.len(), "parcel decode misaligned");
    }
    (exchanges.len(), shipped)
}

/// `(parcels, bytes)` one solve shipped, indexed by `ParcelClass as usize`.
type Shipped = [(usize, usize); ParcelClass::P2p as usize + 1];

#[cfg(test)]
thread_local! {
    /// Test observation point: what the last solve on this thread shipped
    /// — exact where the process-wide `parcel_counters()` also count
    /// concurrent tests' parcels.
    static LAST_SHIPPED: std::cell::Cell<Shipped> = std::cell::Cell::default();
}

impl GravitySolver {
    /// Run the solve sharded over `dist.num_localities` simulated
    /// localities, each computing its owned slots on its own runtime
    /// (`rts[loc]`), with cross-locality traffic batched into one parcel
    /// per frozen exchange.  Bit-identical for every locality count.
    pub fn solve_distributed(
        &self,
        plan: &Arc<GravityPlan>,
        dist: &Arc<DistPlan>,
        sources: &Arc<HashMap<NodeId, LeafSources>>,
        rts: &[Runtime],
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        assert!(
            rts.len() >= dist.num_localities,
            "need one runtime per locality"
        );
        let spaces: Vec<ExecSpace> = rts[..dist.num_localities]
            .iter()
            .map(|rt| ExecSpace::hpx(rt.clone()))
            .collect();
        self.solve_sharded(plan, dist, sources, &spaces)
    }

    /// The one gravity solve: the three solver phases in level lockstep
    /// over `dist`'s localities.  Each phase launches the per-slot kernels
    /// of [`super::solver`] on every locality's owned indices (on
    /// `spaces[loc]`), then moves the frozen exchange lists as parcels.
    /// The local solve is the one-locality case: nothing is exchanged.
    pub(super) fn solve_sharded(
        &self,
        plan: &GravityPlan,
        dist: &DistPlan,
        sources: &HashMap<NodeId, LeafSources>,
        spaces: &[ExecSpace],
    ) -> (HashMap<NodeId, LeafField>, SolveStats) {
        let nloc = dist.num_localities;
        assert_eq!(spaces.len(), nloc, "need one execution space per locality");
        debug_assert!(
            dist.is_valid_for(plan, nloc),
            "stale halo plan: built for topology_version {}, solving version {}",
            dist.topology_version,
            plan.topology_version
        );
        debug_assert!(plan.leaves.iter().all(|l| sources.contains_key(l)));
        let mut bufs = self.take_buffers(nloc);
        for b in &mut bufs {
            b.reset_tables(plan);
            // A locality holds its own leaves' points from the start.
            #[cfg(debug_assertions)]
            for &li in &dist.owned_leaves[b.loc] {
                b.held.table(Phase::P2pHalo)[li] = Hold::Own;
            }
        }
        let points: Vec<&PointMasses> = plan.leaves.iter().map(|l| &sources[l].points).collect();
        let mut shipped = Shipped::default();
        let mut ship = |bufs: &mut [LocBufs], phase: Phase, exchanges: &[Exchange]| {
            let (parcels, bytes) = exchange(&self.scratch, &points, bufs, exchanges, phase);
            let class = phase.class() as usize;
            shipped[class].0 += parcels;
            shipped[class].1 += bytes;
        };

        // ---- Phase 1: bottom-up, level-lockstep. -----------------------
        // Each locality computes its owned slots of the level, then child
        // multipoles whose parent lives elsewhere cross as `multipole-up`
        // parcels.
        let nlev = plan.level_ranges.len();
        for level in (0..nlev).rev() {
            run_phase(spaces, &mut bufs, &|loc, b: &mut LocBufs| {
                self.upward_level(plan, dist, level, sources, b, &spaces[loc]);
            });
            if level > 0 {
                ship(&mut bufs, Phase::Up(level), &dist.up[level]);
            }
        }

        // ---- Phase 2: M2L halo, then each locality's share of the
        // multipole kernel. ----------------------------------------------
        // The slot table is transposed into component-major lanes once
        // per solve; every M2L chunk then gathers from dense arrays.
        ship(&mut bufs, Phase::M2lHalo, &dist.m2l_halo);
        run_phase(spaces, &mut bufs, &|loc, b: &mut LocBufs| {
            b.soa.fill(&b.multipoles);
            self.m2l_kernel(plan, dist, b, &spaces[loc]);
        });

        // ---- Phase 3a: top-down, level-lockstep. -----------------------
        // Parent locals at level L are final once level L was written, so
        // ship the cross-locality ones, then the children gather + shift.
        for level in 1..nlev {
            ship(&mut bufs, Phase::Down(level), &dist.down[level]);
            run_phase(spaces, &mut bufs, &|loc, b: &mut LocBufs| {
                self.downward_level(plan, dist, level, b, &spaces[loc]);
            });
        }

        // ---- Phase 3b: P2P halo, then tiles and per-leaf evaluation. ----
        ship(&mut bufs, Phase::P2pHalo, &dist.p2p_halo);
        run_phase(spaces, &mut bufs, &|loc, b: &mut LocBufs| {
            self.evaluate_leaves(plan, dist, &points, b, &spaces[loc]);
        });

        // ---- Assemble the global field map from the owned shards. ------
        let mut fields = HashMap::with_capacity(plan.leaves.len());
        for (owned, b) in dist.owned_leaves.iter().zip(&mut bufs) {
            for (&li, eval) in owned.iter().zip(&mut b.evals) {
                fields.insert(plan.leaves[li], std::mem::take(&mut eval.field));
            }
        }
        self.put_buffers(bufs);
        debug_assert_eq!(
            shipped.iter().map(|s| s.0).sum::<usize>(),
            dist.parcels_per_solve(),
            "every frozen exchange is one parcel"
        );
        #[cfg(test)]
        LAST_SHIPPED.with(|last| last.set(shipped));
        (fields, plan.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::{partition_morton, Tree};

    fn plan_for(tree: &Tree) -> GravityPlan {
        GravityPlan::build(tree, 0.5)
    }

    #[test]
    fn slot_ownership_is_total_and_follows_first_children() {
        let tree = Tree::new_uniform(2);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let dist = DistPlan::build(&plan, &owner, 4);
        assert_eq!(dist.slot_owner.len(), plan.num_nodes);
        for (s, kind) in plan.kinds.iter().enumerate() {
            match kind {
                SlotKind::Leaf(li) => {
                    assert_eq!(dist.slot_owner[s], owner[&plan.leaves[*li]].0);
                }
                SlotKind::Interior(kids) => {
                    assert_eq!(dist.slot_owner[s], dist.slot_owner[kids[0]]);
                }
            }
        }
        // Every slot appears in exactly one locality's level list.
        let total: usize = dist
            .owned_by_level
            .iter()
            .flat_map(|per| per.iter().map(Vec::len))
            .sum();
        assert_eq!(total, plan.num_nodes);
    }

    #[test]
    fn exchanges_only_cross_locality_boundaries() {
        let tree = Tree::new_uniform(2);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 3);
        let dist = DistPlan::build(&plan, &owner, 3);
        assert!(dist.parcels_per_solve() > 0, "3-way shard must communicate");
        for ex in dist
            .up
            .iter()
            .flatten()
            .chain(dist.m2l_halo.iter())
            .chain(dist.down.iter().flatten())
            .chain(dist.p2p_halo.iter())
        {
            assert_ne!(ex.from, ex.to, "local traffic must not become parcels");
            assert!(!ex.slots.is_empty());
            assert!(ex.slots.windows(2).all(|w| w[0] < w[1]), "frozen order");
        }
        // Single-locality sharding communicates nothing.
        let dist1 = DistPlan::build(&plan, &partition_morton(&tree, 1), 1);
        assert_eq!(dist1.parcels_per_solve(), 0);
    }

    #[test]
    fn halo_plan_invalidates_with_the_interaction_plan() {
        let mut tree = Tree::new_uniform(1);
        let plan = plan_for(&tree);
        let owner = partition_morton(&tree, 2);
        let dist = DistPlan::build(&plan, &owner, 2);
        assert!(dist.is_valid_for(&plan, 2));
        assert!(!dist.is_valid_for(&plan, 4), "locality count is in the key");
        tree.refine_balanced(tree.leaves()[0]);
        let plan2 = plan_for(&tree);
        assert!(
            !dist.is_valid_for(&plan2, 2),
            "topology bump must invalidate the halo plan"
        );
    }

    /// Deterministic sources on a tree's leaf cell centers (a small blob
    /// with a ripple, same recipe as the solver tests).
    fn make_sources(tree: &Tree, n: usize) -> HashMap<NodeId, super::LeafSources> {
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
                        let x = (ux - 0.5) * 2.0;
                        let y = (uy - 0.5) * 2.0;
                        let z = (uz - 0.5) * 2.0;
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
            out.insert(leaf, super::LeafSources { points });
        }
        out
    }

    /// What one solve's wire carries, from the frozen plan alone: words of
    /// slot payloads (multipoles, local expansions) and of P2P point sets.
    fn wire_words(
        plan: &GravityPlan,
        dist: &DistPlan,
        sources: &HashMap<NodeId, super::LeafSources>,
    ) -> (usize, usize) {
        let slot_words = (dist.up.iter().flatten())
            .chain(&dist.m2l_halo)
            .chain(dist.down.iter().flatten())
            .map(|ex| ex.slots.len() * Multipole::FLAT_LEN)
            .sum();
        let point_words = (dist.p2p_halo.iter())
            .flat_map(|ex| &ex.slots)
            .map(|&li| points_flat_len(&sources[&plan.leaves[li]].points))
            .sum();
        (slot_words, point_words)
    }

    /// `(parcels, bytes)` over every class.
    fn total(shipped: &Shipped) -> (usize, usize) {
        shipped.iter().fold((0, 0), |t, s| (t.0 + s.0, t.1 + s.1))
    }

    #[test]
    fn distributed_solve_is_bit_identical_to_single_locality() {
        let mut adaptive = Tree::new_uniform(1);
        adaptive.refine_balanced(adaptive.leaves()[0]);
        for tree in [Tree::new_uniform(2), adaptive] {
            let sources = Arc::new(make_sources(&tree, 3));
            let solver = GravitySolver::default();
            let plan = solver.plan_for(&tree);
            let (f_ref, s_ref) = solver.solve_with_plan(&plan, &sources, &ExecSpace::Serial);
            for nloc in [2usize, 3, 4, 7] {
                let owner = partition_morton(&tree, nloc);
                let dist = solver.dist_plan_for(&plan, &owner, nloc);
                let rts: Vec<Runtime> = (0..nloc).map(|_| Runtime::new(2)).collect();
                let (f_dist, s_dist) = solver.solve_distributed(&plan, &dist, &sources, &rts);
                assert_eq!(s_ref, s_dist);
                assert_eq!(f_ref.len(), f_dist.len());
                for leaf in tree.leaves() {
                    let (a, b) = (&f_ref[&leaf], &f_dist[&leaf]);
                    for c in 0..a.phi.len() {
                        assert_eq!(a.phi[c].to_bits(), b.phi[c].to_bits(), "nloc={nloc}");
                        assert_eq!(a.gx[c].to_bits(), b.gx[c].to_bits(), "nloc={nloc}");
                        assert_eq!(a.gy[c].to_bits(), b.gy[c].to_bits(), "nloc={nloc}");
                        assert_eq!(a.gz[c].to_bits(), b.gz[c].to_bits(), "nloc={nloc}");
                    }
                }
                for rt in rts {
                    rt.shutdown();
                }
            }
        }
    }

    #[test]
    fn m2l_halo_ships_no_multipole_the_up_pass_delivered() {
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 2);
        let plan = plan_for(&tree);
        let dist = DistPlan::build(&plan, &partition_morton(&tree, 7), 7);
        let delivered: std::collections::HashSet<(usize, usize)> = (dist.up.iter().flatten())
            .flat_map(|ex| ex.slots.iter().map(|&s| (ex.to, s)))
            .collect();
        let unfiltered = halo_table(plan.m2l_targets.iter().copied(), &dist.slot_owner, |t| {
            plan.m2l_sources_of(t)
        });
        let entries = |halo: &[Exchange]| -> Vec<(usize, usize)> {
            (halo.iter())
                .flat_map(|ex| ex.slots.iter().map(|&s| (ex.to, s)))
                .collect()
        };
        let repeats = |halo: &[Exchange]| {
            (entries(halo).iter())
                .filter(|e| delivered.contains(e))
                .count()
        };
        assert!(repeats(&unfiltered) > 0, "the tree exercises the overlap");
        assert_eq!(repeats(&dist.m2l_halo), 0);
        assert_eq!(
            entries(&dist.m2l_halo).len() + repeats(&unfiltered),
            entries(&unfiltered).len()
        );
        // Debug builds' held marks panic on a double receive or a starved
        // read; the bits match the one-locality solve.
        let solver = GravitySolver::default();
        let (f1, _) = solver.solve_with_plan(&plan, &sources, &ExecSpace::Serial);
        let spaces = vec![ExecSpace::Serial; 7];
        let (f7, _) = solver.solve_sharded(&plan, &dist, &sources, &spaces);
        for leaf in tree.leaves() {
            let (a, b) = (&f1[&leaf], &f7[&leaf]);
            for (x, y) in [
                (&a.phi, &b.phi),
                (&a.gx, &b.gx),
                (&a.gy, &b.gy),
                (&a.gz, &b.gz),
            ] {
                assert!(x
                    .iter()
                    .zip(y.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn dist_plan_cache_hits_until_the_topology_changes() {
        let tree = Tree::new_uniform(2);
        let solver = GravitySolver::default();
        let plan = solver.plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let d1 = solver.dist_plan_for(&plan, &owner, 4);
        let d2 = solver.dist_plan_for(&plan, &owner, 4);
        assert!(Arc::ptr_eq(&d1, &d2), "unchanged key must hit the cache");
        assert_eq!(solver.dist_plan_counters(), (1, 1));
        // A different locality count misses...
        let owner2 = partition_morton(&tree, 2);
        let d3 = solver.dist_plan_for(&plan, &owner2, 2);
        assert!(!Arc::ptr_eq(&d1, &d3));
        assert_eq!(solver.dist_plan_counters(), (1, 2));
        assert_eq!(solver.topology_rebuilds(), 0, "no regrid caused that miss");
        // ...and the clone shares the cache, like the interaction plan's.
        let clone = solver.clone();
        clone.dist_plan_for(&plan, &owner2, 2);
        assert_eq!(solver.dist_plan_counters(), (2, 2));
    }

    #[test]
    fn distributed_solve_meters_parcels() {
        let tree = Tree::new_uniform(2);
        let sources = Arc::new(make_sources(&tree, 2));
        let solver = GravitySolver::default();
        let plan = solver.plan_for(&tree);
        let owner = partition_morton(&tree, 4);
        let dist = solver.dist_plan_for(&plan, &owner, 4);
        let before = parcel_counters().snapshot();
        let rts: Vec<Runtime> = (0..4).map(|_| Runtime::new(2)).collect();
        drop(solver.solve_distributed(&plan, &dist, &sources, &rts));
        let delta = parcel_counters().snapshot().since(&before);
        let (slot_words, point_words) = wire_words(&plan, &dist, &sources);
        let shipped = LAST_SHIPPED.with(std::cell::Cell::take);
        assert_eq!(
            total(&shipped),
            (dist.parcels_per_solve(), 8 * (slot_words + point_words)),
            "every frozen exchange is one parcel of its exact word count"
        );
        let [_, up, m2l, down, p2p] = shipped;
        assert_eq!(p2p, (dist.p2p_halo.len(), 8 * point_words));
        assert_eq!(m2l.0, dist.m2l_halo.len());
        assert_eq!(up.0, dist.up.iter().map(Vec::len).sum::<usize>());
        assert_eq!(down.0, dist.down.iter().map(Vec::len).sum::<usize>());
        // Each is metered once; the process-wide block also counts
        // concurrent tests' parcels, so its delta is a lower bound.
        assert!(delta.total_count() as usize >= dist.parcels_per_solve());
        assert!(delta.p2p_bytes as usize >= p2p.1 && delta.m2l_bytes as usize >= m2l.1);
        for rt in rts {
            rt.shutdown();
        }
    }

    #[test]
    fn repeated_solve_recycles_every_payload_and_field() {
        // The solver's private arena sees only this test's checkouts, and
        // serial spaces make the parcel stream single-threaded, so the
        // miss counts here are exact.
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 3);
        let solver = GravitySolver::default();
        let plan = solver.plan_for(&tree);
        let dist = solver.dist_plan_for(&plan, &partition_morton(&tree, 4), 4);
        let spaces = vec![ExecSpace::Serial; 4];
        let (slot_words, point_words) = wire_words(&plan, &dist, &sources);
        let solve_metered = || {
            let misses = solver.scratch.stats().misses;
            drop(solver.solve_sharded(&plan, &dist, &sources, &spaces));
            (
                LAST_SHIPPED.with(std::cell::Cell::take),
                solver.scratch.stats().misses - misses,
            )
        };
        let (first, first_misses) = solve_metered();
        let (second, second_misses) = solve_metered();
        assert!(first_misses > 0, "the first solve fills the arena");
        assert_eq!(
            second_misses, 0,
            "an unchanged tree re-solves out of the arena: exact-size payload \
             checkouts land in stable buckets"
        );
        for shipped in [first, second] {
            assert_eq!(
                total(&shipped),
                (dist.parcels_per_solve(), 8 * (slot_words + point_words))
            );
            assert_eq!(shipped[ParcelClass::P2p as usize].1, 8 * point_words);
        }
    }

    #[test]
    fn point_flat_encoding_round_trips() {
        let mut p = PointMasses::default();
        p.push([1.0, 2.0, 3.0], 4.0);
        p.push([-1.5, 0.25, -0.125], 2.5);
        let mut wire = Vec::new();
        write_points_flat(&p, &mut wire);
        write_points_flat(&p, &mut wire);
        let used = points_flat_len(&p);
        assert_eq!(wire.len(), 2 * used);
        // Decoding reuses the target's storage, whatever it held before.
        let mut back = p.clone();
        back.push([9.0, 9.0, 9.0], 9.0);
        read_points_flat(&wire, &mut back);
        assert_eq!(back.xs, p.xs);
        assert_eq!(back.ms, p.ms);
        let mut back2 = PointMasses::default();
        read_points_flat(&wire[used..], &mut back2);
        assert_eq!(back2.ys, p.ys);
        assert_eq!(back2.zs, p.zs);
    }

    /// The text of a caught panic.
    #[cfg(debug_assertions)]
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
        }
    }

    /// Solve `plan` over `dist` on serial spaces (so a panic reaches the
    /// caller with its message) and return the panic's text.
    #[cfg(debug_assertions)]
    fn solve_panics(
        plan: &GravityPlan,
        dist: &DistPlan,
        sources: &HashMap<NodeId, super::LeafSources>,
    ) -> Result<(), String> {
        let spaces = vec![ExecSpace::Serial; dist.num_localities];
        let solver = GravitySolver::default();
        let solve = || drop(solver.solve_sharded(plan, dist, sources, &spaces));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).map_err(panic_text)
    }

    /// The faults a halo plan can carry, each planted into one exchange.
    #[cfg(debug_assertions)]
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// The exchange is gone: its receiver starves.
        DroppedExchange,
        /// One slot is gone from it: one read starves.
        DroppedSlot,
        /// A second sender ships one of its slots to the same receiver.
        DoubleReceive,
        /// A second locality claims one of its slots and ships it too.
        OwnershipOverlap,
        /// It is re-aimed at its own sender.
        SelfLink,
    }

    /// Plant `fault` into a copy of `dist` at the first exchange of
    /// `phase`.  Returns the copy and the `phase …: link a→b:` and
    /// `slot s` parts the report must name, the slot only where the first
    /// failing check is known.
    #[cfg(debug_assertions)]
    fn plant(
        plan: &GravityPlan,
        dist: &DistPlan,
        phase: Phase,
        fault: Fault,
    ) -> Option<(DistPlan, String, Option<String>)> {
        let mut planted = dist.clone();
        let lists = (planted.up.iter_mut().enumerate())
            .map(|(l, list)| (Phase::Up(l), list))
            .chain([(Phase::M2lHalo, &mut planted.m2l_halo)])
            .chain((planted.down.iter_mut().enumerate()).map(|(l, list)| (Phase::Down(l), list)))
            .chain([(Phase::P2pHalo, &mut planted.p2p_halo)]);
        let list = lists.into_iter().find(|(p, _)| *p == phase)?.1;
        let first = list.first()?;
        let (from, to, slot) = (first.from, first.to, first.slots[0]);
        let link = |a: usize, b: usize| format!("phase {phase}: link {a}→{b}:");
        let entry = |s: usize| Some(format!("{} {s}", phase.entry()));
        let (link, entry) = match fault {
            Fault::DroppedExchange => {
                list.remove(0);
                (link(from, to), None)
            }
            Fault::DroppedSlot => {
                list[0].slots.retain(|&s| s != slot);
                (link(from, to), entry(slot))
            }
            Fault::DoubleReceive => {
                let forged = (0..dist.num_localities).find(|&l| l != from && l != to);
                let forged = forged.unwrap_or(from);
                list.push(Exchange {
                    from: forged,
                    to,
                    slots: vec![slot],
                });
                (link(forged, to), entry(slot))
            }
            Fault::OwnershipOverlap => {
                let claimer = (0..dist.num_localities).find(|&l| l != from).unwrap();
                if claimer != to {
                    list.push(Exchange {
                        from: claimer,
                        to,
                        slots: vec![slot],
                    });
                }
                let owned = match phase {
                    Phase::P2pHalo => &mut planted.owned_leaves[claimer],
                    _ => &mut planted.owned_by_level[claimer][plan.nodes[slot].level() as usize],
                };
                owned.insert(owned.partition_point(|&s| s < slot), slot);
                // The claimer's own launch may starve first, at any phase.
                ("link ".to_string(), None)
            }
            Fault::SelfLink => {
                list[0].to = from;
                (link(from, from), entry(list[0].slots[0]))
            }
        };
        Some((planted, link, entry))
    }

    /// Whether `report` names `entry` (`slot 6`, not as part of `slot 66`).
    #[cfg(debug_assertions)]
    fn names(report: &str, entry: &str) -> bool {
        report
            .match_indices(entry)
            .any(|(at, _)| !report[at + entry.len()..].starts_with(|c: char| c.is_ascii_digit()))
    }

    #[cfg(debug_assertions)]
    #[test]
    fn planted_halo_faults_panic_naming_phase_link_and_slot() {
        let mut refined = Tree::new_uniform(1);
        refined.refine_balanced(refined.leaves()[0]);
        for tree in [Tree::new_uniform(2), refined] {
            let plan = plan_for(&tree);
            let sources = make_sources(&tree, 2);
            let nlev = plan.level_ranges.len();
            let phases = ((1..nlev).map(Phase::Up))
                .chain([Phase::M2lHalo])
                .chain((1..nlev).map(Phase::Down))
                .chain([Phase::P2pHalo]);
            let phases: Vec<Phase> = phases.collect();
            for nloc in [2, 4, 7] {
                let dist = DistPlan::build(&plan, &partition_morton(&tree, nloc), nloc);
                assert_eq!(solve_panics(&plan, &dist, &sources), Ok(()));
                let mut planted = 0;
                for &phase in &phases {
                    for fault in [
                        Fault::DroppedExchange,
                        Fault::DroppedSlot,
                        Fault::DoubleReceive,
                        Fault::OwnershipOverlap,
                        Fault::SelfLink,
                    ] {
                        let Some((bad, link, entry)) = plant(&plan, &dist, phase, fault) else {
                            continue;
                        };
                        planted += 1;
                        let case = format!("{fault:?} in {phase}, N={nloc}");
                        let report = solve_panics(&plan, &bad, &sources)
                            .expect_err(&format!("{case}: not caught"));
                        let names_slot = ["slot ", "leaf "].iter().any(|w| report.contains(w));
                        assert!(report.contains(&link) && names_slot, "{case}: {report}");
                        if let Some(entry) = entry {
                            assert!(names(&report, &entry), "{case}: {report}");
                        }
                    }
                }
                assert!(planted >= 5 * 3, "N={nloc}: only {planted} faults planted");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn planted_plan_faults_panic_naming_the_slot_where_it_is_used() {
        let mut tree = Tree::new_uniform(2);
        tree.refine_balanced(tree.leaves()[0]);
        let plan = plan_for(&tree);
        let sources = make_sources(&tree, 2);
        let mut faults: Vec<(&str, GravityPlan, usize)> = Vec::new();
        // An M2L target that reads its own slot.
        let (mut bad, t) = (plan.clone(), plan.m2l_targets[0]);
        bad.m2l_sources.insert(plan.m2l_offsets[t], t);
        bad.m2l_offsets[t + 1..].iter_mut().for_each(|o| *o += 1);
        faults.push(("M2L self alias", bad, t));
        // A parent link that points at the child itself.
        let (mut bad, s) = (plan.clone(), plan.level_ranges[1].0);
        bad.parent_slot[s] = s;
        faults.push(("broken parent link", bad, s));
        // A level range that lost its first slot, for every level.
        for (level, &(begin, _)) in plan.level_ranges.iter().enumerate() {
            let mut bad = plan.clone();
            bad.level_ranges[level].0 += 1;
            faults.push(("shifted level range", bad, begin));
        }
        for (what, bad, slot) in &faults {
            for nloc in [1, 4] {
                let dist = DistPlan::build(bad, &partition_morton(&tree, nloc), nloc);
                let report = solve_panics(bad, &dist, &sources)
                    .expect_err(&format!("{what} at slot {slot}, N={nloc}: not caught"));
                assert!(
                    names(&report, &format!("slot {slot}")),
                    "{what} at slot {slot}, N={nloc}: {report}"
                );
            }
        }
    }

    #[test]
    fn planted_asymmetric_p2p_shows_as_net_self_force() {
        // A P2P pair listed in one direction only breaks no protocol: the
        // witness is Newton's third law.  On this cloud every leaf carries
        // mass, so each of the 3 280 one-direction removals of the uniform
        // level-2 plan moves |Σ m g| / Σ m |g| from 3.3e-8 (the M2L
        // expansions' own asymmetry) to 3.0e-6 or more; every 41st is
        // checked here.  `tests/gravity_accuracy.rs` bounds the same ratio
        // on the DWD and V1309 scenarios, where leaves at the density
        // floor carry too little mass to show.
        let tree = Tree::new_uniform(2);
        let sources = make_sources(&tree, 2);
        let net_self_force = |plan: &GravityPlan| {
            let solver = GravitySolver::default();
            let (fields, _) = solver.solve_with_plan(plan, &sources, &ExecSpace::Serial);
            let (mut net, mut scale) = ([0.0f64; 3], 0.0);
            for leaf in tree.leaves() {
                let (f, m) = (&fields[&leaf], &sources[&leaf].points.ms);
                for c in 0..m.len() {
                    let g = [f.gx[c], f.gy[c], f.gz[c]];
                    (0..3).for_each(|a| net[a] += m[c] * g[a]);
                    scale += m[c] * g.iter().map(|v| v * v).sum::<f64>().sqrt();
                }
            }
            net.iter().map(|v| v * v).sum::<f64>().sqrt() / scale
        };
        let plan = plan_for(&tree);
        assert!(net_self_force(&plan) < 1e-7);
        let pairs = (0..plan.leaves.len()).flat_map(|li| {
            let (b, e) = (plan.p2p_offsets[li], plan.p2p_offsets[li + 1]);
            (b..e).map(move |k| (li, k))
        });
        let pairs = pairs.filter(|&(li, k)| plan.p2p_sources[k] != li);
        for (li, k) in pairs.step_by(41) {
            let mut bad = plan.clone();
            let src = bad.p2p_sources.remove(k);
            bad.p2p_offsets[li + 1..].iter_mut().for_each(|o| *o -= 1);
            let ratio = net_self_force(&bad);
            assert!(
                ratio > 1e-6,
                "P2P direction {li} ← {src} removed: {ratio:e}"
            );
        }
    }
}
