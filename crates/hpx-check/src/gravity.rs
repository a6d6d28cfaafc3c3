//! Race model of the FMM gravity solve — the one sharded solve, of which
//! the local solve is the one-locality case.
//!
//! Every phase of the solve is the same launch on every locality: a
//! chunked `parallel_for_mut` over the locality's *owned index list*, each
//! chunk task owning a disjoint `&mut` run of a dense output buffer while
//! reading the locality's slot table, then — after the join — a serial
//! scatter of the outputs into the table, then the phase's frozen
//! exchanges.  That safety argument has two load-bearing ingredients the
//! type system can only check *inside* one launch:
//!
//! 1. **chunk disjointness** — two chunks of one launch must never write
//!    the same output element;
//! 2. **the per-level join barrier** — a level's launch must not start
//!    until the deeper level's outputs (whose slots it reads) have been
//!    scattered and shipped.
//!
//! The evaluation phase adds a third: the solver turns every leaf a
//! locality sees into 4³-cell tiles in one launch of its own (per-leaf
//! disjoint writes), after the P2P halo delivered the remote leaves'
//! points and *joined* before the evaluation launch reads the tiles of
//! every near leaf.
//!
//! [`race_model_gravity_plan`] replays that launch sequence over a *real*
//! [`GravityPlan`] sharded by a real [`DistPlan`] through the
//! [`RaceDetector`] shadow state: per locality one multipole and one
//! local-expansion view per slot, one view per dense output element, per
//! received halo leaf, per leaf's tiles and per leaf field — with exactly
//! the happens-before edges the scoped joins and the lockstep exchanges
//! provide.  The planted bugs remove one ingredient each and must surface
//! as the corresponding race class.

use kokkos_rs::{LaunchToken, RaceDetector, RaceReport, RangePolicy, View, ViewAccess};
use octotiger::gravity::plan::{GravityPlan, SlotKind};
use octotiger::gravity::{DistPlan, Exchange};
use sve_simd::SVE_LANES_F64;

pub use crate::pipeline::RaceModelSummary;

/// Bug to plant into the launch sequence of [`race_model_gravity_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GravityRaceBug {
    /// Faithful edges and chunking: the sequence must be race-free.
    None,
    /// The deepest level's first two upward chunks overlap by one output
    /// element — the bug the disjoint `&mut` chunk carving exists to
    /// prevent (write-write race between sibling chunks of one kernel).
    OverlapChunks,
    /// Upward level-kernels drop their dependency on the deeper level's
    /// launch — the join barrier `parallel_for_mut` provides by scoping —
    /// so an M2M combine reads child multipoles that are still being
    /// scattered (write-read race).
    SkipLevelBarrier,
    /// Task boundaries are carved without the vector-lane alignment the
    /// solver's `RangePolicy::with_lanes` enforces: two adjacent chunks of
    /// one slot-table kernel then share a lane block, and their full-width
    /// vector stores collide (write-write race on the shared block).
    SplitsVectorLane,
    /// The evaluation launch drops its dependency on the tile launch, so a
    /// leaf's near field reads tile copies and tile multipoles that are
    /// still being written (write-read race).
    SkipTileJoin,
}

/// Carve an owned list of `len` indices into at most `chunks` tasks the way
/// the solver's slot-table launches do — [`RangePolicy::split`] with
/// lane-aligned boundaries — or, under the
/// [`GravityRaceBug::SplitsVectorLane`] bug, without the alignment.
fn carve(len: usize, chunks: usize, bug: GravityRaceBug) -> Vec<(usize, usize)> {
    let policy = RangePolicy::new(0, len);
    let policy = if bug == GravityRaceBug::SplitsVectorLane {
        policy
    } else {
        policy.with_lanes(SVE_LANES_F64)
    };
    policy.split(chunks)
}

/// Expand a chunk's write range `[lo, hi)` to whole vector-lane blocks
/// within the kernel's range `[b, e)` — the store footprint of a kernel
/// that walks its chunk with `W`-wide vector stores.
pub(crate) fn lane_blocks(b: usize, e: usize, lo: usize, hi: usize) -> (usize, usize) {
    let w = SVE_LANES_F64;
    let wlo = b + (lo - b) / w * w;
    let whi = (b + (hi - b).div_ceil(w) * w).min(e);
    (wlo, whi)
}

/// The shadow state of one replay: the detector, every locality's slot
/// tables and dense output buffers, and the lockstep front — the launches
/// every later launch happens after.
struct Replay<'a> {
    det: RaceDetector,
    plan: &'a GravityPlan,
    dist: &'a DistPlan,
    chunks: usize,
    bug: GravityRaceBug,
    /// `mp[loc][slot]`, `local[loc][slot]`: the per-locality slot tables.
    mp: Vec<Vec<View<f64>>>,
    local: Vec<Vec<View<f64>>>,
    /// `mp_out[loc][i]`, `local_out[loc][i]`: the dense launch outputs,
    /// reused from launch to launch like the solver's recycled buffers.
    mp_out: Vec<Vec<View<f64>>>,
    local_out: Vec<Vec<View<f64>>>,
    front: Vec<LaunchToken>,
}

/// Which slot-table launch [`Replay::launch_slots`] replays.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    Upward,
    M2l,
    Downward,
}

impl Replay<'_> {
    /// One phase on every locality: chunked launches over the owned lists
    /// (lane-aligned for the slot-table passes, plain for M2L, as in the
    /// solver), each followed by its serial scatter; the joined scatters
    /// become the new front.
    fn launch_slots(&mut self, pass: Pass, level: usize) -> Result<(), RaceReport> {
        let (plan, dist) = (self.plan, self.dist);
        let name = match pass {
            Pass::Upward => "upward",
            Pass::M2l => "m2l",
            Pass::Downward => "downward",
        };
        let deepest = (0..plan.level_ranges.len())
            .rev()
            .find(|&l| plan.level_ranges[l].0 < plan.level_ranges[l].1);
        let mut scatters = Vec::new();
        for loc in 0..dist.num_localities {
            let owned: &[usize] = match pass {
                Pass::M2l => &dist.owned_m2l_slots[loc],
                _ => &dist.owned_by_level[loc][level],
            };
            let (table, out) = match pass {
                Pass::Upward => (&self.mp[loc], &self.mp_out[loc]),
                _ => (&self.local[loc], &self.local_out[loc]),
            };
            let parts = match pass {
                Pass::M2l => RangePolicy::new(0, owned.len()).split(self.chunks),
                _ => carve(owned.len(), self.chunks, self.bug),
            };
            let deps = match (pass, self.bug) {
                (Pass::Upward, GravityRaceBug::SkipLevelBarrier) => Vec::new(),
                _ => self.front.clone(),
            };
            let mut tokens = Vec::new();
            for (ci, &(lo, hi)) in parts.iter().enumerate() {
                // Operand reads first, so a missing barrier is reported as
                // the stale read it is.
                let mut accesses: Vec<ViewAccess> = Vec::new();
                for &s in &owned[lo..hi] {
                    match (pass, plan.kinds[s]) {
                        (Pass::Upward, SlotKind::Interior(kids)) => {
                            accesses
                                .extend(kids.iter().map(|&c| ViewAccess::read(&self.mp[loc][c])));
                        }
                        (Pass::Upward, SlotKind::Leaf(_)) => {}
                        (Pass::M2l, _) => accesses.extend(
                            plan.m2l_sources_of(s)
                                .iter()
                                .map(|&src| ViewAccess::read(&self.mp[loc][src])),
                        ),
                        (Pass::Downward, _) => {
                            accesses.push(ViewAccess::read(&table[s]));
                            accesses.push(ViewAccess::read(&table[plan.parent_slot[s]]));
                        }
                    }
                }
                // Planted overlap: the deepest level's first chunk also
                // writes the first element of the second chunk's range.
                let overlap = self.bug == GravityRaceBug::OverlapChunks
                    && pass == Pass::Upward
                    && Some(level) == deepest
                    && (loc, ci) == (0, 0);
                let hi_w = if overlap {
                    (hi + 1).min(owned.len())
                } else {
                    hi
                };
                // The slot-table kernels' vector stores cover whole lane
                // blocks of the output buffer, not just `[lo, hi_w)` — the
                // footprint that makes unaligned carving a write-write race.
                let (wlo, whi) = match pass {
                    Pass::M2l => (lo, hi_w),
                    _ => lane_blocks(0, owned.len(), lo, hi_w),
                };
                accesses.extend(out[wlo..whi].iter().map(ViewAccess::write));
                let site = format!("{name}(l{level}, loc {loc}, chunk {ci})");
                tokens.push(self.det.launch(&site, &deps, &accesses)?);
            }
            let mut accesses: Vec<ViewAccess> =
                out[..owned.len()].iter().map(ViewAccess::read).collect();
            accesses.extend(owned.iter().map(|&s| ViewAccess::write(&table[s])));
            let site = format!("{name}(l{level}, loc {loc}, scatter)");
            tokens.extend(&self.front);
            scatters.push(self.det.launch(&site, &tokens, &accesses)?);
        }
        self.front = scatters;
        Ok(())
    }
}

/// One lockstep exchange: every lane's parcel reads the sender's table and
/// writes the receiver's, after the phase's joins, and joins the front.
fn ship(
    det: &RaceDetector,
    front: &mut Vec<LaunchToken>,
    what: &str,
    exchanges: &[Exchange],
    table: &[Vec<View<f64>>],
) -> Result<(), RaceReport> {
    let mut parcels = Vec::new();
    for ex in exchanges {
        let (from, to) = (&table[ex.from], &table[ex.to]);
        let mut accesses: Vec<ViewAccess> = ex
            .slots
            .iter()
            .map(|&s| ViewAccess::read(&from[s]))
            .collect();
        accesses.extend(ex.slots.iter().map(|&s| ViewAccess::write(&to[s])));
        let site = format!("{what}({} -> {})", ex.from, ex.to);
        parcels.push(det.launch(&site, front, &accesses)?);
    }
    front.extend(parcels);
    Ok(())
}

/// Replay the sharded solve's launch sequence through a [`RaceDetector`]:
/// per level and locality the chunked upward launch (P2M/M2M) with its
/// scatter and the `multipole-up` parcels, the M2L halo and the chunked
/// M2L launch, the `multipole-down` parcels and the chunked downward
/// gather (L2L), the `p2p` halo parcels, the chunked tile launch and the
/// per-leaf evaluation reading its tiles — with the happens-before
/// edges the scoped joins and lockstep exchanges provide (minus whatever
/// `bug` drops).  `dist` must shard `plan`; one locality replays the local
/// solve.
pub fn race_model_gravity_plan(
    plan: &GravityPlan,
    dist: &DistPlan,
    chunks: usize,
    bug: GravityRaceBug,
) -> Result<RaceModelSummary, RaceReport> {
    assert!(dist.is_valid_for(plan, dist.num_localities));
    let nloc = dist.num_localities;
    let table = |what: &str, len: usize| -> Vec<Vec<View<f64>>> {
        (0..nloc)
            .map(|loc| {
                (0..len)
                    .map(|i| View::<f64>::new_1d(format!("{what}(loc {loc}, {i})"), 1))
                    .collect()
            })
            .collect()
    };
    let mut r = Replay {
        det: RaceDetector::new(),
        plan,
        dist,
        chunks,
        bug,
        mp: table("mp", plan.num_nodes),
        local: table("local", plan.num_nodes),
        mp_out: table("mp-out", plan.num_nodes),
        local_out: table("local-out", plan.num_nodes),
        front: Vec::new(),
    };
    let fields = table("fields", plan.leaves.len());

    let nlev = plan.level_ranges.len();
    for level in (0..nlev).rev() {
        r.launch_slots(Pass::Upward, level)?;
        if level > 0 {
            ship(&r.det, &mut r.front, "multipole-up", &dist.up[level], &r.mp)?;
        }
    }
    ship(&r.det, &mut r.front, "m2l-halo", &dist.m2l_halo, &r.mp)?;
    r.launch_slots(Pass::M2l, 0)?;
    for level in 1..nlev {
        ship(
            &r.det,
            &mut r.front,
            "multipole-down",
            &dist.down[level],
            &r.local,
        )?;
        r.launch_slots(Pass::Downward, level)?;
    }

    // ---- P2P halo: the owners' source points (which no launch writes)
    // land in the receivers' halo slots, and join the front. --------------
    let nleaves = plan.leaves.len();
    let points = table("points", nleaves);
    let halo = table("halo", nleaves);
    let mut parcels = Vec::new();
    for ex in &dist.p2p_halo {
        let mut accesses: Vec<ViewAccess> = Vec::new();
        for &li in &ex.slots {
            accesses.push(ViewAccess::read(&points[ex.from][li]));
            accesses.push(ViewAccess::write(&halo[ex.to][li]));
        }
        let site = format!("p2p-halo({} -> {})", ex.from, ex.to);
        parcels.push(r.det.launch(&site, &r.front, &accesses)?);
    }
    r.front.extend(parcels);

    // ---- Tile launch: one index per leaf, each visible leaf's points
    // (its own, or the halo copy) into that leaf's own tile slot. ----------
    let tiles = table("tiles", nleaves);
    let seen = |loc: usize, li: usize| match dist.leaf_owner[li] == loc {
        true => &points[loc][li],
        false => &halo[loc][li],
    };
    let mut tiled = r.front.clone();
    for loc in 0..nloc {
        let mut visible = vec![false; nleaves];
        for &li in &dist.owned_leaves[loc] {
            for &src in plan.p2p_sources_of(li) {
                visible[src] = true;
            }
        }
        for (ci, &(lo, hi)) in RangePolicy::new(0, nleaves)
            .split(chunks)
            .iter()
            .enumerate()
        {
            let mut accesses: Vec<ViewAccess> = Vec::new();
            for li in (lo..hi).filter(|&li| visible[li]) {
                accesses.push(ViewAccess::read(seen(loc, li)));
                accesses.push(ViewAccess::write(&tiles[loc][li]));
            }
            let site = format!("tiles(loc {loc}, chunk {ci})");
            tiled.push(r.det.launch(&site, &r.front, &accesses)?);
        }
    }
    if bug != GravityRaceBug::SkipTileJoin {
        r.front = tiled;
    }

    // ---- Evaluation: each owned leaf reads its local expansion and the
    // tiles of every near leaf; disjoint per-leaf field writes. -----------
    for loc in 0..nloc {
        let owned = &dist.owned_leaves[loc];
        for (ci, &(lo, hi)) in RangePolicy::new(0, owned.len())
            .split(chunks)
            .iter()
            .enumerate()
        {
            let mut accesses: Vec<ViewAccess> = Vec::new();
            for &li in &owned[lo..hi] {
                accesses.push(ViewAccess::read(&r.local[loc][plan.leaf_slots[li]]));
                accesses.extend(
                    plan.p2p_sources_of(li)
                        .iter()
                        .map(|&src| ViewAccess::read(&tiles[loc][src])),
                );
                accesses.push(ViewAccess::write(&fields[loc][li]));
            }
            r.det.launch(
                &format!("evaluate(loc {loc}, chunk {ci})"),
                &r.front,
                &accesses,
            )?;
        }
    }

    Ok(RaceModelSummary {
        launches: r.det.launches(),
        views: nloc * (4 * plan.num_nodes + 4 * nleaves),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::{partition_morton, NodeId, Tree};

    /// The plan of `tree` and its halo plan over `nloc` localities.
    fn sharded(tree: &Tree, nloc: usize) -> (GravityPlan, DistPlan) {
        let plan = GravityPlan::build(tree, 0.5);
        let dist = DistPlan::build(&plan, &partition_morton(tree, nloc), nloc);
        (plan, dist)
    }

    fn uniform(nloc: usize) -> (GravityPlan, DistPlan) {
        sharded(&Tree::new_uniform(2), nloc)
    }

    #[test]
    fn faithful_launch_sequence_is_race_free_at_every_locality_count() {
        for nloc in [1, 2, 4] {
            let (plan, dist) = uniform(nloc);
            for chunks in [1, 4, 16] {
                let summary = race_model_gravity_plan(&plan, &dist, chunks, GravityRaceBug::None)
                    .expect("race-free");
                assert!(summary.launches > 0);
                // Two tables and two output buffers per slot and locality.
                assert!(summary.views >= 4 * nloc * plan.num_nodes);
            }
        }
    }

    #[test]
    fn adaptive_tree_launch_sequence_is_race_free() {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        for nloc in [1, 3] {
            let (plan, dist) = sharded(&tree, nloc);
            race_model_gravity_plan(&plan, &dist, 4, GravityRaceBug::None).expect("race-free");
        }
    }

    #[test]
    fn overlapping_chunks_are_a_write_write_race() {
        // One locality owns all 64 deepest-level slots, so 4 tasks carve
        // into lane-aligned 16-element chunks and the planted one-element
        // overlap between chunks 0 and 1 survives the alignment.
        let (plan, dist) = uniform(1);
        let report = race_model_gravity_plan(&plan, &dist, 4, GravityRaceBug::OverlapChunks)
            .expect_err("must race");
        assert_eq!(report.conflict, "write-write");
        assert!(report.prior_site.starts_with("upward("), "{report}");
        assert!(report.site.starts_with("upward("), "{report}");
        assert!(report.view_label.starts_with("mp-out("), "{report}");
    }

    #[test]
    fn splitting_a_vector_lane_is_a_write_write_race() {
        // 16 tasks over a locality's owned deepest-level slots carve into
        // chunks whose boundaries sit mid lane-block (lane = 8): adjacent
        // chunks' full-width vector stores cover the same block — on one
        // locality (64 slots, size-4 chunks) and on four (16 slots each,
        // size-1 chunks) alike.
        for nloc in [1, 4] {
            let (plan, dist) = uniform(nloc);
            let report =
                race_model_gravity_plan(&plan, &dist, 16, GravityRaceBug::SplitsVectorLane)
                    .expect_err("must race");
            assert_eq!(report.conflict, "write-write");
            assert!(report.prior_site.starts_with("upward("), "{report}");
            assert!(report.site.starts_with("upward("), "{report}");
            assert!(report.view_label.starts_with("mp-out("), "{report}");
        }
    }

    #[test]
    fn lane_aligned_carving_has_no_partial_blocks() {
        // The faithful carve at every chunk count the solver uses keeps
        // each owned list's interior boundaries on lane multiples, so the
        // block-expanded write sets stay pairwise disjoint.
        for nloc in [1, 4] {
            let (_, dist) = uniform(nloc);
            for chunks in [2, 3, 4, 8, 16, 64] {
                for owned in dist.owned_by_level.iter().flatten() {
                    let mut prev_end = 0;
                    for &(lo, hi) in &carve(owned.len(), chunks, GravityRaceBug::None) {
                        let (wlo, whi) = lane_blocks(0, owned.len(), lo, hi);
                        assert!(wlo >= prev_end, "lane block overlaps previous chunk");
                        prev_end = whi;
                    }
                    assert_eq!(prev_end, owned.len());
                }
            }
        }
    }

    #[test]
    fn skipping_the_tile_join_is_a_read_write_race() {
        for nloc in [1, 4] {
            let (plan, dist) = uniform(nloc);
            let report = race_model_gravity_plan(&plan, &dist, 4, GravityRaceBug::SkipTileJoin)
                .expect_err("must race");
            // Prior access is the tile launch's write, current is the
            // evaluation's read of a near leaf's tiles.
            assert_eq!(report.conflict, "write-read");
            assert!(report.prior_site.starts_with("tiles("), "{report}");
            assert!(report.site.starts_with("evaluate("), "{report}");
            assert!(report.view_label.starts_with("tiles("), "{report}");
        }
    }

    #[test]
    fn skipping_the_level_barrier_is_a_read_write_race() {
        for nloc in [1, 4] {
            let (plan, dist) = uniform(nloc);
            let report = race_model_gravity_plan(&plan, &dist, 4, GravityRaceBug::SkipLevelBarrier)
                .expect_err("must race");
            // Prior access is the deeper level's write, current is the
            // combine's child read.
            assert_eq!(report.conflict, "write-read");
            assert!(report.prior_site.starts_with("upward("), "{report}");
            assert!(report.site.starts_with("upward("), "{report}");
        }
    }
}
