//! Leaves as lists of 4³-cell tiles: the near field, one level below the
//! leaf.
//!
//! The [`GravityPlan`]'s dual-tree traversal stops at the leaves, so every
//! leaf pair it could not accept lands in the P2P list whole.  Octo-Tiger's
//! FMM treats the sub-grid's cells and their aggregates as the finest tree
//! levels instead; this module continues the plan's opening criterion that
//! one step.  A leaf whose point count is the cube of a multiple of 4 above
//! 4 (the paper's N = 8 sub-grid: 512 cells, 8 tiles) is a list of
//! (N/4)³ tiles — its cells are taken to be the leaf cube's N³ lattice in
//! i-major order, which is how every source gather in the tree lays them
//! out — and any other leaf is its own single tile, used in place.
//!
//! Per solve and locality, `TileSet::rebuild` sizes the tile geometry —
//! a pure function of the plan and the points per leaf — and runs one
//! launch that writes a tile-major copy and the tile multipoles of every
//! visible multi-tile leaf.  The evaluation launch then puts every tile of
//! every near leaf of a target tile to `well_separated`, the plan's own
//! acceptance test, on tile geometry (`TileGeometry::classify`): accepted
//! tiles are summed by M2L, rejected ones by P2P, both in ascending
//! (leaf, tile) order.  The outcome is recomputed every solve, one target
//! tile at a time (64 tests per near leaf pair steer ≥ 10⁵ interactions):
//! once to gather the M2L index list into a buffer recycled with the
//! leaf's output slot, once more to walk the P2P tiles.  It is not part of
//! the plan, the halo plan, `patch` or `verify`.  [`near_field_counts`]
//! counts it without solving.
//!
//! Two single-tile leaves are never re-tested: the plan already rejected
//! that very pair, so every N ≤ 4 input keeps the summation order — and
//! the bits — of the all-pairs leaf loop this replaced.

use super::direct::{PointMasses, PointsRef};
use super::m2l_simd::MultipoleSoA;
use super::multipole::Multipole;
use super::plan::{cube_geometry, well_separated, GravityPlan};
use kokkos_rs::{parallel_for_mut, ChunkSpec, ExecSpace, RangePolicy};
use std::ops::Range;

/// Cells per tile edge.
const TILE_EDGE: usize = 4;
/// Cells per tile of a multi-tile leaf.
const TILE_CELLS: usize = TILE_EDGE * TILE_EDGE * TILE_EDGE;

/// Tiles per edge of a leaf holding `npoints` cells: `n / 4` when
/// `npoints = n³` with `n` a multiple of 4 above 4, else 1.
fn tiles_per_edge(npoints: usize) -> usize {
    let n = (npoints as f64).cbrt().round() as usize;
    if n * n * n == npoints && n > TILE_EDGE && n.is_multiple_of(TILE_EDGE) {
        n / TILE_EDGE
    } else {
        1
    }
}

/// Index, in a leaf's own i-major cell order, of cell `q` of its `t`-th
/// tile (`edge` tiles per leaf edge, both i-major too).
fn cell_index(edge: usize, t: usize, q: usize) -> usize {
    let n = edge * TILE_EDGE;
    let i = t / (edge * edge) * TILE_EDGE + q / (TILE_EDGE * TILE_EDGE);
    let j = t / edge % edge * TILE_EDGE + q / TILE_EDGE % TILE_EDGE;
    let k = t % edge * TILE_EDGE + q % TILE_EDGE;
    (i * n + j) * n + k
}

/// Tile geometry of every leaf of a plan: a pure function of the plan and
/// the points per leaf.  Tiles are numbered globally — leaf by leaf in
/// leaf-index order, i-major within a leaf — so ascending tile index *is*
/// ascending (leaf, tile) order.
#[derive(Debug, Default)]
struct TileGeometry {
    /// Tiles per leaf edge, by leaf index.
    edge: Vec<usize>,
    /// Bounding-sphere radius of the leaf's tiles, by leaf index.
    radii: Vec<f64>,
    /// Global index of each leaf's first tile, plus the total.
    first: Vec<usize>,
    /// Owning leaf of every tile.
    leaf_of: Vec<usize>,
    /// Bounding-sphere center of every tile.
    centers: Vec<[f64; 3]>,
}

impl TileGeometry {
    /// Recompute for `plan` and the given points per leaf, reusing storage.
    fn reset(&mut self, plan: &GravityPlan, points_per_leaf: impl Iterator<Item = usize>) {
        self.edge.clear();
        self.radii.clear();
        self.first.clear();
        self.leaf_of.clear();
        self.centers.clear();
        for (li, npoints) in points_per_leaf.enumerate() {
            let nt = tiles_per_edge(npoints);
            let (corner, size) = plan.leaves[li].cube();
            let tsize = size / nt as f64;
            self.edge.push(nt);
            self.radii.push(cube_geometry(corner, tsize).1);
            self.first.push(self.centers.len());
            for t in 0..nt * nt * nt {
                let tc = [t / (nt * nt), t / nt % nt, t % nt];
                let tcorner = std::array::from_fn(|a| corner[a] + tc[a] as f64 * tsize);
                self.leaf_of.push(li);
                self.centers.push(cube_geometry(tcorner, tsize).0);
            }
        }
        debug_assert_eq!(self.edge.len(), plan.leaves.len());
        self.first.push(self.centers.len());
    }

    /// Global tile indices of leaf `li`.
    fn tiles_of(&self, li: usize) -> Range<usize> {
        self.first[li]..self.first[li + 1]
    }

    /// The near-field traversal of target tile `tt` of leaf `li`, one level
    /// below the plan: `visit(source leaf, source tile, accepted)` for
    /// every tile of every near leaf, ascending.  A pair of single-tile
    /// leaves is the leaf pair the plan already rejected and is not
    /// re-tested.
    fn classify(
        &self,
        plan: &GravityPlan,
        li: usize,
        tt: usize,
        mut visit: impl FnMut(usize, usize, bool),
    ) {
        for &sl in plan.p2p_sources_of(li) {
            let retest = self.edge[li] > 1 || self.edge[sl] > 1;
            for st in self.tiles_of(sl) {
                let accepted = retest
                    && well_separated(
                        self.centers[tt],
                        self.radii[li],
                        self.centers[st],
                        self.radii[sl],
                        plan.theta,
                    );
                visit(sl, st, accepted);
            }
        }
    }
}

/// Exact near-field work of one solve (see [`near_field_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearFieldCounts {
    /// Ordered tile pairs summed by P2P (self pairs included).
    pub p2p_tile_pairs: u64,
    /// Ordered tile pairs summed by M2L.
    pub m2l_tile_pairs: u64,
    /// Source-target cell pairs the P2P tile pairs evaluate.
    pub p2p_cell_interactions: u64,
}

/// Count the near-field work of a solve over `plan` whose leaf `li` holds
/// `points_per_leaf[li]` cells — through the very classifier the solver
/// runs, so the counts are the kernel's, not a model of it.
pub fn near_field_counts(plan: &GravityPlan, points_per_leaf: &[usize]) -> NearFieldCounts {
    assert_eq!(points_per_leaf.len(), plan.leaves.len());
    let mut geo = TileGeometry::default();
    geo.reset(plan, points_per_leaf.iter().copied());
    let tile_cells = |li: usize| match geo.edge[li] {
        1 => points_per_leaf[li] as u64,
        _ => TILE_CELLS as u64,
    };
    let mut counts = NearFieldCounts::default();
    for li in 0..plan.leaves.len() {
        for tt in geo.tiles_of(li) {
            geo.classify(plan, li, tt, |sl, _, accepted| {
                if accepted {
                    counts.m2l_tile_pairs += 1;
                } else {
                    counts.p2p_tile_pairs += 1;
                    counts.p2p_cell_interactions += tile_cells(li) * tile_cells(sl);
                }
            });
        }
    }
    counts
}

/// One leaf's output of the tile launch.
#[derive(Debug, Default)]
struct LeafTiles {
    /// Tile-major copy of a multi-tile leaf's points: tile `t` is the run
    /// `64 t .. 64 (t + 1)`.  Unused for a single-tile leaf.
    points: PointMasses,
    /// The leaf's tile multipoles.
    moments: Vec<Multipole>,
}

impl LeafTiles {
    /// Rebuild from the leaf's points `src` (`edge` tiles per edge, tile
    /// bounding spheres `centers`/`radius`), reusing storage.
    fn build(&mut self, src: &PointMasses, edge: usize, centers: &[[f64; 3]], radius: f64) {
        let moment = |tile: PointsRef<'_>, center: [f64; 3]| {
            debug_assert!(
                (0..tile.len()).all(|c| {
                    let d = [
                        tile.xs[c] - center[0],
                        tile.ys[c] - center[1],
                        tile.zs[c] - center[2],
                    ];
                    d.iter().map(|v| v * v).sum::<f64>().sqrt() <= radius * (1.0 + 1e-9)
                }),
                "leaf cells are not its cube's i-major lattice"
            );
            let mp = Multipole::from_soa(tile);
            if mp.m == 0.0 {
                Multipole::zero(center)
            } else {
                mp
            }
        };
        self.moments.clear();
        if edge == 1 {
            self.moments.push(moment(src.view(), centers[0]));
            return;
        }
        let p = &mut self.points;
        for (dst, run) in [
            (&mut p.xs, &src.xs),
            (&mut p.ys, &src.ys),
            (&mut p.zs, &src.zs),
            (&mut p.ms, &src.ms),
        ] {
            dst.clear();
            dst.reserve(run.len());
            for t in 0..centers.len() {
                // A tile's cells are 16 k-runs of 4 contiguous leaf cells.
                for q in (0..TILE_CELLS).step_by(TILE_EDGE) {
                    let c = cell_index(edge, t, q);
                    dst.extend_from_slice(&run[c..c + TILE_EDGE]);
                }
            }
        }
        for (t, &center) in centers.iter().enumerate() {
            let tile = self.points.slice(t * TILE_CELLS..(t + 1) * TILE_CELLS);
            self.moments.push(moment(tile, center));
        }
    }
}

/// The cells of one tile within its leaf, hoisted out of the per-cell
/// loops: the tile's first cell and the leaf's cells per edge (0 for a
/// single-tile leaf, whose tile order is the leaf's own).
#[derive(Debug, Clone, Copy)]
pub(super) struct TileCells {
    origin: usize,
    n: usize,
}

impl TileCells {
    /// Index, in the leaf's input cell order, of the tile's cell `q`.
    #[inline]
    pub(super) fn index(self, q: usize) -> usize {
        if self.n == 0 {
            return q;
        }
        let (i, j, k) = (
            q / (TILE_EDGE * TILE_EDGE),
            q / TILE_EDGE % TILE_EDGE,
            q % TILE_EDGE,
        );
        self.origin + (i * self.n + j) * self.n + k
    }
}

/// One locality's tile view of a solve: the tile geometry and the tile
/// launch's outputs.  Lives in the recycled per-locality working set, so
/// steady-state solves allocate nothing here.
#[derive(Debug, Default)]
pub(super) struct TileSet {
    geo: TileGeometry,
    /// Leaves this locality holds points of: owned, or received in the
    /// P2P halo (= some owned leaf's near-field source).
    visible: Vec<bool>,
    /// The tile launch's outputs, by leaf index.
    built: Vec<LeafTiles>,
    /// Every tile's multipole, component-major, by global tile index.
    soa: MultipoleSoA,
}

impl TileSet {
    /// Rebuild for one solve: `near[li]` is leaf `li`'s point set as this
    /// locality sees it, `owned` its owned leaf indices.  The tile launch
    /// (split into `tasks` HPX tasks, 0 = auto) only runs when some
    /// visible leaf has more than one tile — otherwise no tile pair is
    /// ever re-tested, so no tile multipole is ever read.
    pub(super) fn rebuild(
        &mut self,
        plan: &GravityPlan,
        owned: &[usize],
        near: &[&PointMasses],
        tasks: usize,
        space: &ExecSpace,
    ) {
        let nleaves = plan.leaves.len();
        self.visible.clear();
        self.visible.resize(nleaves, false);
        for &li in owned {
            for &sl in plan.p2p_sources_of(li) {
                self.visible[sl] = true;
            }
        }
        let visible = &self.visible;
        // A leaf that is not visible may hold a stale halo copy: it has no
        // points as far as this solve is concerned.
        self.geo.reset(
            plan,
            (0..nleaves).map(|li| if visible[li] { near[li].len() } else { 0 }),
        );
        let geo = &self.geo;
        if geo.edge.iter().all(|&nt| nt == 1) {
            return;
        }
        self.built.resize_with(nleaves, LeafTiles::default);
        let policy = RangePolicy::new(0, nleaves).with_chunk(ChunkSpec::tasks_or_auto(tasks));
        parallel_for_mut(space, policy, &mut self.built, |li, out| {
            if visible[li] {
                let centers = &geo.centers[geo.tiles_of(li)];
                out.build(near[li], geo.edge[li], centers, geo.radii[li]);
            }
        });
        let placeholder = [Multipole::zero([0.0; 3])];
        let moments = self
            .built
            .iter()
            .zip(visible)
            .flat_map(|(leaf, &seen)| match seen {
                true => &leaf.moments[..],
                false => &placeholder[..],
            });
        self.soa.fill_from(geo.centers.len(), moments);
    }

    /// Global tile indices of leaf `li`.
    pub(super) fn tiles_of(&self, li: usize) -> Range<usize> {
        self.geo.tiles_of(li)
    }

    /// The near field of `tile` (a tile of leaf `li`), classified:
    /// `visit(source tile, accepted)` for every tile of every near leaf,
    /// ascending — accepted tiles are summed by M2L, the rest by P2P.
    pub(super) fn for_each_near(
        &self,
        plan: &GravityPlan,
        li: usize,
        tile: usize,
        mut visit: impl FnMut(usize, bool),
    ) {
        self.geo
            .classify(plan, li, tile, |_, st, accepted| visit(st, accepted));
    }

    /// Whether leaf `li` is its own single tile.
    pub(super) fn is_single(&self, li: usize) -> bool {
        self.geo.edge[li] == 1
    }

    /// Bounding-sphere center of `tile`.
    pub(super) fn center(&self, tile: usize) -> [f64; 3] {
        self.geo.centers[tile]
    }

    /// The points of `tile`: a run of its leaf's tile-major copy, or the
    /// single-tile leaf itself, in place.
    pub(super) fn points<'a>(&'a self, tile: usize, near: &[&'a PointMasses]) -> PointsRef<'a> {
        let li = self.geo.leaf_of[tile];
        if self.geo.edge[li] == 1 {
            return near[li].view();
        }
        let t = tile - self.geo.first[li];
        self.built[li]
            .points
            .slice(t * TILE_CELLS..(t + 1) * TILE_CELLS)
    }

    /// Where the cells of `tile` sit in its leaf's input cell order.
    pub(super) fn cells(&self, tile: usize) -> TileCells {
        let li = self.geo.leaf_of[tile];
        match self.geo.edge[li] {
            1 => TileCells { origin: 0, n: 0 },
            edge => TileCells {
                origin: cell_index(edge, tile - self.geo.first[li], 0),
                n: edge * TILE_EDGE,
            },
        }
    }

    /// Every tile's multipole, component-major, by global tile index.
    pub(super) fn soa(&self) -> &MultipoleSoA {
        &self.soa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::plan::node_geometry;
    use octree::{NodeId, Octant, Tree};

    #[test]
    fn only_cubes_of_multiples_of_four_above_four_are_tiled() {
        for (npoints, edge) in [
            (0, 1),
            (1, 1),
            (27, 1),
            (64, 1),
            (125, 1),
            (216, 1),
            (511, 1),
            (512, 2),
            (1000, 1),
            (1728, 3),
            (4096, 4),
        ] {
            assert_eq!(tiles_per_edge(npoints), edge, "{npoints} points");
        }
    }

    #[test]
    fn tile_geometry_is_the_node_geometry_one_level_down() {
        // An N = 8 leaf's tiles are its would-be children, a single-tile
        // leaf's tile is the leaf: same bits, so the classifier decides
        // exactly as the plan's traversal would.
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [1, 0, 1]));
        let plan = GravityPlan::build(&tree, 0.5);
        let mut geo = TileGeometry::default();
        geo.reset(&plan, (0..plan.leaves.len()).map(|li| [512, 64][li % 2]));
        for (li, &leaf) in plan.leaves.iter().enumerate() {
            let tiles = geo.tiles_of(li);
            if li % 2 == 1 {
                assert_eq!(tiles.len(), 1);
                assert_eq!(geo.centers[tiles.start], plan.centers[plan.leaf_slots[li]]);
                assert_eq!(geo.radii[li], node_geometry(leaf).1);
                continue;
            }
            assert_eq!(tiles.len(), 8);
            let (corner, size) = leaf.cube();
            for o in Octant::all() {
                let child = leaf.child(o);
                let at: [usize; 3] = std::array::from_fn(|a| {
                    ((child.cube().0[a] - corner[a]) / (0.5 * size)).round() as usize
                });
                let tile = tiles.start + (at[0] * 2 + at[1]) * 2 + at[2];
                assert_eq!(geo.centers[tile], node_geometry(child).0);
                assert_eq!(geo.radii[li], node_geometry(child).1);
            }
        }
    }

    #[test]
    fn tile_major_copy_and_cell_index_are_inverse() {
        let plan = GravityPlan::build(&Tree::new_uniform(0), 0.5);
        let (corner, size) = plan.leaves[0].cube();
        for n in [8usize, 12] {
            let h = size / n as f64;
            let mut src = PointMasses::with_capacity(n * n * n);
            for c in 0..n * n * n {
                let at = [c / (n * n), c / n % n, c % n];
                let x: [f64; 3] = std::array::from_fn(|a| {
                    (corner[a] + (at[a] as f64 + 0.5) * h - 0.5) * crate::units::BOX_SIZE
                });
                src.push(x, c as f64);
            }
            let mut geo = TileGeometry::default();
            geo.reset(&plan, [src.len()].into_iter());
            let mut built = LeafTiles::default();
            built.build(&src, geo.edge[0], &geo.centers, geo.radii[0]);
            assert_eq!(built.points.len(), src.len());
            assert_eq!(built.moments.len(), (n / 4).pow(3));
            let mut seen = vec![false; src.len()];
            for t in 0..built.moments.len() {
                for q in 0..TILE_CELLS {
                    let c = cell_index(geo.edge[0], t, q);
                    let cells = TileCells {
                        origin: cell_index(geo.edge[0], t, 0),
                        n,
                    };
                    assert_eq!(cells.index(q), c);
                    assert_eq!(built.points.ms[t * TILE_CELLS + q], c as f64);
                    assert_eq!(built.points.xs[t * TILE_CELLS + q], src.xs[c]);
                    assert!(!std::mem::replace(&mut seen[c], true));
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn near_field_counts_at_the_papers_subgrid_size() {
        // Uniform level 2, N = 8, θ = 0.5 — the `rotstar_grav` solve: every
        // one of the 3 344 near leaf pairs' 64 tile pairs is decided tile
        // against tile.
        let plan = GravityPlan::build(&Tree::new_uniform(2), 0.5);
        assert_eq!(plan.stats.p2p_pairs, 3_344);
        assert_eq!(
            near_field_counts(&plan, &[512; 64]),
            NearFieldCounts {
                p2p_tile_pairs: 53_824,
                m2l_tile_pairs: 160_192,
                p2p_cell_interactions: 220_463_104,
            }
        );
        // Single-tile leaves: the plan's near field, untouched.
        assert_eq!(
            near_field_counts(&plan, &[64; 64]),
            NearFieldCounts {
                p2p_tile_pairs: 3_344,
                m2l_tile_pairs: 0,
                p2p_cell_interactions: 3_344 * 64 * 64,
            }
        );
    }
}
