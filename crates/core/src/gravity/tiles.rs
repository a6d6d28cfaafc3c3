//! Leaves as lists of 4³-cell tiles: the near field, one level below the
//! leaf.
//!
//! The [`GravityPlan`]'s dual-tree traversal stops at the leaves, so every
//! leaf pair it could not accept lands in the P2P list whole.  Octo-Tiger's
//! FMM treats the sub-grid's cells and their aggregates as the finest tree
//! levels instead; this module continues the plan's opening criterion
//! below the leaf.  A leaf whose point count is the cube of a multiple of 4 above
//! 4 (the paper's N = 8 sub-grid: 512 cells, 8 tiles) is a list of
//! (N/4)³ tiles — its cells are taken to be the leaf cube's N³ lattice in
//! i-major order, which is how every source gather in the tree lays them
//! out — and any other leaf is its own single tile, used in place.
//!
//! Per solve and locality, `TileSet::rebuild` sizes the tile geometry —
//! a pure function of the plan and the points per leaf — and runs one
//! launch that writes the tile multipoles of every visible leaf and a
//! tile-major copy of every multi-tile one.  The evaluation launch then
//! sums the near field of a target tile in three tiers, each decided by
//! `well_separated`, the plan's own acceptance test:
//!
//! 1. **tile M2L** — every tile of every near leaf, tile against tile
//!    (`TileGeometry::classify`); accepted tiles go through the target
//!    tile's local expansion;
//! 2. **M2P** — every target cell against every rejected tile, the cell
//!    taken as the point it is (target radius 0); accepted cells take the
//!    tile's multipole directly ([`super::m2p_simd`], which tests and
//!    sums in one pass);
//! 3. **P2P** — what is left: the cells that touch the source tile.
//!
//! All three run in ascending (leaf, tile) order.  The outcome is
//! recomputed every solve, one target tile at a time: it is not part of the
//! plan or the halo plan.  [`near_field_counts`] counts it.
//!
//! Two single-tile leaves are never re-tested, at either level
//! (`NearTier::Points`): the plan already rejected that very pair, so
//! every N ≤ 4 input keeps the summation order — and the bits — of the
//! all-pairs leaf loop.

use super::direct::{PointMasses, PointsRef};
use super::m2l_simd::MultipoleSoA;
use super::m2p_simd::m2p_accumulate;
use super::multipole::Multipole;
use super::plan::{cube_geometry, well_separated, GravityPlan};
use kokkos_rs::{parallel_for_mut, ChunkSpec, ExecSpace, RangePolicy};
use std::ops::Range;
use sve_simd::VectorMode;

/// Cells per tile edge.
const TILE_EDGE: usize = 4;
/// Cells per tile of a multi-tile leaf.
pub(super) const TILE_CELLS: usize = TILE_EDGE * TILE_EDGE * TILE_EDGE;

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

/// How a near source tile is summed into a target tile, as
/// `TileGeometry::classify` decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum NearTier {
    /// Accepted tile against tile: M2L from the tile's multipole.
    TileM2l,
    /// Rejected tile against tile: every target cell is tested again, as a
    /// point — M2P where it passes, P2P where it does not.
    Cells,
    /// Tile and target are two single-tile leaves, the pair the plan
    /// already rejected: not re-tested at either level, P2P at every cell.
    Points,
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
    /// below the plan: `visit(source tile, tier)` for every tile of every
    /// near leaf, ascending.
    fn classify(
        &self,
        plan: &GravityPlan,
        li: usize,
        tt: usize,
        mut visit: impl FnMut(usize, NearTier),
    ) {
        for &sl in plan.p2p_sources_of(li) {
            // A near leaf pair is opened below the leaf unless both are
            // single tiles — the one place that is decided.
            let retest = self.edge[li] > 1 || self.edge[sl] > 1;
            for st in self.tiles_of(sl) {
                let (ct, cs) = (self.centers[tt], self.centers[st]);
                let tier = if !retest {
                    NearTier::Points
                } else if well_separated(ct, self.radii[li], cs, self.radii[sl], plan.theta) {
                    NearTier::TileM2l
                } else {
                    NearTier::Cells
                };
                visit(st, tier);
            }
        }
    }
}

/// Exact near-field work of one solve (see [`near_field_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearFieldCounts {
    /// Ordered tile pairs summed by M2L.
    pub m2l_tile_pairs: u64,
    /// (Source tile, target cell) pairs summed by M2P.
    pub m2p_cell_pairs: u64,
    /// Source-target cell pairs summed by P2P (self pairs included).
    pub p2p_cell_interactions: u64,
}

/// Count the near-field work of a solve over `plan` whose leaf `li` holds
/// the cells `points[li]` — through the very classifier and M2P kernel
/// the solver runs, tile against tile and cell against tile, so the counts
/// are the kernels', not a model of them.
pub fn near_field_counts(plan: &GravityPlan, points: &[&PointMasses]) -> NearFieldCounts {
    assert_eq!(points.len(), plan.leaves.len());
    let owned: Vec<usize> = (0..plan.leaves.len()).collect();
    let mut tiles = TileSet::default();
    tiles.rebuild(plan, &owned, points, &ExecSpace::Serial);
    let mut counts = NearFieldCounts::default();
    let (mut far, mut sums) = (Vec::new(), [(); 4].map(|_| Vec::new()));
    for &li in &owned {
        for tile in tiles.tiles_of(li) {
            let targets = tiles.points(tile, points);
            far.resize(targets.len(), false);
            let mut out = sums.each_mut().map(|run| {
                run.resize(targets.len(), 0.0);
                &mut run[..]
            });
            tiles.for_each_near(plan, li, tile, |src, tier| {
                let nfar = match tier {
                    NearTier::TileM2l => {
                        counts.m2l_tile_pairs += 1;
                        return;
                    }
                    NearTier::Cells => m2p_accumulate(
                        tiles.moment(src),
                        tiles.sphere(src),
                        plan.theta,
                        false,
                        targets,
                        VectorMode::Sve512,
                        &mut far,
                        &mut out,
                    ),
                    NearTier::Points => 0,
                };
                counts.m2p_cell_pairs += nfar as u64;
                counts.p2p_cell_interactions +=
                    ((targets.len() - nfar) * tiles.points(src, points).len()) as u64;
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
    /// (one task per worker of `space`) only runs when some
    /// visible leaf has more than one tile — otherwise every near pair is
    /// [`NearTier::Points`], so no tile multipole is ever read.
    pub(super) fn rebuild(
        &mut self,
        plan: &GravityPlan,
        owned: &[usize],
        near: &[&PointMasses],
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
        let policy = RangePolicy::new(0, nleaves).with_chunk(ChunkSpec::Auto);
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
    /// `visit(source tile, tier)` for every tile of every near leaf,
    /// ascending.
    pub(super) fn for_each_near(
        &self,
        plan: &GravityPlan,
        li: usize,
        tile: usize,
        visit: impl FnMut(usize, NearTier),
    ) {
        self.geo.classify(plan, li, tile, visit);
    }

    /// Whether leaf `li` is its own single tile.
    pub(super) fn is_single(&self, li: usize) -> bool {
        self.geo.edge[li] == 1
    }

    /// Bounding-sphere center of `tile`.
    pub(super) fn center(&self, tile: usize) -> [f64; 3] {
        self.geo.centers[tile]
    }

    /// Bounding sphere of `tile`: center and radius.
    pub(super) fn sphere(&self, tile: usize) -> ([f64; 3], f64) {
        (self.center(tile), self.geo.radii[self.geo.leaf_of[tile]])
    }

    /// The multipole of `tile`.
    pub(super) fn moment(&self, tile: usize) -> &Multipole {
        let li = self.geo.leaf_of[tile];
        &self.built[li].moments[tile - self.geo.first[li]]
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

    /// The cell centres of `leaf`'s n³ lattice, i-major, cell `c` of mass
    /// `c` — as the driver's source gather lays them out.
    fn lattice(leaf: NodeId, n: usize) -> PointMasses {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let mut points = PointMasses::with_capacity(n * n * n);
        for c in 0..n * n * n {
            let at = [c / (n * n), c / n % n, c % n];
            let x: [f64; 3] = std::array::from_fn(|a| {
                (corner[a] + (at[a] as f64 + 0.5) * h - 0.5) * crate::units::BOX_SIZE
            });
            points.push(x, c as f64);
        }
        points
    }

    #[test]
    fn tile_major_copy_and_cell_index_are_inverse() {
        let plan = GravityPlan::build(&Tree::new_uniform(0), 0.5);
        for n in [8usize, 12] {
            let src = lattice(plan.leaves[0], n);
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

    fn counts_on_lattices(plan: &GravityPlan, n: usize) -> NearFieldCounts {
        let points: Vec<PointMasses> = plan.leaves.iter().map(|&l| lattice(l, n)).collect();
        near_field_counts(plan, &points.iter().collect::<Vec<_>>())
    }

    #[test]
    fn near_field_counts_at_the_papers_subgrid_size() {
        // Uniform level 2, N = 8, θ = 0.5 — the `rotstar_grav` solve: every
        // one of the 3 344 near leaf pairs' 64 tile pairs is decided tile
        // against tile, and every cell of the 53 824 rejected tile pairs
        // once more against the source tile.
        let plan = GravityPlan::build(&Tree::new_uniform(2), 0.5);
        assert_eq!(plan.stats.p2p_pairs, 3_344);
        let rejected_cell_pairs = 53_824 * 64;
        assert_eq!(
            counts_on_lattices(&plan, 8),
            NearFieldCounts {
                m2l_tile_pairs: 160_192,
                m2p_cell_pairs: 2_887_120,
                p2p_cell_interactions: (rejected_cell_pairs - 2_887_120) * 64,
            }
        );
        assert_eq!((rejected_cell_pairs - 2_887_120) * 64, 35_687_424);
        // Single-tile leaves: the plan's near field, untouched.
        assert_eq!(
            counts_on_lattices(&plan, 4),
            NearFieldCounts {
                m2l_tile_pairs: 0,
                m2p_cell_pairs: 0,
                p2p_cell_interactions: 3_344 * 64 * 64,
            }
        );
    }
}
