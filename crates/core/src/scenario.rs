//! Scenario builders: the paper's three workloads as initialized grids.
//!
//! * **Rotating star** — the single-star problem of the Fugaku scaling
//!   study (paper Section VI-D, Figures 6–10), run at "levels" 5/6/7 there.
//! * **V1309 Scorpii** — the contact MS binary whose merger produced the
//!   2008 luminous red nova (Section III-A).
//! * **DWD** — the double-white-dwarf system with mass ratio q = 0.7, the
//!   R CrB formation channel (Section III-B).
//!
//! Each builder solves the SCF model, refines the octree where the density
//! demands it (Octo-Tiger's density-based AMR criterion), and fills the
//! distributed sub-grids with the equilibrium state in the rotating frame.

use crate::scf::{BinaryModel, BinaryParams};
use crate::state::{field, NF};
use crate::units::{BOX_SIZE, GAMMA, RHO_FLOOR};
use hpx_rt::SimCluster;
use octree::{DistGrid, NodeId, Tree};

/// Which of the paper's workloads to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Single rotating polytrope (the scaling-study problem).
    RotatingStar,
    /// Contact MS binary, the V1309 Sco progenitor.
    V1309,
    /// Double white dwarf, q = 0.7.
    Dwd,
}

impl ScenarioKind {
    /// SCF parameters of this scenario.
    pub fn params(self) -> BinaryParams {
        match self {
            ScenarioKind::RotatingStar => BinaryParams::single_star(),
            ScenarioKind::V1309 => BinaryParams::v1309(),
            ScenarioKind::Dwd => BinaryParams::dwd_q07(),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::RotatingStar => "Rotating star",
            ScenarioKind::V1309 => "v1309",
            ScenarioKind::Dwd => "DWD",
        }
    }
}

/// A built scenario: the distributed grid plus the frame/model metadata.
pub struct Scenario {
    pub kind: ScenarioKind,
    pub grid: DistGrid,
    /// Rotating-frame frequency (the binary's orbital frequency).
    pub omega: f64,
    /// The underlying SCF model.
    pub model: BinaryModel,
    /// Base refinement level of the octree.
    pub level: u8,
}

impl Scenario {
    /// Build a scenario on `cluster`.
    ///
    /// * `level` — base uniform refinement of the octree.
    /// * `amr_extra` — extra levels allowed where the density criterion
    ///   triggers (0 = uniform grid).
    /// * `n_cell` — sub-grid extent N (8 in the paper; tests use 4).
    pub fn build(
        kind: ScenarioKind,
        cluster: &SimCluster,
        level: u8,
        amr_extra: u8,
        n_cell: usize,
    ) -> Scenario {
        let model = BinaryModel::solve(kind.params());
        let mut tree = Tree::new_uniform(level);
        if amr_extra > 0 {
            // Octo-Tiger refines on the density field (and component
            // tracers); sample the SCF density over each candidate leaf.
            // Reference density: the primary's mid-radius density (the
            // bulk of the star), not the softened central peak.
            let mid1 = model.density_at([model.x1[0] + 0.5 * model.r1, 0.0, 0.0]).0;
            let mid2 = if model.params.m2 > 0.0 {
                model.density_at([model.x2[0] - 0.5 * model.r2, 0.0, 0.0]).0
            } else {
                0.0
            };
            let threshold = 0.05 * mid1.max(mid2);
            let model_ref = &model;
            tree.refine_where(level + amr_extra, |id: NodeId| {
                let (corner, size) = id.cube();
                let mut max_rho: f64 = 0.0;
                let probes = 5;
                for i in 0..probes {
                    for j in 0..probes {
                        for k in 0..probes {
                            let u = [
                                corner[0] + size * (i as f64 + 0.5) / probes as f64,
                                corner[1] + size * (j as f64 + 0.5) / probes as f64,
                                corner[2] + size * (k as f64 + 0.5) / probes as f64,
                            ];
                            let x = [
                                (u[0] - 0.5) * BOX_SIZE,
                                (u[1] - 0.5) * BOX_SIZE,
                                (u[2] - 0.5) * BOX_SIZE,
                            ];
                            let (rho, _, _) = model_ref.density_at(x);
                            max_rho = max_rho.max(rho);
                        }
                    }
                }
                max_rho > threshold
            });
        }
        let grid = DistGrid::new(tree, n_cell, 2, NF, cluster);
        fill_from_model(&grid, &model);
        Scenario {
            kind,
            grid,
            omega: model.omega,
            model,
            level,
        }
    }

    /// Total number of interior cells over all leaves.
    pub fn total_cells(&self) -> usize {
        let n3 = self.grid.n().pow(3);
        self.grid.leaves().len() * n3
    }
}

/// Fill every leaf's conserved fields from the SCF model (co-rotating
/// equilibrium: zero velocity in the rotating frame).
pub(crate) fn fill_from_model(grid: &DistGrid, model: &BinaryModel) {
    let n = grid.n();
    for leaf in grid.leaves() {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let handle = grid.grid(leaf);
        let mut g = handle.write();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let u = [
                        corner[0] + (i as f64 + 0.5) * h,
                        corner[1] + (j as f64 + 0.5) * h,
                        corner[2] + (k as f64 + 0.5) * h,
                    ];
                    let x = [
                        (u[0] - 0.5) * BOX_SIZE,
                        (u[1] - 0.5) * BOX_SIZE,
                        (u[2] - 0.5) * BOX_SIZE,
                    ];
                    let (rho_raw, f1, f2) = model.density_at(x);
                    let rho = rho_raw.max(RHO_FLOOR);
                    // Pressure from the component's polytrope; the ambient
                    // floor gets a matching tiny pressure.
                    let p = if f1 > 0.0 {
                        model.eos1.pressure_of_rho(rho)
                    } else if f2 > 0.0 {
                        model.eos2.pressure_of_rho(rho)
                    } else {
                        crate::units::P_FLOOR * 10.0
                    };
                    let e = p / (GAMMA - 1.0);
                    g.set_interior(field::RHO, i, j, k, rho);
                    g.set_interior(field::SX, i, j, k, 0.0);
                    g.set_interior(field::SY, i, j, k, 0.0);
                    g.set_interior(field::SZ, i, j, k, 0.0);
                    g.set_interior(field::EGAS, i, j, k, e);
                    g.set_interior(field::TAU, i, j, k, e.max(0.0).powf(1.0 / GAMMA));
                    g.set_interior(field::FRAC1, i, j, k, f1);
                    g.set_interior(field::FRAC2, i, j, k, f2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_star_builds_with_positive_mass() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 2, 0, 4);
        let mut mass = 0.0;
        for leaf in sc.grid.leaves() {
            let (_, size) = leaf.cube();
            let h = size * BOX_SIZE / 4.0;
            mass += sc.grid.grid(leaf).read().interior_sum(field::RHO) * h * h * h;
        }
        assert!(mass > 0.3, "total mass too small: {mass}");
        assert!(sc.omega > 0.0);
        assert_eq!(sc.total_cells(), 64 * 64);
        cluster.shutdown();
    }

    #[test]
    fn amr_refines_around_the_star() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::RotatingStar, &cluster, 1, 2, 4);
        let max_level = sc.grid.with_tree(|t| t.max_level());
        assert!(max_level > 1, "AMR should refine dense regions");
        sc.grid.with_tree(|t| assert!(t.check_invariants().is_ok()));
        // Refined leaves must concentrate where the star is (center-ish).
        let deep: Vec<NodeId> = sc
            .grid
            .leaves()
            .into_iter()
            .filter(|l| l.level() == max_level)
            .collect();
        assert!(!deep.is_empty());
        cluster.shutdown();
    }

    #[test]
    fn v1309_has_two_tagged_components() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::V1309, &cluster, 2, 0, 4);
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for leaf in sc.grid.leaves() {
            let (_, size) = leaf.cube();
            let vol = (size * BOX_SIZE / 4.0).powi(3);
            let g = sc.grid.grid(leaf);
            let gg = g.read();
            m1 += gg.interior_sum(field::FRAC1) * vol;
            m2 += gg.interior_sum(field::FRAC2) * vol;
        }
        assert!(m1 > 0.0 && m2 > 0.0, "both components present: {m1}, {m2}");
        assert!(m1 > m2, "primary heavier");
        cluster.shutdown();
    }

    #[test]
    fn dwd_mass_ratio_near_07() {
        let cluster = SimCluster::new(1, 2);
        let sc = Scenario::build(ScenarioKind::Dwd, &cluster, 3, 0, 4);
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for leaf in sc.grid.leaves() {
            let (_, size) = leaf.cube();
            let vol = (size * BOX_SIZE / 4.0).powi(3);
            let g = sc.grid.grid(leaf);
            let gg = g.read();
            m1 += gg.interior_sum(field::FRAC1) * vol;
            m2 += gg.interior_sum(field::FRAC2) * vol;
        }
        let q = m2 / m1;
        assert!((q - 0.7).abs() < 0.2, "mass ratio off: {q}");
        cluster.shutdown();
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(ScenarioKind::V1309.name(), "v1309");
        assert_eq!(ScenarioKind::Dwd.name(), "DWD");
        assert_eq!(ScenarioKind::RotatingStar.name(), "Rotating star");
    }
}
