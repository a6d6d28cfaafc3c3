//! Conservation diagnostics.
//!
//! Octo-Tiger's headline numerical property (paper Section IV-C) is
//! machine-precision conservation of the evolved variables — the reason it
//! uses a fixed global time step — plus the angular-momentum-conserving
//! FMM that lets gravity and hydro couple while conserving total energy.
//! The ledger here measures exactly those quantities so the test suite can
//! hold the solver to them.

use crate::state::field;
use crate::units::BOX_SIZE;
use octree::DistGrid;

/// Globally conserved quantities of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConservationLedger {
    /// Total mass ∫ρ dV.
    pub mass: f64,
    /// Total momentum ∫s dV.
    pub momentum: [f64; 3],
    /// Total z angular momentum ∫(x s_y − y s_x) dV about the domain
    /// center (the merger plane normal).
    pub angular_momentum_z: f64,
    /// Total gas energy ∫E dV (internal + kinetic).
    pub gas_energy: f64,
    /// Component tracer masses.
    pub component_mass: [f64; 2],
}

impl ConservationLedger {
    /// Measure the ledger of `grid`.
    pub fn measure(grid: &DistGrid) -> ConservationLedger {
        let n = grid.n();
        let mut out = ConservationLedger::default();
        for leaf in grid.leaves() {
            let (corner, size) = leaf.cube();
            let h = size * BOX_SIZE / n as f64;
            let vol = h * h * h;
            let handle = grid.grid(leaf);
            let g = handle.read();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let x = (corner[0] + (i as f64 + 0.5) * size / n as f64 - 0.5) * BOX_SIZE;
                        let y = (corner[1] + (j as f64 + 0.5) * size / n as f64 - 0.5) * BOX_SIZE;
                        let rho = g.get_interior(field::RHO, i, j, k);
                        let sx = g.get_interior(field::SX, i, j, k);
                        let sy = g.get_interior(field::SY, i, j, k);
                        let sz = g.get_interior(field::SZ, i, j, k);
                        out.mass += rho * vol;
                        out.momentum[0] += sx * vol;
                        out.momentum[1] += sy * vol;
                        out.momentum[2] += sz * vol;
                        out.angular_momentum_z += (x * sy - y * sx) * vol;
                        out.gas_energy += g.get_interior(field::EGAS, i, j, k) * vol;
                        out.component_mass[0] += g.get_interior(field::FRAC1, i, j, k) * vol;
                        out.component_mass[1] += g.get_interior(field::FRAC2, i, j, k) * vol;
                    }
                }
            }
        }
        out
    }

    /// Relative drift of mass against a reference ledger.
    #[cfg(test)]
    pub(crate) fn mass_drift(&self, reference: &ConservationLedger) -> f64 {
        if reference.mass == 0.0 {
            return 0.0;
        }
        ((self.mass - reference.mass) / reference.mass).abs()
    }

    /// Relative drift of z angular momentum (normalized by a scale; the
    /// initial value may legitimately be ~0 for a static model).
    pub fn angular_momentum_drift(&self, reference: &ConservationLedger, scale: f64) -> f64 {
        ((self.angular_momentum_z - reference.angular_momentum_z) / scale.max(1e-300)).abs()
    }
}

impl std::fmt::Display for ConservationLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "M={:.6e} p=({:.3e},{:.3e},{:.3e}) Lz={:.6e} E={:.6e} M1={:.4e} M2={:.4e}",
            self.mass,
            self.momentum[0],
            self.momentum[1],
            self.momentum[2],
            self.angular_momentum_z,
            self.gas_energy,
            self.component_mass[0],
            self.component_mass[1],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NF;
    use hpx_rt::SimCluster;
    use octree::Tree;

    #[test]
    fn uniform_density_ledger() {
        let cluster = SimCluster::new(1, 1);
        let grid = DistGrid::new(Tree::new_uniform(1), 4, 2, NF, &cluster);
        for leaf in grid.leaves() {
            let h = grid.grid(leaf);
            let mut g = h.write();
            for i in 0..4 {
                for j in 0..4 {
                    for k in 0..4 {
                        g.set_interior(field::RHO, i, j, k, 2.0);
                        g.set_interior(field::EGAS, i, j, k, 3.0);
                    }
                }
            }
        }
        let ledger = ConservationLedger::measure(&grid);
        let domain_volume = BOX_SIZE * BOX_SIZE * BOX_SIZE;
        assert!((ledger.mass - 2.0 * domain_volume).abs() < 1e-10);
        assert!((ledger.gas_energy - 3.0 * domain_volume).abs() < 1e-10);
        assert!(ledger.momentum[0].abs() < 1e-14);
        assert!(ledger.angular_momentum_z.abs() < 1e-12);
        cluster.shutdown();
    }

    #[test]
    fn rigid_rotation_has_positive_lz() {
        let cluster = SimCluster::new(1, 1);
        let grid = DistGrid::new(Tree::new_uniform(1), 4, 2, NF, &cluster);
        let n = 4;
        for leaf in grid.leaves() {
            let (corner, size) = leaf.cube();
            let h = grid.grid(leaf);
            let mut g = h.write();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let x = (corner[0] + (i as f64 + 0.5) * size / n as f64 - 0.5) * BOX_SIZE;
                        let y = (corner[1] + (j as f64 + 0.5) * size / n as f64 - 0.5) * BOX_SIZE;
                        // v = ω ẑ × r.
                        g.set_interior(field::RHO, i, j, k, 1.0);
                        g.set_interior(field::SX, i, j, k, -y);
                        g.set_interior(field::SY, i, j, k, x);
                    }
                }
            }
        }
        let ledger = ConservationLedger::measure(&grid);
        assert!(ledger.angular_momentum_z > 0.0);
        // Net linear momentum of rigid rotation about the center is zero.
        assert!(ledger.momentum[0].abs() < 1e-12);
        assert!(ledger.momentum[1].abs() < 1e-12);
        cluster.shutdown();
    }

    #[test]
    fn drift_helpers() {
        let a = ConservationLedger {
            mass: 1.0,
            gas_energy: 2.0,
            angular_momentum_z: 0.5,
            ..Default::default()
        };
        let b = ConservationLedger {
            mass: 1.01,
            gas_energy: 2.0,
            angular_momentum_z: 0.6,
            ..Default::default()
        };
        assert!((b.mass_drift(&a) - 0.01).abs() < 1e-12);
        assert!((b.angular_momentum_drift(&a, 0.5) - 0.2).abs() < 1e-12);
    }
}
