//! Rotating-frame and gravity source terms.
//!
//! Paper Section IV-C: *"We have additionally implemented features
//! specifically suited to the study of interacting binary stars, such as
//! rotating the AMR grid with the original orbital frequency of the binary.
//! This reduces the numerical viscosity, at least in the early phases of a
//! simulation."*  In the frame rotating with Ω ẑ about the domain center,
//! the momentum equation gains Coriolis (−2ρ Ω×v) and centrifugal
//! (+ρ Ω² ϖ) sources; only the centrifugal term does work on the gas.
//! Gravity enters as ρ g on momentum and s·g on energy.

use super::SourceInput;
use crate::state::{field, NF};
use crate::units::RHO_FLOOR;
use octree::SubGrid;

/// Add gravity + rotating-frame sources to the cells of interior `x`-plane
/// `i` (`0..n`) of `rhs`; the stage kernel calls it once per plane, after
/// the plane's flux divergence.
pub(crate) fn apply_sources(u: &SubGrid, rhs: &mut SubGrid, src: &SourceInput<'_>, i: usize) {
    let n = u.n();
    debug_assert_eq!(rhs.nfields(), NF);
    let omega = src.omega;
    let have_frame = omega != 0.0;
    let have_gravity = src.gravity.is_some();
    if !have_frame && !have_gravity {
        return;
    }
    for j in 0..n {
        for k in 0..n {
            let rho = u.get_interior(field::RHO, i, j, k).max(RHO_FLOOR);
            let sx = u.get_interior(field::SX, i, j, k);
            let sy = u.get_interior(field::SY, i, j, k);
            let sz = u.get_interior(field::SZ, i, j, k);
            let mut dsx = 0.0;
            let mut dsy = 0.0;
            let mut dsz = 0.0;
            let mut de = 0.0;
            if let Some([gx, gy, gz]) = src.gravity {
                let c = (i * n + j) * n + k;
                dsx += rho * gx[c];
                dsy += rho * gy[c];
                dsz += rho * gz[c];
                // Energy-conserving coupling: dE/dt = s·g.
                de += sx * gx[c] + sy * gy[c] + sz * gz[c];
            }
            if have_frame {
                let x = src.origin[0] + i as f64 * src.h;
                let y = src.origin[1] + j as f64 * src.h;
                // Coriolis: −2 Ω ẑ × s = (2Ω s_y, −2Ω s_x, 0).
                dsx += 2.0 * omega * sy;
                dsy -= 2.0 * omega * sx;
                // Centrifugal: ρ Ω² (x, y, 0).
                let cfx = rho * omega * omega * x;
                let cfy = rho * omega * omega * y;
                dsx += cfx;
                dsy += cfy;
                // Work done by the centrifugal force: v·F_cf.
                de += (sx * cfx + sy * cfy) / rho;
            }
            let cur_sx = rhs.get_interior(field::SX, i, j, k);
            let cur_sy = rhs.get_interior(field::SY, i, j, k);
            let cur_sz = rhs.get_interior(field::SZ, i, j, k);
            let cur_e = rhs.get_interior(field::EGAS, i, j, k);
            rhs.set_interior(field::SX, i, j, k, cur_sx + dsx);
            rhs.set_interior(field::SY, i, j, k, cur_sy + dsy);
            rhs.set_interior(field::SZ, i, j, k, cur_sz + dsz);
            rhs.set_interior(field::EGAS, i, j, k, cur_e + de);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(u: &SubGrid, rhs: &mut SubGrid, src: &SourceInput<'_>) {
        for i in 0..u.n() {
            apply_sources(u, rhs, src, i);
        }
    }

    fn state_grid(n: usize, rho: f64, v: [f64; 3]) -> SubGrid {
        let mut u = SubGrid::new(n, 2, NF);
        for i in 0..u.ext() {
            for j in 0..u.ext() {
                for k in 0..u.ext() {
                    u.set(field::RHO, i, j, k, rho);
                    u.set(field::SX, i, j, k, rho * v[0]);
                    u.set(field::SY, i, j, k, rho * v[1]);
                    u.set(field::SZ, i, j, k, rho * v[2]);
                }
            }
        }
        u
    }

    #[test]
    fn no_sources_leaves_rhs_untouched() {
        let u = state_grid(2, 1.0, [0.1, 0.2, 0.3]);
        let mut rhs = SubGrid::new(2, 2, NF);
        rhs.fill(7.0);
        apply_all(
            &u,
            &mut rhs,
            &SourceInput {
                gravity: None,
                omega: 0.0,
                origin: [0.0; 3],
                h: 1.0,
                boundary_faces: [false; 6],
            },
        );
        assert_eq!(rhs.get_interior(field::SX, 0, 0, 0), 7.0);
    }

    #[test]
    fn coriolis_does_no_work() {
        // Pure rotation at the domain center (x=y=0): only Coriolis acts;
        // the energy source must vanish.
        let u = state_grid(2, 1.0, [0.4, -0.3, 0.0]);
        let mut rhs = SubGrid::new(2, 2, NF);
        apply_all(
            &u,
            &mut rhs,
            &SourceInput {
                gravity: None,
                omega: 1.5,
                // Origin chosen so cell (0,0,·) sits at x=y=0.
                origin: [0.0, 0.0, 0.0],
                h: 0.0,
                boundary_faces: [false; 6],
            },
        );
        assert!(rhs.get_interior(field::EGAS, 0, 0, 0).abs() < 1e-15);
        // Coriolis components: 2Ω s_y and −2Ω s_x.
        assert!((rhs.get_interior(field::SX, 0, 0, 0) - 2.0 * 1.5 * (-0.3)).abs() < 1e-14);
        assert!((rhs.get_interior(field::SY, 0, 0, 0) + 2.0 * 1.5 * 0.4).abs() < 1e-14);
    }

    #[test]
    fn centrifugal_points_outward() {
        let u = state_grid(2, 2.0, [0.0, 0.0, 0.0]);
        let mut rhs = SubGrid::new(2, 2, NF);
        let omega = 2.0;
        apply_all(
            &u,
            &mut rhs,
            &SourceInput {
                gravity: None,
                omega,
                origin: [1.0, -1.0, 0.0],
                h: 0.5,
                boundary_faces: [false; 6],
            },
        );
        // Cell (0,0,0) at (1.0, -1.0): F_cf = ρΩ²(x,y).
        assert!((rhs.get_interior(field::SX, 0, 0, 0) - 2.0 * 4.0 * 1.0).abs() < 1e-13);
        assert!((rhs.get_interior(field::SY, 0, 0, 0) - -(2.0 * 4.0)).abs() < 1e-13);
        assert_eq!(rhs.get_interior(field::SZ, 0, 0, 0), 0.0);
    }

    #[test]
    fn gravity_energy_source_is_s_dot_g() {
        let u = state_grid(2, 1.0, [0.5, 0.0, -0.25]);
        let n3 = 8;
        let gx = vec![0.2; n3];
        let gy = vec![0.0; n3];
        let gz = vec![0.4; n3];
        let mut rhs = SubGrid::new(2, 2, NF);
        apply_all(
            &u,
            &mut rhs,
            &SourceInput {
                gravity: Some([&gx, &gy, &gz]),
                omega: 0.0,
                origin: [0.0; 3],
                h: 1.0,
                boundary_faces: [false; 6],
            },
        );
        let expected = 0.5 * 0.2 + (-0.25) * 0.4;
        assert!((rhs.get_interior(field::EGAS, 1, 1, 1) - expected).abs() < 1e-14);
    }
}
