//! The hydrodynamics module: semi-discrete finite-volume scheme on the
//! sub-grids, as described in paper Section IV-C.
//!
//! Pipeline per leaf and Runge-Kutta stage (ghosts already exchanged),
//! streamed plane by plane along `x` by one kernel ([`kernels`]):
//!
//! 1. primitive recovery, one ghosted plane at a time,
//! 2. piecewise-linear reconstruction with the minmod limiter ([`recon`]),
//! 3. HLL fluxes on the cell interfaces of each axis (`flux`),
//! 4. flux divergence + gravity and rotating-frame sources into the RHS,
//!
//! then the SSP-RK3 stage combination ([`rk3`]).
//!
//! All inner loops are written once over `Simd<f64, W>` and monomorphised
//! at `W = 1` (scalar build) and `W = 8` (SVE build), dispatched on
//! [`sve_simd::VectorMode`] — the Figure 7 experiment switch.

pub(crate) mod flux;
pub mod kernels;
pub mod recon;
pub mod rk3;
pub(crate) mod rotating;

use crate::state::NF;
use octree::SubGrid;
use sve_simd::VectorMode;

/// Hydro solver options.
#[derive(Debug, Clone, Copy)]
pub struct HydroOptions {
    /// SIMD width selection (paper Figure 7: scalar vs SVE).
    pub vector_mode: VectorMode,
    /// CFL number for the global fixed time step.
    pub cfl: f64,
}

impl Default for HydroOptions {
    fn default() -> Self {
        HydroOptions {
            vector_mode: VectorMode::default(),
            cfl: 0.4,
        }
    }
}

/// Per-cell acceleration field for one leaf (filled by the gravity solver;
/// zero in pure-hydro runs), plus the rotating-frame parameters.
#[derive(Debug, Clone)]
pub struct SourceInput<'a> {
    /// `g_x, g_y, g_z` per interior cell (length `n³` each, k fastest), or
    /// `None` for no gravity.
    pub gravity: Option<[&'a [f64]; 3]>,
    /// Rotating-frame angular frequency Ω (about z through the domain
    /// center); `0.0` disables frame terms.
    pub omega: f64,
    /// Physical coordinates of the leaf's first interior cell center.
    pub origin: [f64; 3],
    /// Cell width.
    pub h: f64,
    /// Which of this leaf's faces are computational-domain boundaries, in
    /// `[-x, +x, -y, +y, -z, +z]` order.  Mass flux through these faces is
    /// tracked so the conservation ledger can account for outflow, the way
    /// Octo-Tiger's diagnostics do.
    pub boundary_faces: [bool; 6],
}

/// Output of one RHS evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RhsInfo {
    /// Net mass leaving the domain through this leaf's boundary faces,
    /// per unit time (flux × face area, summed).
    pub boundary_mass_outflow_rate: f64,
}

/// Compute the full right-hand side `L(u)` for one leaf into `rhs`
/// (interior cells only; `rhs` must have the same shape as `u`), streaming
/// the leaf through the O(ext²) primitive and flux window of the caller's
/// pooled [`kernels::KernelScratch`].
pub fn compute_rhs(
    u: &SubGrid,
    rhs: &mut SubGrid,
    src: &SourceInput<'_>,
    opts: &HydroOptions,
    scratch: &mut kernels::KernelScratch,
) -> RhsInfo {
    match opts.vector_mode {
        VectorMode::Scalar => kernels::compute_rhs_w::<1>(u, rhs, src, scratch),
        VectorMode::Sve512 => compute_rhs_wide(u, rhs, src, scratch),
    }
}

sve_simd::wide_dispatch! {
    /// [`kernels::compute_rhs_w::<8>`] entered under the host's widest
    /// vector ISA — the "SVE build" half of the Figure 7 pair.
    fn compute_rhs_wide(
        u: &SubGrid,
        rhs: &mut SubGrid,
        src: &SourceInput<'_>,
        scratch: &mut kernels::KernelScratch
    ) -> RhsInfo = kernels::compute_rhs_w::<8>
}

/// Maximum signal speed (|v| + c_s) over the interior of a leaf, for the
/// CFL condition.  Octo-Tiger reduces this globally and keeps the step
/// fixed across the grid (no adaptive time stepping — paper Section IV-C).
pub fn max_signal_speed(u: &SubGrid, opts: &HydroOptions) -> f64 {
    match opts.vector_mode {
        VectorMode::Scalar => kernels::max_signal_speed_w::<1>(u),
        VectorMode::Sve512 => max_signal_speed_wide(u),
    }
}

sve_simd::wide_dispatch! {
    /// [`kernels::max_signal_speed_w::<8>`] under the host's widest vector
    /// ISA.
    fn max_signal_speed_wide(u: &SubGrid) -> f64 = kernels::max_signal_speed_w::<8>
}

/// Allocate an RHS buffer shaped like `u`.
pub fn rhs_like(u: &SubGrid) -> SubGrid {
    SubGrid::new(u.n(), u.ghost(), NF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{field, from_primitive, Primitive};

    fn uniform_grid(n: usize, p: Primitive) -> SubGrid {
        let mut g = SubGrid::new(n, 2, NF);
        let (u, tau) = from_primitive(&p);
        let ext = g.ext();
        for i in 0..ext {
            for j in 0..ext {
                for k in 0..ext {
                    g.set(field::RHO, i, j, k, u.rho);
                    g.set(field::SX, i, j, k, u.sx);
                    g.set(field::SY, i, j, k, u.sy);
                    g.set(field::SZ, i, j, k, u.sz);
                    g.set(field::EGAS, i, j, k, u.egas);
                    g.set(field::TAU, i, j, k, tau);
                    g.set(field::FRAC1, i, j, k, u.rho);
                    g.set(field::FRAC2, i, j, k, 0.0);
                }
            }
        }
        g
    }

    #[test]
    fn uniform_state_has_zero_rhs() {
        // A constant state is an exact steady solution: all flux
        // differences vanish.
        let p = Primitive {
            rho: 1.0,
            vx: 0.3,
            vy: -0.2,
            vz: 0.1,
            p: 0.8,
        };
        let u = uniform_grid(4, p);
        let mut rhs = rhs_like(&u);
        let src = SourceInput {
            gravity: None,
            omega: 0.0,
            origin: [0.0; 3],
            h: 0.1,
            boundary_faces: [false; 6],
        };
        let mut scratch = kernels::KernelScratch::ephemeral(4, 2);
        for mode in VectorMode::all() {
            let opts = HydroOptions {
                vector_mode: mode,
                cfl: 0.4,
            };
            let info = compute_rhs(&u, &mut rhs, &src, &opts, &mut scratch);
            assert_eq!(info.boundary_mass_outflow_rate, 0.0);
            for f in 0..NF {
                for i in 0..4 {
                    for j in 0..4 {
                        for k in 0..4 {
                            assert!(
                                rhs.get_interior(f, i, j, k).abs() < 1e-12,
                                "mode {mode:?} field {f} rhs {} at ({i},{j},{k})",
                                rhs.get_interior(f, i, j, k)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_and_sve_modes_agree_bitwise_on_smooth_data() {
        // The paper's SIMD switch must not change the physics: both widths
        // evaluate the same arithmetic.
        let mut u = uniform_grid(
            4,
            Primitive {
                rho: 1.0,
                vx: 0.0,
                vy: 0.0,
                vz: 0.0,
                p: 0.6,
            },
        );
        // Impose a smooth density/pressure bump.
        let ext = u.ext();
        for i in 0..ext {
            for j in 0..ext {
                for k in 0..ext {
                    let r2 = (i as f64 - 3.5).powi(2)
                        + (j as f64 - 3.5).powi(2)
                        + (k as f64 - 3.5).powi(2);
                    let rho = 1.0 + 0.5 * (-r2 / 8.0).exp();
                    u.set(field::RHO, i, j, k, rho);
                    u.set(field::EGAS, i, j, k, 0.9 * rho);
                    u.set(field::TAU, i, j, k, (0.9 * rho).powf(0.6));
                    u.set(field::FRAC1, i, j, k, rho);
                }
            }
        }
        let src = SourceInput {
            gravity: None,
            omega: 0.0,
            origin: [0.0; 3],
            h: 0.1,
            boundary_faces: [false; 6],
        };
        let mut rhs_scalar = rhs_like(&u);
        let mut rhs_sve = rhs_like(&u);
        let mut scratch = kernels::KernelScratch::ephemeral(4, 2);
        compute_rhs(
            &u,
            &mut rhs_scalar,
            &src,
            &HydroOptions {
                vector_mode: VectorMode::Scalar,
                cfl: 0.4,
            },
            &mut scratch,
        );
        compute_rhs(
            &u,
            &mut rhs_sve,
            &src,
            &HydroOptions {
                vector_mode: VectorMode::Sve512,
                cfl: 0.4,
            },
            &mut scratch,
        );
        for f in 0..NF {
            for i in 0..4 {
                for j in 0..4 {
                    for k in 0..4 {
                        let a = rhs_scalar.get_interior(f, i, j, k);
                        let b = rhs_sve.get_interior(f, i, j, k);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "width mismatch at f{f} ({i},{j},{k}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gravity_source_accelerates_momentum() {
        let p = Primitive {
            rho: 2.0,
            vx: 0.0,
            vy: 0.0,
            vz: 0.0,
            p: 0.5,
        };
        let u = uniform_grid(4, p);
        let n3 = 64;
        let gx = vec![0.25; n3];
        let gy = vec![0.0; n3];
        let gz = vec![-0.5; n3];
        let src = SourceInput {
            gravity: Some([&gx, &gy, &gz]),
            omega: 0.0,
            origin: [0.0; 3],
            h: 0.1,
            boundary_faces: [false; 6],
        };
        let mut rhs = rhs_like(&u);
        let mut scratch = kernels::KernelScratch::ephemeral(4, 2);
        compute_rhs(&u, &mut rhs, &src, &HydroOptions::default(), &mut scratch);
        // ds/dt = ρ g; uniform state has zero flux divergence.
        assert!((rhs.get_interior(field::SX, 1, 1, 1) - 2.0 * 0.25).abs() < 1e-12);
        assert!((rhs.get_interior(field::SZ, 2, 2, 2) + 2.0 * 0.5).abs() < 1e-12);
        // dE/dt = s·g = 0 at rest.
        assert!(rhs.get_interior(field::EGAS, 1, 2, 3).abs() < 1e-12);
    }

    #[test]
    fn signal_speed_is_at_least_sound_speed() {
        let p = Primitive {
            rho: 1.0,
            vx: 0.5,
            vy: 0.0,
            vz: 0.0,
            p: 0.6,
        };
        let u = uniform_grid(4, p);
        let opts = HydroOptions::default();
        let s = max_signal_speed(&u, &opts);
        let cs = (crate::units::GAMMA * 0.6 / 1.0).sqrt();
        assert!(s >= 0.5 + cs - 1e-12);
        // Both widths agree.
        let s2 = max_signal_speed(
            &u,
            &HydroOptions {
                vector_mode: VectorMode::Scalar,
                cfl: 0.4,
            },
        );
        assert_eq!(s.to_bits(), s2.to_bits());
    }
}
