//! HLL Riemann fluxes on SIMD lanes of interface states.
//!
//! Octo-Tiger's hydro module uses an approximate Riemann solver on the
//! reconstructed interface states; HLL with Davis wave-speed estimates is
//! the robust classic.  The passive fields (entropy tracer τ and the two
//! binary-component tracers) are advected with the same HLL formula, their
//! "flux" being `q·v_axis`.

use crate::state::NF;
use crate::units::GAMMA;
use sve_simd::Simd;

/// Primitive interface state on `W` lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrimLanes<const W: usize> {
    pub rho: Simd<f64, W>,
    pub vx: Simd<f64, W>,
    pub vy: Simd<f64, W>,
    pub vz: Simd<f64, W>,
    pub p: Simd<f64, W>,
    pub tau: Simd<f64, W>,
    pub f1: Simd<f64, W>,
    pub f2: Simd<f64, W>,
}

impl<const W: usize> PrimLanes<W> {
    /// Velocity component along `axis` (0 = x, 1 = y, 2 = z).
    #[inline(always)]
    pub(crate) fn v_axis(&self, axis: usize) -> Simd<f64, W> {
        match axis {
            0 => self.vx,
            1 => self.vy,
            2 => self.vz,
            _ => unreachable!("axis must be 0..3"),
        }
    }

    /// Conserved vector `U` of this state.
    #[inline(always)]
    pub(crate) fn conserved(&self) -> [Simd<f64, W>; NF] {
        let half = Simd::splat(0.5);
        let v2 = self.vx * self.vx + self.vy * self.vy + self.vz * self.vz;
        let e = self.p / Simd::splat(GAMMA - 1.0);
        [
            self.rho,
            self.rho * self.vx,
            self.rho * self.vy,
            self.rho * self.vz,
            e + half * self.rho * v2,
            self.tau,
            self.f1,
            self.f2,
        ]
    }

    /// Physical flux vector `F(U)` along `axis`.
    #[inline(always)]
    pub(crate) fn flux(&self, axis: usize) -> [Simd<f64, W>; NF] {
        let va = self.v_axis(axis);
        let u = self.conserved();
        let mut f = [Simd::splat(0.0); NF];
        f[0] = u[0] * va;
        f[1] = u[1] * va;
        f[2] = u[2] * va;
        f[3] = u[3] * va;
        // Pressure contribution on the axis momentum.
        f[1 + axis] += self.p;
        f[4] = (u[4] + self.p) * va;
        f[5] = u[5] * va;
        f[6] = u[6] * va;
        f[7] = u[7] * va;
        f
    }

    /// Sound speed lanes.
    #[inline(always)]
    pub(crate) fn sound_speed(&self) -> Simd<f64, W> {
        (Simd::splat(GAMMA) * self.p / self.rho).sqrt()
    }
}

/// HLL flux from left/right interface states along `axis`, plus the
/// interface's maximum wave speed (for CFL bookkeeping).
#[inline(always)]
pub(crate) fn hll_flux<const W: usize>(
    axis: usize,
    l: &PrimLanes<W>,
    r: &PrimLanes<W>,
) -> ([Simd<f64, W>; NF], Simd<f64, W>) {
    let zero = Simd::splat(0.0);
    let cl = l.sound_speed();
    let cr = r.sound_speed();
    let vl = l.v_axis(axis);
    let vr = r.v_axis(axis);
    // Davis estimates.
    let sl = (vl - cl).simd_min(vr - cr);
    let sr = (vl + cl).simd_max(vr + cr);
    let fl = l.flux(axis);
    let fr = r.flux(axis);
    let ul = l.conserved();
    let ur = r.conserved();

    let sl_nonneg = sl.simd_ge(zero);
    let sr_nonpos = sr.simd_le(zero);
    // Avoid 0/0 in the middle formula on degenerate lanes.
    let denom_raw = sr - sl;
    let tiny = Simd::splat(1e-300);
    let denom = Simd::select(denom_raw.abs().simd_gt(tiny), denom_raw, tiny);

    let mut out = [zero; NF];
    for f in 0..NF {
        let middle = (sr * fl[f] - sl * fr[f] + sl * sr * (ur[f] - ul[f])) / denom;
        let v = Simd::select(sl_nonneg, fl[f], Simd::select(sr_nonpos, fr[f], middle));
        out[f] = v;
    }
    let max_speed = sl.abs().simd_max(sr.abs());
    (out, max_speed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::field;

    fn lanes1(rho: f64, vx: f64, p: f64) -> PrimLanes<1> {
        PrimLanes {
            rho: Simd::splat(rho),
            vx: Simd::splat(vx),
            vy: Simd::splat(0.0),
            vz: Simd::splat(0.0),
            p: Simd::splat(p),
            tau: Simd::splat((p / (GAMMA - 1.0)).powf(1.0 / GAMMA)),
            f1: Simd::splat(rho),
            f2: Simd::splat(0.0),
        }
    }

    #[test]
    fn identical_states_give_physical_flux() {
        // L == R ⇒ HLL reduces to the exact flux of that state.
        let s = lanes1(1.0, 0.3, 0.7);
        let (f, _) = hll_flux(0, &s, &s);
        let exact = s.flux(0);
        for k in 0..NF {
            assert!(
                (f[k][0] - exact[k][0]).abs() < 1e-13,
                "field {k}: {} vs {}",
                f[k][0],
                exact[k][0]
            );
        }
    }

    #[test]
    fn supersonic_right_moving_flow_upwinds_left() {
        // v ≫ c_s on both sides ⇒ sl > 0 ⇒ flux = F(U_L).
        let l = lanes1(1.0, 10.0, 0.1);
        let r = lanes1(0.5, 10.0, 0.1);
        let (f, _) = hll_flux(0, &l, &r);
        let fl = l.flux(0);
        for k in 0..NF {
            assert!((f[k][0] - fl[k][0]).abs() < 1e-12);
        }
    }

    #[test]
    fn supersonic_left_moving_flow_upwinds_right() {
        let l = lanes1(1.0, -10.0, 0.1);
        let r = lanes1(0.5, -10.0, 0.1);
        let (f, _) = hll_flux(0, &l, &r);
        let fr = r.flux(0);
        for k in 0..NF {
            assert!((f[k][0] - fr[k][0]).abs() < 1e-12);
        }
    }

    #[test]
    fn sod_interface_mass_flux_is_positive() {
        // Sod shock tube initial jump: mass must flow from high to low
        // pressure side.
        let l = lanes1(1.0, 0.0, 1.0);
        let r = lanes1(0.125, 0.0, 0.1);
        let (f, speed) = hll_flux(0, &l, &r);
        assert!(f[field::RHO][0] > 0.0);
        assert!(speed[0] > 0.0);
    }

    #[test]
    fn pressure_appears_only_on_axis_momentum() {
        let s = lanes1(1.0, 0.0, 2.0);
        for axis in 0..3 {
            let f = s.flux(axis);
            for m in 0..3 {
                let expected = if m == axis { 2.0 } else { 0.0 };
                assert_eq!(f[1 + m][0], expected, "axis {axis} momentum {m}");
            }
        }
    }

    #[test]
    fn flux_is_consistent_with_conserved() {
        // F(U) with v = 0 carries no advective part.
        let s = lanes1(2.0, 0.0, 0.5);
        let f = s.flux(1);
        assert_eq!(f[field::RHO][0], 0.0);
        assert_eq!(f[field::EGAS][0], 0.0);
        assert_eq!(f[field::TAU][0], 0.0);
    }

    #[test]
    fn wide_lanes_match_scalar() {
        let l8 = PrimLanes::<8> {
            rho: Simd::splat(1.0),
            vx: Simd::splat(0.2),
            vy: Simd::splat(-0.4),
            vz: Simd::splat(0.1),
            p: Simd::splat(0.9),
            tau: Simd::splat(0.8),
            f1: Simd::splat(0.6),
            f2: Simd::splat(0.4),
        };
        let r8 = PrimLanes::<8> {
            rho: Simd::splat(0.7),
            vx: Simd::splat(-0.1),
            vy: Simd::splat(0.0),
            vz: Simd::splat(0.3),
            p: Simd::splat(0.4),
            tau: Simd::splat(0.5),
            f1: Simd::splat(0.2),
            f2: Simd::splat(0.5),
        };
        let to1 = |s: &PrimLanes<8>| PrimLanes::<1> {
            rho: Simd::splat(s.rho[0]),
            vx: Simd::splat(s.vx[0]),
            vy: Simd::splat(s.vy[0]),
            vz: Simd::splat(s.vz[0]),
            p: Simd::splat(s.p[0]),
            tau: Simd::splat(s.tau[0]),
            f1: Simd::splat(s.f1[0]),
            f2: Simd::splat(s.f2[0]),
        };
        for axis in 0..3 {
            let (f8, s8) = hll_flux(axis, &l8, &r8);
            let (f1, s1) = hll_flux(axis, &to1(&l8), &to1(&r8));
            for k in 0..NF {
                assert_eq!(f8[k][0], f1[k][0], "axis {axis} field {k}");
                assert_eq!(f8[k][7], f1[k][0]);
            }
            assert_eq!(s8[3], s1[0]);
        }
    }
}
