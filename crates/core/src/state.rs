//! The evolved state vector and the primitive-to-conserved map of the
//! scenario initializers.
//!
//! Octo-Tiger evolves, per cell: mass density, the three momentum
//! densities, gas energy density, an entropy tracer `τ` (the dual-energy
//! formalism of its hydro module), and passive tracer fields recording "the
//! original mass fractions of the binary components (e.g. as the core and
//! envelope fractions)" used by the refinement criterion (paper Section
//! IV-C).  We carry two component tracers.

use crate::units::GAMMA;

/// Field indices within each leaf's [`octree::SubGrid`].
pub mod field {
    /// Mass density ρ.
    pub const RHO: usize = 0;
    /// x-momentum density `s_x = ρ v_x`.
    pub const SX: usize = 1;
    /// y-momentum density.
    pub const SY: usize = 2;
    /// z-momentum density.
    pub const SZ: usize = 3;
    /// Total gas energy density `E = e + ρv²/2` (internal + kinetic).
    pub const EGAS: usize = 4;
    /// Entropy tracer `τ = e^{1/γ}` (dual-energy formalism).
    pub const TAU: usize = 5;
    /// Mass fraction tracer of binary component 1 (ρ · X₁).
    pub const FRAC1: usize = 6;
    /// Mass fraction tracer of binary component 2 (ρ · X₂).
    pub const FRAC2: usize = 7;
}

/// Number of evolved fields.
pub const NF: usize = 8;

/// Primitive variables of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    pub rho: f64,
    pub vx: f64,
    pub vy: f64,
    pub vz: f64,
    pub p: f64,
}

/// Conserved variables of one cell (the five dynamic fields).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Conserved {
    pub rho: f64,
    pub sx: f64,
    pub sy: f64,
    pub sz: f64,
    pub egas: f64,
}

/// Threshold of the dual-energy switch (fraction of total energy below
/// which `E − K` is considered untrustworthy).
pub(crate) const DUAL_ENERGY_SWITCH: f64 = 1.0e-3;

/// Build the conserved state of a cell from primitives (used by the
/// scenario initializers).  Returns `(Conserved, tau)`.
pub fn from_primitive(p: &Primitive) -> (Conserved, f64) {
    let e = p.p / (GAMMA - 1.0);
    let kinetic = 0.5 * p.rho * (p.vx * p.vx + p.vy * p.vy + p.vz * p.vz);
    (
        Conserved {
            rho: p.rho,
            sx: p.rho * p.vx,
            sy: p.rho * p.vy,
            sz: p.rho * p.vz,
            egas: e + kinetic,
        },
        e.max(0.0).powf(1.0 / GAMMA),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_primitive_builds_momenta_total_energy_and_entropy() {
        let p = Primitive {
            rho: 2.0,
            vx: 1.0,
            vy: -0.5,
            vz: 0.0,
            p: 0.4,
        };
        let (u, tau) = from_primitive(&p);
        let e = 0.4 / (GAMMA - 1.0);
        assert_eq!((u.rho, u.sx, u.sy, u.sz), (2.0, 2.0, -1.0, 0.0));
        assert!((u.egas - (e + 0.5 * 2.0 * 1.25)).abs() < 1e-14);
        // τ = e^{1/γ}.
        assert!((tau.powf(GAMMA) - e).abs() < 1e-14);
    }
}
