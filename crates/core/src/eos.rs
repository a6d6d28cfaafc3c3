//! Equations of state: polytropes for the SCF initial models.  The hydro
//! evolution's gamma-law closure is `units::GAMMA`, applied inline by the
//! kernels.
//!
//! Paper Section IV-C: the SCF module builds binaries whose components
//! "may be polytropic or a 'bi-polytropic' structure, with core, envelope,
//! and/or common envelope components".  Both scenarios here use single
//! polytropes.

use crate::units::{P_FLOOR, RHO_FLOOR};

/// Minimal EOS interface used by the hydro solver and SCF module.
pub trait Eos {
    /// Pressure from density and specific internal energy density `e`
    /// (energy per volume).
    fn pressure(&self, rho: f64, e: f64) -> f64;
    /// Sound speed from density and pressure.
    fn sound_speed(&self, rho: f64, p: f64) -> f64;
    /// Specific enthalpy `h(ρ)` along the EOS's barotrope (used by SCF).
    fn enthalpy(&self, rho: f64) -> f64;
    /// Inverse of [`Eos::enthalpy`]: density from specific enthalpy.
    fn rho_from_enthalpy(&self, h: f64) -> f64;
}

/// Polytrope `p = K ρ^(1 + 1/n)` with index `n`.
///
/// `n = 3/2` models fully convective low-mass MS stars and (roughly)
/// non-relativistic white dwarfs — the components of both paper scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Polytrope {
    /// Polytropic constant.
    pub k: f64,
    /// Polytropic index.
    pub n: f64,
}

impl Polytrope {
    /// Polytrope with index `n` and constant `k`.
    pub fn new(k: f64, n: f64) -> Polytrope {
        assert!(k > 0.0 && n > 0.0, "polytrope parameters must be positive");
        Polytrope { k, n }
    }

    /// Adiabatic exponent `Γ = 1 + 1/n`.
    pub(crate) fn gamma(&self) -> f64 {
        1.0 + 1.0 / self.n
    }

    /// Barotropic pressure `p(ρ)`.
    pub(crate) fn pressure_of_rho(&self, rho: f64) -> f64 {
        self.k * rho.max(0.0).powf(self.gamma())
    }
}

impl Eos for Polytrope {
    fn pressure(&self, rho: f64, _e: f64) -> f64 {
        self.pressure_of_rho(rho).max(P_FLOOR)
    }

    fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        (self.gamma() * p / rho.max(RHO_FLOOR)).sqrt()
    }

    fn enthalpy(&self, rho: f64) -> f64 {
        // h = ∫ dp/ρ = K (n+1) ρ^(1/n).
        self.k * (self.n + 1.0) * rho.max(0.0).powf(1.0 / self.n)
    }

    fn rho_from_enthalpy(&self, h: f64) -> f64 {
        if h <= 0.0 {
            return 0.0;
        }
        (h / (self.k * (self.n + 1.0))).powf(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polytrope_enthalpy_roundtrip() {
        let eos = Polytrope::new(0.4242, 1.5);
        for rho in [1e-5, 0.3, 2.0] {
            let h = eos.enthalpy(rho);
            assert!((eos.rho_from_enthalpy(h) - rho).abs() / rho < 1e-12);
        }
    }

    #[test]
    fn polytrope_gamma() {
        assert!((Polytrope::new(1.0, 1.5).gamma() - 5.0 / 3.0).abs() < 1e-15);
        assert!((Polytrope::new(1.0, 3.0).gamma() - 4.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn enthalpy_is_dp_drho_over_rho_consistent() {
        // dh/dρ must equal (dp/dρ)/ρ for a barotrope.
        let eos = Polytrope::new(0.7, 1.5);
        let rho = 0.9;
        let drho = 1e-7;
        let dh = (eos.enthalpy(rho + drho) - eos.enthalpy(rho - drho)) / (2.0 * drho);
        let dp = (eos.pressure_of_rho(rho + drho) - eos.pressure_of_rho(rho - drho)) / (2.0 * drho);
        assert!((dh - dp / rho).abs() < 1e-5);
    }
}
