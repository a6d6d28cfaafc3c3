//! The iterative SCF binary builder.
//!
//! Bernoulli integral in the frame co-rotating at Ω:
//! `H(x) + Φ(x) − ½ Ω² ϖ² = C_i` inside component `i`.
//! Following the paper's description we iterate two unknowns per star —
//! the surface constant `C_i` and the polytropic constant `K_i` — until
//! the components reach their target masses, with the gravitational
//! potential approximated by the two components' (softened) point masses
//! during the iteration; the full grid solve then relaxes the model
//! further.  The surface constants are parameterized against the L1
//! potential, so the builder can produce detached, semi-detached and
//! contact binaries on demand — the taxonomy of paper Section IV-C.

use crate::eos::{Eos, Polytrope};
use crate::scf::lane_emden::LaneEmden;
use crate::units::G;

/// Input parameters of an SCF binary.
#[derive(Debug, Clone, Copy)]
pub struct BinaryParams {
    /// Target mass of the primary.
    pub m1: f64,
    /// Target mass of the secondary (0 for a single star).
    pub m2: f64,
    /// Orbital separation.
    pub a: f64,
    /// Polytropic index of both components.
    pub n: f64,
    /// Where each star's surface potential sits between its central
    /// potential (0) and the L1 potential (1): ≥ 1 overflows the lobe
    /// (contact), < 1 is detached.  For a single star this is the surface
    /// radius as a fraction of `a`.
    pub fill_factor: f64,
}

impl BinaryParams {
    /// The paper's V1309 progenitor: a *contact* binary of two MS stars
    /// (masses after Tylenda et al., code units).
    pub(crate) fn v1309() -> BinaryParams {
        BinaryParams {
            m1: 1.52,
            m2: 0.16,
            a: 0.5,
            n: 1.5,
            fill_factor: 1.04, // overfilled: contact
        }
    }

    /// The paper's DWD scenario with mass ratio q = 0.7.
    pub(crate) fn dwd_q07() -> BinaryParams {
        BinaryParams {
            m1: 0.6,
            m2: 0.42,
            a: 0.56,
            n: 1.5,
            fill_factor: 0.9, // just shy of contact: transfer soon
        }
    }

    /// A single rotating star (the paper's scaling-study problem).
    pub(crate) fn single_star() -> BinaryParams {
        BinaryParams {
            m1: 1.0,
            m2: 0.0,
            a: 0.4,
            n: 1.5,
            fill_factor: 0.5,
        }
    }
}

/// Classification of the converged binary (paper Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryKind {
    Detached,
    SemiDetached,
    Contact,
    SingleStar,
}

/// A converged SCF model, evaluable at any point.
#[derive(Debug, Clone)]
pub struct BinaryModel {
    pub params: BinaryParams,
    /// Center of component 1 (on the x-axis, COM at the origin).
    pub x1: [f64; 3],
    /// Center of component 2.
    pub x2: [f64; 3],
    /// Orbital frequency of the rotating frame.
    pub omega: f64,
    /// Per-component polytropes (after the K iteration).
    pub eos1: Polytrope,
    pub eos2: Polytrope,
    /// Surface Bernoulli constants.
    pub c1: f64,
    pub c2: f64,
    /// Central densities (post-convergence, at the softened centers).
    pub rho_c1: f64,
    pub rho_c2: f64,
    /// Characteristic stellar radii (lobe-assignment / softening scale).
    pub r1: f64,
    pub r2: f64,
    /// Plummer softening lengths of the iteration potential.
    eps1: f64,
    eps2: f64,
    /// Achieved masses (diagnostics; close to the targets on success).
    pub achieved_m1: f64,
    pub achieved_m2: f64,
}

/// Eggleton (1983) volume-equivalent Roche-lobe radius ratio `R_L/a`.
fn eggleton_rl(q: f64) -> f64 {
    let q23 = q.powf(2.0 / 3.0);
    0.49 * q23 / (0.6 * q23 + (1.0 + q.powf(1.0 / 3.0)).ln())
}

impl BinaryModel {
    /// Run the SCF iteration.
    ///
    /// # Panics
    /// Panics on non-physical parameters (non-positive m1 or a).
    pub fn solve(params: BinaryParams) -> BinaryModel {
        assert!(
            params.m1 > 0.0 && params.a > 0.0,
            "invalid binary parameters"
        );
        let le = LaneEmden::solve(params.n, 1e-3);
        let mtot = params.m1 + params.m2;
        // Kepler: the paper's grids rotate "with the original orbital
        // frequency of the binary".
        let omega = if params.m2 > 0.0 {
            (G * mtot / params.a.powi(3)).sqrt()
        } else {
            // Single star: a slow solid rotation to exercise the frame.
            0.2 * (G * params.m1 / params.a.powi(3)).sqrt()
        };
        let x1 = [-params.a * params.m2 / mtot, 0.0, 0.0];
        let x2 = [params.a * params.m1 / mtot, 0.0, 0.0];

        // Characteristic radii from the Roche geometry (lobe assignment &
        // softening only; the converged surface emerges from H = 0).
        let (r1, r2) = if params.m2 > 0.0 {
            let q1 = params.m1 / params.m2;
            let q2 = params.m2 / params.m1;
            (eggleton_rl(q1) * params.a, eggleton_rl(q2) * params.a)
        } else {
            (params.fill_factor * params.a, 0.0)
        };

        // Initial K from the Lane-Emden mass-radius relation.
        let k_init = |m: f64, r: f64| -> f64 {
            if m <= 0.0 || r <= 0.0 {
                return 1.0;
            }
            let rho_c =
                le.central_to_mean_density() * 3.0 * m / (4.0 * std::f64::consts::PI * r.powi(3));
            let alpha = r / le.xi1;
            4.0 * std::f64::consts::PI * G * alpha * alpha * rho_c.powf(1.0 - 1.0 / params.n)
                / (params.n + 1.0)
        };
        let mut model = BinaryModel {
            params,
            x1,
            x2,
            omega,
            eos1: Polytrope::new(k_init(params.m1, r1).max(1e-12), params.n),
            eos2: Polytrope::new(k_init(params.m2, r2).max(1e-12), params.n),
            c1: 0.0,
            c2: 0.0,
            rho_c1: 0.0,
            rho_c2: 0.0,
            r1,
            r2,
            eps1: 0.5 * r1.max(1e-6),
            eps2: 0.5 * r2.max(1e-6),
            achieved_m1: 0.0,
            achieved_m2: 0.0,
        };

        // Surface constants: interpolate between the (softened) central
        // potential and the L1 potential by the fill factor.
        if params.m2 > 0.0 {
            let l1 = model.phi_l1();
            let pc1 = model.phi_eff(x1);
            let pc2 = model.phi_eff(x2);
            model.c1 = pc1 + params.fill_factor * (l1 - pc1);
            model.c2 = pc2 + params.fill_factor * (l1 - pc2);
        } else {
            let surf = [x1[0] + r1, 0.0, 0.0];
            model.c1 = model.phi_eff(surf);
            model.c2 = f64::NEG_INFINITY;
        }

        // K iteration: with C fixed, the component mass scales as K^{-n}
        // (ρ = (H / ((n+1)K))^n), so correct multiplicatively.
        for _iter in 0..10 {
            let (m1_now, m2_now) = model.integrate_masses(48);
            model.achieved_m1 = m1_now;
            model.achieved_m2 = m2_now;
            let done1 = (m1_now - params.m1).abs() / params.m1 < 5e-3;
            let done2 = params.m2 == 0.0 || (m2_now - params.m2).abs() / params.m2 < 5e-3;
            if done1 && done2 {
                break;
            }
            if m1_now > 0.0 {
                let f = (m1_now / params.m1).powf(1.0 / params.n).clamp(0.5, 2.0);
                model.eos1 = Polytrope::new(model.eos1.k * f, params.n);
            }
            if params.m2 > 0.0 && m2_now > 0.0 {
                let f = (m2_now / params.m2).powf(1.0 / params.n).clamp(0.5, 2.0);
                model.eos2 = Polytrope::new(model.eos2.k * f, params.n);
            }
        }
        let (m1_now, m2_now) = model.integrate_masses(64);
        model.achieved_m1 = m1_now;
        model.achieved_m2 = m2_now;
        model.rho_c1 = model.density_at(model.x1).0;
        model.rho_c2 = if params.m2 > 0.0 {
            model.density_at(model.x2).0
        } else {
            0.0
        };
        model
    }

    /// Effective (softened point-mass + centrifugal) potential of the
    /// rotating frame.
    pub(crate) fn phi_eff(&self, x: [f64; 3]) -> f64 {
        let d1sq = dist2(x, self.x1) + self.eps1 * self.eps1;
        let mut phi = -G * self.params.m1 / d1sq.sqrt();
        if self.params.m2 > 0.0 {
            let d2sq = dist2(x, self.x2) + self.eps2 * self.eps2;
            phi -= G * self.params.m2 / d2sq.sqrt();
        }
        phi - 0.5 * self.omega * self.omega * (x[0] * x[0] + x[1] * x[1])
    }

    /// Density and component fractions at a point: the SCF density from
    /// the Bernoulli integral, assigned to the nearer component (scaled by
    /// lobe size).  Returns `(rho, frac1, frac2)`.
    /// The Bernoulli criterion `H = C − Φ_eff > 0` alone is only valid
    /// inside the Roche geometry: beyond the corotation radius the
    /// centrifugal term drives `Φ_eff → −∞`, so `H` turns positive again
    /// far from the stars and would spuriously fill the outer domain with
    /// gas.  Real SCF codes restrict the solution to the lobes; we cut
    /// each component off beyond 1.6 of its characteristic radius
    /// (generous enough for contact envelopes, far inside corotation for
    /// the paper's scenarios).
    pub(crate) fn density_at(&self, x: [f64; 3]) -> (f64, f64, f64) {
        const LOBE_CUTOFF: f64 = 1.6;
        let d1 = dist2(x, self.x1).sqrt() / self.r1.max(1e-12);
        let d2 = if self.params.m2 > 0.0 {
            dist2(x, self.x2).sqrt() / self.r2.max(1e-12)
        } else {
            f64::INFINITY
        };
        let (c, eos, d, first) = if d1 <= d2 {
            (self.c1, &self.eos1, d1, true)
        } else {
            (self.c2, &self.eos2, d2, false)
        };
        if d > LOBE_CUTOFF {
            return (0.0, 0.0, 0.0);
        }
        let h = c - self.phi_eff(x);
        if h <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let rho = eos.rho_from_enthalpy(h);
        if first {
            (rho, rho, 0.0)
        } else {
            (rho, 0.0, rho)
        }
    }

    /// Integrate both component masses on a `res³` grid over the domain
    /// box (midpoint rule; the SCF iteration only needs ratios).
    pub(crate) fn integrate_masses(&self, res: usize) -> (f64, f64) {
        let half = crate::units::BOX_SIZE / 2.0;
        let h = crate::units::BOX_SIZE / res as f64;
        let vol = h * h * h;
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for i in 0..res {
            for j in 0..res {
                for k in 0..res {
                    let x = [
                        -half + (i as f64 + 0.5) * h,
                        -half + (j as f64 + 0.5) * h,
                        -half + (k as f64 + 0.5) * h,
                    ];
                    let (_, f1, f2) = self.density_at(x);
                    m1 += f1 * vol;
                    m2 += f2 * vol;
                }
            }
        }
        (m1, m2)
    }

    /// Effective potential at the inner Lagrange point (maximum along the
    /// line between the centers).
    pub(crate) fn phi_l1(&self) -> f64 {
        if self.params.m2 == 0.0 {
            return f64::INFINITY;
        }
        let mut best = f64::NEG_INFINITY;
        for i in 1..999 {
            let t = i as f64 / 999.0;
            let x = [self.x1[0] + t * (self.x2[0] - self.x1[0]), 0.0, 0.0];
            best = best.max(self.phi_eff(x));
        }
        best
    }

    /// Classify the converged configuration.
    pub fn kind(&self) -> BinaryKind {
        if self.params.m2 == 0.0 {
            return BinaryKind::SingleStar;
        }
        let l1 = self.phi_l1();
        // A component overflows its lobe when its surface constant
        // reaches the L1 potential.
        let over1 = self.c1 >= l1 - 1e-12;
        let over2 = self.c2 >= l1 - 1e-12;
        match (over1, over2) {
            (true, true) => BinaryKind::Contact,
            (false, false) => BinaryKind::Detached,
            _ => BinaryKind::SemiDetached,
        }
    }
}

fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_star_mass_converges() {
        let model = BinaryModel::solve(BinaryParams::single_star());
        let (m1, m2) = model.integrate_masses(96);
        assert!(
            (m1 - 1.0).abs() < 0.1,
            "single-star mass should approach target: {m1}"
        );
        assert_eq!(m2, 0.0);
        assert_eq!(model.kind(), BinaryKind::SingleStar);
    }

    #[test]
    fn density_peaks_at_center_and_vanishes_outside() {
        let model = BinaryModel::solve(BinaryParams::single_star());
        let (rho_center, f1, _) = model.density_at(model.x1);
        assert!(rho_center > 0.0);
        assert_eq!(f1, rho_center);
        let (rho_far, _, _) = model.density_at([0.9, 0.9, 0.9]);
        assert_eq!(rho_far, 0.0);
        // Monotone-ish falloff along +x.
        let (rho_half, _, _) = model.density_at([model.x1[0] + 0.5 * model.r1, 0.0, 0.0]);
        assert!(
            rho_half < rho_center && rho_half > 0.0,
            "rho_half {rho_half} vs center {rho_center}"
        );
    }

    #[test]
    fn dwd_masses_close_to_targets() {
        let model = BinaryModel::solve(BinaryParams::dwd_q07());
        let (m1, m2) = model.integrate_masses(96);
        assert!((m1 - 0.6).abs() / 0.6 < 0.15, "m1 = {m1}");
        assert!((m2 - 0.42).abs() / 0.42 < 0.15, "m2 = {m2}");
        // Mass ratio near 0.7 (the paper's q).
        let q = m2 / m1;
        assert!((q - 0.7).abs() < 0.1, "q = {q}");
    }

    #[test]
    fn kepler_frequency() {
        let p = BinaryParams::dwd_q07();
        let model = BinaryModel::solve(p);
        let expect = (G * (p.m1 + p.m2) / p.a.powi(3)).sqrt();
        assert!((model.omega - expect).abs() < 1e-12);
    }

    #[test]
    fn com_is_at_origin() {
        let p = BinaryParams::v1309();
        let model = BinaryModel::solve(p);
        let com = p.m1 * model.x1[0] + p.m2 * model.x2[0];
        assert!(com.abs() < 1e-12);
        assert!(model.x1[0] < 0.0 && model.x2[0] > 0.0);
    }

    #[test]
    fn v1309_is_contact_and_low_fill_is_detached() {
        let contact = BinaryModel::solve(BinaryParams::v1309());
        assert_eq!(contact.kind(), BinaryKind::Contact, "V1309 must be contact");
        let mut detached_params = BinaryParams::dwd_q07();
        detached_params.fill_factor = 0.5;
        let detached = BinaryModel::solve(detached_params);
        assert_eq!(detached.kind(), BinaryKind::Detached);
    }

    #[test]
    fn l1_lies_between_the_stars() {
        let model = BinaryModel::solve(BinaryParams::dwd_q07());
        let l1 = model.phi_l1();
        // L1 potential must be higher than the potential at either center.
        assert!(l1 > model.phi_eff(model.x1));
        assert!(l1 > model.phi_eff(model.x2));
        assert!(l1 < 0.0);
    }

    #[test]
    fn component_fraction_tags_are_exclusive() {
        let model = BinaryModel::solve(BinaryParams::dwd_q07());
        let (rho1, f1, f2) = model.density_at(model.x1);
        assert!(rho1 > 0.0 && f1 > 0.0 && f2 == 0.0);
        let (rho2, g1, g2) = model.density_at(model.x2);
        assert!(rho2 > 0.0 && g2 > 0.0 && g1 == 0.0);
    }

    #[test]
    fn achieved_masses_recorded() {
        let model = BinaryModel::solve(BinaryParams::dwd_q07());
        assert!(model.achieved_m1 > 0.0);
        assert!(model.achieved_m2 > 0.0);
        assert!(model.rho_c1 > 0.0 && model.rho_c2 > 0.0);
    }
}
