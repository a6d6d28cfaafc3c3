//! The Lane-Emden equation: structure of a polytropic star.
//!
//! `θ'' + (2/ξ) θ' + θⁿ = 0`, `θ(0) = 1`, `θ'(0) = 0`; the first zero `ξ₁`
//! marks the stellar surface.  Integrated with classic RK4; the solution
//! supplies the density profile `ρ(r) = ρ_c θ(ξ)ⁿ` used by the SCF module
//! and the scenario initializers (n = 3/2 for the convective MS stars of
//! V1309 and for non-relativistic white dwarfs).

/// The surface constants of a Lane-Emden solution for one polytropic index.
#[derive(Debug, Clone)]
pub(crate) struct LaneEmden {
    /// First zero ξ₁ (stellar surface).
    pub xi1: f64,
    /// −ξ₁² θ'(ξ₁), the mass integral constant.
    pub mass_constant: f64,
}

impl LaneEmden {
    /// Integrate the Lane-Emden equation for index `n` with step `h`.
    ///
    /// # Panics
    /// Panics if `n < 0` or `h <= 0`.
    pub(crate) fn solve(n: f64, h: f64) -> LaneEmden {
        assert!(n >= 0.0, "polytropic index must be non-negative");
        assert!(h > 0.0, "step must be positive");
        // State y = (θ, φ) with φ = θ'.
        // θ'' = −θⁿ − (2/ξ)θ'.  Start from the series expansion at ξ → 0:
        // θ ≈ 1 − ξ²/6 to avoid the coordinate singularity.
        let mut x = h;
        let mut t = 1.0 - x * x / 6.0 + n * x.powi(4) / 120.0;
        let mut dt = -x / 3.0 + n * x.powi(3) / 30.0;
        let deriv = |x: f64, t: f64, dt: f64| -> (f64, f64) {
            let tn = if t > 0.0 { t.powf(n) } else { 0.0 };
            (dt, -tn - 2.0 / x * dt)
        };
        let (mut xi1, mut mass_constant) = (f64::NAN, f64::NAN);
        for _ in 0..(200.0 / h) as usize {
            let (k1t, k1d) = deriv(x, t, dt);
            let (k2t, k2d) = deriv(x + 0.5 * h, t + 0.5 * h * k1t, dt + 0.5 * h * k1d);
            let (k3t, k3d) = deriv(x + 0.5 * h, t + 0.5 * h * k2t, dt + 0.5 * h * k2d);
            let (k4t, k4d) = deriv(x + h, t + h * k3t, dt + h * k3d);
            let t_new = t + h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t);
            let dt_new = dt + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d);
            let x_new = x + h;
            if t_new <= 0.0 {
                // Linear interpolation for the zero crossing.
                let frac = t / (t - t_new);
                xi1 = x + frac * h;
                let dt1 = dt + frac * (dt_new - dt);
                mass_constant = -xi1 * xi1 * dt1;
                break;
            }
            x = x_new;
            t = t_new;
            dt = dt_new;
        }
        assert!(
            xi1.is_finite(),
            "Lane-Emden integration did not reach the surface (n = {n})"
        );
        LaneEmden { xi1, mass_constant }
    }

    /// Ratio of central to mean density, `ρ_c/ρ̄ = ξ₁³ / (3 · mass_constant)`.
    pub(crate) fn central_to_mean_density(&self) -> f64 {
        self.xi1.powi(3) / (3.0 * self.mass_constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n0_has_analytic_solution() {
        // n = 0: θ = 1 − ξ²/6, ξ₁ = √6, −ξ₁²θ'(ξ₁) = ξ₁³/3.
        let le = LaneEmden::solve(0.0, 1e-4);
        assert!((le.xi1 - 6.0f64.sqrt()).abs() < 1e-5, "xi1 = {}", le.xi1);
        assert!((le.mass_constant - le.xi1.powi(3) / 3.0).abs() < 1e-3);
    }

    #[test]
    fn n1_has_analytic_solution() {
        // n = 1: θ = sin ξ / ξ, ξ₁ = π.
        let le = LaneEmden::solve(1.0, 1e-4);
        assert!((le.xi1 - std::f64::consts::PI).abs() < 1e-5);
    }

    #[test]
    fn n5_surface_is_far_but_n32_is_finite() {
        // n = 3/2 (our stars): ξ₁ ≈ 3.6538.
        let le = LaneEmden::solve(1.5, 1e-4);
        assert!((le.xi1 - 3.65375).abs() < 1e-3, "xi1 = {}", le.xi1);
        // Known: −ξ₁²θ'(ξ₁) ≈ 2.71406.
        assert!((le.mass_constant - 2.71406).abs() < 1e-3);
    }

    #[test]
    fn n3_standard_model() {
        // n = 3 (Eddington standard model): ξ₁ ≈ 6.8968, m ≈ 2.01824.
        let le = LaneEmden::solve(3.0, 1e-4);
        assert!((le.xi1 - 6.8968).abs() < 5e-3);
        assert!((le.mass_constant - 2.01824).abs() < 2e-3);
    }

    #[test]
    fn central_to_mean_density_known_value() {
        // n = 3/2: ρc/ρ̄ ≈ 5.99.
        let le = LaneEmden::solve(1.5, 1e-4);
        assert!((le.central_to_mean_density() - 5.99).abs() < 0.05);
    }
}
