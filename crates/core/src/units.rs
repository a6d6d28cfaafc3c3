//! Code units and physical constants.
//!
//! Octo-Tiger evolves stellar-merger scenarios in scaled code units (the
//! domain here is the unit cube of the octree, remapped to a physical box).
//! We adopt G = 1 code units, the standard choice for self-gravitating
//! hydro, and provide conversions for reporting in solar units.

/// Gravitational constant in code units.
pub(crate) const G: f64 = 1.0;

/// Ratio of specific heats for the ideal-gas hydro EOS.  Octo-Tiger's
/// merger runs use 5/3 (monatomic / fully convective stars).
pub const GAMMA: f64 = 5.0 / 3.0;

/// Density floor applied by the hydro solver (vacuum treatment).
pub(crate) const RHO_FLOOR: f64 = 1.0e-10;

/// Pressure floor applied by the hydro solver.
pub(crate) const P_FLOOR: f64 = 1.0e-12;

/// Physical edge length of the computational box in code units.  The
/// octree's unit cube `[0,1]³` maps to `[-BOX_SIZE/2, BOX_SIZE/2]³`.
pub const BOX_SIZE: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_sane() {
        assert!(GAMMA > 1.0);
        assert!(RHO_FLOOR > 0.0 && RHO_FLOOR < 1e-6);
        assert!(P_FLOOR > 0.0);
    }
}
