//! Self-consistent-field (SCF) initial models.
//!
//! Paper Section IV-C: *"Our binary models are initialized using an
//! iterative 'self-consistent field' (SCF) technique.  The hydrostatic
//! equilibrium equation in the rotating frame is integrated to produce an
//! algebraic equation with two unknowns, the 'effective' gravitational
//! potential and the enthalpy.  The module is capable of producing
//! detached, semi-detached, and contact binaries, such as the progenitor to
//! V1309 Sco."*
//!
//! * `lane_emden` — the Lane-Emden polytrope integrator providing the
//!   single-star structure.
//! * `binary` — the iterative SCF solver balancing `H + Φ_eff = C` for
//!   each component in the rotating frame, with per-star polytropic
//!   constants rescaled until the target masses are met.
//! * `rcb` — post-merger product diagnostics: the R CrB candidacy
//!   analysis of paper Section III-B.

pub(crate) mod binary;
pub(crate) mod lane_emden;
pub(crate) mod rcb;

pub(crate) use binary::BinaryParams;
pub use binary::{BinaryKind, BinaryModel};
pub use rcb::MergerProduct;
