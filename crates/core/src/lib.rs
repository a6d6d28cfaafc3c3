//! # octotiger — the application layer of the reproduction
//!
//! A Rust implementation of the astrophysics code the paper ports to
//! A64FX: Octo-Tiger, *"a code for modeling self-gravitating astrophysical
//! fluids"* (paper Section IV-C).  The solver stack follows the paper's
//! description:
//!
//! * **Hydrodynamics** — Eulerian, on the AMR octree's `N³` sub-grids
//!   (N = 8 by default), semi-discrete finite-volume with piecewise-linear
//!   reconstruction and an HLL Riemann solver, advanced by a third-order
//!   SSP Runge-Kutta scheme with a **global fixed time step** (Octo-Tiger
//!   deliberately avoids adaptive time stepping to keep machine-precision
//!   conservation of the evolved variables).
//! * **Gravity** — a fast multipole method coupled to the same octree:
//!   bottom-up moment aggregation (P2M/M2M), multipole-to-local
//!   interactions (M2L) with monopole + quadrupole and an optional octupole
//!   correction (the paper's angular-momentum-conserving modification),
//!   top-down local-expansion passes (L2L), and direct P2P near fields.
//!   The M2L kernel takes a `tasks_per_kernel` knob — the paper's Figure 9
//!   multipole work splitting.
//! * **SCF initialization** — Lane-Emden polytropes and an iterative
//!   self-consistent-field binary generator producing detached,
//!   semi-detached and contact binaries (V1309-like contact MS binary, DWD
//!   with mass ratio q = 0.7).
//! * **Rotating frame** — the grid rotates with the binary's initial
//!   orbital frequency to reduce numerical viscosity (Coriolis +
//!   centrifugal sources).
//! * **IO** — a "silo-lite" hierarchical checkpoint format standing in for
//!   Silo/HDF5 (see DESIGN.md substitution table).
//!
//! Every hot kernel is written once over `sve_simd::Simd<f64, W>` and
//! monomorphised for the scalar (`W = 1`) and SVE (`W = 8`) widths, then
//! dispatched on `sve_simd::VectorMode` — the paper's compile-time SIMD
//! switch, reproduced at run time (Figure 7).

mod diag;
mod driver;
pub mod eos;
pub mod gravity;
pub mod hydro;
pub mod io;
mod scenario;
pub mod scf;
pub mod state;
pub mod units;
pub mod workspace;

pub use diag::ConservationLedger;
pub use driver::{SimOptions, Simulation, StepStats};
pub use scenario::{Scenario, ScenarioKind};
pub use state::NF;
