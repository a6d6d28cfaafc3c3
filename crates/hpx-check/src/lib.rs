//! # hpx-check — concurrency analyses for the HPX/Kokkos reproduction
//!
//! The pipelined stepper replaces barriers with thousands of futures per
//! step, and only those futures order its kernels: a dropped promise
//! stalls a subtree, a missing gate lets a stage read a half-updated
//! neighbour.  Everything else is ordered by a borrow or a
//! `Runtime::scope` join, which the compiler already checks (DESIGN.md
//! §6).  This crate checks the rest on the real code:
//!
//! * **Schedule-exploring model checker** (`model`) — drives a closure
//!   through seeded deterministic interleavings
//!   ([`hpx_rt::Runtime::deterministic`]) and reports stalls and contained
//!   task panics with a *replayable seed*.
//! * **The real pipelined step** (`step`) — the model checker's
//!   workload: the real `Simulation::step` on 1, 2 or 4 localities sharing
//!   the deterministic pool, bit-compared against `step_barrier`: every
//!   step's Δt, the run's `mass_outflow` and the final leaf state, so a
//!   float fold in task-completion order shows wherever it lands.
//!
//! Two other kinds of rule are not checked here but where the code runs.
//! The kernel-body rules — a kernel neither blocks nor, once its buffers
//! are recycled, allocates: every `kokkos-rs` chunk is an
//! [`hpx_rt::kernel_body`], inside which a debug build's `Future::wait`
//! panics and the root `kernel_allocations` test counts allocations.  The
//! gravity halo protocol — every slot a locality reads was computed there
//! or received exactly once from a sender that held it: a debug build's
//! solve keeps a "held" bit per slot-table entry and checks it at every
//! exchange and every read.
//!
//! Run it from the CLI: `cargo run -p hpx-check -- model`.

mod model;
mod step;

pub use model::ModelChecker;
pub use step::{RealStep, RunRecord};
