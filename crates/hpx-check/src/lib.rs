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
//! * **Static plan verifier** (`verify`) — drives
//!   `core::gravity::verify`'s provers over real and seeded-mutated
//!   frozen plans: deadlock-freedom, exact send/receive matching and halo
//!   completeness of every `DistPlan`, structural invariants of every
//!   `GravityPlan`, with planted-bug regressions.
//!
//! The two kernel-body rules — a kernel neither blocks nor, once its
//! buffers are recycled, allocates — are not checked here but where
//! kernels run: every `kokkos-rs` chunk is an [`hpx_rt::kernel_body`],
//! inside which a debug build's `Future::wait` panics and the root
//! `kernel_allocations` test counts allocations.
//!
//! Run everything from the CLI: `cargo run -p hpx-check -- all`.

mod model;
mod step;
mod verify;

pub use model::ModelChecker;
pub use step::{RealStep, RunRecord};
pub use verify::{mutate_plan, mutation_sweep, verify_real_plans, PlanMutationKind};
