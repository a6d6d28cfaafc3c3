//! # octo-repro — root facade crate
//!
//! Rust reproduction of *"Simulating Stellar Merger using HPX/Kokkos on
//! A64FX on Supercomputer Fugaku"* (IPPS 2023).  This crate re-exports the
//! workspace members so examples and integration tests can use one
//! dependency:
//!
//! * [`hpx`] — HPX-style asynchronous many-task runtime.
//! * [`kokkos`] — Kokkos-style execution spaces, policies and scratch pool;
//!   every kernel chunk runs as a [`hpx::kernel_body`], where a debug
//!   build's blocking wait panics.
//! * [`simd`] — `std::experimental::simd`-style SVE vector types.
//! * [`amr`] — AMR octree with sub-grids and ghost-layer exchange.
//! * [`octotiger`] — the application: hydro + FMM gravity + SCF.
//! * [`cluster`] — machine models and the discrete-event scaling simulator.
//! * [`check`] — concurrency analyses: a model checker over the real
//!   pipelined step.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced table and figure.

pub use cluster;
pub use hpx_check as check;
pub use hpx_rt as hpx;
pub use kokkos_rs as kokkos;
pub use octotiger;
pub use octree as amr;
pub use sve_simd as simd;
