//! # cluster — machine models and the discrete-event scaling simulator
//!
//! The paper's evaluation runs Octo-Tiger on five machines we do not have:
//! Riken's Supercomputer Fugaku (A64FX, Tofu-D), Stony Brook's Ookami
//! (A64FX, InfiniBand), ORNL's Summit (Power9 + 6×V100), CSCS's Piz Daint
//! (Xeon + 1×P100) and NERSC's Perlmutter (EPYC + 4×A100).  Per the
//! DESIGN.md substitution rule, this crate models those machines and
//! replays Octo-Tiger's per-step task structure on them with a
//! discrete-event simulation:
//!
//! * `machine` — per-machine node descriptions (cores, clocks including
//!   Fugaku's 1.8/2.2 GHz boost mode, memory capacities, GPUs,
//!   interconnects) with literature-derived constants.
//! * `network` — interconnect latency/bandwidth/message-overhead models
//!   (Tofu-D vs InfiniBand is part of the paper's Fugaku-vs-Ookami
//!   discussion).
//! * `workload` — the Octo-Tiger step model: sub-grid counts of the
//!   paper's scenarios, ghost-exchange volumes, FMM tree-phase structure,
//!   and the option toggles (SVE, communication optimization, multipole
//!   task splitting, boost mode).
//! * `des` — the discrete-event engine: per-node phase state machines
//!   with neighbour message dependencies and deterministic jitter.
//! * `power` — a PowerAPI-style average-power model (Table II).
//! * `calibrate` — kernel cost constants tying the model to kernel
//!   timings measured on the host by the bench crate.
//! * [`campaign`] — sweep helpers that produce the exact series each
//!   paper figure plots, as serializable records.
//! * `fault` — the stochastic hang/deadlock injection mimicking the
//!   paper's observed Fujitsu-MPI hangs at large node counts and the rare
//!   Ookami deadlocks.

mod calibrate;
pub mod campaign;
mod des;
mod fault;
mod machine;
mod network;
mod power;
mod workload;

pub use calibrate::KernelCosts;
pub use campaign::{pow2_range, speedups, sweep, FigurePoint};
pub use des::simulate_step;
pub use fault::{FaultModel, FaultOutcome};
pub use machine::{Machine, MachineId};
pub use power::PowerModel;
pub use workload::{RunOptions, Workload};
