//! # kokkos-rs — Kokkos-style performance-portable kernel execution
//!
//! Octo-Tiger writes every solver kernel once against Kokkos abstractions
//! and retargets it by choosing an *execution space*: the CUDA space on
//! Summit/Perlmutter/Piz Daint GPUs, and the **HPX execution space** on
//! A64FX CPUs — the space that runs a kernel as one or more HPX tasks on the
//! runtime's worker threads (paper Section IV-B).  The per-launch choice of
//! *how many tasks a kernel is split into* is the knob behind the paper's
//! Figure 9 (multipole work splitting: 1 task vs. 16 tasks per kernel).
//!
//! This crate reproduces that abstraction layer on top of `hpx-rt`:
//!
//! * `policy` — `RangePolicy` and [`policy::ChunkSpec`] (the
//!   tasks-per-kernel knob).
//! * [`space::ExecSpace`] — `Serial` and `Hpx`.  There is no device space:
//!   the paper's GPU numbers are reproduced by the `cluster` crate's
//!   machine models (see the DESIGN.md substitution table).
//! * `parallel` — `parallel_for` / `parallel_for_mut` / `parallel_reduce`.
//!   Kernels write through disjoint `&mut` slots and borrow their inputs,
//!   so the borrow checker rules out two tasks writing one element.
//! * `hpx_kokkos` — the asynchronous kernel launch returning an
//!   `hpx-rt` future ([`launch_reduce_async`]), the HPX-Kokkos integration
//!   layer of the paper.
//! * [`pool`] — the CPPuddle-style recycling scratch pool.
//!
//! Where Kokkos kernels take `View`s, these take plain slices; scratch
//! buffers come from [`pool`].

mod hpx_kokkos;
mod parallel;
mod policy;
pub mod pool;
mod space;

pub use hpx_kokkos::launch_reduce_async;
pub use parallel::{parallel_for, parallel_for_mut};
pub use policy::{ChunkSpec, RangePolicy};
pub use pool::ScratchArena;
pub use space::ExecSpace;

#[cfg(test)]
mod tests {
    use super::*;
    use hpx_rt::Runtime;

    #[test]
    fn kernel_runs_identically_on_all_spaces() {
        let rt = Runtime::new(4);
        let n = 1000usize;
        let mut outputs = Vec::new();
        for space in [ExecSpace::Serial, ExecSpace::hpx(rt.clone())] {
            let acc = std::sync::atomic::AtomicU64::new(0);
            parallel_for(&space, RangePolicy::new(0, n), |i| {
                acc.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
            });
            outputs.push(acc.into_inner());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], (n as u64 - 1) * n as u64 / 2);
        rt.shutdown();
    }
}
