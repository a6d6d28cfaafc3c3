//! Per-leaf recycled workspaces: the stepper-side face of the CPPuddle-style
//! memory subsystem.
//!
//! Every leaf owns one [`LeafWorkspace`] holding the buffers an RK stage
//! needs — the step-start state `u0`, the stage input copy `u_cur`, the RHS
//! accumulator, the kernel scratch checked out of the simulation's
//! [`ScratchArena`], and the precomputed ghost-cell run list.  The workspace
//! is created once (first step after construction or regrid) and reused by
//! every stage of every step, so a steady-state timestep performs no
//! transient allocations in the stepper.
//!
//! Concurrency: both steppers guard each workspace behind a `Mutex` and
//! acquire it with `try_lock`.  The per-leaf future chain orders every task
//! touching a leaf, so the lock is never contended — a failed `try_lock` is
//! a dependency-graph bug, and it panics loudly there.  `hpx-check model`
//! runs the real pipelined step over seeded schedules, where such a panic
//! (or a missing gate that only corrupts the state) is reported with its
//! seed.

use crate::hydro::kernels::KernelScratch;
use crate::state::NF;
use kokkos_rs::pool::ScratchArena;
use octree::SubGrid;

/// Recycled per-leaf buffers for the stepper (see module docs).
#[derive(Debug)]
pub struct LeafWorkspace {
    /// State at step start (`u⁰`), copied once per step.
    pub u0: SubGrid,
    /// Stage input copy of the leaf's grid (ghosts included).
    pub u_cur: SubGrid,
    /// RHS accumulator `L(u)`.
    pub rhs: SubGrid,
    /// Pooled primitive/flux window of the hydro stage kernel.
    pub scratch: KernelScratch,
    /// Flat-index `(start, len)` runs covering one field's ghost cells,
    /// computed once — [`zero_ghost_runs`] reuses it every stage instead of
    /// re-walking the region geometry.
    pub ghost_runs: Vec<(usize, usize)>,
}

impl LeafWorkspace {
    /// Workspace for an `n`-cell leaf with `ghost` ghost width, with kernel
    /// scratch checked out of `pool`.
    pub fn new(n: usize, ghost: usize, pool: &ScratchArena) -> LeafWorkspace {
        let probe = SubGrid::new(n, ghost, NF);
        let ghost_runs = probe.ghost_runs();
        LeafWorkspace {
            u0: SubGrid::new(n, ghost, NF),
            u_cur: probe,
            rhs: SubGrid::new(n, ghost, NF),
            scratch: KernelScratch::new(n, ghost, pool),
            ghost_runs,
        }
    }
}

/// Zero every ghost cell of every field of `rhs` using the precomputed run
/// list (`runs` must come from a grid of the same shape).
pub fn zero_ghost_runs(rhs: &mut SubGrid, runs: &[(usize, usize)]) {
    for f in 0..rhs.nfields() {
        let field = rhs.field_mut(f);
        for &(start, len) in runs {
            field[start..start + len].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ghost_runs_clears_exactly_the_ghosts() {
        let pool = ScratchArena::new();
        let ws = LeafWorkspace::new(4, 2, &pool);
        let mut g = SubGrid::new(4, 2, NF);
        g.fill(3.5);
        zero_ghost_runs(&mut g, &ws.ghost_runs);
        let ext = g.ext();
        for f in 0..NF {
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        let interior =
                            (2..6).contains(&i) && (2..6).contains(&j) && (2..6).contains(&k);
                        let want = if interior { 3.5 } else { 0.0 };
                        assert_eq!(g.get(f, i, j, k), want, "f{f} ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_scratch_comes_from_the_pool() {
        let pool = ScratchArena::new();
        {
            let _ws = LeafWorkspace::new(4, 2, &pool);
            // The kernel's window: primitive ring + flux planes.
            let s = pool.stats();
            assert_eq!((s.misses, s.bytes_in_use), (2, 8 * (2048 + 576)));
        }
        // Dropped workspace returns its scratch; a new one recycles it.
        let _ws2 = LeafWorkspace::new(4, 2, &pool);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }
}
