//! Recycled stage buffers, CPPuddle-style: per running kernel, not per
//! sub-grid, and sized to what the kernel reads (arXiv 2210.06439,
//! 2412.15518).
//!
//! A leaf keeps only its grid and its step-start state u⁰, the latter
//! without ghosts (the RK combines read and write interior cells only).  A
//! stage task reads the leaf's grid in place and combines into it in place,
//! so all it needs besides are an `rhs` and the kernel window (checked out
//! of the simulation's [`ScratchArena`]): a `StageWorkspace` it takes off a
//! `StagePool` when it starts and gives back when it ends, both outside the
//! kernel body.  The driver prewarms the pool to the worker count; stage
//! tasks never block, so no more run at once.
//!
//! [`LeafWorkspace`] and [`zero_ghost_runs`], the earlier per-leaf bundle
//! and its per-stage ghost sweep, are kept only for the benchmark's layer
//! replay; they go with the `benchmark`-only change that moves it to
//! per-task buffers.

use crate::hydro::kernels::KernelScratch;
use crate::state::NF;
use kokkos_rs::pool::ScratchArena;
use octree::SubGrid;

/// Bytes of one `NF`-field grid of an `n`-cell leaf with `ghost` ghost
/// width (a leaf's grid or a workspace's `rhs`; a u⁰ has width 0).
pub(crate) fn grid_bytes(n: usize, ghost: usize) -> u64 {
    (NF * (n + 2 * ghost).pow(3) * std::mem::size_of::<f64>()) as u64
}

/// The buffers one running stage task needs besides the leaf's grid and
/// u⁰ (see module docs).
#[derive(Debug)]
pub(crate) struct StageWorkspace {
    /// RHS accumulator `L(u)`: the stage kernel writes its interior, and
    /// nothing reads its ghost words.
    pub(crate) rhs: SubGrid,
    /// Pooled primitive/flux window of the hydro stage kernel.
    pub(crate) scratch: KernelScratch,
}

impl StageWorkspace {
    /// Workspace for an `n`-cell leaf with `ghost` ghost width, with kernel
    /// scratch checked out of `arena`.
    fn new(n: usize, ghost: usize, arena: &ScratchArena) -> StageWorkspace {
        StageWorkspace {
            rhs: SubGrid::new(n, ghost, NF),
            scratch: KernelScratch::new(n, ghost, arena),
        }
    }

    /// Bytes this workspace holds.
    fn bytes(&self) -> u64 {
        grid_bytes(self.rhs.n(), self.rhs.ghost()) + self.scratch.bytes()
    }
}

/// The free list of [`StageWorkspace`]s a simulation's stage tasks share.
#[derive(Debug)]
pub(crate) struct StagePool {
    arena: ScratchArena,
    free: parking_lot::Mutex<Vec<StageWorkspace>>,
}

impl StagePool {
    /// An empty pool whose workspaces check their kernel scratch out of
    /// `arena`.
    pub(crate) fn new(arena: ScratchArena) -> StagePool {
        StagePool {
            arena,
            free: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Top the free list up to `count` workspaces for `n`/`ghost` leaves.
    /// Call it between steps, when no task holds one.
    pub(crate) fn prewarm(&self, count: usize, n: usize, ghost: usize) {
        let mut free = self.free.lock();
        while free.len() < count {
            free.push(StageWorkspace::new(n, ghost, &self.arena));
        }
    }

    /// A workspace for an `n`/`ghost` leaf: a free one, or a new one when
    /// the list is empty.
    pub(crate) fn take(&self, n: usize, ghost: usize) -> StageWorkspace {
        let free = self.free.lock().pop();
        free.unwrap_or_else(|| StageWorkspace::new(n, ghost, &self.arena))
    }

    /// Return a workspace [`StagePool::take`] handed out.
    pub(crate) fn give(&self, ws: StageWorkspace) {
        self.free.lock().push(ws);
    }

    /// Bytes the free list holds.
    pub(crate) fn bytes(&self) -> u64 {
        self.free.lock().iter().map(StageWorkspace::bytes).sum()
    }
}

/// The earlier per-leaf buffers of a stage, kept for the benchmark's layer
/// replay (see module docs).
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

    #[test]
    fn stage_pool_recycles_and_allocates_only_when_empty() {
        let arena = ScratchArena::new();
        let pool = StagePool::new(arena.clone());
        // The rhs, NF fields of 8³ words, and the kernel window.
        let each = 8 * 512 * 8 + 8 * (2048 + 576);
        pool.prewarm(2, 4, 2);
        pool.prewarm(2, 4, 2);
        assert_eq!((pool.bytes(), arena.stats().misses), (2 * each, 4));
        let (a, b) = (pool.take(4, 2), pool.take(4, 2));
        assert_eq!((pool.bytes(), arena.stats().misses), (0, 4));
        // An empty list allocates, and the arena counts the scratch misses.
        let c = pool.take(4, 2);
        assert_eq!(arena.stats().misses, 6);
        for ws in [a, b, c] {
            pool.give(ws);
        }
        assert_eq!(pool.bytes(), 3 * each);
    }
}
