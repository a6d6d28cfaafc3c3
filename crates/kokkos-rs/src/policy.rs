//! Execution policies: what index space a kernel runs over and how it is
//! chunked into tasks.
//!
//! [`ChunkSpec`] is the load-bearing piece for the paper: the Kokkos HPX
//! execution space "allows splitting launched kernels into an arbitrary
//! amount of HPX tasks" (Section VII-C).  Octo-Tiger defaults to **one task
//! per kernel launch** (hot cache, kernel runs on the launching worker) and
//! switches the gravity solver's multipole kernel to **16 tasks** at scale
//! to avoid starvation — the Figure 9 experiment.

/// How a kernel's index range is split into scheduler tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkSpec {
    /// One task per kernel launch — Octo-Tiger's default: the kernel runs
    /// on the launching HPX worker and benefits from its hot cache.
    #[default]
    SingleTask,
    /// Split the range into exactly `n` tasks (the Figure 9 "ON" setting
    /// uses 16).
    Tasks(usize),
    /// One task per worker thread of the executing runtime.
    Auto,
}

impl ChunkSpec {
    /// Resolve to a concrete task count for a range of `len` indices on a
    /// pool of `workers` threads.  Always at least 1; never more tasks than
    /// indices (except for the empty range, which yields 0).
    pub(crate) fn resolve(self, len: usize, workers: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let n = match self {
            ChunkSpec::SingleTask => 1,
            ChunkSpec::Tasks(n) => n.max(1),
            ChunkSpec::Auto => workers.max(1),
        };
        n.min(len)
    }
}

/// A 1-D half-open index range `[begin, end)` with a chunking directive
/// (Kokkos `RangePolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePolicy {
    pub begin: usize,
    pub end: usize,
    pub chunk: ChunkSpec,
    /// Vector-lane alignment of task boundaries (1 = unconstrained).
    ///
    /// Setting `lane = W` rounds every interior `split`
    /// boundary down to a multiple of `W` from `begin`: every task but the
    /// last covers whole `W`-index blocks, and a range too short for the
    /// requested task count yields fewer, block-sized tasks.  It is never
    /// needed for correctness — [`crate::parallel_for_mut`] hands each
    /// index its own `&mut` slot, so no carving lets two tasks write one
    /// element.
    pub lane: usize,
}

impl RangePolicy {
    /// Policy over `[begin, end)` with the default single-task chunking.
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end, "RangePolicy requires begin <= end");
        RangePolicy {
            begin,
            end,
            chunk: ChunkSpec::SingleTask,
            lane: 1,
        }
    }

    /// Replace the chunk specification (builder style).
    pub fn with_chunk(mut self, chunk: ChunkSpec) -> Self {
        self.chunk = chunk;
        self
    }

    /// Require task boundaries aligned to `lane` indices from `begin`
    /// (builder style; see the [`lane`](Self::lane) field).
    pub fn with_lanes(mut self, lane: usize) -> Self {
        assert!(lane >= 1, "lane alignment must be >= 1");
        self.lane = lane;
        self
    }

    /// Number of indices in the range.
    pub(crate) fn len(&self) -> usize {
        self.end - self.begin
    }

    /// Split into `tasks` contiguous sub-ranges of near-equal length.
    /// Returns fewer (possibly zero) ranges if the policy is short/empty.
    ///
    /// With a [`lane`](Self::lane) alignment > 1, every interior boundary
    /// is rounded down to a multiple of `lane` from `begin` (the first and
    /// last boundaries stay at `begin`/`end`); sub-ranges emptied by the
    /// rounding are dropped, so short ranges may yield fewer tasks.
    pub(crate) fn split(&self, tasks: usize) -> Vec<(usize, usize)> {
        let len = self.len();
        if len == 0 || tasks == 0 {
            return Vec::new();
        }
        let tasks = tasks.min(len);
        let base = len / tasks;
        let extra = len % tasks;
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(tasks);
        let mut start = self.begin;
        let mut cursor = self.begin;
        for t in 0..tasks {
            let sz = base + usize::from(t < extra);
            cursor += sz;
            let mut bound = cursor;
            if self.lane > 1 && t + 1 < tasks {
                bound = self.begin + (bound - self.begin) / self.lane * self.lane;
            }
            if bound > start {
                out.push((start, bound));
                start = bound;
            }
        }
        debug_assert_eq!(cursor, self.end);
        debug_assert_eq!(out.last().map(|&(_, e)| e), Some(self.end));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunkspec_resolution() {
        assert_eq!(ChunkSpec::SingleTask.resolve(100, 8), 1);
        assert_eq!(ChunkSpec::Tasks(16).resolve(100, 8), 16);
        assert_eq!(ChunkSpec::Tasks(16).resolve(10, 8), 10); // capped at len
        assert_eq!(ChunkSpec::Auto.resolve(100, 8), 8);
        assert_eq!(ChunkSpec::Auto.resolve(0, 8), 0);
        assert_eq!(ChunkSpec::Tasks(0).resolve(5, 8), 1); // degenerate input
    }

    #[test]
    fn range_split_covers_exactly() {
        let p = RangePolicy::new(10, 110);
        let parts = p.split(7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.first().unwrap().0, 10);
        assert_eq!(parts.last().unwrap().1, 110);
        let mut prev_end = 10;
        let mut total = 0;
        for (b, e) in parts {
            assert_eq!(b, prev_end);
            assert!(e > b);
            total += e - b;
            prev_end = e;
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn range_split_more_tasks_than_indices() {
        let p = RangePolicy::new(0, 3);
        assert_eq!(p.split(10).len(), 3);
    }

    #[test]
    fn empty_range() {
        let p = RangePolicy::new(5, 5);
        assert_eq!(p.len(), 0);
        assert!(p.split(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "begin <= end")]
    fn backwards_range_panics() {
        RangePolicy::new(5, 4);
    }

    #[test]
    fn lane_split_aligns_interior_boundaries() {
        // 64 slots over 16 tasks would naively carve at multiples of 4;
        // lane = 8 must round every interior boundary to a multiple of 8.
        let p = RangePolicy::new(0, 64).with_lanes(8);
        let parts = p.split(16);
        assert_eq!(parts.first().unwrap().0, 0);
        assert_eq!(parts.last().unwrap().1, 64);
        let mut prev = 0;
        for &(b, e) in &parts {
            assert_eq!(b, prev);
            assert!(e > b);
            if e != 64 {
                assert_eq!(e % 8, 0, "interior boundary {e} splits a lane block");
            }
            prev = e;
        }
        // Rounding merges the half-lane tasks: 8 blocks of 8 remain.
        assert_eq!(parts.len(), 8);
        assert!(parts.iter().all(|&(b, e)| e - b == 8));
    }

    #[test]
    fn lane_split_alignment_is_relative_to_begin() {
        // begin = 5, lane = 4: boundaries sit at 5 + 4k, not absolute 4k,
        // matching a kernel that strides lane blocks from its own start.
        let p = RangePolicy::new(5, 26).with_lanes(4);
        let parts = p.split(3);
        assert_eq!(parts.first().unwrap().0, 5);
        assert_eq!(parts.last().unwrap().1, 26);
        for &(_, e) in &parts {
            if e != 26 {
                assert_eq!((e - 5) % 4, 0);
            }
        }
    }

    #[test]
    fn lane_split_shorter_than_one_block_collapses() {
        // Range shorter than a lane block: all interior boundaries round
        // down to begin and are dropped; one task covers everything.
        let p = RangePolicy::new(0, 5).with_lanes(8);
        assert_eq!(p.split(4), vec![(0, 5)]);
    }

    #[test]
    fn lane_one_matches_unaligned_split() {
        let a = RangePolicy::new(10, 110).split(7);
        let b = RangePolicy::new(10, 110).with_lanes(1).split(7);
        assert_eq!(a, b);
    }
}
