//! `parallel_for` / `parallel_for_mut` / `parallel_reduce` dispatchers.
//!
//! These are the Kokkos entry points Octo-Tiger's kernels call.  On the HPX
//! space a kernel launch resolves its [`crate::policy::ChunkSpec`] to a task
//! count and spawns that many scoped tasks on the runtime — one task by
//! default (hot cache), 16 for the paper's split multipole kernel, etc.
//! Kernels borrow from the caller (views live on the caller's stack), which
//! is why the scoped-spawn machinery of `hpx-rt` is used rather than
//! detached tasks.

use crate::policy::RangePolicy;
use crate::space::ExecSpace;

/// Execute `kernel(i)` for every `i` in the policy's range.
///
/// The kernel must be safe to call concurrently for distinct indices
/// (`Sync`); disjoint-range mutation should go through interior-mutability
/// or per-chunk splitting at the call site.
pub fn parallel_for<F>(space: &ExecSpace, policy: RangePolicy, kernel: F)
where
    F: Fn(usize) + Sync,
{
    match space {
        ExecSpace::Serial => {
            for i in policy.begin..policy.end {
                kernel(i);
            }
        }
        ExecSpace::Hpx(hpx) => {
            let tasks = policy
                .chunk
                .resolve(policy.len(), hpx.runtime.num_workers());
            if tasks <= 1 {
                // Octo-Tiger's default: run on the launching worker.
                for i in policy.begin..policy.end {
                    kernel(i);
                }
                return;
            }
            let kernel = &kernel;
            hpx.runtime.scope(|s| {
                for (b, e) in policy.split(tasks) {
                    s.spawn(move || {
                        for i in b..e {
                            kernel(i);
                        }
                    });
                }
            });
        }
    }
}

/// Execute `kernel(i, &mut data[i])` for every element, handing each HPX
/// task a *disjoint* `&mut` chunk of `data` — the lock-free alternative to
/// `Vec<Mutex<T>>` slot vectors for kernels whose outputs are per-index.
///
/// The chunk split follows the policy's [`crate::policy::ChunkSpec`]
/// exactly like [`parallel_for`] (so the Figure 9 tasks-per-kernel knob
/// applies), but because every task owns its slice, the kernel needs no
/// interior mutability.  `kernel` may freely capture shared (`&`) state —
/// e.g. the already-finalized deeper-level half of a `split_at_mut`.
///
/// # Panics
/// Panics if `policy` does not cover `data` exactly
/// (`policy.begin != 0 || policy.end != data.len()`).
///
/// # A task can write only its own slot
///
/// The borrow checker retires the overlapping-chunk and split-vector-lane
/// race classes (`OverlapChunks`, `SplitsVectorLane`): while the launch
/// holds `data` mutably, a kernel that also indexes it does not compile —
/// error E0502, `data` borrowed as immutable while borrowed as mutable.
///
/// ```compile_fail,E0502
/// use kokkos_rs::{parallel_for_mut, ExecSpace, RangePolicy};
/// let mut data = vec![0.0f64; 16];
/// parallel_for_mut(&ExecSpace::Serial, RangePolicy::new(0, 16), &mut data, |i, slot| {
///     *slot = data[(i + 1) % 16];
/// });
/// ```
pub fn parallel_for_mut<T, F>(space: &ExecSpace, policy: RangePolicy, data: &mut [T], kernel: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    assert_eq!(policy.begin, 0, "parallel_for_mut: policy must start at 0");
    assert_eq!(
        policy.end,
        data.len(),
        "parallel_for_mut: policy/data length mismatch"
    );
    let serial = |data: &mut [T]| {
        for (i, slot) in data.iter_mut().enumerate() {
            kernel(i, slot);
        }
    };
    match space {
        ExecSpace::Serial => serial(data),
        ExecSpace::Hpx(hpx) => {
            let tasks = policy
                .chunk
                .resolve(policy.len(), hpx.runtime.num_workers());
            if tasks <= 1 {
                serial(data);
                return;
            }
            // Carve `data` into the policy's chunk ranges — disjoint, so
            // each task gets exclusive ownership of its slice.
            let ranges = policy.split(tasks);
            let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
            let mut rest = data;
            for (b, e) in &ranges {
                let (head, tail) = rest.split_at_mut(e - b);
                parts.push((*b, head));
                rest = tail;
            }
            let kernel = &kernel;
            hpx.runtime.scope(|s| {
                for (base, part) in parts {
                    s.spawn(move || {
                        for (off, slot) in part.iter_mut().enumerate() {
                            kernel(base + off, slot);
                        }
                    });
                }
            });
        }
    }
}

/// Reduce `map(i)` over the range with a binary `combine`, starting from
/// `identity` (Kokkos `parallel_reduce` with a custom reducer).
///
/// `combine` must be associative; partial results are combined in chunk
/// order, so non-commutative reductions still see index order across chunk
/// boundaries.
pub(crate) fn parallel_reduce<T, M, C>(
    space: &ExecSpace,
    policy: RangePolicy,
    identity: T,
    map: M,
    combine: C,
) -> T
where
    T: Clone + Send + Sync,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let serial = |b: usize, e: usize| {
        let mut acc = identity.clone();
        for i in b..e {
            acc = combine(acc, map(i));
        }
        acc
    };
    match space {
        ExecSpace::Serial => serial(policy.begin, policy.end),
        ExecSpace::Hpx(hpx) => {
            let tasks = policy
                .chunk
                .resolve(policy.len(), hpx.runtime.num_workers());
            if tasks <= 1 {
                return serial(policy.begin, policy.end);
            }
            let ranges = policy.split(tasks);
            let mut partials: Vec<Option<T>> = vec![None; ranges.len()];
            let serial = &serial;
            hpx.runtime.scope(|s| {
                for (slot, (b, e)) in partials.iter_mut().zip(ranges.iter().copied()) {
                    s.spawn(move || {
                        *slot = Some(serial(b, e));
                    });
                }
            });
            let mut acc = identity;
            for p in partials {
                acc = combine(acc, p.expect("reduce task did not produce a partial"));
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ChunkSpec;
    use hpx_rt::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_for_serial_covers_range() {
        let hits = AtomicU64::new(0);
        parallel_for(&ExecSpace::Serial, RangePolicy::new(3, 17), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 14);
    }

    #[test]
    fn parallel_for_hpx_multi_task_covers_range_once() {
        let rt = Runtime::new(4);
        let space = ExecSpace::hpx(rt.clone());
        let n = 1024;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(
            &space,
            RangePolicy::new(0, n).with_chunk(ChunkSpec::Tasks(16)),
            |i| {
                flags[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
        rt.shutdown();
    }

    #[test]
    fn parallel_for_mut_writes_every_slot_once() {
        let rt = Runtime::new(4);
        for space in [ExecSpace::Serial, ExecSpace::hpx(rt.clone())] {
            let n = 257; // not a multiple of the task count
            let mut data = vec![0u64; n];
            parallel_for_mut(
                &space,
                RangePolicy::new(0, n).with_chunk(ChunkSpec::Tasks(7)),
                &mut data,
                |i, slot| {
                    *slot += i as u64 + 1;
                },
            );
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        }
        rt.shutdown();
    }

    #[test]
    fn parallel_for_mut_kernel_can_read_shared_state() {
        // The gravity upward pass's pattern: chunks write one level while
        // reading the already-finalized deeper levels through a `&` capture.
        let rt = Runtime::new(4);
        let deeper: Vec<u64> = (0..64).map(|i| i * i).collect();
        let mut level = vec![0u64; 32];
        parallel_for_mut(
            &ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 32).with_chunk(ChunkSpec::Tasks(8)),
            &mut level,
            |i, slot| {
                *slot = deeper[2 * i] + deeper[2 * i + 1];
            },
        );
        for (i, &v) in level.iter().enumerate() {
            let (a, b) = ((2 * i) as u64, (2 * i + 1) as u64);
            assert_eq!(v, a * a + b * b);
        }
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn parallel_for_mut_rejects_mismatched_policy() {
        let mut data = vec![0u8; 4];
        parallel_for_mut(
            &ExecSpace::Serial,
            RangePolicy::new(0, 5),
            &mut data,
            |_, _| {},
        );
    }

    #[test]
    fn reduce_sum_matches_closed_form() {
        let rt = Runtime::new(4);
        for space in [ExecSpace::Serial, ExecSpace::hpx(rt.clone())] {
            let sum = parallel_reduce(
                &space,
                RangePolicy::new(0, 1000).with_chunk(ChunkSpec::Auto),
                0u64,
                |i| i as u64,
                |a, b| a + b,
            );
            assert_eq!(sum, 999 * 1000 / 2);
        }
        rt.shutdown();
    }

    #[test]
    fn reduce_min_with_tasks() {
        let rt = Runtime::new(2);
        let data: Vec<f64> = (0..512).map(|i| ((i * 37) % 211) as f64).collect();
        let min = parallel_reduce(
            &ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, data.len()).with_chunk(ChunkSpec::Tasks(8)),
            f64::INFINITY,
            |i| data[i],
            f64::min,
        );
        let expected = data.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min, expected);
        rt.shutdown();
    }

    #[test]
    fn reduce_empty_range_yields_identity() {
        let v = parallel_reduce(
            &ExecSpace::Serial,
            RangePolicy::new(5, 5),
            42i64,
            |_| 0,
            |a, b| a + b,
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn single_task_policy_runs_inline() {
        // With ChunkSpec::SingleTask no scope is needed; verify correctness.
        let rt = Runtime::new(2);
        let space = ExecSpace::hpx(rt.clone());
        let acc = AtomicU64::new(0);
        parallel_for(&space, RangePolicy::new(0, 100), |i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.into_inner(), 4950);
        rt.shutdown();
    }
}
