//! `parallel_for` / `parallel_for_mut` / `parallel_reduce` dispatchers.
//!
//! These are the Kokkos entry points Octo-Tiger's kernels call.  On the HPX
//! space a kernel launch resolves its [`crate::policy::ChunkSpec`] to a task
//! count and spawns that many scoped tasks on the runtime — one task by
//! default (hot cache), 16 for the paper's split multipole kernel, etc.
//! Kernels borrow from the caller (views live on the caller's stack), which
//! is why the scoped-spawn machinery of `hpx-rt` is used rather than
//! detached tasks.  All three run their chunks through one runner, which
//! marks each chunk as a kernel body ([`hpx_rt::kernel_body`]): the one
//! place the no-blocking and no-allocation rules are checked at run time.

use crate::policy::RangePolicy;
use crate::space::ExecSpace;

/// The one chunk runner behind every launch.  The policy resolves to a
/// task count on `space`; its range is split into that many chunks,
/// `carve` turns each `(begin, end)` into the chunk's part (in range
/// order, on the launching thread), and `chunk(part)` runs as a
/// [`hpx_rt::kernel_body`].  A launch of one task — every launch on the
/// Serial space — runs its one chunk inline; otherwise each chunk is a
/// scoped task on the space's runtime.  `fold` receives the chunks'
/// results in range order after the join.
fn run_chunks<P, R, K, C>(
    space: &ExecSpace,
    policy: &RangePolicy,
    mut carve: K,
    chunk: C,
    mut fold: impl FnMut(R),
) where
    P: Send,
    R: Send,
    K: FnMut(usize, usize) -> P,
    C: Fn(P) -> R + Sync,
{
    let run = |part: P| hpx_rt::kernel_body(|| chunk(part));
    let tasks = match space {
        ExecSpace::Serial => 1,
        ExecSpace::Hpx(hpx) => policy
            .chunk
            .resolve(policy.len(), hpx.runtime.num_workers()),
    };
    match space {
        ExecSpace::Hpx(hpx) if tasks > 1 => {
            let ranges = policy.split(tasks);
            let mut results: Vec<Option<R>> = (0..ranges.len()).map(|_| None).collect();
            let run = &run;
            hpx.runtime.scope(|s| {
                for (slot, (b, e)) in results.iter_mut().zip(ranges) {
                    let part = carve(b, e);
                    s.spawn(move || *slot = Some(run(part)));
                }
            });
            for r in results {
                fold(r.expect("kernel chunk did not run"));
            }
        }
        _ => fold(run(carve(policy.begin, policy.end))),
    }
}

/// Execute `kernel(i)` for every `i` in the policy's range.
///
/// The kernel must be safe to call concurrently for distinct indices
/// (`Sync`); disjoint-range mutation should go through interior-mutability
/// or per-chunk splitting at the call site.
pub fn parallel_for<F>(space: &ExecSpace, policy: RangePolicy, kernel: F)
where
    F: Fn(usize) + Sync,
{
    run_chunks(
        space,
        &policy,
        |b, e| b..e,
        |range| range.for_each(&kernel),
        |()| {},
    );
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
    // The chunks are consecutive, so each carves its slice off the front
    // of the rest: disjoint, every task owns its part.
    let mut rest = data;
    run_chunks(
        space,
        &policy,
        |b, e| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(e - b);
            rest = tail;
            (b, head)
        },
        |(base, part): (usize, &mut [T])| {
            for (off, slot) in part.iter_mut().enumerate() {
                kernel(base + off, slot);
            }
        },
        |()| {},
    );
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
    let mut acc = None;
    run_chunks(
        space,
        &policy,
        |b, e| b..e,
        |range| range.fold(identity.clone(), |acc, i| combine(acc, map(i))),
        |partial| {
            acc = Some(match acc.take() {
                Some(a) => combine(a, partial),
                None => partial,
            })
        },
    );
    acc.unwrap_or(identity)
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

    /// A callee the kernel reaches, not the kernel's own text, waits.
    #[cfg(debug_assertions)]
    fn callee_that_waits(ready: &hpx_rt::Future<u32>) -> u32 {
        ready.get()
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocking wait in a kernel body")]
    fn a_wait_reached_through_a_callee_panics_in_debug() {
        let ready = hpx_rt::make_ready_future(3u32);
        parallel_for(&ExecSpace::Serial, RangePolicy::new(0, 4), |_| {
            callee_that_waits(&ready);
        });
    }

    #[test]
    fn a_kernel_that_does_not_wait_is_not_flagged() {
        let rt = Runtime::new(2);
        for space in [ExecSpace::Serial, ExecSpace::hpx(rt.clone())] {
            let marked = AtomicU64::new(0);
            let policy = RangePolicy::new(0, 64).with_chunk(ChunkSpec::Tasks(4));
            parallel_for(&space, policy, |_| {
                marked.fetch_add(u64::from(hpx_rt::in_kernel_body()), Ordering::Relaxed);
            });
            assert_eq!(marked.into_inner(), 64, "every index runs marked");
            assert!(!hpx_rt::in_kernel_body(), "the mark ends with the launch");
        }
        assert_eq!(hpx_rt::make_ready_future(5).get(), 5);
        rt.shutdown();
    }

    #[test]
    fn a_task_run_by_a_helping_launcher_is_not_flagged() {
        // Occupy the one worker, so the launcher runs every task itself.
        let rt = Runtime::new(1);
        let (started, busy) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        rt.spawn(move || {
            started.send(()).unwrap();
            gate.recv().unwrap();
        });
        busy.recv().unwrap();
        let waited = rt.async_call(|| {
            let marked = hpx_rt::in_kernel_body();
            (marked, hpx_rt::make_ready_future(7).get())
        });
        parallel_for(&ExecSpace::Serial, RangePolicy::new(0, 1), |_| {
            // The nested launch's join helps: it runs `waited` too.
            let nested = RangePolicy::new(0, 2).with_chunk(ChunkSpec::Tasks(2));
            parallel_for(&ExecSpace::hpx(rt.clone()), nested, |_| {});
        });
        assert!(waited.is_ready(), "the helping launcher ran the task");
        release.send(()).unwrap();
        assert_eq!(waited.get(), (false, 7));
        rt.shutdown();
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
