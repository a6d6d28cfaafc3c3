//! HPX-Kokkos: asynchronous kernel launches as HPX futures.
//!
//! Plain Kokkos can *run* a kernel on HPX worker threads, but cannot hand
//! the caller a handle to its completion.  The paper's stack adds the
//! HPX-Kokkos interoperability library (its Section IV-B, reference \[32\])
//! so that *"any HPX task may asynchronously launch Kokkos kernels and
//! define what should be done with the results by adding HPX
//! continuations"*.  These functions are that layer: they return
//! `hpx_rt::Future`s that complete when the kernel does, composable with
//! `then` / `when_all` into the solver's dependency graph.

use crate::parallel::{parallel_for, parallel_reduce};
use crate::policy::RangePolicy;
use crate::race::{LaunchToken, RaceDetector, ViewAccess};
use crate::space::ExecSpace;
use hpx_rt::{when_all_of, Future, Runtime};

/// Launch `parallel_for(space, policy, kernel)` asynchronously on `rt`;
/// the returned future becomes ready when the whole kernel has executed.
///
/// Unlike [`parallel_for`], the kernel must be `'static`: it outlives the
/// caller's stack frame, exactly as a real asynchronous Kokkos launch
/// requires device-visible (not stack) data.
pub fn launch_for_async<F>(
    rt: &Runtime,
    space: ExecSpace,
    policy: RangePolicy,
    kernel: F,
) -> Future<()>
where
    F: Fn(usize) + Sync + Send + 'static,
{
    rt.async_call(move || parallel_for(&space, policy, kernel))
}

/// Launch a reduction asynchronously; the future carries the reduced value.
pub fn launch_reduce_async<T, M, C>(
    rt: &Runtime,
    space: ExecSpace,
    policy: RangePolicy,
    identity: T,
    map: M,
    combine: C,
) -> Future<T>
where
    T: Clone + Send + Sync + 'static,
    M: Fn(usize) -> T + Sync + Send + 'static,
    C: Fn(T, T) -> T + Sync + Send + 'static,
{
    rt.async_call(move || parallel_reduce(&space, policy, identity, map, combine))
}

/// Launch `parallel_for` only after `dep` resolves — the kernel is not even
/// enqueued until its dependency is satisfied, so a chain of `_after`
/// launches forms a dependency edge rather than an eager fork.
///
/// The dependency's payload is never cloned; only its completion gates the
/// launch (see `Future::ticket`).  This is the launch primitive the
/// pipelined stepper uses to hang a leaf's stage-N kernel off the ghost
/// futures of exactly the neighbors it reads.
pub fn launch_for_after<D, F>(
    rt: &Runtime,
    dep: &Future<D>,
    space: ExecSpace,
    policy: RangePolicy,
    kernel: F,
) -> Future<()>
where
    D: Send + 'static,
    F: Fn(usize) + Sync + Send + 'static,
{
    dep.ticket()
        .then(rt, move |()| parallel_for(&space, policy, kernel))
}

/// Launch a reduction only after `dep` resolves; the returned future carries
/// the reduced value.  Payload-free gating, as with [`launch_for_after`].
pub fn launch_reduce_after<D, T, M, C>(
    rt: &Runtime,
    dep: &Future<D>,
    space: ExecSpace,
    policy: RangePolicy,
    identity: T,
    map: M,
    combine: C,
) -> Future<T>
where
    D: Send + 'static,
    T: Clone + Send + Sync + 'static,
    M: Fn(usize) -> T + Sync + Send + 'static,
    C: Fn(T, T) -> T + Sync + Send + 'static,
{
    dep.ticket().then(rt, move |()| {
        parallel_reduce(&space, policy, identity, map, combine)
    })
}

/// A kernel launch registered with a [`RaceDetector`]: the completion future
/// plus the happens-before token later launches cite as a dependency.
pub struct TrackedLaunch {
    /// Completes when the kernel has executed.
    pub done: Future<()>,
    /// This launch's identity in the detector's happens-before order.
    pub token: LaunchToken,
}

/// Race-checked [`launch_for_after`]: registers the launch (site, ordering
/// deps, declared view accesses) with `det` — aborting with both launch
/// sites on an unordered conflicting access — then runs the kernel once
/// every dependency's future has resolved.
///
/// The declared `deps` are the *only* ordering edges the detector credits,
/// so a kernel gated on too little fails loudly here instead of racing
/// silently under an unlucky schedule.
// The signature is `launch_for_after`'s plus the three race-tracking
// inputs; bundling them would only obscure the correspondence.
#[allow(clippy::too_many_arguments)]
pub fn launch_for_tracked<F>(
    rt: &Runtime,
    space: ExecSpace,
    policy: RangePolicy,
    det: &RaceDetector,
    site: &str,
    deps: &[&TrackedLaunch],
    accesses: &[ViewAccess],
    kernel: F,
) -> TrackedLaunch
where
    F: Fn(usize) + Sync + Send + 'static,
{
    let dep_tokens: Vec<LaunchToken> = deps.iter().map(|d| d.token).collect();
    let token = det.launch_or_abort(site, &dep_tokens, accesses);
    let dep_futures: Vec<Future<()>> = deps.iter().map(|d| d.done.clone()).collect();
    let done =
        when_all_of(rt, &dep_futures).then(rt, move |()| parallel_for(&space, policy, kernel));
    TrackedLaunch { done, token }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ChunkSpec;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn async_launch_completes_future() {
        let rt = Runtime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let f = launch_for_async(
            &rt,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 64).with_chunk(ChunkSpec::Tasks(4)),
            move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            },
        );
        f.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        rt.shutdown();
    }

    #[test]
    fn continuation_on_kernel_completion() {
        // The paper's headline pattern: kernel -> continuation -> kernel.
        let rt = Runtime::new(2);
        let data = Arc::new((0..100).map(AtomicU64::new).collect::<Vec<_>>());
        let d1 = data.clone();
        let space = ExecSpace::hpx(rt.clone());
        let space2 = space.clone();
        let rt2 = rt.clone();
        let d2 = data.clone();
        let f = launch_for_async(
            &rt,
            space,
            RangePolicy::new(0, 100).with_chunk(ChunkSpec::Auto),
            move |i| {
                d1[i].fetch_add(1, Ordering::Relaxed);
            },
        )
        .then(&rt2, move |_| {
            // Second kernel, launched from the continuation.
            let d3 = d2.clone();
            parallel_for(&space2, RangePolicy::new(0, 100), move |i| {
                d3[i].fetch_add(10, Ordering::Relaxed);
            });
        });
        f.wait();
        assert!(data
            .iter()
            .enumerate()
            .all(|(i, c)| c.load(Ordering::Relaxed) == i as u64 + 11));
        rt.shutdown();
    }

    #[test]
    fn async_reduce_returns_value() {
        let rt = Runtime::new(4);
        let f = launch_reduce_async(
            &rt,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(1, 101).with_chunk(ChunkSpec::Tasks(8)),
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(f.get(), 5050);
        rt.shutdown();
    }

    #[test]
    fn launch_for_after_defers_until_dependency_resolves() {
        let rt = Runtime::new(2);
        let (dep_p, dep_f) = hpx_rt::Promise::<u64>::new_pair();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let f = launch_for_after(
            &rt,
            &dep_f,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 32).with_chunk(ChunkSpec::Tasks(4)),
            move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!f.is_ready());
        assert_eq!(
            hits.load(Ordering::SeqCst),
            0,
            "kernel ran before its dependency"
        );
        dep_p.set(7);
        f.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 32);
        rt.shutdown();
    }

    #[test]
    fn launch_reduce_after_chains_two_reductions() {
        let rt = Runtime::new(2);
        let first = launch_reduce_async(
            &rt,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 10),
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        let second = launch_reduce_after(
            &rt,
            &first,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 10),
            0u64,
            |i| i as u64 * 2,
            |a, b| a + b,
        );
        assert_eq!(first.get(), 45);
        assert_eq!(second.get(), 90);
        rt.shutdown();
    }

    #[test]
    fn tracked_launches_enforce_order_and_run() {
        let rt = Runtime::new(2);
        let det = RaceDetector::new();
        let view = crate::view::View::<f64>::new_1d("rho", 64);
        let hits = Arc::new(AtomicU64::new(0));
        let h1 = hits.clone();
        let init = launch_for_tracked(
            &rt,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 64),
            &det,
            "init(rho)",
            &[],
            &[ViewAccess::write(&view)],
            move |_| {
                h1.fetch_add(1, Ordering::Relaxed);
            },
        );
        let h2 = hits.clone();
        let flux = launch_for_tracked(
            &rt,
            ExecSpace::hpx(rt.clone()),
            RangePolicy::new(0, 64),
            &det,
            "flux(rho)",
            &[&init],
            &[ViewAccess::read(&view)],
            move |_| {
                h2.fetch_add(1, Ordering::Relaxed);
            },
        );
        flux.done.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 128);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "data race on view")]
    fn tracked_launch_without_edge_aborts() {
        let rt = Runtime::new(1);
        let det = RaceDetector::new();
        let view = crate::view::View::<f64>::new_1d("rho", 8);
        let _a = launch_for_tracked(
            &rt,
            ExecSpace::Serial,
            RangePolicy::new(0, 8),
            &det,
            "writer_a",
            &[],
            &[ViewAccess::write(&view)],
            |_| {},
        );
        // No dependency on `_a`: unordered write-write on the same view.
        let _b = launch_for_tracked(
            &rt,
            ExecSpace::Serial,
            RangePolicy::new(0, 8),
            &det,
            "writer_b",
            &[],
            &[ViewAccess::write(&view)],
            |_| {},
        );
    }

    #[test]
    fn when_all_over_kernel_launches() {
        // Octo-Tiger launches >10 kernels per sub-grid per step and joins
        // them; emulate a burst of launches joined by when_all.
        let rt = Runtime::new(4);
        let futures: Vec<Future<u64>> = (0..12)
            .map(|k| {
                launch_reduce_async(
                    &rt,
                    ExecSpace::hpx(rt.clone()),
                    RangePolicy::new(0, 128).with_chunk(ChunkSpec::Tasks(4)),
                    0u64,
                    move |i| (i as u64) * (k + 1),
                    |a, b| a + b,
                )
            })
            .collect();
        let all = hpx_rt::when_all(&rt, futures);
        let sums = all.get();
        let base: u64 = (0..128).sum();
        for (k, s) in sums.iter().enumerate() {
            assert_eq!(*s, base * (k as u64 + 1));
        }
        rt.shutdown();
    }
}
