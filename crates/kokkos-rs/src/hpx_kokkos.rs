//! HPX-Kokkos: an asynchronous kernel launch as an HPX future.
//!
//! Plain Kokkos can *run* a kernel on HPX worker threads, but cannot hand
//! the caller a handle to its completion.  The paper's stack adds the
//! HPX-Kokkos interoperability library (its Section IV-B, reference \[32\])
//! so that *"any HPX task may asynchronously launch Kokkos kernels and
//! define what should be done with the results by adding HPX
//! continuations"*.  [`launch_reduce_async`] is that layer: it returns an
//! `hpx_rt::Future` that completes when the kernel does, composable with
//! `then` / `when_all_of` into the stepper's dependency graph.  (A launch that
//! carries no value is a task whose body is `parallel_for`; gating a launch
//! on a dependency is `Future::then`.)

use crate::parallel::parallel_reduce;
use crate::policy::RangePolicy;
use crate::space::ExecSpace;
use hpx_rt::{Future, Runtime};

/// Launch a reduction asynchronously on `rt`; the future carries the
/// reduced value.
///
/// Unlike `parallel_reduce`, the kernel must be `'static`: it outlives
/// the caller's stack frame, exactly as a real asynchronous Kokkos launch
/// requires device-visible (not stack) data.
///
/// That bound is what keeps an asynchronous launch from racing a later
/// write by its caller: a kernel that borrows a buffer on the caller's
/// stack does not compile — error E0373, the closure may outlive the
/// caller but borrows `buf` (and the write after the launch is E0502).
/// Move (or share) the data into the kernel instead.
///
/// ```compile_fail,E0373
/// use hpx_rt::Runtime;
/// use kokkos_rs::{launch_reduce_async, ExecSpace, RangePolicy};
/// let rt = Runtime::new(1);
/// let mut buf = vec![1.0f64; 16];
/// let sum = launch_reduce_async(&rt, ExecSpace::Serial, RangePolicy::new(0, 16), 0.0,
///     |i| buf[i], |a, b| a + b);
/// buf[0] = 2.0;
/// sum.wait();
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ChunkSpec;

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
    fn when_all_of_over_kernel_launches() {
        // Octo-Tiger launches >10 kernels per sub-grid per step and joins
        // them; emulate a burst of launches joined by when_all_of.
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
        hpx_rt::when_all_of(&rt, &futures).get();
        let base: u64 = (0..128).sum();
        for (k, f) in futures.iter().enumerate() {
            assert!(f.is_ready());
            assert_eq!(f.get(), base * (k as u64 + 1));
        }
        rt.shutdown();
    }
}
