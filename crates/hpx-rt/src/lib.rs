//! # hpx-rt — an HPX-style asynchronous many-task runtime
//!
//! The paper's application, Octo-Tiger, is built on HPX: a C++ runtime with
//! lightweight user-level tasks scheduled over a fixed pool of worker
//! threads, futures with attachable continuations (so tree traversals become
//! dataflow graphs rather than fork/join phases), and *localities* — the
//! distributed processes between which work and data move as *parcels*
//! carrying *actions* (remote procedure invocations).
//!
//! This crate is the Rust substrate standing in for HPX:
//!
//! * [`Runtime`] — a work-stealing task pool (crossbeam deques, one worker
//!   per configured "core").  Tasks spawned from inside a worker go to that
//!   worker's local deque, exactly like HPX's thread-local scheduling;
//!   blocked waits *help* by stealing work, so nested task graphs (the FMM
//!   tree traversals of the paper) cannot deadlock the pool.
//! * [`future::Promise`] / [`future::Future`] — shared futures with
//!   `then`-continuations and the `when_all_of` join, the paper's mechanism for chaining
//!   Kokkos kernel launches into HPX's asynchronous execution graph.
//! * [`locality`] — N logical localities in one process, with an action
//!   registry and the one in-process parcel transport
//!   ([`Locality::apply_async`]: an action carried by a parcel, delivered
//!   as a task on the destination's runtime, answered through a future),
//!   metered by [`counters::Counters`].  This stands in for HPX's
//!   distributed AGAS and parcelport layer (see DESIGN.md substitution
//!   table).  The Section VII-B "local HPX promise/future pairs to notify
//!   neighbors" are plain [`future::Promise`] pairs: the ghost exchange's
//!   per-leaf fills.
//! * `pjm` — a model of the Fugaku Parallel Job Manager resource
//!   specification the paper added HPX support for (HPX PR #5870).
//! * `apex` — APEX-style autonomic performance instrumentation, the
//!   analysis layer the paper's conclusion points to for future work.
//! * [`tuner`] — the closed loop over that layer: a hill-climb over one
//!   task-granularity ladder (the paper's Figure 9 knob), driven by apex
//!   window means.

mod apex;
pub mod counters;
mod future;
pub mod locality;
mod pjm;
mod runtime;
pub mod tuner;

pub use apex::Apex;
pub use counters::{parcel_counters, ParcelClass, ParcelSnapshot};
pub use future::{make_ready_future, when_all_of, Future, Promise};
pub use locality::{Locality, LocalityId, SimCluster};
pub use pjm::JobSpec;
pub use runtime::{in_kernel_body, kernel_body, Runtime};
pub use tuner::{Tuner, TunerSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn end_to_end_task_future_chain() {
        let rt = Runtime::new(4);
        let f = rt.async_call(|| 21);
        let g = f.then(&rt, |x| x * 2);
        assert_eq!(g.get(), 42);
        rt.shutdown();
    }

    #[test]
    fn cluster_smoke() {
        let cluster = SimCluster::new(2, 2);
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        cluster.register_action("ping", move |_arg, _loc| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Box::new(7usize)
        });
        let f = cluster
            .locality(0)
            .apply_async(LocalityId(1), "ping", Box::new(()), 8);
        let out = f.get();
        assert_eq!(*locality::downcast_payload::<usize>(&out).unwrap(), 7);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        cluster.shutdown();
    }
}
