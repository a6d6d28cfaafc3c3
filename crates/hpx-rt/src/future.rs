//! Shared futures with continuations — HPX's `lcos` layer.
//!
//! The paper's central programming-model claim is that Kokkos kernel
//! launches can be woven into HPX's asynchronous execution graph: *"any HPX
//! task may asynchronously launch Kokkos kernels and define what should be
//! done with the results by adding HPX continuations"* (Section IV-B).  The
//! types here provide exactly that: a write-once [`Promise`], a cloneable
//! [`Future`] with [`Future::then`] continuations, and the [`when_all_of`]
//! join.
//!
//! Blocking [`Future::get`]/[`Future::wait`] calls *help*: when invoked on a
//! worker thread they execute other queued tasks while waiting, so a tree
//! traversal that blocks on child results keeps the CPU busy — the behaviour
//! that lets Octo-Tiger hide communication latencies behind fine-grained
//! kernels.

use crate::counters::Counters;
use crate::runtime::{try_help_current_thread, Runtime};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Blocked-worker watchdog timeout in milliseconds; `0` disables it.
///
/// When a *worker* thread waits on a future and makes no progress — the
/// future stays pending and there are no queued tasks to help with — for
/// longer than this, the wait panics instead of hanging: in a correctly
/// wired dependency graph a starved worker always either finds work or sees
/// its future resolve.  Debug builds arm the watchdog by default (30 s);
/// release builds leave it off (a loaded machine can stall legitimately).
/// Every fire is exported as the `/threads/count/watchdog-fires` performance
/// counter of the blocked pool before the panic unwinds.
static BLOCKED_WAIT_TIMEOUT_MS: AtomicU64 =
    AtomicU64::new(if cfg!(debug_assertions) { 30_000 } else { 0 });

/// A settled future's outcome, as seen by [`Future::on_settled`] hooks: the
/// value, or the abandonment reason.  Continuation-based combinators use
/// this to *propagate* abandonment promptly (with a reason naming the failed
/// input) instead of leaving their output forever pending.
pub(crate) enum Settled<'a, T> {
    /// The producing side fulfilled the promise.
    Ready(&'a T),
    /// The producing side panicked or dropped its promise.
    Abandoned(&'a str),
}

type Continuation<T> = Box<dyn FnOnce(Settled<'_, T>) + Send>;

enum State<T> {
    Pending(Vec<Continuation<T>>),
    Ready(T),
    /// The producing task panicked or dropped its promise; waiting on this
    /// future panics with the stored message instead of hanging forever.
    Abandoned(String),
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Transition Pending → Abandoned, waking waiters and delivering
    /// `Settled::Abandoned` to every attached continuation so combinators can
    /// propagate the failure instead of leaving their outputs pending.
    /// No-op if the future already settled.
    fn settle_abandoned(&self, reason: String) {
        let continuations = {
            let mut guard = self.state.lock();
            match std::mem::replace(&mut *guard, State::Abandoned(reason)) {
                State::Pending(conts) => conts,
                prev => {
                    *guard = prev;
                    return;
                }
            }
        };
        self.ready.notify_all();
        if !continuations.is_empty() {
            let guard = self.state.lock();
            if let State::Abandoned(ref reason) = *guard {
                // Like `Promise::set`, continuations run under the lock only
                // to borrow the stored reason.
                for c in continuations {
                    c(Settled::Abandoned(reason));
                }
            }
        }
    }
}

/// The write-once producing end of a future (HPX `hpx::promise`).
pub struct Promise<T> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

/// A shared, cloneable handle to an eventually-available value
/// (HPX `hpx::shared_future`).
pub struct Future<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Future<T> {
    fn clone(&self) -> Self {
        Future {
            shared: self.shared.clone(),
        }
    }
}

impl<T: Send + 'static> Promise<T> {
    /// Create a connected promise/future pair.
    pub fn new_pair() -> (Promise<T>, Future<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::Pending(Vec::new())),
            ready: Condvar::new(),
        });
        (
            Promise {
                shared: shared.clone(),
                fulfilled: false,
            },
            Future { shared },
        )
    }

    /// Fulfil the promise.  Runs all attached continuations inline (they
    /// are expected to be cheap trampolines that re-spawn onto a runtime).
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn set(mut self, value: T) {
        self.fulfilled = true;
        let continuations = {
            let mut guard = self.shared.state.lock();
            match std::mem::replace(&mut *guard, State::Ready(value)) {
                State::Pending(conts) => conts,
                State::Ready(_) | State::Abandoned(_) => {
                    panic!("hpx-rt: promise fulfilled twice")
                }
            }
        };
        self.shared.ready.notify_all();
        if !continuations.is_empty() {
            let guard = self.shared.state.lock();
            if let State::Ready(ref v) = *guard {
                // Continuations run under the lock only to borrow `v`; each
                // is a trampoline that spawns the real work, so this section
                // is short.
                for c in continuations {
                    c(Settled::Ready(v));
                }
            }
        }
    }

    /// Mark the promise as abandoned: waiters will panic with `reason`
    /// instead of deadlocking, and attached continuations observe
    /// `Settled::Abandoned` so downstream futures abandon too.  Used when a
    /// producing task panics.
    pub(crate) fn abandon(mut self, reason: String) {
        self.fulfilled = true;
        self.shared.settle_abandoned(reason);
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.shared
                .settle_abandoned("promise dropped without being fulfilled".to_owned());
        }
    }
}

impl<T: Send + 'static> Future<T> {
    /// `true` once the value is available.
    pub fn is_ready(&self) -> bool {
        !matches!(*self.shared.state.lock(), State::Pending(_))
    }

    /// Block until the value is available, executing other tasks while
    /// waiting when called from a worker thread.
    ///
    /// # Panics
    /// Panics if the producing side abandoned the promise, and in debug
    /// builds when called inside a [`kernel_body`](crate::kernel_body),
    /// ready future or not.
    pub fn wait(&self) {
        debug_assert!(
            !crate::runtime::in_kernel_body(),
            "hpx-rt: blocking wait in a kernel body: a kernel must not block; \
             gate its launch on the future with `then` instead"
        );
        // Fast path.
        if self.is_ready() {
            self.check_abandoned();
            return;
        }
        let mut last_progress = std::time::Instant::now();
        loop {
            if self.is_ready() {
                break;
            }
            // Help: run one task of the pool this thread belongs to.
            if try_help_current_thread() {
                last_progress = std::time::Instant::now();
                continue;
            }
            // On a deterministic (virtual) pool there is exactly one thread:
            // an empty task queue while this future is still pending cannot
            // resolve itself — report the deadlock immediately with the
            // schedule seed instead of spinning.
            if let Some(report) = crate::runtime::current_virtual_stall() {
                panic!("hpx-rt: {report}");
            }
            // Nothing to help with — block with a timeout so that wakeups
            // via task execution on other threads are still picked up.
            let mut guard = self.shared.state.lock();
            if matches!(*guard, State::Pending(_)) {
                self.shared
                    .ready
                    .wait_for(&mut guard, Duration::from_micros(200));
            }
            drop(guard);
            let timeout_ms = BLOCKED_WAIT_TIMEOUT_MS.load(Ordering::Relaxed);
            if timeout_ms != 0 && crate::runtime::on_any_worker_thread() {
                let limit = Duration::from_millis(timeout_ms);
                if last_progress.elapsed() > limit {
                    crate::runtime::note_watchdog_fire();
                    panic!(
                        "hpx-rt: suspected deadlock: a worker thread has been blocked on an \
                         unresolved future for {limit:?} with no queued tasks to help with \
                         (a dependency cycle, or a promise that is never fulfilled)"
                    );
                }
            }
        }
        self.check_abandoned();
    }

    fn check_abandoned(&self) {
        let guard = self.shared.state.lock();
        if let State::Abandoned(ref reason) = *guard {
            panic!("hpx-rt: waiting on abandoned future: {reason}");
        }
    }

    /// Wait and return a clone of the value (shared-future semantics).
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.wait();
        let guard = self.shared.state.lock();
        match *guard {
            State::Ready(ref v) => v.clone(),
            _ => unreachable!("wait() returned without a ready value"),
        }
    }

    /// Attach a continuation: when this future becomes ready, spawn
    /// `f(value)` on `rt` and complete the returned future with its result.
    ///
    /// This is `hpx::future::then`, the mechanism by which Octo-Tiger turns
    /// kernel completions into follow-up tasks instead of fork/join joins.
    pub fn then<U, F>(&self, rt: &Runtime, f: F) -> Future<U>
    where
        U: Send + 'static,
        T: Clone,
        F: FnOnce(T) -> U + Send + 'static,
    {
        Counters::bump(&rt.counters().continuations_attached);
        Counters::bump(&rt.counters().futures_created);
        let (promise, out) = Promise::new_pair();
        let rt2 = rt.clone();
        self.on_settled(move |s: Settled<'_, T>| match s {
            Settled::Ready(v) => {
                let v = v.clone();
                rt2.spawn(move || {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(v))) {
                        Ok(u) => promise.set(u),
                        Err(p) => promise.abandon(crate::runtime::panic_message(&*p)),
                    }
                });
            }
            Settled::Abandoned(reason) => {
                promise.abandon(format!("hpx-rt: `then` input abandoned: {reason}"));
            }
        });
        out
    }

    /// Continuation hook that observes *either* outcome: the ready value or
    /// the abandonment reason.  Never panics at attach time — this is what
    /// [`when_all`]/[`when_all_of`]/[`Future::then`] build on so a single
    /// dropped promise surfaces as a diagnosable abandoned output instead of
    /// a poisoned worker or a silent hang.
    pub(crate) fn on_settled(&self, f: impl FnOnce(Settled<'_, T>) + Send + 'static) {
        let mut guard = self.shared.state.lock();
        match *guard {
            State::Pending(ref mut conts) => conts.push(Box::new(f)),
            State::Ready(ref v) => f(Settled::Ready(v)),
            State::Abandoned(ref reason) => f(Settled::Abandoned(reason)),
        }
    }

    /// A `Future<()>` that completes when `self` completes, without cloning
    /// or otherwise touching the payload.  This is how heterogeneous futures
    /// are folded into a [`when_all_of`] dependency gate.
    pub fn ticket(&self) -> Future<()> {
        let (p, out) = Promise::new_pair();
        self.on_settled(move |s: Settled<'_, T>| match s {
            Settled::Ready(_) => p.set(()),
            Settled::Abandoned(reason) => {
                p.abandon(format!("hpx-rt: ticket input abandoned: {reason}"));
            }
        });
        out
    }
}

/// An already-fulfilled future (HPX `make_ready_future`).
pub fn make_ready_future<T: Send + 'static>(value: T) -> Future<T> {
    let (p, f) = Promise::new_pair();
    p.set(value);
    f
}

/// Join futures into a single `Future<()>` that completes once *all* of them
/// are ready, without cloning any payload (HPX `when_all` on shared futures,
/// used purely as a dependency gate) — the runtime's one join.
///
/// This is the backbone of the pipelined stepper: a leaf's ghost fill gates
/// on the leaves it reads, its stage kernel on its fill, its readers' fills
/// and (at stage 0) the Δt and gravity futures, and no gate may copy the
/// (potentially large) payloads those futures carry.
/// Completion is delivered through `rt.spawn` so long dependency chains do
/// not recurse on the completing thread's stack.
pub fn when_all_of<T: Send + 'static>(rt: &Runtime, futures: &[Future<T>]) -> Future<()> {
    let n = futures.len();
    Counters::bump(&rt.counters().futures_created);
    let (promise, out) = Promise::new_pair();
    if n == 0 {
        promise.set(());
        return out;
    }
    let remaining = Arc::new(AtomicUsize::new(n));
    let promise = Arc::new(Mutex::new(Some(promise)));
    for (i, fut) in futures.iter().enumerate() {
        let remaining = remaining.clone();
        let promise = promise.clone();
        let rt = rt.clone();
        fut.on_settled(move |s: Settled<'_, T>| match s {
            Settled::Ready(_) => {
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if let Some(p) = promise.lock().take() {
                        rt.spawn(move || p.set(()));
                    }
                }
            }
            Settled::Abandoned(reason) => {
                if let Some(p) = promise.lock().take() {
                    p.abandon(format!(
                        "hpx-rt: when_all_of: input #{i} abandoned: {reason}"
                    ));
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_future_is_immediately_ready() {
        let f = make_ready_future(5);
        assert!(f.is_ready());
        assert_eq!(f.get(), 5);
    }

    #[test]
    fn promise_set_wakes_waiter() {
        let (p, f) = Promise::new_pair();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p.set(99);
        });
        assert_eq!(f.get(), 99);
        t.join().unwrap();
    }

    #[test]
    fn clone_shares_the_value() {
        let (p, f) = Promise::new_pair();
        let g = f.clone();
        p.set("hi".to_owned());
        assert_eq!(f.get(), "hi");
        assert_eq!(g.get(), "hi");
    }

    #[test]
    #[should_panic(expected = "abandoned")]
    fn dropped_promise_panics_waiters_instead_of_hanging() {
        let (p, f) = Promise::<i32>::new_pair();
        drop(p);
        f.wait();
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_set_panics() {
        let (p, f) = Promise::new_pair();
        let g = f.clone();
        p.set(1);
        let (p2, _f2) = Promise::new_pair();
        // Simulate a second set on the same shared state:
        // easiest honest check is a fresh promise pair pointing to the same
        // shared state, which the public API forbids; so instead fulfil and
        // then assert the guard in `set` by constructing the race manually.
        drop(g);
        // Re-fulfilling through a cloned Promise is impossible by
        // construction (Promise is not Clone); emulate by calling set on a
        // promise whose shared state is already Ready.
        let shared_hack = Promise {
            shared: p2.shared.clone(),
            fulfilled: false,
        };
        p2.set(2);
        shared_hack.set(3);
    }

    #[test]
    fn then_chains_across_runtime() {
        let rt = Runtime::new(2);
        let f = rt.async_call(|| 10);
        let g = f.then(&rt, |x| x + 1).then(&rt, |x| x * 2);
        assert_eq!(g.get(), 22);
        rt.shutdown();
    }

    #[test]
    fn then_on_already_ready_future() {
        let rt = Runtime::new(1);
        let f = make_ready_future(3);
        let g = f.then(&rt, |x| x * 3);
        assert_eq!(g.get(), 9);
        rt.shutdown();
    }

    #[test]
    fn ticket_works_on_non_clone_payloads() {
        // The payload type is deliberately not Clone: this compiles only
        // because the ticket never clones the value.
        struct NotClone;
        let rt = Runtime::new(2);
        let f: Future<NotClone> = rt.async_call(|| NotClone);
        let ticket = f.ticket();
        ticket.wait();
        assert!(f.is_ready());
        rt.shutdown();
    }

    #[test]
    fn when_all_of_gates_on_every_input() {
        let rt = Runtime::new(2);
        let (p, pending) = Promise::new_pair();
        let gate = when_all_of(&rt, &[make_ready_future(1), pending]);
        assert!(!gate.is_ready());
        p.set(2);
        gate.wait();
        rt.shutdown();
    }

    #[test]
    fn when_all_of_empty_set_is_ready() {
        let rt = Runtime::new(1);
        assert!(when_all_of::<i32>(&rt, &[]).is_ready());
        rt.shutdown();
    }

    #[test]
    fn watchdog_flags_worker_blocked_on_unresolvable_future() {
        // Armed here with a short timeout, so it runs in release builds too.
        let prev = BLOCKED_WAIT_TIMEOUT_MS.swap(250, Ordering::Relaxed);
        let rt = Runtime::new(1);
        let fires_before = rt.counters().snapshot().watchdog_fires;
        // A promise that is neither fulfilled nor abandoned: forget it so its
        // Drop cannot rescue the waiter.  The single worker blocks with no
        // queued work, which the watchdog must flag as a deadlock.
        let task = rt.async_call(|| {
            let (p, f) = Promise::<i32>::new_pair();
            std::mem::forget(p);
            f.wait();
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.get()));
        let fires_after = rt.counters().snapshot().watchdog_fires;
        BLOCKED_WAIT_TIMEOUT_MS.store(prev, Ordering::Relaxed);
        rt.shutdown();
        assert!(outcome.is_err(), "watchdog should have fired");
        assert!(
            fires_after > fires_before,
            "watchdog fire should be exported as a performance counter"
        );
    }

    #[test]
    fn then_propagates_abandonment_with_reason() {
        let rt = Runtime::new(1);
        let (p, f) = Promise::<i32>::new_pair();
        let g = f.then(&rt, |x| x + 1).then(&rt, |x| x * 2);
        drop(p);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.get()));
        let msg = crate::runtime::panic_message(&*outcome.unwrap_err());
        assert!(msg.contains("abandoned"), "got: {msg}");
        assert!(msg.contains("promise dropped"), "got: {msg}");
        rt.shutdown();
    }

    #[test]
    fn ticket_propagates_abandonment() {
        let (p, f) = Promise::<i32>::new_pair();
        let t = f.ticket();
        drop(p);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.wait()));
        let msg = crate::runtime::panic_message(&*outcome.unwrap_err());
        assert!(msg.contains("ticket input abandoned"), "got: {msg}");
    }

    #[test]
    fn when_all_of_abandons_instead_of_hanging() {
        let rt = Runtime::new(2);
        let (p0, f0) = Promise::<()>::new_pair();
        let (p1, f1) = Promise::<()>::new_pair();
        let gate = when_all_of(&rt, &[f0, f1]);
        drop(p0);
        p1.set(());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gate.wait()));
        let msg = crate::runtime::panic_message(&*outcome.unwrap_err());
        assert!(
            msg.contains("when_all_of: input #0 abandoned"),
            "got: {msg}"
        );
        rt.shutdown();
    }

    #[test]
    fn on_settled_sees_already_abandoned_future_without_panicking() {
        let (p, f) = Promise::<i32>::new_pair();
        drop(p);
        let saw = Arc::new(Mutex::new(None));
        let saw2 = saw.clone();
        f.on_settled(move |s| {
            *saw2.lock() = Some(match s {
                Settled::Ready(_) => "ready".to_owned(),
                Settled::Abandoned(r) => r.to_owned(),
            });
        });
        assert_eq!(
            saw.lock().as_deref(),
            Some("promise dropped without being fulfilled")
        );
    }

    #[test]
    fn deep_dependency_chain_on_small_pool() {
        // A chain of 100 continuations on a single worker must complete —
        // this exercises the helping wait.
        let rt = Runtime::new(1);
        let mut f = rt.async_call(|| 0u64);
        for _ in 0..100 {
            f = f.then(&rt, |x| x + 1);
        }
        assert_eq!(f.get(), 100);
        rt.shutdown();
    }
}
