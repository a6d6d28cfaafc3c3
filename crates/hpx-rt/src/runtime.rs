//! The work-stealing task pool: HPX's thread scheduler, in miniature.
//!
//! HPX schedules millions of lightweight tasks over one OS thread per core.
//! The properties Octo-Tiger depends on — and which the paper's experiments
//! probe — are reproduced here:
//!
//! * **Local-first scheduling.** A task spawned from a worker goes to that
//!   worker's own deque (hot cache; the reason one task per Kokkos kernel
//!   launch is the paper's default, Section VII-C).
//! * **Work stealing.** Idle workers steal from the global injector and from
//!   other workers, so splitting a kernel into more tasks spreads it across
//!   starved cores (the Section VII-C multipole-splitting optimization).
//! * **Cooperative blocking.** Any wait (`Future::get`, `Runtime::scope`)
//!   executes other tasks while waiting instead of blocking the worker, so
//!   deeply nested task graphs (FMM tree traversals) cannot deadlock the
//!   pool.

use crate::counters::Counters;
use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct SleepState {
    shutdown: bool,
}

/// State of a [`Runtime::deterministic`] pool: a virtual single-threaded
/// scheduler standing in for the work-stealing workers.  Every runnable task
/// sits in one queue; each scheduling point removes a *seeded-pseudo-random*
/// element, so one `u64` seed fully determines the interleaving and a failing
/// schedule can be replayed from its seed alone.  This is the loom-style
/// substrate the `hpx-check` model checker samples schedules with.
struct VirtualState {
    queue: Vec<Job>,
    rng: u64,
    seed: u64,
    steps: u64,
    max_steps: u64,
    /// Panics contained by `PoolInner::execute` (a detached task dying is a
    /// bug signal under model checking, not console noise).
    contained_panics: Vec<String>,
}

impl VirtualState {
    fn new(seed: u64) -> VirtualState {
        VirtualState {
            queue: Vec::new(),
            rng: splitmix64(seed).max(1),
            seed,
            steps: 0,
            max_steps: 1_000_000,
            contained_panics: Vec::new(),
        }
    }

    fn next_choice(&mut self) -> u64 {
        // xorshift64: tiny, deterministic, and good enough to decorrelate
        // neighbouring seeds after the splitmix64 scramble.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn stall_report(&self) -> String {
        format!(
            "deterministic schedule stalled (seed {seed}, after {steps} tasks): blocked on a \
             pending future with no runnable task — a deadlock, lost wakeup, or dropped \
             promise; replay with Runtime::deterministic({seed})",
            seed = self.seed,
            steps = self.steps,
        )
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct PoolInner {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    counters: Counters,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    num_workers: usize,
    shutdown_flag: AtomicBool,
    /// `Some` for deterministic pools; replaces the deques entirely.
    virtual_sched: Option<Mutex<VirtualState>>,
}

#[derive(Clone, Copy)]
struct WorkerCtx {
    pool: *const PoolInner,
    /// `None` when the thread entered the pool without a local deque (a
    /// deterministic-mode driver thread, see [`Runtime::enter`]).
    local: Option<*const Deque<Job>>,
}

thread_local! {
    static CTX: Cell<Option<WorkerCtx>> = const { Cell::new(None) };
    /// Set while the thread runs a kernel body ([`kernel_body`]).
    static IN_KERNEL_BODY: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the calling thread's kernel-body mark set to `on`; the
/// previous mark comes back on return and on unwind.
fn with_kernel_mark<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            IN_KERNEL_BODY.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(IN_KERNEL_BODY.with(|c| c.replace(on)));
    f()
}

/// Run `f` as a kernel body: the calling thread is marked for the length
/// of the call.  A kernel body must not block — its ordering belongs in
/// continuations — and must not allocate once its buffers are recycled.
/// Debug builds make [`Future::wait`](crate::Future::wait) panic inside
/// one, and a test can count the allocations made while
/// [`in_kernel_body`] holds.  A task the thread runs while it helps (the
/// join of a nested launch) is not part of the body: the pool clears the
/// mark for each such task.
pub fn kernel_body<R>(f: impl FnOnce() -> R) -> R {
    with_kernel_mark(true, f)
}

/// `true` while the calling thread runs a [`kernel_body`].
pub fn in_kernel_body() -> bool {
    IN_KERNEL_BODY.with(|c| c.get())
}

/// A handle to a work-stealing task pool.
///
/// Cheaply cloneable; all clones refer to the same pool.  Worker threads
/// keep the pool alive until [`Runtime::shutdown`] is called, so dropping
/// the last handle without shutting down leaks the workers until process
/// exit (the same contract as `hpx::start` without `hpx::finalize`).
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<PoolInner>,
}

impl Runtime {
    /// Start a pool with `num_workers` worker threads (>= 1).
    pub fn new(num_workers: usize) -> Self {
        let num_workers = num_workers.max(1);
        let deques: Vec<Deque<Job>> = (0..num_workers).map(|_| Deque::new_fifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let inner = Arc::new(PoolInner {
            injector: Injector::new(),
            stealers,
            sleep: Mutex::new(SleepState { shutdown: false }),
            wake: Condvar::new(),
            counters: Counters::new(),
            threads: Mutex::new(Vec::new()),
            num_workers,
            shutdown_flag: AtomicBool::new(false),
            virtual_sched: None,
        });
        let mut handles = Vec::with_capacity(num_workers);
        for (i, deque) in deques.into_iter().enumerate() {
            let pool = inner.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hpx-worker-{i}"))
                    .spawn(move || worker_loop(pool, deque))
                    .expect("failed to spawn hpx-rt worker thread"),
            );
        }
        *inner.threads.lock() = handles;
        Runtime { inner }
    }

    /// A **deterministic** pool: no worker threads, one virtual task queue,
    /// and a seeded scheduler that picks the next task pseudo-randomly at
    /// every scheduling point (spawn/resolve/steal/park all funnel through
    /// the same queue).  The same seed always yields the same interleaving.
    ///
    /// Tasks only execute while the driving thread is inside
    /// [`Runtime::enter`] (or a blocking wait reached from it) — the pool is
    /// single-threaded by construction, which is what turns "blocked with an
    /// empty queue" into a *definite* deadlock rather than a heuristic: waits
    /// panic immediately with a seed-stamped report instead of hanging.
    ///
    /// This is the loom-lite substrate of the `hpx-check` model checker,
    /// which runs the real pipelined step on it through
    /// [`SimCluster::from_runtimes`](crate::SimCluster::from_runtimes) with
    /// one clone of the pool per locality, so every locality's tasks and
    /// every parcel between them share the one seeded schedule.
    pub fn deterministic(seed: u64) -> Self {
        let inner = Arc::new(PoolInner {
            injector: Injector::new(),
            stealers: Vec::new(),
            sleep: Mutex::new(SleepState { shutdown: false }),
            wake: Condvar::new(),
            counters: Counters::new(),
            threads: Mutex::new(Vec::new()),
            num_workers: 1,
            shutdown_flag: AtomicBool::new(false),
            virtual_sched: Some(Mutex::new(VirtualState::new(seed))),
        });
        Runtime { inner }
    }

    /// `true` for pools created by [`Runtime::deterministic`].
    pub(crate) fn is_deterministic(&self) -> bool {
        self.inner.virtual_sched.is_some()
    }

    /// Cap the number of tasks a deterministic schedule may execute before
    /// being declared a livelock (default 1 000 000).  No-op on threaded
    /// pools.
    pub fn set_schedule_step_budget(&self, max_steps: u64) {
        if let Some(vs) = &self.inner.virtual_sched {
            vs.lock().max_steps = max_steps;
        }
    }

    /// Tasks executed so far by a deterministic schedule (0 for threaded
    /// pools).
    pub fn schedule_steps(&self) -> u64 {
        self.inner
            .virtual_sched
            .as_ref()
            .map_or(0, |vs| vs.lock().steps)
    }

    /// Run `f` with the calling thread registered as the (sole) worker of
    /// this deterministic pool, so blocking waits inside `f` execute queued
    /// tasks in seeded order instead of hanging.
    ///
    /// # Panics
    /// Panics if called on a threaded pool.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        assert!(
            self.is_deterministic(),
            "Runtime::enter is only for deterministic pools; threaded pools schedule on \
             their own workers"
        );
        struct Restore(Option<WorkerCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0;
                CTX.with(|c| c.set(prev));
            }
        }
        let prev = CTX.with(|c| {
            c.replace(Some(WorkerCtx {
                pool: Arc::as_ptr(&self.inner),
                local: None,
            }))
        });
        let _restore = Restore(prev);
        f()
    }

    /// Drain a deterministic pool: execute queued tasks (in seeded order,
    /// including any they spawn) until the queue is empty.
    pub fn run_until_idle(&self) {
        self.enter(|| {
            while let Some(job) = self.inner.find_task(None) {
                self.inner.execute(job);
            }
        });
    }

    /// Take the messages of panics contained inside detached tasks of a
    /// deterministic schedule (double-resolves, abandoned-future waits, …).
    /// Threaded pools report contained panics to stderr instead and return
    /// an empty vector here.
    pub fn take_contained_panics(&self) -> Vec<String> {
        self.inner
            .virtual_sched
            .as_ref()
            .map(|vs| std::mem::take(&mut vs.lock().contained_panics))
            .unwrap_or_default()
    }

    /// Number of worker threads ("cores") in this pool.
    pub fn num_workers(&self) -> usize {
        self.inner.num_workers
    }

    /// Whether `self` and `other` are handles to one pool.
    pub(crate) fn same_pool(&self, other: &Runtime) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The pool's performance counters.
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// Fire-and-forget spawn (HPX `apply`).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.spawn_boxed(Box::new(f));
    }

    fn spawn_boxed(&self, job: Job) {
        Counters::bump(&self.inner.counters.tasks_spawned);
        if let Some(vs) = &self.inner.virtual_sched {
            // Deterministic mode: every task goes into the one virtual
            // queue; the seeded scheduler picks the execution order.
            vs.lock().queue.push(job);
            return;
        }
        let leftover = CTX.with(|c| {
            if let Some(ctx) = c.get() {
                if std::ptr::eq(ctx.pool, Arc::as_ptr(&self.inner)) {
                    if let Some(local) = ctx.local {
                        // SAFETY: `local` points to the deque owned by this
                        // very thread's worker loop, which is alive for as
                        // long as the thread runs inside `worker_loop`.
                        // Pushing from the owning thread is the intended use
                        // of `crossbeam::deque::Worker`.
                        unsafe { (*local).push(job) };
                        return None;
                    }
                }
            }
            Some(job)
        });
        if let Some(job) = leftover {
            self.inner.injector.push(job);
        }
        self.inner.wake.notify_one();
    }

    /// Spawn `f` and get a [`Future`](crate::future::Future) for its result
    /// (HPX `async`).
    pub fn async_call<T, F>(&self, f: F) -> crate::future::Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (promise, future) = crate::future::Promise::new_pair();
        Counters::bump(&self.inner.counters.futures_created);
        self.spawn(move || match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => promise.set(v),
            Err(payload) => promise.abandon(panic_message(&*payload)),
        });
        future
    }

    /// Run `f` with a `Scope` that can spawn tasks borrowing from the
    /// caller's stack; returns only after every scoped task finished —
    /// also when `f` itself panics: its panic resumes after the join, so
    /// no task outlives the borrows it holds.
    ///
    /// The waiting thread executes other tasks meanwhile, so `scope` may be
    /// nested arbitrarily (kernels inside kernels), as the Kokkos HPX
    /// execution space requires.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env, '_>) -> R) -> R {
        let pending = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let scope = Scope {
            rt: self,
            pending: &pending,
            panicked: &panicked,
            _env: PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_while(|| pending.load(Ordering::Acquire) > 0);
        match out {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) if panicked.load(Ordering::Acquire) => {
                panic!("a task spawned in hpx_rt::Runtime::scope panicked")
            }
            Ok(out) => out,
        }
    }

    /// Execute other tasks while `cond` holds.  Usable from worker threads
    /// *and* external threads (external threads steal from the injector and
    /// the workers but have no local deque).
    pub(crate) fn help_while(&self, mut cond: impl FnMut() -> bool) {
        let mut idle_spins = 0u32;
        while cond() {
            if let Some(job) = self.inner.find_task(current_local(&self.inner)) {
                self.inner.execute(job);
                idle_spins = 0;
            } else if let Some(vs) = &self.inner.virtual_sched {
                // Single-threaded by construction: an empty queue while the
                // condition still holds can never make progress.
                if cond() {
                    let report = vs.lock().stall_report();
                    panic!("hpx-rt: {report}");
                }
            } else {
                idle_spins += 1;
                if idle_spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
    }

    /// Block until the pool is momentarily drained: no queued tasks anywhere.
    ///
    /// Only a quiescence heuristic for tests — running tasks may spawn
    /// more work afterwards.
    #[cfg(test)]
    fn wait_quiescent(&self) {
        loop {
            let empty =
                self.inner.injector.is_empty() && self.inner.stealers.iter().all(|s| s.is_empty());
            if empty {
                let spawned = self.inner.counters.tasks_spawned.load(Ordering::Relaxed);
                let executed = self.inner.counters.tasks_executed.load(Ordering::Relaxed);
                if spawned == executed {
                    return;
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Stop all workers and join them.  Queued tasks that have not started
    /// are dropped.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut guard = self.inner.sleep.lock();
            guard.shutdown = true;
            self.inner.shutdown_flag.store(true, Ordering::SeqCst);
            self.inner.wake.notify_all();
        }
        let handles = std::mem::take(&mut *self.inner.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

fn current_local(pool: &PoolInner) -> Option<*const Deque<Job>> {
    CTX.with(|c| {
        c.get().and_then(|ctx| {
            if std::ptr::eq(ctx.pool, pool as *const _) {
                ctx.local
            } else {
                None
            }
        })
    })
}

impl PoolInner {
    fn find_task(&self, local: Option<*const Deque<Job>>) -> Option<Job> {
        // 0. Deterministic mode: the virtual queue is the only source, and
        //    the seeded RNG picks which runnable task goes next.
        if let Some(vs) = &self.virtual_sched {
            let mut g = vs.lock();
            if g.queue.is_empty() {
                return None;
            }
            g.steps += 1;
            assert!(
                g.steps <= g.max_steps,
                "hpx-rt: deterministic schedule (seed {}) exceeded its step budget of {} \
                 tasks: livelock or unbounded task graph",
                g.seed,
                g.max_steps
            );
            let idx = (g.next_choice() as usize) % g.queue.len();
            return Some(g.queue.remove(idx));
        }
        // 1. Own deque (hot cache).
        if let Some(local) = local {
            // SAFETY: `local` is this thread's own deque (see `current_local`).
            if let Some(job) = unsafe { (*local).pop() } {
                return Some(job);
            }
        }
        // 2. Global injector.
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // 3. Steal from peers.
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => {
                        Counters::bump(&self.counters.tasks_stolen);
                        return Some(job);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn execute(&self, job: Job) {
        // Panics in detached tasks are contained so one bad kernel cannot
        // take down a worker (HPX converts them into error futures; promise
        // abandonment plays that role here — see `Runtime::async_call`).
        // A task run by a helping kernel launcher is not part of its body.
        let result = with_kernel_mark(false, || catch_unwind(AssertUnwindSafe(job)));
        Counters::bump(&self.counters.tasks_executed);
        if let Err(payload) = result {
            let msg = panic_message(&*payload);
            if let Some(vs) = &self.virtual_sched {
                // Under model checking a contained panic is a finding, not
                // noise: record it for `Runtime::take_contained_panics`.
                vs.lock().contained_panics.push(msg);
            } else {
                eprintln!("hpx-rt: task panicked (contained): {msg}");
            }
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// `true` when the calling thread is a worker of *any* pool.  The future
/// watchdog only arms on worker threads: an external thread blocking for a
/// long time is ordinary, a starved worker with nothing to help with is a
/// dependency-graph bug.
pub(crate) fn on_any_worker_thread() -> bool {
    CTX.with(|c| c.get().is_some())
}

/// If the calling thread belongs to *some* pool, try to execute one task of
/// that pool.  Returns `true` if a task ran.  Used by futures to help while
/// blocked.
pub(crate) fn try_help_current_thread() -> bool {
    let ctx = CTX.with(|c| c.get());
    let Some(ctx) = ctx else { return false };
    // SAFETY: the pool outlives the worker thread (workers hold an Arc), and
    // we are on a worker thread of exactly this pool.
    let pool = unsafe { &*ctx.pool };
    if let Some(job) = pool.find_task(ctx.local) {
        pool.execute(job);
        true
    } else {
        false
    }
}

/// If the calling thread drives a *deterministic* pool whose queue is empty,
/// return the seed-stamped deadlock report — blocking now could never be
/// woken (single-threaded by construction).  `None` on threaded pools or
/// while runnable tasks remain.
pub(crate) fn current_virtual_stall() -> Option<String> {
    let ctx = CTX.with(|c| c.get())?;
    // SAFETY: as in `try_help_current_thread` — the pool outlives every
    // thread registered with it.
    let pool = unsafe { &*ctx.pool };
    let vs = pool.virtual_sched.as_ref()?;
    let g = vs.lock();
    if g.queue.is_empty() {
        Some(g.stall_report())
    } else {
        None
    }
}

/// Count a blocked-worker watchdog fire on the calling thread's pool (the
/// `/threads/count/watchdog-fires` performance counter), just before the
/// wait panics.
pub(crate) fn note_watchdog_fire() {
    if let Some(ctx) = CTX.with(|c| c.get()) {
        // SAFETY: as in `try_help_current_thread`.
        let pool = unsafe { &*ctx.pool };
        Counters::bump(&pool.counters.watchdog_fires);
    }
}

fn worker_loop(pool: Arc<PoolInner>, local: Deque<Job>) {
    CTX.with(|c| {
        c.set(Some(WorkerCtx {
            pool: Arc::as_ptr(&pool),
            local: Some(&local as *const _),
        }))
    });
    loop {
        if let Some(job) = pool.find_task(Some(&local as *const _)) {
            pool.execute(job);
            continue;
        }
        let mut guard = pool.sleep.lock();
        if guard.shutdown {
            break;
        }
        // Re-check under the lock: a spawner always notifies after pushing,
        // and we re-poll after at most one timeout tick, so no task is lost.
        if !pool.injector.is_empty() {
            continue;
        }
        Counters::bump(&pool.counters.worker_parks);
        pool.wake.wait_for(&mut guard, Duration::from_micros(200));
        if guard.shutdown {
            break;
        }
    }
    CTX.with(|c| c.set(None));
}

/// Spawns tasks that may borrow from the enclosing stack frame.
///
/// Created by [`Runtime::scope`]; all tasks are joined before `scope`
/// returns, which is what makes the borrow sound.
pub struct Scope<'env, 'scope> {
    rt: &'scope Runtime,
    pending: &'scope AtomicUsize,
    panicked: &'scope AtomicBool,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env, 'scope> Scope<'env, 'scope> {
    /// Spawn a task that may borrow data living at least as long as `'env`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let pending: &'static AtomicUsize =
            // SAFETY: `Runtime::scope` does not return until `pending`
            // reaches zero, so this reference never outlives the stack slot.
            unsafe { &*(self.pending as *const AtomicUsize) };
        let panicked: &'static AtomicBool =
            // SAFETY: as above.
            unsafe { &*(self.panicked as *const AtomicBool) };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the closure is joined (pending==0) before `'env` data can
        // be invalidated, because `Runtime::scope` blocks on it.  This is the
        // standard scoped-spawn lifetime erasure (cf. rayon / crossbeam).
        let job: Job = unsafe { std::mem::transmute(job) };
        self.rt.spawn(move || {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                panicked.store(true, Ordering::Release);
            }
            pending.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawn_executes_tasks() {
        let rt = Runtime::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            rt.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.wait_quiescent();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        rt.shutdown();
    }

    #[test]
    fn async_call_returns_value() {
        let rt = Runtime::new(2);
        let f = rt.async_call(|| 1 + 1);
        assert_eq!(f.get(), 2);
        rt.shutdown();
    }

    #[test]
    fn nested_spawn_from_worker_uses_local_queue() {
        let rt = Runtime::new(2);
        let rt2 = rt.clone();
        let f = rt.async_call(move || {
            let inner = rt2.async_call(|| 40);
            inner.get() + 2
        });
        assert_eq!(f.get(), 42);
        rt.shutdown();
    }

    #[test]
    fn scope_joins_borrowing_tasks() {
        let rt = Runtime::new(4);
        let mut data = vec![0u64; 64];
        rt.scope(|s| {
            for chunk in data.chunks_mut(8) {
                s.spawn(move || {
                    for x in chunk {
                        *x += 1;
                    }
                });
            }
        });
        assert!(data.iter().all(|&x| x == 1));
        rt.shutdown();
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let rt = Runtime::new(2);
        let total = Arc::new(AtomicU64::new(0));
        let t = total.clone();
        let rt2 = rt.clone();
        let f = rt.async_call(move || {
            rt2.scope(|outer| {
                for _ in 0..4 {
                    let t = t.clone();
                    let rt3 = rt2.clone();
                    outer.spawn(move || {
                        rt3.scope(|inner| {
                            for _ in 0..4 {
                                let t = t.clone();
                                inner.spawn(move || {
                                    t.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    });
                }
            });
        });
        f.wait();
        assert_eq!(total.load(Ordering::SeqCst), 16);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "scope panicked")]
    fn scope_propagates_task_panic() {
        let rt = Runtime::new(2);
        rt.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    #[test]
    fn scope_body_panic_resumes_after_its_tasks_finish() {
        // The spawned task borrows `done`; the body's panic must not leave
        // the scope (and free what the task borrows) before it finished.
        let rt = Runtime::new(2);
        let done = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    done.store(true, Ordering::Release);
                });
                panic!("body");
            })
        }));
        assert_eq!(panic_message(&*outcome.unwrap_err()), "body");
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn counters_track_spawn_and_execute() {
        let rt = Runtime::new(2);
        let before = rt.counters().snapshot();
        for _ in 0..10 {
            rt.spawn(|| {});
        }
        rt.wait_quiescent();
        let delta = rt.counters().snapshot().since(&before);
        assert_eq!(delta.tasks_spawned, 10);
        assert_eq!(delta.tasks_executed, 10);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = Runtime::new(2);
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn panicking_detached_task_does_not_kill_pool() {
        let rt = Runtime::new(1);
        rt.spawn(|| panic!("contained"));
        rt.wait_quiescent();
        let f = rt.async_call(|| 5);
        assert_eq!(f.get(), 5);
        rt.shutdown();
    }

    fn schedule_order(seed: u64, tasks: usize) -> Vec<usize> {
        let rt = Runtime::deterministic(seed);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        rt.enter(|| {
            for i in 0..tasks {
                let order = order.clone();
                rt.spawn(move || order.lock().push(i));
            }
        });
        rt.run_until_idle();
        let out = order.lock().clone();
        out
    }

    #[test]
    fn deterministic_same_seed_reproduces_schedule() {
        let a = schedule_order(42, 16);
        let b = schedule_order(42, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_seeds_explore_different_orders() {
        let orders: std::collections::HashSet<Vec<usize>> =
            (0..8).map(|s| schedule_order(s, 8)).collect();
        assert!(
            orders.len() > 1,
            "8 seeds over 8 tasks should produce more than one interleaving"
        );
    }

    #[test]
    fn deterministic_async_and_scope_complete_under_enter() {
        let rt = Runtime::deterministic(7);
        let out = rt.enter(|| {
            let f = rt.async_call(|| 20);
            let g = f.then(&rt, |x| x + 2);
            let mut data = [0u64; 16];
            rt.scope(|s| {
                for chunk in data.chunks_mut(4) {
                    s.spawn(move || {
                        for x in chunk {
                            *x += 1;
                        }
                    });
                }
            });
            assert!(data.iter().all(|&x| x == 1));
            g.get()
        });
        assert_eq!(out, 22);
        assert!(rt.is_deterministic());
        assert!(rt.schedule_steps() > 0);
    }

    #[test]
    fn deterministic_wait_on_forgotten_promise_reports_seed() {
        let rt = Runtime::deterministic(99);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rt.enter(|| {
                let (p, f) = crate::future::Promise::<i32>::new_pair();
                std::mem::forget(p);
                f.wait();
            })
        }));
        let msg = panic_message(&*outcome.unwrap_err());
        assert!(msg.contains("deterministic schedule stalled"), "got: {msg}");
        assert!(msg.contains("seed 99"), "got: {msg}");
    }

    #[test]
    fn deterministic_contained_panics_are_recorded() {
        let rt = Runtime::deterministic(3);
        rt.enter(|| rt.spawn(|| panic!("planted double-resolve stand-in")));
        rt.run_until_idle();
        let panics = rt.take_contained_panics();
        assert_eq!(panics.len(), 1);
        assert!(panics[0].contains("planted double-resolve stand-in"));
        assert!(rt.take_contained_panics().is_empty(), "take drains");
    }

    #[test]
    fn heavy_fan_out_stress() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        rt.scope(|s| {
            for _ in 0..1000 {
                let c = counter.clone();
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        rt.shutdown();
    }
}
