//! Loom-lite schedule-exploring model checker.
//!
//! `hpx_rt::Runtime::deterministic(seed)` replaces the work-stealing pool
//! with a virtual single-threaded scheduler: every spawned task goes into
//! one queue and a seeded xorshift picks which runnable task executes next.
//! Re-running the same seed replays the same interleaving exactly.
//!
//! [`ModelChecker::explore`] drives a scenario-under-test through a budget
//! of such schedules and collects, per failing seed:
//!
//! * panics escaping the driving closure (double-resolve, abandoned-input
//!   combinators, stalled waits — the runtime converts a lost wakeup into a
//!   "deterministic schedule stalled" panic carrying the seed);
//! * panics *contained* inside detached tasks
//!   ([`hpx_rt::Runtime::take_contained_panics`]), which a threaded pool
//!   would only print to stderr.
//!
//! Every failure report names the seed; [`ModelChecker::replay`] re-runs
//! exactly that interleaving for debugging.

use hpx_rt::Runtime;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One failing interleaving.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Seed reproducing the interleaving: `Runtime::deterministic(seed)`.
    pub seed: u64,
    /// Virtual scheduler steps executed before the failure.
    pub steps: u64,
    /// The panic message(s) observed, newline-joined.
    pub report: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} (after {} tasks): {} — replay with Runtime::deterministic({})",
            self.seed, self.steps, self.report, self.seed
        )
    }
}

/// Outcome of an exploration run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// How many distinct schedules were executed.
    pub schedules_run: usize,
    /// Every schedule that panicked, stalled, or contained task panics.
    pub failures: Vec<ScheduleFailure>,
}

impl CheckReport {
    /// `true` when no explored schedule failed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "{} schedules explored, all clean", self.schedules_run)
        } else {
            writeln!(
                f,
                "{} schedules explored, {} failed:",
                self.schedules_run,
                self.failures.len()
            )?;
            for fail in &self.failures {
                writeln!(f, "  {fail}")?;
            }
            Ok(())
        }
    }
}

/// Schedule-exploring model checker over the deterministic runtime.
#[derive(Debug, Clone, Copy)]
pub struct ModelChecker {
    /// Number of distinct seeds to explore.
    pub schedules: usize,
    /// First seed; schedule `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Per-schedule virtual-step budget (guards against livelock in the
    /// scenario under test; 0 means unbounded).
    pub max_steps: u64,
}

impl Default for ModelChecker {
    fn default() -> Self {
        ModelChecker {
            schedules: 64,
            base_seed: 1,
            max_steps: 5_000_000,
        }
    }
}

impl ModelChecker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn schedules(mut self, n: usize) -> Self {
        self.schedules = n;
        self
    }

    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Run `build` under `self.schedules` seeded interleavings.
    ///
    /// `build` receives the deterministic runtime and must construct the
    /// future graph under test *and* wait on (or attach assertions to) its
    /// sinks — a dangling unresolved sink with no waiter is invisible.  The
    /// runtime is drained after `build` returns, so detached continuations
    /// still execute.
    pub fn explore<F>(&self, build: F) -> CheckReport
    where
        F: Fn(&Runtime),
    {
        let mut failures = Vec::new();
        for i in 0..self.schedules {
            let seed = self.base_seed.wrapping_add(i as u64);
            if let Some(failure) = run_schedule(seed, self.max_steps, &build) {
                failures.push(failure);
            }
        }
        CheckReport {
            schedules_run: self.schedules,
            failures,
        }
    }

    /// Re-run exactly one interleaving (a seed from a failure report).
    pub fn replay<F>(&self, seed: u64, build: F) -> Option<ScheduleFailure>
    where
        F: Fn(&Runtime),
    {
        run_schedule(seed, self.max_steps, &build)
    }
}

fn run_schedule<F>(seed: u64, max_steps: u64, build: &F) -> Option<ScheduleFailure>
where
    F: Fn(&Runtime),
{
    let rt = Runtime::deterministic(seed);
    if max_steps != 0 {
        rt.set_schedule_step_budget(max_steps);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rt.enter(|| build(&rt));
        rt.run_until_idle();
    }));
    let mut reports = rt.take_contained_panics();
    if let Err(payload) = outcome {
        reports.push(panic_text(&*payload));
    }
    if reports.is_empty() {
        None
    } else {
        Some(ScheduleFailure {
            seed,
            steps: rt.schedule_steps(),
            report: reports.join("\n"),
        })
    }
}

/// Best-effort text of a panic payload (mirrors hpx-rt's internal helper;
/// note the payload must be deref'd out of its `Box` or the `Box` itself is
/// the `Any` and both downcasts miss).
fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpx_rt::Promise;

    #[test]
    fn clean_graph_explores_clean() {
        let report = ModelChecker::new().schedules(8).explore(|rt| {
            let (p, f) = Promise::<u32>::new_pair();
            let g = f.then(rt, |v| v + 1);
            rt.spawn(move || p.set(41));
            g.wait();
        });
        assert!(report.is_clean(), "unexpected failures: {report}");
        assert_eq!(report.schedules_run, 8);
    }

    #[test]
    fn forgotten_promise_stalls_with_replayable_seed() {
        let checker = ModelChecker::new().schedules(4);
        let report = checker.explore(|rt| {
            let (p, f) = Promise::<u32>::new_pair();
            // The bug: the resolving task never runs because the promise
            // is leaked un-set (mem::forget defeats abandonment-on-drop).
            std::mem::forget(p);
            let _ = rt;
            f.wait();
        });
        assert_eq!(report.failures.len(), 4, "every schedule must stall");
        let failure = &report.failures[0];
        assert!(
            failure.report.contains("deterministic schedule stalled"),
            "got: {}",
            failure.report
        );
        assert!(
            failure.report.contains(&format!("seed {}", failure.seed)),
            "stall report must carry its seed: {}",
            failure.report
        );
        // The seed replays to the same failure.
        let replayed = checker
            .replay(failure.seed, |rt| {
                let (p, f) = Promise::<u32>::new_pair();
                std::mem::forget(p);
                let _ = rt;
                f.wait();
            })
            .expect("replay must reproduce the stall");
        assert_eq!(replayed.report, failure.report);
    }

    #[test]
    fn contained_task_panics_are_collected() {
        let report = ModelChecker::new().schedules(3).explore(|rt| {
            rt.spawn(|| panic!("planted detached-task panic"));
        });
        assert_eq!(report.failures.len(), 3);
        assert!(report.failures[0]
            .report
            .contains("planted detached-task panic"));
    }
}
