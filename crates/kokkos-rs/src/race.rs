//! Happens-before race detection for [`View`] accesses at
//! kernel-launch boundaries.
//!
//! The HPX-Kokkos integration overlaps kernels aggressively: a launch only
//! waits for the futures it is explicitly chained after.  Two overlapped
//! kernels that touch the same view without an ordering edge between them are
//! a data race — exactly the class of bug the paper's stack hunts with
//! sanitizers, and one that surfaces here as a rare wrong answer rather than
//! a crash.  This module keeps *shadow state* per view (last writer, current
//! readers) and validates every declared access when a launch is registered:
//! a conflicting access whose prior site is not a happens-before ancestor of
//! the new launch aborts with **both** launch sites.
//!
//! The detector checks declared access sets, not individual loads/stores, so
//! it is cheap enough to leave on in debug runs and in the `hpx-check` CI
//! job, whose stepper-shaped models register every launch through
//! [`RaceDetector::launch`].

use crate::view::{View, ViewId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// How a kernel touches a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The kernel only reads the view.
    Read,
    /// The kernel writes (or reads and writes) the view.
    Write,
}

/// One declared view access of a kernel launch.
#[derive(Debug, Clone)]
pub struct ViewAccess {
    /// Identity of the accessed allocation.
    pub view: ViewId,
    /// The view's label, for diagnostics.
    pub label: String,
    /// Read or write.
    pub kind: AccessKind,
}

impl ViewAccess {
    /// Declare a read of `view`.
    pub fn read<T>(view: &View<T>) -> Self {
        ViewAccess {
            view: view.id(),
            label: view.label().to_owned(),
            kind: AccessKind::Read,
        }
    }

    /// Declare a write of `view`.
    pub fn write<T>(view: &View<T>) -> Self {
        ViewAccess {
            view: view.id(),
            label: view.label().to_owned(),
            kind: AccessKind::Write,
        }
    }

    /// Declare a read of the allocation identified by `id` — for storage
    /// tracked by identity alone (e.g. a pooled [`crate::pool::Recycled`]
    /// scratch buffer), without a full `View` in hand.
    pub fn read_id(id: ViewId, label: impl Into<String>) -> Self {
        ViewAccess {
            view: id,
            label: label.into(),
            kind: AccessKind::Read,
        }
    }

    /// Declare a write of the allocation identified by `id`.
    pub fn write_id(id: ViewId, label: impl Into<String>) -> Self {
        ViewAccess {
            view: id,
            label: label.into(),
            kind: AccessKind::Write,
        }
    }
}

/// Opaque handle for one registered launch, used to declare ordering edges
/// of later launches (`deps` in [`RaceDetector::launch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchToken(usize);

/// A detected unordered conflicting access, naming both launch sites.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Label of the view both launches touch.
    pub view_label: String,
    /// `"write-write"`, `"write-read"`, or `"read-write"`
    /// (prior access first).
    pub conflict: &'static str,
    /// Site string of the earlier, conflicting launch.
    pub prior_site: String,
    /// Site string of the launch being registered.
    pub site: String,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kokkos-rs: data race on view `{}`: {} conflict between launch \
             `{}` and launch `{}` with no happens-before edge between them",
            self.view_label, self.conflict, self.prior_site, self.site
        )
    }
}

impl std::error::Error for RaceReport {}

#[derive(Default)]
struct ViewState {
    last_writer: Option<usize>,
    readers: Vec<usize>,
}

#[derive(Default)]
struct DetectorState {
    /// Site string per launch, indexed by `LaunchToken.0`.
    sites: Vec<String>,
    /// Transitive happens-before ancestors per launch (excluding itself).
    ancestors: Vec<HashSet<usize>>,
    views: HashMap<ViewId, ViewState>,
}

/// Shadow-state happens-before checker for view accesses.
///
/// Register every kernel launch with its site, its ordering dependencies
/// (tokens of launches it is chained after), and its declared view accesses.
/// Registration fails with a [`RaceReport`] when a conflicting prior access
/// is not ordered before the new launch.
#[derive(Default)]
pub struct RaceDetector {
    state: Mutex<DetectorState>,
}

impl RaceDetector {
    /// Fresh detector with no recorded launches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a launch.  `deps` are the launches this one is ordered
    /// after (their ancestors are inherited transitively); `accesses`
    /// declares every view the kernel touches.
    ///
    /// All accesses are validated against the shadow state before any of
    /// them is committed, so a failed registration leaves the detector
    /// unchanged.
    pub fn launch(
        &self,
        site: &str,
        deps: &[LaunchToken],
        accesses: &[ViewAccess],
    ) -> Result<LaunchToken, RaceReport> {
        let mut g = self.state.lock();
        let id = g.sites.len();
        let mut ancestors: HashSet<usize> = HashSet::new();
        for d in deps {
            assert!(d.0 < id, "kokkos-rs: race detector: unknown dep token");
            ancestors.insert(d.0);
            ancestors.extend(g.ancestors[d.0].iter().copied());
        }
        // Validate first …
        for a in accesses {
            let Some(vs) = g.views.get(&a.view) else {
                continue;
            };
            let conflict = |prior: usize, kind: &'static str| RaceReport {
                view_label: a.label.clone(),
                conflict: kind,
                prior_site: g.sites[prior].clone(),
                site: site.to_owned(),
            };
            if let Some(w) = vs.last_writer {
                if !ancestors.contains(&w) {
                    return Err(conflict(
                        w,
                        if a.kind == AccessKind::Write {
                            "write-write"
                        } else {
                            "write-read"
                        },
                    ));
                }
            }
            if a.kind == AccessKind::Write {
                if let Some(&r) = vs.readers.iter().find(|r| !ancestors.contains(r)) {
                    return Err(conflict(r, "read-write"));
                }
            }
        }
        // … then commit.
        for a in accesses {
            let vs = g.views.entry(a.view).or_default();
            match a.kind {
                AccessKind::Write => {
                    vs.last_writer = Some(id);
                    vs.readers.clear();
                }
                AccessKind::Read => vs.readers.push(id),
            }
        }
        g.sites.push(site.to_owned());
        g.ancestors.push(ancestors);
        Ok(LaunchToken(id))
    }

    /// Number of launches registered so far.
    pub fn launches(&self) -> usize {
        self.state.lock().sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(label: &str) -> View<f64> {
        View::new_1d(label, 8)
    }

    #[test]
    fn ordered_write_then_read_is_clean() {
        let det = RaceDetector::new();
        let a = v("rho");
        let w = det.launch("init", &[], &[ViewAccess::write(&a)]).unwrap();
        det.launch("flux", &[w], &[ViewAccess::read(&a)]).unwrap();
        assert_eq!(det.launches(), 2);
    }

    #[test]
    fn unordered_write_write_names_both_sites() {
        let det = RaceDetector::new();
        let a = v("rho");
        det.launch("kernel_a", &[], &[ViewAccess::write(&a)])
            .unwrap();
        let err = det
            .launch("kernel_b", &[], &[ViewAccess::write(&a)])
            .unwrap_err();
        assert_eq!(err.conflict, "write-write");
        assert_eq!(err.prior_site, "kernel_a");
        assert_eq!(err.site, "kernel_b");
        let text = err.to_string();
        assert!(text.contains("kernel_a") && text.contains("kernel_b"));
    }

    #[test]
    fn unordered_read_after_write_is_flagged() {
        let det = RaceDetector::new();
        let a = v("rho");
        det.launch("writer", &[], &[ViewAccess::write(&a)]).unwrap();
        let err = det
            .launch("reader", &[], &[ViewAccess::read(&a)])
            .unwrap_err();
        assert_eq!(err.conflict, "write-read");
    }

    #[test]
    fn write_over_unordered_reader_is_flagged() {
        let det = RaceDetector::new();
        let a = v("rho");
        let w = det.launch("init", &[], &[ViewAccess::write(&a)]).unwrap();
        det.launch("reader", &[w], &[ViewAccess::read(&a)]).unwrap();
        let err = det
            .launch("writer2", &[w], &[ViewAccess::write(&a)])
            .unwrap_err();
        assert_eq!(err.conflict, "read-write");
        assert_eq!(err.prior_site, "reader");
    }

    #[test]
    fn concurrent_readers_are_fine() {
        let det = RaceDetector::new();
        let a = v("rho");
        let w = det.launch("init", &[], &[ViewAccess::write(&a)]).unwrap();
        let r1 = det.launch("r1", &[w], &[ViewAccess::read(&a)]).unwrap();
        let r2 = det.launch("r2", &[w], &[ViewAccess::read(&a)]).unwrap();
        // A writer ordered after *both* readers is fine.
        det.launch("sum", &[r1, r2], &[ViewAccess::write(&a)])
            .unwrap();
    }

    #[test]
    fn ordering_is_transitive() {
        let det = RaceDetector::new();
        let a = v("rho");
        let w = det.launch("init", &[], &[ViewAccess::write(&a)]).unwrap();
        let mid = det.launch("mid", &[w], &[]).unwrap();
        // `late` only names `mid`, but inherits `init` transitively.
        det.launch("late", &[mid], &[ViewAccess::write(&a)])
            .unwrap();
    }

    #[test]
    fn distinct_views_never_conflict() {
        let det = RaceDetector::new();
        let a = v("rho");
        let b = v("rho"); // same label, different allocation
        det.launch("ka", &[], &[ViewAccess::write(&a)]).unwrap();
        det.launch("kb", &[], &[ViewAccess::write(&b)]).unwrap();
    }

    #[test]
    fn failed_registration_leaves_state_unchanged() {
        let det = RaceDetector::new();
        let a = v("rho");
        let w = det.launch("init", &[], &[ViewAccess::write(&a)]).unwrap();
        assert!(det.launch("bad", &[], &[ViewAccess::write(&a)]).is_err());
        // The failed launch must not have committed its write: a launch
        // ordered after `init` alone is still clean.
        det.launch("good", &[w], &[ViewAccess::write(&a)]).unwrap();
    }
}
