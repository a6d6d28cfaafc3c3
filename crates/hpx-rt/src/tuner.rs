//! Online auto-tuning of task granularity (the paper's Figure 9 closed
//! into a loop).
//!
//! The paper's central performance knob is how many HPX tasks each
//! Kokkos-style kernel launch is split into: Figure 9 shows the multipole
//! kernel's runtime swinging several-fold with the split count, and the
//! conclusion calls for APEX-driven analysis to pick it automatically.
//! This module is that loop: a [`Tuner`] searches one bounded ladder of
//! candidate configurations with a hysteresis-banded hill-climb.  The
//! driver climbs the multipole split (`tasks_per_multipole_kernel`) and
//! nothing else.
//!
//! The feedback signal is the apex timer stream: the driver closes one
//! observation window per step (`crate::apex::TimerStats::window_mean_s`
//! and [`crate::apex::Apex::reset_window`]) and feeds the window mean
//! into [`Tuner::observe`].  The tuner answers with the configuration to
//! run the *next* window at.  Decisions are:
//!
//! - **hysteresis-banded**: a candidate must beat the incumbent by a
//!   relative margin (default 5%) to be accepted, so measurement noise
//!   cannot make the tuner oscillate between two near-equal settings;
//! - **converging**: once both ladder directions have been rejected the
//!   climb *freezes* and stops paying probe cost;
//! - **epsilon-greedy**: a frozen climb re-probes one neighbour every
//!   `reprobe_every` windows (deterministically alternating direction),
//!   so a drifting workload is eventually re-detected without randomness;
//! - **topology-aware**: [`Tuner::note_topology`] unfreezes the climb
//!   when a regrid changes the octree's `topology_version`, because the
//!   optimum granularity depends on the work volume the regrid just
//!   changed.  Unchanged versions are free.
//!
//! Safety: the tuner only ever picks values that flow into a
//! chunk-count-independent launch path (plan-frozen summation order,
//! stripe-blocked accumulation), so any choice is bitwise neutral to the
//! physics — see DESIGN.md §8 and `tests/autotune_equivalence.rs`.  Only
//! *decision points* are exposed, so the tuner itself is deterministic
//! given the observed means; the counts in [`TunerSnapshot`] (published
//! as `/octotiger/tuner/*` by `Simulation::counters`) make its activity
//! observable either way.

/// Default relative improvement a candidate must show to be accepted.
pub const DEFAULT_HYSTERESIS: f64 = 0.05;

/// Default frozen windows between epsilon-greedy re-probes.
pub(crate) const DEFAULT_REPROBE_EVERY: u64 = 8;

/// Where the climb currently is in its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunerPhase {
    /// Waiting for the first window at the incumbent configuration.
    #[default]
    Baseline,
    /// Running a window at a candidate neighbour configuration.
    Probing,
    /// Converged; holding the incumbent (until a re-probe or regrid).
    Frozen,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Baseline,
    Probing {
        /// Ladder index to fall back to if the probe is rejected.
        from: usize,
        /// Climb direction (`-1` or `+1`).
        dir: i8,
        /// An epsilon-greedy re-probe out of `Frozen`: a rejection goes
        /// straight back to `Frozen` instead of trying the other side.
        reprobe: bool,
    },
    Frozen,
}

/// Plain-`Copy` snapshot of a [`Tuner`]: the chosen configuration plus
/// the tuner's own activity counts (per-instance, and therefore
/// deterministic under test parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TunerSnapshot {
    /// The configuration the next window runs at.
    pub value: usize,
    /// Search phase at snapshot time.
    pub phase: TunerPhase,
    /// Observation windows spent at probe configurations.
    pub probes: u64,
    /// Accepted configuration moves.
    pub moves: u64,
    /// Freezes after a converged climb (cumulative).
    pub frozen: u64,
    /// Probes reverted for not clearing the hysteresis band.
    pub regressions_rejected: u64,
    /// Full re-probes triggered by a changed `topology_version`.
    pub topology_reprobes: u64,
}

/// The online granularity tuner: one hysteresis-banded hill-climb over a
/// bounded ladder, fed by apex window means.
#[derive(Debug, Clone)]
pub struct Tuner {
    ladder: Vec<usize>,
    idx: usize,
    /// Window mean of the incumbent (EWMA-tracked while frozen so a
    /// drifting workload does not wedge the acceptance baseline).
    best_mean_s: f64,
    phase: Phase,
    /// Which climb directions (`[down, up]`) were rejected since the last
    /// accepted move.
    tried: [bool; 2],
    /// Alternates epsilon re-probe direction deterministically.
    reprobe_flip: bool,
    /// Windows observed while frozen (drives the re-probe cadence).
    frozen_windows: u64,
    hysteresis: f64,
    reprobe_every: u64,
    topology_version: Option<u64>,
    probes: u64,
    moves: u64,
    frozen: u64,
    regressions_rejected: u64,
    topology_reprobes: u64,
}

impl Tuner {
    /// Climb `ladder` (strictly increasing) from the ladder point nearest
    /// `start`, with the default hysteresis band and re-probe cadence.
    pub fn new(ladder: Vec<usize>, start: usize) -> Tuner {
        Self::with_params(ladder, start, DEFAULT_HYSTERESIS, DEFAULT_REPROBE_EVERY)
    }

    /// [`Self::new`] with an explicit hysteresis band (relative
    /// improvement a candidate must clear) and frozen re-probe cadence (in
    /// windows).
    pub fn with_params(
        ladder: Vec<usize>,
        start: usize,
        hysteresis: f64,
        reprobe_every: u64,
    ) -> Tuner {
        assert!(!ladder.is_empty(), "tuning ladder must not be empty");
        assert!(
            ladder.windows(2).all(|w| w[0] < w[1]),
            "tuning ladder must be strictly increasing"
        );
        assert!(
            (0.0..1.0).contains(&hysteresis),
            "hysteresis must be a relative margin in [0, 1)"
        );
        // Start at the ladder point closest to the configured default so
        // switching the tuner on never jumps away from a hand-tuned value.
        let idx = (0..ladder.len())
            .min_by_key(|&i| ladder[i].abs_diff(start))
            .unwrap_or(0);
        Tuner {
            ladder,
            idx,
            best_mean_s: f64::INFINITY,
            phase: Phase::Baseline,
            tried: [false; 2],
            reprobe_flip: false,
            frozen_windows: 0,
            hysteresis,
            reprobe_every: reprobe_every.max(1),
            topology_version: None,
            probes: 0,
            moves: 0,
            frozen: 0,
            regressions_rejected: 0,
            topology_reprobes: 0,
        }
    }

    /// The configuration the next window should run at.
    pub fn current(&self) -> usize {
        self.ladder[self.idx]
    }

    /// Whether the climb has converged (and is not currently re-probing).
    pub fn is_frozen(&self) -> bool {
        self.phase == Phase::Frozen
    }

    /// Feed one closed observation window (mean seconds) measured at the
    /// current configuration.  Returns the configuration for the next
    /// window.
    pub fn observe(&mut self, mean_s: f64) -> usize {
        match self.phase {
            Phase::Baseline => {
                self.best_mean_s = mean_s;
                self.tried = [false; 2];
                self.start_probe();
            }
            Phase::Probing { from, dir, reprobe } => {
                if mean_s < self.best_mean_s * (1.0 - self.hysteresis) {
                    // Accept: the candidate beat the incumbent beyond the
                    // band.  Keep climbing the same direction; we just
                    // came from the other side, so it is known-worse.
                    self.best_mean_s = mean_s;
                    self.moves += 1;
                    self.tried = [false; 2];
                    self.tried[dir_slot(-dir)] = true;
                    if !self.probe(dir, false) {
                        self.tried[dir_slot(dir)] = true;
                        self.start_probe();
                    }
                } else {
                    // Reject: revert to the incumbent.
                    self.regressions_rejected += 1;
                    self.idx = from;
                    self.tried[dir_slot(dir)] = true;
                    if reprobe {
                        // Epsilon re-probe failed: straight back to sleep.
                        self.freeze();
                    } else {
                        self.start_probe();
                    }
                }
            }
            Phase::Frozen => {
                // Track the incumbent with a decayed mean so slow workload
                // drift moves the acceptance baseline instead of wedging it.
                self.best_mean_s = if self.best_mean_s.is_finite() {
                    0.8 * self.best_mean_s + 0.2 * mean_s
                } else {
                    mean_s
                };
                self.frozen_windows += 1;
                if self.frozen_windows.is_multiple_of(self.reprobe_every) {
                    // Deterministic epsilon-greedy re-probe, alternating
                    // direction each time.
                    let dir = if self.reprobe_flip { -1 } else { 1 };
                    self.reprobe_flip = !self.reprobe_flip;
                    if !self.probe(dir, true) {
                        self.probe(-dir, true);
                    }
                }
            }
        }
        self.current()
    }

    /// Note the octree topology version the coming step runs under.  A
    /// change (a regrid that actually refined/derefined) resets the climb
    /// to `Baseline` so the whole ladder is re-searched against the new
    /// work volume; an unchanged version is free.  Returns whether a
    /// re-probe was triggered.
    pub fn note_topology(&mut self, version: u64) -> bool {
        match self.topology_version.replace(version) {
            // First sighting: the baseline search is already pending;
            // don't count construction as a regrid.
            None => false,
            Some(v) if v == version => false,
            Some(_) => {
                self.topology_reprobes += 1;
                self.phase = Phase::Baseline;
                self.best_mean_s = f64::INFINITY;
                self.tried = [false; 2];
                self.frozen_windows = 0;
                true
            }
        }
    }

    /// `Copy` snapshot of the chosen config + activity counts.
    pub fn snapshot(&self) -> TunerSnapshot {
        TunerSnapshot {
            value: self.current(),
            phase: match self.phase {
                Phase::Baseline => TunerPhase::Baseline,
                Phase::Probing { .. } => TunerPhase::Probing,
                Phase::Frozen => TunerPhase::Frozen,
            },
            probes: self.probes,
            moves: self.moves,
            frozen: self.frozen,
            regressions_rejected: self.regressions_rejected,
            topology_reprobes: self.topology_reprobes,
        }
    }

    /// Move one rung in `dir` and probe there; `false` at the ladder edge.
    fn probe(&mut self, dir: i8, reprobe: bool) -> bool {
        let next = if dir < 0 {
            self.idx.checked_sub(1)
        } else {
            Some(self.idx + 1).filter(|&i| i < self.ladder.len())
        };
        let Some(next) = next else {
            return false;
        };
        self.phase = Phase::Probing {
            from: self.idx,
            dir,
            reprobe,
        };
        self.idx = next;
        self.probes += 1;
        true
    }

    /// Start probing from the current incumbent: prefer an untried
    /// direction with a neighbour; freeze if none is left.
    fn start_probe(&mut self) {
        for dir in [1i8, -1] {
            if self.tried[dir_slot(dir)] {
                continue;
            }
            if self.probe(dir, false) {
                return;
            }
            // No neighbour on that side: the ladder edge counts as tried.
            self.tried[dir_slot(dir)] = true;
        }
        self.freeze();
    }

    fn freeze(&mut self) {
        if self.phase != Phase::Frozen {
            self.frozen += 1;
        }
        self.phase = Phase::Frozen;
        self.frozen_windows = 0;
    }
}

/// Index of a climb direction in `Tuner::tried`.
fn dir_slot(dir: i8) -> usize {
    usize::from(dir > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cost curve: unimodal in the ladder value, minimum at
    /// `opt`.  Models Figure 9's split-count sweep.
    fn cost(value: usize, opt: f64) -> f64 {
        let v = value as f64;
        // Oversplit overhead grows linearly, undersplit starves linearly
        // in the log of the ratio — smooth, unimodal, > 0.
        let r = (v / opt).ln().abs();
        1.0 + r
    }

    fn drive_to_frozen(t: &mut Tuner, opt: f64, max_windows: usize) {
        for _ in 0..max_windows {
            t.observe(cost(t.current(), opt));
            if t.is_frozen() {
                return;
            }
        }
        panic!("did not converge in {max_windows} windows");
    }

    #[test]
    fn hill_climb_finds_the_unimodal_optimum() {
        let mut t = Tuner::new(vec![1, 2, 4, 8, 16, 32], 1);
        drive_to_frozen(&mut t, 8.0, 32);
        assert_eq!(t.current(), 8);
        assert!(t.is_frozen());
        let snap = t.snapshot();
        assert!(snap.moves >= 3, "1→2→4→8 needs 3 accepts, got {snap:?}");
        assert!(snap.regressions_rejected >= 1, "16 must be rejected");
        assert_eq!(snap.frozen, 1);
        assert_eq!(snap.value, 8);
        assert_eq!(snap.phase, TunerPhase::Frozen);
    }

    #[test]
    fn climbs_down_when_the_start_oversplits() {
        let mut t = Tuner::new(vec![1, 2, 4, 8, 16], 16);
        drive_to_frozen(&mut t, 2.0, 32);
        assert_eq!(t.current(), 2);
    }

    #[test]
    fn hysteresis_rejects_noise_level_improvements() {
        let mut t = Tuner::with_params(vec![1, 2, 4], 2, 0.05, 8);
        // Baseline at 2.
        t.observe(1.0);
        // Every candidate is 2% "better" — inside the band, so each probe
        // must be rejected and the incumbent kept.
        while !t.is_frozen() {
            t.observe(0.98);
        }
        assert_eq!(t.current(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.moves, 0);
        assert_eq!(snap.regressions_rejected, 2);
    }

    #[test]
    fn frozen_families_reprobe_on_cadence_and_adopt_a_shifted_optimum() {
        let mut t = Tuner::with_params(vec![1, 2, 4, 8], 1, 0.05, 4);
        drive_to_frozen(&mut t, 2.0, 32);
        assert_eq!(t.current(), 2);
        let probes_frozen = t.snapshot().probes;
        // The workload drifts: 8 is now optimal.  The frozen climb must
        // wake on its epsilon cadence and walk there.
        for _ in 0..64 {
            t.observe(cost(t.current(), 8.0));
        }
        assert_eq!(t.current(), 8);
        assert!(t.snapshot().probes > probes_frozen, "re-probes must fire");
    }

    #[test]
    fn frozen_family_pays_no_probe_cost_between_reprobes() {
        let mut t = Tuner::with_params(vec![1, 2], 1, 0.05, 8);
        drive_to_frozen(&mut t, 1.0, 16);
        let v = t.current();
        let probes = t.snapshot().probes;
        // Seven windows inside the cadence: config must not move.
        for _ in 0..7 {
            assert_eq!(t.observe(cost(v, 1.0)), v);
        }
        assert_eq!(t.snapshot().probes, probes);
    }

    #[test]
    fn topology_change_unfreezes_exactly_once_per_version() {
        let mut t = Tuner::new(vec![1, 2, 4], 1);
        assert!(!t.note_topology(7), "first sighting is not a regrid");
        drive_to_frozen(&mut t, 2.0, 32);
        assert!(!t.note_topology(7), "unchanged version is free");
        assert!(t.is_frozen());
        assert!(t.note_topology(8), "changed version must re-probe");
        assert!(!t.is_frozen());
        assert_eq!(t.snapshot().topology_reprobes, 1);
        // Same version again: no second re-probe.
        assert!(!t.note_topology(8));
        assert_eq!(t.snapshot().topology_reprobes, 1);
    }

    #[test]
    fn start_snaps_to_nearest_ladder_point() {
        let t = Tuner::new(vec![1, 2, 4, 8], 5);
        assert_eq!(t.current(), 4);
    }

    #[test]
    fn single_point_ladder_freezes_immediately() {
        let mut t = Tuner::new(vec![3], 3);
        t.observe(1.0);
        assert!(t.is_frozen());
        assert_eq!(t.current(), 3);
    }
}
