//! Online auto-tuning of task granularity (the paper's Figure 9 closed
//! into a loop).
//!
//! The paper's central performance knob is how many HPX tasks each
//! Kokkos-style kernel launch is split into: Figure 9 shows the multipole
//! kernel's runtime swinging several-fold with the split count, and the
//! conclusion calls for APEX-driven analysis to pick it automatically.
//! This module is that loop: a [`Tuner`] holds one [`TuningState`] per
//! *kernel family* (multipole M2L, P2P evaluation, slot-table passes,
//! hydro RHS, the pipelined-vs-barrier stepper switch), each searching a
//! bounded ladder of candidate configurations with a hysteresis-banded
//! hill-climb.
//!
//! The feedback signal is the apex timer stream: the driver closes one
//! observation window per step ([`crate::apex::TimerStats::window_mean_s`]
//! and [`crate::apex::Apex::reset_window`]) and feeds the window mean
//! into [`Tuner::observe`].  The tuner answers with the configuration to
//! run the *next* window at.  Decisions are:
//!
//! - **hysteresis-banded**: a candidate must beat the incumbent by a
//!   relative margin (default 5%) to be accepted, so measurement noise
//!   cannot make the tuner oscillate between two near-equal settings;
//! - **converging**: once both ladder directions have been rejected the
//!   family *freezes* and stops paying probe cost;
//! - **epsilon-greedy**: a frozen family re-probes one neighbour every
//!   `reprobe_every` windows (deterministically alternating direction),
//!   so a drifting workload is eventually re-detected without randomness;
//! - **topology-aware**: [`Tuner::note_topology`] unfreezes every family
//!   when a regrid changes the octree's `topology_version`, because the
//!   optimum granularity depends on the work volume the regrid just
//!   changed.  Unchanged versions are free.
//!
//! Safety: the tuner only ever picks values that flow into the existing
//! chunk-count-independent launch paths (plan-frozen summation order,
//! stripe-blocked accumulation, lane-aligned `split`), so any choice is
//! bitwise neutral to the physics — see DESIGN.md §8 and
//! `tests/autotune_equivalence.rs`.  Only *decision points* are exposed, so
//! the tuner itself is deterministic given the observed means; the
//! per-tuner counts in [`TunerSnapshot`] (published as
//! `/octotiger/tuner/*` by `Simulation::counters`) make its activity
//! observable either way.

/// Upper bound on families a [`TunerSnapshot`] can carry.  Snapshots ride
/// inside per-step stats structs that are `Copy`, so the family table is a
/// fixed-size array rather than a heap vector.
pub const MAX_FAMILIES: usize = 8;

/// Default relative improvement a candidate must show to be accepted.
pub const DEFAULT_HYSTERESIS: f64 = 0.05;

/// Default frozen windows between epsilon-greedy re-probes.
pub const DEFAULT_REPROBE_EVERY: u64 = 8;

/// Where one kernel family currently is in its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyPhase {
    /// Waiting for the first window at the incumbent configuration.
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

/// The per-kernel-family search state: a bounded ladder of candidate
/// configurations and a hysteresis-banded hill-climb position on it.
#[derive(Debug, Clone)]
pub struct TuningState {
    name: &'static str,
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
}

impl TuningState {
    fn new(name: &'static str, ladder: Vec<usize>, start: usize) -> TuningState {
        assert!(!ladder.is_empty(), "tuning ladder must not be empty");
        assert!(
            ladder.windows(2).all(|w| w[0] < w[1]),
            "tuning ladder must be strictly increasing"
        );
        // Start at the ladder point closest to the configured default so
        // switching the tuner on never jumps away from a hand-tuned value.
        let idx = ladder
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v.abs_diff(start))
            .map(|(i, _)| i)
            .expect("non-empty ladder");
        TuningState {
            name,
            ladder,
            idx,
            best_mean_s: f64::INFINITY,
            phase: Phase::Baseline,
            tried: [false; 2],
            reprobe_flip: false,
            frozen_windows: 0,
        }
    }

    fn value(&self) -> usize {
        self.ladder[self.idx]
    }

    fn phase(&self) -> FamilyPhase {
        match self.phase {
            Phase::Baseline => FamilyPhase::Baseline,
            Phase::Probing { .. } => FamilyPhase::Probing,
            Phase::Frozen => FamilyPhase::Frozen,
        }
    }

    fn neighbour(&self, dir: i8) -> Option<usize> {
        if dir < 0 {
            self.idx.checked_sub(1)
        } else if self.idx + 1 < self.ladder.len() {
            Some(self.idx + 1)
        } else {
            None
        }
    }

    fn dir_slot(dir: i8) -> usize {
        usize::from(dir > 0)
    }
}

/// One entry of a [`TunerSnapshot`]: the configuration a kernel family is
/// currently running at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family name (empty in unused slots).
    pub family: &'static str,
    /// The chosen configuration value.
    pub value: usize,
    /// Search phase at snapshot time.
    pub phase: FamilyPhase,
}

impl Default for FamilySnapshot {
    fn default() -> Self {
        FamilySnapshot {
            family: "",
            value: 0,
            phase: FamilyPhase::Baseline,
        }
    }
}

/// Plain-`Copy` snapshot of a [`Tuner`]: the per-family chosen configs
/// plus the tuner's own activity counts (per-instance, and therefore
/// deterministic under test parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TunerSnapshot {
    /// Per-family entries; only the first [`Self::len`] are meaningful.
    pub families: [FamilySnapshot; MAX_FAMILIES],
    /// Number of registered families.
    pub len: usize,
    /// Observation windows spent at probe configurations.
    pub probes: u64,
    /// Accepted configuration moves.
    pub moves: u64,
    /// Families frozen after a converged climb (cumulative freeze events).
    pub frozen: u64,
    /// Probes reverted for not clearing the hysteresis band.
    pub regressions_rejected: u64,
    /// Full re-probes triggered by a changed `topology_version`.
    pub topology_reprobes: u64,
}

impl TunerSnapshot {
    /// Iterate over the registered family entries.
    pub fn iter(&self) -> impl Iterator<Item = &FamilySnapshot> {
        self.families[..self.len].iter()
    }

    /// Chosen configuration of `family`, if registered.
    pub fn value_of(&self, family: &str) -> Option<usize> {
        self.iter().find(|f| f.family == family).map(|f| f.value)
    }
}

/// The online granularity tuner: one hysteresis-banded hill-climb per
/// registered kernel family, fed by apex window means.
#[derive(Debug, Clone)]
pub struct Tuner {
    families: Vec<TuningState>,
    hysteresis: f64,
    reprobe_every: u64,
    topology_version: Option<u64>,
    /// Round-robin cursor for [`Self::observe_shared`] groups.
    shared_cursor: usize,
    probes: u64,
    moves: u64,
    frozen: u64,
    regressions_rejected: u64,
    topology_reprobes: u64,
}

impl Default for Tuner {
    fn default() -> Self {
        Self::new()
    }
}

impl Tuner {
    /// Tuner with the default hysteresis band and re-probe cadence.
    pub fn new() -> Tuner {
        Self::with_params(DEFAULT_HYSTERESIS, DEFAULT_REPROBE_EVERY)
    }

    /// Tuner with an explicit hysteresis band (relative improvement a
    /// candidate must clear) and frozen re-probe cadence (in windows).
    pub fn with_params(hysteresis: f64, reprobe_every: u64) -> Tuner {
        assert!(
            (0.0..1.0).contains(&hysteresis),
            "hysteresis must be a relative margin in [0, 1)"
        );
        Tuner {
            families: Vec::new(),
            hysteresis,
            reprobe_every: reprobe_every.max(1),
            topology_version: None,
            shared_cursor: 0,
            probes: 0,
            moves: 0,
            frozen: 0,
            regressions_rejected: 0,
            topology_reprobes: 0,
        }
    }

    /// Register a kernel family searching `ladder` (strictly increasing),
    /// starting at the ladder point nearest `start`.
    pub fn register(&mut self, family: &'static str, ladder: Vec<usize>, start: usize) {
        assert!(
            self.families.len() < MAX_FAMILIES,
            "at most {MAX_FAMILIES} kernel families per tuner"
        );
        assert!(
            self.state(family).is_none(),
            "kernel family {family:?} registered twice"
        );
        self.families.push(TuningState::new(family, ladder, start));
    }

    fn state(&self, family: &str) -> Option<&TuningState> {
        self.families.iter().find(|s| s.name == family)
    }

    fn state_mut(&mut self, family: &str) -> &mut TuningState {
        self.families
            .iter_mut()
            .find(|s| s.name == family)
            .unwrap_or_else(|| panic!("unregistered kernel family {family:?}"))
    }

    /// The configuration `family` should run the next window at.
    pub fn current(&self, family: &str) -> usize {
        self.state(family)
            .unwrap_or_else(|| panic!("unregistered kernel family {family:?}"))
            .value()
    }

    /// Whether `family` has converged (and is not currently re-probing).
    pub fn is_frozen(&self, family: &str) -> bool {
        self.state(family)
            .unwrap_or_else(|| panic!("unregistered kernel family {family:?}"))
            .phase
            == Phase::Frozen
    }

    /// Feed one closed observation window (mean seconds) measured while
    /// `family` ran at its current configuration.  Returns the
    /// configuration for the next window.
    pub fn observe(&mut self, family: &str, window_mean_s: f64) -> usize {
        let hysteresis = self.hysteresis;
        let reprobe_every = self.reprobe_every;
        let mut delta = CounterDelta::default();
        let s = self.state_mut(family);
        step_state(s, window_mean_s, hysteresis, reprobe_every, &mut delta);
        let next = s.value();
        self.apply(delta);
        next
    }

    /// Feed one window of a timer signal *shared* by several families
    /// (e.g. the three gravity knobs all move `gravity:kernels`).  Only
    /// one family may interpret a shared window, otherwise a probe by one
    /// family would be mis-attributed to the others; the family currently
    /// mid-probe owns the signal, and when none is probing the turn
    /// advances round-robin so every family still gets baseline windows
    /// and re-probe chances.  Returns the family that observed.
    pub fn observe_shared(&mut self, group: &[&str], window_mean_s: f64) -> &'static str {
        assert!(!group.is_empty(), "shared signal group must not be empty");
        let owner = group
            .iter()
            .find(|f| {
                matches!(
                    self.state(f).map(|s| s.phase),
                    Some(Phase::Probing { .. }) | Some(Phase::Baseline)
                )
            })
            .copied()
            .unwrap_or_else(|| {
                let pick = group[self.shared_cursor % group.len()];
                self.shared_cursor = self.shared_cursor.wrapping_add(1);
                pick
            });
        self.observe(owner, window_mean_s);
        self.state(owner).expect("observed family exists").name
    }

    /// Note the octree topology version the coming step runs under.  A
    /// change (a regrid that actually refined/derefined) resets every
    /// family to `Baseline` so the whole ladder is re-searched against the
    /// new work volume; an unchanged version is free.  Returns whether a
    /// re-probe was triggered.
    pub fn note_topology(&mut self, version: u64) -> bool {
        match self.topology_version {
            Some(v) if v == version => false,
            None => {
                // First sighting: the baseline search is already pending;
                // don't count construction as a regrid.
                self.topology_version = Some(version);
                false
            }
            Some(_) => {
                self.topology_version = Some(version);
                self.topology_reprobes += 1;
                for s in &mut self.families {
                    s.phase = Phase::Baseline;
                    s.best_mean_s = f64::INFINITY;
                    s.tried = [false; 2];
                    s.frozen_windows = 0;
                }
                true
            }
        }
    }

    /// `Copy` snapshot of chosen configs + activity counts.
    pub fn snapshot(&self) -> TunerSnapshot {
        let mut snap = TunerSnapshot {
            len: self.families.len(),
            probes: self.probes,
            moves: self.moves,
            frozen: self.frozen,
            regressions_rejected: self.regressions_rejected,
            topology_reprobes: self.topology_reprobes,
            ..Default::default()
        };
        for (slot, s) in snap.families.iter_mut().zip(&self.families) {
            *slot = FamilySnapshot {
                family: s.name,
                value: s.value(),
                phase: s.phase(),
            };
        }
        snap
    }

    fn apply(&mut self, d: CounterDelta) {
        self.probes += d.probes;
        self.moves += d.moves;
        self.frozen += d.frozen;
        self.regressions_rejected += d.regressions_rejected;
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct CounterDelta {
    probes: u64,
    moves: u64,
    frozen: u64,
    regressions_rejected: u64,
}

/// Start probing from the current incumbent: prefer an untried direction
/// with a neighbour; freeze if none is left.
fn start_probe(s: &mut TuningState, reprobe: bool, delta: &mut CounterDelta) {
    for dir in [1i8, -1] {
        if s.tried[TuningState::dir_slot(dir)] {
            continue;
        }
        if let Some(next) = s.neighbour(dir) {
            s.phase = Phase::Probing {
                from: s.idx,
                dir,
                reprobe,
            };
            s.idx = next;
            delta.probes += 1;
            return;
        }
        // No neighbour on that side: the ladder edge counts as tried.
        s.tried[TuningState::dir_slot(dir)] = true;
    }
    freeze(s, delta);
}

fn freeze(s: &mut TuningState, delta: &mut CounterDelta) {
    if s.phase != Phase::Frozen {
        delta.frozen += 1;
    }
    s.phase = Phase::Frozen;
    s.frozen_windows = 0;
}

fn step_state(
    s: &mut TuningState,
    mean_s: f64,
    hysteresis: f64,
    reprobe_every: u64,
    delta: &mut CounterDelta,
) {
    match s.phase {
        Phase::Baseline => {
            s.best_mean_s = mean_s;
            s.tried = [false; 2];
            start_probe(s, false, delta);
        }
        Phase::Probing { from, dir, reprobe } => {
            if mean_s < s.best_mean_s * (1.0 - hysteresis) {
                // Accept: the candidate beat the incumbent beyond the
                // band.  Keep climbing the same direction; we just came
                // from the other side, so it is known-worse.
                s.best_mean_s = mean_s;
                delta.moves += 1;
                s.tried = [false; 2];
                s.tried[TuningState::dir_slot(-dir)] = true;
                if let Some(next) = s.neighbour(dir) {
                    s.phase = Phase::Probing {
                        from: s.idx,
                        dir,
                        reprobe: false,
                    };
                    s.idx = next;
                    delta.probes += 1;
                } else {
                    s.tried[TuningState::dir_slot(dir)] = true;
                    start_probe(s, false, delta);
                }
            } else {
                // Reject: revert to the incumbent.
                delta.regressions_rejected += 1;
                s.idx = from;
                s.tried[TuningState::dir_slot(dir)] = true;
                if reprobe {
                    // Epsilon re-probe failed: straight back to sleep.
                    freeze(s, delta);
                } else {
                    start_probe(s, false, delta);
                }
            }
        }
        Phase::Frozen => {
            // Track the incumbent with a decayed mean so slow workload
            // drift moves the acceptance baseline instead of wedging it.
            s.best_mean_s = if s.best_mean_s.is_finite() {
                0.8 * s.best_mean_s + 0.2 * mean_s
            } else {
                mean_s
            };
            s.frozen_windows += 1;
            if s.frozen_windows.is_multiple_of(reprobe_every) {
                // Deterministic epsilon-greedy re-probe, alternating
                // direction each time.
                let dir = if s.reprobe_flip { -1 } else { 1 };
                s.reprobe_flip = !s.reprobe_flip;
                for d in [dir, -dir] {
                    if let Some(next) = s.neighbour(d) {
                        s.phase = Phase::Probing {
                            from: s.idx,
                            dir: d,
                            reprobe: true,
                        };
                        s.idx = next;
                        delta.probes += 1;
                        return;
                    }
                }
            }
        }
    }
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

    fn drive_to_frozen(t: &mut Tuner, family: &'static str, opt: f64, max_windows: usize) {
        for _ in 0..max_windows {
            let v = t.current(family);
            t.observe(family, cost(v, opt));
            if t.is_frozen(family) {
                return;
            }
        }
        panic!("{family} did not converge in {max_windows} windows");
    }

    #[test]
    fn hill_climb_finds_the_unimodal_optimum() {
        let mut t = Tuner::new();
        t.register("m2l", vec![1, 2, 4, 8, 16, 32], 1);
        drive_to_frozen(&mut t, "m2l", 8.0, 32);
        assert_eq!(t.current("m2l"), 8);
        assert!(t.is_frozen("m2l"));
        let snap = t.snapshot();
        assert!(snap.moves >= 3, "1→2→4→8 needs 3 accepts, got {snap:?}");
        assert!(snap.regressions_rejected >= 1, "16 must be rejected");
        assert_eq!(snap.frozen, 1);
        assert_eq!(snap.value_of("m2l"), Some(8));
    }

    #[test]
    fn climbs_down_when_the_start_oversplits() {
        let mut t = Tuner::new();
        t.register("hydro", vec![1, 2, 4, 8, 16], 16);
        drive_to_frozen(&mut t, "hydro", 2.0, 32);
        assert_eq!(t.current("hydro"), 2);
    }

    #[test]
    fn hysteresis_rejects_noise_level_improvements() {
        let mut t = Tuner::with_params(0.05, 8);
        t.register("k", vec![1, 2, 4], 2);
        // Baseline at 2.
        t.observe("k", 1.0);
        // Every candidate is 2% "better" — inside the band, so each probe
        // must be rejected and the incumbent kept.
        while !t.is_frozen("k") {
            t.observe("k", 0.98);
        }
        assert_eq!(t.current("k"), 2);
        let snap = t.snapshot();
        assert_eq!(snap.moves, 0);
        assert_eq!(snap.regressions_rejected, 2);
    }

    #[test]
    fn frozen_families_reprobe_on_cadence_and_adopt_a_shifted_optimum() {
        let mut t = Tuner::with_params(0.05, 4);
        t.register("k", vec![1, 2, 4, 8], 1);
        drive_to_frozen(&mut t, "k", 2.0, 32);
        assert_eq!(t.current("k"), 2);
        let probes_frozen = t.snapshot().probes;
        // The workload drifts: 8 is now optimal.  The frozen family must
        // wake on its epsilon cadence and walk there.
        for _ in 0..64 {
            let v = t.current("k");
            t.observe("k", cost(v, 8.0));
        }
        assert_eq!(t.current("k"), 8);
        assert!(t.snapshot().probes > probes_frozen, "re-probes must fire");
    }

    #[test]
    fn frozen_family_pays_no_probe_cost_between_reprobes() {
        let mut t = Tuner::with_params(0.05, 8);
        t.register("k", vec![1, 2], 1);
        drive_to_frozen(&mut t, "k", 1.0, 16);
        let v = t.current("k");
        let probes = t.snapshot().probes;
        // Seven windows inside the cadence: config must not move.
        for _ in 0..7 {
            assert_eq!(t.observe("k", cost(v, 1.0)), v);
        }
        assert_eq!(t.snapshot().probes, probes);
    }

    #[test]
    fn topology_change_unfreezes_exactly_once_per_version() {
        let mut t = Tuner::new();
        t.register("k", vec![1, 2, 4], 1);
        assert!(!t.note_topology(7), "first sighting is not a regrid");
        drive_to_frozen(&mut t, "k", 2.0, 32);
        assert!(!t.note_topology(7), "unchanged version is free");
        assert!(t.is_frozen("k"));
        assert!(t.note_topology(8), "changed version must re-probe");
        assert!(!t.is_frozen("k"));
        assert_eq!(t.snapshot().topology_reprobes, 1);
        // Same version again: no second re-probe.
        assert!(!t.note_topology(8));
        assert_eq!(t.snapshot().topology_reprobes, 1);
    }

    #[test]
    fn shared_signal_lets_only_the_probing_family_interpret_windows() {
        let mut t = Tuner::new();
        t.register("a", vec![1, 2, 4], 1);
        t.register("b", vec![1, 2, 4], 1);
        // While `a` is baselining/probing it must own every window.
        let first = t.observe_shared(&["a", "b"], 1.0);
        assert_eq!(first, "a");
        while !t.is_frozen("a") {
            let owner = t.observe_shared(&["a", "b"], cost(t.current("a"), 2.0));
            assert_eq!(owner, "a", "mid-probe family must keep the signal");
        }
        // Once `a` froze, `b` gets its turn.
        let owner = t.observe_shared(&["a", "b"], cost(t.current("b"), 2.0));
        assert_eq!(owner, "b");
    }

    #[test]
    fn snapshot_is_copy_and_indexes_families() {
        let mut t = Tuner::new();
        t.register("x", vec![1, 2], 2);
        t.register("y", vec![4, 8], 4);
        let snap = t.snapshot();
        let copy = snap; // Copy
        assert_eq!(copy.len, 2);
        assert_eq!(copy.value_of("x"), Some(2));
        assert_eq!(copy.value_of("y"), Some(4));
        assert_eq!(copy.value_of("z"), None);
        assert_eq!(snap.iter().count(), 2);
    }

    #[test]
    fn start_snaps_to_nearest_ladder_point() {
        let mut t = Tuner::new();
        t.register("k", vec![1, 2, 4, 8], 5);
        assert_eq!(t.current("k"), 4);
    }

    #[test]
    fn single_point_ladder_freezes_immediately() {
        let mut t = Tuner::new();
        t.register("k", vec![3], 3);
        t.observe("k", 1.0);
        assert!(t.is_frozen("k"));
        assert_eq!(t.current("k"), 3);
    }
}
