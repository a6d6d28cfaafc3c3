//! Race model of the online granularity tuner's re-split protocol.
//!
//! The tuner (PR-10) changes how a kernel family's slot-table launch is
//! carved into tasks — `tasks_per_kernel` moves along its ladder between
//! steps.  The safety argument in `DESIGN.md` is a *when*, not a *what*:
//! knob writes happen only at the step boundary, after every chunk of the
//! previous step's launch has joined and before any chunk of the next
//! step's launch starts.  A tuner that re-splits a kernel **mid-launch**
//! — re-carving the same range with the new task count while the old
//! chunks are still in flight — owns no such barrier, and two carvings of
//! one range almost never agree on chunk boundaries: their lane-block
//! store footprints collide as a write-write race.
//!
//! [`race_model_tuner_resplit`] replays that protocol over a *real*
//! [`GravityPlan`]'s deepest slot-table level through the
//! [`RaceDetector`]: step-1 chunks at one task count, the tuner's
//! observe/move at the boundary (reading per-chunk timings, writing the
//! knob), then step-2 chunks at the moved task count.  The planted
//! [`TunerRaceBug::ResplitMidLaunch`] drops the boundary and must surface
//! as the write-write race the protocol exists to prevent.

use kokkos_rs::{LaunchToken, RaceDetector, RaceReport, RangePolicy, View, ViewAccess};
use octotiger::gravity::plan::GravityPlan;
use sve_simd::SVE_LANES_F64;

use crate::gravity::lane_blocks;
pub use crate::pipeline::RaceModelSummary;

/// Bug to plant into the launch sequence of [`race_model_tuner_resplit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerRaceBug {
    /// Faithful protocol: the knob moves only at the step boundary, after
    /// the step-1 join — the sequence must be race-free.
    None,
    /// The tuner re-carves the kernel's range at the new task count while
    /// the step-1 chunks are still in flight and launches the new chunks
    /// with no dependency on the old ones (write-write race on the slot
    /// table).
    ResplitMidLaunch,
}

/// Carve `[b, e)` into at most `tasks` lane-aligned chunks, the way the
/// solver's `RangePolicy::with_lanes` launch site does.
fn carve(b: usize, e: usize, tasks: usize) -> Vec<(usize, usize)> {
    RangePolicy::new(b, e)
        .with_lanes(SVE_LANES_F64)
        .split(tasks)
}

/// Replay two consecutive launches of one tuned kernel family — step 1 at
/// `step1_tasks`, step 2 at `step2_tasks` after the tuner's move — with
/// the happens-before edges the step-boundary protocol provides (minus
/// whatever `bug` drops).
pub fn race_model_tuner_resplit(
    plan: &GravityPlan,
    step1_tasks: usize,
    step2_tasks: usize,
    bug: TunerRaceBug,
) -> Result<RaceModelSummary, RaceReport> {
    let det = RaceDetector::new();
    let mut views = 0usize;
    let mut view = |label: String| {
        views += 1;
        View::<f64>::new_1d(label, 1)
    };

    // The tuned kernel's range: the deepest populated slot-table level.
    let (b, e) = (0..=plan.max_level() as usize)
        .rev()
        .map(|l| plan.level_ranges[l])
        .find(|&(b, e)| b < e)
        .expect("plan has at least one populated level");

    let mp: Vec<View<f64>> = (b..e).map(|s| view(format!("mp({s})"))).collect();
    let knob = view("tuner-knob".to_string());

    // ---- Step 1: the kernel carved at the incumbent task count.  Each
    // chunk reads the knob (the launch site resolves `tasks_per_kernel`),
    // writes its lane-block slot footprint, and records its timing. ------
    let mut step1_tokens: Vec<LaunchToken> = Vec::new();
    let mut timing_views = Vec::new();
    for (ci, &(lo, hi)) in carve(b, e, step1_tasks).iter().enumerate() {
        let timing = view(format!("timing(step1, chunk {ci})"));
        let (wlo, whi) = lane_blocks(b, e, lo, hi);
        let mut accesses = vec![ViewAccess::read(&knob), ViewAccess::write(&timing)];
        accesses.extend((wlo..whi).map(|s| ViewAccess::write(&mp[s - b])));
        step1_tokens.push(det.launch(&format!("kernel(step1, chunk {ci})"), &[], &accesses)?);
        timing_views.push(timing);
    }

    if bug == TunerRaceBug::ResplitMidLaunch {
        // Planted bug: the tuner reacts to a partial timing signal and
        // re-carves the same range at the new task count while the step-1
        // chunks are still running — no join, no boundary.
        for (ci, &(lo, hi)) in carve(b, e, step2_tasks).iter().enumerate() {
            let (wlo, whi) = lane_blocks(b, e, lo, hi);
            let accesses: Vec<ViewAccess> =
                (wlo..whi).map(|s| ViewAccess::write(&mp[s - b])).collect();
            det.launch(&format!("resplit(mid-launch, chunk {ci})"), &[], &accesses)?;
        }
        unreachable!("a mid-launch re-split of the same range must race");
    }

    // ---- Step boundary: the tuner observes the closed timing window and
    // moves the knob — after every step-1 chunk has joined. --------------
    let mut accesses: Vec<ViewAccess> = timing_views.iter().map(ViewAccess::read).collect();
    accesses.push(ViewAccess::write(&knob));
    let moved = det.launch("tuner-move(step boundary)", &step1_tokens, &accesses)?;

    // ---- Step 2: the kernel re-carved at the moved task count, ordered
    // after the move (and, transitively, after every step-1 chunk). ------
    for (ci, &(lo, hi)) in carve(b, e, step2_tasks).iter().enumerate() {
        let (wlo, whi) = lane_blocks(b, e, lo, hi);
        let mut accesses = vec![ViewAccess::read(&knob)];
        accesses.extend((wlo..whi).map(|s| ViewAccess::write(&mp[s - b])));
        det.launch(&format!("kernel(step2, chunk {ci})"), &[moved], &accesses)?;
    }

    Ok(RaceModelSummary {
        launches: det.launches(),
        views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::Tree;

    fn plan(level: u8) -> GravityPlan {
        GravityPlan::build(&Tree::new_uniform(level), 0.5)
    }

    #[test]
    fn step_boundary_resplit_is_race_free_for_any_move() {
        // Every up/down move on a power-of-two ladder, including the
        // no-op, must be clean under the boundary protocol.
        for (t1, t2) in [(1, 2), (2, 1), (4, 16), (16, 4), (8, 8), (1, 16)] {
            let summary = race_model_tuner_resplit(&plan(2), t1, t2, TunerRaceBug::None)
                .unwrap_or_else(|r| panic!("{t1}->{t2} raced: {r}"));
            assert!(summary.launches >= 3, "two launches plus the move");
        }
    }

    #[test]
    fn mid_launch_resplit_is_a_write_write_race() {
        let report = race_model_tuner_resplit(&plan(2), 4, 8, TunerRaceBug::ResplitMidLaunch)
            .expect_err("must race");
        assert_eq!(report.conflict, "write-write");
        assert!(report.prior_site.starts_with("kernel(step1"), "{report}");
        assert!(report.site.starts_with("resplit("), "{report}");
        assert!(report.view_label.starts_with("mp("), "{report}");
    }

    #[test]
    fn mid_launch_resplit_races_even_when_the_carving_agrees() {
        // Same task count both times: identical chunk boundaries, still a
        // write-write race — the bug is the missing join, not the shape.
        let report = race_model_tuner_resplit(&plan(2), 4, 4, TunerRaceBug::ResplitMidLaunch)
            .expect_err("must race");
        assert_eq!(report.conflict, "write-write");
    }
}
