//! Distributed-solve models: the multi-locality gravity pipeline under the
//! schedule explorer and the race detector.
//!
//! [`octotiger::gravity::DistPlan`] freezes which expansions cross which
//! locality boundary in each solver phase; the one sharded solve then runs
//! level-lockstep phases — on every locality the same chunked launch over
//! its owned index list, at every locality count — with one parcel per
//! frozen exchange.  Two failure classes are unique to that distribution
//! layer, and each gets a model here:
//!
//! * **A lost parcel deadlocks the receiver** ([`exercise_dist_solve`]) —
//!   the phase graph is wired with *real* `hpx-rt` futures (per locality
//!   and phase the launch's chunk tasks and their join, one per parcel) so
//!   the schedule-exploring
//!   model checker can prove every interleaving drains.  The planted
//!   [`DistScheduleBug::LostParcel`] drops one halo parcel's promise
//!   (`mem::forget`, so abandonment-on-drop cannot save us): the receiving
//!   locality stalls, and the stall report names the undelivered link
//!   alongside the replayable seed.
//! * **A stale halo plan races with the regrid**
//!   ([`race_model_dist_regrid`]) — the halo plan is a pure function of
//!   (topology version, locality count) and must be rebuilt when a regrid
//!   bumps the version.  The faithful sequence (step → regrid → rebuild →
//!   step) is race-free; the planted [`DistRaceBug::StaleHalo`] skips the
//!   rebuild edge, so step 2 reads the cached plan storage concurrently
//!   with the regrid's repartition rewriting it — a write-read race naming
//!   both sites.

use kokkos_rs::{LaunchToken, RaceDetector, RaceReport, RangePolicy, View, ViewAccess};
use octotiger::gravity::DistPlan;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

pub use crate::pipeline::RaceModelSummary;

/// Bug to plant into the future graph built by [`exercise_dist_solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistScheduleBug {
    /// Faithful wiring: every schedule must drain the whole solve.
    None,
    /// The first M2L halo parcel's promise is leaked un-set: the receiving
    /// locality's multipole kernel waits on it forever.  The model checker
    /// must report the stall with the link's name and a replayable seed.
    LostParcel,
}

/// Bug to plant into the launch sequence of [`race_model_dist_regrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistRaceBug {
    /// Faithful invalidation: step 2 waits for the halo-plan rebuild that
    /// the regrid's topology-version bump mandates.  Must be race-free.
    None,
    /// Step 2 keeps the cached halo plan (the invalidation-on-version-bump
    /// rule is dropped): its halo packs read the plan storage concurrently
    /// with the regrid's repartition rewriting it (write-read race).
    StaleHalo,
}

/// Tasks per modelled kernel launch (the solver's `tasks_per_*_kernel`).
const LAUNCH_TASKS: usize = 4;

/// Build and drain the future graph of one sharded solve over `dist`:
/// per-locality phase launches in level lockstep — each the solver's one
/// launch shape, the owned index list carved into lane-aligned chunk tasks
/// joined by the scatter — one future per frozen exchange (the parcel),
/// receivers gated on their inbox exactly like the solve's lockstep
/// decode.
///
/// Must run inside a deterministic runtime (via
/// [`crate::model::ModelChecker`]): the final waits double as stall
/// probes.  A stall is re-panicked with the names of every undelivered
/// parcel link, so the failure report pins the lost link, not just the
/// seed.
pub fn exercise_dist_solve(rt: &hpx_rt::Runtime, dist: &DistPlan, bug: DistScheduleBug) {
    let nloc = dist.num_localities;
    let pending: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    // Parcel delivery: resolves after the sender's phase task, and checks
    // itself off the pending list.  A lost parcel never resolves.
    let deliver = |sender: &hpx_rt::Future<()>, label: String, lose: bool| -> hpx_rt::Future<()> {
        pending.lock().unwrap().insert(label.clone());
        if lose {
            let (p, f) = hpx_rt::Promise::<()>::new_pair();
            std::mem::forget(p);
            f
        } else {
            let pending = pending.clone();
            sender.clone().then(rt, move |()| {
                pending.lock().unwrap().remove(&label);
            })
        }
    };
    // Join a locality's previous phase task with its parcel inbox.
    let advance = |front: Vec<hpx_rt::Future<()>>,
                   inbox: Vec<Vec<hpx_rt::Future<()>>>|
     -> Vec<hpx_rt::Future<()>> {
        front
            .into_iter()
            .zip(inbox)
            .map(|(f, mut parts)| {
                if parts.is_empty() {
                    return f;
                }
                parts.push(f);
                hpx_rt::when_all_of(rt, &parts)
            })
            .collect()
    };

    // One locality's phase launch after `after`: chunk tasks over its
    // `owned` indices, then the join that scatters their outputs.
    let launch = |after: &hpx_rt::Future<()>, owned: usize| -> hpx_rt::Future<()> {
        let chunks: Vec<hpx_rt::Future<()>> = RangePolicy::new(0, owned)
            .with_lanes(sve_simd::SVE_LANES_F64)
            .split(LAUNCH_TASKS)
            .iter()
            .map(|_| after.clone().then(rt, |()| ()))
            .collect();
        match chunks.is_empty() {
            true => after.clone(),
            false => hpx_rt::when_all_of(rt, &chunks).then(rt, |()| ()),
        }
    };
    let launch_all = |front: &[hpx_rt::Future<()>], owned: &dyn Fn(usize) -> usize| {
        let launched = front.iter().enumerate();
        launched
            .map(|(loc, f)| launch(f, owned(loc)))
            .collect::<Vec<_>>()
    };

    let mut lost = bug == DistScheduleBug::LostParcel;
    let nlev = dist.up.len();
    let mut front: Vec<hpx_rt::Future<()>> =
        (0..nloc).map(|_| hpx_rt::make_ready_future(())).collect();

    // Upward, deepest level first: compute, then ship cross-owner child
    // multipoles before the parent level runs.
    for level in (0..nlev).rev() {
        let computes = launch_all(&front, &|loc| dist.owned_by_level[loc][level].len());
        let mut inbox: Vec<Vec<hpx_rt::Future<()>>> = vec![Vec::new(); nloc];
        if level > 0 {
            for ex in &dist.up[level] {
                let label = format!("multipole-up {} -> {} (level {level})", ex.from, ex.to);
                inbox[ex.to].push(deliver(&computes[ex.from], label, false));
            }
        }
        front = advance(computes, inbox);
    }

    // M2L halo, then each locality's multipole kernel.  The planted lost
    // parcel is the first frozen M2L exchange.
    let mut inbox: Vec<Vec<hpx_rt::Future<()>>> = vec![Vec::new(); nloc];
    for ex in &dist.m2l_halo {
        let label = format!(
            "m2l halo {} -> {} ({} source slots)",
            ex.from,
            ex.to,
            ex.slots.len()
        );
        let lose = std::mem::take(&mut lost);
        inbox[ex.to].push(deliver(&front[ex.from], label, lose));
    }
    front = advance(front, inbox);
    front = launch_all(&front, &|loc| dist.owned_m2l_slots[loc].len());

    // Downward, root first: parent locals cross before each child level.
    for level in 1..nlev {
        let mut inbox: Vec<Vec<hpx_rt::Future<()>>> = vec![Vec::new(); nloc];
        for ex in &dist.down[level] {
            let label = format!("multipole-down {} -> {} (level {level})", ex.from, ex.to);
            inbox[ex.to].push(deliver(&front[ex.from], label, false));
        }
        front = advance(front, inbox);
        front = launch_all(&front, &|loc| dist.owned_by_level[loc][level].len());
    }

    // P2P halo, then per-leaf evaluation — the solve's sinks.
    let mut inbox: Vec<Vec<hpx_rt::Future<()>>> = vec![Vec::new(); nloc];
    for ex in &dist.p2p_halo {
        let label = format!(
            "p2p halo {} -> {} ({} leaves)",
            ex.from,
            ex.to,
            ex.slots.len()
        );
        inbox[ex.to].push(deliver(&front[ex.from], label, false));
    }
    front = advance(front, inbox);
    front = launch_all(&front, &|loc| dist.owned_leaves[loc].len());

    // Drain every locality.  Under a lost parcel the deterministic
    // runtime's stall panic unwinds through here; re-panic with the links
    // still undelivered so the report names the culprit.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for f in &front {
            f.wait();
        }
    }));
    if let Err(payload) = outcome {
        let undelivered: Vec<String> = pending.lock().unwrap().iter().cloned().collect();
        let original = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        panic!(
            "distributed solve stalled; undelivered parcel link(s): [{}] — {}",
            undelivered.join(", "),
            original
        );
    }
    assert!(
        pending.lock().unwrap().is_empty(),
        "solve drained but parcels stayed pending"
    );
}

/// One distributed solve step for the race model: per-locality upward
/// kernels, halo packs over the plan's frozen M2L lanes (standing in for
/// all four exchange classes — same lane structure), and per-locality
/// halo gathers.  Every launch that consults the halo plan declares a
/// read of the plan-storage view; that read is what the stale-plan bug
/// leaves unordered against the regrid.
#[allow(clippy::too_many_arguments)]
fn race_model_step(
    det: &RaceDetector,
    dist: &DistPlan,
    tag: &str,
    deps_in: &[Vec<LaunchToken>],
    halo_plan: &View<f64>,
    owned: &[View<f64>],
    lanes: &std::collections::HashMap<(usize, usize), View<f64>>,
) -> Result<Vec<LaunchToken>, RaceReport> {
    let nloc = dist.num_localities;
    let computes: Vec<LaunchToken> = (0..nloc)
        .map(|loc| {
            det.launch(
                &format!("upward({tag}, loc {loc})"),
                &deps_in[loc],
                &[ViewAccess::write(&owned[loc])],
            )
        })
        .collect::<Result<_, _>>()?;
    let mut pack_tokens: Vec<LaunchToken> = Vec::new();
    for ex in &dist.m2l_halo {
        let pack = det.launch(
            &format!("halo-pack({tag}, {} -> {})", ex.from, ex.to),
            &[computes[ex.from]],
            &[
                ViewAccess::read(halo_plan),
                ViewAccess::read(&owned[ex.from]),
                ViewAccess::write(&lanes[&(ex.from, ex.to)]),
            ],
        )?;
        pack_tokens.push(pack);
    }
    (0..nloc)
        .map(|loc| {
            // The lockstep exchange is a global barrier: every pack of the
            // phase completes before any locality's gather kernel runs
            // (the gather also rewrites its owned expansions, which other
            // localities' packs were still reading from).
            let mut deps = vec![computes[loc]];
            deps.extend(&pack_tokens);
            let mut accesses = vec![ViewAccess::read(halo_plan), ViewAccess::write(&owned[loc])];
            for ex in &dist.m2l_halo {
                if ex.to == loc {
                    accesses.push(ViewAccess::read(&lanes[&(ex.from, ex.to)]));
                }
            }
            det.launch(&format!("m2l-gather({tag}, loc {loc})"), &deps, &accesses)
        })
        .collect()
}

/// Replay two distributed solve steps with a regrid between them through
/// the [`RaceDetector`]: the regrid's repartition rewrites the cached
/// halo-plan storage, and step 2 must not touch the plan until the
/// rebuild keyed on the bumped topology version has run.
///
/// `dist1` is the step-1 (pre-regrid) halo plan, `dist2` the rebuilt one;
/// under [`DistRaceBug::StaleHalo`] step 2 keeps consuming `dist1`.
pub fn race_model_dist_regrid(
    dist1: &DistPlan,
    dist2: &DistPlan,
    bug: DistRaceBug,
) -> Result<RaceModelSummary, RaceReport> {
    assert_eq!(dist1.num_localities, dist2.num_localities);
    let nloc = dist1.num_localities;
    let det = RaceDetector::new();
    let mut views = 0usize;
    let mut view = |label: String| {
        views += 1;
        View::<f64>::new_1d(label, 1)
    };

    // The cached halo plan's storage (owner arrays + frozen exchange
    // lists), each locality's expansion buffers, and one payload buffer
    // per `(from, to)` lane.
    let halo_plan = view("halo-plan(owner map + frozen exchanges)".to_string());
    let owned: Vec<View<f64>> = (0..nloc)
        .map(|loc| view(format!("owned-expansions(loc {loc})")))
        .collect();
    let lanes: std::collections::HashMap<(usize, usize), View<f64>> = (0..nloc)
        .flat_map(|f| (0..nloc).map(move |t| (f, t)))
        .map(|lane| {
            let v = view(format!("halo-lane({} -> {})", lane.0, lane.1));
            (lane, v)
        })
        .collect();

    let build1 = det.launch(
        "halo-plan-build(step1)",
        &[],
        &[ViewAccess::write(&halo_plan)],
    )?;
    let sinks1 = race_model_step(
        &det,
        dist1,
        "step1",
        &vec![vec![build1]; nloc],
        &halo_plan,
        &owned,
        &lanes,
    )?;

    // The regrid: refine + repartition.  New leaves need owners, so the
    // owner map — the halo plan's backing storage — is rewritten in
    // place, after every step-1 consumer has finished.
    let regrid = det.launch(
        "regrid(topology-version bump, repartition)",
        &sinks1,
        &[ViewAccess::write(&halo_plan)],
    )?;

    let (step2_dist, deps2): (&DistPlan, Vec<Vec<LaunchToken>>) = match bug {
        DistRaceBug::None => {
            // Faithful: `dist_plan_for` sees the bumped topology version,
            // rebuilds, and step 2 is gated on the rebuild.
            let rebuild = det.launch(
                "halo-plan-rebuild(step2)",
                &[regrid],
                &[ViewAccess::write(&halo_plan)],
            )?;
            (dist2, vec![vec![rebuild]; nloc])
        }
        // The bug: the cache keeps validating the stale plan.  Step 2 is
        // still barriered on all of step 1's work (the stepper does that
        // regardless), but nothing orders its plan reads after the
        // regrid's rewrite — the rebuild edge was the only such edge.
        DistRaceBug::StaleHalo => (dist1, vec![sinks1.clone(); nloc]),
    };
    race_model_step(
        &det, step2_dist, "step2", &deps2, &halo_plan, &owned, &lanes,
    )?;

    Ok(RaceModelSummary {
        launches: det.launches(),
        views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelChecker;
    use octotiger::gravity::GravitySolver;
    use octree::{partition_morton, Tree};
    use std::sync::Arc;

    fn dist_for(tree: &Tree, nloc: usize) -> Arc<DistPlan> {
        let solver = GravitySolver::default();
        let plan = solver.plan_for(tree);
        let owner = partition_morton(tree, nloc);
        solver.dist_plan_for(&plan, &owner, nloc)
    }

    #[test]
    fn faithful_dist_graph_drains_under_all_schedules() {
        let dist = dist_for(&Tree::new_uniform(2), 4);
        assert!(dist.parcels_per_solve() > 0);
        let report = ModelChecker::new()
            .schedules(16)
            .explore(|rt| exercise_dist_solve(rt, &dist, DistScheduleBug::None));
        assert!(report.is_clean(), "failures: {report}");
    }

    #[test]
    fn faithful_dist_graph_drains_on_adaptive_trees() {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(tree.leaves()[0]);
        let dist = dist_for(&tree, 3);
        let report = ModelChecker::new()
            .schedules(8)
            .explore(|rt| exercise_dist_solve(rt, &dist, DistScheduleBug::None));
        assert!(report.is_clean(), "failures: {report}");
    }

    #[test]
    fn lost_parcel_stalls_naming_the_link_with_a_replayable_seed() {
        let dist = dist_for(&Tree::new_uniform(2), 4);
        let checker = ModelChecker::new().schedules(4);
        let report =
            checker.explore(|rt| exercise_dist_solve(rt, &dist, DistScheduleBug::LostParcel));
        assert_eq!(report.failures.len(), 4, "every schedule must stall");
        let failure = &report.failures[0];
        assert!(
            failure.report.contains("undelivered parcel link(s)"),
            "got: {}",
            failure.report
        );
        let lost = &dist.m2l_halo[0];
        assert!(
            failure
                .report
                .contains(&format!("m2l halo {} -> {}", lost.from, lost.to)),
            "stall must name the dropped link: {}",
            failure.report
        );
        // The seed replays to the same stall.
        let replayed = checker
            .replay(failure.seed, |rt| {
                exercise_dist_solve(rt, &dist, DistScheduleBug::LostParcel)
            })
            .expect("replay must reproduce the stall");
        assert!(replayed.report.contains("undelivered parcel link(s)"));
    }

    #[test]
    fn faithful_regrid_sequence_is_race_free() {
        let tree1 = Tree::new_uniform(2);
        let mut tree2 = Tree::new_uniform(2);
        tree2.refine_balanced(tree2.leaves()[0]);
        let (d1, d2) = (dist_for(&tree1, 4), dist_for(&tree2, 4));
        let summary = race_model_dist_regrid(&d1, &d2, DistRaceBug::None).expect("race-free");
        assert!(summary.launches > 2 * 4, "two steps of per-locality work");
        assert!(summary.views >= 1 + 4 + 16);
    }

    #[test]
    fn stale_halo_plan_is_a_write_read_race_naming_both_sites() {
        let tree1 = Tree::new_uniform(2);
        let mut tree2 = Tree::new_uniform(2);
        tree2.refine_balanced(tree2.leaves()[0]);
        let (d1, d2) = (dist_for(&tree1, 4), dist_for(&tree2, 4));
        let report =
            race_model_dist_regrid(&d1, &d2, DistRaceBug::StaleHalo).expect_err("must race");
        assert_eq!(report.conflict, "write-read");
        assert!(report.prior_site.starts_with("regrid("), "{report}");
        assert!(report.site.contains("step2"), "{report}");
        assert!(report.view_label.starts_with("halo-plan("), "{report}");
    }
}
