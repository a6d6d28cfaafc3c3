//! # hpx-check — concurrency analyses for the HPX/Kokkos reproduction
//!
//! The pipelined stepper replaces barriers with thousands of futures per
//! step; the integration layer overlaps kernels that are only ordered by
//! explicit dependency edges.  Both give the paper its scaling — and both
//! are exactly where concurrency bugs hide: a dropped promise deadlocks a
//! subtree, a miswired ghost link forms a cycle, a missing launch edge is
//! a silent data race.  This crate packages three analyses that hunt those
//! bug classes without running any physics:
//!
//! * **Schedule-exploring model checker** ([`model`]) — drives a future
//!   graph through seeded deterministic interleavings
//!   ([`hpx_rt::Runtime::deterministic`]) and reports deadlocks, stalls and
//!   contained task panics with a *replayable seed*.
//! * **Static future-DAG linter** ([`dag`]) — rebuilds the dependency
//!   graph `step_pipelined` would wire for a given octree from the shared
//!   [`octree::LinkSpec`] classification and checks acyclicity, orphan
//!   tickets, reachability and fan-in bounds.
//! * **View race detector** ([`kokkos_rs::RaceDetector`], modeled over the
//!   stepper in [`pipeline`]) — happens-before shadow tracking of declared
//!   view accesses at launch boundaries, aborting with both launch sites.
//! * **Distributed-solve models** ([`dist`]) — the multi-locality gravity
//!   phase graph under the model checker (a lost parcel must stall with
//!   the link named) and the regrid/halo-plan sequence under the race
//!   detector (a stale halo plan must surface as a write-read race).
//! * **Kernel-body source lints** ([`scan`]) — source scans forbidding
//!   blocking `.wait()`/`.get()`, heap allocation, and shared
//!   floating-point accumulators inside kernel argument regions, with a
//!   shared allowlist file (whose own staleness is checked).
//! * **Static plan verifier** ([`verify`]) — drives
//!   `core::gravity::verify`'s provers over real and seeded-mutated
//!   frozen plans: deadlock-freedom, exact send/receive matching and halo
//!   completeness of every `DistPlan`, structural invariants of every
//!   `GravityPlan`, with planted-bug regressions.
//!
//! Run everything from the CLI: `cargo run -p hpx-check -- all`.

pub mod dag;
pub mod dist;
pub mod gravity;
pub mod model;
pub mod pipeline;
pub mod scan;
pub mod tuner;
pub mod verify;

pub use dag::{lint_pipeline, DagNode, DagSummary, FutureDag, LintFinding};
pub use dist::{exercise_dist_solve, race_model_dist_regrid, DistRaceBug, DistScheduleBug};
pub use gravity::{race_model_gravity_plan, GravityRaceBug};
pub use model::{CheckReport, ModelChecker, ScheduleFailure};
pub use pipeline::{
    exercise_pipeline, race_model_pipeline, RaceBug, RaceModelSummary, ScheduleBug,
};
pub use scan::{
    scan_source, scan_source_allocs, scan_source_fp, scan_workspace, scan_workspace_invariants,
    Allowlist, SourceFinding, WaitLintFinding,
};
pub use tuner::{race_model_tuner_resplit, TunerRaceBug};
pub use verify::{
    mutate_dist, mutate_plan, mutation_sweep, scenario_trees, verify_real_plans, DistMutation,
    DistMutationKind, MissedMutation, PlanMutationKind, DIST_MUTATIONS, LOCALITY_COUNTS,
    MUTATION_LOCALITY_COUNTS, PLAN_MUTATIONS,
};
