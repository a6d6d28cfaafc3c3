//! Static plan verification: drive `core::gravity::verify`'s provers over
//! real and deliberately mutated plans.
//!
//! The verifiers themselves live next to the plans
//! ([`octotiger::gravity::verify`]) so the solver can run them on every
//! rebuild under `debug_assertions`; this module is the *harness*: it
//! builds the standard scenario plans (uniform + refined trees, sharded
//! over N ∈ {1, 2, 4, 7} localities), checks real plans verify silently,
//! and — the regression half — applies seeded mutations that each model a
//! distributed-AMT bug class and checks the right report comes back:
//!
//! * **dropped exchange** → a `deadlock:` report naming the starved phase
//!   and `from→to` link (a lost parcel over a real transport);
//! * **dropped slot** → the same report naming exactly the one slot a lane
//!   no longer carries (a halo list that missed one consumer's demand);
//! * **ownership overlap** → a double-receive report (two localities both
//!   claim a slot and both ship it);
//! * **forged second sender** → double receive + foreign send;
//! * **self lane** → malformed link + the original receiver starves;
//! * **asymmetric P2P pair / M2L self-alias / broken parent link /
//!   shifted level range** → the corresponding `GravityPlan` invariant
//!   reports.
//!
//! Everything is deterministic: mutations are picked by a seeded LCG, so
//! a failing sweep is replayable with `--seed`.

use octotiger::gravity::{
    verify_dist_plan, verify_gravity_plan, DistPlan, Exchange, GravityPlan, Phase,
    ProtocolViolation,
};
use octree::{partition_morton, verify_partition, Tree};

/// The locality counts every scenario is sharded over.  1 is the
/// degenerate no-communication case; 7 does not divide any uniform leaf
/// count, exercising the remainder paths.
pub(crate) const LOCALITY_COUNTS: &[usize] = &[1, 2, 4, 7];

/// Locality counts the mutation sweep uses (mutations need actual
/// exchanges, so the single-locality case is excluded).
pub(crate) const MUTATION_LOCALITY_COUNTS: &[usize] = &[2, 4, 7];

/// The two standard scenario trees at `level`: a uniform grid and one
/// with the first leaf refined (the shapes every other analysis uses).
pub(crate) fn scenario_trees(level: u8) -> Vec<(String, Tree)> {
    let uniform = Tree::new_uniform(level);
    let refined = {
        let mut t = Tree::new_uniform(level.max(1));
        let first = t.leaves()[0];
        t.refine_balanced(first);
        t
    };
    vec![
        (format!("uniform({level})"), uniform),
        (format!("refined({})", level.max(1)), refined),
    ]
}

/// Verify real (unmutated) plans: the interaction plan's invariants, the
/// leaf partition, and the halo-plan protocol at every locality count.
/// Returns human-readable findings prefixed with their scenario; an empty
/// vector means everything verified silently.
pub fn verify_real_plans(level: u8) -> Vec<String> {
    let mut out = Vec::new();
    for (name, tree) in scenario_trees(level) {
        let plan = GravityPlan::build(&tree, 0.5);
        for v in verify_gravity_plan(&plan) {
            out.push(format!("plan[{name}]: {v}"));
        }
        for &nloc in LOCALITY_COUNTS {
            let owner = partition_morton(&tree, nloc);
            for v in verify_partition(&tree, &owner, nloc) {
                out.push(format!("partition[{name} N={nloc}]: {v}"));
            }
            let dist = DistPlan::build(&plan, &owner, nloc);
            for v in verify_dist_plan(&plan, &dist) {
                out.push(format!("protocol[{name} N={nloc}]: {v}"));
            }
        }
    }
    out
}

/// A protocol-breaking mutation of a [`DistPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DistMutationKind {
    /// Remove one frozen exchange: its receiver starves (deadlock over a
    /// real transport).
    DroppedExchange,
    /// Remove one slot from one frozen exchange: the lane still runs, but
    /// one consumer's operand never arrives.  The verifier must name that
    /// slot's receive as starved, not merely report something.
    DroppedSlot,
    /// Forge a second sender shipping an already-delivered slot.
    DoubleReceive,
    /// A second locality claims an owned slot *and* ships it — the
    /// upstream cause of double receives.
    OwnershipOverlap,
    /// Aim a lane back at its own sender.
    SelfLink,
}

/// An invariant-breaking mutation of a [`GravityPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMutationKind {
    /// Remove one direction of a P2P pair.
    AsymmetricP2p,
    /// Make an M2L target read its own slot (aliasing its accumulator).
    M2lSelfAlias,
    /// Point a child's parent link at itself.
    BrokenParentLink,
    /// Shift one level range off the partition.
    ShiftedLevelRange,
}

/// All mutation kinds, for sweeps.
pub(crate) const DIST_MUTATIONS: &[DistMutationKind] = &[
    DistMutationKind::DroppedExchange,
    DistMutationKind::DroppedSlot,
    DistMutationKind::DoubleReceive,
    DistMutationKind::OwnershipOverlap,
    DistMutationKind::SelfLink,
];
pub(crate) const PLAN_MUTATIONS: &[PlanMutationKind] = &[
    PlanMutationKind::AsymmetricP2p,
    PlanMutationKind::M2lSelfAlias,
    PlanMutationKind::BrokenParentLink,
    PlanMutationKind::ShiftedLevelRange,
];

/// Deterministic LCG (Numerical Recipes constants) so sweeps replay from
/// a seed without external dependencies.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
    fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

fn list_mut(dist: &mut DistPlan, phase: Phase) -> &mut Vec<Exchange> {
    match phase {
        Phase::Up(l) => &mut dist.up[l],
        Phase::M2lHalo => &mut dist.m2l_halo,
        Phase::Down(l) => &mut dist.down[l],
        Phase::P2pHalo => &mut dist.p2p_halo,
    }
}

/// Every `(phase, exchange index)` in a halo plan, schedule order.
fn exchange_candidates(dist: &DistPlan) -> Vec<(Phase, usize)> {
    dist.phase_schedule()
        .into_iter()
        .flat_map(|(phase, list)| (0..list.len()).map(move |i| (phase, i)))
        .collect()
}

/// A mutated halo plan and what was done to it.
#[derive(Debug)]
pub(crate) struct DistMutation {
    pub plan: DistPlan,
    /// What was done (for sweep failure messages).
    pub description: String,
    /// For a mutation that starves exactly one receive, the `(phase, slot)`
    /// the verifier has to name; any report counts for the others.
    pub starves: Option<(Phase, usize)>,
}

/// Apply `kind` to a clone of `dist`, picking the target exchange with
/// `seed`.
pub(crate) fn mutate_dist(
    plan: &GravityPlan,
    dist: &DistPlan,
    kind: DistMutationKind,
    seed: u64,
) -> Option<DistMutation> {
    let candidates = exchange_candidates(dist);
    if candidates.is_empty() {
        return None; // single-locality plans have nothing to mutate
    }
    let mut rng = Lcg::new(seed);
    let (phase, idx) = candidates[rng.pick(candidates.len())];
    let mut mutated = dist.clone();
    let description;
    let mut starves = None;
    match kind {
        DistMutationKind::DroppedExchange => {
            let ex = list_mut(&mut mutated, phase).remove(idx);
            description = format!(
                "dropped exchange {}→{} ({} slots) in phase {phase}",
                ex.from,
                ex.to,
                ex.slots.len()
            );
        }
        DistMutationKind::DroppedSlot => {
            let list = list_mut(&mut mutated, phase);
            let ex = &mut list[idx];
            let slot = ex.slots.remove(rng.pick(ex.slots.len()));
            description = format!(
                "dropped slot {slot} from exchange {}→{} in phase {phase}",
                ex.from, ex.to
            );
            if ex.slots.is_empty() {
                list.remove(idx);
            }
            starves = Some((phase, slot));
        }
        DistMutationKind::DoubleReceive => {
            let ex = list_mut(&mut mutated, phase)[idx].clone();
            let slot = ex.slots[rng.pick(ex.slots.len())];
            // A distinct forged sender when the cluster is big enough;
            // otherwise duplicate the lane itself.
            let forged_from = (0..dist.num_localities)
                .find(|&l| l != ex.from && l != ex.to)
                .unwrap_or(ex.from);
            list_mut(&mut mutated, phase).push(Exchange {
                from: forged_from,
                to: ex.to,
                slots: vec![slot],
            });
            description = format!(
                "forged second delivery of slot {slot} to {} (from {forged_from}) in phase {phase}",
                ex.to
            );
        }
        DistMutationKind::OwnershipOverlap => {
            let ex = list_mut(&mut mutated, phase)[idx].clone();
            let slot = ex.slots[rng.pick(ex.slots.len())];
            // A second locality claims the slot in its owned lists…
            let claimer = (0..dist.num_localities)
                .find(|&l| l != ex.from)
                .expect("at least two localities");
            if phase == Phase::P2pHalo {
                let owned = &mut mutated.owned_leaves[claimer];
                let pos = owned.partition_point(|&l| l < slot);
                owned.insert(pos, slot);
            } else {
                let level = plan.nodes[slot].level() as usize;
                let owned = &mut mutated.owned_by_level[claimer][level];
                let pos = owned.partition_point(|&s| s < slot);
                owned.insert(pos, slot);
            }
            // …and, when that does not degenerate into a self lane, also
            // ships it to the original receiver: the double receive the
            // overlap causes.
            if claimer != ex.to {
                list_mut(&mut mutated, phase).push(Exchange {
                    from: claimer,
                    to: ex.to,
                    slots: vec![slot],
                });
            }
            description = format!(
                "locality {claimer} also claims slot {slot} (owner {}) in phase {phase}",
                ex.from
            );
        }
        DistMutationKind::SelfLink => {
            let list = list_mut(&mut mutated, phase);
            let from = list[idx].from;
            let to = list[idx].to;
            list[idx].to = from;
            description = format!("re-aimed lane {from}→{to} at its own sender in phase {phase}");
        }
    }
    Some(DistMutation {
        plan: mutated,
        description,
        starves,
    })
}

/// Apply `kind` to a clone of `plan`, picking targets with `seed`.
pub fn mutate_plan(
    plan: &GravityPlan,
    kind: PlanMutationKind,
    seed: u64,
) -> Option<(GravityPlan, String)> {
    let mut rng = Lcg::new(seed);
    let mut mutated = plan.clone();
    let desc;
    match kind {
        PlanMutationKind::AsymmetricP2p => {
            // Remove one direction of a non-self pair, keeping the CSR and
            // stats consistent so only symmetry is broken.
            let candidates: Vec<(usize, usize)> = (0..plan.leaves.len())
                .flat_map(|li| {
                    let (b, e) = (plan.p2p_offsets[li], plan.p2p_offsets[li + 1]);
                    (b..e)
                        .filter(move |&k| plan.p2p_sources[k] != li)
                        .map(move |k| (li, k))
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let (li, k) = candidates[rng.pick(candidates.len())];
            let src = mutated.p2p_sources.remove(k);
            for off in &mut mutated.p2p_offsets[li + 1..] {
                *off -= 1;
            }
            mutated.stats.p2p_pairs -= 1;
            desc = format!("removed P2P direction {li} ← {src}");
        }
        PlanMutationKind::M2lSelfAlias => {
            if plan.m2l_targets.is_empty() {
                return None;
            }
            let t = plan.m2l_targets[rng.pick(plan.m2l_targets.len())];
            mutated.m2l_sources.insert(plan.m2l_offsets[t], t);
            for off in &mut mutated.m2l_offsets[t + 1..] {
                *off += 1;
            }
            mutated.stats.m2l_interactions += 1;
            desc = format!("M2L target {t} now reads its own slot");
        }
        PlanMutationKind::BrokenParentLink => {
            let candidates: Vec<usize> = (0..plan.num_nodes)
                .filter(|&s| plan.parent_slot[s] != usize::MAX)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let s = candidates[rng.pick(candidates.len())];
            mutated.parent_slot[s] = s;
            desc = format!("slot {s}'s parent link now points at itself");
        }
        PlanMutationKind::ShiftedLevelRange => {
            let candidates: Vec<usize> = (0..plan.level_ranges.len())
                .filter(|&l| plan.level_ranges[l].0 < plan.level_ranges[l].1)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let l = candidates[rng.pick(candidates.len())];
            mutated.level_ranges[l].0 += 1;
            desc = format!("level {l}'s range begin shifted by one");
        }
    }
    Some((mutated, desc))
}

/// One sweep entry that was *not* caught: the verifier stayed silent on a
/// mutated plan.
#[derive(Debug)]
pub struct MissedMutation {
    pub scenario: String,
    pub mutation: String,
}

impl std::fmt::Display for MissedMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: mutation NOT caught ({}) — the verifier lost a witness",
            self.scenario, self.mutation
        )
    }
}

/// Run the full seeded mutation sweep: every scenario × locality count ×
/// protocol mutation, plus every scenario × plan mutation.  Returns the
/// number of mutations checked, or the list of mutations the verifiers
/// failed to catch.
pub fn mutation_sweep(level: u8, seed: u64) -> Result<usize, Vec<MissedMutation>> {
    let mut checked = 0usize;
    let mut missed = Vec::new();
    for (name, tree) in scenario_trees(level) {
        let plan = GravityPlan::build(&tree, 0.5);
        for (k, &kind) in PLAN_MUTATIONS.iter().enumerate() {
            let Some((mutated, desc)) = mutate_plan(&plan, kind, seed ^ (k as u64) << 8) else {
                continue;
            };
            checked += 1;
            if verify_gravity_plan(&mutated).is_empty() {
                missed.push(MissedMutation {
                    scenario: format!("plan[{name}]"),
                    mutation: desc,
                });
            }
        }
        for &nloc in MUTATION_LOCALITY_COUNTS {
            let owner = partition_morton(&tree, nloc);
            let dist = DistPlan::build(&plan, &owner, nloc);
            for (k, &kind) in DIST_MUTATIONS.iter().enumerate() {
                let Some(mutation) = mutate_dist(
                    &plan,
                    &dist,
                    kind,
                    seed ^ (nloc as u64) << 16 ^ (k as u64) << 8,
                ) else {
                    continue;
                };
                checked += 1;
                let findings = verify_dist_plan(&plan, &mutation.plan);
                let caught = match mutation.starves {
                    Some(want) => findings.iter().any(|v| {
                        matches!(v, ProtocolViolation::StarvedReceive { phase, slot, .. }
                            if (*phase, *slot) == want)
                    }),
                    None => !findings.is_empty(),
                };
                if !caught {
                    missed.push(MissedMutation {
                        scenario: format!("protocol[{name} N={nloc}]"),
                        mutation: mutation.description,
                    });
                }
            }
        }
    }
    if missed.is_empty() {
        Ok(checked)
    } else {
        Err(missed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_plans_verify_silently() {
        assert_eq!(verify_real_plans(2), Vec::<String>::new());
    }

    #[test]
    fn sweep_catches_every_mutation_across_seeds() {
        for seed in [1u64, 7, 42] {
            match mutation_sweep(2, seed) {
                Ok(checked) => {
                    assert!(checked >= 2 * (4 + 3 * 5) - 4, "sweep too small: {checked}")
                }
                Err(missed) => panic!(
                    "seed {seed}: {} mutation(s) not caught:\n{}",
                    missed.len(),
                    missed
                        .iter()
                        .map(|m| format!("  {m}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                ),
            }
        }
    }
}
