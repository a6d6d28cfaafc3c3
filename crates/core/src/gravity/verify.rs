//! Static verification of the frozen gravity plans.
//!
//! PR 5 froze the FMM traversal into a [`GravityPlan`] and PR 7 froze
//! every cross-locality transfer into a [`DistPlan`]: the entire kernel
//! and communication schedule is now *data*.  That means its safety
//! properties can be **proven before anything runs** — no schedule
//! exploration, no race detection, just graph checks over the frozen
//! lists.  This matters most for the planned real-process transport:
//! a mismatched or cyclic exchange that the in-process transport happens
//! to tolerate (the receive `expect`s a queued parcel and panics) becomes
//! a hard *hang* over pipes or sockets — the classic distributed-AMT
//! failure mode the Octo-Tiger scaling work reports burning node-hours on.
//!
//! Two verifiers:
//!
//! * [`verify_gravity_plan`] — structural invariants of the interaction
//!   plan: level ranges partition the slot table deepest-first,
//!   child/parent links are mutually consistent, M2L lists are
//!   symmetric, duplicate-free and never alias their target's chunk
//!   accumulator, P2P pair lists are symmetric with exactly one self
//!   pair, CSR offsets are monotone and the precomputed stats match.
//! * [`verify_dist_plan`] — the *protocol* of the phase-lockstep
//!   distributed solve: ownership is total and consistent (the
//!   interior-inherits-first-child rule, no slot claimed twice), every
//!   exchange is well-formed and sent by the slot's owner, no slot is
//!   delivered twice to one locality (**double receive**), every
//!   remotely-owned operand a locality consumes is covered by an
//!   inbound exchange (**halo completeness** — a gap here is a starved
//!   receive, i.e. a deadlock over a real transport), nothing is shipped
//!   that nobody consumes, and the phase-barrier wait-for graph is
//!   acyclic.  Staleness is checked elsewhere: `solve_sharded`
//!   debug-asserts [`DistPlan::is_valid_for`] on entry, so a halo plan
//!   reused after a regrid fails by name.
//!
//! Findings carry *plan coordinates* — phase, level, `from→to` link,
//! slot — so a report names the exact frozen transfer that is wrong.
//! [`GravitySolver::plan_for`] and [`GravitySolver::dist_plan_for`]
//! run these verifiers on every rebuild under `debug_assertions`, so
//! the whole test suite (notably the equivalence harness,
//! `tests/harness/mod.rs`, with its N/tree/stepper/regrid sweep) exercises them for free; `hpx-check
//! verify` runs them from the CLI over every standard scenario and
//! locality count, with a seeded mutation sweep that must be caught.
//!
//! [`GravitySolver::plan_for`]: super::solver::GravitySolver::plan_for
//! [`GravitySolver::dist_plan_for`]: super::solver::GravitySolver::dist_plan_for

use super::dist::{DistPlan, Exchange, Phase};
use super::plan::{GravityPlan, SlotKind};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// A structural invariant violation of a [`GravityPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// Slot-table / level-range bookkeeping is broken.
    Level { level: usize, detail: String },
    /// A child/parent/leaf link is inconsistent.
    Link { slot: usize, detail: String },
    /// An M2L list entry is wrong (asymmetric, duplicated, or aliasing
    /// its own target's accumulator).
    M2l {
        target: usize,
        source: usize,
        detail: String,
    },
    /// A P2P pair-list entry is wrong (asymmetric, duplicated, or a
    /// broken self pair).
    P2p { a: usize, b: usize, detail: String },
    /// The precomputed `SolveStats` or CSR
    /// offsets disagree with the lists.
    Stats { detail: String },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::Level { level, detail } => {
                write!(f, "level {level}: {detail}")
            }
            PlanViolation::Link { slot, detail } => {
                write!(f, "slot {slot}: {detail}")
            }
            PlanViolation::M2l {
                target,
                source,
                detail,
            } => {
                write!(f, "m2l target {target} ← source {source}: {detail}")
            }
            PlanViolation::P2p { a, b, detail } => {
                write!(f, "p2p pair ({a}, {b}): {detail}")
            }
            PlanViolation::Stats { detail } => write!(f, "stats: {detail}"),
        }
    }
}

/// A protocol violation of a [`DistPlan`] against its [`GravityPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// The halo plan does not key-match the interaction plan it claims
    /// to shard (or its tables have the wrong dimensions).
    KeyMismatch { detail: String },
    /// Ownership is not a total, consistent assignment.
    Ownership { detail: String },
    /// One slot (or leaf) is claimed by two localities' owned lists —
    /// the upstream cause of double receives.
    OwnershipOverlap {
        domain: &'static str,
        index: usize,
        first: usize,
        second: usize,
    },
    /// An exchange list entry is structurally malformed.
    Malformed {
        phase: Phase,
        from: usize,
        to: usize,
        detail: String,
    },
    /// A locality ships a slot it does not own.
    ForeignSend {
        phase: Phase,
        from: usize,
        to: usize,
        slot: usize,
        owner: usize,
    },
    /// One slot is delivered twice to the same locality in one phase —
    /// the receiver's buffer is written twice (overlapping-ownership
    /// plans produce exactly this).
    DoubleReceive {
        phase: Phase,
        to: usize,
        slot: usize,
        first_from: usize,
        second_from: usize,
    },
    /// A remotely-owned operand is consumed but never received: the
    /// receive starves, which is a deadlock over a real transport.
    StarvedReceive {
        phase: Phase,
        from: usize,
        to: usize,
        slot: usize,
    },
    /// A slot is shipped that no consumer on the receiving locality
    /// reads — plan drift (the frozen lists no longer mirror demand).
    UnconsumedShipment {
        phase: Phase,
        from: usize,
        to: usize,
        slot: usize,
    },
    /// The phase-barrier wait-for graph has a cycle: the named
    /// locality-phase nodes wait on each other forever.
    WaitCycle { nodes: Vec<String> },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::KeyMismatch { detail } => {
                write!(f, "plan/halo-plan key mismatch: {detail}")
            }
            ProtocolViolation::Ownership { detail } => write!(f, "ownership: {detail}"),
            ProtocolViolation::OwnershipOverlap {
                domain,
                index,
                first,
                second,
            } => write!(
                f,
                "ownership overlap: {domain} {index} claimed by both locality {first} \
                 and locality {second}"
            ),
            ProtocolViolation::Malformed {
                phase,
                from,
                to,
                detail,
            } => write!(f, "phase {phase}: link {from}→{to}: {detail}"),
            ProtocolViolation::ForeignSend {
                phase,
                from,
                to,
                slot,
                owner,
            } => write!(
                f,
                "phase {phase}: link {from}→{to}: locality {from} ships slot {slot} \
                 owned by locality {owner}"
            ),
            ProtocolViolation::DoubleReceive {
                phase,
                to,
                slot,
                first_from,
                second_from,
            } => write!(
                f,
                "phase {phase}: double receive: locality {to} receives slot {slot} from \
                 both locality {first_from} and locality {second_from}"
            ),
            ProtocolViolation::StarvedReceive {
                phase,
                from,
                to,
                slot,
            } => write!(
                f,
                "deadlock: phase {phase}: locality {to} starves waiting on link \
                 {from}→{to} for slot {slot} (consumed but never received)"
            ),
            ProtocolViolation::UnconsumedShipment {
                phase,
                from,
                to,
                slot,
            } => write!(
                f,
                "phase {phase}: link {from}→{to} ships slot {slot} that locality {to} \
                 never consumes"
            ),
            ProtocolViolation::WaitCycle { nodes } => {
                write!(f, "deadlock: wait-for cycle through {}", nodes.join(" → "))
            }
        }
    }
}

/// Verify the structural invariants of a frozen interaction plan.
/// Returns every violation found (empty = the plan is sound).
pub fn verify_gravity_plan(plan: &GravityPlan) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let n = plan.num_nodes;
    // ---- Table dimensions. ---------------------------------------------
    for (name, len) in [
        ("nodes", plan.nodes.len()),
        ("centers", plan.centers.len()),
        ("kinds", plan.kinds.len()),
        ("parent_slot", plan.parent_slot.len()),
    ] {
        if len != n {
            out.push(PlanViolation::Stats {
                detail: format!("{name} table has {len} entries for {n} slots"),
            });
        }
    }
    if plan.leaf_slots.len() != plan.leaves.len() {
        out.push(PlanViolation::Stats {
            detail: format!(
                "{} leaf slots for {} leaves",
                plan.leaf_slots.len(),
                plan.leaves.len()
            ),
        });
    }
    if !out.is_empty() {
        // Dimension mismatches make every indexed check below unsafe.
        return out;
    }

    // ---- Level ranges partition the slot table, deepest first. ---------
    let nlev = plan.level_ranges.len();
    let mut cursor = 0usize;
    for level in (0..nlev).rev() {
        let (b, e) = plan.level_ranges[level];
        if b != cursor || e < b || e > n {
            out.push(PlanViolation::Level {
                level,
                detail: format!(
                    "range ({b}, {e}) breaks the deepest-first partition (expected begin {cursor})"
                ),
            });
            cursor = e.max(cursor);
            continue;
        }
        for s in b..e {
            let actual = plan.nodes[s].level() as usize;
            if actual != level {
                out.push(PlanViolation::Level {
                    level,
                    detail: format!("slot {s} holds a level-{actual} node"),
                });
            }
        }
        cursor = e;
    }
    if cursor != n {
        out.push(PlanViolation::Level {
            level: 0,
            detail: format!("ranges cover {cursor} of {n} slots"),
        });
    }

    // ---- Child/parent/leaf links are mutually consistent. --------------
    for (s, kind) in plan.kinds.iter().enumerate() {
        match *kind {
            SlotKind::Leaf(li) => {
                if li >= plan.leaves.len() {
                    out.push(PlanViolation::Link {
                        slot: s,
                        detail: format!("leaf index {li} out of range"),
                    });
                } else if plan.leaf_slots[li] != s {
                    out.push(PlanViolation::Link {
                        slot: s,
                        detail: format!(
                            "leaf {li} maps back to slot {} not {s}",
                            plan.leaf_slots[li]
                        ),
                    });
                }
            }
            SlotKind::Interior(kids) => {
                for &c in &kids {
                    if c >= s {
                        out.push(PlanViolation::Link {
                            slot: s,
                            detail: format!("child slot {c} is not strictly smaller"),
                        });
                    } else if plan.parent_slot[c] != s {
                        out.push(PlanViolation::Link {
                            slot: s,
                            detail: format!(
                                "child {c}'s parent link points at {} not {s}",
                                plan.parent_slot[c]
                            ),
                        });
                    }
                }
            }
        }
        let p = plan.parent_slot[s];
        if p == usize::MAX {
            if s != n - 1 {
                out.push(PlanViolation::Link {
                    slot: s,
                    detail: "only the root (the last slot) may have no parent".into(),
                });
            }
        } else if p <= s || p >= n {
            out.push(PlanViolation::Link {
                slot: s,
                detail: format!("parent slot {p} is not strictly larger and in range"),
            });
        } else if !matches!(plan.kinds[p], SlotKind::Interior(kids) if kids.contains(&s)) {
            out.push(PlanViolation::Link {
                slot: s,
                detail: format!("parent slot {p} does not list {s} as a child"),
            });
        }
    }

    // ---- M2L: monotone offsets, symmetric, duplicate-free, no self
    // aliasing (a target reading itself would alias the chunk
    // accumulator its own launch writes). ---------------------------------
    if plan.m2l_offsets.len() != n + 1
        || plan.m2l_offsets.windows(2).any(|w| w[0] > w[1])
        || plan.m2l_offsets.last() != Some(&plan.m2l_sources.len())
    {
        out.push(PlanViolation::Stats {
            detail: "m2l_offsets is not a monotone CSR over m2l_sources".into(),
        });
    } else {
        let mut pairs: HashSet<(usize, usize)> = HashSet::new();
        for t in 0..n {
            let mut seen = HashSet::new();
            for &src in plan.m2l_sources_of(t) {
                if src >= n {
                    out.push(PlanViolation::M2l {
                        target: t,
                        source: src,
                        detail: "source slot out of range".into(),
                    });
                    continue;
                }
                if src == t {
                    out.push(PlanViolation::M2l {
                        target: t,
                        source: src,
                        detail: "source aliases its target's chunk accumulator".into(),
                    });
                }
                if !seen.insert(src) {
                    out.push(PlanViolation::M2l {
                        target: t,
                        source: src,
                        detail: "duplicated source (interaction counted twice)".into(),
                    });
                }
                pairs.insert((t, src));
            }
        }
        for &(t, s) in &pairs {
            if t != s && !pairs.contains(&(s, t)) {
                out.push(PlanViolation::M2l {
                    target: s,
                    source: t,
                    detail: format!("asymmetric: {t} reads {s} but {s} never reads {t}"),
                });
            }
        }
        // The launch index set is exactly the non-empty targets, ascending.
        let expect: Vec<usize> = (0..n)
            .filter(|&t| !plan.m2l_sources_of(t).is_empty())
            .collect();
        if plan.m2l_targets != expect {
            out.push(PlanViolation::Stats {
                detail: "m2l_targets is not the ascending set of non-empty targets".into(),
            });
        }
    }

    // ---- P2P: monotone offsets, symmetric, exactly one self pair. ------
    let nleaves = plan.leaves.len();
    if plan.p2p_offsets.len() != nleaves + 1
        || plan.p2p_offsets.windows(2).any(|w| w[0] > w[1])
        || plan.p2p_offsets.last() != Some(&plan.p2p_sources.len())
    {
        out.push(PlanViolation::Stats {
            detail: "p2p_offsets is not a monotone CSR over p2p_sources".into(),
        });
    } else {
        let mut pairs: HashSet<(usize, usize)> = HashSet::new();
        for li in 0..nleaves {
            let mut selfs = 0usize;
            let mut seen = HashSet::new();
            for &src in plan.p2p_sources_of(li) {
                if src >= nleaves {
                    out.push(PlanViolation::P2p {
                        a: li,
                        b: src,
                        detail: "source leaf out of range".into(),
                    });
                    continue;
                }
                if src == li {
                    selfs += 1;
                } else if !seen.insert(src) {
                    out.push(PlanViolation::P2p {
                        a: li,
                        b: src,
                        detail: "duplicated pair (near field counted twice)".into(),
                    });
                }
                pairs.insert((li, src));
            }
            if selfs != 1 {
                out.push(PlanViolation::P2p {
                    a: li,
                    b: li,
                    detail: format!("expected exactly one self pair, found {selfs}"),
                });
            }
        }
        for &(a, b) in &pairs {
            if a != b && !pairs.contains(&(b, a)) {
                out.push(PlanViolation::P2p {
                    a: b,
                    b: a,
                    detail: format!("asymmetric: {a} reads {b} but {b} never reads {a}"),
                });
            }
        }
    }

    // ---- Precomputed stats are a pure function of the lists. -----------
    if plan.stats.m2l_interactions != plan.m2l_sources.len() {
        out.push(PlanViolation::Stats {
            detail: format!(
                "stats.m2l_interactions = {} but the CSR holds {}",
                plan.stats.m2l_interactions,
                plan.m2l_sources.len()
            ),
        });
    }
    if plan.stats.p2p_pairs != plan.p2p_sources.len() {
        out.push(PlanViolation::Stats {
            detail: format!(
                "stats.p2p_pairs = {} but the CSR holds {}",
                plan.stats.p2p_pairs,
                plan.p2p_sources.len()
            ),
        });
    }
    if plan.stats.multipole_kernel_launches != plan.m2l_targets.len() {
        out.push(PlanViolation::Stats {
            detail: format!(
                "stats.multipole_kernel_launches = {} but there are {} targets",
                plan.stats.multipole_kernel_launches,
                plan.m2l_targets.len()
            ),
        });
    }
    out
}

/// The per-phase supply sets of a halo plan: which `(from, to, slot)`
/// triples each phase's exchange list ships.
fn supply_of(exchanges: &[Exchange]) -> BTreeSet<(usize, usize, usize)> {
    let mut supply = BTreeSet::new();
    for ex in exchanges {
        for &s in &ex.slots {
            supply.insert((ex.from, ex.to, s));
        }
    }
    supply
}

/// The per-phase demand sets: which `(from, to, slot)` triples the
/// consumers of each phase require, derived from the interaction plan
/// and the ownership tables — the static image of what
/// `solve_distributed` reads after each barrier.
fn demand_of(plan: &GravityPlan, dist: &DistPlan, phase: Phase) -> BTreeSet<(usize, usize, usize)> {
    let mut demand = BTreeSet::new();
    match phase {
        // After computing level `l`, child multipoles whose parent slot
        // is owned elsewhere must reach the parent's owner.
        Phase::Up(l) => {
            let (b, e) = plan.level_ranges[l];
            for s in b..e {
                let p = plan.parent_slot[s];
                if p == usize::MAX {
                    continue;
                }
                let (so, po) = (dist.slot_owner[s], dist.slot_owner[p]);
                if so != po {
                    demand.insert((so, po, s));
                }
            }
        }
        // Far-field source multipoles read by targets owned elsewhere.
        Phase::M2lHalo => {
            for &t in &plan.m2l_targets {
                let to = dist.slot_owner[t];
                for &src in plan.m2l_sources_of(t) {
                    let from = dist.slot_owner[src];
                    if from != to {
                        demand.insert((from, to, src));
                    }
                }
            }
        }
        // Before computing level `l`, parent locals read by children
        // owned elsewhere must reach the children's owners.
        Phase::Down(l) => {
            let (b, e) = plan.level_ranges[l];
            for s in b..e {
                let p = plan.parent_slot[s];
                if p == usize::MAX {
                    continue;
                }
                let (so, po) = (dist.slot_owner[s], dist.slot_owner[p]);
                if so != po {
                    demand.insert((po, so, p));
                }
            }
        }
        // Near-field source leaves read by leaves owned elsewhere.
        Phase::P2pHalo => {
            for (li, &to) in dist.leaf_owner.iter().enumerate() {
                for &src in plan.p2p_sources_of(li) {
                    let from = dist.leaf_owner[src];
                    if from != to {
                        demand.insert((from, to, src));
                    }
                }
            }
        }
    }
    demand
}

/// Verify the phase-lockstep protocol a halo plan freezes against the
/// interaction plan it shards.  Returns every violation found (empty =
/// the exchange schedule is deadlock-free, exactly matched and
/// halo-complete).
pub fn verify_dist_plan(plan: &GravityPlan, dist: &DistPlan) -> Vec<ProtocolViolation> {
    let mut out = Vec::new();
    let nloc = dist.num_localities;
    let n = plan.num_nodes;
    let nleaves = plan.leaves.len();
    let nlev = plan.level_ranges.len();

    // ---- Key + table dimensions. ---------------------------------------
    if !dist.is_valid_for(plan, nloc) {
        out.push(ProtocolViolation::KeyMismatch {
            detail: format!(
                "halo plan keyed (v{}, {} nodes, θ={}) does not match plan (v{}, {} nodes, θ={})",
                dist.topology_version,
                dist.num_nodes,
                dist.theta,
                plan.topology_version,
                plan.num_nodes,
                plan.theta
            ),
        });
    }
    for (name, actual, expect) in [
        ("slot_owner", dist.slot_owner.len(), n),
        ("leaf_owner", dist.leaf_owner.len(), nleaves),
        ("owned_by_level", dist.owned_by_level.len(), nloc),
        ("owned_m2l_slots", dist.owned_m2l_slots.len(), nloc),
        ("owned_leaves", dist.owned_leaves.len(), nloc),
        ("up", dist.up.len(), nlev),
        ("down", dist.down.len(), nlev),
    ] {
        if actual != expect {
            out.push(ProtocolViolation::KeyMismatch {
                detail: format!("{name} has {actual} entries, expected {expect}"),
            });
        }
    }
    if !out.is_empty() {
        return out;
    }

    // ---- Ownership: total, in range, interior-inherits-first-child,
    // leaf table aligned, owned lists a partition without overlap. -------
    for (s, &o) in dist.slot_owner.iter().enumerate() {
        if o >= nloc {
            out.push(ProtocolViolation::Ownership {
                detail: format!("slot {s} owned by out-of-range locality {o}"),
            });
        }
        if let SlotKind::Interior(kids) = plan.kinds[s] {
            let first = dist.slot_owner[kids[0]];
            if o != first {
                out.push(ProtocolViolation::Ownership {
                    detail: format!(
                        "interior slot {s} owned by {o} but its SFC-first child {} is owned by \
                         {first}",
                        kids[0]
                    ),
                });
            }
        }
    }
    for (li, &o) in dist.leaf_owner.iter().enumerate() {
        if o >= nloc {
            out.push(ProtocolViolation::Ownership {
                detail: format!("leaf {li} owned by out-of-range locality {o}"),
            });
        } else if dist.slot_owner[plan.leaf_slots[li]] != o {
            out.push(ProtocolViolation::Ownership {
                detail: format!(
                    "leaf {li} owned by {o} but its slot {} is owned by {}",
                    plan.leaf_slots[li], dist.slot_owner[plan.leaf_slots[li]]
                ),
            });
        }
    }
    let mut slot_claim: Vec<Option<usize>> = vec![None; n];
    for (loc, per_level) in dist.owned_by_level.iter().enumerate() {
        if per_level.len() != nlev {
            out.push(ProtocolViolation::Ownership {
                detail: format!(
                    "locality {loc} has {} level lists for {nlev} levels",
                    per_level.len()
                ),
            });
            continue;
        }
        for (level, slots) in per_level.iter().enumerate() {
            let (b, e) = plan.level_ranges[level];
            if !slots.windows(2).all(|w| w[0] < w[1]) {
                out.push(ProtocolViolation::Ownership {
                    detail: format!("locality {loc} level {level} owned list is not ascending"),
                });
            }
            for &s in slots {
                if s >= n || s < b || s >= e {
                    out.push(ProtocolViolation::Ownership {
                        detail: format!(
                            "locality {loc} level {level} claims slot {s} outside range \
                             [{b}, {e})"
                        ),
                    });
                    continue;
                }
                if dist.slot_owner[s] != loc {
                    out.push(ProtocolViolation::Ownership {
                        detail: format!(
                            "locality {loc} claims slot {s} owned by {}",
                            dist.slot_owner[s]
                        ),
                    });
                }
                match slot_claim[s] {
                    None => slot_claim[s] = Some(loc),
                    Some(first) => out.push(ProtocolViolation::OwnershipOverlap {
                        domain: "slot",
                        index: s,
                        first,
                        second: loc,
                    }),
                }
            }
        }
    }
    for (s, claim) in slot_claim.iter().enumerate() {
        if claim.is_none() {
            out.push(ProtocolViolation::Ownership {
                detail: format!("slot {s} appears in no locality's owned-by-level list"),
            });
        }
    }
    let mut leaf_claim: Vec<Option<usize>> = vec![None; nleaves];
    for (loc, leaves) in dist.owned_leaves.iter().enumerate() {
        if !leaves.windows(2).all(|w| w[0] < w[1]) {
            out.push(ProtocolViolation::Ownership {
                detail: format!("locality {loc} owned-leaf list is not ascending"),
            });
        }
        for &li in leaves {
            if li >= nleaves {
                out.push(ProtocolViolation::Ownership {
                    detail: format!("locality {loc} claims out-of-range leaf {li}"),
                });
                continue;
            }
            if dist.leaf_owner[li] != loc {
                out.push(ProtocolViolation::Ownership {
                    detail: format!(
                        "locality {loc} claims leaf {li} owned by {}",
                        dist.leaf_owner[li]
                    ),
                });
            }
            match leaf_claim[li] {
                None => leaf_claim[li] = Some(loc),
                Some(first) => out.push(ProtocolViolation::OwnershipOverlap {
                    domain: "leaf",
                    index: li,
                    first,
                    second: loc,
                }),
            }
        }
    }
    for (li, claim) in leaf_claim.iter().enumerate() {
        if claim.is_none() {
            out.push(ProtocolViolation::Ownership {
                detail: format!("leaf {li} appears in no locality's owned-leaf list"),
            });
        }
    }
    for (loc, targets) in dist.owned_m2l_slots.iter().enumerate() {
        for &t in targets {
            if t >= n || dist.slot_owner[t] != loc || plan.m2l_sources_of(t).is_empty() {
                out.push(ProtocolViolation::Ownership {
                    detail: format!(
                        "locality {loc} claims m2l target {t} it does not own (or which has no \
                         sources)"
                    ),
                });
            }
        }
    }

    // ---- Per-phase exchange checks. ------------------------------------
    // up[0]/down[0] correspond to the root level, which never ships.
    for (name, list) in [("up", &dist.up[0]), ("down", &dist.down[0])] {
        if !list.is_empty() {
            out.push(ProtocolViolation::Malformed {
                phase: if name == "up" {
                    Phase::Up(0)
                } else {
                    Phase::Down(0)
                },
                from: list[0].from,
                to: list[0].to,
                detail: "the root level must not exchange".into(),
            });
        }
    }
    for (phase, exchanges) in dist.phase_schedule() {
        let slot_domain = match phase {
            Phase::P2pHalo => nleaves,
            _ => n,
        };
        let mut lanes = HashSet::new();
        let mut received: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for ex in exchanges {
            if ex.from == ex.to {
                out.push(ProtocolViolation::Malformed {
                    phase,
                    from: ex.from,
                    to: ex.to,
                    detail: "local traffic must not become a parcel (from == to)".into(),
                });
            }
            if ex.from >= nloc || ex.to >= nloc {
                out.push(ProtocolViolation::Malformed {
                    phase,
                    from: ex.from,
                    to: ex.to,
                    detail: format!("locality out of range (cluster has {nloc})"),
                });
                continue;
            }
            if ex.slots.is_empty() {
                out.push(ProtocolViolation::Malformed {
                    phase,
                    from: ex.from,
                    to: ex.to,
                    detail: "empty exchange".into(),
                });
            }
            if !ex.slots.windows(2).all(|w| w[0] < w[1]) {
                out.push(ProtocolViolation::Malformed {
                    phase,
                    from: ex.from,
                    to: ex.to,
                    detail: "slots are not strictly ascending (the frozen serialization order)"
                        .into(),
                });
            }
            if !lanes.insert((ex.from, ex.to)) {
                out.push(ProtocolViolation::Malformed {
                    phase,
                    from: ex.from,
                    to: ex.to,
                    detail: "duplicate (from, to) lane in one phase (one parcel per lane)".into(),
                });
            }
            for &s in &ex.slots {
                if s >= slot_domain {
                    out.push(ProtocolViolation::Malformed {
                        phase,
                        from: ex.from,
                        to: ex.to,
                        detail: format!("slot {s} out of range (domain {slot_domain})"),
                    });
                    continue;
                }
                // Send-side ownership and level membership.
                let (owner, level_ok) = match phase {
                    Phase::Up(l) => (dist.slot_owner[s], plan.nodes[s].level() as usize == l),
                    Phase::Down(l) => (dist.slot_owner[s], plan.nodes[s].level() as usize + 1 == l),
                    Phase::M2lHalo => (dist.slot_owner[s], true),
                    Phase::P2pHalo => (dist.leaf_owner[s], true),
                };
                if !level_ok {
                    out.push(ProtocolViolation::Malformed {
                        phase,
                        from: ex.from,
                        to: ex.to,
                        detail: format!(
                            "slot {s} (level {}) does not belong to this phase's level",
                            plan.nodes[s].level()
                        ),
                    });
                }
                if owner != ex.from {
                    out.push(ProtocolViolation::ForeignSend {
                        phase,
                        from: ex.from,
                        to: ex.to,
                        slot: s,
                        owner,
                    });
                }
                // Double receive: the same slot delivered twice to `to`.
                match received.get(&(ex.to, s)) {
                    None => {
                        received.insert((ex.to, s), ex.from);
                    }
                    Some(&first_from) => out.push(ProtocolViolation::DoubleReceive {
                        phase,
                        to: ex.to,
                        slot: s,
                        first_from,
                        second_from: ex.from,
                    }),
                }
            }
        }

        // ---- Halo completeness vs. plan drift: the frozen supply must
        // equal the consumers' demand exactly. ---------------------------
        let supply = supply_of(exchanges);
        let demand = demand_of(plan, dist, phase);
        for &(from, to, slot) in demand.difference(&supply) {
            out.push(ProtocolViolation::StarvedReceive {
                phase,
                from,
                to,
                slot,
            });
        }
        for &(from, to, slot) in supply.difference(&demand) {
            // A slot double-shipped by a second (forged) sender is
            // already a DoubleReceive above; only report genuinely
            // unconsumed shipments.
            if !demand.iter().any(|&(_, t, sl)| t == to && sl == slot) {
                out.push(ProtocolViolation::UnconsumedShipment {
                    phase,
                    from,
                    to,
                    slot,
                });
            }
        }
    }

    // ---- The phase-barrier wait-for graph must be acyclic. -------------
    // Nodes: (locality, phase index), meaning "this locality has completed
    // this phase's receives".  Edges: program order within a locality,
    // plus — because sends are buffered (non-blocking) and issued only
    // after the sender finished its previous barrier — one edge
    // (sender, k−1) → (receiver, k) per exchange of phase k.  Every edge
    // is phase-monotone, so a sound schedule is a DAG *by construction*;
    // the toposort is the machine-checked proof, and it guards any future
    // change to [`DistPlan::phase_schedule`] (reordered phases, chained
    // same-phase forwarding) that would break that argument.  Deadlock
    // under buffered sends otherwise means a *missing* message,
    // which is `StarvedReceive` above.
    let schedule = dist.phase_schedule();
    let nphases = schedule.len();
    let node = |loc: usize, k: usize| loc * nphases + k;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nloc * nphases];
    let mut indeg = vec![0usize; nloc * nphases];
    for loc in 0..nloc {
        for k in 1..nphases {
            adj[node(loc, k - 1)].push(node(loc, k));
            indeg[node(loc, k)] += 1;
        }
    }
    for (k, (_, exchanges)) in schedule.iter().enumerate() {
        for ex in *exchanges {
            if ex.from < nloc && ex.to < nloc && k > 0 {
                adj[node(ex.from, k - 1)].push(node(ex.to, k));
                indeg[node(ex.to, k)] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..indeg.len()).filter(|&v| indeg[v] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &w in &adj[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    if seen != indeg.len() {
        let nodes: Vec<String> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(v, _)| format!("loc{}@{}", v / nphases, schedule[v % nphases].0))
            .collect();
        out.push(ProtocolViolation::WaitCycle { nodes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::{partition_morton, Tree};

    fn refined_tree(level: u8) -> Tree {
        let mut t = Tree::new_uniform(level.max(1));
        let first = t.leaves()[0];
        t.refine_balanced(first);
        t
    }

    #[test]
    fn real_plans_verify_clean() {
        for tree in [Tree::new_uniform(2), refined_tree(2)] {
            let plan = GravityPlan::build(&tree, 0.5);
            assert_eq!(verify_gravity_plan(&plan), vec![], "plan must verify clean");
            for nloc in [1usize, 2, 4, 7] {
                let owner = partition_morton(&tree, nloc);
                let dist = DistPlan::build(&plan, &owner, nloc);
                assert_eq!(
                    verify_dist_plan(&plan, &dist),
                    vec![],
                    "halo plan must verify clean at {nloc} localities"
                );
            }
        }
    }

    #[test]
    fn dropped_exchange_is_a_named_deadlock() {
        let tree = Tree::new_uniform(2);
        let plan = GravityPlan::build(&tree, 0.5);
        let owner = partition_morton(&tree, 4);
        let mut dist = DistPlan::build(&plan, &owner, 4);
        assert!(!dist.m2l_halo.is_empty());
        let dropped = dist.m2l_halo.remove(0);
        let findings = verify_dist_plan(&plan, &dist);
        let starved: Vec<_> = findings
            .iter()
            .filter_map(|v| match v {
                ProtocolViolation::StarvedReceive {
                    phase,
                    from,
                    to,
                    slot,
                } => Some((*phase, *from, *to, *slot)),
                _ => None,
            })
            .collect();
        assert!(
            starved
                .iter()
                .all(|&(p, f, t, _)| p == Phase::M2lHalo && f == dropped.from && t == dropped.to),
            "every starvation must name the dropped link: {starved:?}"
        );
        assert_eq!(
            starved.len(),
            dropped.slots.len(),
            "every dropped slot must starve its receiver"
        );
        let report = findings[0].to_string();
        assert!(
            report.contains("deadlock"),
            "report must say deadlock: {report}"
        );
        assert!(
            report.contains(&format!("{}→{}", dropped.from, dropped.to)),
            "report must name the link: {report}"
        );
    }

    #[test]
    fn key_mismatch_is_reported_before_indexed_checks() {
        let tree = Tree::new_uniform(1);
        let plan = GravityPlan::build(&tree, 0.5);
        let owner = partition_morton(&tree, 2);
        let mut dist = DistPlan::build(&plan, &owner, 2);
        dist.topology_version += 1;
        let findings = verify_dist_plan(&plan, &dist);
        assert!(matches!(findings[0], ProtocolViolation::KeyMismatch { .. }));
    }

    #[test]
    fn self_lane_is_malformed_and_starves_the_real_receiver() {
        let tree = Tree::new_uniform(2);
        let plan = GravityPlan::build(&tree, 0.5);
        let owner = partition_morton(&tree, 4);
        let mut dist = DistPlan::build(&plan, &owner, 4);
        let from = dist.m2l_halo[0].from;
        let orig_to = dist.m2l_halo[0].to;
        dist.m2l_halo[0].to = from;
        let findings = verify_dist_plan(&plan, &dist);
        assert!(findings
            .iter()
            .any(|v| matches!(v, ProtocolViolation::Malformed { .. })));
        // Re-aiming the lane at its own sender starves the original
        // receiver (its demand is no longer supplied).
        assert!(
            findings.iter().any(|v| matches!(v,
                ProtocolViolation::StarvedReceive { to, .. } if *to == orig_to)),
            "the original receiver must starve: {findings:?}"
        );
    }
}
