//! The cached FMM interaction plan: a precomputed, SFC-ordered, flat
//! (CSR-style) encoding of the dual-tree traversal.
//!
//! The real Octo-Tiger computes its interaction lists once per *regrid*,
//! not once per step; our solver used to redo the full dual-tree traversal
//! and rebuild every `HashMap<NodeId, …>` on **every** solve.  A
//! [`GravityPlan`] freezes everything that depends only on the tree
//! topology and the acceptance parameter θ:
//!
//! * a **slot table** of all tree nodes, deepest level first and SFC-sorted
//!   within each level, so every level is one contiguous slot range and
//!   deeper levels sit strictly *before* shallower ones — the layout that
//!   lets each per-level upward (M2M) and downward (L2L) launch read only
//!   other levels' finalized slots while its tasks write disjoint `&mut`
//!   chunks of the level's own outputs;
//! * the **M2L interaction lists** in CSR form (`m2l_offsets` +
//!   `m2l_sources` over slot indices) plus the dense list of non-empty
//!   targets the multipole kernel launches over;
//! * the **P2P leaf-pair lists** in CSR form over leaf indices;
//! * per-slot **geometry** (centers) and **parent links** for the
//!   gather-form downward pass.
//!
//! The plan is keyed on [`octree::Tree::topology_version`] (and θ and the
//! node count, guarding against distinct trees with coincidentally equal
//! versions): a solve with an unchanged tree performs *zero* traversal
//! work and runs straight kernels over dense index arrays.

use super::solver::SolveStats;
use crate::units::BOX_SIZE;
use octree::{NodeId, RegridDelta, Tree};
use std::collections::{HashMap, HashSet};

/// Physical center and half-diagonal of a node's cube.
pub(crate) fn node_geometry(id: NodeId) -> ([f64; 3], f64) {
    let (corner, size) = id.cube();
    cube_geometry(corner, size)
}

/// Physical center and half-diagonal of the unit-box cube `(corner, size)`
/// — a node's, or one of a leaf's tiles' ([`super::tiles`]).
pub(crate) fn cube_geometry(corner: [f64; 3], size: f64) -> ([f64; 3], f64) {
    let s_phys = size * BOX_SIZE;
    let center = [
        (corner[0] + 0.5 * size - 0.5) * BOX_SIZE,
        (corner[1] + 0.5 * size - 0.5) * BOX_SIZE,
        (corner[2] + 0.5 * size - 0.5) * BOX_SIZE,
    ];
    (center, 0.5 * s_phys * 3f64.sqrt())
}

/// The multipole acceptance test — the one place it is spelled: bodies
/// `a` and `b` (bounding-sphere centers and radii) are well separated when
/// `(r_a + r_b) / d < theta`.  [`GravityPlan::build`] and
/// [`GravityPlan::patch`] apply it to node pairs, the solver's tile
/// classifier ([`super::tiles`]) continues it one level below the leaves.
pub(crate) fn well_separated(ca: [f64; 3], ra: f64, cb: [f64; 3], rb: f64, theta: f64) -> bool {
    let d = ((ca[0] - cb[0]).powi(2) + (ca[1] - cb[1]).powi(2) + (ca[2] - cb[2]).powi(2)).sqrt();
    d > 0.0 && (ra + rb) / d < theta
}

/// What a slot of the plan's node table is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A leaf; payload is the index into [`GravityPlan::leaves`].
    Leaf(usize),
    /// An interior node; payload is its eight child slots (octant order).
    /// All children live at the next-deeper level, i.e. at strictly
    /// *smaller* slot indices.
    Interior([usize; 8]),
}

/// The frozen traversal: everything a gravity solve needs that depends
/// only on tree topology and θ.  Built by [`GravityPlan::build`], cached
/// by the solver, shared immutably (`Arc`) between solver clones.
#[derive(Debug, Clone, PartialEq)]
pub struct GravityPlan {
    /// [`Tree::topology_version`] of the tree this plan encodes.
    pub topology_version: u64,
    /// Acceptance parameter the traversal used.
    pub theta: f64,
    /// Node count of the encoded tree (second staleness guard).
    pub num_nodes: usize,
    /// All tree nodes: deepest level first, SFC-sorted within a level.
    pub nodes: Vec<NodeId>,
    /// Per-slot cube centers (physical coordinates).
    pub centers: Vec<[f64; 3]>,
    /// Per-slot kind (leaf index or child slots).
    pub kinds: Vec<SlotKind>,
    /// Per-slot parent slot (`usize::MAX` for the root).  Parents live at
    /// strictly *larger* slot indices.
    pub parent_slot: Vec<usize>,
    /// `level_ranges[level]` = the contiguous `(begin, end)` slot range of
    /// that level.  Deeper level ⇒ earlier range.
    pub level_ranges: Vec<(usize, usize)>,
    /// SFC-sorted leaves (the solver's input/output key order).
    pub leaves: Vec<NodeId>,
    /// Slot of each leaf, aligned with [`GravityPlan::leaves`].
    pub leaf_slots: Vec<usize>,
    /// M2L CSR over slots: slot `s`'s far-field sources are
    /// `m2l_sources[m2l_offsets[s]..m2l_offsets[s + 1]]` (slot indices,
    /// ascending — a *canonical* order, so per-target summation order is
    /// deterministic, independent of kernel task splitting, and exactly
    /// reproducible by the incremental [`GravityPlan::patch`]).
    pub m2l_offsets: Vec<usize>,
    pub m2l_sources: Vec<usize>,
    /// Slots with a non-empty M2L list — the multipole kernel's launch
    /// index set.
    pub m2l_targets: Vec<usize>,
    /// P2P CSR over *leaf indices*: leaf `l`'s near-field source leaves are
    /// `p2p_sources[p2p_offsets[l]..p2p_offsets[l + 1]]` (including the
    /// self pair, ascending — canonical, like the M2L lists).
    pub p2p_offsets: Vec<usize>,
    pub p2p_sources: Vec<usize>,
    /// Interaction statistics — a pure function of the plan, precomputed
    /// so cached solves return them for free.
    pub stats: SolveStats,
}

impl GravityPlan {
    /// Run the dual-tree traversal once and freeze it.
    pub fn build(tree: &Tree, theta: f64) -> GravityPlan {
        // ---- Slot table: deepest level first, SFC within a level. -------
        let max_level = tree.max_level();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(tree.len());
        let mut level_ranges = vec![(0usize, 0usize); max_level as usize + 1];
        for level in (0..=max_level).rev() {
            let begin = nodes.len();
            nodes.extend(tree.nodes_at_level(level));
            level_ranges[level as usize] = (begin, nodes.len());
        }
        debug_assert_eq!(nodes.len(), tree.len());
        let slot_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(s, &id)| (id, s)).collect();

        let leaves = tree.leaves();
        let leaf_index: HashMap<NodeId, usize> =
            leaves.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let leaf_slots: Vec<usize> = leaves.iter().map(|id| slot_of[id]).collect();

        let centers: Vec<[f64; 3]> = nodes.iter().map(|&id| node_geometry(id).0).collect();
        let radii: Vec<f64> = nodes.iter().map(|&id| node_geometry(id).1).collect();
        let kinds: Vec<SlotKind> = nodes
            .iter()
            .map(|&id| {
                if tree.is_leaf(id) {
                    SlotKind::Leaf(leaf_index[&id])
                } else {
                    let mut child_slots = [0usize; 8];
                    for (c, o) in octree::Octant::all().enumerate() {
                        child_slots[c] = slot_of[&id.child(o)];
                    }
                    SlotKind::Interior(child_slots)
                }
            })
            .collect();
        let parent_slot: Vec<usize> = nodes
            .iter()
            .map(|&id| id.parent().map_or(usize::MAX, |p| slot_of[&p]))
            .collect();

        // ---- The dual-tree traversal (run once, then never again until
        // the topology or θ changes). ------------------------------------
        let mut m2l: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut p2p: Vec<Vec<usize>> = vec![Vec::new(); leaves.len()];
        let root = slot_of[&NodeId::ROOT];
        let mut stack: Vec<(usize, usize)> = vec![(root, root)];
        while let Some((a, b)) = stack.pop() {
            if a == b {
                match kinds[a] {
                    SlotKind::Leaf(la) => p2p[la].push(la),
                    SlotKind::Interior(kids) => {
                        for (i, &ci) in kids.iter().enumerate() {
                            for &cj in &kids[i..] {
                                stack.push((ci, cj));
                            }
                        }
                    }
                }
                continue;
            }
            if well_separated(centers[a], radii[a], centers[b], radii[b], theta) {
                m2l[a].push(b);
                m2l[b].push(a);
                continue;
            }
            match (kinds[a], kinds[b]) {
                (SlotKind::Leaf(la), SlotKind::Leaf(lb)) => {
                    p2p[la].push(lb);
                    p2p[lb].push(la);
                }
                (a_kind, b_kind) => {
                    // Split the larger node (higher up the tree); if tied,
                    // split whichever is interior.
                    let split_a = match (a_kind, b_kind) {
                        (SlotKind::Leaf(_), _) => false,
                        (_, SlotKind::Leaf(_)) => true,
                        _ => nodes[a].level() <= nodes[b].level(),
                    };
                    let (split, keep) = if split_a { (a, b) } else { (b, a) };
                    let SlotKind::Interior(kids) = kinds[split] else {
                        unreachable!("split node is interior by construction");
                    };
                    for c in kids {
                        stack.push((c, keep));
                    }
                }
            }
        }

        // ---- Canonicalize: each unordered pair is visited exactly once,
        // so the lists are duplicate-free and sorting them ascending is a
        // pure reordering of the same set.  The canonical order is what
        // lets `patch` splice a subtree-local delta into an *identical*
        // plan without replaying the global DFS push order. ---------------
        for list in &mut m2l {
            list.sort_unstable();
        }
        for list in &mut p2p {
            list.sort_unstable();
        }

        // ---- CSR compaction. -------------------------------------------
        let mut m2l_offsets = Vec::with_capacity(nodes.len() + 1);
        let mut m2l_sources = Vec::new();
        let mut m2l_targets = Vec::new();
        m2l_offsets.push(0);
        for (s, list) in m2l.iter().enumerate() {
            if !list.is_empty() {
                m2l_targets.push(s);
            }
            m2l_sources.extend_from_slice(list);
            m2l_offsets.push(m2l_sources.len());
        }
        let mut p2p_offsets = Vec::with_capacity(leaves.len() + 1);
        let mut p2p_sources = Vec::new();
        p2p_offsets.push(0);
        for list in &p2p {
            p2p_sources.extend_from_slice(list);
            p2p_offsets.push(p2p_sources.len());
        }

        let stats = SolveStats {
            m2l_interactions: m2l_sources.len(),
            p2p_pairs: p2p_sources.len(),
            multipole_kernel_launches: m2l_targets.len(),
        };

        GravityPlan {
            topology_version: tree.topology_version(),
            theta,
            num_nodes: nodes.len(),
            nodes,
            centers,
            kinds,
            parent_slot,
            level_ranges,
            leaves,
            leaf_slots,
            m2l_offsets,
            m2l_sources,
            m2l_targets,
            p2p_offsets,
            p2p_sources,
            stats,
        }
    }

    /// The plan's invalidation rule: valid iff the tree's topology version
    /// *and* node count still match (the count guards against a different
    /// tree whose version coincides) and θ is unchanged.
    pub fn is_valid_for(&self, tree: &Tree, theta: f64) -> bool {
        self.topology_version == tree.topology_version()
            && self.num_nodes == tree.len()
            && self.theta == theta
    }

    /// M2L source slots of `slot`.
    #[inline]
    pub fn m2l_sources_of(&self, slot: usize) -> &[usize] {
        &self.m2l_sources[self.m2l_offsets[slot]..self.m2l_offsets[slot + 1]]
    }

    /// P2P source leaf indices of leaf `li`.
    #[inline]
    pub fn p2p_sources_of(&self, li: usize) -> &[usize] {
        &self.p2p_sources[self.p2p_offsets[li]..self.p2p_offsets[li + 1]]
    }

    /// Deepest level of the encoded tree.
    pub fn max_level(&self) -> u8 {
        (self.level_ranges.len() - 1) as u8
    }

    /// Compress a monotone old→new index map into runs of constant
    /// offset: `(first_old_index, new − old)` per run, skipping removed
    /// (`usize::MAX`) entries.  A patch episode inserts/removes O(delta)
    /// index positions, so the table has O(delta) runs regardless of the
    /// map's length.
    fn offset_runs(map: &[usize]) -> Vec<(usize, isize)> {
        let mut runs: Vec<(usize, isize)> = Vec::new();
        for (i, &m) in map.iter().enumerate() {
            if m == usize::MAX {
                continue;
            }
            let off = m as isize - i as isize;
            if runs.last().is_none_or(|&(_, o)| o != off) {
                runs.push((i, off));
            }
        }
        runs
    }

    /// Append `list` renumbered through a monotone old→new index map,
    /// given as its piecewise-constant-offset run table `bp` (see
    /// [`offset_runs`]).  Clean interaction lists are sorted, so each
    /// list decomposes into a handful of contiguous spans per run and the
    /// renumber becomes a constant-add over a slice — the compiler
    /// vectorizes it — instead of a per-entry gather through the map.
    fn extend_renumbered(out: &mut Vec<usize>, list: &[usize], bp: &[(usize, isize)]) {
        let mut rest = list;
        while !rest.is_empty() {
            let k = bp.partition_point(|&(start, _)| start <= rest[0]) - 1;
            let off = bp[k].1;
            let end = match bp.get(k + 1) {
                Some(&(next, _)) => rest.partition_point(|&x| x < next),
                None => rest.len(),
            };
            out.extend(rest[..end].iter().map(|&x| (x as isize + off) as usize));
            rest = &rest[end..];
        }
    }

    /// Merge two sorted lists into `out`.  A dirty survivor's patched
    /// list is its filtered old list (still sorted: the renumbering is
    /// monotone and filtering preserves order) merged with the pre-sorted
    /// additions from the pruned traversal — an O(n) merge replaces the
    /// per-slot `sort_unstable` of the concatenation.
    fn merge_sorted_into(out: &mut Vec<usize>, a: &[usize], b: &[usize]) {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }

    /// Patch `old` with a [`RegridDelta`] instead of re-running the global
    /// dual-tree traversal: splice the slot table per level, renumber the
    /// untouched (canonical, sorted) interaction lists through the
    /// monotone old→new slot map, and re-derive lists only for *dirty*
    /// slots — nodes whose leaf/interior kind changed, nodes created or
    /// removed by the regrid, and their interaction partners — via a
    /// traversal pruned to pairs touching a dirty subtree.
    ///
    /// Correctness rests on two facts.  (1) Refinement never moves or
    /// resizes existing nodes, so the multipole-acceptance outcome of any
    /// surviving pair is unchanged and the pair-tree above dirty subtrees
    /// is isomorphic before and after — only pairs with a dirty side can
    /// gain or lose entries.  (2) The per-slot lists are canonically
    /// sorted and the slot map is monotone, so "renumber" preserves the
    /// canonical order and a patched list equals the rebuilt one
    /// element-for-element, not just as a set.  The solver additionally
    /// re-runs the static plan verifier on every patched plan and, in
    /// debug builds, asserts equality with a from-scratch rebuild.
    ///
    /// Returns `None` when the delta does not span
    /// `old.topology_version → tree.topology_version()` (or θ changed):
    /// the caller falls back to a full rebuild.
    pub fn patch(
        old: &GravityPlan,
        tree: &Tree,
        delta: &RegridDelta,
        theta: f64,
    ) -> Option<(GravityPlan, PatchReport)> {
        if theta != old.theta || !delta.spans(old.topology_version, tree.topology_version()) {
            return None;
        }

        // ---- Normalize the op log into net created/removed/flipped sets
        // (a refine later undone by a derefine nets out to nothing). ------
        let old_slot_of: HashMap<NodeId, usize> = old
            .nodes
            .iter()
            .enumerate()
            .map(|(s, &id)| (id, s))
            .collect();
        let mut candidates: Vec<NodeId> = Vec::new();
        for &id in delta.refined.iter().chain(delta.derefined.iter()) {
            candidates.push(id);
            for oct in octree::Octant::all() {
                candidates.push(id.child(oct));
            }
        }
        candidates.sort_unstable_by_key(|id| (id.level(), id.sfc_key()));
        candidates.dedup();
        let mut created: Vec<NodeId> = Vec::new();
        let mut removed: Vec<NodeId> = Vec::new();
        let mut flipped: Vec<NodeId> = Vec::new();
        for &id in &candidates {
            match (old_slot_of.get(&id), tree.contains(id)) {
                (None, true) => created.push(id),
                (Some(_), false) => removed.push(id),
                (Some(&s), true) => {
                    if matches!(old.kinds[s], SlotKind::Leaf(_)) != tree.is_leaf(id) {
                        flipped.push(id);
                    }
                }
                (None, false) => {}
            }
        }
        if created.is_empty() && removed.is_empty() && flipped.is_empty() {
            // Net no-op regrid: same topology under a new version.
            let mut plan = old.clone();
            plan.topology_version = tree.topology_version();
            let report = PatchReport {
                old_version: old.topology_version,
                new_version: plan.topology_version,
                slot_map: (0..old.num_nodes).collect(),
                leaf_map: (0..old.leaves.len()).collect(),
                dirty_slots: Vec::new(),
                retired_slots: Vec::new(),
                dirty_leaves: Vec::new(),
                retired_leaves: Vec::new(),
            };
            return Some((plan, report));
        }

        let trace = std::env::var("OCTO_PATCH_TRACE").is_ok();
        let t0 = std::time::Instant::now();
        // ---- Splice the slot table per level. ---------------------------
        let old_nlev = old.level_ranges.len();
        let nlev_bound = old_nlev.max(
            created
                .iter()
                .map(|id| id.level() as usize + 1)
                .max()
                .unwrap_or(0),
        );
        let mut ins: Vec<Vec<NodeId>> = vec![Vec::new(); nlev_bound];
        for &id in &created {
            ins[id.level() as usize].push(id); // candidates were SFC-sorted
        }
        let mut removed_mark = vec![false; old.num_nodes];
        let mut removed_per_level = vec![0usize; old_nlev];
        for &id in &removed {
            let s = old_slot_of[&id];
            removed_mark[s] = true;
            removed_per_level[id.level() as usize] += 1;
        }
        let mut new_nlev = 0usize;
        for level in 0..nlev_bound {
            let old_len = if level < old_nlev {
                old.level_ranges[level].1 - old.level_ranges[level].0
            } else {
                0
            };
            if old_len + ins[level].len() - removed_per_level.get(level).copied().unwrap_or(0) > 0 {
                new_nlev = level + 1;
            }
        }

        let new_total = old.num_nodes + created.len() - removed.len();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(new_total);
        let mut level_ranges = vec![(0usize, 0usize); new_nlev];
        let mut slot_map = vec![usize::MAX; old.num_nodes];
        let mut touched_slot: HashMap<NodeId, usize> = HashMap::new();
        for level in (0..new_nlev).rev() {
            let begin = nodes.len();
            let olds: &[NodeId] = if level < old_nlev {
                let (b, e) = old.level_ranges[level];
                &old.nodes[b..e]
            } else {
                &[]
            };
            let base = if level < old_nlev {
                old.level_ranges[level].0
            } else {
                0
            };
            let mut it = ins[level].iter().peekable();
            for (k, &id) in olds.iter().enumerate() {
                if removed_mark[base + k] {
                    continue;
                }
                while let Some(&&c) = it.peek() {
                    if c.sfc_key() < id.sfc_key() {
                        touched_slot.insert(c, nodes.len());
                        nodes.push(c);
                        it.next();
                    } else {
                        break;
                    }
                }
                slot_map[base + k] = nodes.len();
                nodes.push(id);
            }
            for &c in it {
                touched_slot.insert(c, nodes.len());
                nodes.push(c);
            }
            level_ranges[level] = (begin, nodes.len());
        }
        debug_assert_eq!(nodes.len(), new_total);
        debug_assert_eq!(nodes.len(), tree.len());
        // Rebuild the inverse map in one clean pass (survivors only).
        let mut old_of_new = vec![usize::MAX; new_total];
        for (os, &ns) in slot_map.iter().enumerate() {
            if ns != usize::MAX {
                old_of_new[ns] = os;
            }
        }

        let flipped_set: HashSet<NodeId> = flipped.iter().copied().collect();
        let new_slot = |id: NodeId| -> usize {
            touched_slot
                .get(&id)
                .copied()
                .unwrap_or_else(|| slot_map[old_slot_of[&id]])
        };

        // ---- Splice the leaf table (global SFC order). ------------------
        let mut drop_leaf = vec![false; old.leaves.len()];
        for id in removed.iter().chain(flipped.iter()) {
            if let Some(&s) = old_slot_of.get(id) {
                if let SlotKind::Leaf(li) = old.kinds[s] {
                    if !tree.is_leaf(*id) || !tree.contains(*id) {
                        drop_leaf[li] = true;
                    }
                }
            }
        }
        let mut new_leaf_ids: Vec<NodeId> = created
            .iter()
            .copied()
            .filter(|&id| tree.is_leaf(id))
            .chain(flipped.iter().copied().filter(|&id| tree.is_leaf(id)))
            .collect();
        new_leaf_ids.sort_unstable_by_key(|id| id.sfc_key());
        let mut leaves: Vec<NodeId> = Vec::with_capacity(old.leaves.len() + new_leaf_ids.len());
        let mut leaf_slots: Vec<usize> = Vec::with_capacity(leaves.capacity());
        let mut leaf_map = vec![usize::MAX; old.leaves.len()];
        let mut old_of_new_leaf: Vec<usize> = Vec::with_capacity(leaves.capacity());
        let mut inserted_leaf_idx: HashSet<usize> = HashSet::new();
        {
            let mut it = new_leaf_ids.iter().peekable();
            for (li, &id) in old.leaves.iter().enumerate() {
                if drop_leaf[li] {
                    continue;
                }
                while let Some(&&c) = it.peek() {
                    if c.sfc_key() < id.sfc_key() {
                        inserted_leaf_idx.insert(leaves.len());
                        old_of_new_leaf.push(usize::MAX);
                        leaf_slots.push(new_slot(c));
                        leaves.push(c);
                        it.next();
                    } else {
                        break;
                    }
                }
                leaf_map[li] = leaves.len();
                old_of_new_leaf.push(li);
                leaf_slots.push(slot_map[old.leaf_slots[li]]);
                leaves.push(id);
            }
            for &c in it {
                inserted_leaf_idx.insert(leaves.len());
                old_of_new_leaf.push(usize::MAX);
                leaf_slots.push(new_slot(c));
                leaves.push(c);
            }
        }

        if trace {
            eprintln!("plan-patch: splices {:?}", t0.elapsed());
        }
        let t1 = std::time::Instant::now();
        // ---- Geometry, kinds, parents: copy survivors, derive the rest. -
        let mut centers: Vec<[f64; 3]> = Vec::with_capacity(new_total);
        let mut kinds: Vec<SlotKind> = Vec::with_capacity(new_total);
        let mut parent_slot: Vec<usize> = Vec::with_capacity(new_total);
        for s in 0..new_total {
            let id = nodes[s];
            let os = old_of_new[s];
            if os != usize::MAX {
                centers.push(old.centers[os]);
            } else {
                centers.push(node_geometry(id).0);
            }
            let kind = if os != usize::MAX && !flipped_set.contains(&id) {
                match old.kinds[os] {
                    SlotKind::Leaf(li) => SlotKind::Leaf(leaf_map[li]),
                    SlotKind::Interior(kids) => {
                        SlotKind::Interior(std::array::from_fn(|c| slot_map[kids[c]]))
                    }
                }
            } else if tree.is_leaf(id) {
                // Position in the spliced leaf table: binary search is
                // exact because `leaves` is SFC-sorted and duplicate-free.
                let li = leaves
                    .binary_search_by_key(&id.sfc_key(), |l| l.sfc_key())
                    .expect("flipped/created leaf present in leaf table");
                SlotKind::Leaf(li)
            } else {
                let mut child_slots = [0usize; 8];
                for (c, o) in octree::Octant::all().enumerate() {
                    child_slots[c] = new_slot(id.child(o));
                }
                SlotKind::Interior(child_slots)
            };
            kinds.push(kind);
            if os != usize::MAX {
                let op = old.parent_slot[os];
                parent_slot.push(if op == usize::MAX {
                    usize::MAX
                } else {
                    slot_map[op]
                });
            } else {
                parent_slot.push(id.parent().map_or(usize::MAX, new_slot));
            }
        }

        if trace {
            eprintln!("plan-patch: geometry/kinds {:?}", t1.elapsed());
        }
        let t2 = std::time::Instant::now();
        // ---- Dirty sets for the pruned traversal. -----------------------
        let mut hot_new_slots: HashSet<usize> = HashSet::new();
        for id in flipped.iter().chain(created.iter()) {
            hot_new_slots.insert(new_slot(*id));
        }
        let mut hot_old_slots: HashSet<usize> = HashSet::new();
        for id in flipped.iter().chain(removed.iter()) {
            hot_old_slots.insert(old_slot_of[id]);
        }
        let mut anc_slots: HashSet<usize> = HashSet::new();
        for id in flipped.iter().chain(created.iter()) {
            let mut cur = *id;
            while let Some(p) = cur.parent() {
                let ps = new_slot(p);
                if hot_new_slots.contains(&ps) || !anc_slots.insert(ps) {
                    break;
                }
                cur = p;
            }
        }

        // Per-level half-diagonals (a pure function of the level).
        let radius_by_level: Vec<f64> = (0..new_nlev)
            .map(|l| node_geometry(nodes[level_ranges[l].0]).1)
            .collect();

        // ---- Pruned dual-tree traversal: only pairs whose subtrees touch
        // a dirty node are visited; entries are emitted only for pairs
        // with a dirty side (clean-pair outcomes are provably unchanged). -
        let mut add_m2l: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut add_p2p: HashMap<usize, Vec<usize>> = HashMap::new();
        let relevant = |s: usize| hot_new_slots.contains(&s) || anc_slots.contains(&s);
        let root = new_total - 1;
        let mut stack: Vec<(usize, usize)> = vec![(root, root)];
        while let Some((a, b)) = stack.pop() {
            if !(relevant(a) || relevant(b)) {
                continue;
            }
            let hot_pair = hot_new_slots.contains(&a) || hot_new_slots.contains(&b);
            if a == b {
                match kinds[a] {
                    SlotKind::Leaf(la) => {
                        if hot_pair {
                            add_p2p.entry(la).or_default().push(la);
                        }
                    }
                    SlotKind::Interior(kids) => {
                        for (i, &ci) in kids.iter().enumerate() {
                            for &cj in &kids[i..] {
                                stack.push((ci, cj));
                            }
                        }
                    }
                }
                continue;
            }
            let (ra, rb) = (
                radius_by_level[nodes[a].level() as usize],
                radius_by_level[nodes[b].level() as usize],
            );
            if well_separated(centers[a], ra, centers[b], rb, theta) {
                if hot_pair {
                    add_m2l.entry(a).or_default().push(b);
                    add_m2l.entry(b).or_default().push(a);
                }
                continue;
            }
            match (kinds[a], kinds[b]) {
                (SlotKind::Leaf(la), SlotKind::Leaf(lb)) => {
                    if hot_pair {
                        add_p2p.entry(la).or_default().push(lb);
                        add_p2p.entry(lb).or_default().push(la);
                    }
                }
                (a_kind, b_kind) => {
                    let split_a = match (a_kind, b_kind) {
                        (SlotKind::Leaf(_), _) => false,
                        (_, SlotKind::Leaf(_)) => true,
                        _ => nodes[a].level() <= nodes[b].level(),
                    };
                    let (split, keep) = if split_a { (a, b) } else { (b, a) };
                    let SlotKind::Interior(kids) = kinds[split] else {
                        unreachable!("split node is interior by construction");
                    };
                    for c in kids {
                        stack.push((c, keep));
                    }
                }
            }
        }

        if trace {
            eprintln!("plan-patch: pruned traversal {:?}", t2.elapsed());
        }
        let t3 = std::time::Instant::now();
        // ---- Retraction scan: lists are symmetric, so the clean slots
        // whose lists reference a dirty node are exactly the partners
        // named by the dirty nodes' *old* lists.  Dense bool marks, not
        // hash sets: the CSR assembly below probes them once per slot and
        // once per filtered entry, and those probes are the patch's hot
        // loop — the whole point of patching is that this loop runs at
        // copy bandwidth, not hash speed. --------------------------------
        let mut hot_old_mark = vec![false; old.num_nodes];
        for &h in &hot_old_slots {
            hot_old_mark[h] = true;
        }
        let mut filter_old_mark = vec![false; old.num_nodes];
        for &h in &hot_old_slots {
            for &p in old.m2l_sources_of(h) {
                if !hot_old_mark[p] {
                    filter_old_mark[p] = true;
                }
            }
        }
        let mut filter_leaf_mark = vec![false; old.leaves.len()];
        for (li, &dropped) in drop_leaf.iter().enumerate() {
            if dropped {
                for &p in old.p2p_sources_of(li) {
                    if !drop_leaf[p] {
                        filter_leaf_mark[p] = true;
                    }
                }
            }
        }

        // ---- Assemble the M2L CSR. --------------------------------------
        let dirty_slots: Vec<usize> = {
            let mut v: Vec<usize> = hot_new_slots
                .iter()
                .copied()
                .chain(add_m2l.keys().copied())
                .chain(
                    filter_old_mark
                        .iter()
                        .enumerate()
                        .filter(|&(_, &f)| f)
                        .map(|(os, _)| slot_map[os]),
                )
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut hot_new_mark = vec![false; new_total];
        for &s in &hot_new_slots {
            hot_new_mark[s] = true;
        }
        let slot_runs = Self::offset_runs(&slot_map);
        for v in add_m2l.values_mut() {
            v.sort_unstable();
        }
        let mut m2l_offsets = Vec::with_capacity(new_total + 1);
        let mut m2l_sources: Vec<usize> = Vec::with_capacity(old.m2l_sources.len());
        let mut m2l_targets = Vec::new();
        m2l_offsets.push(0usize);
        let mut scratch: Vec<usize> = Vec::new();
        for s in 0..new_total {
            let begin = m2l_sources.len();
            let os = old_of_new[s];
            if hot_new_mark[s] || os == usize::MAX {
                if let Some(v) = add_m2l.get(&s) {
                    m2l_sources.extend_from_slice(v);
                }
            } else if filter_old_mark[os] || add_m2l.contains_key(&s) {
                scratch.clear();
                scratch.extend(
                    old.m2l_sources_of(os)
                        .iter()
                        .filter(|&&x| !hot_old_mark[x])
                        .map(|&x| slot_map[x]),
                );
                match add_m2l.get(&s) {
                    Some(v) => Self::merge_sorted_into(&mut m2l_sources, &scratch, v),
                    None => m2l_sources.extend_from_slice(&scratch),
                }
            } else {
                // Clean slot: a pure renumbering of a sorted list through
                // a monotone map, streamed straight into the CSR.
                Self::extend_renumbered(&mut m2l_sources, old.m2l_sources_of(os), &slot_runs);
            }
            if m2l_sources.len() > begin {
                m2l_targets.push(s);
            }
            m2l_offsets.push(m2l_sources.len());
        }

        if trace {
            eprintln!(
                "plan-patch: m2l CSR {:?} ({} entries)",
                t3.elapsed(),
                m2l_sources.len()
            );
        }
        let t4 = std::time::Instant::now();
        // ---- Assemble the P2P CSR. --------------------------------------
        let dirty_leaves: Vec<usize> = {
            let mut v: Vec<usize> = inserted_leaf_idx
                .iter()
                .copied()
                .chain(add_p2p.keys().copied())
                .chain(
                    filter_leaf_mark
                        .iter()
                        .enumerate()
                        .filter(|&(_, &f)| f)
                        .map(|(ol, _)| leaf_map[ol]),
                )
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut inserted_leaf_mark = vec![false; leaves.len()];
        for &li in &inserted_leaf_idx {
            inserted_leaf_mark[li] = true;
        }
        let leaf_runs = Self::offset_runs(&leaf_map);
        for v in add_p2p.values_mut() {
            v.sort_unstable();
        }
        let mut p2p_offsets = Vec::with_capacity(leaves.len() + 1);
        let mut p2p_sources: Vec<usize> = Vec::with_capacity(old.p2p_sources.len());
        p2p_offsets.push(0usize);
        for li in 0..leaves.len() {
            let ol = old_of_new_leaf[li];
            if inserted_leaf_mark[li] || ol == usize::MAX {
                if let Some(v) = add_p2p.get(&li) {
                    p2p_sources.extend_from_slice(v);
                }
            } else if filter_leaf_mark[ol] || add_p2p.contains_key(&li) {
                scratch.clear();
                scratch.extend(
                    old.p2p_sources_of(ol)
                        .iter()
                        .filter(|&&x| !drop_leaf[x])
                        .map(|&x| leaf_map[x]),
                );
                match add_p2p.get(&li) {
                    Some(v) => Self::merge_sorted_into(&mut p2p_sources, &scratch, v),
                    None => p2p_sources.extend_from_slice(&scratch),
                }
            } else {
                Self::extend_renumbered(&mut p2p_sources, old.p2p_sources_of(ol), &leaf_runs);
            }
            p2p_offsets.push(p2p_sources.len());
        }
        if trace {
            eprintln!(
                "plan-patch: p2p CSR {:?} ({} entries)",
                t4.elapsed(),
                p2p_sources.len()
            );
        }

        let stats = SolveStats {
            m2l_interactions: m2l_sources.len(),
            p2p_pairs: p2p_sources.len(),
            multipole_kernel_launches: m2l_targets.len(),
        };
        let retired_slots: Vec<usize> = {
            let mut v: Vec<usize> = hot_old_slots.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let retired_leaves: Vec<usize> = drop_leaf
            .iter()
            .enumerate()
            .filter_map(|(li, &d)| d.then_some(li))
            .collect();

        let plan = GravityPlan {
            topology_version: tree.topology_version(),
            theta,
            num_nodes: new_total,
            nodes,
            centers,
            kinds,
            parent_slot,
            level_ranges,
            leaves,
            leaf_slots,
            m2l_offsets,
            m2l_sources,
            m2l_targets,
            p2p_offsets,
            p2p_sources,
            stats,
        };
        let report = PatchReport {
            old_version: old.topology_version,
            new_version: plan.topology_version,
            slot_map,
            leaf_map,
            dirty_slots,
            retired_slots,
            dirty_leaves,
            retired_leaves,
        };
        Some((plan, report))
    }
}

/// What [`GravityPlan::patch`] changed — the downstream caches
/// ([`super::dist::DistPlan`], ghost payload demand, workspaces) consume
/// this to patch *themselves* subtree-locally instead of re-deriving the
/// dirty set from the delta again.
#[derive(Debug, Clone, Default)]
pub struct PatchReport {
    /// `topology_version` of the plan that was patched.
    pub old_version: u64,
    /// `topology_version` of the patched plan.
    pub new_version: u64,
    /// Old slot → new slot (monotone; `usize::MAX` for removed slots).
    pub slot_map: Vec<usize>,
    /// Old leaf index → new leaf index (`usize::MAX` when retired).
    pub leaf_map: Vec<usize>,
    /// New slots whose M2L list differs from a pure renumbering of the
    /// old one (sorted ascending).
    pub dirty_slots: Vec<usize>,
    /// Old slots that no longer exist or flipped kind (sorted ascending).
    pub retired_slots: Vec<usize>,
    /// New leaf indices whose P2P list changed (sorted ascending).
    pub dirty_leaves: Vec<usize>,
    /// Old leaf indices that are no longer leaves (sorted ascending).
    pub retired_leaves: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_is_deepest_first_and_contiguous() {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let plan = GravityPlan::build(&tree, 0.5);
        assert_eq!(plan.num_nodes, tree.len());
        // Levels appear deepest first, each as one contiguous range.
        let mut cursor = 0usize;
        for level in (0..=tree.max_level()).rev() {
            let (b, e) = plan.level_ranges[level as usize];
            assert_eq!(b, cursor, "level {level} range not contiguous");
            for s in b..e {
                assert_eq!(plan.nodes[s].level(), level);
            }
            cursor = e;
        }
        assert_eq!(cursor, plan.num_nodes);
        // Children sit at strictly smaller slots, parents strictly larger.
        for (s, kind) in plan.kinds.iter().enumerate() {
            if let SlotKind::Interior(kids) = kind {
                assert!(kids.iter().all(|&c| c < s));
            }
            let p = plan.parent_slot[s];
            if p != usize::MAX {
                assert!(p > s);
            }
        }
        // The root is the very last slot.
        assert_eq!(plan.nodes[plan.num_nodes - 1], NodeId::ROOT);
        assert_eq!(plan.parent_slot[plan.num_nodes - 1], usize::MAX);
    }

    #[test]
    fn csr_lists_match_stats() {
        let tree = Tree::new_uniform(2);
        let plan = GravityPlan::build(&tree, 0.5);
        assert_eq!(plan.stats.m2l_interactions, plan.m2l_sources.len());
        assert_eq!(plan.stats.p2p_pairs, plan.p2p_sources.len());
        assert_eq!(plan.stats.multipole_kernel_launches, plan.m2l_targets.len());
        assert!(plan.stats.m2l_interactions > 0);
        assert!(plan.stats.p2p_pairs > 0);
        // M2L symmetry: the interaction a→b implies b→a.
        for &t in &plan.m2l_targets {
            for &s in plan.m2l_sources_of(t) {
                assert!(
                    plan.m2l_sources_of(s).contains(&t),
                    "asymmetric M2L pair ({t}, {s})"
                );
            }
        }
        // Every leaf P2P list contains the self pair.
        for li in 0..plan.leaves.len() {
            assert!(plan.p2p_sources_of(li).contains(&li));
        }
    }

    #[test]
    fn rebuilding_on_an_unchanged_tree_is_deterministic() {
        let tree = Tree::new_uniform(2);
        let a = GravityPlan::build(&tree, 0.5);
        let b = GravityPlan::build(&tree, 0.5);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.m2l_offsets, b.m2l_offsets);
        assert_eq!(a.m2l_sources, b.m2l_sources);
        assert_eq!(a.p2p_offsets, b.p2p_offsets);
        assert_eq!(a.p2p_sources, b.p2p_sources);
        assert!(a.is_valid_for(&tree, 0.5));
        assert!(!a.is_valid_for(&tree, 0.4), "θ change must invalidate");
    }

    fn assert_plans_identical(a: &GravityPlan, b: &GravityPlan) {
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.parent_slot, b.parent_slot);
        assert_eq!(a.level_ranges, b.level_ranges);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.leaf_slots, b.leaf_slots);
        assert_eq!(a.m2l_offsets, b.m2l_offsets);
        assert_eq!(a.m2l_sources, b.m2l_sources);
        assert_eq!(a.m2l_targets, b.m2l_targets);
        assert_eq!(a.p2p_offsets, b.p2p_offsets);
        assert_eq!(a.p2p_sources, b.p2p_sources);
        assert_eq!(a, b, "patched plan differs from a from-scratch rebuild");
    }

    #[test]
    fn patched_plan_matches_rebuild_after_refine() {
        let mut tree = Tree::new_uniform(2);
        let _ = tree.take_regrid_delta();
        let old = GravityPlan::build(&tree, 0.5);
        tree.refine_balanced(tree.leaves()[13]);
        let delta = tree.take_regrid_delta();
        let (patched, report) =
            GravityPlan::patch(&old, &tree, &delta, 0.5).expect("delta spans the plan");
        assert_plans_identical(&patched, &GravityPlan::build(&tree, 0.5));
        assert!(!report.dirty_slots.is_empty());
        assert!(
            report.dirty_slots.len() < patched.num_nodes,
            "subtree-local"
        );
    }

    #[test]
    fn patched_plan_matches_rebuild_after_derefine_and_mixed_ops() {
        let mut tree = Tree::new_uniform(2);
        tree.refine_balanced(NodeId::from_coords(2, [1, 1, 1]));
        let _ = tree.take_regrid_delta();
        let old = GravityPlan::build(&tree, 0.5);
        // Mixed episode: coarsen the deep corner, refine elsewhere.
        let deep = NodeId::from_coords(2, [1, 1, 1]);
        assert!(!tree.derefine_balanced(deep).is_empty());
        tree.refine_balanced(NodeId::from_coords(2, [3, 3, 3]));
        let delta = tree.take_regrid_delta();
        let (patched, _) =
            GravityPlan::patch(&old, &tree, &delta, 0.5).expect("delta spans the plan");
        assert_plans_identical(&patched, &GravityPlan::build(&tree, 0.5));
    }

    #[test]
    fn patch_refuses_non_spanning_deltas() {
        let mut tree = Tree::new_uniform(1);
        let _ = tree.take_regrid_delta();
        let old = GravityPlan::build(&tree, 0.5);
        tree.refine_balanced(tree.leaves()[0]);
        let delta = tree.take_regrid_delta();
        tree.refine_balanced(tree.leaves()[0]); // moves past the delta span
        assert!(GravityPlan::patch(&old, &tree, &delta, 0.5).is_none());
        assert!(
            GravityPlan::patch(&old, &tree, &delta, 0.4).is_none(),
            "θ change must force a rebuild"
        );
    }

    #[test]
    fn refinement_invalidates_the_plan() {
        let mut tree = Tree::new_uniform(1);
        let plan = GravityPlan::build(&tree, 0.5);
        assert!(plan.is_valid_for(&tree, 0.5));
        tree.refine_balanced(tree.leaves()[0]);
        assert!(!plan.is_valid_for(&tree, 0.5));
    }
}
