//! The AMR octree: full-refinement property, 2:1 balance, neighbour
//! queries, and criterion-driven refinement.
//!
//! Paper Section IV-C: *"The grid structure for the hydrodynamics is based
//! on an adaptive mesh refinement (AMR) octree, with each node being either
//! a leaf node or a fully refined interior node of the octree."*  The tree
//! here is purely topological — leaf payloads (sub-grids, multipole
//! moments) are stored by `NodeId` in the layers above — which keeps
//! refinement logic independent of the physics.

use crate::index::{Dir, NodeId, Octant, MAX_LEVEL};
use std::collections::HashMap;

/// Node kind within the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Interior,
    Leaf,
}

/// What a leaf finds in one of its 26 directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Neighbor {
    /// A leaf of the same refinement level.
    SameLevel(NodeId),
    /// A leaf one level coarser covering the queried region.
    Coarser(NodeId),
    /// The same-level neighbour is refined; these are its child leaves
    /// adjacent to the querying leaf (1, 2 or 4 of them depending on the
    /// direction's codimension).
    Finer(Vec<NodeId>),
    /// Outside the computational domain (outflow boundary).
    DomainBoundary,
}

/// An octree with the full-refinement and 2:1-balance invariants.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: HashMap<NodeId, Node>,
    /// Bumped on every successful [`Tree::refine`]/[`Tree::derefine`], so
    /// layers caching topology-derived structures (the gravity solver's
    /// interaction plan, ghost link tables, …) can detect regrids with one
    /// integer compare instead of re-walking the tree.
    topology_version: u64,
}

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

impl Tree {
    /// A tree consisting of just the root leaf.
    pub fn new() -> Tree {
        let mut nodes = HashMap::new();
        nodes.insert(NodeId::ROOT, Node::Leaf);
        Tree {
            nodes,
            topology_version: 0,
        }
    }

    /// A tree uniformly refined to `level` (all leaves at that level).
    pub fn new_uniform(level: u8) -> Tree {
        assert!(level <= MAX_LEVEL);
        let mut tree = Tree::new();
        for _ in 0..level {
            let leaves = tree.leaves();
            for leaf in leaves {
                tree.refine(leaf);
            }
        }
        tree
    }

    /// Number of nodes (interior + leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if only the root exists... never: the root always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `id` exists in the tree.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// `true` if `id` is a leaf of the tree.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        matches!(self.nodes.get(&id), Some(Node::Leaf))
    }

    /// `true` if `id` is an interior (fully refined) node.
    pub(crate) fn is_interior(&self, id: NodeId) -> bool {
        matches!(self.nodes.get(&id), Some(Node::Interior))
    }

    /// All leaves, sorted in space-filling-curve order (deterministic).
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| matches!(n, Node::Leaf))
            .map(|(id, _)| *id)
            .collect();
        out.sort_by_key(|id| id.sfc_key());
        out
    }

    /// All interior nodes of a given level, SFC-sorted.
    pub fn interior_at_level(&self, level: u8) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(id, n)| matches!(n, Node::Interior) && id.level() == level)
            .map(|(id, _)| *id)
            .collect();
        out.sort_by_key(|id| id.sfc_key());
        out
    }

    /// All nodes of a given level (leaf or interior), SFC-sorted.
    pub fn nodes_at_level(&self, level: u8) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .keys()
            .filter(|id| id.level() == level)
            .copied()
            .collect();
        out.sort_by_key(|id| id.sfc_key());
        out
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| matches!(n, Node::Leaf))
            .count()
    }

    /// Deepest level present.
    pub fn max_level(&self) -> u8 {
        self.nodes.keys().map(|id| id.level()).max().unwrap_or(0)
    }

    /// Monotonic counter of topology changes: two calls returning the same
    /// value guarantee the node set (and hence every interaction list
    /// derived from it) is unchanged in between.
    pub fn topology_version(&self) -> u64 {
        self.topology_version
    }

    /// Refine a leaf into an interior node with 8 leaf children.
    /// Does **not** restore 2:1 balance — use [`Tree::refine_balanced`]
    /// when the invariant must hold afterwards.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn refine(&mut self, id: NodeId) {
        match self.nodes.get_mut(&id) {
            Some(n @ Node::Leaf) => *n = Node::Interior,
            _ => panic!("refine: {id} is not a leaf of this tree"),
        }
        for oct in Octant::all() {
            self.nodes.insert(id.child(oct), Node::Leaf);
        }
        self.topology_version += 1;
    }

    /// Refine a leaf, recursively refining coarser neighbours first so the
    /// 2:1 balance across all 26 directions is preserved.
    /// Returns every leaf that was refined (including `id`), in refinement
    /// order, so callers can create payloads for the new children.
    pub fn refine_balanced(&mut self, id: NodeId) -> Vec<NodeId> {
        let mut refined = Vec::new();
        self.refine_balanced_inner(id, &mut refined);
        refined
    }

    fn refine_balanced_inner(&mut self, id: NodeId, refined: &mut Vec<NodeId>) {
        if !self.is_leaf(id) {
            return; // already refined by a prior recursive step
        }
        // Make sure every neighbouring region is at most one level coarser
        // than the children we are about to create.
        for dir in Dir::all26() {
            if let Some(nb) = id.neighbor(dir) {
                let covering = self.covering_leaf(nb);
                if let Some(cov) = covering {
                    if cov.level() < id.level() {
                        self.refine_balanced_inner(cov, refined);
                    }
                }
            }
        }
        self.refine(id);
        refined.push(id);
    }

    /// Collapse an interior node whose 8 children are all leaves back into
    /// a leaf.  Refuses (returns `false`) if any child is interior or if
    /// the collapse would break 2:1 balance against a finer neighbour.
    pub fn derefine(&mut self, id: NodeId) -> bool {
        if !self.is_interior(id) {
            return false;
        }
        for oct in Octant::all() {
            if !self.is_leaf(id.child(oct)) {
                return false;
            }
        }
        // Balance: no neighbouring region may be more than one level finer
        // than the would-be leaf; i.e. no neighbour's same-level node may be
        // interior with interior children... it suffices that every
        // same-level neighbour's children (if any) are leaves.
        for dir in Dir::all26() {
            if let Some(nb) = id.neighbor(dir) {
                if self.is_interior(nb) {
                    for oct in Octant::all() {
                        if self.is_interior(nb.child(oct)) {
                            return false;
                        }
                    }
                }
            }
        }
        for oct in Octant::all() {
            self.nodes.remove(&id.child(oct));
        }
        self.nodes.insert(id, Node::Leaf);
        self.topology_version += 1;
        true
    }

    /// The leaf covering position `id` (deepest existing ancestor-or-self
    /// that is a leaf), or `None` if the region is refined deeper than `id`
    /// or outside the tree.
    pub fn covering_leaf(&self, id: NodeId) -> Option<NodeId> {
        let mut cur = id;
        loop {
            match self.nodes.get(&cur) {
                Some(Node::Leaf) => return Some(cur),
                Some(Node::Interior) => return None, // refined deeper
                None => cur = cur.parent()?,
            }
        }
    }

    /// What leaf `id` (which must be a leaf) sees in direction `dir`.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn neighbor_of(&self, id: NodeId, dir: Dir) -> Neighbor {
        assert!(self.is_leaf(id), "neighbor_of: {id} is not a leaf");
        let Some(nb) = id.neighbor(dir) else {
            return Neighbor::DomainBoundary;
        };
        match self.nodes.get(&nb) {
            Some(Node::Leaf) => Neighbor::SameLevel(nb),
            Some(Node::Interior) => {
                // 2:1 balance guarantees the adjacent children are leaves.
                let kids = adjacent_children(nb, dir.opposite());
                debug_assert!(kids.iter().all(|k| self.is_leaf(*k)));
                Neighbor::Finer(kids)
            }
            None => match self.covering_leaf(nb) {
                Some(cov) => {
                    debug_assert_eq!(
                        cov.level() + 1,
                        id.level(),
                        "2:1 balance violated between {id} and {cov}"
                    );
                    Neighbor::Coarser(cov)
                }
                None => Neighbor::DomainBoundary,
            },
        }
    }

    /// Verify all structural invariants; returns a description of the first
    /// violation, or `Ok(())`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.nodes.contains_key(&NodeId::ROOT) {
            return Err("root missing".into());
        }
        for (&id, &node) in &self.nodes {
            // Parent chain must exist and be interior.
            if let Some(p) = id.parent() {
                match self.nodes.get(&p) {
                    Some(Node::Interior) => {}
                    Some(Node::Leaf) => return Err(format!("{id} exists under leaf parent {p}")),
                    None => return Err(format!("{id} has no parent node {p}")),
                }
            }
            match node {
                Node::Interior => {
                    for oct in Octant::all() {
                        if !self.contains(id.child(oct)) {
                            return Err(format!("interior {id} missing child octant {}", oct.0));
                        }
                    }
                }
                Node::Leaf => {
                    for oct in Octant::all() {
                        if self.contains(id.child(oct)) {
                            return Err(format!("leaf {id} has child octant {}", oct.0));
                        }
                    }
                }
            }
        }
        // 2:1 balance over all 26 directions.
        for leaf in self.leaves() {
            for dir in Dir::all26() {
                if let Some(nb) = leaf.neighbor(dir) {
                    if !self.nodes.contains_key(&nb) {
                        match self.covering_leaf(nb) {
                            Some(cov) if cov.level() + 1 < leaf.level() => {
                                return Err(format!("balance violation: {leaf} vs coarser {cov}"));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Refine every leaf for which `criterion` holds (up to `max_level`),
    /// repeatedly until no leaf qualifies.  Returns the list of refined
    /// leaves in order.  This is Octo-Tiger's density-driven regrid step.
    pub fn refine_where(
        &mut self,
        max_level: u8,
        mut criterion: impl FnMut(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut all_refined = Vec::new();
        loop {
            let candidates: Vec<NodeId> = self
                .leaves()
                .into_iter()
                .filter(|l| l.level() < max_level && criterion(*l))
                .collect();
            if candidates.is_empty() {
                break;
            }
            for c in candidates {
                if self.is_leaf(c) {
                    let refined = self.refine_balanced(c);
                    all_refined.extend(refined);
                }
            }
        }
        all_refined
    }
}

/// Children of `parent` adjacent to its face/edge/corner in direction `dir`.
fn adjacent_children(parent: NodeId, dir: Dir) -> Vec<NodeId> {
    let mut out = Vec::new();
    for oct in Octant::all() {
        let [x, y, z] = oct.xyz();
        let ok = |d: i8, bit: u8| match d {
            -1 => bit == 0,
            1 => bit == 1,
            _ => true,
        };
        if ok(dir.dx, x) && ok(dir.dy, y) && ok(dir.dz, z) {
            out.push(parent.child(oct));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tree_counts() {
        let t = Tree::new_uniform(2);
        assert_eq!(t.num_leaves(), 64);
        assert_eq!(t.len(), 1 + 8 + 64);
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.max_level(), 2);
    }

    #[test]
    fn root_only_tree() {
        let t = Tree::new();
        assert_eq!(t.num_leaves(), 1);
        assert!(t.is_leaf(NodeId::ROOT));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn refine_preserves_full_refinement() {
        let mut t = Tree::new();
        t.refine(NodeId::ROOT);
        assert!(t.is_interior(NodeId::ROOT));
        assert_eq!(t.num_leaves(), 8);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn refining_interior_panics() {
        let mut t = Tree::new_uniform(1);
        t.refine(NodeId::ROOT);
    }

    #[test]
    fn balanced_refine_refines_coarse_neighbors() {
        // Refine one corner leaf of a level-1 tree twice; balance must drag
        // neighbouring level-1 leaves to level 2 before level 3 appears.
        let mut t = Tree::new_uniform(1);
        let corner = NodeId::from_coords(1, [0, 0, 0]);
        t.refine_balanced(corner);
        assert!(t.check_invariants().is_ok());
        let deep = NodeId::from_coords(2, [0, 0, 0]);
        let refined = t.refine_balanced(deep);
        assert!(refined.contains(&deep));
        assert!(t.check_invariants().is_ok());
        // The level-1 neighbours of `corner` must now be refined.
        for dir in Dir::all26() {
            if let Some(nb) = corner.neighbor(dir) {
                assert!(
                    t.is_interior(nb) || t.is_leaf(nb),
                    "{nb} missing after balance"
                );
            }
        }
    }

    #[test]
    fn neighbor_same_level() {
        let t = Tree::new_uniform(2);
        let id = NodeId::from_coords(2, [1, 1, 1]);
        match t.neighbor_of(id, Dir::new(1, 0, 0)) {
            Neighbor::SameLevel(nb) => assert_eq!(nb.coords(), [2, 1, 1]),
            other => panic!("expected SameLevel, got {other:?}"),
        }
    }

    #[test]
    fn neighbor_domain_boundary() {
        let t = Tree::new_uniform(1);
        let id = NodeId::from_coords(1, [0, 0, 0]);
        assert_eq!(
            t.neighbor_of(id, Dir::new(-1, 0, 0)),
            Neighbor::DomainBoundary
        );
    }

    #[test]
    fn neighbor_finer_and_coarser() {
        let mut t = Tree::new_uniform(1);
        let refined = NodeId::from_coords(1, [0, 0, 0]);
        t.refine_balanced(refined);
        // The leaf at [1,0,0] (level 1) sees finer children in -x... no:
        // +(-1,0,0) from [1,0,0] is [0,0,0] which is interior now.
        let coarse = NodeId::from_coords(1, [1, 0, 0]);
        match t.neighbor_of(coarse, Dir::new(-1, 0, 0)) {
            Neighbor::Finer(kids) => {
                assert_eq!(kids.len(), 4);
                for k in kids {
                    assert_eq!(k.level(), 2);
                    // Children adjacent to the +x face of the refined node.
                    assert_eq!(k.coords()[0], 1);
                }
            }
            other => panic!("expected Finer, got {other:?}"),
        }
        // A fine leaf looking away from the refined region sees a coarser
        // leaf.
        let fine = NodeId::from_coords(2, [1, 0, 0]);
        assert!(t.is_leaf(fine));
        match t.neighbor_of(fine, Dir::new(1, 0, 0)) {
            Neighbor::Coarser(c) => assert_eq!(c, coarse),
            other => panic!("expected Coarser, got {other:?}"),
        }
    }

    #[test]
    fn finer_neighbor_counts_by_codim() {
        let mut t = Tree::new_uniform(1);
        t.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let nb = NodeId::from_coords(1, [1, 1, 1]);
        // Corner direction toward the refined node: exactly 1 adjacent child.
        match t.neighbor_of(nb, Dir::new(-1, -1, -1)) {
            Neighbor::Finer(kids) => assert_eq!(kids.len(), 1),
            other => panic!("expected Finer corner, got {other:?}"),
        }
        let edge_nb = NodeId::from_coords(1, [1, 1, 0]);
        match t.neighbor_of(edge_nb, Dir::new(-1, -1, 0)) {
            Neighbor::Finer(kids) => assert_eq!(kids.len(), 2),
            other => panic!("expected Finer edge, got {other:?}"),
        }
    }

    #[test]
    fn derefine_roundtrip() {
        let mut t = Tree::new_uniform(1);
        assert!(t.derefine(NodeId::ROOT));
        assert!(t.is_leaf(NodeId::ROOT));
        assert_eq!(t.num_leaves(), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn derefine_refuses_when_children_are_interior() {
        let mut t = Tree::new_uniform(2);
        assert!(!t.derefine(NodeId::ROOT));
    }

    #[test]
    fn derefine_refuses_when_balance_would_break() {
        let mut t = Tree::new_uniform(1);
        let a = NodeId::from_coords(1, [0, 0, 0]);
        t.refine_balanced(a);
        t.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        assert!(t.check_invariants().is_ok());
        // Collapsing the neighbour of `a` would place a level-1 leaf next to
        // level-3 leaves.
        let nb = NodeId::from_coords(1, [1, 0, 0]);
        if t.is_interior(nb) {
            assert!(!t.derefine(nb));
        }
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn refine_where_criterion() {
        let mut t = Tree::new_uniform(1);
        // Refine every leaf whose cube touches the domain center.
        let refined = t.refine_where(3, |id| {
            let (corner, size) = id.cube();
            (0..3).all(|a| corner[a] <= 0.5 && corner[a] + size >= 0.5)
        });
        assert!(!refined.is_empty());
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.max_level(), 3);
        // All 8 level-3 leaves around the center exist.
        for x in 3..5u32 {
            for y in 3..5u32 {
                for z in 3..5u32 {
                    assert!(t.is_leaf(NodeId::from_coords(3, [x, y, z])));
                }
            }
        }
    }

    #[test]
    fn topology_version_tracks_refine_and_derefine() {
        let mut t = Tree::new();
        assert_eq!(t.topology_version(), 0);
        t.refine(NodeId::ROOT);
        let after_refine = t.topology_version();
        assert!(after_refine > 0);
        // Queries never bump the version.
        let _ = t.leaves();
        let _ = t.max_level();
        assert_eq!(t.topology_version(), after_refine);
        // A refused derefinement leaves the version unchanged…
        let mut deep = Tree::new_uniform(2);
        let v = deep.topology_version();
        assert!(!deep.derefine(NodeId::ROOT));
        assert_eq!(deep.topology_version(), v);
        // …a successful one bumps it.
        assert!(t.derefine(NodeId::ROOT));
        assert!(t.topology_version() > after_refine);
    }

    #[test]
    fn leaves_are_sfc_sorted() {
        let mut t = Tree::new_uniform(1);
        t.refine_balanced(NodeId::from_coords(1, [1, 1, 1]));
        let leaves = t.leaves();
        for w in leaves.windows(2) {
            assert!(w[0].sfc_key() < w[1].sfc_key());
        }
    }

    #[test]
    fn covering_leaf_lookup() {
        let mut t = Tree::new_uniform(1);
        t.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let deep = NodeId::from_coords(3, [7, 7, 7]);
        let cov = t.covering_leaf(deep).unwrap();
        assert_eq!(cov, NodeId::from_coords(1, [1, 1, 1]));
        // A position that is refined deeper than asked returns None.
        assert!(t.covering_leaf(NodeId::from_coords(1, [0, 0, 0])).is_none());
    }
}
