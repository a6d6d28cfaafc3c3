//! Property-based tests of the AMR substrate: random refinement sequences,
//! random ghost-region round-trips, partition totality.

use octree::{partition_morton, Dir, NodeId, Octant, SubGrid, Tree};
use proptest::prelude::*;
use std::collections::HashMap;

/// Build a random adaptive tree by refining seq-picked leaves (capped at
/// level 4) — the shared generator for the partition properties below.
fn random_tree(seq: &[usize]) -> Tree {
    let mut tree = Tree::new_uniform(1);
    for &s in seq {
        let leaves = tree.leaves();
        let pick = leaves[s % leaves.len()];
        if pick.level() < 4 {
            tree.refine_balanced(pick);
        }
    }
    tree
}

proptest! {
    #[test]
    fn refinement_sequences_preserve_invariants(seq in prop::collection::vec(0usize..512, 0..10)) {
        let mut tree = Tree::new_uniform(1);
        for s in seq {
            let leaves = tree.leaves();
            let pick = leaves[s % leaves.len()];
            if pick.level() < 4 {
                tree.refine_balanced(pick);
            }
        }
        prop_assert!(tree.check_invariants().is_ok());
    }

    #[test]
    fn derefine_after_refine_preserves_invariants(seq in prop::collection::vec((0usize..64, any::<bool>()), 1..12)) {
        let mut tree = Tree::new_uniform(1);
        for (s, deref) in seq {
            if deref {
                let interiors = tree.interior_at_level(1);
                if !interiors.is_empty() {
                    let t = interiors[s % interiors.len()];
                    tree.derefine(t); // may refuse; either way invariants hold
                }
            } else {
                let leaves = tree.leaves();
                let pick = leaves[s % leaves.len()];
                if pick.level() < 3 {
                    tree.refine_balanced(pick);
                }
            }
            prop_assert!(tree.check_invariants().is_ok());
        }
    }

    #[test]
    fn pack_unpack_roundtrip_for_every_direction(values in prop::collection::vec(-1.0e3f64..1e3, 64),
                                                 dir_idx in 0usize..26) {
        let dir = Dir::all26().nth(dir_idx).expect("26 directions");
        let mut src = SubGrid::new(4, 2, 1);
        // Fill the interior deterministically from `values`.
        let mut it = values.iter().cycle();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    src.set_interior(0, i, j, k, *it.next().expect("cycled"));
                }
            }
        }
        let payload = src.pack_send(dir);
        let mut dst = SubGrid::new(4, 2, 1);
        dst.unpack_recv(dir.opposite(), &payload);
        // The receiving ghost region must hold exactly the packed data in
        // order; repack it from the ghost side and compare.
        let ghost_box = dst.recv_box(dir.opposite());
        let back = dst.pack_box(&ghost_box);
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn prolong_restrict_roundtrip_random_fields(values in prop::collection::vec(-10.0f64..10.0, 512),
                                                large in any::<bool>(),
                                                ghost in 1usize..3) {
        let n = if large { 8 } else { 4 };
        let mut parent = SubGrid::new(n, ghost, 2);
        let mut it = values.iter().cycle();
        for f in 0..2 {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        parent.set_interior(f, i, j, k, *it.next().expect("cycled"));
                    }
                }
            }
        }
        let mut rebuilt = SubGrid::new(n, ghost, 2);
        for oct in Octant::all() {
            let child = parent.prolong_child(oct);
            rebuilt.restrict_from_child(oct, &child);
        }
        for f in 0..2 {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        prop_assert!((rebuilt.get_interior(f, i, j, k)
                            - parent.get_interior(f, i, j, k)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn partition_total_and_contiguous(level in 1u8..3, parts in 1usize..20) {
        let tree = Tree::new_uniform(level);
        let owner = partition_morton(&tree, parts);
        prop_assert_eq!(owner.len(), tree.num_leaves());
        let mut prev = 0usize;
        for leaf in tree.leaves() {
            let p = owner[&leaf].0;
            prop_assert!(p >= prev);
            prop_assert!(p < parts);
            prev = p;
        }
    }

    #[test]
    fn every_leaf_owned_by_exactly_one_locality(seq in prop::collection::vec(0usize..512, 0..8),
                                                parts in 1usize..9) {
        let tree = random_tree(&seq);
        let owner = partition_morton(&tree, parts);
        // Totality: the map covers the leaf set exactly (every leaf has
        // an owner; a HashMap can't assign a leaf twice).
        prop_assert_eq!(owner.len(), tree.num_leaves());
        for leaf in tree.leaves() {
            let p = owner[&leaf].0;
            prop_assert!(p < parts, "owner {} out of range", p);
        }
    }

    #[test]
    fn sfc_cuts_stay_contiguous_on_adaptive_trees(seq in prop::collection::vec(0usize..512, 0..8),
                                                  parts in 1usize..9) {
        let tree = random_tree(&seq);
        let owner = partition_morton(&tree, parts);
        // Walking the leaves in SFC order, the owner index never decreases:
        // each locality owns one contiguous curve segment.
        let mut prev = 0usize;
        for leaf in tree.leaves() {
            let p = owner[&leaf].0;
            prop_assert!(p >= prev, "SFC cut not contiguous: {} after {}", p, prev);
            prev = p;
        }
    }

    #[test]
    fn repartition_after_refine_covers_new_leaves(seq in prop::collection::vec(0usize..512, 1..8),
                                                  parts in 1usize..5) {
        let mut tree = Tree::new_uniform(1);
        let before: HashMap<_, _> = partition_morton(&tree, parts);
        for &s in &seq {
            let leaves = tree.leaves();
            let pick = leaves[s % leaves.len()];
            if pick.level() < 4 {
                tree.refine_balanced(pick);
            }
        }
        // After refinement the stale map misses the new leaves...
        let still_covered = tree.leaves().iter().all(|l| before.contains_key(l));
        prop_assert!(tree.num_leaves() == before.len() || !still_covered);
        // ...and a repartition covers every leaf again.
        let owner = partition_morton(&tree, parts);
        prop_assert_eq!(owner.len(), tree.num_leaves());
        for leaf in tree.leaves() {
            prop_assert!(owner.contains_key(&leaf), "new leaf unowned after repartition");
        }
    }

    #[test]
    fn sfc_keys_are_unique_over_mixed_levels(seq in prop::collection::vec(0usize..512, 0..6)) {
        let mut tree = Tree::new_uniform(1);
        for s in seq {
            let leaves = tree.leaves();
            let pick = leaves[s % leaves.len()];
            if pick.level() < 4 {
                tree.refine_balanced(pick);
            }
        }
        let leaves = tree.leaves();
        let mut keys: Vec<u128> = leaves.iter().map(|l| l.sfc_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), leaves.len(), "duplicate SFC keys");
    }

    #[test]
    fn neighbor_queries_never_panic_on_balanced_trees(seq in prop::collection::vec(0usize..512, 0..8)) {
        let mut tree = Tree::new_uniform(1);
        for s in seq {
            let leaves = tree.leaves();
            let pick = leaves[s % leaves.len()];
            if pick.level() < 4 {
                tree.refine_balanced(pick);
            }
        }
        for leaf in tree.leaves() {
            for dir in Dir::all26() {
                let _ = tree.neighbor_of(leaf, dir);
            }
        }
        // Reaching here without panicking is the property.
        prop_assert!(true);
    }
}

#[test]
fn node_id_ordering_matches_sfc_on_a_uniform_level() {
    // On one level, SFC order equals path order.
    let tree = Tree::new_uniform(2);
    let leaves = tree.leaves();
    for w in leaves.windows(2) {
        assert!(w[0].path() < w[1].path());
    }
    assert_eq!(leaves.len(), 64);
    assert_eq!(leaves[0], NodeId::from_coords(2, [0, 0, 0]));
}
