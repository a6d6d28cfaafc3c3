//! Space-filling-curve partitioning of leaves over localities.
//!
//! Octo-Tiger distributes sub-grids over HPX localities along a Morton
//! curve; contiguous curve segments give compact partitions whose surface
//! (the ghost exchanges that cross locality boundaries) stays small.  How
//! many neighbour links stay on-locality vs. cross localities is exactly
//! what decides whether the Section VII-B communication optimization pays
//! off (Figure 8: big win at 1–4 localities where most links are local,
//! break-even at 8, slightly negative beyond); the ghost exchange reports
//! that split as its direct-link count.

use crate::tree::Tree;
use crate::NodeId;
use hpx_rt::LocalityId;
use std::collections::HashMap;

/// Assign the tree's leaves to `num_localities` localities by splitting the
/// SFC-sorted leaf list into contiguous, near-equal chunks.
///
/// # Panics
/// Panics if `num_localities == 0`.
pub fn partition_morton(tree: &Tree, num_localities: usize) -> HashMap<NodeId, LocalityId> {
    assert!(num_localities > 0, "need at least one locality");
    let leaves = tree.leaves(); // already SFC-sorted
    let total = leaves.len();
    let mut out = HashMap::with_capacity(total);
    if total == 0 {
        return out;
    }
    let parts = num_localities.min(total);
    let base = total / parts;
    let extra = total % parts;
    let mut idx = 0usize;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        for leaf in &leaves[idx..idx + size] {
            out.insert(*leaf, LocalityId(p));
        }
        idx += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_balanced() {
        let tree = Tree::new_uniform(2); // 64 leaves
        let owner = partition_morton(&tree, 4);
        assert_eq!(owner.len(), 64);
        let mut counts = [0usize; 4];
        for loc in owner.values() {
            counts[loc.0] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
    }

    #[test]
    fn partition_handles_non_dividing_counts() {
        let tree = Tree::new_uniform(1); // 8 leaves
        let owner = partition_morton(&tree, 3);
        let mut counts = [0usize; 3];
        for loc in owner.values() {
            counts[loc.0] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&c| (2..=3).contains(&c)));
    }

    #[test]
    fn more_localities_than_leaves() {
        let tree = Tree::new(); // 1 leaf
        let owner = partition_morton(&tree, 16);
        assert_eq!(owner.len(), 1);
        assert_eq!(owner[&NodeId::ROOT], LocalityId(0));
    }

    #[test]
    fn partition_is_sfc_contiguous() {
        let tree = Tree::new_uniform(2);
        let owner = partition_morton(&tree, 4);
        let leaves = tree.leaves();
        // Along the SFC, locality ids must be non-decreasing.
        let mut prev = 0usize;
        for leaf in leaves {
            let l = owner[&leaf].0;
            assert!(l >= prev, "SFC contiguity violated");
            prev = l;
        }
    }
}
