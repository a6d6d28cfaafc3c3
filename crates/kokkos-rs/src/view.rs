//! Kokkos `View`s: labelled n-dimensional arrays.
//!
//! Octo-Tiger stores each sub-grid's state variables in Kokkos views.  Ours
//! are always LayoutRight (row-major, unit stride in the fastest loop — the
//! CPU layout); there is no device space to lay out differently for.

/// Process-unique identity of one [`View`] allocation.
///
/// Used by the `race` module's happens-before checker to tell *which*
/// storage two kernel launches touch: a clone is a new allocation and gets a
/// fresh id, so only launches sharing the very same buffer can conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId(u64);

impl ViewId {
    pub(crate) fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        ViewId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A labelled, owned, contiguous array of rank 1–3.
///
/// Views are the unit of data a kernel operates on.  `as_slice` exposes
/// the raw storage; `at`/`at3` (and their `_mut` forms) index it.
#[derive(Debug)]
pub struct View<T> {
    id: ViewId,
    label: String,
    data: Vec<T>,
    dims: [usize; 3],
    rank: usize,
}

impl<T: Clone> Clone for View<T> {
    fn clone(&self) -> Self {
        View {
            id: ViewId::fresh(), // a clone is a distinct allocation
            label: self.label.clone(),
            data: self.data.clone(),
            dims: self.dims,
            rank: self.rank,
        }
    }
}

impl<T: PartialEq> PartialEq for View<T> {
    fn eq(&self, other: &Self) -> bool {
        // Identity is deliberately excluded: two views are equal when their
        // observable contents are, whichever allocations back them.
        self.label == other.label
            && self.data == other.data
            && self.dims == other.dims
            && self.rank == other.rank
    }
}

impl<T: Clone + Default> View<T> {
    /// Rank-1 view of `n` default-initialized elements.
    pub fn new_1d(label: impl Into<String>, n: usize) -> Self {
        View {
            id: ViewId::fresh(),
            label: label.into(),
            data: vec![T::default(); n],
            dims: [n, 1, 1],
            rank: 1,
        }
    }

    /// Rank-3 view of `n0 × n1 × n2` default-initialized elements.
    pub fn new_3d(label: impl Into<String>, n0: usize, n1: usize, n2: usize) -> Self {
        View {
            id: ViewId::fresh(),
            label: label.into(),
            data: vec![T::default(); n0 * n1 * n2],
            dims: [n0, n1, n2],
            rank: 3,
        }
    }
}

impl<T> View<T> {
    /// This allocation's process-unique identity (see [`ViewId`]).
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// Kokkos-style label (used in diagnostics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Extents per dimension (unused trailing dims are 1).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Rank (1–3).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw storage, row-major.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline(always)]
    fn offset(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        let [_, n1, n2] = self.dims;
        (i * n1 + j) * n2 + k
    }

    /// Rank-1 element access.
    #[inline(always)]
    pub fn at(&self, i: usize) -> &T {
        &self.data[self.offset(i, 0, 0)]
    }

    /// Rank-1 mutable element access.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize) -> &mut T {
        let o = self.offset(i, 0, 0);
        &mut self.data[o]
    }

    /// Rank-3 element access.
    #[inline(always)]
    pub fn at3(&self, i: usize, j: usize, k: usize) -> &T {
        &self.data[self.offset(i, j, k)]
    }

    /// Rank-3 mutable element access.
    #[inline(always)]
    pub fn at3_mut(&mut self, i: usize, j: usize, k: usize) -> &mut T {
        let o = self.offset(i, j, k);
        &mut self.data[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank1_basics() {
        let mut v = View::<f64>::new_1d("x", 10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.rank(), 1);
        *v.at_mut(3) = 2.5;
        assert_eq!(*v.at(3), 2.5);
        assert_eq!(v.label(), "x");
    }

    #[test]
    fn rank3_row_major_strides() {
        let mut v = View::<u32>::new_3d("cube", 2, 3, 4);
        *v.at3_mut(1, 2, 3) = 9;
        // Row-major: offset = (i*n1 + j)*n2 + k = (1*3+2)*4+3 = 23.
        assert_eq!(v.as_slice()[23], 9);
    }

    #[test]
    fn clone_gets_fresh_identity_but_stays_equal() {
        let mut v = View::<u32>::new_1d("s", 3);
        *v.at_mut(1) = 2;
        let c = v.clone();
        assert_ne!(v.id(), c.id());
        assert_eq!(v, c);
    }
}
