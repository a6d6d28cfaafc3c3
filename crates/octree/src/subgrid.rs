//! The `N × N × N` sub-grid each octree leaf carries, with ghost shells.
//!
//! Octo-Tiger associates each leaf with a sub-grid of evolved state
//! variables (N typically 8) surrounded by ghost layers filled from its
//! neighbours before each solver stage (Octo-Tiger fills all 26 shells;
//! this repo's exchange fills the six face slabs, the only ghost words its
//! stage kernel reads).  This module owns the raw storage
//! (`nfields` fields of `(N+2G)³` cells), the ghost-region geometry, the
//! pack/unpack routines used by the exchange, and the one pair of
//! inter-level operators (`LevelMap`: piecewise-constant prolongation,
//! conservative 2×2×2 restriction) that coarse-fine ghost links, refine and
//! derefine share.

use crate::index::{Dir, Octant};

/// A dense block of `nfields` scalar fields over `(n + 2*ghost)³` cells.
///
/// Storage coordinates run over `[0, n + 2*ghost)` per dimension; the
/// interior occupies `[ghost, ghost + n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubGrid {
    n: usize,
    ghost: usize,
    nfields: usize,
    data: Vec<f64>,
}

/// Half-open per-dimension index ranges describing a box of cells, in
/// storage coordinates (a [`LevelMap`] target: a level's global cell
/// coordinates).
pub(crate) type Box3 = [(usize, usize); 3];

impl SubGrid {
    /// Create a zero-initialized sub-grid.
    ///
    /// # Panics
    /// Panics if `n` or `nfields` is zero (ghost width may be zero for
    /// gravity-only grids).
    pub fn new(n: usize, ghost: usize, nfields: usize) -> SubGrid {
        assert!(n > 0, "sub-grid extent must be positive");
        assert!(nfields > 0, "need at least one field");
        assert!(
            ghost <= n,
            "ghost width wider than the interior is unsupported"
        );
        let ext = n + 2 * ghost;
        SubGrid {
            n,
            ghost,
            nfields,
            data: vec![0.0; nfields * ext * ext * ext],
        }
    }

    /// Interior extent per dimension (the paper's N).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ghost width per side.
    pub fn ghost(&self) -> usize {
        self.ghost
    }

    /// Number of fields.
    pub fn nfields(&self) -> usize {
        self.nfields
    }

    /// Storage extent per dimension (`n + 2*ghost`).
    pub fn ext(&self) -> usize {
        self.n + 2 * self.ghost
    }

    #[inline(always)]
    fn offset(&self, f: usize, i: usize, j: usize, k: usize) -> usize {
        let ext = self.ext();
        debug_assert!(f < self.nfields && i < ext && j < ext && k < ext);
        ((f * ext + i) * ext + j) * ext + k
    }

    /// Read a cell in storage coordinates (ghosts included).
    #[inline(always)]
    pub fn get(&self, f: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.offset(f, i, j, k)]
    }

    /// Write a cell in storage coordinates (ghosts included).
    #[inline(always)]
    pub fn set(&mut self, f: usize, i: usize, j: usize, k: usize, v: f64) {
        let o = self.offset(f, i, j, k);
        self.data[o] = v;
    }

    /// Read an interior cell (`i, j, k ∈ [0, n)`).
    #[inline(always)]
    pub fn get_interior(&self, f: usize, i: usize, j: usize, k: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n && k < self.n);
        self.get(f, i + self.ghost, j + self.ghost, k + self.ghost)
    }

    /// Write an interior cell (`i, j, k ∈ [0, n)`).
    #[inline(always)]
    pub fn set_interior(&mut self, f: usize, i: usize, j: usize, k: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n && k < self.n);
        self.set(f, i + self.ghost, j + self.ghost, k + self.ghost, v);
    }

    /// The `n` contiguous words of interior cells `(i, j, 0..n)` of field
    /// `f` (`i, j ∈ [0, n)`).
    #[inline(always)]
    pub fn interior_row(&self, f: usize, i: usize, j: usize) -> &[f64] {
        let o = self.offset(f, i + self.ghost, j + self.ghost, self.ghost);
        &self.data[o..o + self.n]
    }

    /// Mutable [`SubGrid::interior_row`].
    #[inline(always)]
    pub fn interior_row_mut(&mut self, f: usize, i: usize, j: usize) -> &mut [f64] {
        let o = self.offset(f, i + self.ghost, j + self.ghost, self.ghost);
        &mut self.data[o..o + self.n]
    }

    /// Whole field as a flat slice in storage order.
    pub fn field(&self, f: usize) -> &[f64] {
        let ext3 = self.ext().pow(3);
        &self.data[f * ext3..(f + 1) * ext3]
    }

    /// Whole field as a mutable flat slice in storage order.
    pub fn field_mut(&mut self, f: usize) -> &mut [f64] {
        let ext3 = self.ext().pow(3);
        &mut self.data[f * ext3..(f + 1) * ext3]
    }

    /// Fill every cell of every field with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Sum of a field over the interior (for conservation ledgers).
    pub fn interior_sum(&self, f: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                for k in 0..self.n {
                    acc += self.get_interior(f, i, j, k);
                }
            }
        }
        acc
    }

    // ---------------------------------------------------------------
    // Ghost-region geometry
    // ---------------------------------------------------------------

    /// Source box (in storage coords) of the interior data this grid must
    /// *send* toward direction `dir`: the box its neighbour there receives
    /// from `-dir`, shifted by `n` along `dir` into this grid's coordinates.
    pub(crate) fn send_box(&self, dir: Dir) -> Box3 {
        let mut b = Self::recv_box_of(self.n, self.ghost, dir.opposite());
        for ((lo, hi), d) in b.iter_mut().zip(dir.as_array()) {
            let shift = isize::from(d) * self.n as isize;
            (*lo, *hi) = (lo.wrapping_add_signed(shift), hi.wrapping_add_signed(shift));
        }
        b
    }

    /// Destination box (in storage coords) of the ghost cells this grid
    /// *receives* from its neighbour in direction `dir`.
    pub fn recv_box(&self, dir: Dir) -> Box3 {
        Self::recv_box_of(self.n, self.ghost, dir)
    }

    /// [`SubGrid::recv_box`] from geometry alone, without a grid in hand.
    pub fn recv_box_of(n: usize, ghost: usize, dir: Dir) -> Box3 {
        let mut out = [(0usize, 0usize); 3];
        for (axis, d) in dir.as_array().into_iter().enumerate() {
            out[axis] = match d {
                -1 => (0, ghost),
                0 => (ghost, ghost + n),
                1 => (ghost + n, n + 2 * ghost),
                _ => unreachable!(),
            };
        }
        out
    }

    /// Number of cells in a box.
    pub fn box_cells(b: &Box3) -> usize {
        b.iter().map(|&(lo, hi)| hi - lo).product()
    }

    /// Pack all fields over `b` (field-major, then i, j, k order).
    pub fn pack_box(&self, b: &Box3) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nfields * Self::box_cells(b));
        self.pack_box_into(b, &mut out);
        out
    }

    /// Pack all fields over `b` into `out` (cleared first) — the
    /// allocation-free variant: hand it a pooled buffer whose capacity is
    /// `nfields * box_cells(b)` and no heap traffic occurs.
    fn pack_box_into(&self, b: &Box3, out: &mut Vec<f64>) {
        out.clear();
        for f in 0..self.nfields {
            for i in b[0].0..b[0].1 {
                for j in b[1].0..b[1].1 {
                    for k in b[2].0..b[2].1 {
                        out.push(self.get(f, i, j, k));
                    }
                }
            }
        }
    }

    /// Unpack `data` (as produced by [`SubGrid::pack_box`] over a box of the
    /// same shape) into `b`.
    ///
    /// # Panics
    /// Panics if `data` has the wrong length.
    fn unpack_box(&mut self, b: &Box3, data: &[f64]) {
        assert_eq!(
            data.len(),
            self.nfields * Self::box_cells(b),
            "ghost payload length mismatch"
        );
        let mut it = data.iter();
        for f in 0..self.nfields {
            for i in b[0].0..b[0].1 {
                for j in b[1].0..b[1].1 {
                    for k in b[2].0..b[2].1 {
                        self.set(f, i, j, k, *it.next().expect("length checked"));
                    }
                }
            }
        }
    }

    /// Pack the slab this grid sends toward `dir` (same-level exchange).
    pub fn pack_send(&self, dir: Dir) -> Vec<f64> {
        self.pack_box(&self.send_box(dir))
    }

    /// Allocation-free variant of [`SubGrid::pack_send`].
    pub fn pack_send_into(&self, dir: Dir, out: &mut Vec<f64>) {
        self.pack_box_into(&self.send_box(dir), out);
    }

    /// Copy every cell of every field from `src` without touching the
    /// allocation (`clone_from_slice`), unlike the derived `Clone` which
    /// reallocates.
    ///
    /// # Panics
    /// Panics if the grids disagree in shape.
    pub fn copy_from(&mut self, src: &SubGrid) {
        assert_eq!(
            (self.n, self.ghost, self.nfields),
            (src.n, src.ghost, src.nfields),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Copy the interior of every field from `src` row by row, leaving this
    /// grid's ghost words as they are; the two grids may differ in ghost
    /// width.
    ///
    /// # Panics
    /// Panics if the grids disagree in `n` or field count.
    pub fn copy_interior_from(&mut self, src: &SubGrid) {
        assert_eq!(
            (self.n, self.nfields),
            (src.n, src.nfields),
            "copy_interior_from shape mismatch"
        );
        for f in 0..self.nfields {
            for i in 0..self.n {
                for j in 0..self.n {
                    self.interior_row_mut(f, i, j)
                        .copy_from_slice(src.interior_row(f, i, j));
                }
            }
        }
    }

    /// Flat-index runs `(start, len)` covering exactly the ghost cells of
    /// *one* field, in storage order.  Rows fully outside the interior are
    /// one run; interior rows contribute their two ghost caps.  Computed
    /// once and reused to zero ghost fields without re-walking the
    /// geometry.
    pub fn ghost_runs(&self) -> Vec<(usize, usize)> {
        let (g, n, ext) = (self.ghost, self.n, self.ext());
        let mut runs = Vec::new();
        if g == 0 {
            return runs;
        }
        let interior = g..g + n;
        for i in 0..ext {
            for j in 0..ext {
                let row = (i * ext + j) * ext;
                if interior.contains(&i) && interior.contains(&j) {
                    runs.push((row, g));
                    runs.push((row + g + n, g));
                } else {
                    runs.push((row, ext));
                }
            }
        }
        runs
    }

    /// Unpack a same-level slab received *from* direction `dir`.
    ///
    /// The payload must come from the neighbour's `pack_send(dir.opposite())`.
    pub fn unpack_recv(&mut self, dir: Dir, data: &[f64]) {
        self.unpack_box(&self.recv_box(dir), data);
    }

    // ---------------------------------------------------------------
    // Inter-level transfer (AMR)
    // ---------------------------------------------------------------

    /// Build the child sub-grid for `octant` by piecewise-constant
    /// prolongation of this grid's interior (used on refine).  Ghosts of
    /// the child are left zero (filled by the next exchange).
    ///
    /// # Panics
    /// Panics if `n` is odd.
    pub fn prolong_child(&self, octant: Octant) -> SubGrid {
        let (n, g) = (self.n, self.ghost);
        let lo = octant.xyz().map(|o| usize::from(o) * n);
        let target = lo.map(|lo| (lo, lo + n));
        let mut words = Vec::with_capacity(self.nfields * n.pow(3));
        LevelMap::prolongation(n, g, [0; 3], target).prolong(self, |v| words.push(v));
        let mut child = SubGrid::new(n, g, self.nfields);
        child.unpack_box(&[(g, g + n); 3], &words);
        child
    }

    /// Write the conservative 2×2×2 average of `child`'s interior into the
    /// `octant` region of this grid's interior (used on derefine).
    ///
    /// # Panics
    /// Panics if `n` is odd or the grids disagree in `n` or field count.
    pub fn restrict_from_child(&mut self, octant: Octant, child: &SubGrid) {
        assert_eq!(self.n, child.n, "parent/child N mismatch");
        assert_eq!(self.nfields, child.nfields, "parent/child field mismatch");
        let (h, g) = (self.n / 2, self.ghost);
        let lo = octant.xyz().map(|o| usize::from(o) * h);
        let target = lo.map(|lo| (lo, lo + h));
        let mut octet = [None; 8];
        octet[usize::from(octant.0)] = Some(child);
        let mut words = Vec::with_capacity(self.nfields * h.pow(3));
        LevelMap::restriction(self.n, child.ghost, [0; 3], target)
            .restrict(&octet, |v| words.push(v));
        self.unpack_box(&target.map(|(lo, hi)| (lo + g, hi + g)), &words);
    }
}

/// The per-axis index tables of one inter-level transfer onto a target box
/// in global cells of its level (the leaf at coordinates `c` holds cells
/// `c·n .. c·n + n` per axis).  Entry `t` of axis `a` places the box's
/// `t`-th cell along `a` in the source: the source grid's half of its octet
/// (0 for prolongation's one coarse grid) and the storage index of the
/// coarse cell containing it or of the first of the two fine cells it
/// averages.
pub(crate) struct LevelMap([Vec<(usize, usize)>; 3]);

impl LevelMap {
    /// Piecewise-constant prolongation onto `t` (fine-level cells) from a
    /// coarse grid of extent `n`, ghost width `g`, interior starting at
    /// global coarse cell `origin`.  Reads only the coarse interior: a
    /// coarse ghost word holds the previous fill's value, not the state.
    pub(crate) fn prolongation(n: usize, g: usize, origin: [usize; 3], t: Box3) -> LevelMap {
        Self::tables(n, g, t, n, |a, x| (x / 2).checked_sub(origin[a]))
    }

    /// Conservative restriction onto `t` (coarse-level cells) from an octet
    /// of fine grids of extent `n`, ghost width `g`, the octant-0 grid's
    /// interior starting at global fine cell `origin`.
    pub(crate) fn restriction(n: usize, g: usize, origin: [usize; 3], t: Box3) -> LevelMap {
        Self::tables(n, g, t, 2 * n, |a, x| (2 * x).checked_sub(origin[a]))
    }

    /// Per axis, entry `(r / n, g + r % n)` of every target cell `x`, with
    /// `r = at(axis, x)` counted from the first source grid's first
    /// interior cell.  Panics if `n` is odd or an `r` falls outside
    /// `[0, span)`, the source interior.
    fn tables(
        n: usize,
        ghost: usize,
        target: Box3,
        span: usize,
        at: impl Fn(usize, usize) -> Option<usize>,
    ) -> LevelMap {
        assert!(n.is_multiple_of(2), "inter-level transfer requires even N");
        LevelMap(std::array::from_fn(|a| {
            let entry = |x| {
                let r = at(a, x).filter(|&r| r < span);
                let r = r.expect("inter-level transfer reads outside the source interior");
                (r / n, ghost + r % n)
            };
            (target[a].0..target[a].1).map(entry).collect()
        }))
    }

    /// Visit the target box field-major with each cell's table entries.
    fn cells(&self, nfields: usize, mut visit: impl FnMut(usize, [(usize, usize); 3])) {
        let [xs, ys, zs] = &self.0;
        for f in 0..nfields {
            for &x in xs {
                for &y in ys {
                    for &z in zs {
                        visit(f, [x, y, z]);
                    }
                }
            }
        }
    }

    /// Prolongation: push, per target cell (field-major, `(f, i, j, k)`),
    /// the coarse cell containing it.
    pub(crate) fn prolong(&self, c: &SubGrid, mut sink: impl FnMut(f64)) {
        self.cells(c.nfields, |f, [(_, i), (_, j), (_, k)]| {
            sink(c.get(f, i, j, k))
        });
    }

    /// Restriction: push, per target cell (field-major), the mean of the
    /// 2×2×2 fine cells it covers, summed in `di, dj, dk` order.  `octet[o]` is the fine
    /// grid in octant `o` (bit 0 the x half, as [`Octant`]); only the ones
    /// the box covers need be present.
    pub(crate) fn restrict(&self, octet: &[Option<&SubGrid>; 8], mut sink: impl FnMut(f64)) {
        let nfields = octet.iter().flatten().next().map_or(0, |g| g.nfields);
        self.cells(nfields, |f, [(hi, i), (hj, j), (hk, k)]| {
            let fine = octet[hi | hj << 1 | hk << 2].expect("restriction source missing");
            let mut acc = 0.0;
            for di in 0..2 {
                for dj in 0..2 {
                    for dk in 0..2 {
                        acc += fine.get(f, i + di, j + dj, k + dk);
                    }
                }
            }
            sink(acc / 8.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, g: usize, nf: usize) -> SubGrid {
        let mut sg = SubGrid::new(n, g, nf);
        let ext = sg.ext();
        for f in 0..nf {
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        sg.set(f, i, j, k, (f * 1000 + i * 100 + j * 10 + k) as f64);
                    }
                }
            }
        }
        sg
    }

    #[test]
    fn construction_and_extents() {
        let sg = SubGrid::new(8, 2, 5);
        assert_eq!(sg.ext(), 12);
        assert_eq!(sg.field(0).len(), 12 * 12 * 12);
        assert_eq!(sg.nfields(), 5);
    }

    #[test]
    fn interior_indexing_offsets_by_ghost() {
        let mut sg = SubGrid::new(4, 2, 1);
        sg.set_interior(0, 0, 0, 0, 7.0);
        assert_eq!(sg.get(0, 2, 2, 2), 7.0);
        sg.set_interior(0, 3, 3, 3, 9.0);
        assert_eq!(sg.get(0, 5, 5, 5), 9.0);
    }

    #[test]
    fn send_recv_boxes_are_consistent() {
        let sg = SubGrid::new(8, 2, 1);
        for dir in Dir::all26() {
            let s = sg.send_box(dir);
            let r = sg.recv_box(dir.opposite());
            // The slab I send toward `dir` has the same shape as the ghost
            // region my neighbour fills from me (received from `-dir`).
            let s_shape: Vec<usize> = s.iter().map(|&(a, b)| b - a).collect();
            let r_shape: Vec<usize> = r.iter().map(|&(a, b)| b - a).collect();
            assert_eq!(s_shape, r_shape, "shape mismatch for {dir:?}");
        }
    }

    #[test]
    fn face_exchange_roundtrip() {
        // Grid A's +x slab must land in grid B's -x ghost region such that
        // continuing the global index space is seamless.
        let mut a = SubGrid::new(4, 2, 2);
        let mut b = SubGrid::new(4, 2, 2);
        // Fill a with values encoding global x-index (a occupies x in 0..4).
        for f in 0..2 {
            for i in 0..4 {
                for j in 0..4 {
                    for k in 0..4 {
                        a.set_interior(f, i, j, k, (f * 100 + i) as f64);
                        b.set_interior(f, i, j, k, (f * 100 + i + 4) as f64);
                    }
                }
            }
        }
        let dir = Dir::new(1, 0, 0);
        let payload = a.pack_send(dir);
        // B receives from its -x side.
        b.unpack_recv(dir.opposite(), &payload);
        // B's ghost cells at storage x=0,1 must now carry a's interior x=2,3.
        for f in 0..2 {
            for j in 2..6 {
                for k in 2..6 {
                    assert_eq!(b.get(f, 0, j, k), (f * 100 + 2) as f64);
                    assert_eq!(b.get(f, 1, j, k), (f * 100 + 3) as f64);
                }
            }
        }
    }

    #[test]
    fn corner_exchange_has_ghost_cubed_cells() {
        let sg = filled(8, 2, 1);
        let dir = Dir::new(1, 1, 1);
        let payload = sg.pack_send(dir);
        assert_eq!(payload.len(), 2 * 2 * 2);
    }

    #[test]
    fn edge_exchange_size() {
        let sg = SubGrid::new(8, 2, 3);
        let dir = Dir::new(1, 0, -1);
        assert_eq!(sg.pack_send(dir).len(), 3 * 2 * 8 * 2);
    }

    #[test]
    fn pack_unpack_box_roundtrip() {
        let src = filled(4, 1, 2);
        let b: Box3 = [(1, 3), (0, 2), (2, 5)];
        let data = src.pack_box(&b);
        let mut dst = SubGrid::new(4, 1, 2);
        dst.unpack_box(&b, &data);
        for f in 0..2 {
            for i in 1..3 {
                for j in 0..2 {
                    for k in 2..5 {
                        assert_eq!(dst.get(f, i, j, k), src.get(f, i, j, k));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn unpack_wrong_length_panics() {
        let mut sg = SubGrid::new(4, 1, 1);
        let b = sg.recv_box(Dir::new(1, 0, 0));
        sg.unpack_box(&b, &[0.0; 3]);
    }

    #[test]
    fn prolong_then_restrict_is_identity_on_means() {
        // Piecewise-constant prolongation followed by 8-cell averaging must
        // reproduce the parent exactly (conservation round-trip).
        let mut parent = SubGrid::new(8, 1, 2);
        for f in 0..2 {
            for i in 0..8 {
                for j in 0..8 {
                    for k in 0..8 {
                        parent.set_interior(f, i, j, k, (f * 512 + i * 64 + j * 8 + k) as f64);
                    }
                }
            }
        }
        let mut rebuilt = SubGrid::new(8, 1, 2);
        for oct in Octant::all() {
            let child = parent.prolong_child(oct);
            rebuilt.restrict_from_child(oct, &child);
        }
        for f in 0..2 {
            for i in 0..8 {
                for j in 0..8 {
                    for k in 0..8 {
                        assert_eq!(
                            rebuilt.get_interior(f, i, j, k),
                            parent.get_interior(f, i, j, k)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restriction_conserves_totals() {
        let mut parent = SubGrid::new(4, 1, 1);
        let mut total_children = 0.0;
        for oct in Octant::all() {
            let mut child = SubGrid::new(4, 1, 1);
            for i in 0..4 {
                for j in 0..4 {
                    for k in 0..4 {
                        child.set_interior(0, i, j, k, (oct.0 as f64) + 0.125);
                    }
                }
            }
            total_children += child.interior_sum(0) / 8.0; // child cells are 8× smaller
            parent.restrict_from_child(oct, &child);
        }
        let total_parent = parent.interior_sum(0);
        assert!((total_parent - total_children).abs() < 1e-12);
    }

    #[test]
    fn interior_sum_ignores_ghosts() {
        let mut sg = SubGrid::new(2, 1, 1);
        sg.fill(100.0);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    sg.set_interior(0, i, j, k, 1.0);
                }
            }
        }
        assert_eq!(sg.interior_sum(0), 8.0);
    }

    #[test]
    fn pack_box_into_matches_pack_box() {
        let src = filled(4, 1, 2);
        let b: Box3 = [(1, 3), (0, 2), (2, 5)];
        let mut out = Vec::new();
        out.push(99.0); // stale content must be cleared
        src.pack_box_into(&b, &mut out);
        assert_eq!(out, src.pack_box(&b));
        let mut out2 = Vec::new();
        let dir = Dir::new(1, 0, -1);
        src.pack_send_into(dir, &mut out2);
        assert_eq!(out2, src.pack_send(dir));
    }

    #[test]
    fn copy_from_preserves_allocation_and_contents() {
        let src = filled(4, 2, 3);
        let mut dst = SubGrid::new(4, 2, 3);
        let ptr = dst.data.as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.as_ptr(), ptr, "copy_from must not reallocate");
    }

    #[test]
    fn copy_interior_from_crosses_ghost_widths_and_keeps_ghosts() {
        for (from, to) in [(2, 0), (0, 2), (2, 1)] {
            let src = filled(4, from, 3);
            let mut dst = SubGrid::new(4, to, 3);
            dst.fill(-1.0);
            dst.copy_interior_from(&src);
            let ext = dst.ext();
            let inside = |c: usize| (to..to + 4).contains(&c);
            for f in 0..3 {
                for i in 0..ext {
                    for j in 0..ext {
                        for k in 0..ext {
                            let want = if inside(i) && inside(j) && inside(k) {
                                src.get_interior(f, i - to, j - to, k - to)
                            } else {
                                -1.0
                            };
                            assert_eq!(dst.get(f, i, j, k), want, "g{from}->g{to} ({i},{j},{k})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn copy_from_rejects_shape_mismatch() {
        let src = SubGrid::new(4, 1, 1);
        let mut dst = SubGrid::new(4, 2, 1);
        dst.copy_from(&src);
    }

    #[test]
    fn ghost_runs_cover_exactly_the_ghost_cells() {
        for (n, g) in [(4usize, 1usize), (4, 2), (8, 2), (2, 0)] {
            let sg = SubGrid::new(n, g, 1);
            let ext = sg.ext();
            let runs = sg.ghost_runs();
            let mut marked = vec![false; ext * ext * ext];
            for (start, len) in runs {
                for o in start..start + len {
                    assert!(!marked[o], "run overlap at {o} for n={n} g={g}");
                    marked[o] = true;
                }
            }
            let interior = g..g + n;
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        let is_ghost = !(interior.contains(&i)
                            && interior.contains(&j)
                            && interior.contains(&k));
                        assert_eq!(
                            marked[(i * ext + j) * ext + k],
                            is_ghost,
                            "cell ({i},{j},{k}) n={n} g={g}"
                        );
                    }
                }
            }
        }
    }
}
