//! The chunk traversal of width-generic kernels over slices.
//!
//! Octo-Tiger's Kokkos kernels iterate over sub-grid cell arrays in strides
//! of the vector width, with a masked tail.  [`ChunkedLanes`] yields that
//! traversal so the `octotiger` kernels contain only the physics.

/// Iterator over `(offset, lanes_in_chunk)` pairs covering `len` elements in
/// strides of `W`, with a final partial chunk when `W` does not divide `len`.
#[derive(Debug, Clone)]
pub struct ChunkedLanes<const W: usize> {
    len: usize,
    pos: usize,
}

impl<const W: usize> ChunkedLanes<W> {
    /// Cover `len` elements.
    pub fn new(len: usize) -> Self {
        assert!(W > 0, "vector width must be non-zero");
        ChunkedLanes { len, pos: 0 }
    }
}

impl<const W: usize> Iterator for ChunkedLanes<W> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.pos >= self.len {
            return None;
        }
        let off = self.pos;
        let lanes = W.min(self.len - off);
        self.pos += lanes;
        Some((off, lanes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        let n = rem.div_ceil(W);
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for ChunkedLanes<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_lanes_exact_division() {
        let chunks: Vec<_> = ChunkedLanes::<4>::new(8).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 4)]);
    }

    #[test]
    fn chunked_lanes_with_tail() {
        let chunks: Vec<_> = ChunkedLanes::<4>::new(10).collect();
        assert_eq!(chunks, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(ChunkedLanes::<4>::new(10).len(), 3);
    }

    #[test]
    fn chunked_lanes_empty() {
        assert_eq!(ChunkedLanes::<8>::new(0).count(), 0);
    }
}
