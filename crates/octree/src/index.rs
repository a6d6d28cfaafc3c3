//! Octree node identity and geometry: octant paths, integer coordinates at
//! a level, 26-neighbour arithmetic, and space-filling-curve keys.

/// Maximum refinement level supported by the 64-bit path encoding
/// (3 bits per level, 1 marker, leaves headroom).  The paper's production
/// runs use levels up to 12 (DWD) and the scaling study up to 7.
pub const MAX_LEVEL: u8 = 20;

/// One of the eight children of an octree node.
///
/// Bit 0 is the x half, bit 1 the y half, bit 2 the z half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Octant(pub u8);

impl Octant {
    /// All eight octants, in path order.
    pub fn all() -> impl Iterator<Item = Octant> {
        (0u8..8).map(Octant)
    }

    /// Per-axis half indices.
    #[inline]
    pub(crate) fn xyz(self) -> [u8; 3] {
        [self.0 & 1, (self.0 >> 1) & 1, (self.0 >> 2) & 1]
    }
}

/// A direction to one of the 26 neighbours (face, edge or corner), each
/// component in `{-1, 0, +1}` and not all zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dir {
    pub dx: i8,
    pub dy: i8,
    pub dz: i8,
}

impl Dir {
    /// Construct; components must be in `{-1, 0, 1}` and not all zero.
    pub fn new(dx: i8, dy: i8, dz: i8) -> Dir {
        assert!(
            (-1..=1).contains(&dx) && (-1..=1).contains(&dy) && (-1..=1).contains(&dz),
            "direction components must be in -1..=1"
        );
        assert!(dx != 0 || dy != 0 || dz != 0, "null direction");
        Dir { dx, dy, dz }
    }

    /// All 26 directions: 6 faces, 12 edges, 8 corners — Octo-Tiger's
    /// neighbour model.
    pub fn all26() -> impl Iterator<Item = Dir> {
        (-1i8..=1)
            .flat_map(move |dx| {
                (-1i8..=1).flat_map(move |dy| (-1i8..=1).map(move |dz| (dx, dy, dz)))
            })
            .filter(|&(dx, dy, dz)| dx != 0 || dy != 0 || dz != 0)
            .map(|(dx, dy, dz)| Dir { dx, dy, dz })
    }

    /// The 6 face directions only: -x, +x, -y, +y, -z, +z.
    pub(crate) fn faces() -> impl Iterator<Item = Dir> {
        [
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ]
        .into_iter()
        .map(|(dx, dy, dz)| Dir { dx, dy, dz })
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        Dir {
            dx: -self.dx,
            dy: -self.dy,
            dz: -self.dz,
        }
    }

    /// Components as an array.
    pub(crate) fn as_array(self) -> [i8; 3] {
        [self.dx, self.dy, self.dz]
    }
}

/// Identity of an octree node: its refinement level and the octant path
/// from the root, packed 3 bits per level (most significant step first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    level: u8,
    path: u64,
}

impl NodeId {
    /// The root node.
    pub const ROOT: NodeId = NodeId { level: 0, path: 0 };

    /// Refinement level (root = 0).
    #[inline]
    pub fn level(self) -> u8 {
        self.level
    }

    /// Packed octant path.
    #[inline]
    pub fn path(self) -> u64 {
        self.path
    }

    /// The child of this node in `octant`.
    ///
    /// # Panics
    /// Panics if the child would exceed [`MAX_LEVEL`].
    pub fn child(self, octant: Octant) -> NodeId {
        assert!(self.level < MAX_LEVEL, "octree level overflow");
        NodeId {
            level: self.level + 1,
            path: (self.path << 3) | u64::from(octant.0),
        }
    }

    /// Parent node, or `None` for the root.
    pub fn parent(self) -> Option<NodeId> {
        if self.level == 0 {
            None
        } else {
            Some(NodeId {
                level: self.level - 1,
                path: self.path >> 3,
            })
        }
    }

    /// This node's octant within its parent (`Octant(0)` for the root).
    pub(crate) fn octant(self) -> Octant {
        Octant((self.path & 0b111) as u8)
    }

    /// Integer coordinates of this node within its level:
    /// each component in `[0, 2^level)`.
    pub fn coords(self) -> [u32; 3] {
        let mut x = 0u32;
        let mut y = 0u32;
        let mut z = 0u32;
        for step in 0..self.level {
            let shift = 3 * (self.level - 1 - step);
            let oct = ((self.path >> shift) & 0b111) as u8;
            x = (x << 1) | u32::from(oct & 1);
            y = (y << 1) | u32::from((oct >> 1) & 1);
            z = (z << 1) | u32::from((oct >> 2) & 1);
        }
        [x, y, z]
    }

    /// Node at `level` with the given integer coordinates.
    ///
    /// # Panics
    /// Panics if any coordinate is out of `[0, 2^level)` or the level
    /// exceeds [`MAX_LEVEL`].
    pub fn from_coords(level: u8, coords: [u32; 3]) -> NodeId {
        assert!(level <= MAX_LEVEL, "level exceeds MAX_LEVEL");
        let extent = 1u32 << level;
        for &c in &coords {
            assert!(c < extent, "coordinate out of range for level");
        }
        let mut path = 0u64;
        for step in 0..level {
            let shift = level - 1 - step;
            let x = (coords[0] >> shift) & 1;
            let y = (coords[1] >> shift) & 1;
            let z = (coords[2] >> shift) & 1;
            path = (path << 3) | u64::from(x | (y << 1) | (z << 2));
        }
        NodeId { level, path }
    }

    /// Same-level neighbour in direction `dir`, or `None` when it would
    /// fall outside the root domain (Octo-Tiger's outflow boundary).
    pub(crate) fn neighbor(self, dir: Dir) -> Option<NodeId> {
        let extent = 1i64 << self.level;
        let [x, y, z] = self.coords();
        let nx = i64::from(x) + i64::from(dir.dx);
        let ny = i64::from(y) + i64::from(dir.dy);
        let nz = i64::from(z) + i64::from(dir.dz);
        if nx < 0 || ny < 0 || nz < 0 || nx >= extent || ny >= extent || nz >= extent {
            return None;
        }
        Some(NodeId::from_coords(
            self.level,
            [nx as u32, ny as u32, nz as u32],
        ))
    }

    /// Space-filling-curve key: Morton order over the unit cube, refined
    /// nodes sorting between their neighbours.  Leaves of a tree sorted by
    /// this key form the locality-partitioning curve (paper: sub-grids are
    /// distributed over localities; we use Morton order like Octo-Tiger).
    pub fn sfc_key(self) -> u128 {
        // Left-align the path within MAX_LEVEL steps so ancestors sort
        // immediately before their descendants, then break ties by level.
        let shifted = u128::from(self.path) << (3 * (MAX_LEVEL - self.level) as u32);
        (shifted << 5) | u128::from(self.level)
    }

    /// Physical lower corner and edge length of this node's cube within the
    /// unit domain `[0,1]³`.
    pub fn cube(self) -> ([f64; 3], f64) {
        let size = 1.0 / f64::from(1u32 << self.level);
        let [x, y, z] = self.coords();
        (
            [
                f64::from(x) * size,
                f64::from(y) * size,
                f64::from(z) * size,
            ],
            size,
        )
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}:", self.level)?;
        if self.level == 0 {
            return write!(f, "root");
        }
        for step in 0..self.level {
            let shift = 3 * (self.level - 1 - step);
            write!(f, "{}", (self.path >> shift) & 0b111)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_parent_roundtrip() {
        let root = NodeId::ROOT;
        for oct in Octant::all() {
            let c = root.child(oct);
            assert_eq!(c.level(), 1);
            assert_eq!(c.parent(), Some(root));
        }
    }

    #[test]
    fn coords_roundtrip_deep() {
        for level in 0..=6u8 {
            let extent = 1u32 << level;
            for x in (0..extent).step_by(3) {
                for y in (0..extent).step_by(2) {
                    let z = (x + y) % extent;
                    let id = NodeId::from_coords(level, [x, y, z]);
                    assert_eq!(id.coords(), [x, y, z]);
                    assert_eq!(id.level(), level);
                }
            }
        }
    }

    #[test]
    fn octant_xyz_mapping() {
        assert_eq!(Octant(0b110).xyz(), [0, 1, 1]);
    }

    #[test]
    fn neighbors_within_domain() {
        let id = NodeId::from_coords(3, [3, 3, 3]);
        let n = id.neighbor(Dir::new(1, 0, 0)).unwrap();
        assert_eq!(n.coords(), [4, 3, 3]);
        let c = id.neighbor(Dir::new(-1, -1, -1)).unwrap();
        assert_eq!(c.coords(), [2, 2, 2]);
    }

    #[test]
    fn neighbor_outside_domain_is_none() {
        let id = NodeId::from_coords(2, [0, 0, 0]);
        assert!(id.neighbor(Dir::new(-1, 0, 0)).is_none());
        let id2 = NodeId::from_coords(2, [3, 3, 3]);
        assert!(id2.neighbor(Dir::new(0, 0, 1)).is_none());
    }

    #[test]
    fn neighbor_of_neighbor_is_self() {
        let id = NodeId::from_coords(4, [5, 9, 2]);
        for dir in Dir::all26() {
            if let Some(n) = id.neighbor(dir) {
                assert_eq!(n.neighbor(dir.opposite()), Some(id));
            }
        }
    }

    #[test]
    fn dir_census() {
        assert_eq!(Dir::all26().count(), 26);
        assert_eq!(Dir::faces().count(), 6);
    }

    #[test]
    #[should_panic(expected = "null direction")]
    fn null_direction_rejected() {
        Dir::new(0, 0, 0);
    }

    #[test]
    fn sfc_parent_sorts_before_children_and_children_are_ordered() {
        let p = NodeId::from_coords(2, [1, 2, 3]);
        let mut prev = p.sfc_key();
        for oct in Octant::all() {
            let k = p.child(oct).sfc_key();
            assert!(k > prev, "children must ascend in SFC order");
            prev = k;
        }
        assert!(p.sfc_key() < p.child(Octant(0)).sfc_key());
        // And the next sibling of p sorts after all of p's children.
        let next = NodeId::from_coords(2, [1, 2, 3].map(|c| c)).neighbor(Dir::new(1, 0, 0));
        if let Some(next) = next {
            if next.path() > p.path() {
                assert!(next.sfc_key() > p.child(Octant(7)).sfc_key());
            }
        }
    }

    #[test]
    fn cube_geometry() {
        let (corner, size) = NodeId::ROOT.cube();
        assert_eq!(corner, [0.0, 0.0, 0.0]);
        assert_eq!(size, 1.0);
        let c = NodeId::from_coords(1, [1, 0, 1]);
        let (corner, size) = c.cube();
        assert_eq!(size, 0.5);
        assert_eq!(corner, [0.5, 0.0, 0.5]);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", NodeId::ROOT), "L0:root");
        let c = NodeId::ROOT.child(Octant(5)).child(Octant(2));
        assert_eq!(format!("{c}"), "L2:52");
    }
}
