//! "Silo-lite" checkpoint IO.
//!
//! Octo-Tiger saves its octree "to the hard disk using Silo's HDF file
//! format" (paper Section IV, Figure 2 shows Silo + HDF5 in the stack).
//! Per the DESIGN.md substitution table we stand in a compact custom
//! hierarchical binary format: a header, the leaf topology, and the full
//! ghosted field blocks per leaf.  Round-tripping a simulation through a
//! checkpoint is covered by integration tests.

use octree::{DistGrid, NodeId, Octant, Tree, MAX_LEVEL};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"SILOLT01";

/// Bytes before the first leaf: the magic and six 8-byte header words.
const HEADER_BYTES: u64 = 8 + 6 * 8;

/// An in-memory checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Sub-grid interior extent.
    pub n: usize,
    /// Ghost width.
    pub ghost: usize,
    /// Fields per sub-grid.
    pub nfields: usize,
    /// Simulation time.
    pub time: f64,
    /// Step count.
    pub step: u64,
    /// Leaf ids with their full (ghosted) field data.
    pub leaves: Vec<(NodeId, Vec<f64>)>,
}

impl Checkpoint {
    /// Capture a checkpoint of `grid`.
    pub fn capture(grid: &DistGrid, time: f64, step: u64) -> Checkpoint {
        let leaves = grid
            .leaves()
            .into_iter()
            .map(|leaf| {
                let handle = grid.grid(leaf);
                let g = handle.read();
                let mut data = Vec::with_capacity(g.nfields() * g.ext().pow(3));
                for f in 0..g.nfields() {
                    data.extend_from_slice(g.field(f));
                }
                (leaf, data)
            })
            .collect();
        Checkpoint {
            n: grid.n(),
            ghost: grid.ghost_width(),
            nfields: grid.nfields(),
            time,
            step,
            leaves,
        }
    }

    /// Rebuild the octree implied by the leaf set.
    pub(crate) fn rebuild_tree(&self) -> Tree {
        tree_from_leaves(self.leaves.iter().map(|(id, _)| *id))
    }

    /// Restore into a fresh [`DistGrid`] over `cluster`.
    pub fn restore(&self, cluster: &hpx_rt::SimCluster) -> DistGrid {
        let tree = self.rebuild_tree();
        let grid = DistGrid::new(tree, self.n, self.ghost, self.nfields, cluster);
        let ext3 = (self.n + 2 * self.ghost).pow(3);
        for (leaf, data) in &self.leaves {
            let handle = grid.grid(*leaf);
            let mut g = handle.write();
            for f in 0..self.nfields {
                g.field_mut(f)
                    .copy_from_slice(&data[f * ext3..(f + 1) * ext3]);
            }
        }
        grid
    }
}

/// Reconstruct a full-refinement tree from its (valid) leaf set.
pub(crate) fn tree_from_leaves(leaves: impl IntoIterator<Item = NodeId>) -> Tree {
    let mut ids: Vec<NodeId> = leaves.into_iter().collect();
    ids.sort_by_key(|id| id.level());
    let mut tree = Tree::new();
    for id in ids {
        // Refine down until the node exists (its siblings appear along the
        // way, as full refinement demands).
        while !tree.contains(id) {
            let cov = tree
                .covering_leaf(id)
                .expect("leaf set inconsistent with full refinement");
            tree.refine(cov);
        }
    }
    tree
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Rebuild a `NodeId` from its `(level, path)` encoding.
fn node_from_level_path(level: u8, path: u64) -> NodeId {
    let mut id = NodeId::ROOT;
    for step in 0..level {
        let shift = 3 * (level - 1 - step);
        id = id.child(Octant(((path >> shift) & 0b111) as u8));
    }
    id
}

/// Write a checkpoint to `path`.
pub(crate) fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u64(&mut w, ckpt.n as u64)?;
    write_u64(&mut w, ckpt.ghost as u64)?;
    write_u64(&mut w, ckpt.nfields as u64)?;
    write_f64(&mut w, ckpt.time)?;
    write_u64(&mut w, ckpt.step)?;
    write_u64(&mut w, ckpt.leaves.len() as u64)?;
    for (id, data) in &ckpt.leaves {
        write_u64(&mut w, u64::from(id.level()))?;
        write_u64(&mut w, id.path())?;
        write_u64(&mut w, data.len() as u64)?;
        for v in data {
            write_f64(&mut w, *v)?;
        }
    }
    w.flush()
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read a word that must fit a `usize`; `field` names it in the error.
fn read_usize(r: &mut impl Read, field: &str) -> io::Result<usize> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| invalid(format!("{field} {v} does not fit a usize")))
}

/// Read a checkpoint from `path`.
///
/// A corrupt file is an `InvalidData` error naming the field, never a
/// panic or an abort: the leaf count is checked against the bytes the
/// file has left before anything is allocated, each leaf's level and
/// path against the octree's limits, and the header's block size
/// `nfields·(n+2·ghost)³` with checked arithmetic.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a silo-lite checkpoint".to_owned()));
    }
    let n = read_usize(&mut r, "header: n")?;
    let ghost = read_usize(&mut r, "header: ghost")?;
    let nfields = read_usize(&mut r, "header: nfields")?;
    let time = read_f64(&mut r)?;
    let step = read_u64(&mut r)?;
    let block = ghost
        .checked_mul(2)
        .and_then(|g2| n.checked_add(g2))
        .and_then(|ext| ext.checked_pow(3))
        .and_then(|ext3| ext3.checked_mul(nfields));
    // Level, path and length words plus the block, per leaf.
    let leaf_bytes = block
        .and_then(|words| (words as u64).checked_mul(8))
        .and_then(|b| b.checked_add(3 * 8));
    let (Some(expected), Some(leaf_bytes)) = (block, leaf_bytes) else {
        return Err(invalid(format!(
            "header: nfields·(n+2·ghost)³ overflows (n {n}, ghost {ghost}, nfields {nfields})"
        )));
    };
    let count = read_u64(&mut r)?;
    let left = file_bytes.saturating_sub(HEADER_BYTES);
    if count > left / leaf_bytes {
        return Err(invalid(format!(
            "leaf count {count} needs {leaf_bytes} bytes a leaf, the file has {left} left"
        )));
    }
    let mut leaves = Vec::with_capacity(count as usize);
    for i in 0..count {
        let level = read_u64(&mut r)?;
        if level > u64::from(MAX_LEVEL) {
            return Err(invalid(format!(
                "leaf {i}: level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
            )));
        }
        let path = read_u64(&mut r)?;
        if path >> (3 * level) != 0 {
            return Err(invalid(format!(
                "leaf {i}: path {path:#x} has bits above 3·level = {}",
                3 * level
            )));
        }
        let len = read_usize(&mut r, "block length")?;
        if len != expected {
            return Err(invalid(format!(
                "leaf {i}: block length {len}, expected {expected}"
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(read_f64(&mut r)?);
        }
        leaves.push((node_from_level_path(level as u8, path), data));
    }
    Ok(Checkpoint {
        n,
        ghost,
        nfields,
        time,
        step,
        leaves,
    })
}

/// Convenience: capture + write.
pub fn save(path: &Path, grid: &DistGrid, time: f64, step: u64) -> io::Result<()> {
    write_checkpoint(path, &Checkpoint::capture(grid, time, step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{field, NF};
    use hpx_rt::SimCluster;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("octo_repro_io_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn checkpoint_roundtrip_through_disk() {
        let cluster = SimCluster::new(2, 1);
        let grid = DistGrid::new(Tree::new_uniform(1), 4, 2, NF, &cluster);
        for (idx, leaf) in grid.leaves().into_iter().enumerate() {
            let h = grid.grid(leaf);
            let mut g = h.write();
            for i in 0..4 {
                g.set_interior(field::RHO, i, i, i, idx as f64 + 1.0);
            }
        }
        let ckpt = Checkpoint::capture(&grid, 1.5, 42);
        let path = tmp("roundtrip.slt");
        write_checkpoint(&path, &ckpt).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_file(&path).ok();
        cluster.shutdown();
    }

    #[test]
    fn restore_reproduces_grid_contents() {
        let cluster = SimCluster::new(1, 1);
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let grid = DistGrid::new(tree, 4, 2, NF, &cluster);
        for (idx, leaf) in grid.leaves().into_iter().enumerate() {
            let h = grid.grid(leaf);
            h.write().set_interior(field::EGAS, 1, 2, 3, idx as f64);
        }
        let ckpt = Checkpoint::capture(&grid, 0.0, 0);
        let restored = ckpt.restore(&cluster);
        assert_eq!(restored.leaves(), grid.leaves());
        for leaf in grid.leaves() {
            let a = grid.grid(leaf);
            let b = restored.grid(leaf);
            assert_eq!(a.read().field(field::EGAS), b.read().field(field::EGAS));
        }
        cluster.shutdown();
    }

    #[test]
    fn tree_from_leaves_rebuilds_adaptive_trees() {
        let mut tree = Tree::new_uniform(2);
        tree.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        let rebuilt = tree_from_leaves(tree.leaves());
        assert_eq!(rebuilt.leaves(), tree.leaves());
        assert!(rebuilt.check_invariants().is_ok());
    }

    /// A valid two-level checkpoint on disk, as bytes.
    fn checkpoint_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let cluster = SimCluster::new(1, 1);
        let grid = DistGrid::new(Tree::new_uniform(1), 2, 1, 2, &cluster);
        let path = tmp(name);
        save(&path, &grid, 0.5, 3).unwrap();
        cluster.shutdown();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// Read `bytes` back through `path` and return the `InvalidData`
    /// error's message.
    fn rejection(path: &Path, bytes: &[u8]) -> String {
        std::fs::write(path, bytes).unwrap();
        let err = read_checkpoint(path).unwrap_err();
        std::fs::remove_file(path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn flipped_leaf_count_is_rejected_before_allocating() {
        let (path, mut bytes) = checkpoint_bytes("flipcount.slt");
        // The leaf count is the sixth header word; bit 40 adds 2^40 leaves.
        bytes[48 + 5] ^= 1;
        let msg = rejection(&path, &bytes);
        assert!(msg.contains("leaf count"), "{msg}");
    }

    #[test]
    fn flipped_leaf_level_is_rejected() {
        let (path, mut bytes) = checkpoint_bytes("fliplevel.slt");
        // The first leaf's level word follows the header.
        bytes[HEADER_BYTES as usize] = 200;
        let msg = rejection(&path, &bytes);
        assert!(msg.contains("leaf 0: level 200"), "{msg}");
        // A path with bits above 3·level is just as corrupt.
        let (path, mut bytes) = checkpoint_bytes("flippath.slt");
        bytes[HEADER_BYTES as usize + 8] |= 0b1000;
        let msg = rejection(&path, &bytes);
        assert!(msg.contains("leaf 0: path"), "{msg}");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let (path, bytes) = checkpoint_bytes("truncated.slt");
        let msg = rejection(&path, &bytes[..bytes.len() - 8]);
        assert!(msg.contains("leaf count 8"), "{msg}");
    }

    #[test]
    fn overflowing_header_is_rejected() {
        let (path, mut bytes) = checkpoint_bytes("overflow.slt");
        // nfields is the third header word.
        bytes[8 + 2 * 8..8 + 3 * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let msg = rejection(&path, &bytes);
        assert!(msg.contains("header"), "{msg}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic.slt");
        std::fs::write(&path, b"NOTSILO!xxxxxxxxxxxx").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
