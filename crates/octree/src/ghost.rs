//! Distributed ghost-layer exchange with the Section VII-B communication
//! optimization.
//!
//! Before each solver stage every leaf fills its six face ghost slabs from
//! its face neighbours.  In HPX Octo-Tiger this is an action per (leaf,
//! direction) pair over every face, edge and corner direction, because its
//! kernels read the edge and corner shells too; this repo's stage kernel
//! is dimension-split (every reconstruction stencil varies one axis), so it
//! reads the face slabs only, and no route writes an edge or corner ghost
//! word.  The paper's optimization short-circuits pairs whose source lives
//! on the **same locality** to direct memory access, "avoiding HPX actions
//! and temporary communication buffers where possible", with promise/future
//! pairs guaranteeing the source is up to date.  Our exchange has the same
//! two routes:
//!
//! * **parcel route** — an action request/reply through the locality's
//!   parcelport (always used across localities, and also used locally when
//!   the optimization is off), metered in the locality counters;
//! * **direct route** — a read through the shared-memory grid handle,
//!   counted in `local_direct_accesses`.  The paper's promise/future
//!   readiness notifications are literal here: one gate per destination
//!   leaf over the leaves its six links read.
//!
//! Which leaf feeds which shell from which locality is derived once per
//! `topology_version` into a `GhostPlan` that also carries the per-link
//! work.  A leaf's ghost fill is written once, as two plan routines —
//! `start` (outflow and direct links, parcel requests) and `finish` (parcel
//! replies) — and scheduled once, as one small future graph per leaf run
//! on the owner's workers ([`DistGrid::exchange_ghosts_pipelined`]).  The
//! bulk [`DistGrid::exchange_ghosts`] is that graph over ready gates,
//! joined.
//!
//! Level jumps are handled as in Octo-Tiger, by the operator pair refine
//! and derefine use too (`subgrid::LevelMap`, its per-axis tables built
//! with the plan): a coarser neighbour's data is prolonged
//! (piecewise-constant), four finer neighbours' data restricted
//! (conservative 8-cell average).

use crate::index::{Dir, NodeId, Octant};
use crate::partition::partition_morton;
use crate::subgrid::{LevelMap, SubGrid};
use crate::tree::{Neighbor, Tree};
use hpx_rt::locality::{downcast_payload, ArcPayload, Payload};
use hpx_rt::{Locality, LocalityId, SimCluster};
use kokkos_rs::pool::{BufferPool, Recycled};
use parking_lot::{Mutex, RwLock};
use std::cmp::Ordering::{Equal, Greater, Less};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type GridHandle = Arc<RwLock<SubGrid>>;

/// Options of a ghost exchange.
#[derive(Debug, Clone, Copy)]
pub struct GhostConfig {
    /// The Section VII-B optimization: same-locality neighbours are read
    /// directly from memory instead of through parcels.
    pub direct_local_access: bool,
}

impl Default for GhostConfig {
    fn default() -> Self {
        GhostConfig {
            direct_local_access: true,
        }
    }
}

/// One (leaf, face) ghost link, classified: which source leaves the link
/// reads (the four adjacent children of a refined neighbour, else one), or
/// none at the domain boundary (outflow reads the leaf's own interior).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// The destination leaf whose ghost shell the link fills.
    pub leaf: NodeId,
    /// Direction of the shell, from the leaf's perspective.
    pub dir: Dir,
    /// Source leaves read to assemble the payload; empty at the domain
    /// boundary.
    pub sources: Vec<NodeId>,
}

impl LinkSpec {
    /// `true` for a domain-boundary (outflow) link.
    pub fn is_boundary(&self) -> bool {
        self.sources.is_empty()
    }
}

/// Ghost links per leaf: one per face, the slabs the stage kernel reads.
const LINKS_PER_LEAF: usize = 6;

/// Classify every (leaf, face) ghost link of `tree`: six per leaf, in
/// `leaves() × Dir::faces()` order.
pub(crate) fn ghost_link_specs(tree: &Tree) -> Vec<LinkSpec> {
    tree.leaves()
        .into_iter()
        .flat_map(|leaf| Dir::faces().map(move |dir| (leaf, dir)))
        .map(|(leaf, dir)| {
            let sources = match tree.neighbor_of(leaf, dir) {
                Neighbor::SameLevel(nb) => vec![nb],
                Neighbor::Coarser(c) => vec![c],
                Neighbor::Finer(kids) => kids,
                Neighbor::DomainBoundary => Vec::new(),
            };
            LinkSpec { leaf, dir, sources }
        })
        .collect()
}

/// How a link's payload is assembled from its sources.
enum Transfer {
    /// The same-level source's send slab (an outflow link's placeholder).
    Copy,
    /// The coarser source prolonged onto the receive box.
    Prolong(LevelMap),
    /// The four finer sources restricted onto the receive box.
    Restrict(LevelMap),
}

impl Transfer {
    /// The transfer of `spec` on grids of extent `n` and ghost width `g`:
    /// across a level jump, its receive box in global cells of the leaf's
    /// level (inside the domain, like every source) mapped onto the coarser
    /// source or onto the octet of the finer ones.
    fn of(spec: &LinkSpec, n: usize, g: usize) -> Transfer {
        let Some(&source) = spec.sources.first() else {
            return Transfer::Copy;
        };
        let origin = |id: NodeId, scale| id.coords().map(|c| c as usize * n * scale);
        let leaf = origin(spec.leaf, 1);
        let mut recv = SubGrid::recv_box_of(n, g, spec.dir);
        for (a, (lo, hi)) in recv.iter_mut().enumerate() {
            (*lo, *hi) = (leaf[a] + *lo - g, leaf[a] + *hi - g);
        }
        match source.level().cmp(&spec.leaf.level()) {
            Equal => Transfer::Copy,
            Less => Transfer::Prolong(LevelMap::prolongation(n, g, origin(source, 1), recv)),
            Greater => {
                let refined = source.parent().expect("a finer source has a parent");
                Transfer::Restrict(LevelMap::restriction(n, g, origin(refined, 2), recv))
            }
        }
    }
}

/// Which way a link's data travels in one exchange.
enum Route {
    Outflow,
    Direct,
    Parcel,
}

/// One ghost link with everything an exchange needs to serve it without
/// consulting the tree or the leaf table again.
struct PlanLink {
    spec: LinkSpec,
    /// The destination leaf's sub-grid.
    grid: GridHandle,
    /// The sub-grids of `spec.sources`, in the same order.
    sources: Vec<GridHandle>,
    /// Owner of the destination leaf.
    owner: LocalityId,
    /// Owner of the first source — the locality a parcel request asks to
    /// assemble the payload (it can read all grids — shared memory under
    /// the simulation — but pays the parcel metering the cluster models
    /// charge).  The destination's owner at the boundary.
    source_owner: LocalityId,
    /// Every source lives on the destination's locality.
    all_local: bool,
    /// Payload length in elements (`nfields ×` the receive box's cells):
    /// the pool bucket it is checked out of and, × 8, its parcel size.
    elems: usize,
    /// How the payload is assembled.
    transfer: Transfer,
}

impl PlanLink {
    /// The one place [`GhostConfig::direct_local_access`] is read.
    fn route(&self, config: GhostConfig) -> Route {
        if self.spec.is_boundary() {
            Route::Outflow
        } else if self.all_local && config.direct_local_access {
            Route::Direct
        } else {
            Route::Parcel
        }
    }
}

/// The `ghost_pack` action: pack link `i` of `plan`.  The request carries
/// the plan, which keeps the cluster-global handler stateless, so any
/// number of grids can share one cluster.
fn serve_ghost_pack(arg: Payload, _loc: &Locality) -> Payload {
    let request = arg.downcast::<(Arc<GhostPlan>, usize)>();
    let (plan, i) = *request.expect("ghost_pack request: (plan, link)");
    Box::new(plan.pack(i))
}

/// The ghost topology of one `topology_version`: built once after a regrid
/// and shared by every exchange until the next one (owners and grid
/// handles only change together with the tree).
struct GhostPlan {
    version: u64,
    /// SFC-sorted leaves.
    leaves: Vec<NodeId>,
    /// `leaves` split by owner, indexed by locality id.
    leaves_of: Vec<Vec<NodeId>>,
    /// Per leaf, one flag per face in `Dir::faces` order: at the domain
    /// boundary?
    boundary_faces: Arc<HashMap<NodeId, [bool; 6]>>,
    /// [`LINKS_PER_LEAF`] per leaf, in `leaves × Dir::faces()` order.
    links: Vec<PlanLink>,
    /// Per leaf (by index into `leaves`), ascending: the leaves its fill
    /// reads — the sources of its links, and itself (outflow reads its
    /// interior, and its previous-stage combine rewrites its ghost shells
    /// too) — which its pipelined fill gates on.
    reads: Vec<Vec<usize>>,
    /// The inverse: per leaf, the leaves whose fills read it.
    readers: Vec<Vec<usize>>,
    /// Payload bucket (`PlanLink::elems`) → its non-boundary links, as
    /// `[all sources local, a source remote]`.
    demand: BTreeMap<usize, [usize; 2]>,
    /// The grid's payload arena.
    pool: BufferPool<f64>,
}

impl GhostPlan {
    fn build(inner: &DistGridInner) -> GhostPlan {
        let tree = inner.tree.read();
        let table = inner.leaves.read();
        let owner = |leaf: &NodeId| table[leaf].0;
        let leaves = tree.leaves();
        let localities = table.values().map(|(loc, _)| loc.0 + 1).max().unwrap_or(0);
        let mut leaves_of = vec![Vec::new(); localities];
        for leaf in &leaves {
            leaves_of[owner(leaf).0].push(*leaf);
        }
        let mut boundary_faces: HashMap<NodeId, [bool; 6]> = HashMap::new();
        let mut demand = BTreeMap::new();
        let links = ghost_link_specs(&tree)
            .into_iter()
            .map(|spec| {
                let (me, grid) = table[&spec.leaf].clone();
                let recv = SubGrid::recv_box_of(inner.n, inner.ghost, spec.dir);
                let elems = inner.nfields * SubGrid::box_cells(&recv);
                let all_local = spec.sources.iter().all(|s| owner(s) == me);
                let faces = boundary_faces.entry(spec.leaf).or_default();
                if spec.is_boundary() {
                    faces[Dir::faces().position(|f| f == spec.dir).expect("a face")] = true;
                } else {
                    demand.entry(elems).or_insert([0; 2])[usize::from(!all_local)] += 1;
                }
                PlanLink {
                    grid,
                    sources: spec.sources.iter().map(|s| table[s].1.clone()).collect(),
                    owner: me,
                    source_owner: spec.sources.first().map_or(me, owner),
                    all_local,
                    elems,
                    transfer: Transfer::of(&spec, inner.n, inner.ghost),
                    spec,
                }
            })
            .collect::<Vec<PlanLink>>();
        let index: HashMap<NodeId, usize> = (leaves.iter().enumerate())
            .map(|(k, &leaf)| (leaf, k))
            .collect();
        let mut readers = vec![Vec::new(); leaves.len()];
        let reads = (links.chunks(LINKS_PER_LEAF).enumerate())
            .map(|(k, own)| {
                let sources = own.iter().flat_map(|l| &l.spec.sources);
                let mut read: Vec<usize> = sources.map(|s| index[s]).chain([k]).collect();
                read.sort_unstable();
                read.dedup();
                read.iter().for_each(|&s| readers[s].push(k));
                read
            })
            .collect();
        GhostPlan {
            version: tree.topology_version(),
            leaves,
            leaves_of,
            boundary_faces: Arc::new(boundary_faces),
            links,
            reads,
            readers,
            demand,
            pool: inner.pool.clone(),
        }
    }

    /// Per payload bucket, the most payloads exchanges under `config` on
    /// `cluster` hold at once: every parcel link's (all are requested
    /// before a reply is unpacked; a leaf's next fill waits for its last
    /// one, so pipelined stages never hold two payloads of one link) and
    /// one direct payload per running fill (`start` unpacks each direct
    /// payload right after packing it).  A fill runs as a task that never
    /// waits, so no worker helps a second one in its middle: at most one
    /// runs per worker of the cluster.
    fn payloads(
        &self,
        config: GhostConfig,
        cluster: &SimCluster,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let fills: usize = (cluster.localities().iter())
            .map(|l| l.runtime().num_workers())
            .sum();
        self.demand.iter().map(move |(&bucket, &[local, remote])| {
            let (direct, parcel) = if config.direct_local_access {
                (local, remote)
            } else {
                (0, local + remote)
            };
            (bucket, parcel + direct.min(fills))
        })
    }

    /// Top up the payload arena to [`GhostPlan::payloads`] before an
    /// exchange fans out.  Which threads pack concurrently depends on how
    /// they interleave, so prewarming the peak demand makes the steady
    /// state allocation-free deterministically (then the top-up is a no-op,
    /// also while an earlier pipelined stage still holds payloads: the
    /// arena counts checked-out buffers).
    fn prewarm(&self, config: GhostConfig, cluster: &SimCluster) {
        for (bucket, count) in self.payloads(config, cluster) {
            self.pool.prewarm(bucket, count);
        }
    }

    /// Assemble the payload of non-boundary link `i`, in the element order
    /// `SubGrid::unpack_recv(dir, ..)` expects, in a buffer checked out of
    /// the grid's recycling arena: the same-level source's send slab, the
    /// coarser source prolonged, or the finer sources restricted.
    fn pack(&self, i: usize) -> Recycled<f64> {
        let link = &self.links[i];
        let mut out = self.pool.checkout_empty(link.elems);
        match &link.transfer {
            Transfer::Copy => {
                let send = link.spec.dir.opposite();
                link.sources[0].read().pack_send_into(send, &mut out);
            }
            Transfer::Prolong(map) => map.prolong(&link.sources[0].read(), |v| out.push(v)),
            Transfer::Restrict(map) => {
                // Lock each of the face's four children once.
                let kids: [_; 4] = std::array::from_fn(|s| link.sources[s].read());
                let mut octet = [None; 8];
                for (id, kid) in link.spec.sources.iter().zip(&kids) {
                    octet[usize::from(id.octant().0)] = Some(&**kid);
                }
                map.restrict(&octet, |v| out.push(v));
            }
        }
        out
    }

    /// Write a packed payload into link `i`'s ghost shell.
    fn unpack(&self, i: usize, packed: &[f64]) {
        let link = &self.links[i];
        link.grid.write().unpack_recv(link.spec.dir, packed);
    }

    /// Owner of leaf `k` (by index into `leaves`).
    fn owner(&self, k: usize) -> LocalityId {
        self.links[Self::links_of(k).start].owner
    }

    /// The index range of leaf `k`'s links in `links`.
    fn links_of(k: usize) -> std::ops::Range<usize> {
        LINKS_PER_LEAF * k..LINKS_PER_LEAF * (k + 1)
    }

    /// Links on the direct route under `config`.
    fn direct_links(&self, config: GhostConfig) -> usize {
        let direct = |l: &&PlanLink| matches!(l.route(config), Route::Direct);
        self.links.iter().filter(direct).count()
    }

    /// The first half of leaf `k`'s ghost fill, run by `me`, the leaf's
    /// owner: fill its outflow shells from its own interior, pack and
    /// unpack its direct links, and send one `ghost_pack` request per
    /// parcel link.  Returns the replies, in link order, for
    /// [`GhostPlan::finish`].  Reads the sources' interiors and writes only
    /// the leaf's face ghost slabs.
    fn start(
        self: &Arc<Self>,
        k: usize,
        me: &Locality,
        config: GhostConfig,
    ) -> Vec<hpx_rt::Future<ArcPayload>> {
        let mut replies = Vec::new();
        for i in Self::links_of(k) {
            let link = &self.links[i];
            match link.route(config) {
                Route::Outflow => apply_outflow(&mut link.grid.write(), link.spec.dir),
                Route::Direct => {
                    me.note_local_direct_access();
                    self.unpack(i, &self.pack(i));
                }
                Route::Parcel => replies.push(self.request(i, me)),
            }
        }
        replies
    }

    /// The second half: unpack the replies [`GhostPlan::start`] returned
    /// for leaf `k` (waiting for any still in flight).
    fn finish(&self, k: usize, config: GhostConfig, replies: &[hpx_rt::Future<ArcPayload>]) {
        let parcel_links =
            Self::links_of(k).filter(|&i| matches!(self.links[i].route(config), Route::Parcel));
        for (i, reply) in parcel_links.zip(replies) {
            let reply = reply.get();
            let packed = downcast_payload::<Recycled<f64>>(&reply);
            self.unpack(i, packed.expect("ghost_pack returns a recycled buffer"));
        }
    }

    /// The parcel route: ask the first source's owner to pack link `i`.
    /// `me` is the destination leaf's locality, the requester.
    fn request(self: &Arc<Self>, i: usize, me: &Locality) -> hpx_rt::Future<ArcPayload> {
        let link = &self.links[i];
        let bytes = link.elems * std::mem::size_of::<f64>();
        hpx_rt::parcel_counters().note_send(hpx_rt::ParcelClass::Ghost, bytes as u64);
        me.apply_async(
            link.source_owner,
            "ghost_pack",
            Box::new((self.clone(), i)),
            bytes,
        )
    }
}

struct DistGridInner {
    tree: RwLock<Tree>,
    /// Each leaf's owner and sub-grid; changes only together with `tree`.
    leaves: RwLock<HashMap<NodeId, (LocalityId, GridHandle)>>,
    n: usize,
    ghost: usize,
    nfields: usize,
    /// Recycling arena every ghost payload is checked out of: after the
    /// first exchange warms it up, packing allocates nothing.
    pool: BufferPool<f64>,
    /// The current `topology_version`'s plan, or `None` since the last
    /// regrid.  The three mutators hold the lock across their tree and
    /// leaf-table updates and empty the slot once the topology has changed,
    /// so no reader sees a tree whose leaf table has not caught up.
    plan: Mutex<Option<Arc<GhostPlan>>>,
}

/// A distributed AMR grid: a [`Tree`] whose leaves carry [`SubGrid`]s
/// partitioned over the localities of a [`SimCluster`].
#[derive(Clone)]
pub struct DistGrid {
    inner: Arc<DistGridInner>,
}

impl DistGrid {
    /// Build a distributed grid over `cluster` from `tree`, creating one
    /// zeroed sub-grid per leaf (`n` cells, `ghost` ghost width, `nfields`
    /// fields) and partitioning leaves in Morton order.
    pub fn new(
        tree: Tree,
        n: usize,
        ghost: usize,
        nfields: usize,
        cluster: &SimCluster,
    ) -> DistGrid {
        let new_grid = || Arc::new(RwLock::new(SubGrid::new(n, ghost, nfields)));
        let leaves = partition_morton(&tree, cluster.num_localities())
            .into_iter()
            .map(|(leaf, owner)| (leaf, (owner, new_grid())))
            .collect();
        cluster.register_action("ghost_pack", serve_ghost_pack);
        DistGrid {
            inner: Arc::new(DistGridInner {
                tree: RwLock::new(tree),
                leaves: RwLock::new(leaves),
                n,
                ghost,
                nfields,
                pool: BufferPool::new(),
                plan: Mutex::new(None),
            }),
        }
    }

    /// Interior extent per dimension of every sub-grid.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// Ghost width of every sub-grid.
    pub fn ghost_width(&self) -> usize {
        self.inner.ghost
    }

    /// Fields per sub-grid.
    pub fn nfields(&self) -> usize {
        self.inner.nfields
    }

    /// Handle to the ghost-payload recycling arena (for pool telemetry —
    /// the stepper folds its statistics into `StepStats`).
    pub fn scratch(&self) -> BufferPool<f64> {
        self.inner.pool.clone()
    }

    /// The current topology's plan: a clone of the cached one, or a fresh
    /// build after a regrid.  A hit touches neither the tree nor the leaf
    /// table.
    fn plan(&self) -> Arc<GhostPlan> {
        let plan = self
            .inner
            .plan
            .lock()
            .get_or_insert_with(|| Arc::new(GhostPlan::build(&self.inner)))
            .clone();
        debug_assert_eq!(plan.version, self.topology_version(), "stale ghost plan");
        plan
    }

    /// Read the cached plan, if a regrid has not emptied the slot: the
    /// plain accessors fall back to the tree instead of building one.
    fn cached<R>(&self, read: impl FnOnce(&GhostPlan) -> R) -> Option<R> {
        self.inner.plan.lock().as_deref().map(read)
    }

    /// SFC-sorted leaves.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.cached(|plan| plan.leaves.clone())
            .unwrap_or_else(|| self.inner.tree.read().leaves())
    }

    /// Run `f` with shared access to the tree.
    pub fn with_tree<R>(&self, f: impl FnOnce(&Tree) -> R) -> R {
        f(&self.inner.tree.read())
    }

    /// The tree's [`Tree::topology_version`]: unchanged between two calls
    /// ⇒ no regrid happened ⇒ cached traversal plans are still valid.
    pub(crate) fn topology_version(&self) -> u64 {
        self.inner.tree.read().topology_version()
    }

    /// Handle to a leaf's sub-grid.
    ///
    /// # Panics
    /// Panics if `id` has no grid.
    pub fn grid(&self, id: NodeId) -> Arc<RwLock<SubGrid>> {
        self.inner.leaves.read()[&id].1.clone()
    }

    /// Owner locality of a leaf.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf of the grid.
    pub fn owner(&self, id: NodeId) -> LocalityId {
        self.inner.leaves.read()[&id].0
    }

    /// Leaves owned by `loc`, SFC-sorted.
    pub fn leaves_of(&self, loc: LocalityId) -> Vec<NodeId> {
        self.cached(|plan| plan.leaves_of.get(loc.0).cloned().unwrap_or_default())
            .unwrap_or_else(|| {
                let table = self.inner.leaves.read();
                let leaves = self.inner.tree.read().leaves();
                (leaves.into_iter().filter(|l| table[l].0 == loc)).collect()
            })
    }

    /// Per leaf, which of its six faces (in `Dir::faces` order) lie on
    /// the domain boundary.
    pub fn boundary_faces(&self) -> Arc<HashMap<NodeId, [bool; 6]>> {
        self.plan().boundary_faces.clone()
    }

    /// Refine `leaf` (keeping 2:1 balance), prolonging its payload into the
    /// new children.  New children inherit the refined leaf's owner.
    pub fn refine_balanced(&self, leaf: NodeId) {
        let mut plan = self.inner.plan.lock();
        let refined = self.inner.tree.write().refine_balanced(leaf);
        plan.take_if(|_| !refined.is_empty());
        let mut leaves = self.inner.leaves.write();
        for r in refined {
            let (owner, parent) = leaves.remove(&r).expect("refined leaf had a grid");
            let parent = parent.read();
            for oct in Octant::all() {
                let child = Arc::new(RwLock::new(parent.prolong_child(oct)));
                leaves.insert(r.child(oct), (owner, child));
            }
        }
    }

    /// Collapse the octet under `id` back into a leaf if 2:1 balance
    /// permits, restricting the eight children's payloads into the parent
    /// by conservative averaging (the parent inherits the first child's
    /// owner).  Coarsening never drags still-wanted fine neighbours
    /// coarser: a collapse balance forbids is refused.  Returns whether the
    /// collapse happened.
    pub fn derefine(&self, id: NodeId) -> bool {
        let mut plan = self.inner.plan.lock();
        if !self.inner.tree.write().derefine(id) {
            return false;
        }
        *plan = None;
        let mut leaves = self.inner.leaves.write();
        let mut parent = SubGrid::new(self.inner.n, self.inner.ghost, self.inner.nfields);
        let mut parent_owner = None;
        for oct in Octant::all() {
            let (owner, child) = (leaves.remove(&id.child(oct))).expect("child had a grid");
            parent.restrict_from_child(oct, &child.read());
            parent_owner.get_or_insert(owner);
        }
        let owner = parent_owner.expect("octet has eight children");
        leaves.insert(id, (owner, Arc::new(RwLock::new(parent))));
        true
    }

    /// Fill every leaf's face ghost slabs: interior data from neighbours
    /// (with prolongation/restriction across level jumps) and outflow
    /// extrapolation at the domain boundary.  This is
    /// [`DistGrid::exchange_ghosts_pipelined`] with every leaf ready, joined
    /// on `ghosts_filled`: each leaf's fill runs as a task on its owner's
    /// workers, and the caller blocks until every fill is done.  No leaf's
    /// interior may be written meanwhile.
    ///
    /// Returns the number of (leaf, face) links that used the direct local
    /// path.
    pub fn exchange_ghosts(&self, cluster: &SimCluster, config: GhostConfig) -> usize {
        let ready = (self.leaves().into_iter())
            .map(|l| (l, hpx_rt::make_ready_future(())))
            .collect();
        let ex = self.exchange_ghosts_pipelined(cluster, config, &ready);
        ex.ghosts_filled.values().for_each(hpx_rt::Future::wait);
        ex.direct_links
    }

    /// Total (leaf, face) ghost links of the current tree: every leaf has
    /// exactly six links, one per face (a link with four finer sources
    /// still counts once, and domain-boundary faces count as outflow
    /// links).  Edge and corner ghost shells have no link: nothing reads
    /// them.
    pub fn total_ghost_links(&self) -> usize {
        self.cached(|plan| plan.links.len())
            .unwrap_or_else(|| LINKS_PER_LEAF * self.inner.tree.read().num_leaves())
    }

    /// Every ghost link of the current tree, classified (see `LinkSpec`),
    /// six per leaf in `leaves() × Dir::faces()` order (-x, +x, -y, +y,
    /// -z, +z): the exact link set the exchange serves.
    pub fn link_specs(&self) -> Vec<LinkSpec> {
        self.cached(|plan| plan.links.iter().map(|l| l.spec.clone()).collect())
            .unwrap_or_else(|| self.with_tree(ghost_link_specs))
    }

    /// Futurized ghost exchange: instead of a phase barrier, every leaf's
    /// ghost fill is gated on the `ready` futures of exactly the leaf and
    /// the source leaves its six face links read.
    ///
    /// `ready[l]` must complete when leaf `l`'s interior holds the data this
    /// exchange should see (for RK stage *s*, its stage-(s−1) update).  The
    /// returned handle carries, per leaf, a `ghosts_filled` future (all six
    /// of its face slabs written — the gate for the leaf's next RHS kernel)
    /// and an `outgoing_packed` future (the fills of its face neighbours,
    /// the ones *reading* the leaf, are done — the gate for overwriting the
    /// leaf's interior).
    /// Together they let interior leaves of the next stage run while slower
    /// neighbours are still exchanging.
    ///
    /// Per leaf the graph is one `when_all_of` gate running `start` and,
    /// for a leaf with parcel links, one continuation on the replies
    /// running `finish`.  Nothing in it blocks, nor does this method.
    pub fn exchange_ghosts_pipelined(
        &self,
        cluster: &SimCluster,
        config: GhostConfig,
        ready: &HashMap<NodeId, hpx_rt::Future<()>>,
    ) -> PipelinedExchange {
        let plan = self.plan();
        plan.prewarm(config, cluster);
        let links_resolved = Arc::new(AtomicUsize::new(0));
        let runtime = |k: usize| cluster.locality(plan.owner(k).0).runtime();
        let mut parts: Vec<hpx_rt::Future<()>> = Vec::new();
        let fills: Vec<hpx_rt::Future<()>> = (0..plan.leaves.len())
            .map(|k| {
                let me = cluster.locality(plan.owner(k).0).clone();
                parts.clear();
                parts.extend(
                    plan.reads[k]
                        .iter()
                        .map(|&s| ready[&plan.leaves[s]].clone()),
                );
                let (fill, filled) = hpx_rt::Promise::new_pair();
                let (p, resolved) = (plan.clone(), links_resolved.clone());
                let done = move || {
                    resolved.fetch_add(LINKS_PER_LEAF, Ordering::Relaxed);
                    fill.set(());
                };
                let rt = runtime(k);
                hpx_rt::when_all_of(rt, &parts).then(rt, move |()| {
                    let replies = p.start(k, &me, config);
                    if replies.is_empty() {
                        return done();
                    }
                    let rt = me.runtime();
                    hpx_rt::when_all_of(rt, &replies).then(rt, move |()| {
                        p.finish(k, config, &replies);
                        done();
                    });
                });
                filled
            })
            .collect();
        let outgoing_packed = (plan.leaves.iter().enumerate())
            .map(|(s, &leaf)| {
                parts.clear();
                parts.extend(plan.readers[s].iter().map(|&k| fills[k].clone()));
                (leaf, hpx_rt::when_all_of(runtime(s), &parts))
            })
            .collect();
        PipelinedExchange {
            ghosts_filled: plan.leaves.iter().copied().zip(fills).collect(),
            outgoing_packed,
            total_links: plan.links.len(),
            direct_links: plan.direct_links(config),
            links_resolved,
        }
    }
}

/// Handle to one in-flight [`DistGrid::exchange_ghosts_pipelined`] stage.
pub struct PipelinedExchange {
    /// Per leaf: completes once all six of its face ghost slabs are written.
    pub ghosts_filled: HashMap<NodeId, hpx_rt::Future<()>>,
    /// Per leaf: completes once every fill reading this leaf's interior is
    /// done — the leaf's interior may be overwritten after.
    pub outgoing_packed: HashMap<NodeId, hpx_rt::Future<()>>,
    /// Number of (leaf, face) links in the graph (= 6 × leaves).
    pub total_links: usize,
    /// Links eligible for the Section VII-B direct local path.
    pub direct_links: usize,
    /// Live count of links whose ghost data has been written; reaches
    /// `total_links` when the exchange has fully drained.  Sampled by the
    /// stepper to measure communication/compute overlap.
    pub links_resolved: Arc<AtomicUsize>,
}

/// Fill the face ghost slab toward `dir` by copying the nearest interior layer
/// (zero-gradient outflow, Octo-Tiger's outer boundary condition).
fn apply_outflow(grid: &mut SubGrid, dir: Dir) {
    let b = grid.recv_box(dir);
    let g = grid.ghost();
    let n = grid.n();
    let clamp = |v: usize| v.clamp(g, g + n - 1);
    for f in 0..grid.nfields() {
        for i in b[0].0..b[0].1 {
            for j in b[1].0..b[1].1 {
                for k in b[2].0..b[2].1 {
                    let v = grid.get(f, clamp(i), clamp(j), clamp(k));
                    grid.set(f, i, j, k, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill every leaf with a globally smooth linear field so ghost values
    /// are predictable: field `f` = (f + 1) × (physical x + 10 y + 100 z) at
    /// the cell center.
    fn fill_linear(dg: &DistGrid) {
        for leaf in dg.leaves() {
            let (corner, size) = leaf.cube();
            let n = dg.n();
            let h = size / n as f64;
            let grid = dg.grid(leaf);
            let mut g = grid.write();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let x = corner[0] + (i as f64 + 0.5) * h;
                        let y = corner[1] + (j as f64 + 0.5) * h;
                        let z = corner[2] + (k as f64 + 0.5) * h;
                        for f in 0..dg.nfields() {
                            g.set_interior(f, i, j, k, (f + 1) as f64 * (x + 10.0 * y + 100.0 * z));
                        }
                    }
                }
            }
        }
    }

    /// How many of the storage coordinates `c` lie outside the interior
    /// `[g, g + n)`: 0 interior, 1 a face ghost word, 2 or 3 an edge or
    /// corner ghost word.
    fn outside_axes(c: [usize; 3], n: usize, g: usize) -> usize {
        c.iter().filter(|&&x| !(g..g + n).contains(&x)).count()
    }

    /// The linear field of `fill_linear`'s field 0 at storage cell `c` of
    /// `leaf` (ghost cells included).
    fn linear_at(leaf: NodeId, c: [usize; 3], n: usize, g: usize) -> f64 {
        let (corner, size) = leaf.cube();
        let h = size / n as f64;
        let [x, y, z] = [0, 1, 2].map(|a| corner[a] + (c[a] as f64 - g as f64 + 0.5) * h);
        x + 10.0 * y + 100.0 * z
    }

    fn check_same_level_ghosts(dg: &DistGrid) {
        // After exchange, for leaves whose six face neighbours are all
        // same-level leaves, the face ghost words must equal the linear
        // field evaluated at the ghost cell centers.
        for leaf in dg.leaves() {
            let n = dg.n();
            let gw = dg.ghost_width();
            let tree_ok = dg.with_tree(|t| {
                Dir::faces().all(|d| matches!(t.neighbor_of(leaf, d), Neighbor::SameLevel(_)))
            });
            if !tree_ok {
                continue; // only interior same-level leaves in this check
            }
            let grid = dg.grid(leaf);
            let g = grid.read();
            let ext = g.ext();
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        if outside_axes([i, j, k], n, gw) != 1 {
                            continue; // face words only
                        }
                        let expect = linear_at(leaf, [i, j, k], n, gw);
                        let got = g.get(0, i, j, k);
                        assert!(
                            (got - expect).abs() < 1e-12,
                            "leaf {leaf} cell ({i},{j},{k}): got {got}, want {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_exchange_direct_path() {
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let direct = dg.exchange_ghosts(&cluster, GhostConfig::default());
        assert!(direct > 0, "expected some direct local links");
        check_same_level_ghosts(&dg);
        cluster.shutdown();
    }

    #[test]
    fn outflow_boundary_extrapolates() {
        let cluster = SimCluster::new(1, 1);
        let dg = DistGrid::new(Tree::new_uniform(0), 4, 2, 1, &cluster);
        fill_linear(&dg);
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        let grid = dg.grid(NodeId::ROOT);
        let g = grid.read();
        // -x ghost cells replicate the first interior layer.
        for j in 2..6 {
            for k in 2..6 {
                let inner = g.get(0, 2, j, k);
                assert_eq!(g.get(0, 0, j, k), inner);
                assert_eq!(g.get(0, 1, j, k), inner);
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn amr_exchange_prolongs_and_restricts() {
        let cluster = SimCluster::new(1, 2);
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        let dg = DistGrid::new(tree, 4, 2, 1, &cluster);
        fill_linear(&dg);
        dg.exchange_ghosts(&cluster, GhostConfig::default());

        // Fine leaf looking at the coarser region: ghost = coarse cell value
        // (piecewise constant), i.e. within one coarse cell width of the
        // linear field.
        let fine = NodeId::from_coords(2, [1, 0, 0]);
        let coarse_h = 0.5 / 4.0; // coarse leaf size 0.5, n = 4
        let (corner, size) = fine.cube();
        let h = size / 4.0;
        let grid = dg.grid(fine);
        let g = grid.read();
        // +x ghosts come from the coarser leaf at [1,0,0] level 1.
        for i in 6..8usize {
            for j in 2..6usize {
                for k in 2..6usize {
                    let x = corner[0] + (i as f64 - 2.0 + 0.5) * h;
                    let y = corner[1] + (j as f64 - 2.0 + 0.5) * h;
                    let z = corner[2] + (k as f64 - 2.0 + 0.5) * h;
                    let expect = x + 10.0 * y + 100.0 * z;
                    let got = g.get(0, i, j, k);
                    assert!(
                        (got - expect).abs() <= 111.0 * coarse_h,
                        "prolonged ghost too far off: got {got}, want ~{expect}"
                    );
                }
            }
        }
        drop(g);

        // Coarse leaf looking at the refined region: ghost = average of fine
        // cells; for a linear field the average is exact at the coarse cell
        // center.
        let coarse = NodeId::from_coords(1, [1, 0, 0]);
        let (ccorner, csize) = coarse.cube();
        let ch = csize / 4.0;
        let cgrid = dg.grid(coarse);
        let cg = cgrid.read();
        for i in 0..2usize {
            for j in 2..6usize {
                for k in 2..6usize {
                    let x = ccorner[0] + (i as f64 - 2.0 + 0.5) * ch;
                    let y = ccorner[1] + (j as f64 - 2.0 + 0.5) * ch;
                    let z = ccorner[2] + (k as f64 - 2.0 + 0.5) * ch;
                    let expect = x + 10.0 * y + 100.0 * z;
                    let got = cg.get(0, i, j, k);
                    assert!(
                        (got - expect).abs() < 1e-12,
                        "restricted ghost: got {got}, want {expect}"
                    );
                }
            }
        }
        drop(cg);
        cluster.shutdown();

        // A random field, checked exactly against values computed here from
        // global cell coordinates, on every coarse-fine face word.
        for n in [4, 8] {
            let cluster = SimCluster::new(2, 2);
            let dg = DistGrid::new(one_refined_octant(), n, 2, 2, &cluster);
            fill_random(&dg, 0xface + n as u64);
            dg.exchange_ghosts(&cluster, GhostConfig::default());
            let mut checked = [0usize; 2];
            for leaf in dg.leaves() {
                let grid = dg.grid(leaf);
                let g = grid.read();
                let ext = g.ext();
                for c in (0..ext)
                    .flat_map(|i| (0..ext).flat_map(move |j| (0..ext).map(move |k| [i, j, k])))
                {
                    if outside_axes(c, n, 2) != 1 {
                        continue;
                    }
                    let a = (0..3)
                        .position(|a| !(2..2 + n).contains(&c[a]))
                        .expect("one axis outside");
                    let dir = Dir::faces()
                        .nth(2 * a + usize::from(c[a] >= 2 + n))
                        .expect("a face");
                    for f in 0..2 {
                        let Some((finer, want)) = coarse_fine_oracle(&dg, leaf, dir, f, c) else {
                            continue;
                        };
                        checked[usize::from(finer)] += 1;
                        let got = g.get(f, c[0], c[1], c[2]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "N={n} {leaf} f{f} {c:?}: {got} != {want}"
                        );
                    }
                }
            }
            assert!(
                checked[0] > 0 && checked[1] > 0,
                "N={n}: {checked:?} prolonged/restricted words"
            );
            cluster.shutdown();
        }
    }

    /// What face ghost word `c` (field `f`) of `leaf` must hold when its
    /// neighbour across `dir` is a level coarser — the coarse interior cell
    /// containing it — or finer — the mean of its eight fine cells, summed
    /// in `di, dj, dk` order from 0.0 — with whether it is the finer case;
    /// `None` for a same-level or boundary face.  Computed from global cell
    /// coordinates, without the transfer operators.
    fn coarse_fine_oracle(
        dg: &DistGrid,
        leaf: NodeId,
        dir: Dir,
        f: usize,
        c: [usize; 3],
    ) -> Option<(bool, f64)> {
        let (n, g) = (dg.n() as i64, dg.ghost_width() as i64);
        let x: [i64; 3] =
            std::array::from_fn(|a| i64::from(leaf.coords()[a]) * n + c[a] as i64 - g);
        let cell = |level: u8, x: [i64; 3]| {
            let id = NodeId::from_coords(level, x.map(|v| v.div_euclid(n) as u32));
            let [i, j, k] = x.map(|v| v.rem_euclid(n) as usize);
            dg.grid(id).read().get_interior(f, i, j, k)
        };
        match dg.with_tree(|t| t.neighbor_of(leaf, dir)) {
            Neighbor::Coarser(_) => {
                Some((false, cell(leaf.level() - 1, x.map(|v| v.div_euclid(2)))))
            }
            Neighbor::Finer(_) => {
                let mut acc = 0.0;
                for di in 0..2 {
                    for dj in 0..2 {
                        for dk in 0..2 {
                            acc += cell(
                                leaf.level() + 1,
                                [2 * x[0] + di, 2 * x[1] + dj, 2 * x[2] + dk],
                            );
                        }
                    }
                }
                Some((true, acc / 8.0))
            }
            Neighbor::SameLevel(_) | Neighbor::DomainBoundary => None,
        }
    }

    #[test]
    fn refine_prolongs_payload_and_reassigns_owner() {
        let cluster = SimCluster::new(2, 1);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 1, 1, &cluster);
        fill_linear(&dg);
        let target = NodeId::from_coords(1, [0, 0, 0]);
        let parent_owner = dg.owner(target);
        let parent_sum = dg.grid(target).read().interior_sum(0);
        dg.refine_balanced(target);
        // Children exist, inherit the owner, and conserve the parent's mean.
        let mut child_sum = 0.0;
        for oct in Octant::all() {
            let child = target.child(oct);
            assert_eq!(dg.owner(child), parent_owner);
            child_sum += dg.grid(child).read().interior_sum(0);
        }
        // Piecewise-constant prolongation: each parent value appears 8×.
        assert!((child_sum - 8.0 * parent_sum).abs() < 1e-9);
        cluster.shutdown();
    }

    #[test]
    fn derefine_restricts_payload_and_collapses_octet() {
        let cluster = SimCluster::new(2, 1);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 1, 1, &cluster);
        fill_linear(&dg);
        let target = NodeId::from_coords(1, [0, 0, 0]);
        let owner_before = dg.owner(target);
        let sum_before = dg.grid(target).read().interior_sum(0);
        dg.refine_balanced(target);
        assert!(dg.derefine(target));
        // Round trip: the collapsed parent reproduces the linear field
        // exactly (prolongation is piecewise constant, restriction averages
        // the 8 copies back) and keeps the octet's owner.
        assert_eq!(dg.owner(target), owner_before);
        let sum_after = dg.grid(target).read().interior_sum(0);
        assert!((sum_after - sum_before).abs() < 1e-9);
        assert!(dg.leaves().contains(&target));
        for oct in Octant::all() {
            assert!(!dg.leaves().contains(&target.child(oct)));
        }
        cluster.shutdown();
    }

    /// All-ready gate map: the pipelined exchange degenerates to "interiors
    /// are final", i.e. the same precondition the barrier exchange assumes.
    fn all_ready(dg: &DistGrid) -> HashMap<NodeId, hpx_rt::Future<()>> {
        dg.leaves()
            .into_iter()
            .map(|l| (l, hpx_rt::make_ready_future(())))
            .collect()
    }

    #[test]
    fn pipelined_exchange_resolves_each_link_exactly_once() {
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let ex = dg.exchange_ghosts_pipelined(&cluster, GhostConfig::default(), &all_ready(&dg));
        assert_eq!(ex.total_links, dg.total_ghost_links());
        for f in ex.ghosts_filled.values() {
            f.wait();
        }
        for f in ex.outgoing_packed.values() {
            f.wait();
        }
        // Every link wrote its ghost region exactly once: the counter lands
        // exactly on the link total, never above it.
        assert_eq!(ex.links_resolved.load(Ordering::SeqCst), ex.total_links);
        check_same_level_ghosts(&dg);
        cluster.shutdown();
    }

    #[test]
    fn pipelined_exchange_builds_a_few_futures_per_leaf_not_per_link() {
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(one_refined_octant(), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let ready = all_ready(&dg);
        let created = || -> u64 {
            (cluster.localities().iter())
                .map(|loc| loc.runtime().counters().snapshot().futures_created)
                .sum()
        };
        let before = created();
        let ex = dg.exchange_ghosts_pipelined(&cluster, GhostConfig::default(), &ready);
        for f in ex.ghosts_filled.values().chain(ex.outgoing_packed.values()) {
            f.wait();
        }
        let futures = created() - before;
        // Per leaf: the gate, the fill's first half, the outgoing join,
        // and for a leaf with parcel links the reply join and the second
        // half.  None per link.
        let plan = dg.plan();
        let leaves = plan.leaves.len() as u64;
        let with_parcels = (plan.links.chunks(LINKS_PER_LEAF))
            .filter(|own| own.iter().any(|l| !l.spec.is_boundary() && !l.all_local))
            .count() as u64;
        assert!(with_parcels > 0 && with_parcels < leaves);
        assert_eq!(futures, 3 * leaves + 2 * with_parcels);
        assert!(
            futures <= 8 * leaves,
            "{futures} futures for {leaves} leaves"
        );
        cluster.shutdown();
    }

    #[test]
    fn pipelined_exchange_gates_on_source_readiness() {
        let cluster = SimCluster::new(1, 2);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 1, 1, &cluster);
        fill_linear(&dg);
        let leaves = dg.leaves();
        // Hold back one leaf: at level 1 it shares a face with three of the
        // other seven leaves, so exactly those three and the leaf itself
        // read it; the four others (its edge and corner neighbours) fill.
        let held = leaves[0];
        let blocked: Vec<NodeId> = (leaves.iter().copied())
            .filter(|&l| {
                let d = (0..3).map(|a| l.coords()[a].abs_diff(held.coords()[a]));
                d.sum::<u32>() <= 1
            })
            .collect();
        assert_eq!(blocked.len(), 4);
        let (hold_p, hold_f) = hpx_rt::Promise::new_pair();
        let ready: HashMap<NodeId, hpx_rt::Future<()>> = leaves
            .iter()
            .map(|&l| {
                let f = if l == held {
                    hold_f.clone()
                } else {
                    hpx_rt::make_ready_future(())
                };
                (l, f)
            })
            .collect();
        let ex = dg.exchange_ghosts_pipelined(&cluster, GhostConfig::default(), &ready);
        for l in leaves.iter().filter(|l| !blocked.contains(l)) {
            // Waits only on ready sources: these fills run while one is held.
            ex.ghosts_filled[l].wait();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        for l in &blocked {
            assert!(
                !ex.ghosts_filled[l].is_ready(),
                "leaf {l} filled its ghosts before its source was ready"
            );
        }
        assert!(!ex.outgoing_packed[&held].is_ready());
        hold_p.set(());
        for f in ex.ghosts_filled.values() {
            f.wait();
        }
        for f in ex.outgoing_packed.values() {
            f.wait();
        }
        assert_eq!(ex.links_resolved.load(Ordering::SeqCst), ex.total_links);
        check_same_level_ghosts(&dg);
        cluster.shutdown();
    }

    #[test]
    fn prewarm_holds_one_direct_payload_per_running_fill() {
        // Uniform level 2, N = 4, one field, one locality: every payload
        // link is direct, in one bucket (a face slab, 32 words).  Both
        // exchanges run each fill as a task, at most one per worker; the
        // pool holds that many payloads, not one per link, and a warm
        // exchange misses 0 times.
        let config = GhostConfig::default();
        for (workers, pipelined, fills, words) in
            [(1, false, 1, 32), (2, false, 2, 64), (2, true, 2, 64)]
        {
            let cluster = SimCluster::new(1, workers);
            let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
            fill_linear(&dg);
            let exchange = || {
                if pipelined {
                    let ex = dg.exchange_ghosts_pipelined(&cluster, config, &all_ready(&dg));
                    ex.ghosts_filled.values().for_each(hpx_rt::Future::wait);
                } else {
                    dg.exchange_ghosts(&cluster, config);
                }
            };
            exchange();
            let plan = dg.plan();
            let payloads: Vec<(usize, usize)> = plan.payloads(config, &cluster).collect();
            assert_eq!(payloads, [(32, fills)]);
            let prewarmed: usize = payloads.iter().map(|(bucket, count)| bucket * count).sum();
            assert_eq!(prewarmed, words);
            let warm = dg.scratch().stats();
            assert_eq!(warm.misses, fills as u64, "only the prewarm allocates");
            exchange();
            let again = dg.scratch().stats();
            assert_eq!(again.misses, warm.misses, "a warm exchange misses 0 times");
            assert!(again.hits > warm.hits);
            check_same_level_ghosts(&dg);
            cluster.shutdown();
        }
    }

    #[test]
    fn chained_pipelined_stages_miss_zero_times_when_warm() {
        // Three stages per round, all built before the first finishes (as
        // the pipelined stepper does): stage s + 1's prewarm runs while
        // stage s's fills hold payloads.  After one round, none misses.
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let config = GhostConfig::default();
        let round = || {
            let mut ready = all_ready(&dg);
            for _ in 0..3 {
                let ex = dg.exchange_ghosts_pipelined(&cluster, config, &ready);
                for (leaf, next) in &mut ready {
                    let owner = cluster.locality(dg.owner(*leaf).0).runtime();
                    let parts = [
                        ex.ghosts_filled[leaf].clone(),
                        ex.outgoing_packed[leaf].clone(),
                    ];
                    *next = hpx_rt::when_all_of(owner, &parts);
                }
            }
            ready.values().for_each(hpx_rt::Future::wait);
        };
        round();
        let warm = dg.scratch().stats();
        for _ in 0..5 {
            round();
        }
        let after = dg.scratch().stats();
        assert_eq!(after.misses, warm.misses, "a warm round allocated payloads");
        assert!(after.hits > warm.hits);
        check_same_level_ghosts(&dg);
        cluster.shutdown();
    }

    #[test]
    fn repeated_exchange_recycles_every_payload() {
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        // Warm up until the pool covers the peak concurrent demand: task
        // interleaving varies run to run (and with worker count), so the
        // high-water mark can take several rounds to reach.  Steady state
        // is reached once three consecutive rounds allocate nothing.
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        let warm = dg.scratch().stats();
        assert!(warm.misses > 0, "warm-up must populate the pool");
        let mut prev = warm.misses;
        let mut stable = 0;
        let mut rounds = 0;
        while stable < 3 && rounds < 40 {
            dg.exchange_ghosts(&cluster, GhostConfig::default());
            let misses = dg.scratch().stats().misses;
            if misses == prev {
                stable += 1;
            } else {
                stable = 0;
                prev = misses;
            }
            rounds += 1;
        }
        assert_eq!(
            stable, 3,
            "steady-state exchange must allocate nothing (misses still growing after {rounds} rounds)"
        );
        assert!(dg.scratch().stats().hits > warm.hits);
        // A parcel reply's last reference can be dropped on a worker of
        // the locality that ran the handler, so the final return may land a
        // beat after the exchange itself completes: poll for it instead of
        // sampling once.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let in_use = dg.scratch().stats().bytes_in_use;
            if in_use == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "payloads not returned to the pool: {in_use} bytes still checked out"
            );
            std::thread::yield_now();
        }
        cluster.shutdown();
    }

    /// Level 1 with one octant refined: same-level, coarser and finer
    /// links plus the domain boundary, on 15 leaves.
    fn one_refined_octant() -> Tree {
        let mut tree = Tree::new_uniform(1);
        tree.refine_balanced(NodeId::from_coords(1, [0, 0, 0]));
        tree
    }

    /// What one exchange leaves behind: every storage cell of every leaf
    /// (SFC order, as bits) and the route accounting.
    #[derive(Debug, PartialEq)]
    struct Exchanged {
        cells: Vec<u64>,
        direct_links: usize,
        local_direct_accesses: u64,
        parcels_sent: u64,
        parcel_bytes: u64,
    }

    fn exchanged(tree: Tree, localities: usize, direct: bool, pipelined: bool) -> Exchanged {
        let cluster = SimCluster::new(localities, 2);
        let dg = DistGrid::new(tree, 4, 2, 2, &cluster);
        fill_linear(&dg);
        let config = GhostConfig {
            direct_local_access: direct,
        };
        let direct_links = if pipelined {
            let ex = dg.exchange_ghosts_pipelined(&cluster, config, &all_ready(&dg));
            for f in ex.ghosts_filled.values().chain(ex.outgoing_packed.values()) {
                f.wait();
            }
            assert_eq!(ex.links_resolved.load(Ordering::SeqCst), ex.total_links);
            ex.direct_links
        } else {
            dg.exchange_ghosts(&cluster, config)
        };
        let mut cells = Vec::new();
        for leaf in dg.leaves() {
            let grid = dg.grid(leaf);
            let g = grid.read();
            for f in 0..g.nfields() {
                cells.extend(g.field(f).iter().map(|v| v.to_bits()));
            }
        }
        let totals = cluster.total_counters();
        cluster.shutdown();
        Exchanged {
            cells,
            direct_links,
            local_direct_accesses: totals.local_direct_accesses,
            parcels_sent: totals.parcels_sent,
            parcel_bytes: totals.parcel_bytes,
        }
    }

    #[test]
    fn every_route_and_scheduler_fills_identical_ghosts() {
        for tree in [|| Tree::new_uniform(2), one_refined_octant] {
            let links = ghost_link_specs(&tree());
            let payload_links = links.iter().filter(|l| !l.is_boundary()).count();
            let reference = exchanged(tree(), 1, true, false);
            for localities in [1, 2] {
                for direct in [true, false] {
                    let bulk = exchanged(tree(), localities, direct, false);
                    let pipelined = exchanged(tree(), localities, direct, true);
                    let case = format!(
                        "{} leaves, {localities} localities, direct {direct}",
                        links.len() / LINKS_PER_LEAF
                    );
                    assert!(bulk.cells == reference.cells, "bulk ghosts differ: {case}");
                    // Same cells and the same route accounting from both
                    // schedulers.
                    assert!(pipelined == bulk, "pipelined differs from bulk: {case}");
                    // Every payload link took exactly one of the two routes.
                    assert_eq!(
                        bulk.direct_links as u64, bulk.local_direct_accesses,
                        "{case}"
                    );
                    assert_eq!(
                        bulk.direct_links as u64 + bulk.parcels_sent,
                        payload_links as u64,
                        "{case}"
                    );
                    match (direct, localities) {
                        (false, _) => assert_eq!(bulk.direct_links, 0, "{case}"),
                        (true, 1) => assert_eq!(bulk.parcels_sent, 0, "{case}"),
                        (true, _) => {
                            assert!(bulk.direct_links > 0 && bulk.parcels_sent > 0, "{case}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_writes_every_face_word_and_no_edge_or_corner_word() {
        // A sentinel in every ghost word, then one exchange: every face word
        // is written (a same-level one with the linear field), every edge
        // and corner word keeps its sentinel, on every route and scheduler.
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0002);
        let (n, gw) = (4, 2);
        for localities in [1, 2] {
            for direct in [true, false] {
                for pipelined in [false, true] {
                    let case =
                        format!("{localities} localities, direct {direct}, pipelined {pipelined}");
                    let cluster = SimCluster::new(localities, 2);
                    let dg = DistGrid::new(one_refined_octant(), n, gw, 1, &cluster);
                    fill_linear(&dg);
                    for leaf in dg.leaves() {
                        let grid = dg.grid(leaf);
                        let mut g = grid.write();
                        for (start, len) in g.ghost_runs() {
                            g.field_mut(0)[start..start + len].fill(sentinel);
                        }
                    }
                    let config = GhostConfig {
                        direct_local_access: direct,
                    };
                    if pipelined {
                        let ex = dg.exchange_ghosts_pipelined(&cluster, config, &all_ready(&dg));
                        ex.ghosts_filled.values().for_each(hpx_rt::Future::wait);
                    } else {
                        dg.exchange_ghosts(&cluster, config);
                    }
                    for leaf in dg.leaves() {
                        let grid = dg.grid(leaf);
                        let g = grid.read();
                        let ext = g.ext();
                        for c in (0..ext).flat_map(|i| {
                            (0..ext).flat_map(move |j| (0..ext).map(move |k| [i, j, k]))
                        }) {
                            let v = g.get(0, c[0], c[1], c[2]);
                            let kept = v.to_bits() == sentinel.to_bits();
                            match outside_axes(c, n, gw) {
                                0 => assert!(!kept, "{case}: {leaf} interior {c:?}"),
                                1 => {
                                    assert!(!kept, "{case}: {leaf} face word {c:?} unwritten");
                                    let a = (0..3).position(|a| !(gw..gw + n).contains(&c[a]));
                                    let a = a.expect("one axis outside");
                                    let side = usize::from(c[a] >= gw + n);
                                    let dir = Dir::faces().nth(2 * a + side).expect("a face");
                                    let same = dg.with_tree(|t| {
                                        matches!(t.neighbor_of(leaf, dir), Neighbor::SameLevel(_))
                                    });
                                    if same {
                                        let expect = linear_at(leaf, c, n, gw);
                                        assert!(
                                            (v - expect).abs() < 1e-12,
                                            "{case}: {leaf} {c:?}: {v} != {expect}"
                                        );
                                    }
                                }
                                _ => assert!(kept, "{case}: {leaf} edge/corner word {c:?} written"),
                            }
                        }
                    }
                    cluster.shutdown();
                }
            }
        }
    }

    /// SplitMix64 stream mapped to `[-1, 1)`.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Every interior word of every field of every leaf (SFC order) from
    /// one seeded stream.
    fn fill_random(dg: &DistGrid, seed: u64) {
        let mut s = seed;
        let n = dg.n();
        for leaf in dg.leaves() {
            let grid = dg.grid(leaf);
            let mut g = grid.write();
            for f in 0..dg.nfields() {
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            g.set_interior(f, i, j, k, splitmix(&mut s));
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a over the bits of `words`, continuing from `hash`.
    fn fnv(hash: u64, words: impl IntoIterator<Item = f64>) -> u64 {
        words.into_iter().fold(hash, |h, w| {
            w.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn coarse_fine_transfers_keep_their_recorded_bits() {
        // One exchange (every face ghost word of every leaf), a refine of a
        // coarse leaf next to the refined octant (its eight children) and a
        // derefine of that octant (the parent), on a seeded random field.
        // The hashes were recorded before prolongation and restriction were
        // each written once; every route and locality count must give them.
        let (gw, nf) = (2, 3);
        for (n, pin) in [(4, 0x6f19_7b69_331e_f3f7), (8, 0x8694_1885_d72f_db4b)] {
            for localities in [1, 2] {
                for direct in [true, false] {
                    let case = format!("N={n}, {localities} localities, direct {direct}");
                    let cluster = SimCluster::new(localities, 2);
                    let dg = DistGrid::new(one_refined_octant(), n, gw, nf, &cluster);
                    fill_random(&dg, 0x5eed_0000 + n as u64);
                    let config = GhostConfig {
                        direct_local_access: direct,
                    };
                    dg.exchange_ghosts(&cluster, config);
                    let mut hash = 0xcbf2_9ce4_8422_2325;
                    for leaf in dg.leaves() {
                        let grid = dg.grid(leaf);
                        let g = grid.read();
                        let ext = g.ext();
                        for f in 0..nf {
                            for i in 0..ext {
                                for j in 0..ext {
                                    for k in 0..ext {
                                        if outside_axes([i, j, k], n, gw) == 1 {
                                            hash = fnv(hash, [g.get(f, i, j, k)]);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let coarse = NodeId::from_coords(1, [1, 0, 0]);
                    dg.refine_balanced(coarse);
                    for oct in Octant::all() {
                        let grid = dg.grid(coarse.child(oct));
                        let g = grid.read();
                        hash = (0..nf).fold(hash, |h, f| fnv(h, g.field(f).iter().copied()));
                    }
                    let refined = NodeId::from_coords(1, [0, 0, 0]);
                    assert!(dg.derefine(refined), "{case}: derefine refused");
                    let grid = dg.grid(refined);
                    let g = grid.read();
                    hash = (0..nf).fold(hash, |h, f| fnv(h, g.field(f).iter().copied()));
                    assert_eq!(hash, pin, "{case}: {hash:#018x}");
                    drop(g);
                    cluster.shutdown();
                }
            }
        }
    }

    #[test]
    fn ghost_plan_is_shared_until_the_next_regrid() {
        let cluster = SimCluster::new(2, 1);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 2, 3, &cluster);
        fill_linear(&dg);
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        let first = dg.plan();
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        assert!(
            Arc::ptr_eq(&first, &dg.plan()),
            "unchanged tree must reuse the plan"
        );
        // A refused collapse (the target is a leaf) leaves the topology,
        // and so the plan, alone.
        assert!(!dg.derefine(NodeId::from_coords(1, [0, 1, 0])));
        assert!(
            Arc::ptr_eq(&first, &dg.plan()),
            "a refused derefine must keep the plan"
        );

        dg.refine_balanced(NodeId::from_coords(1, [0, 1, 0]));
        // The plain accessors answer from the tree without building.
        let unbuilt = (dg.leaves(), dg.total_ghost_links(), dg.link_specs());
        let unbuilt_of = [0, 1].map(|loc| dg.leaves_of(LocalityId(loc)));
        assert!(dg.inner.plan.lock().is_none(), "accessors must not build");
        let plan = dg.plan();
        let built = (dg.leaves(), dg.total_ghost_links(), dg.link_specs());
        assert_eq!(unbuilt, built);
        assert_eq!(unbuilt_of, [0, 1].map(|loc| dg.leaves_of(LocalityId(loc))));
        assert!(
            !Arc::ptr_eq(&first, &plan),
            "a regrid must yield a new plan"
        );
        assert_eq!(plan.version, dg.topology_version());
        let specs = dg.with_tree(ghost_link_specs);
        assert!(plan.links.iter().map(|l| &l.spec).eq(&specs));
        assert_eq!(plan.leaves, dg.with_tree(|t| t.leaves()));
        for loc in [LocalityId(0), LocalityId(1)] {
            let owned: Vec<NodeId> = (plan.leaves.iter().copied())
                .filter(|&l| dg.owner(l) == loc)
                .collect();
            assert_eq!(dg.leaves_of(loc), owned);
        }
        let mut demand = BTreeMap::new();
        for spec in specs.iter().filter(|s| !s.is_boundary()) {
            let cells = SubGrid::box_cells(&SubGrid::recv_box_of(4, 2, spec.dir));
            let remote = spec
                .sources
                .iter()
                .any(|&s| dg.owner(s) != dg.owner(spec.leaf));
            demand.entry(3 * cells).or_insert([0usize; 2])[usize::from(remote)] += 1;
        }
        assert_eq!(plan.demand, demand);
        // The new plan serves the new tree: coarse-fine links included.
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        cluster.shutdown();
    }

    #[test]
    fn two_grids_on_one_cluster_keep_their_own_parcel_links() {
        // Every link on the parcel route, across two localities: the
        // cluster-global `ghost_pack` handler must serve each request from
        // the grid that sent it, not from whichever grid registered last.
        let cluster = SimCluster::new(2, 1);
        let first = DistGrid::new(Tree::new_uniform(1), 4, 2, 1, &cluster);
        fill_linear(&first);
        let second = DistGrid::new(Tree::new_uniform(1), 4, 2, 1, &cluster);
        for leaf in second.leaves() {
            second.grid(leaf).write().fill(-7.0);
        }
        let parcels_only = GhostConfig {
            direct_local_access: false,
        };
        first.exchange_ghosts(&cluster, parcels_only);
        check_same_level_ghosts(&first);
        for leaf in first.leaves() {
            let grid = first.grid(leaf);
            let g = grid.read();
            assert!(
                g.field(0).iter().all(|&v| v != -7.0),
                "leaf {leaf} holds the second grid's data"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn local_link_share_falls_with_locality_count() {
        // The geometric fact behind the paper's Figure 8 break-even: the
        // more localities a Morton partition is cut into, the fewer links
        // are eligible for the direct route.
        let mut prev = usize::MAX;
        for localities in [1usize, 2, 4, 8, 16] {
            let cluster = SimCluster::new(localities, 1);
            let dg = DistGrid::new(Tree::new_uniform(3), 2, 1, 1, &cluster);
            let plan = dg.plan();
            let local = (plan.links.iter())
                .filter(|l| !l.spec.is_boundary() && l.all_local)
                .count();
            assert!(
                local <= prev,
                "{localities} localities: {local} local links"
            );
            prev = local;
            cluster.shutdown();
        }
    }
}
