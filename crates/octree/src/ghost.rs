//! Distributed ghost-layer exchange with the Section VII-B communication
//! optimization.
//!
//! Before each solver stage every leaf fills its ghost shells from its 26
//! neighbours.  In HPX Octo-Tiger this is an action per (leaf, direction)
//! pair; the paper's optimization short-circuits pairs whose source lives
//! on the **same locality** to direct memory access, "avoiding HPX actions
//! and temporary communication buffers where possible", with promise/future
//! pairs guaranteeing the source is up to date.  Our exchange has the same
//! two paths:
//!
//! * **parcel path** — an action request/reply through the locality's
//!   parcelport (always used across localities, and also used locally when
//!   the optimization is off), metered in the locality counters;
//! * **direct path** — a read through the shared-memory grid handle,
//!   counted in `local_direct_accesses`.  The exchange's phase structure
//!   (all interiors are final before any ghost is read) plays the role of
//!   the paper's promise/future readiness notifications; the pipelined
//!   exchange makes them literal, one future chain per link.
//!
//! Level jumps are handled as in Octo-Tiger: data from a coarser neighbour
//! is prolonged (piecewise-constant), data from finer neighbours is
//! restricted (conservative 8-cell average).

use crate::index::{Dir, NodeId};
use crate::partition::partition_morton;
use crate::subgrid::SubGrid;
use crate::tree::{Neighbor, RegridDelta, Tree};
use hpx_rt::locality::{downcast_payload, ArcPayload};
use hpx_rt::{LocalityId, SimCluster};
use kokkos_rs::pool::{BufferPool, Recycled};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Request payload of the `ghost_pack` action.
struct GhostRequest {
    leaf: NodeId,
    dir: Dir,
}

/// One (leaf, direction) ghost link, classified: which source leaves the
/// link reads (several for a fine-from-coarse jump), or none at the domain
/// boundary (outflow reads the leaf's own interior).
///
/// This is the *single* classification both runtime exchanges
/// ([`DistGrid::exchange_ghosts`], [`DistGrid::exchange_ghosts_pipelined`])
/// and the `hpx-check` static future-DAG linter consume, so neither
/// executed exchange can drift from the analyzed graph.
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

/// Classify every (leaf, direction) ghost link of `tree`: 26 per leaf, in
/// `leaves() × Dir::all26()` order.
pub fn ghost_link_specs(tree: &Tree) -> Vec<LinkSpec> {
    tree.leaves()
        .into_iter()
        .flat_map(|leaf| Dir::all26().map(move |dir| (leaf, dir)))
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

struct DistGridInner {
    tree: RwLock<Tree>,
    owner: RwLock<HashMap<NodeId, LocalityId>>,
    grids: RwLock<HashMap<NodeId, Arc<RwLock<SubGrid>>>>,
    n: usize,
    ghost: usize,
    nfields: usize,
    /// Recycling arena every ghost payload is checked out of: after the
    /// first exchange warms it up, packing allocates nothing.
    pool: BufferPool<f64>,
    /// Cached per-bucket payload demand of the current topology
    /// (`topology_version` → `bucket → count`), patched leaf-locally from
    /// [`RegridDelta`]s instead of re-walked every exchange.  Counts are
    /// signed only because patch arithmetic may pass through transients;
    /// the settled demand is non-negative.
    payload_demand: parking_lot::Mutex<Option<(u64, HashMap<usize, i64>)>>,
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
    ///
    /// Registers the `ghost_pack` action on the cluster; at most one
    /// `DistGrid` should be active per cluster at a time.
    pub fn new(
        tree: Tree,
        n: usize,
        ghost: usize,
        nfields: usize,
        cluster: &SimCluster,
    ) -> DistGrid {
        let owner = partition_morton(&tree, cluster.num_localities());
        let grids: HashMap<NodeId, Arc<RwLock<SubGrid>>> = tree
            .leaves()
            .into_iter()
            .map(|leaf| (leaf, Arc::new(RwLock::new(SubGrid::new(n, ghost, nfields)))))
            .collect();
        let inner = Arc::new(DistGridInner {
            tree: RwLock::new(tree),
            owner: RwLock::new(owner),
            grids: RwLock::new(grids),
            n,
            ghost,
            nfields,
            pool: BufferPool::new(),
            payload_demand: parking_lot::Mutex::new(None),
        });
        let handler_inner = inner.clone();
        cluster.register_action("ghost_pack", move |arg, _loc| {
            let req = arg
                .downcast::<GhostRequest>()
                .expect("GhostRequest payload");
            let payload = compute_payload(&handler_inner, req.leaf, req.dir).unwrap_or_default();
            Box::new(payload)
        });
        DistGrid { inner }
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

    /// SFC-sorted leaves.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.inner.tree.read().leaves()
    }

    /// Run `f` with shared access to the tree.
    pub fn with_tree<R>(&self, f: impl FnOnce(&Tree) -> R) -> R {
        f(&self.inner.tree.read())
    }

    /// The tree's [`Tree::topology_version`]: unchanged between two calls
    /// ⇒ no regrid happened ⇒ cached traversal plans are still valid.
    pub fn topology_version(&self) -> u64 {
        self.inner.tree.read().topology_version()
    }

    /// Handle to a leaf's sub-grid.
    ///
    /// # Panics
    /// Panics if `id` has no grid.
    pub fn grid(&self, id: NodeId) -> Arc<RwLock<SubGrid>> {
        self.inner.grids.read()[&id].clone()
    }

    /// Owner locality of a leaf.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf of the grid.
    pub fn owner(&self, id: NodeId) -> LocalityId {
        self.inner.owner.read()[&id]
    }

    /// Leaves owned by `loc`, SFC-sorted.
    pub fn leaves_of(&self, loc: LocalityId) -> Vec<NodeId> {
        let owner = self.inner.owner.read();
        self.leaves()
            .into_iter()
            .filter(|l| owner[l] == loc)
            .collect()
    }

    /// Refine `leaf` (keeping 2:1 balance), prolonging its payload into the
    /// new children.  New children inherit the refined leaf's owner.
    pub fn refine_balanced(&self, leaf: NodeId) {
        let refined = self.inner.tree.write().refine_balanced(leaf);
        let mut grids = self.inner.grids.write();
        let mut owner = self.inner.owner.write();
        for r in refined {
            let parent_grid = grids.remove(&r).expect("refined leaf had a grid");
            let parent_owner = owner.remove(&r).expect("refined leaf had an owner");
            let parent = parent_grid.read();
            for oct in crate::index::Octant::all() {
                let child = r.child(oct);
                grids.insert(child, Arc::new(RwLock::new(parent.prolong_child(oct))));
                owner.insert(child, parent_owner);
            }
        }
    }

    /// Collapse the octet under `id` back into a leaf if 2:1 balance
    /// permits (the polite counterpart of [`DistGrid::derefine_balanced`],
    /// used by criterion-driven coarsening passes that must not drag
    /// still-wanted fine neighbours coarser).  Returns whether the
    /// collapse happened.
    pub fn derefine(&self, id: NodeId) -> bool {
        if !self.inner.tree.write().derefine(id) {
            return false;
        }
        self.collapse_payload(&[id]);
        true
    }

    /// Derefine the parent of `id`'s octet (keeping 2:1 balance), restricting
    /// the eight children's payloads into the collapsed parent by conservative
    /// averaging.  The parent inherits the first child's owner.
    pub fn derefine_balanced(&self, id: NodeId) {
        let collapsed = self.inner.tree.write().derefine_balanced(id);
        self.collapse_payload(&collapsed);
    }

    /// Restrict the eight children's payloads of each collapsed interior
    /// into a fresh parent grid and swap the grid/owner tables over.
    fn collapse_payload(&self, collapsed: &[NodeId]) {
        let mut grids = self.inner.grids.write();
        let mut owner = self.inner.owner.write();
        for &c in collapsed {
            let mut parent = SubGrid::new(self.inner.n, self.inner.ghost, self.inner.nfields);
            let mut parent_owner = None;
            for oct in crate::index::Octant::all() {
                let child = c.child(oct);
                let child_grid = grids.remove(&child).expect("collapsed child had a grid");
                let child_owner = owner.remove(&child).expect("collapsed child had an owner");
                parent.restrict_from_child(oct, &child_grid.read());
                parent_owner.get_or_insert(child_owner);
            }
            grids.insert(c, Arc::new(RwLock::new(parent)));
            owner.insert(c, parent_owner.expect("octet has eight children"));
        }
    }

    /// Drain the tree's accumulated [`RegridDelta`], patching the payload
    /// demand cache across it first so the next exchange's pool prewarm
    /// stays tree-walk-free.  The caller hands the delta on to whatever
    /// plan caches need invalidating (e.g. the gravity solver).
    pub fn take_regrid_delta(&self) -> RegridDelta {
        let delta = self.inner.tree.write().take_regrid_delta();
        self.patch_payload_demand(&delta);
        delta
    }

    /// One leaf's contribution to the payload-demand map: one buffer per
    /// non-boundary direction, bucketed by the receive box's element
    /// count.  Boundary-ness is a pure function of the leaf's coordinates
    /// (no tree access), which is what makes the demand patchable from a
    /// [`RegridDelta`] alone.
    fn fold_leaf_demand(&self, demand: &mut HashMap<usize, i64>, leaf: NodeId, sign: i64) {
        for dir in Dir::all26() {
            if leaf.neighbor(dir).is_none() {
                continue; // domain boundary: outflow, no payload
            }
            let cells =
                SubGrid::box_cells(&SubGrid::recv_box_of(self.inner.n, self.inner.ghost, dir));
            *demand.entry(self.inner.nfields * cells).or_default() += sign;
        }
    }

    /// Patch the cached payload demand across `delta` (leaf-locally: one
    /// refined leaf retracts its 26 links and adds its children's, a
    /// derefine the reverse) instead of invalidating it.  Falls back to
    /// dropping the cache when the delta does not span the cached version
    /// — the next exchange then re-walks the tree once.
    fn patch_payload_demand(&self, delta: &RegridDelta) {
        let mut guard = self.inner.payload_demand.lock();
        let Some((version, demand)) = guard.as_mut() else {
            return;
        };
        let current = self.inner.tree.read().topology_version();
        if *version == current {
            return;
        }
        if !delta.spans(*version, current) {
            *guard = None;
            return;
        }
        // Refine/derefine contributions are additive counts, so applying
        // the two op lists out of interleaving order nets the same map.
        for &id in &delta.refined {
            self.fold_leaf_demand(demand, id, -1);
            for oct in crate::index::Octant::all() {
                self.fold_leaf_demand(demand, id.child(oct), 1);
            }
        }
        for &id in &delta.derefined {
            for oct in crate::index::Octant::all() {
                self.fold_leaf_demand(demand, id.child(oct), -1);
            }
            self.fold_leaf_demand(demand, id, 1);
        }
        *version = current;
    }

    /// Top up the payload arena to this topology's exact per-bucket link
    /// demand (one buffer per non-boundary link, bucketed by the receive
    /// box's cell count) before an exchange fans out.
    ///
    /// Payloads are checked out both by this thread (direct links) and by
    /// the remote localities' parcel pumps (parcel links), so the pool
    /// population a warm-up exchange reaches depends on how those threads
    /// interleave — a later exchange with more overlap would still
    /// allocate.  Prewarming the peak demand makes the steady state
    /// allocation-free deterministically: after the first exchange the
    /// top-up is a no-op and every checkout is a hit.
    ///
    /// The demand map is cached per `topology_version` and patched
    /// leaf-locally across regrids ([`DistGrid::take_regrid_delta`]), so
    /// the steady state also stops re-walking the tree every exchange.
    fn prewarm_payload_pool(&self) {
        let mut guard = self.inner.payload_demand.lock();
        let current = self.inner.tree.read().topology_version();
        let demand = match guard.as_ref() {
            Some((version, demand)) if *version == current => demand,
            _ => {
                let mut demand: HashMap<usize, i64> = HashMap::new();
                for &leaf in &self.inner.tree.read().leaves() {
                    self.fold_leaf_demand(&mut demand, leaf, 1);
                }
                &guard.insert((current, demand)).1
            }
        };
        for (&bucket, &count) in demand {
            debug_assert!(count >= 0, "settled payload demand must be non-negative");
            if count > 0 {
                self.inner.pool.prewarm(bucket, count as usize);
            }
        }
    }

    /// Fill every leaf's ghost shells: interior data from neighbours
    /// (with prolongation/restriction across level jumps) and outflow
    /// extrapolation at the domain boundary.
    ///
    /// Returns the number of (leaf, direction) links that used the direct
    /// local path.
    pub fn exchange_ghosts(&self, cluster: &SimCluster, config: GhostConfig) -> usize {
        self.prewarm_payload_pool();
        let owner = self.inner.owner.read().clone();
        let mut direct_links = 0usize;

        // Phase 1: gather payloads (reads only — interiors are stable),
        // over the same link classification the pipelined exchange wires
        // and `hpx-check` lints, in the same `leaves × 26` order.
        // Each entry: (leaf, dir, payload or pending future).
        enum Pending {
            Data(Recycled<f64>),
            Remote(hpx_rt::Future<hpx_rt::locality::ArcPayload>),
            Boundary,
        }
        let mut pending: Vec<(NodeId, Dir, Pending)> = Vec::new();
        for LinkSpec { leaf, dir, sources } in self.link_specs() {
            let me = owner[&leaf];
            if sources.is_empty() {
                pending.push((leaf, dir, Pending::Boundary));
                continue;
            }
            let all_local = sources.iter().all(|s| owner[s] == me);
            if all_local && config.direct_local_access {
                cluster.locality(me.0).note_local_direct_access();
                direct_links += 1;
                let payload = compute_payload(&self.inner, leaf, dir)
                    .expect("non-boundary link must produce data");
                pending.push((leaf, dir, Pending::Data(payload)));
            } else {
                // Parcel path: ask the owner of the *first* source to
                // assemble the payload (it can read all grids — shared
                // memory under the simulation — but pays the parcel
                // metering that the cluster models charge).
                let dest = owner[&sources[0]];
                let bytes = {
                    let grids = self.inner.grids.read();
                    let g = grids[&leaf].read();
                    g.payload_bytes(dir.opposite())
                };
                hpx_rt::parcel_counters().note_send(hpx_rt::ParcelClass::Ghost, bytes as u64);
                let fut = cluster.locality(me.0).apply_async(
                    dest,
                    "ghost_pack",
                    Box::new(GhostRequest { leaf, dir }),
                    bytes,
                );
                pending.push((leaf, dir, Pending::Remote(fut)));
            }
        }

        // Phase 2: unpack into ghost shells (writes).
        for (leaf, dir, p) in pending {
            match p {
                Pending::Boundary => {
                    let grid = self.grid(leaf);
                    apply_outflow(&mut grid.write(), dir);
                }
                Pending::Data(data) => {
                    let grid = self.grid(leaf);
                    grid.write().unpack_recv(dir, &data);
                }
                Pending::Remote(fut) => {
                    let reply = fut.get();
                    let data = downcast_payload::<Recycled<f64>>(&reply)
                        .expect("ghost_pack returns a recycled buffer");
                    let grid = self.grid(leaf);
                    grid.write().unpack_recv(dir, data);
                }
            }
        }
        direct_links
    }

    /// Total (leaf, direction) ghost links of the current tree: every leaf
    /// has exactly 26 links (a link with several finer sources still counts
    /// once, and domain-boundary directions count as outflow links).
    pub fn total_ghost_links(&self) -> usize {
        self.leaves().len() * 26
    }

    /// Classify every ghost link of the current tree (see
    /// [`ghost_link_specs`]): the exact link set both exchanges serve.
    pub fn link_specs(&self) -> Vec<LinkSpec> {
        ghost_link_specs(&self.inner.tree.read())
    }

    /// Futurized ghost exchange: instead of a phase barrier, every
    /// (leaf, direction) link becomes its own future chain gated on the
    /// `ready` futures of exactly the source leaves it reads.
    ///
    /// `ready[l]` must complete when leaf `l`'s interior holds the data this
    /// exchange should see (for RK stage *s*, its stage-(s−1) update).  The
    /// returned handle carries, per leaf, a `ghosts_filled` future (all 26 of
    /// its ghost regions written — the gate for the leaf's next RHS kernel)
    /// and an `outgoing_packed` future (every link *reading* the leaf has
    /// packed its payload — the gate for overwriting the leaf's interior).
    /// Together they let interior leaves of the next stage run while slower
    /// neighbours are still exchanging: the paper's promise/future readiness
    /// notification made literal, with no copy of any packed buffer
    /// (`then_ref` consumes payloads in place).
    ///
    /// The per-link futures *are* the readiness notification.  This method
    /// only builds the graph; it never blocks.
    pub fn exchange_ghosts_pipelined(
        &self,
        cluster: &SimCluster,
        config: GhostConfig,
        ready: &HashMap<NodeId, hpx_rt::Future<()>>,
    ) -> PipelinedExchange {
        self.prewarm_payload_pool();
        let leaves = self.leaves();
        let owner = self.inner.owner.read().clone();

        // Classify all links first so no tree lock is held while futures are
        // wired (continuations re-acquire it from worker threads).  This is
        // the same classification `hpx-check`'s DAG linter analyzes.
        let links = self.link_specs();

        let links_resolved = Arc::new(AtomicUsize::new(0));
        let total_links = links.len();
        let mut direct_links = 0usize;
        let mut incoming: HashMap<NodeId, Vec<hpx_rt::Future<()>>> =
            leaves.iter().map(|&l| (l, Vec::new())).collect();
        let mut outgoing: HashMap<NodeId, Vec<hpx_rt::Future<()>>> =
            leaves.iter().map(|&l| (l, Vec::new())).collect();

        for LinkSpec { leaf, dir, sources } in links {
            let me = owner[&leaf];
            let rt_leaf = cluster.locality(me.0).runtime().clone();
            let grid = self.grid(leaf);
            let resolved = links_resolved.clone();
            if sources.is_empty() {
                // Outflow reads the leaf's own interior: gate on the
                // leaf itself.
                let unpacked = ready[&leaf].then(&rt_leaf, move |()| {
                    apply_outflow(&mut grid.write(), dir);
                    resolved.fetch_add(1, Ordering::Relaxed);
                });
                incoming.get_mut(&leaf).unwrap().push(unpacked);
            } else {
                let all_local = sources.iter().all(|s| owner[s] == me);
                let src_rt = cluster.locality(owner[&sources[0]].0).runtime().clone();
                let gate = if sources.len() == 1 {
                    ready[&sources[0]].clone()
                } else {
                    let parts: Vec<hpx_rt::Future<()>> =
                        sources.iter().map(|s| ready[s].clone()).collect();
                    hpx_rt::when_all_of(&src_rt, &parts)
                };
                // The link's payload future: packed as soon as all of its
                // *sources* are ready, on either the direct or parcel
                // path.  The unpack additionally gates on the destination
                // leaf's own readiness — its previous-stage combine
                // rewrites the whole array (ghost shells included), so a
                // ghost write landing before it would be clobbered.
                let unpacked = if all_local && config.direct_local_access {
                    direct_links += 1;
                    let inner = self.inner.clone();
                    let loc = cluster.locality(me.0).clone();
                    let payload = gate.then(&src_rt, move |()| {
                        loc.note_local_direct_access();
                        compute_payload(&inner, leaf, dir)
                            .expect("non-boundary link must produce data")
                    });
                    for s in &sources {
                        outgoing.get_mut(s).unwrap().push(payload.ticket());
                    }
                    let parts = [payload.ticket(), ready[&leaf].clone()];
                    hpx_rt::when_all_of(&rt_leaf, &parts).then(&rt_leaf, move |()| {
                        payload.with_value(|data| grid.write().unpack_recv(dir, data));
                        resolved.fetch_add(1, Ordering::Relaxed);
                    })
                } else {
                    let dest = owner[&sources[0]];
                    let bytes = {
                        let grids = self.inner.grids.read();
                        let g = grids[&leaf].read();
                        g.payload_bytes(dir.opposite())
                    };
                    let loc_me = cluster.locality(me.0).clone();
                    // The parcel is only *sent* once the gate resolves, so
                    // the remote pack handler observes stage-consistent
                    // sources; its reply is re-exposed as a plain future.
                    let (reply_p, reply_f) = hpx_rt::Promise::<ArcPayload>::new_pair();
                    gate.on_ready(move |_| {
                        hpx_rt::parcel_counters()
                            .note_send(hpx_rt::ParcelClass::Ghost, bytes as u64);
                        let f = loc_me.apply_async(
                            dest,
                            "ghost_pack",
                            Box::new(GhostRequest { leaf, dir }),
                            bytes,
                        );
                        f.on_ready(move |arc| reply_p.set(arc.clone()));
                    });
                    for s in &sources {
                        outgoing.get_mut(s).unwrap().push(reply_f.ticket());
                    }
                    let parts = [reply_f.ticket(), ready[&leaf].clone()];
                    hpx_rt::when_all_of(&rt_leaf, &parts).then(&rt_leaf, move |()| {
                        reply_f.with_value(|arc| {
                            let data = downcast_payload::<Recycled<f64>>(arc)
                                .expect("ghost_pack returns a recycled buffer");
                            grid.write().unpack_recv(dir, data);
                        });
                        resolved.fetch_add(1, Ordering::Relaxed);
                    })
                };
                incoming.get_mut(&leaf).unwrap().push(unpacked);
            }
        }

        let join = |map: HashMap<NodeId, Vec<hpx_rt::Future<()>>>| {
            map.into_iter()
                .map(|(l, futs)| {
                    let rt = cluster.locality(owner[&l].0).runtime();
                    (l, hpx_rt::when_all_of(rt, &futs))
                })
                .collect()
        };
        PipelinedExchange {
            ghosts_filled: join(incoming),
            outgoing_packed: join(outgoing),
            total_links,
            direct_links,
            links_resolved,
        }
    }
}

/// Handle to one in-flight [`DistGrid::exchange_ghosts_pipelined`] stage.
pub struct PipelinedExchange {
    /// Per leaf: completes once all 26 of its ghost regions are written.
    pub ghosts_filled: HashMap<NodeId, hpx_rt::Future<()>>,
    /// Per leaf: completes once every link reading this leaf's interior has
    /// packed its payload — the leaf's interior may be overwritten after.
    pub outgoing_packed: HashMap<NodeId, hpx_rt::Future<()>>,
    /// Number of (leaf, direction) links in the graph (= 26 × leaves).
    pub total_links: usize,
    /// Links eligible for the Section VII-B direct local path.
    pub direct_links: usize,
    /// Live count of links whose ghost data has been written; reaches
    /// `total_links` when the exchange has fully drained.  Sampled by the
    /// stepper to measure communication/compute overlap.
    pub links_resolved: Arc<AtomicUsize>,
}

/// Assemble the ghost payload `leaf` needs from direction `dir`, in the
/// element order expected by `SubGrid::unpack_recv(dir, ..)`, in a buffer
/// checked out of the grid's recycling arena.  `None` at the domain
/// boundary.
fn compute_payload(inner: &DistGridInner, leaf: NodeId, dir: Dir) -> Option<Recycled<f64>> {
    let tree = inner.tree.read();
    let grids = inner.grids.read();
    // Every case produces exactly the destination ghost region's cell count
    // per field, so the checkout capacity is exact and the bucket is stable
    // per direction class.
    let cells = SubGrid::box_cells(&SubGrid::recv_box_of(inner.n, inner.ghost, dir));
    match tree.neighbor_of(leaf, dir) {
        Neighbor::SameLevel(nb) => {
            let mut out = inner.pool.checkout_empty(inner.nfields * cells);
            grids[&nb].read().pack_send_into(dir.opposite(), &mut out);
            Some(out)
        }
        Neighbor::Coarser(c) => {
            let mut out = inner.pool.checkout_empty(inner.nfields * cells);
            let coarse = grids[&c].read();
            pack_prolonged(&coarse, c, leaf, dir, inner.n, inner.ghost, &mut out);
            Some(out)
        }
        Neighbor::Finer(kids) => {
            let mut out = inner.pool.checkout_empty(inner.nfields * cells);
            let kid_grids: HashMap<NodeId, Arc<RwLock<SubGrid>>> =
                kids.iter().map(|k| (*k, grids[k].clone())).collect();
            pack_restricted(
                &kid_grids,
                leaf,
                dir,
                inner.n,
                inner.ghost,
                inner.nfields,
                &mut out,
            );
            Some(out)
        }
        Neighbor::DomainBoundary => None,
    }
}

/// Fill the ghost region toward `dir` by copying the nearest interior layer
/// (zero-gradient outflow, Octo-Tiger's outer boundary condition).
pub fn apply_outflow(grid: &mut SubGrid, dir: Dir) {
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

/// Floor division of possibly-negative global indices.
#[inline]
fn div_floor(a: i64, b: i64) -> i64 {
    a.div_euclid(b)
}

/// Payload for a fine leaf whose neighbour in `dir` is one level coarser:
/// piecewise-constant prolongation of the coarse interior onto the fine
/// ghost region, pushed into `out` (cleared first).
#[allow(clippy::too_many_arguments)]
fn pack_prolonged(
    coarse: &SubGrid,
    coarse_id: NodeId,
    fine_id: NodeId,
    dir: Dir,
    n: usize,
    ghost: usize,
    out: &mut Vec<f64>,
) {
    let fine_coords = fine_id.coords();
    let coarse_coords = coarse_id.coords();
    // Shape of the fine ghost region (same as recv_box of the fine grid).
    let b = SubGrid::recv_box_of(n, ghost, dir);
    out.clear();
    let ni = n as i64;
    let gi = ghost as i64;
    for f in 0..coarse.nfields() {
        for i in b[0].0..b[0].1 {
            for j in b[1].0..b[1].1 {
                for k in b[2].0..b[2].1 {
                    let s = [i as i64, j as i64, k as i64];
                    let mut lc = [0usize; 3];
                    for a in 0..3 {
                        // Global fine index of this ghost cell.
                        let gf = i64::from(fine_coords[a]) * ni + s[a] - gi;
                        // Enclosing global coarse cell.
                        let gc = div_floor(gf, 2);
                        // Local storage index within the coarse grid.
                        let l = gc - i64::from(coarse_coords[a]) * ni + gi;
                        debug_assert!(
                            (0..(ni + 2 * gi)).contains(&l),
                            "prolongation index out of range"
                        );
                        lc[a] = l as usize;
                    }
                    out.push(coarse.get(f, lc[0], lc[1], lc[2]));
                }
            }
        }
    }
}

/// Payload for a coarse leaf whose same-level neighbour in `dir` is refined:
/// conservative 8-cell average of the fine children's interiors onto the
/// coarse ghost region, pushed into `out` (cleared first).
#[allow(clippy::too_many_arguments)]
fn pack_restricted(
    kids: &HashMap<NodeId, Arc<RwLock<SubGrid>>>,
    coarse_id: NodeId,
    dir: Dir,
    n: usize,
    ghost: usize,
    nfields: usize,
    out: &mut Vec<f64>,
) {
    let coarse_coords = coarse_id.coords();
    let b = SubGrid::recv_box_of(n, ghost, dir);
    out.clear();
    let ni = n as i64;
    let gi = ghost as i64;
    // Lock each child once.
    let locked: HashMap<NodeId, parking_lot::RwLockReadGuard<'_, SubGrid>> =
        kids.iter().map(|(id, g)| (*id, g.read())).collect();
    for f in 0..nfields {
        for i in b[0].0..b[0].1 {
            for j in b[1].0..b[1].1 {
                for k in b[2].0..b[2].1 {
                    let s = [i as i64, j as i64, k as i64];
                    // Global coarse cell of this ghost cell.
                    let mut gc = [0i64; 3];
                    for a in 0..3 {
                        gc[a] = i64::from(coarse_coords[a]) * ni + s[a] - gi;
                    }
                    // Average the 2×2×2 fine cells it covers.
                    let mut acc = 0.0;
                    for di in 0..2i64 {
                        for dj in 0..2i64 {
                            for dk in 0..2i64 {
                                let gf = [2 * gc[0] + di, 2 * gc[1] + dj, 2 * gc[2] + dk];
                                // Which fine leaf holds this cell?
                                let leaf_coords = [
                                    div_floor(gf[0], ni),
                                    div_floor(gf[1], ni),
                                    div_floor(gf[2], ni),
                                ];
                                let fine_level = coarse_id.level() + 1;
                                let fid = NodeId::from_coords(
                                    fine_level,
                                    [
                                        leaf_coords[0] as u32,
                                        leaf_coords[1] as u32,
                                        leaf_coords[2] as u32,
                                    ],
                                );
                                let grid = locked
                                    .get(&fid)
                                    .unwrap_or_else(|| panic!("restriction source {fid} missing"));
                                let li = (gf[0] - leaf_coords[0] * ni + gi) as usize;
                                let lj = (gf[1] - leaf_coords[1] * ni + gi) as usize;
                                let lk = (gf[2] - leaf_coords[2] * ni + gi) as usize;
                                acc += grid.get(f, li, lj, lk);
                            }
                        }
                    }
                    out.push(acc / 8.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill every leaf with a globally smooth linear field so ghost values
    /// are predictable: field value = physical x + 10 y + 100 z at the cell
    /// center.
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
                        g.set_interior(0, i, j, k, x + 10.0 * y + 100.0 * z);
                    }
                }
            }
        }
    }

    fn check_same_level_ghosts(dg: &DistGrid) {
        // After exchange, for same-level interior-adjacent leaves the ghost
        // cells must equal the linear field evaluated at the ghost cell
        // centers.
        for leaf in dg.leaves() {
            let (corner, size) = leaf.cube();
            let n = dg.n();
            let gw = dg.ghost_width();
            let h = size / n as f64;
            let tree_ok = dg.with_tree(|t| {
                Dir::all26().all(|d| {
                    !matches!(t.neighbor_of(leaf, d), Neighbor::DomainBoundary)
                        && matches!(t.neighbor_of(leaf, d), Neighbor::SameLevel(_))
                })
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
                        let x = corner[0] + (i as f64 - gw as f64 + 0.5) * h;
                        let y = corner[1] + (j as f64 - gw as f64 + 0.5) * h;
                        let z = corner[2] + (k as f64 - gw as f64 + 0.5) * h;
                        let expect = x + 10.0 * y + 100.0 * z;
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
    fn uniform_exchange_parcel_path_matches_direct() {
        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let direct = dg.exchange_ghosts(
            &cluster,
            GhostConfig {
                direct_local_access: false,
            },
        );
        assert_eq!(direct, 0, "optimization off: no direct links");
        check_same_level_ghosts(&dg);
        // Every link went through parcels.
        let totals = cluster.total_counters();
        assert!(totals.parcels_sent > 0);
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
        cluster.shutdown();
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
        for oct in crate::index::Octant::all() {
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
        dg.derefine_balanced(target);
        // Round trip: the collapsed parent reproduces the linear field
        // exactly (prolongation is piecewise constant, restriction averages
        // the 8 copies back) and keeps the octet's owner.
        assert_eq!(dg.owner(target), owner_before);
        let sum_after = dg.grid(target).read().interior_sum(0);
        assert!((sum_after - sum_before).abs() < 1e-9);
        assert!(dg.leaves().contains(&target));
        for oct in crate::index::Octant::all() {
            assert!(!dg.leaves().contains(&target.child(oct)));
        }
        cluster.shutdown();
    }

    /// Full-walk payload demand, the reference the patched cache must match.
    fn walked_demand(dg: &DistGrid) -> HashMap<usize, i64> {
        let mut demand = HashMap::new();
        for leaf in dg.leaves() {
            dg.fold_leaf_demand(&mut demand, leaf, 1);
        }
        demand.retain(|_, c| *c != 0);
        demand
    }

    #[test]
    fn payload_demand_cache_patches_across_regrids() {
        let cluster = SimCluster::new(1, 1);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 3, &cluster);
        fill_linear(&dg);
        dg.take_regrid_delta(); // drain the seed delta
        dg.exchange_ghosts(&cluster, GhostConfig::default()); // populates the cache

        // A mixed episode: refine one corner, round-trip another so the
        // patch exercises both the refine and derefine arithmetic.
        dg.refine_balanced(NodeId::from_coords(2, [0, 0, 0]));
        dg.refine_balanced(NodeId::from_coords(2, [3, 3, 3]));
        dg.derefine_balanced(NodeId::from_coords(2, [3, 3, 3]));
        let delta = dg.take_regrid_delta(); // patches the cache leaf-locally
        assert!(!delta.is_empty());

        let cached = {
            let guard = dg.inner.payload_demand.lock();
            let (version, demand) = guard.as_ref().expect("cache survived the patch");
            assert_eq!(*version, dg.topology_version());
            let mut demand = demand.clone();
            demand.retain(|_, c| *c != 0);
            demand
        };
        assert_eq!(cached, walked_demand(&dg));

        // And the next exchange runs off the patched cache without panicking.
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        cluster.shutdown();
    }

    #[test]
    fn unseen_regrid_invalidates_payload_demand_cache() {
        let cluster = SimCluster::new(1, 1);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 2, 1, &cluster);
        fill_linear(&dg);
        dg.take_regrid_delta();
        dg.exchange_ghosts(&cluster, GhostConfig::default());

        // Regrid, then prewarm again WITHOUT draining: the cache version is
        // stale, so the walk refreshes it in place.
        dg.refine_balanced(NodeId::from_coords(1, [0, 1, 0]));
        dg.exchange_ghosts(&cluster, GhostConfig::default());
        {
            let guard = dg.inner.payload_demand.lock();
            let (version, demand) = guard.as_ref().expect("walk refreshed the cache");
            assert_eq!(*version, dg.topology_version());
            let mut demand = demand.clone();
            demand.retain(|_, c| *c != 0);
            assert_eq!(demand, walked_demand(&dg));
        }

        // The pending delta no longer spans the cached (current) version's
        // start, but versions now match, so draining keeps the cache.
        dg.take_regrid_delta();
        assert!(dg.inner.payload_demand.lock().is_some());
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
    fn pipelined_direct_link_accounting_matches_barrier_path() {
        // Same tree and partition on two clusters; the pipelined exchange
        // must classify exactly the same links as direct-local, and its
        // direct-access counters must match the barrier path's.
        let barrier_cluster = SimCluster::new(2, 2);
        let barrier_dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &barrier_cluster);
        fill_linear(&barrier_dg);
        let barrier_direct = barrier_dg.exchange_ghosts(&barrier_cluster, GhostConfig::default());

        let cluster = SimCluster::new(2, 2);
        let dg = DistGrid::new(Tree::new_uniform(2), 4, 2, 1, &cluster);
        fill_linear(&dg);
        let ex = dg.exchange_ghosts_pipelined(&cluster, GhostConfig::default(), &all_ready(&dg));
        for f in ex.ghosts_filled.values() {
            f.wait();
        }
        assert_eq!(ex.direct_links, barrier_direct);
        let direct_ctr = cluster.total_counters().local_direct_accesses;
        let barrier_ctr = barrier_cluster.total_counters().local_direct_accesses;
        assert_eq!(direct_ctr, barrier_ctr);

        // And the resulting fields are identical, cell for cell.
        for leaf in dg.leaves() {
            let a = dg.grid(leaf);
            let b = barrier_dg.grid(leaf);
            let (a, b) = (a.read(), b.read());
            let ext = a.ext();
            for i in 0..ext {
                for j in 0..ext {
                    for k in 0..ext {
                        assert_eq!(a.get(0, i, j, k), b.get(0, i, j, k), "leaf {leaf}");
                    }
                }
            }
        }
        cluster.shutdown();
        barrier_cluster.shutdown();
    }

    #[test]
    fn pipelined_exchange_gates_on_source_readiness() {
        let cluster = SimCluster::new(1, 2);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 1, 1, &cluster);
        fill_linear(&dg);
        let leaves = dg.leaves();
        // Hold back one leaf: at level 1 all eight leaves touch at the
        // domain center, so every other leaf reads it.
        let held = leaves[0];
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
        std::thread::sleep(std::time::Duration::from_millis(30));
        for &l in &leaves {
            assert!(
                !ex.ghosts_filled[&l].is_ready(),
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
        // A parcel reply's last reference can be dropped on the remote
        // pump's worker thread, so the final return may land a beat after
        // the exchange itself completes: poll for it instead of sampling
        // once.
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

    #[test]
    fn direct_link_count_matches_partition_locality() {
        let cluster = SimCluster::new(1, 1);
        let dg = DistGrid::new(Tree::new_uniform(1), 4, 1, 1, &cluster);
        fill_linear(&dg);
        let direct = dg.exchange_ghosts(&cluster, GhostConfig::default());
        // Single locality: every non-boundary link is direct.
        let expected: usize = dg.with_tree(|t| {
            t.leaves()
                .iter()
                .map(|&l| {
                    Dir::all26()
                        .filter(|&d| !matches!(t.neighbor_of(l, d), Neighbor::DomainBoundary))
                        .count()
                })
                .sum()
        });
        assert_eq!(direct, expected);
        assert_eq!(cluster.total_counters().parcels_sent, 0);
        cluster.shutdown();
    }
}
