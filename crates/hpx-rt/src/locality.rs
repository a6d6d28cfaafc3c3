//! Localities, actions, and parcels — HPX's distributed layer, simulated
//! in-process.
//!
//! A real Octo-Tiger run places one HPX *locality* (process) per compute
//! node; octree sub-grids are distributed over localities, and neighbour
//! ghost-layer exchanges and FMM traversals happen via *actions* (remote
//! procedure calls) carried by *parcels*.  We have no Fugaku, so localities
//! here are N logical processes inside one OS process, each with its own
//! task pool, connected by an in-process transport that **meters every
//! parcel** (count + bytes) — the measurements behind the Section VII-B
//! communication-optimization experiment (Figure 8).
//!
//! Per DESIGN.md, this substitution preserves what the paper measures: the
//! *structure* of communication (which exchanges cross locality boundaries,
//! how many messages, how many bytes) is identical; only the wire is
//! simulated.  The `cluster` crate maps metered traffic onto interconnect
//! models (Tofu-D vs. InfiniBand) to recover time.

use crate::counters::Counters;
use crate::future::{Future, Promise};
use crate::runtime::Runtime;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

/// Identifier of a logical locality (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalityId(pub usize);

impl std::fmt::Display for LocalityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "locality#{}", self.0)
    }
}

/// Untyped action payload.  In-process we pass `Box<dyn Any>` instead of
/// serialized bytes; the declared `size_bytes` stands in for the wire size
/// (used by counters and by the cluster-level interconnect models).
pub type Payload = Box<dyn Any + Send>;

/// An action handler: runs on the destination locality's task pool.
pub(crate) type Handler = Arc<dyn Fn(Payload, &Locality) -> Payload + Send + Sync>;

/// Registry of named actions, shared by all localities of a cluster
/// (HPX registers actions globally at static-init time; we register at
/// cluster construction).
#[derive(Default)]
pub(crate) struct ActionRegistry {
    handlers: RwLock<HashMap<&'static str, Handler>>,
}

impl ActionRegistry {
    /// Register `name`; replaces any previous handler with that name.
    pub(crate) fn register(
        &self,
        name: &'static str,
        handler: impl Fn(Payload, &Locality) -> Payload + Send + Sync + 'static,
    ) {
        self.handlers.write().insert(name, Arc::new(handler));
    }

    fn lookup(&self, name: &str) -> Option<Handler> {
        self.handlers.read().get(name).cloned()
    }
}

/// Results are shared (futures are cloneable), so the payload crosses the
/// reply path behind an `Arc`.
pub type ArcPayload = Arc<dyn Any + Send + Sync>;

/// One logical HPX locality: a task pool plus a parcel port.
pub struct Locality {
    id: LocalityId,
    runtime: Runtime,
    registry: Arc<ActionRegistry>,
    /// Every locality of the cluster, this one included, by id; set once
    /// when the cluster is built.  Weak, so the localities do not keep
    /// each other alive.
    peers: OnceLock<Vec<Weak<Locality>>>,
    counters: Counters,
}

impl Locality {
    /// This locality's id.
    pub fn id(&self) -> LocalityId {
        self.id
    }

    /// The task pool of this locality.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Parcel/task counters of this locality.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Invoke `action` on locality `dest` with `arg` (declared wire size
    /// `size_bytes`); returns a future for the handler's boxed result.
    ///
    /// The parcel is delivered by spawning the handler as a task on the
    /// destination's runtime; that task answers through the future.  A
    /// same-locality destination still takes the full parcel path — the
    /// *communication optimization* of the paper's Section VII-B is
    /// implemented above this layer (in `octree::ghost`) precisely because
    /// short-circuiting is an application-level decision there.
    ///
    /// # Panics
    /// Panics, before anything is counted, if `action` is not registered
    /// or `dest` is not a live locality of this cluster.
    pub fn apply_async(
        &self,
        dest: LocalityId,
        action: &'static str,
        arg: Payload,
        size_bytes: usize,
    ) -> Future<ArcPayload> {
        let handler = (self.registry.lookup(action))
            .unwrap_or_else(|| panic!("unregistered action '{action}'"));
        let peer = (self.peers.get().and_then(|peers| peers.get(dest.0)))
            .unwrap_or_else(|| panic!("unknown destination {dest}"))
            .upgrade()
            .unwrap_or_else(|| panic!("destination {dest} has shut down"));
        let (reply, future) = Promise::new_pair();
        Counters::bump(&self.counters.parcels_sent);
        Counters::add(&self.counters.parcel_bytes, size_bytes as u64);
        Counters::bump(&self.counters.futures_created);
        let runtime = peer.runtime.clone();
        runtime.spawn(move || {
            let result = handler(arg, &peer);
            // Box<dyn Any + Send> -> Arc<dyn Any + Send + Sync>: handlers
            // return plain data; require Sync via a wrapper box.
            let arc: ArcPayload = Arc::new(SendBox(result));
            reply.set(arc);
        });
        future
    }

    /// Record a remote-access that was satisfied by direct memory access on
    /// this locality (the Section VII-B optimization's fast path).
    pub fn note_local_direct_access(&self) {
        Counters::bump(&self.counters.local_direct_accesses);
    }
}

/// A simulated cluster: `n` localities, each with its own task pool.
/// Parcels travel as tasks spawned on the destination's pool, so the
/// cluster runs no threads beyond the pools' workers.
pub struct SimCluster {
    localities: Vec<Arc<Locality>>,
    registry: Arc<ActionRegistry>,
}

impl SimCluster {
    /// Build a cluster of `n` localities with `workers` task workers each.
    pub fn new(n: usize, workers: usize) -> Self {
        Self::from_runtimes((0..n).map(|_| Runtime::new(workers)).collect())
    }

    /// Build a cluster with one locality per runtime, locality `i` running
    /// its tasks on `runtimes[i]`.  The runtimes may be clones of one pool:
    /// `vec![Runtime::deterministic(seed); n]` puts every locality, and
    /// every parcel between them, on one seeded schedule, so a model
    /// checker can drive the real distributed program.
    pub fn from_runtimes(runtimes: Vec<Runtime>) -> Self {
        assert!(
            !runtimes.is_empty(),
            "a cluster needs at least one locality"
        );
        let registry = Arc::new(ActionRegistry::default());
        let localities: Vec<Arc<Locality>> = (runtimes.into_iter().enumerate())
            .map(|(i, runtime)| {
                Arc::new(Locality {
                    id: LocalityId(i),
                    runtime,
                    registry: registry.clone(),
                    peers: OnceLock::new(),
                    counters: Counters::new(),
                })
            })
            .collect();
        let peers: Vec<Weak<Locality>> = localities.iter().map(Arc::downgrade).collect();
        for loc in &localities {
            let _ = loc.peers.set(peers.clone());
        }
        SimCluster {
            localities,
            registry,
        }
    }

    /// Number of localities.
    pub fn num_localities(&self) -> usize {
        self.localities.len()
    }

    /// Locality `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn locality(&self, i: usize) -> &Arc<Locality> {
        &self.localities[i]
    }

    /// All localities.
    pub fn localities(&self) -> &[Arc<Locality>] {
        &self.localities
    }

    /// Register an action on every locality of this cluster.
    pub fn register_action(
        &self,
        name: &'static str,
        handler: impl Fn(Payload, &Locality) -> Payload + Send + Sync + 'static,
    ) {
        self.registry.register(name, handler);
    }

    /// Aggregate counter snapshot of the cluster: every locality's
    /// parcel-port block plus every distinct runtime's block, each added
    /// once — a pool shared by several localities
    /// ([`SimCluster::from_runtimes`]) counts its events once.
    pub fn total_counters(&self) -> crate::counters::CountersSnapshot {
        let mut pools: Vec<&Runtime> = Vec::new();
        for loc in &self.localities {
            if !pools.iter().any(|rt| rt.same_pool(&loc.runtime)) {
                pools.push(&loc.runtime);
            }
        }
        let ports = self.localities.iter().map(|loc| loc.counters().snapshot());
        let pools = pools.into_iter().map(|rt| rt.counters().snapshot());
        ports
            .chain(pools)
            .fold(Default::default(), |sum, s| sum + s)
    }

    /// Every locality's counters by HPX-style instance name
    /// (`/threads{locality#1}/count/stolen`, …): the locality's parcel-port
    /// block and its runtime's block, added name by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for loc in &self.localities {
            let instance = format!("locality#{}", loc.id.0);
            let port = loc.counters.snapshot().entries();
            let pool = loc.runtime.counters().snapshot().entries();
            for ((name, a), (_, b)) in port.into_iter().zip(pool) {
                out.push((crate::counters::instance_name(name, &instance), a + b));
            }
        }
        out
    }

    /// Stop every locality's runtime (a pool shared by several localities
    /// is stopped once and the rest are no-ops).
    pub fn shutdown(self) {
        for loc in &self.localities {
            loc.runtime().shutdown();
        }
    }
}

/// Wrapper making a `Box<dyn Any + Send>` payload shareable behind an `Arc`.
/// Downcast with [`downcast_payload`].
pub(crate) struct SendBox(pub Payload);

// SAFETY: the inner payload is only ever accessed by value-consuming
// `downcast` or by shared reference; `SendBox` exposes no interior
// mutability, so `Sync` requires only `Send` of the payload (guaranteed).
unsafe impl Sync for SendBox {}

/// Downcast an action-reply payload to its concrete type.
///
/// Returns `None` if the type does not match.
pub fn downcast_payload<T: 'static>(payload: &ArcPayload) -> Option<&T> {
    payload
        .downcast_ref::<SendBox>()
        .and_then(|sb| sb.0.downcast_ref::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn action_roundtrip_with_typed_payload() {
        let cluster = SimCluster::new(3, 1);
        cluster.register_action("double", |arg, _loc| {
            let x = *arg.downcast::<u64>().expect("want u64");
            Box::new(x * 2)
        });
        let f = cluster
            .locality(0)
            .apply_async(LocalityId(2), "double", Box::new(21u64), 8);
        let reply = f.get();
        assert_eq!(*downcast_payload::<u64>(&reply).unwrap(), 42);
        cluster.shutdown();
    }

    #[test]
    fn parcels_are_metered() {
        let cluster = SimCluster::new(2, 1);
        cluster.register_action("noop", |_arg, _loc| Box::new(()));
        for _ in 0..5 {
            cluster
                .locality(0)
                .apply_async(LocalityId(1), "noop", Box::new(()), 100)
                .wait();
        }
        let s = cluster.locality(0).counters().snapshot();
        assert_eq!(s.parcels_sent, 5);
        assert_eq!(s.parcel_bytes, 500);
        cluster.shutdown();
    }

    #[test]
    fn handler_runs_on_destination_locality() {
        let cluster = SimCluster::new(2, 1);
        cluster.register_action("whoami", |_arg, loc| Box::new(loc.id().0));
        let f = cluster
            .locality(0)
            .apply_async(LocalityId(1), "whoami", Box::new(()), 0);
        let reply = f.get();
        assert_eq!(*downcast_payload::<usize>(&reply).unwrap(), 1);
        cluster.shutdown();
    }

    #[test]
    fn self_send_works() {
        let cluster = SimCluster::new(1, 1);
        cluster.register_action("inc", |arg, _| {
            Box::new(*arg.downcast::<i32>().unwrap() + 1)
        });
        let f = cluster
            .locality(0)
            .apply_async(LocalityId(0), "inc", Box::new(1i32), 4);
        assert_eq!(*downcast_payload::<i32>(&f.get()).unwrap(), 2);
        cluster.shutdown();
    }

    #[test]
    fn many_concurrent_actions() {
        let cluster = SimCluster::new(4, 2);
        cluster.register_action("sq", |arg, _| {
            let x = *arg.downcast::<u64>().unwrap();
            Box::new(x * x)
        });
        let futures: Vec<_> = (0..64u64)
            .map(|i| {
                cluster.locality((i % 4) as usize).apply_async(
                    LocalityId(((i + 1) % 4) as usize),
                    "sq",
                    Box::new(i),
                    8,
                )
            })
            .collect();
        for (i, f) in futures.iter().enumerate() {
            let reply = f.get();
            assert_eq!(*downcast_payload::<u64>(&reply).unwrap(), (i * i) as u64);
        }
        cluster.shutdown();
    }

    #[test]
    fn unregistered_action_panics_at_the_sender_and_the_cluster_still_delivers() {
        let cluster = SimCluster::new(2, 1);
        cluster.register_action("ping", |_arg, loc| Box::new(loc.id().0));
        let send = |dest, action| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                cluster
                    .locality(0)
                    .apply_async(LocalityId(dest), action, Box::new(()), 8)
            }))
            .map(|_| ())
            .expect_err("the send must panic")
        };
        let message = |panic: Box<dyn Any + Send>| *panic.downcast::<String>().unwrap();
        assert_eq!(message(send(1, "x")), "unregistered action 'x'");
        assert_eq!(message(send(2, "ping")), "unknown destination locality#2");
        assert_eq!(cluster.locality(0).counters().snapshot().parcels_sent, 0);
        let reply = cluster
            .locality(0)
            .apply_async(LocalityId(1), "ping", Box::new(()), 8)
            .get();
        assert_eq!(*downcast_payload::<usize>(&reply).unwrap(), 1);
        cluster.shutdown();
    }

    #[test]
    fn localities_sharing_one_deterministic_pool_deliver_on_every_seed() {
        for n in [2, 4] {
            for seed in 1..=16 {
                let rt = Runtime::deterministic(seed);
                let cluster = SimCluster::from_runtimes(vec![rt.clone(); n]);
                cluster.register_action("ping", |arg, loc| {
                    Box::new(*arg.downcast::<usize>().unwrap() * 10 + loc.id().0)
                });
                rt.enter(|| {
                    let replies: Vec<_> = (0..n)
                        .map(|i| {
                            cluster.locality(i).apply_async(
                                LocalityId((i + 1) % n),
                                "ping",
                                Box::new(i),
                                8,
                            )
                        })
                        .collect();
                    for (i, reply) in replies.iter().enumerate() {
                        let got = *downcast_payload::<usize>(&reply.get()).unwrap();
                        assert_eq!(got, i * 10 + (i + 1) % n, "n = {n}, seed {seed}");
                    }
                });
                assert_eq!(cluster.total_counters().parcels_sent, n as u64);
                cluster.shutdown();
            }
        }
    }

    /// `n` futures from `async_call` on `rt`, all awaited.
    fn await_calls(rt: &Runtime, n: usize) {
        rt.enter(|| {
            let calls: Vec<_> = (0..n).map(|i| rt.async_call(move || i)).collect();
            for (i, f) in calls.into_iter().enumerate() {
                assert_eq!(f.get(), i);
            }
        });
    }

    #[test]
    fn total_counters_adds_a_shared_pool_once() {
        let rt = Runtime::deterministic(1);
        let cluster = SimCluster::from_runtimes(vec![rt.clone(); 2]);
        await_calls(&rt, 5);
        let total = cluster.total_counters();
        assert_eq!(total.tasks_spawned, 5);
        assert_eq!(total.tasks_executed, 5);
        assert_eq!(total.futures_created, 5);
        assert_eq!(
            total,
            cluster.locality(0).counters().snapshot() + rt.counters().snapshot()
        );
        cluster.shutdown();
    }

    #[test]
    fn total_counters_sums_every_field_of_every_block() {
        let pools = [Runtime::deterministic(1), Runtime::deterministic(2)];
        let cluster = SimCluster::from_runtimes(pools.to_vec());
        await_calls(&pools[0], 3);
        await_calls(&pools[1], 4);
        Counters::bump(&pools[1].counters().watchdog_fires);
        cluster.locality(1).note_local_direct_access();
        let total = cluster.total_counters();
        assert_eq!(total.futures_created, 7);
        assert_eq!(total.watchdog_fires, 1);
        assert_eq!(total.local_direct_accesses, 1);
        let blocks: Vec<_> = (cluster.localities().iter())
            .flat_map(|loc| [loc.counters(), loc.runtime().counters()])
            .map(|block| block.snapshot().entries())
            .collect();
        for (i, (name, value)) in total.entries().into_iter().enumerate() {
            let sum: u64 = blocks.iter().map(|entries| entries[i].1).sum();
            assert_eq!(value, sum, "{name}");
        }
        cluster.shutdown();
    }

    #[test]
    fn local_direct_access_counter() {
        let cluster = SimCluster::new(1, 1);
        cluster.locality(0).note_local_direct_access();
        cluster.locality(0).note_local_direct_access();
        assert_eq!(
            cluster
                .locality(0)
                .counters()
                .snapshot()
                .local_direct_accesses,
            2
        );
        cluster.shutdown();
    }
}
