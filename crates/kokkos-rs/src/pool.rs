//! CPPuddle-style recycling buffer pool for kernel scratch memory.
//!
//! Octo-Tiger's A64FX runs live inside the node's hard 28 GB-usable HBM2
//! budget, and the stack attributes much of its node-level throughput to
//! *buffer recycling*: kernel scratch is checked out of a pool and returned
//! after the launch instead of being heap-allocated per task (CPPuddle).  A
//! steady-state timestep then performs zero transient allocations — the
//! allocator drops out of the profile and the memory footprint stays flat
//! regardless of how many tasks are in flight.
//!
//! [`BufferPool`] reproduces that allocator: size-bucketed thread-safe
//! free-lists keyed by `(len, T)` (the element type is the pool's type
//! parameter, the requested length is the bucket key), handing out RAII
//! [`Recycled`] handles that return their storage on drop.  A checkout is
//! owned by exactly one handle, so a recycled buffer can only be reused
//! after its previous holder dropped it.
//!
//! Every pool keeps its own statistics ([`BufferPool::stats`]) — the only
//! count of its checkouts; `Simulation::counters` publishes its pools' sums
//! as `/octotiger/scratch/*`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Plain-data statistics of one [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchSnapshot {
    /// Checkouts served from a free list (no heap allocation).
    pub hits: u64,
    /// Checkouts that had to allocate (pool warm-up, or a new size bucket).
    pub misses: u64,
    /// Bytes currently checked out of the pool (gauge, not monotonic).
    pub bytes_in_use: u64,
    /// Maximum `bytes_in_use` ever observed.
    pub high_water: u64,
}

#[derive(Debug, Default)]
struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_in_use: AtomicU64,
    high_water: AtomicU64,
}

/// One size bucket: its free list and how many buffers it owns in all,
/// free or checked out.
#[derive(Debug)]
struct Bucket<T> {
    free: Vec<Vec<T>>,
    owned: usize,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            free: Vec::new(),
            owned: 0,
        }
    }
}

#[derive(Debug)]
struct PoolInner<T> {
    /// The buckets, keyed by the requested element count.
    buckets: Mutex<HashMap<usize, Bucket<T>>>,
    stats: PoolStats,
}

impl<T> Default for PoolInner<T> {
    fn default() -> Self {
        PoolInner {
            buckets: Mutex::new(HashMap::new()),
            stats: PoolStats::default(),
        }
    }
}

/// A recycling allocator of `Vec<T>` scratch buffers.
///
/// Cloning a pool clones a *handle*: all clones share the same free lists,
/// so a pool can be handed to the gravity solver, the ghost exchange, and
/// every stage workspace while remaining one arena.  Checked-out buffers keep
/// the arena alive, so dropping the last pool handle while launches are in
/// flight is safe.
#[derive(Debug, Default)]
pub struct BufferPool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The `f64` pool every solver layer draws kernel scratch from.
pub type ScratchArena = BufferPool<f64>;

impl<T> BufferPool<T> {
    /// Fresh pool with empty free lists.
    pub fn new() -> Self {
        BufferPool {
            inner: Arc::new(PoolInner::default()),
        }
    }

    /// Number of buffers currently sitting in free lists.
    #[cfg(test)]
    fn free_buffers(&self) -> usize {
        let buckets = self.inner.buckets.lock();
        buckets.values().map(|b| b.free.len()).sum()
    }

    /// This pool's statistics (hits/misses are cumulative; the byte gauges
    /// track currently checked-out storage and its high-water mark).
    pub fn stats(&self) -> ScratchSnapshot {
        let s = &self.inner.stats;
        ScratchSnapshot {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            bytes_in_use: s.bytes_in_use.load(Ordering::Relaxed),
            high_water: s.high_water.load(Ordering::Relaxed),
        }
    }

    fn note_checkout(&self, hit: bool, bytes: u64) {
        let s = &self.inner.stats;
        let outcome = if hit { &s.hits } else { &s.misses };
        outcome.fetch_add(1, Ordering::Relaxed);
        let now = s.bytes_in_use.fetch_add(bytes, Ordering::Relaxed) + bytes;
        s.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Pop a free buffer of `bucket`, or count the one the caller is about
    /// to allocate as the bucket's.
    fn take(&self, bucket: usize) -> Option<Vec<T>> {
        let mut buckets = self.inner.buckets.lock();
        let b = buckets.entry(bucket).or_default();
        let data = b.free.pop();
        b.owned += usize::from(data.is_none());
        data
    }

    /// Top up `bucket` so it owns at least `count` buffers, free or checked
    /// out, allocating (and counting as misses) only the shortfall.
    ///
    /// A caller that knows its peak concurrent demand — e.g. the ghost
    /// exchange, one payload per parcel link plus one per running fill —
    /// can prewarm before fanning work out to concurrent tasks, making the
    /// steady state allocation-free *by construction*: once the bucket
    /// owns `count` buffers the call is a no-op and every checkout hits,
    /// regardless of how checkouts and returns interleave across threads.
    /// Buffers still checked out count, so a prewarm issued while an
    /// earlier round holds some (the next pipelined stage's, say) does not
    /// allocate again.  Without it, the population the warm-up round
    /// happens to reach depends on scheduling, and a later round with more
    /// overlap still allocates.
    pub fn prewarm(&self, bucket: usize, count: usize) {
        let shortfall = {
            let mut buckets = self.inner.buckets.lock();
            let b = buckets.entry(bucket).or_default();
            let shortfall = count.saturating_sub(b.owned);
            for _ in 0..shortfall {
                b.free.push(Vec::with_capacity(bucket));
            }
            b.owned += shortfall;
            shortfall
        };
        if shortfall > 0 {
            self.inner
                .stats
                .misses
                .fetch_add(shortfall as u64, Ordering::Relaxed);
        }
    }
}

impl<T: Clone + Default> BufferPool<T> {
    /// Check out a buffer of exactly `len` elements, each reset to
    /// `T::default()` — recycled storage never leaks a prior launch's data.
    /// Serves from the free list when possible (a *hit*), allocates
    /// otherwise (a *miss*).
    pub fn checkout(&self, len: usize) -> Recycled<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        match self.take(len) {
            Some(mut data) => {
                data.clear();
                data.resize(len, T::default());
                self.note_checkout(true, bytes);
                Recycled::pooled(data, len, self)
            }
            None => {
                self.note_checkout(false, bytes);
                Recycled::pooled(vec![T::default(); len], len, self)
            }
        }
    }
}

impl<T> BufferPool<T> {
    /// Check out an *empty* buffer with capacity for at least `cap`
    /// elements, for push-style fills (ghost packing).  The bucket key is
    /// `cap`, so callers that compute the exact payload size get stable
    /// recycling and never re-grow the vector.
    pub fn checkout_empty(&self, cap: usize) -> Recycled<T> {
        let bytes = (cap * std::mem::size_of::<T>()) as u64;
        match self.take(cap) {
            Some(mut data) => {
                data.clear();
                self.note_checkout(true, bytes);
                Recycled::pooled(data, cap, self)
            }
            None => {
                self.note_checkout(false, bytes);
                Recycled::pooled(Vec::with_capacity(cap), cap, self)
            }
        }
    }
}

/// RAII handle to a pooled buffer: derefs to its `Vec<T>` and returns the
/// storage to the owning pool's free list on drop.
#[derive(Debug)]
pub struct Recycled<T> {
    data: Vec<T>,
    bucket: usize,
    pool: Option<Arc<PoolInner<T>>>,
}

impl<T> Recycled<T> {
    fn pooled(data: Vec<T>, bucket: usize, pool: &BufferPool<T>) -> Self {
        Recycled {
            data,
            bucket,
            pool: Some(Arc::clone(&pool.inner)),
        }
    }

    /// A handle that owns `data` outright and frees it on drop instead of
    /// recycling — for tests, one-off paths, and `Default` impls of structs
    /// that normally hold pooled fields.
    pub fn detached(data: Vec<T>) -> Self {
        Recycled {
            bucket: data.len(),
            data,
            pool: None,
        }
    }
}

impl<T> Default for Recycled<T> {
    fn default() -> Self {
        Recycled::detached(Vec::new())
    }
}

/// Cloning copies the contents into a *detached* buffer — a clone is a new
/// allocation outside the pool.
impl<T: Clone> Clone for Recycled<T> {
    fn clone(&self) -> Self {
        Recycled::detached(self.data.clone())
    }
}

impl<T: PartialEq> PartialEq for Recycled<T> {
    fn eq(&self, other: &Self) -> bool {
        // Pool membership is excluded: equal contents are equal buffers.
        self.data == other.data
    }
}

impl<T> std::ops::Deref for Recycled<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.data
    }
}

impl<T> std::ops::DerefMut for Recycled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }
}

impl<T> Drop for Recycled<T> {
    fn drop(&mut self) {
        let Some(pool) = self.pool.take() else {
            return;
        };
        let bytes = (self.bucket * std::mem::size_of::<T>()) as u64;
        pool.stats.bytes_in_use.fetch_sub(bytes, Ordering::Relaxed);
        let data = std::mem::take(&mut self.data);
        let mut buckets = pool.buckets.lock();
        buckets.entry(self.bucket).or_default().free.push(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_miss_then_hit() {
        let pool = BufferPool::<f64>::new();
        let s0 = pool.stats();
        assert_eq!((s0.hits, s0.misses), (0, 0));
        {
            let b = pool.checkout(64);
            assert_eq!(b.len(), 64);
            assert!(b.iter().all(|&x| x == 0.0));
            let s = pool.stats();
            assert_eq!((s.hits, s.misses), (0, 1));
            assert_eq!(s.bytes_in_use, 64 * 8);
        }
        assert_eq!(pool.free_buffers(), 1);
        let mut b = pool.checkout(64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        b[3] = 7.0;
        drop(b);
        // Recycled storage comes back zeroed on the next checkout.
        let b = pool.checkout(64);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    /// A pool's own statistics are the only count of its events: one
    /// checkout and its return move that pool's numbers by exactly one
    /// event, and no other pool's.
    #[test]
    fn one_checkout_and_return_moves_exactly_one_set_of_statistics() {
        let pool = BufferPool::<f64>::new();
        let bystander = BufferPool::<f64>::new();
        let b = pool.checkout(32);
        let held = ScratchSnapshot {
            hits: 0,
            misses: 1,
            bytes_in_use: 32 * 8,
            high_water: 32 * 8,
        };
        assert_eq!(pool.stats(), held);
        drop(b);
        assert_eq!(
            pool.stats(),
            ScratchSnapshot {
                bytes_in_use: 0,
                ..held
            }
        );
        assert_eq!(bystander.stats(), ScratchSnapshot::default());
    }

    #[test]
    fn buckets_are_keyed_by_length() {
        let pool = BufferPool::<f64>::new();
        drop(pool.checkout(8));
        // A different length is a different bucket: miss again.
        drop(pool.checkout(16));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(pool.free_buffers(), 2);
        drop(pool.checkout(8));
        drop(pool.checkout(16));
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn checkout_empty_recycles_capacity() {
        let pool = BufferPool::<f64>::new();
        {
            let mut b = pool.checkout_empty(10);
            assert!(b.is_empty() && b.capacity() >= 10);
            for i in 0..10 {
                b.push(i as f64);
            }
        }
        let b = pool.checkout_empty(10);
        assert!(b.is_empty() && b.capacity() >= 10);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn prewarm_tops_up_only_the_shortfall() {
        let pool = BufferPool::<f64>::new();
        drop(pool.checkout(16)); // one buffer already in the free list
        pool.prewarm(16, 3);
        assert_eq!(pool.free_buffers(), 3);
        // The two fresh buffers are counted as allocations (misses).
        assert_eq!(pool.stats().misses, 1 + 2);
        // Once populated, prewarm is a no-op and checkouts all hit.
        pool.prewarm(16, 3);
        assert_eq!(pool.free_buffers(), 3);
        let a = pool.checkout(16);
        let b = pool.checkout_empty(16);
        let c = pool.checkout(16);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (3, 3));
        drop((a, b, c));
    }

    #[test]
    fn prewarm_counts_checked_out_buffers() {
        let pool = BufferPool::<f64>::new();
        let held = (pool.checkout(16), pool.checkout_empty(16));
        // The bucket owns two buffers, both out: one more reaches three.
        pool.prewarm(16, 3);
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.stats().misses, 2 + 1);
        drop(held);
        pool.prewarm(16, 3);
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(pool.stats().misses, 3);
    }

    #[test]
    fn high_water_tracks_concurrent_checkouts() {
        let pool = BufferPool::<f64>::new();
        let a = pool.checkout(4);
        let b = pool.checkout(4);
        assert_eq!(pool.stats().bytes_in_use, 2 * 4 * 8);
        drop(a);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.bytes_in_use, 0);
        assert_eq!(s.high_water, 2 * 4 * 8);
    }

    #[test]
    fn detached_and_clone_have_no_pool() {
        let pool = BufferPool::<f64>::new();
        let b = pool.checkout(8);
        let c = b.clone();
        assert_eq!(b, c);
        drop(c); // detached clone must not enter the free list
        drop(b);
        assert_eq!(pool.free_buffers(), 1);
        drop(Recycled::<f64>::detached(vec![1.0; 4]));
    }
}
