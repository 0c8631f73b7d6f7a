//! Hardware binning structures: the Tile Coalescing (TC) unit and the
//! VR-Pipe Tile Grid Coalescing (TGC) unit.
//!
//! Both are keyed bin tables with the flush policy the paper describes
//! (§V-A): a bin flushes when (1) it is full, (2) all bins are occupied and
//! an item for a new key arrives — the *oldest* bin is evicted — or (3) a
//! timeout elapses (end-of-draw flush in this model; the functional
//! simulation has no idle cycles between items of one draw call).
//!
//! Two things keep the hot loop fast without changing modeled behaviour:
//!
//! * [`BinTable`] recycles flushed bin storage through an internal pool
//!   ([`BinTable::recycle`]), so steady-state insertion allocates nothing.
//! * [`KeyStream`] derives the `(key, item)` insertion stream on worker
//!   threads with per-thread partials merged **in chunk order**, then the
//!   table replays it serially — the flush/eviction sequence (and with it
//!   every downstream blend order) is bit-exact with a serial build.

use gsplat::par::ThreadPolicy;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// Why a bin was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bin reached capacity.
    Full,
    /// All bins were occupied and a new key arrived; the oldest bin was
    /// evicted (premature flush — the failure mode the TGC unit mitigates).
    Evicted,
    /// End-of-draw drain (subsumes the hardware timeout flush).
    Drain,
}

/// One flushed bin: the key, its items in insertion order, and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flush<K, V> {
    pub key: K,
    pub items: Vec<V>,
    pub reason: FlushReason,
}

/// Counters for one bin table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BinStats {
    /// Items inserted.
    pub insertions: u64,
    /// Bins flushed (any reason).
    pub flushes: u64,
    /// Flushes caused by bin-table pressure.
    pub evictions: u64,
    /// Items flushed in full bins (utilisation numerator).
    pub items_in_full_flushes: u64,
}

/// A keyed FIFO bin table with bounded bin count and bin capacity.
///
/// Models both the TC unit (key = screen tile, item = quad, 32×128) and the
/// TGC unit (key = tile grid, item = primitive, 128×16).
///
/// # Examples
///
/// ```
/// use gpu_sim::binning::{BinTable, FlushReason};
/// let mut t: BinTable<u32, u32> = BinTable::new(2, 3);
/// assert!(t.insert(7, 1).is_empty());
/// assert!(t.insert(8, 2).is_empty());
/// // Third key with both bins occupied evicts the oldest (key 7).
/// let flushed = t.insert(9, 3);
/// assert_eq!(flushed[0].key, 7);
/// assert_eq!(flushed[0].reason, FlushReason::Evicted);
/// ```
#[derive(Debug, Clone)]
pub struct BinTable<K: Eq + Hash + Copy, V> {
    bins: HashMap<K, Vec<V>>,
    /// Allocation order (front = oldest) for eviction.
    order: VecDeque<K>,
    max_bins: usize,
    bin_capacity: usize,
    stats: BinStats,
    /// Recycled bin storage (capacity-preserving free list).
    pool: Vec<Vec<V>>,
}

impl<K: Eq + Hash + Copy, V> BinTable<K, V> {
    /// Creates a table with `max_bins` bins of `bin_capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when either parameter is zero.
    pub fn new(max_bins: usize, bin_capacity: usize) -> Self {
        assert!(
            max_bins > 0 && bin_capacity > 0,
            "bin table must be non-empty"
        );
        Self {
            bins: HashMap::with_capacity(max_bins),
            order: VecDeque::with_capacity(max_bins),
            max_bins,
            bin_capacity,
            stats: BinStats::default(),
            pool: Vec::new(),
        }
    }

    /// Returns a flushed bin's storage to the table's free list, making
    /// steady-state insertion allocation-free. Call with `flush.items`
    /// once the flush has been consumed.
    pub fn recycle(&mut self, mut storage: Vec<V>) {
        if self.pool.len() < self.max_bins + 1 {
            storage.clear();
            self.pool.push(storage);
        }
    }

    fn fresh_bin(&mut self) -> Vec<V> {
        self.pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.bin_capacity))
    }

    /// Inserts an item, returning any bins flushed as a consequence
    /// (0, 1, or 2: an eviction to make room plus a full flush).
    pub fn insert(&mut self, key: K, item: V) -> Vec<Flush<K, V>> {
        self.stats.insertions += 1;
        let mut flushed = Vec::new();
        if !self.bins.contains_key(&key) {
            if self.bins.len() == self.max_bins {
                // Evict the oldest bin to make room (paper flush cond. 2).
                let victim = self.order.pop_front().expect("order tracks bins");
                let items = self.bins.remove(&victim).expect("victim exists");
                self.stats.flushes += 1;
                self.stats.evictions += 1;
                flushed.push(Flush {
                    key: victim,
                    items,
                    reason: FlushReason::Evicted,
                });
            }
            let bin = self.fresh_bin();
            self.bins.insert(key, bin);
            self.order.push_back(key);
        }
        let bin = self.bins.get_mut(&key).expect("just ensured");
        bin.push(item);
        if bin.len() == self.bin_capacity {
            // Full flush (paper flush cond. 1).
            let items = self.bins.remove(&key).expect("bin exists");
            self.order.retain(|k| *k != key);
            self.stats.flushes += 1;
            self.stats.items_in_full_flushes += items.len() as u64;
            flushed.push(Flush {
                key,
                items,
                reason: FlushReason::Full,
            });
        }
        flushed
    }

    /// Drains every remaining bin in allocation order (end of draw call).
    pub fn drain(&mut self) -> Vec<Flush<K, V>> {
        let mut out = Vec::with_capacity(self.order.len());
        while let Some(key) = self.order.pop_front() {
            let items = self.bins.remove(&key).expect("order tracks bins");
            self.stats.flushes += 1;
            out.push(Flush {
                key,
                items,
                reason: FlushReason::Drain,
            });
        }
        out
    }

    /// Number of currently occupied bins.
    pub fn occupied(&self) -> usize {
        self.bins.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BinStats {
        self.stats
    }
}

/// A reusable `(key, item)` insertion stream whose key derivation runs on
/// worker threads.
///
/// Bin-table evolution (flushes, evictions) is inherently order-dependent,
/// so the table itself replays the stream serially; what parallelizes is
/// the per-item key computation — for the pipeline that is triangle setup
/// plus tile/grid intersection, the expensive pure part. Per-thread
/// partial streams are merged in chunk order, so the replayed insertion
/// sequence — and with it every flush, eviction and downstream blend
/// order — is bit-exact with a serial build.
#[derive(Debug)]
pub struct KeyStream<K> {
    pairs: Vec<(K, u32)>,
    worker: Vec<Vec<(K, u32)>>,
}

impl<K> Default for KeyStream<K> {
    fn default() -> Self {
        Self {
            pairs: Vec::new(),
            worker: Vec::new(),
        }
    }
}

impl<K: Copy + Send> KeyStream<K> {
    /// Rebuilds the stream for items `0..n_items`. `emit(i, push)` must
    /// call `push(key)` for each key item `i` maps to, in the order the
    /// serial path would insert them; it runs concurrently on workers.
    pub fn build<F>(&mut self, n_items: usize, policy: ThreadPolicy, emit: F)
    where
        F: Fn(u32, &mut dyn FnMut(K)) + Sync,
    {
        self.pairs.clear();
        let workers = policy.workers(n_items);
        if workers <= 1 {
            for i in 0..n_items as u32 {
                emit(i, &mut |key| self.pairs.push((key, i)));
            }
            return;
        }
        self.worker.resize_with(workers, Vec::new);
        let chunk = n_items.div_ceil(workers);
        let emit = &emit;
        std::thread::scope(|s| {
            for (w, partial) in self.worker.iter_mut().enumerate() {
                s.spawn(move || {
                    partial.clear();
                    let start = (w * chunk).min(n_items);
                    let end = ((w + 1) * chunk).min(n_items);
                    for i in start as u32..end as u32 {
                        emit(i, &mut |key| partial.push((key, i)));
                    }
                });
            }
        });
        for partial in &mut self.worker {
            self.pairs.append(partial);
        }
    }

    /// The `(key, item)` pairs in serial insertion order.
    pub fn pairs(&self) -> &[(K, u32)] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bin_flushes_immediately() {
        let mut t: BinTable<u8, u8> = BinTable::new(4, 2);
        assert!(t.insert(1, 10).is_empty());
        let f = t.insert(1, 11);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].items, vec![10, 11]);
        assert_eq!(f[0].reason, FlushReason::Full);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn eviction_is_fifo_oldest_first() {
        let mut t: BinTable<u8, u8> = BinTable::new(2, 10);
        t.insert(1, 0);
        t.insert(2, 0);
        t.insert(1, 1); // touch does not reorder FIFO
        let f = t.insert(3, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].key, 1, "oldest-allocated bin must be evicted");
        assert_eq!(f[0].items.len(), 2);
    }

    #[test]
    fn drain_returns_everything_in_order() {
        let mut t: BinTable<u8, u8> = BinTable::new(4, 10);
        t.insert(3, 0);
        t.insert(1, 0);
        t.insert(2, 0);
        let d = t.drain();
        let keys: Vec<u8> = d.iter().map(|f| f.key).collect();
        assert_eq!(keys, vec![3, 1, 2]);
        assert!(d.iter().all(|f| f.reason == FlushReason::Drain));
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn stats_track_all_paths() {
        let mut t: BinTable<u8, u8> = BinTable::new(1, 2);
        t.insert(1, 0);
        t.insert(2, 0); // evicts bin 1
        t.insert(2, 1); // fills bin 2
        t.drain(); // nothing left
        let s = t.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.flushes, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.items_in_full_flushes, 2);
    }

    #[test]
    fn recycled_bins_behave_like_fresh_ones() {
        let mut t: BinTable<u8, u8> = BinTable::new(2, 3);
        for round in 0..5u8 {
            for k in 0..2u8 {
                for item in 0..3u8 {
                    for flush in t.insert(k, item) {
                        assert_eq!(flush.items, vec![0, 1, 2], "round {round} key {k}");
                        assert_eq!(flush.reason, FlushReason::Full);
                        t.recycle(flush.items);
                    }
                }
            }
        }
        assert_eq!(t.stats().flushes, 10);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn key_stream_parallel_matches_serial_order() {
        use gsplat::par::ThreadPolicy;
        let emit = |i: u32, push: &mut dyn FnMut(u32)| {
            push(i % 5);
            if i.is_multiple_of(2) {
                push((i / 2) % 5);
            }
        };
        let mut serial = KeyStream::default();
        serial.build(333, ThreadPolicy::serial(), emit);
        for policy in [
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 7 },
            ThreadPolicy::default(),
        ] {
            let mut par = KeyStream::default();
            par.build(333, policy, emit);
            assert_eq!(par.pairs(), serial.pairs(), "{policy:?}");
            // Replaying both streams drives identical table evolution.
            let mut a: BinTable<u32, u32> = BinTable::new(3, 4);
            let mut b: BinTable<u32, u32> = BinTable::new(3, 4);
            let fa: Vec<_> = serial
                .pairs()
                .iter()
                .flat_map(|&(k, v)| a.insert(k, v))
                .collect();
            let fb: Vec<_> = par
                .pairs()
                .iter()
                .flat_map(|&(k, v)| b.insert(k, v))
                .collect();
            assert_eq!(fa, fb);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn round_robin_pattern_reproduces_tile_bin_cliff() {
        // The paper's §VII-A microbench: with N keys round-robin over a
        // 32-bin table, N ≤ 32 accumulates per-key items in one bin,
        // N = 33 degenerates to one item per flush.
        for (n_keys, expect_single) in [(32u32, false), (33u32, true)] {
            let mut t: BinTable<u32, u32> = BinTable::new(32, 128);
            for round in 0..10u32 {
                for k in 0..n_keys {
                    t.insert(k, round);
                }
            }
            let drained = t.drain();
            let max_items = drained.iter().map(|f| f.items.len()).max().unwrap_or(0);
            if expect_single {
                assert_eq!(max_items, 1, "N=33 must flush single-item bins");
            } else {
                assert_eq!(max_items, 10, "N=32 keeps all rounds in one bin");
            }
        }
    }
}
