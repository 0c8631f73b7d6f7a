//! Hardware binning structures: the Tile Coalescing (TC) unit and the
//! VR-Pipe Tile Grid Coalescing (TGC) unit.
//!
//! Both are keyed bin tables with the flush policy the paper describes
//! (§V-A): a bin flushes when (1) it is full, (2) all bins are occupied and
//! an item for a new key arrives — the *oldest* bin is evicted — or (3) a
//! timeout elapses (end-of-draw flush in this model; the functional
//! simulation has no idle cycles between items of one draw call).
//!
//! Two things keep the hot loop fast without changing modeled
//! behaviour:
//!
//! * [`BinTable`] is a fixed slot array with a deterministic open-addressed
//!   key index and a last-key fast path, so a run of items for one key —
//!   what raster emits for one (primitive, tile) visit — costs one compare
//!   per item. Nothing depends on a seeded hasher.
//! * Flushed bin storage recycles through an internal pool
//!   ([`BinTable::recycle`]) and [`BinTable::insert`] hands flushes back in
//!   a fixed-size [`Flushes`], so steady-state insertion allocates nothing.

use std::hash::{Hash, Hasher};

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

/// The bins one [`BinTable::insert`] flushed, in order: an eviction to make
/// room for a new key, then a full flush of the inserted key's bin. Either
/// may be absent. Holds no heap storage of its own.
#[derive(Debug)]
pub struct Flushes<K, V> {
    evicted: Option<Flush<K, V>>,
    full: Option<Flush<K, V>>,
}

impl<K, V> Iterator for Flushes<K, V> {
    type Item = Flush<K, V>;

    fn next(&mut self) -> Option<Flush<K, V>> {
        self.evicted.take().or_else(|| self.full.take())
    }
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

/// Marks an empty index entry and the end of the allocation-order list.
const NONE: u32 = u32::MAX;

/// One bin slot. Occupied slots are linked in allocation order.
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    items: Vec<V>,
    prev: u32,
    next: u32,
}

/// A keyed FIFO bin table with bounded bin count and bin capacity.
///
/// Models both the TC unit (key = screen tile, item = quad, 32×128) and the
/// TGC unit (key = tile grid, item = primitive, 128×16).
///
/// The bins live in `max_bins` slots. Keys find their slot through an
/// open-addressed index (linear probing, Fx-style hash, power-of-two size
/// of at least twice the bin count); occupied slots form a doubly-linked
/// list in allocation order, whose head is the eviction victim and which
/// [`BinTable::drain_next`] walks. Every operation is O(1) and the flush
/// sequence depends only on the keys inserted.
///
/// # Examples
///
/// ```
/// use gpu_sim::binning::{BinTable, FlushReason};
/// let mut t: BinTable<u32, u32> = BinTable::new(2, 3);
/// assert_eq!(t.insert(7, 1).count(), 0);
/// assert_eq!(t.insert(8, 2).count(), 0);
/// // Third key with both bins occupied evicts the oldest (key 7).
/// let flushed: Vec<_> = t.insert(9, 3).collect();
/// assert_eq!(flushed[0].key, 7);
/// assert_eq!(flushed[0].reason, FlushReason::Evicted);
/// ```
#[derive(Debug, Clone)]
pub struct BinTable<K, V> {
    /// Bin slots; `slots.len()` grows to `max_bins` and then stays.
    slots: Vec<Slot<K, V>>,
    /// Free slot indices (stack).
    free: Vec<u32>,
    /// Key → slot index, `NONE` when empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash bits that pick an index entry.
    shift: u32,
    /// Oldest and newest occupied slots.
    head: u32,
    tail: u32,
    /// Slot of the most recently inserted key, `NONE` once it flushes.
    last: u32,
    occupied: usize,
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
    /// Panics when either parameter is zero or `max_bins` does not fit the
    /// 32-bit slot index.
    pub fn new(max_bins: usize, bin_capacity: usize) -> Self {
        assert!(
            max_bins > 0 && bin_capacity > 0,
            "bin table must be non-empty"
        );
        assert!(max_bins < NONE as usize / 2, "bin table too large");
        let index_len = (2 * max_bins).next_power_of_two();
        Self {
            slots: Vec::with_capacity(max_bins),
            free: Vec::with_capacity(max_bins),
            index: vec![NONE; index_len],
            shift: 64 - index_len.trailing_zeros(),
            head: NONE,
            tail: NONE,
            last: NONE,
            occupied: 0,
            max_bins,
            bin_capacity,
            stats: BinStats::default(),
            pool: Vec::new(),
        }
    }

    /// Whether this table has `max_bins` bins of `bin_capacity` items.
    pub fn has_shape(&self, max_bins: usize, bin_capacity: usize) -> bool {
        (self.max_bins, self.bin_capacity) == (max_bins, bin_capacity)
    }

    /// Restores the power-on state: no occupied bin, zeroed statistics.
    /// Bin storage returns to the pool, so a reset table allocates no more
    /// than a warm one.
    pub fn reset(&mut self) {
        while let Some(flush) = self.drain_next() {
            self.recycle(flush.items);
        }
        self.stats = BinStats::default();
    }

    /// Returns a flushed bin's storage to the table's free list, making
    /// steady-state insertion allocation-free. Call with `flush.items`
    /// once the flush has been consumed.
    pub fn recycle(&mut self, mut storage: Vec<V>) {
        // Bins in circulation: at most `max_bins` occupied plus the two
        // one insertion can flush.
        if self.pool.len() < self.max_bins + 2 {
            storage.clear();
            self.pool.push(storage);
        }
    }

    /// The index entry holding `key`, or the empty entry where it would go.
    fn probe(&self, key: &K) -> usize {
        let mask = self.index.len() - 1;
        let mut i = (fx_hash(key) >> self.shift) as usize;
        loop {
            let slot = self.index[i];
            if slot == NONE || self.slots[slot as usize].key == *key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`'s index entry, shifting later entries of its probe
    /// run back so lookups never need tombstones.
    fn unindex(&mut self, key: &K) {
        let mask = self.index.len() - 1;
        let mut hole = self.probe(key);
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.index[i];
            if slot == NONE {
                break;
            }
            let home = (fx_hash(&self.slots[slot as usize].key) >> self.shift) as usize;
            // Move the entry into the hole unless its home lies cyclically
            // in (hole, i] — then the hole does not break its probe run.
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = i;
            }
        }
        self.index[hole] = NONE;
    }

    /// Frees slot `s`: unlinks it, drops its key from the index and hands
    /// its items out as a flush.
    fn release(&mut self, s: u32, reason: FlushReason) -> Flush<K, V> {
        let Slot {
            key, prev, next, ..
        } = self.slots[s as usize];
        match prev {
            NONE => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.unindex(&key);
        if self.last == s {
            self.last = NONE;
        }
        self.free.push(s);
        self.occupied -= 1;
        self.stats.flushes += 1;
        Flush {
            key,
            items: std::mem::take(&mut self.slots[s as usize].items),
            reason,
        }
    }

    /// Allocates a bin for `key` (absent from the table, which has a free
    /// slot) at index entry `entry`, newest in allocation order.
    fn allocate(&mut self, key: K, entry: usize) -> u32 {
        let items = self
            .pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.bin_capacity));
        let slot = Slot {
            key,
            items,
            prev: self.tail,
            next: NONE,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
        };
        match self.tail {
            NONE => self.head = s,
            t => self.slots[t as usize].next = s,
        }
        self.tail = s;
        self.index[entry] = s;
        self.occupied += 1;
        s
    }

    /// Inserts an item, returning any bins flushed as a consequence
    /// (none, an eviction to make room, a full flush, or both).
    #[inline]
    pub fn insert(&mut self, key: K, item: V) -> Flushes<K, V> {
        // Fast path: another item for the most recently used bin that
        // does not fill it — the common case of a raster run of quads.
        if let Some(slot) = self.slots.get_mut(self.last as usize) {
            if slot.key == key && slot.items.len() + 1 < self.bin_capacity {
                self.stats.insertions += 1;
                slot.items.push(item);
                return Flushes {
                    evicted: None,
                    full: None,
                };
            }
        }
        self.insert_slow(key, item)
    }

    /// [`BinTable::insert`] of a key other than the last one, or of an
    /// item that fills its bin.
    #[inline(never)]
    fn insert_slow(&mut self, key: K, item: V) -> Flushes<K, V> {
        self.stats.insertions += 1;
        let mut flushes = Flushes {
            evicted: None,
            full: None,
        };
        let mut entry = self.probe(&key);
        let s = match self.index[entry] {
            NONE => {
                if self.occupied == self.max_bins {
                    // Evict the oldest bin to make room (paper flush
                    // cond. 2); its removal may move `key`'s entry.
                    self.stats.evictions += 1;
                    flushes.evicted = Some(self.release(self.head, FlushReason::Evicted));
                    entry = self.probe(&key);
                }
                self.allocate(key, entry)
            }
            s => s,
        };
        self.last = s;
        let bin = &mut self.slots[s as usize].items;
        bin.push(item);
        if bin.len() == self.bin_capacity {
            // Full flush (paper flush cond. 1).
            self.stats.items_in_full_flushes += self.bin_capacity as u64;
            flushes.full = Some(self.release(s, FlushReason::Full));
        }
        flushes
    }

    /// Flushes the oldest remaining bin (end of draw call); `None` once the
    /// table is empty. Calling it until `None` drains every bin in
    /// allocation order.
    pub fn drain_next(&mut self) -> Option<Flush<K, V>> {
        (self.head != NONE).then(|| self.release(self.head, FlushReason::Drain))
    }

    /// Number of currently occupied bins.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BinStats {
        self.stats
    }
}

/// Fx-style multiplicative hash of `key`: deterministic for every run,
/// and cheap for the small integer keys (tile and grid ids) bins use.
fn fx_hash<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher(0);
    key.hash(&mut h);
    h.0
}

struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert<V>(t: &mut BinTable<u8, V>, key: u8, item: V) -> Vec<Flush<u8, V>> {
        t.insert(key, item).collect()
    }

    fn drain<K: Eq + Hash + Copy, V>(t: &mut BinTable<K, V>) -> Vec<Flush<K, V>> {
        std::iter::from_fn(|| t.drain_next()).collect()
    }

    #[test]
    fn full_bin_flushes_immediately() {
        let mut t: BinTable<u8, u8> = BinTable::new(4, 2);
        assert_eq!(t.insert(1, 10).count(), 0);
        let f = insert(&mut t, 1, 11);
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
        let f = insert(&mut t, 3, 0);
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
        let d = drain(&mut t);
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
        drain(&mut t); // nothing left
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
            let drained = drain(&mut t);
            let max_items = drained.iter().map(|f| f.items.len()).max().unwrap_or(0);
            if expect_single {
                assert_eq!(max_items, 1, "N=33 must flush single-item bins");
            } else {
                assert_eq!(max_items, 10, "N=32 keeps all rounds in one bin");
            }
        }
    }
}
