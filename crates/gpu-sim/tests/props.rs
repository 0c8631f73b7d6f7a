//! Property-based tests for the hardware-unit models.

use gpu_sim::binning::{BinTable, Flush};
use gpu_sim::cache::Cache;
use gpu_sim::stats::Unit;
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use proptest::prelude::*;
use std::collections::HashMap;

/// The bin table and cache as they were before the slot-array rewrite:
/// a `HashMap` of bins with a `VecDeque` allocation order, and one `Vec`
/// of lines per set. Kept as the oracle the rewritten models must match
/// step for step.
mod reference {
    use gpu_sim::binning::{BinStats, Flush, FlushReason};
    use gpu_sim::stats::CacheStats;
    use std::collections::{HashMap, VecDeque};
    use std::hash::Hash;

    pub struct BinTable<K, V> {
        bins: HashMap<K, Vec<V>>,
        order: VecDeque<K>,
        max_bins: usize,
        bin_capacity: usize,
        stats: BinStats,
        pool: Vec<Vec<V>>,
    }

    impl<K: Eq + Hash + Copy, V> BinTable<K, V> {
        pub fn new(max_bins: usize, bin_capacity: usize) -> Self {
            Self {
                bins: HashMap::with_capacity(max_bins),
                order: VecDeque::with_capacity(max_bins),
                max_bins,
                bin_capacity,
                stats: BinStats::default(),
                pool: Vec::new(),
            }
        }

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

        pub fn insert(&mut self, key: K, item: V) -> Vec<Flush<K, V>> {
            self.stats.insertions += 1;
            let mut flushed = Vec::new();
            if !self.bins.contains_key(&key) {
                if self.bins.len() == self.max_bins {
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

        pub fn occupied(&self) -> usize {
            self.bins.len()
        }

        pub fn stats(&self) -> BinStats {
            self.stats
        }
    }

    pub struct Cache {
        sets: Vec<Vec<Line>>,
        set_mask: u64,
        stats: CacheStats,
        ways: usize,
    }

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        dirty: bool,
        lru: u64,
    }

    impl Cache {
        pub fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
            let sets = size_bytes / line_bytes / ways;
            Self {
                sets: vec![Vec::with_capacity(ways); sets],
                set_mask: sets as u64 - 1,
                stats: CacheStats::default(),
                ways,
            }
        }

        pub fn access(&mut self, line_addr: u64, write: bool) -> bool {
            let stamp = self.stats.hits + self.stats.misses;
            let set = &mut self.sets[(line_addr & self.set_mask) as usize];
            if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
                line.lru = stamp;
                line.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if set.len() == self.ways {
                let victim = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("full set is non-empty");
                if set[victim].dirty {
                    self.stats.writebacks += 1;
                }
                set.swap_remove(victim);
            }
            set.push(Line {
                tag: line_addr,
                dirty: write,
                lru: stamp,
            });
            false
        }

        pub fn flush(&mut self) {
            for set in &mut self.sets {
                for line in set.drain(..) {
                    if line.dirty {
                        self.stats.writebacks += 1;
                    }
                }
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
        }
    }
}

/// One step of a random bin-table stream.
#[derive(Debug, Clone, Copy)]
enum BinOp {
    Insert(u32),
    /// Drain every bin (the end of one draw).
    Drain,
    /// Power-on reset (the top of the next draw).
    Reset,
}

fn bin_op() -> impl Strategy<Value = BinOp> {
    (0u32..100, 0u32..40).prop_map(|(roll, key)| match roll {
        0 => BinOp::Drain,
        1 => BinOp::Reset,
        _ => BinOp::Insert(key),
    })
}

/// Drains `table` through [`BinTable::drain_next`], recycling as a draw
/// does.
fn drain_all<V: Clone>(table: &mut BinTable<u32, V>) -> Vec<Flush<u32, V>> {
    let mut out = Vec::new();
    while let Some(flush) = table.drain_next() {
        out.push(flush.clone());
        table.recycle(flush.items);
    }
    out
}

proptest! {
    /// Bin tables conserve items: everything inserted comes out exactly
    /// once across flushes + drain, with per-key insertion order intact.
    #[test]
    fn bin_table_conserves_items(
        keys in proptest::collection::vec(0u32..12, 1..300),
        bins in 1usize..8,
        cap in 1usize..16,
    ) {
        let mut table: BinTable<u32, (u32, usize)> = BinTable::new(bins, cap);
        let mut out: Vec<(u32, (u32, usize))> = Vec::new();
        for (seq, &k) in keys.iter().enumerate() {
            for flush in table.insert(k, (k, seq)) {
                for item in flush.items {
                    out.push((flush.key, item));
                }
            }
        }
        while let Some(flush) = table.drain_next() {
            for item in flush.items {
                out.push((flush.key, item));
            }
        }
        prop_assert_eq!(out.len(), keys.len(), "conservation violated");
        // Flushed under the right key, and order preserved per key.
        let mut per_key: HashMap<u32, Vec<usize>> = HashMap::new();
        for (key, (k, seq)) in out {
            prop_assert_eq!(key, k, "item flushed under wrong key");
            per_key.entry(k).or_default().push(seq);
        }
        for seqs in per_key.values() {
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "per-key order violated");
        }
    }

    /// A bin never exceeds its capacity and the table never exceeds its
    /// bin budget.
    #[test]
    fn bin_table_respects_limits(
        keys in proptest::collection::vec(0u32..50, 1..300),
        bins in 1usize..6,
        cap in 1usize..10,
    ) {
        let mut table: BinTable<u32, u32> = BinTable::new(bins, cap);
        for &k in &keys {
            for flush in table.insert(k, k) {
                prop_assert!(flush.items.len() <= cap);
            }
            prop_assert!(table.occupied() <= bins);
        }
    }

    /// Cache: hits + misses equals accesses; a working set no larger than
    /// the capacity in a single set never misses after warmup.
    #[test]
    fn cache_accounting_is_consistent(addrs in proptest::collection::vec(0u64..64, 1..500)) {
        let mut cache = Cache::new(16 * 128, 128, 16); // fully assoc, 16 lines
        for &a in &addrs {
            cache.access(a, a % 3 == 0);
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }

    /// Small working sets are fully resident after one pass.
    #[test]
    fn cache_retains_small_working_set(unique in proptest::collection::hash_set(0u64..1000, 1..16)) {
        let mut cache = Cache::new(16 * 128, 128, 16);
        let addrs: Vec<u64> = unique.into_iter().collect();
        for &a in &addrs { cache.access(a, false); }
        cache.reset_stats();
        for &a in &addrs {
            prop_assert!(cache.access(a, false), "address {a} evicted prematurely");
        }
    }

    /// Timing: total time is at least the bottleneck's busy time and at
    /// most the sum of all busy time plus per-batch latency.
    #[test]
    fn timer_total_bounded_by_work(
        services in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..100)
    ) {
        let mut t = PipelineTimer::new();
        for (r, s, c) in &services {
            let mut b = WorkBatch::default();
            b.add(Unit::Raster, *r);
            b.add(Unit::Sm, *s);
            b.add(Unit::Crop, *c);
            t.push(b);
        }
        let n = services.len() as f64;
        let (total, busy) = t.finish();
        let max_busy = *busy.iter().max().unwrap();
        let sum_busy: u64 = busy.iter().sum();
        prop_assert!(total >= max_busy, "total {total} < bottleneck {max_busy}");
        prop_assert!((total as f64) <= sum_busy as f64 + 12.0 * n + 10.0,
            "total {total} exceeds serial bound {sum_busy} + latency");
    }

    /// Adding work never makes the pipeline finish earlier.
    #[test]
    fn timer_monotone_in_work(
        base in proptest::collection::vec(0.0f64..20.0, 1..50),
        extra in 0.0f64..30.0,
    ) {
        let run = |boost: f64| {
            let mut t = PipelineTimer::new();
            for (i, &c) in base.iter().enumerate() {
                let mut b = WorkBatch::default();
                b.add(Unit::Crop, c + if i == 0 { boost } else { 0.0 });
                t.push(b);
            }
            t.finish().0
        };
        prop_assert!(run(extra) >= run(0.0));
    }

    /// The slot-array bin table replays any insertion stream exactly like
    /// the `HashMap`/`VecDeque` oracle: the same flushes (key, items,
    /// reason) in the same order, the same drain order and the same
    /// `BinStats`, with recycling on. Streams mix in end-of-draw drains and
    /// power-on resets (a fresh oracle), over key ranges from a handful to
    /// more than the index holds at once.
    #[test]
    fn bin_table_matches_reference_model(
        ops in proptest::collection::vec(bin_op(), 1..600),
        bins in 1usize..40,
        cap in 1usize..12,
        key_span in 1u32..40,
    ) {
        let mut table: BinTable<u32, (u32, usize)> = BinTable::new(bins, cap);
        let mut oracle = reference::BinTable::new(bins, cap);
        for (seq, &op) in ops.iter().enumerate() {
            match op {
                BinOp::Insert(k) => {
                    let key = k % key_span;
                    let got: Vec<_> = table.insert(key, (key, seq)).collect();
                    let want = oracle.insert(key, (key, seq));
                    prop_assert_eq!(&got, &want, "insert #{} of key {}", seq, key);
                    for flush in got {
                        table.recycle(flush.items);
                    }
                    for flush in want {
                        oracle.recycle(flush.items);
                    }
                }
                BinOp::Drain => {
                    prop_assert_eq!(drain_all(&mut table), oracle.drain(), "drain at #{}", seq);
                }
                BinOp::Reset => {
                    table.reset();
                    oracle = reference::BinTable::new(bins, cap);
                }
            }
            prop_assert_eq!(table.occupied(), oracle.occupied());
            prop_assert_eq!(table.stats(), oracle.stats());
        }
        prop_assert_eq!(drain_all(&mut table), oracle.drain());
        prop_assert_eq!(table.stats(), oracle.stats());
    }

    /// The flat set-major cache hits and misses exactly like the per-set
    /// `Vec` oracle on every access, and keeps identical `CacheStats`
    /// (writebacks included) through `flush()`, `reset_stats()` (which
    /// restarts the LRU stamps, so ties occur) and `reset()`.
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec((0u64..200, 0u32..100), 1..800),
        ways_log in 0u32..4,
        sets_log in 0u32..4,
    ) {
        let (ways, sets) = (1usize << ways_log, 1usize << sets_log);
        let size = ways * sets * 128;
        let mut cache = Cache::new(size, 128, ways);
        let mut oracle = reference::Cache::new(size, 128, ways);
        for (i, &(addr, roll)) in ops.iter().enumerate() {
            match roll {
                0 => {
                    cache.flush();
                    oracle.flush();
                }
                1 => {
                    cache.reset_stats();
                    oracle.reset_stats();
                }
                2 => {
                    cache.reset();
                    oracle = reference::Cache::new(size, 128, ways);
                }
                _ => {
                    let write = roll % 3 == 0;
                    prop_assert_eq!(
                        cache.access(addr, write),
                        oracle.access(addr, write),
                        "access #{} of line {}", i, addr
                    );
                }
            }
            prop_assert_eq!(cache.stats(), oracle.stats());
        }
        cache.flush();
        oracle.flush();
        prop_assert_eq!(cache.stats(), oracle.stats());
    }

    /// A run of `n` accesses to one line is `n` single accesses: same
    /// first outcome and stats, and the LRU/dirty state it leaves shows in
    /// every later access and in the end-of-draw writebacks.
    #[test]
    fn cache_run_matches_repeated_access(
        ops in proptest::collection::vec((0u64..40, 0u32..6, 1u32..6), 1..300),
        ways_log in 0u32..3,
        sets_log in 0u32..3,
    ) {
        let (ways, sets) = (1usize << ways_log, 1usize << sets_log);
        let size = ways * sets * 128;
        let mut runs = Cache::new(size, 128, ways);
        let mut oracle = reference::Cache::new(size, 128, ways);
        for (i, &(addr, roll, n)) in ops.iter().enumerate() {
            let write = roll % 2 == 0;
            let first = oracle.access(addr, write);
            for _ in 1..n {
                oracle.access(addr, write);
            }
            prop_assert_eq!(runs.access_run(addr, write, n), first, "run #{} of line {}", i, addr);
            prop_assert_eq!(runs.stats(), oracle.stats());
        }
        runs.flush();
        oracle.flush();
        prop_assert_eq!(runs.stats(), oracle.stats());
    }
}
