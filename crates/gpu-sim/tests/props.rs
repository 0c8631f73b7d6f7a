//! Property-based tests for the hardware-unit models.

use gpu_sim::binning::{BinTable, Flush};
use gpu_sim::cache::Cache;
use gpu_sim::config::MAX_SCREEN_TILE_PX;
use gpu_sim::raster::{rasterize_in_tile_with, SplatSetup};
use gpu_sim::stats::Unit;
use gpu_sim::tiles::{TileId, Tiling};
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use gsplat::math::{Vec2, Vec3};
use gsplat::splat::Splat;
use proptest::prelude::*;
use std::collections::HashMap;

// The raster reference builds quads but asks them nothing per fragment.
#[allow(dead_code)]
mod quad {
    use gpu_sim::tiles::{QuadPos, TileId};
    include!("support/quad.rs");
}

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

/// The fine raster as it was before the bit-row rewrite: every candidate
/// quad of every visited raster tile, one [`SplatSetup::covers`] test per
/// pixel. Kept as the oracle the row-mask raster must match quad for
/// quad.
mod raster_reference {
    use crate::quad::Quad;
    use gpu_sim::raster::SplatSetup;
    use gpu_sim::tiles::{TileId, Tiling};

    /// The quads of one (primitive, tile) pair in raster scan order, and
    /// the coarse-raster tile count.
    pub fn rasterize_in_tile(
        setup: &SplatSetup,
        splat_index: u32,
        tile: TileId,
        tiling: &Tiling,
        raster_tile_px: u32,
    ) -> (Vec<Quad>, u64) {
        let mut quads = Vec::new();
        let (tile_x0, tile_y0) = tiling.tile_origin(tile);
        let tile_x1 = (tile_x0 + tiling.tile_px()).min(tiling.width());
        let tile_y1 = (tile_y0 + tiling.tile_px()).min(tiling.height());

        // Clip the primitive AABB to this tile.
        let min_x = setup.aabb.0.x.max(tile_x0 as f32);
        let min_y = setup.aabb.0.y.max(tile_y0 as f32);
        let max_x = setup.aabb.1.x.min(tile_x1 as f32 - 1.0);
        let max_y = setup.aabb.1.y.min(tile_y1 as f32 - 1.0);
        if min_x > max_x || min_y > max_y {
            return (quads, 0);
        }

        // Coarse raster: visit intersecting raster tiles.
        let rt0_x = (min_x as u32 - tile_x0) / raster_tile_px;
        let rt0_y = (min_y as u32 - tile_y0) / raster_tile_px;
        let rt1_x = (max_x as u32 - tile_x0) / raster_tile_px;
        let rt1_y = (max_y as u32 - tile_y0) / raster_tile_px;

        let mut coarse_tiles = 0u64;
        for rty in rt0_y..=rt1_y {
            for rtx in rt0_x..=rt1_x {
                coarse_tiles += 1;
                let rt_x0 = tile_x0 + rtx * raster_tile_px;
                let rt_y0 = tile_y0 + rty * raster_tile_px;
                fine_raster_tile(
                    setup,
                    splat_index,
                    (rt_x0, rt_y0),
                    raster_tile_px,
                    tile,
                    tiling,
                    (min_x, min_y, max_x, max_y),
                    &mut quads,
                );
            }
        }
        (quads, coarse_tiles)
    }

    /// Fine raster of one raster tile: tests pixels quad by quad.
    #[allow(clippy::too_many_arguments)]
    fn fine_raster_tile(
        setup: &SplatSetup,
        splat_index: u32,
        (rt_x0, rt_y0): (u32, u32),
        raster_tile_px: u32,
        tile: TileId,
        tiling: &Tiling,
        clip: (f32, f32, f32, f32),
        quads: &mut Vec<Quad>,
    ) {
        let (min_x, min_y, max_x, max_y) = clip;
        // Quad-aligned bounds within the raster tile, clipped to the AABB.
        let qx0 = ((min_x as u32).max(rt_x0) & !1).max(rt_x0 & !1);
        let qy0 = ((min_y as u32).max(rt_y0) & !1).max(rt_y0 & !1);
        let qx1 = (max_x as u32)
            .min(rt_x0 + raster_tile_px - 1)
            .min(tiling.width() - 1);
        let qy1 = (max_y as u32)
            .min(rt_y0 + raster_tile_px - 1)
            .min(tiling.height() - 1);

        let mut qy = qy0;
        while qy <= qy1 {
            let mut qx = qx0;
            while qx <= qx1 {
                let mut coverage = 0u8;
                for i in 0..4u32 {
                    let px = qx + (i & 1);
                    let py = qy + (i >> 1);
                    if px < tiling.width()
                        && py < tiling.height()
                        && setup.covers(px as f32 + 0.5, py as f32 + 0.5)
                    {
                        coverage |= 1 << i;
                    }
                }
                if coverage != 0 {
                    quads.push(Quad {
                        tile,
                        pos: tiling.quad_pos(qx, qy),
                        origin: (qx, qy),
                        coverage,
                        splat: splat_index,
                    });
                }
                qx += 2;
            }
            qy += 2;
        }
    }
}

/// Every (screen tile, raster tile) edge pair `GpuConfig::validate`
/// accepts: raster tiles even and dividing the screen tile.
fn tile_pairs() -> impl Iterator<Item = (u32, u32)> {
    (2..=MAX_SCREEN_TILE_PX)
        .step_by(2)
        .flat_map(|s| (2..=s).step_by(2).map(move |r| (s, r)))
        .filter(|&(s, r)| s % r == 0)
}

/// An OBB splat centred at `(cx, cy)` with major axis `len` px long at
/// `angle` radians and a minor axis `aspect` times as long.
fn obb(cx: f32, cy: f32, len: f32, aspect: f32, angle: f32) -> Splat {
    let (s, c) = angle.sin_cos();
    Splat {
        center: Vec2::new(cx, cy),
        depth: 1.0,
        conic: (1.0, 0.0, 1.0),
        axis_major: Vec2::new(c * len, s * len),
        axis_minor: Vec2::new(-s * len * aspect, c * len * aspect),
        color: Vec3::splat(1.0),
        opacity: 0.5,
        source: 0,
    }
}

/// Asserts that the row-mask raster and the per-pixel reference emit the
/// same quads in the same order, the same coarse-tile count, and that the
/// raster's fragment count is the reference's covered-pixel count, for
/// `splat` in every tile of a `w`×`h` viewport that overlaps the 48-px
/// square at `(x0, y0)`, at every valid tile pair.
fn assert_raster_matches_reference(splat: &Splat, (w, h): (u32, u32), (x0, y0): (u32, u32)) {
    let Some(setup) = SplatSetup::new(splat) else {
        return;
    };
    for (screen, raster) in tile_pairs() {
        let tiling = Tiling::new(w, h, screen);
        let tiles = |from: u32, n: u32| from / screen..n.min((from + 48).div_ceil(screen));
        for ty in tiles(y0, tiling.tiles_y()) {
            for tx in tiles(x0, tiling.tiles_x()) {
                let tile = TileId { x: tx, y: ty };
                let mut quads = Vec::new();
                let (coarse, fragments) =
                    rasterize_in_tile_with(&setup, tile, &tiling, raster, |pos, coverage| {
                        quads.push((pos, coverage))
                    });
                let (expect, expect_coarse) =
                    raster_reference::rasterize_in_tile(&setup, 7, tile, &tiling, raster);
                let at = format!("{splat:?} in {w}x{h}, tile {tile:?} of {screen}/{raster} px");
                let expect_quads: Vec<_> = expect.iter().map(|q| (q.pos, q.coverage)).collect();
                assert_eq!(quads, expect_quads, "{at}");
                assert_eq!(coarse, expect_coarse, "{at}");
                let covered: u32 = expect.iter().map(|q| q.coverage_count()).sum();
                assert_eq!(fragments, covered as u64, "{at}");
            }
        }
    }
}

#[test]
fn raster_matches_reference_on_edge_cases() {
    let pi = std::f32::consts::PI;
    let cases = [
        // Axis-aligned, pixel-center and pixel-edge aligned extents.
        obb(8.0, 8.0, 4.0, 1.0, 0.0),
        obb(8.5, 8.5, 3.5, 0.5, 0.0),
        obb(7.0, 9.0, 2.0, 1.0, pi / 2.0),
        // 45° and near-axis rotations.
        obb(10.3, 6.7, 9.0, 0.2, pi / 4.0),
        obb(12.0, 12.0, 30.0, 0.01, 1e-4),
        // Sub-pixel, between and on pixel centers.
        obb(5.5, 5.5, 0.2, 1.0, 0.3),
        obb(5.0, 5.0, 0.05, 0.5, 1.0),
        // Larger than the viewport, centred off-screen on each side.
        obb(-6.0, 9.0, 25.0, 0.8, 0.7),
        obb(40.0, -5.0, 25.0, 0.8, 2.2),
        obb(14.0, 30.0, 60.0, 1.0, 0.0),
    ];
    for splat in &cases {
        for (w, h) in [(34, 27), (16, 16), (1, 1), (3, 40)] {
            assert_raster_matches_reference(splat, (w, h), (0, 0));
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

    /// Run insertion is item-by-item insertion: for random runs of keys
    /// (each a run of distinct items for one key, as raster hands a
    /// (primitive, tile) pair to the TC unit) into bins of capacity 1, 2
    /// and 128 over 1–4 bins, so runs fill bins and evict others midway,
    /// `insert_run` yields the same flushes — key, reason, items, order,
    /// and the item after which each occurs — the same drain and the same
    /// `BinStats` as `insert` of each item.
    #[test]
    fn run_insertion_matches_item_insertion(
        runs in proptest::collection::vec((0u32..6, 1usize..300), 1..40),
        cap_pick in 0usize..3,
        bins in 1usize..=4,
    ) {
        let cap = [1usize, 2, 128][cap_pick];
        let mut by_run: BinTable<u32, u32> = BinTable::new(bins, cap);
        let mut by_item: BinTable<u32, u32> = BinTable::new(bins, cap);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut next = 0u32;
        for &(key, len) in &runs {
            let items: Vec<u32> = (next..next + len as u32).collect();
            next += len as u32;
            let mut rest = &items[..];
            while !rest.is_empty() {
                let (n, flushes) = by_run.insert_run(key, rest);
                prop_assert!(n >= 1 && n <= rest.len(), "took {} of {}", n, rest.len());
                rest = &rest[n..];
                let at = items.len() - rest.len();
                for flush in flushes {
                    got.push((flush.key, flush.reason, flush.items.clone(), at));
                    by_run.recycle(flush.items);
                }
            }
            for (i, &item) in items.iter().enumerate() {
                for flush in by_item.insert(key, item) {
                    want.push((flush.key, flush.reason, flush.items.clone(), i + 1));
                    by_item.recycle(flush.items);
                }
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(by_run.stats(), by_item.stats());
            prop_assert_eq!(by_run.occupied(), by_item.occupied());
        }
        prop_assert_eq!(drain_all(&mut by_run), drain_all(&mut by_item));
        prop_assert_eq!(by_run.stats(), by_item.stats());
        prop_assert_eq!(by_run.insert_run(0, &[]).0, 0);
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

    /// The row-mask raster emits exactly the per-pixel reference's quads
    /// over random OBBs: thin, rotated, sub-pixel and larger than a tile,
    /// centred on or off screen, in viewports with partial edge tiles, at
    /// every valid tile pair.
    #[test]
    fn raster_matches_per_pixel_reference(
        (w, h) in (1u32..48, 1u32..48),
        (cx, cy) in (-24.0f32..72.0, -24.0f32..72.0),
        len_log in -4.0f32..5.5,
        aspect_log in -6.0f32..0.0,
        angle in 0.0f32..std::f32::consts::TAU,
    ) {
        let splat = obb(cx, cy, len_log.exp2(), aspect_log.exp2(), angle);
        assert_raster_matches_reference(&splat, (w, h), (0, 0));
    }

    /// Pixels exactly on an OBB edge, offset from a center with a long
    /// fraction so that f32 rounding of the offsets decides coverage: the
    /// row-mask raster rounds as the per-pixel test does.
    #[test]
    fn raster_matches_reference_on_rounding_boundaries(
        (cx, cy) in (0.0f32..3.0, 0.0f32..3.0),
        k in 8u32..44,
        minor in 0.5f32..6.0,
        vertical in 0u32..2,
    ) {
        // The major axis ends on pixel `k`'s center, offset as the raster
        // offsets it.
        let (major, minor) = if vertical == 0 {
            (Vec2::new(k as f32 + 0.5 - cx, 0.0), Vec2::new(0.0, minor))
        } else {
            (Vec2::new(0.0, k as f32 + 0.5 - cy), Vec2::new(minor, 0.0))
        };
        let splat = Splat {
            axis_major: major,
            axis_minor: minor,
            ..obb(cx, cy, 1.0, 1.0, 0.0)
        };
        assert_raster_matches_reference(&splat, (48, 48), (0, 0));
    }
}
