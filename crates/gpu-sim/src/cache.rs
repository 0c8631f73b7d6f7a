//! A set-associative cache model with LRU replacement, used for the CROP
//! color cache and the ZROP z-cache (paper §VII-A: the CROP cache is a
//! 16 KB per-GPC structure in front of the L2).

use crate::stats::CacheStats;

/// Set-associative LRU cache over 64-bit line addresses.
///
/// Tracks hits/misses/writebacks; the caller converts byte addresses to
/// line addresses. No data storage — this is a tag-only timing model.
///
/// The lines live in one set-major array (`ways` entries per set) with a
/// fill count per set, so [`Cache::reset`] restores the power-on state by
/// zeroing the counts and a reused cache allocates nothing.
///
/// # Examples
///
/// ```
/// use gpu_sim::cache::Cache;
/// let mut c = Cache::new(1024, 128, 2); // 8 lines, 2-way, 4 sets
/// assert!(!c.access(0, false)); // cold miss
/// assert!(c.access(0, false));  // hit
/// c.reset();
/// assert!(!c.access(0, false)); // cold again
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × ways` lines; set `s` owns `lines[s * ways..][..fill[s]]`.
    lines: Vec<Line>,
    /// Valid lines per set.
    fill: Vec<u32>,
    set_mask: u64,
    stats: CacheStats,
    ways: usize,
    /// Geometry as passed to [`Cache::new`].
    geometry: (usize, usize, usize),
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotonic timestamp of last touch (LRU).
    lru: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (zero sizes, `size` not a
    /// multiple of `line × ways`, or a non-power-of-two set count).
    pub fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        if let Some(why) = Self::geometry_error(size_bytes, line_bytes, ways) {
            panic!("{why}");
        }
        let lines = size_bytes / line_bytes;
        let sets = lines / ways;
        Self {
            lines: vec![Line::default(); lines],
            fill: vec![0; sets],
            set_mask: sets as u64 - 1,
            stats: CacheStats::default(),
            ways,
            geometry: (size_bytes, line_bytes, ways),
        }
    }

    /// Why [`Cache::new`] would reject this geometry, if it would.
    pub fn geometry_error(
        size_bytes: usize,
        line_bytes: usize,
        ways: usize,
    ) -> Option<&'static str> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Some("zero cache geometry");
        }
        let lines = size_bytes / line_bytes;
        if lines < ways || !lines.is_multiple_of(ways) {
            return Some("size must be a multiple of line*ways");
        }
        (!(lines / ways).is_power_of_two()).then_some("set count must be a power of two")
    }

    /// Whether this cache was built by `Cache::new(size_bytes, line_bytes,
    /// ways)`.
    pub fn has_geometry(&self, size_bytes: usize, line_bytes: usize, ways: usize) -> bool {
        self.geometry == (size_bytes, line_bytes, ways)
    }

    /// Accesses the line containing `line_addr` (already divided by line
    /// size). Returns `true` on hit. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> bool {
        self.touch(line_addr, write).0
    }

    /// `n >= 1` consecutive accesses to the line containing `line_addr`:
    /// the same statistics, LRU stamps and dirty bits as `n` calls of
    /// [`Cache::access`], for one set scan. Returns whether the first
    /// access hit; the other `n - 1` always do.
    pub fn access_run(&mut self, line_addr: u64, write: bool, n: u32) -> bool {
        let (hit, slot) = self.touch(line_addr, write);
        if n > 1 {
            let extra = n as u64 - 1;
            // Access `k` of the run is stamped with the access count
            // before it; the line keeps the last one.
            self.lines[slot].lru = self.stats.hits + self.stats.misses + extra - 1;
            self.stats.hits += extra;
        }
        hit
    }

    /// [`Cache::access`], also returning the index in `lines` of the line
    /// it touched.
    fn touch(&mut self, line_addr: u64, write: bool) -> (bool, usize) {
        let stamp = self.stats.hits + self.stats.misses;
        let s = (line_addr & self.set_mask) as usize;
        let fill = &mut self.fill[s];
        let set = &mut self.lines[s * self.ways..(s + 1) * self.ways];
        if let Some((i, line)) = set[..*fill as usize]
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.tag == line_addr)
        {
            line.lru = stamp;
            line.dirty |= write;
            self.stats.hits += 1;
            return (true, s * self.ways + i);
        }
        self.stats.misses += 1;
        let new = Line {
            tag: line_addr,
            dirty: write,
            lru: stamp,
        };
        if *fill as usize == self.ways {
            // Replace the LRU line (the first one on a tie). The last line
            // moves into the victim's place and the new line goes last:
            // the order a swap-remove-then-push set keeps.
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map_or(0, |(i, _)| i);
            if set[victim].dirty {
                self.stats.writebacks += 1;
            }
            set[victim] = set[self.ways - 1];
            set[self.ways - 1] = new;
            (false, s * self.ways + self.ways - 1)
        } else {
            set[*fill as usize] = new;
            *fill += 1;
            (false, s * self.ways + *fill as usize - 1)
        }
    }

    /// Flushes all lines, counting writebacks for dirty ones (end of draw).
    pub fn flush(&mut self) {
        for (set, fill) in self.lines.chunks_exact(self.ways).zip(&mut self.fill) {
            let dirty = set[..*fill as usize].iter().filter(|l| l.dirty).count();
            self.stats.writebacks += dirty as u64;
            *fill = 0;
        }
    }

    /// Restores the power-on state: every line invalid, statistics zeroed.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.stats = CacheStats::default();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 128, 2);
        assert!(!c.access(5, false));
        assert!(c.access(5, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, 4 sets: addresses 0, 4, 8 share set 0.
        let mut c = Cache::new(1024, 128, 2);
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // refresh 0 → 4 is LRU
        c.access(8, false); // evicts 4
        assert!(c.access(0, false), "0 should still be resident");
        assert!(!c.access(4, false), "4 should have been evicted");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(256, 128, 1); // 2 sets, direct-mapped
        c.access(0, true);
        c.access(2, false); // same set (mask 1), evicts dirty 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let mut c = Cache::new(1024, 128, 2);
        c.access(1, true);
        c.access(2, false);
        c.flush();
        assert_eq!(c.stats().writebacks, 1);
        // After flush, everything misses again.
        assert!(!c.access(1, false));
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        // 16KB, 128B lines, 8-way = 128 lines.
        let mut c = Cache::new(16 * 1024, 128, 8);
        for addr in 0..128u64 {
            c.access(addr, true);
        }
        c.reset_stats();
        for round in 0..10 {
            for addr in 0..128u64 {
                assert!(c.access(addr, true), "round {round} addr {addr}");
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut c = Cache::new(1024, 128, 2);
        c.access(1, true);
        c.access(5, false);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(1, false), "reset must invalidate every line");
        c.flush();
        assert_eq!(c.stats().writebacks, 0, "reset drops dirty lines unwritten");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(3 * 128, 128, 1);
    }
}
