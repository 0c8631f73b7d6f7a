//! Depth sorting of splats, modelled after the GPU radix sort (NVIDIA CUB)
//! the paper uses: splats are sorted front-to-back by camera-space depth
//! using a stable LSD radix sort over order-preserving float keys.
//!
//! The sort is *fused*: all four 8-bit digit histograms are computed in a
//! single sweep over the keys, passes whose digit is constant across every
//! key are skipped outright (common for clustered depths, where the high
//! bytes barely vary), and the sort permutes packed `(key, index)` pairs so
//! the inner scatter loop never chases the `keys[order[i]]` indirection.
//! With a reusable [`SortScratch`] the hot path performs no allocation.

/// Converts an `f32` depth into a radix-sortable `u32` key.
///
/// Standard order-preserving transform: flip the sign bit for positive
/// floats, flip all bits for negative ones. Total order matches `f32`
/// comparison for all non-NaN inputs.
///
/// # Examples
///
/// ```
/// use gsplat::sort::depth_key;
/// assert!(depth_key(1.0) < depth_key(2.0));
/// assert!(depth_key(-1.0) < depth_key(0.5));
/// ```
#[inline]
pub fn depth_key(depth: f32) -> u32 {
    let bits = depth.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Reusable buffers for the fused radix sort, so per-frame sorting
/// allocates nothing once warmed up.
#[derive(Debug, Default, Clone)]
pub struct SortScratch {
    /// Packed `(key << 32) | index` pairs (ping buffer).
    pairs: Vec<u64>,
    /// Scatter destination (pong buffer).
    swap: Vec<u64>,
    /// Depth keys staging buffer for [`sort_splats_by_depth_into`].
    keys: Vec<u32>,
}

/// Stable LSD radix sort (8-bit digits) of indices by `u32` key.
///
/// Returns a permutation `order` such that `keys[order[i]]` is
/// non-decreasing, with ties kept in input order (stability matters for
/// reproducible blend order between renderer variants).
///
/// # Examples
///
/// ```
/// use gsplat::sort::radix_argsort;
/// let order = radix_argsort(&[30, 10, 20, 10]);
/// assert_eq!(order, vec![1, 3, 2, 0]);
/// ```
pub fn radix_argsort(keys: &[u32]) -> Vec<u32> {
    let mut scratch = SortScratch::default();
    let mut order = Vec::new();
    radix_argsort_into(keys, &mut scratch, &mut order);
    order
}

/// [`radix_argsort`] into caller-provided buffers (no allocation once the
/// scratch has warmed up). `order` is cleared and refilled.
pub fn radix_argsort_into(keys: &[u32], scratch: &mut SortScratch, order: &mut Vec<u32>) {
    let n = keys.len();
    order.clear();
    if n <= 1 {
        order.extend(0..n as u32);
        return;
    }
    assert!(n <= u32::MAX as usize, "radix sort index domain is u32");

    // --- Fused histogram sweep: all four digit histograms in one pass,
    // while packing (key, index) pairs so later passes touch one buffer.
    let mut histograms = [[0usize; 256]; 4];
    scratch.pairs.clear();
    scratch.pairs.reserve(n);
    for (i, &key) in keys.iter().enumerate() {
        for (pass, histogram) in histograms.iter_mut().enumerate() {
            histogram[(key >> (pass * 8)) as usize & 0xFF] += 1;
        }
        scratch.pairs.push((key as u64) << 32 | i as u64);
    }
    scratch.swap.clear();
    scratch.swap.resize(n, 0);

    let mut src = &mut scratch.pairs;
    let mut dst = &mut scratch.swap;
    for (pass, histogram) in histograms.iter().enumerate() {
        // Pass skipping: a digit that is constant over every key cannot
        // change the order — clustered depths typically skip 1-2 passes.
        if histogram.contains(&n) {
            continue;
        }
        let shift = 32 + pass * 8;
        let mut offsets = [0usize; 256];
        let mut running = 0;
        for (offset, &count) in offsets.iter_mut().zip(histogram.iter()) {
            *offset = running;
            running += count;
        }
        for &pair in src.iter() {
            let digit = (pair >> shift) as usize & 0xFF;
            dst[offsets[digit]] = pair;
            offsets[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }

    order.extend(src.iter().map(|&pair| pair as u32));
}

/// Sorts splat indices front-to-back by depth.
///
/// This is the single global sort hardware rendering needs (paper §III-A:
/// no per-tile duplication/sorting, unlike the CUDA renderer).
pub fn sort_splats_by_depth(depths: &[f32]) -> Vec<u32> {
    let mut scratch = SortScratch::default();
    let mut order = Vec::new();
    sort_splats_by_depth_into(depths, &mut scratch, &mut order);
    order
}

/// [`sort_splats_by_depth`] into caller-provided buffers (the
/// allocation-free frame-loop entry point).
pub fn sort_splats_by_depth_into(depths: &[f32], scratch: &mut SortScratch, order: &mut Vec<u32>) {
    let mut keys = std::mem::take(&mut scratch.keys);
    keys.clear();
    keys.extend(depths.iter().map(|&d| depth_key(d)));
    radix_argsort_into(&keys, scratch, order);
    scratch.keys = keys;
}

/// Counters of the incremental re-sort across a frame sequence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResortStats {
    /// Frames sorted through the sorter.
    pub frames: u64,
    /// Frames resolved by the insertion-repair fast path.
    pub repaired: u64,
    /// Frames that fell back to the fused radix sort (first frame,
    /// splat-count changes, or repair-budget overruns).
    pub radix_fallbacks: u64,
    /// Total element moves performed by successful repairs — the measure
    /// of inter-frame disorder the fast path absorbed.
    pub repair_shifts: u64,
}

/// Per-frame budget multiplier for the insertion repair: a repair may move
/// at most `REPAIR_BUDGET_PER_KEY × n` elements before the sorter abandons
/// it for the fused radix fallback. Each radix pass is a histogram walk
/// plus a random-access scatter over `n` packed pairs (up to four passes),
/// while repair shifts are sequential single-word moves — eight shifts per
/// key is the approximate break-even, so the fast path never costs more
/// than the sort it replaces.
const REPAIR_BUDGET_PER_KEY: usize = 8;

/// Frame-to-frame incremental depth sorter for temporally coherent
/// sequences.
///
/// Consecutive frames of a continuous camera path see nearly identical
/// depth orders, so instead of re-sorting from scratch the sorter replays
/// the *previous* frame's sorted order under the new keys and repairs the
/// residual disorder with a budgeted insertion pass. Elements are tracked
/// by a caller-supplied stable **id** (for splats, the source Gaussian
/// index), so per-frame visibility churn — splats entering or leaving the
/// frustum — only perturbs the warm start instead of invalidating it.
///
/// Sorting is over packed `(key, index)` pairs — a **total** order with no
/// ties — so any correct sort produces the identical unique result: the
/// output is bit-exact with [`radix_argsort_into`] by construction, and
/// the radix fallback (taken on the first frame and whenever the repair
/// budget is exceeded) changes performance, never results.
///
/// # Examples
///
/// ```
/// use gsplat::sort::{radix_argsort, IncrementalSorter};
/// let mut sorter = IncrementalSorter::default();
/// let mut order = Vec::new();
/// let frame0 = [5.0f32, 1.0, 3.0];
/// let frame1 = [5.1f32, 0.9, 3.2]; // coherent: same order
/// let ids = [0u32, 1, 2]; // the same three elements in both frames
/// sorter.sort_depths_with_ids_into(&frame0, &ids, &mut order);
/// sorter.sort_depths_with_ids_into(&frame1, &ids, &mut order);
/// assert_eq!(order, vec![1, 2, 0]);
/// assert_eq!(sorter.stats().repaired, 1);
/// ```
#[derive(Debug, Default)]
pub struct IncrementalSorter {
    /// Previous frame's element ids in sorted order (the warm start).
    prev_ids: Vec<u32>,
    /// id → current-frame index map (`u32::MAX` = not present/consumed).
    id_map: Vec<u32>,
    /// Working `(key << 32) | index` pairs for the repair pass.
    pairs: Vec<u64>,
    /// Fallback radix buffers + key staging.
    scratch: SortScratch,
    stats: ResortStats,
}

const ID_ABSENT: u32 = u32::MAX;

impl IncrementalSorter {
    /// The accumulated re-sort counters.
    pub fn stats(&self) -> ResortStats {
        self.stats
    }

    /// Forgets the warm-start order (the next frame takes the radix path).
    /// Counters are preserved.
    pub fn invalidate(&mut self) {
        self.prev_ids.clear();
    }

    /// Sorts splat indices front-to-back by depth, warm-starting from the
    /// previous call's order; bit-exact with [`sort_splats_by_depth_into`].
    /// `ids[i]` is element `i`'s stable identity across frames; ids must
    /// be unique within a frame and should be dense, e.g. scene Gaussian
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics when `ids.len() != depths.len()` or an id is `u32::MAX`.
    pub fn sort_depths_with_ids_into(&mut self, depths: &[f32], ids: &[u32], order: &mut Vec<u32>) {
        assert_eq!(ids.len(), depths.len(), "one id per element");
        let mut keys = std::mem::take(&mut self.scratch.keys);
        keys.clear();
        keys.extend(depths.iter().map(|&d| depth_key(d)));
        self.sort_with_ids_into(&keys, Some(ids), order);
        self.scratch.keys = keys;
    }

    /// Sorts indices by `u32` key with identity ids, warm-starting from
    /// the previous call's order. Bit-exact with [`radix_argsort_into`].
    pub fn sort_keys_into(&mut self, keys: &[u32], order: &mut Vec<u32>) {
        self.sort_with_ids_into(keys, None, order);
    }

    /// [`IncrementalSorter::sort_keys_into`] with explicit per-element
    /// stable ids (see [`IncrementalSorter::sort_depths_with_ids_into`]).
    ///
    /// # Panics
    ///
    /// Panics when `ids.len() != keys.len()` or an id is `u32::MAX`.
    pub fn sort_keys_with_ids_into(&mut self, keys: &[u32], ids: &[u32], order: &mut Vec<u32>) {
        assert_eq!(ids.len(), keys.len(), "one id per element");
        self.sort_with_ids_into(keys, Some(ids), order);
    }

    fn sort_with_ids_into(&mut self, keys: &[u32], ids: Option<&[u32]>, order: &mut Vec<u32>) {
        self.stats.frames += 1;
        let n = keys.len();
        let warm = !self.prev_ids.is_empty()
            && n > 1
            && self.prev_ids.len().abs_diff(n) <= n / 4
            && self.try_repair(keys, ids, order);
        if warm {
            self.stats.repaired += 1;
        } else {
            radix_argsort_into(keys, &mut self.scratch, order);
            self.stats.radix_fallbacks += 1;
        }
        self.prev_ids.clear();
        match ids {
            Some(ids) => self.prev_ids.extend(order.iter().map(|&i| ids[i as usize])),
            None => self.prev_ids.extend_from_slice(order),
        }
    }

    /// Replays the previous sorted order under the new keys (matching
    /// elements by id, appending newcomers at the back) and insertion-
    /// repairs it in place. Returns `false` (leaving `order` untouched)
    /// when the shift budget is exhausted.
    fn try_repair(&mut self, keys: &[u32], ids: Option<&[u32]>, order: &mut Vec<u32>) -> bool {
        let n = keys.len();
        // id → index map for this frame. With identity ids this is the
        // identity table; with explicit ids it is sized to the id domain.
        let max_id = match ids {
            Some(ids) => ids.iter().copied().max().unwrap_or(0) as usize,
            None => n.saturating_sub(1),
        };
        self.id_map.clear();
        self.id_map.resize(max_id + 1, ID_ABSENT);
        for i in 0..n as u32 {
            let id = ids.map_or(i, |ids| ids[i as usize]);
            assert!(id != ID_ABSENT, "id u32::MAX is reserved");
            debug_assert!(self.id_map[id as usize] == ID_ABSENT, "duplicate id {id}");
            self.id_map[id as usize] = i;
        }

        // Warm-start candidate: surviving elements in last frame's order…
        self.pairs.clear();
        for &id in &self.prev_ids {
            if let Some(&idx) = self.id_map.get(id as usize) {
                if idx != ID_ABSENT {
                    self.pairs.push(pack(keys[idx as usize], idx));
                    self.id_map[id as usize] = ID_ABSENT;
                }
            }
        }
        // …then newcomers (ids unseen last frame) appended at the back;
        // the repair pass walks each to its sorted slot.
        if self.pairs.len() < n {
            for i in 0..n as u32 {
                let id = ids.map_or(i, |ids| ids[i as usize]);
                if self.id_map[id as usize] != ID_ABSENT {
                    self.pairs.push(pack(keys[i as usize], i));
                }
            }
        }
        if self.pairs.len() != n {
            // Duplicate ids collapsed entries: the candidate is unusable.
            return false;
        }

        let budget = REPAIR_BUDGET_PER_KEY * n;
        let pairs = &mut self.pairs[..];
        let mut shifts = 0usize;
        for i in 1..n {
            let p = pairs[i];
            if pairs[i - 1] <= p {
                continue;
            }
            // Shift the sorted prefix right until `p`'s slot opens.
            let mut j = i;
            while j > 0 && pairs[j - 1] > p {
                pairs[j] = pairs[j - 1];
                j -= 1;
            }
            shifts += i - j;
            if shifts > budget {
                return false;
            }
            pairs[j] = p;
        }
        self.stats.repair_shifts += shifts as u64;
        order.clear();
        order.extend(pairs.iter().map(|&p| p as u32));
        true
    }
}

#[inline]
fn pack(key: u32, index: u32) -> u64 {
    (key as u64) << 32 | index as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_key_preserves_order() {
        let samples = [-10.0f32, -0.5, -0.0, 0.0, 0.25, 1.0, 1e6];
        for w in samples.windows(2) {
            assert!(depth_key(w[0]) <= depth_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn radix_sorts_random_keys() {
        let keys: Vec<u32> = (0..1000)
            .map(|i| (i * 2654435761u64 % 100000) as u32)
            .collect();
        let order = radix_argsort(&keys);
        for w in order.windows(2) {
            assert!(keys[w[0] as usize] <= keys[w[1] as usize]);
        }
        // Order is a permutation.
        let mut seen = vec![false; keys.len()];
        for &i in &order {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
    }

    #[test]
    fn radix_is_stable() {
        let keys = [5u32, 1, 5, 1, 5];
        let order = radix_argsort(&keys);
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn sort_splats_front_to_back() {
        let depths = [10.0f32, 2.0, 7.5, 0.1];
        let order = sort_splats_by_depth(&depths);
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(radix_argsort(&[]).is_empty());
        assert_eq!(radix_argsort(&[42]), vec![0]);
    }

    #[test]
    fn pass_skipping_keeps_clustered_keys_sorted() {
        // All keys share the upper three bytes: three passes skip.
        let keys: Vec<u32> = (0..500).map(|i| 0xABCD_EF00 | ((i * 37) % 256)).collect();
        let order = radix_argsort(&keys);
        for w in order.windows(2) {
            assert!(keys[w[0] as usize] <= keys[w[1] as usize]);
        }
        // Fully constant keys: every pass skips, order is identity.
        let constant = vec![7u32; 64];
        assert_eq!(radix_argsort(&constant), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn scratch_reuse_matches_fresh_sort() {
        let mut scratch = SortScratch::default();
        let mut order = Vec::new();
        for round in 0..5u32 {
            let keys: Vec<u32> = (0..200 + round * 130)
                .map(|i| (i ^ (round * 0x9E37)).wrapping_mul(2654435761u32) % 10_000)
                .collect();
            radix_argsort_into(&keys, &mut scratch, &mut order);
            assert_eq!(order, radix_argsort(&keys), "round {round}");
        }
    }

    #[test]
    fn incremental_first_frame_falls_back_to_radix() {
        let keys = [30u32, 10, 20, 10];
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        sorter.sort_keys_into(&keys, &mut order);
        assert_eq!(order, radix_argsort(&keys));
        assert_eq!(sorter.stats().radix_fallbacks, 1);
        assert_eq!(sorter.stats().repaired, 0);
    }

    #[test]
    fn incremental_matches_radix_across_coherent_frames() {
        // A drifting key stream: each frame perturbs keys slightly, the
        // exact temporal-coherence profile of a camera path.
        let n = 400usize;
        let mut keys: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) % 50_000)
            .collect();
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        for frame in 0..6u32 {
            for (i, k) in keys.iter_mut().enumerate() {
                // Deterministic small drift, occasionally swapping ranks.
                let delta = (i as u32).wrapping_mul(frame + 1) % 7;
                *k = k.wrapping_add(delta);
            }
            sorter.sort_keys_into(&keys, &mut order);
            assert_eq!(order, radix_argsort(&keys), "frame {frame}");
        }
        let s = sorter.stats();
        assert_eq!(s.frames, 6);
        assert_eq!(s.radix_fallbacks, 1, "only the first frame is cold");
        assert_eq!(s.repaired, 5);
    }

    #[test]
    fn incremental_handles_count_changes_and_chaos() {
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        // Frame 0: 100 keys. Frame 1: 90 keys — identity ids 90..99 left
        // the set, but the survivors keep their order, so the warm start
        // repairs through the membership change.
        let a: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(37) % 512).collect();
        sorter.sort_keys_into(&a, &mut order);
        let b: Vec<u32> = (0..90u32).map(|i| i.wrapping_mul(37) % 512).collect();
        sorter.sort_keys_into(&b, &mut order);
        assert_eq!(order, radix_argsort(&b));
        assert_eq!(sorter.stats().repaired, 1);
        // Frame 2: same count but an adversarially-reversed key stream —
        // the repair budget blows and the radix fallback still yields the
        // exact answer.
        let c: Vec<u32> = (0..90u32)
            .map(|i| 1000 - i.wrapping_mul(37) % 512)
            .collect();
        sorter.sort_keys_into(&c, &mut order);
        assert_eq!(order, radix_argsort(&c));
        assert_eq!(sorter.stats().radix_fallbacks, 2);
        // Frame 3: the set halves (beyond the 25% churn guard → fallback).
        let d: Vec<u32> = c[..40].to_vec();
        sorter.sort_keys_into(&d, &mut order);
        assert_eq!(order, radix_argsort(&d));
        assert_eq!(sorter.stats().radix_fallbacks, 3);
        // And the sorter recovers: the next coherent frame repairs again.
        sorter.sort_keys_into(&d, &mut order);
        assert_eq!(order, radix_argsort(&d));
        assert_eq!(sorter.stats().repaired, 2);
    }

    #[test]
    fn incremental_preserves_tie_stability() {
        let keys = [5u32, 1, 5, 1, 5];
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        sorter.sort_keys_into(&keys, &mut order);
        // Warm frame with identical keys: repair path, same stable order.
        sorter.sort_keys_into(&keys, &mut order);
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        assert_eq!(sorter.stats().repaired, 1);
    }

    #[test]
    fn incremental_invalidate_forces_radix() {
        let keys = [3u32, 2, 1, 4];
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        sorter.sort_keys_into(&keys, &mut order);
        sorter.invalidate();
        sorter.sort_keys_into(&keys, &mut order);
        assert_eq!(sorter.stats().radix_fallbacks, 2);
        assert_eq!(order, radix_argsort(&keys));
    }

    #[test]
    fn incremental_empty_and_singleton() {
        let mut sorter = IncrementalSorter::default();
        let mut order = vec![9u32];
        sorter.sort_depths_with_ids_into(&[], &[], &mut order);
        assert!(order.is_empty());
        sorter.sort_depths_with_ids_into(&[1.5], &[0], &mut order);
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn depths_with_nan_still_produce_a_permutation() {
        let depths = [1.0f32, f32::NAN, 0.5, f32::NAN, 2.0];
        let order = sort_splats_by_depth(&depths);
        let mut seen = [false; 5];
        for &i in &order {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        // Non-NaN entries are mutually ordered.
        let finite: Vec<u32> = order
            .iter()
            .copied()
            .filter(|&i| depths[i as usize].is_finite())
            .collect();
        for w in finite.windows(2) {
            assert!(depths[w[0] as usize] <= depths[w[1] as usize]);
        }
    }
}
