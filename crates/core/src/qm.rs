//! Quad merging (QM) — paper §V-C, Figs. 14 & 15.
//!
//! The **Quad Reorder Unit** (QRU) in the PROP examines the quads of a
//! flushed TC bin in order, detects pairs that cover the same quad position
//! in the screen tile, and packs each pair into *adjacent* warp slots with
//! a merge flag. In the fragment shader, the back quad of a pair fetches
//! the front quad's fragments by warp shuffle and partially blends them
//! (legal because front-to-back blending is associative, paper Eq. 2), so
//! a single merged quad reaches the ROP.

use gpu_sim::quad::Quad;

/// One warp slot as planned by the QRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpSlot {
    /// An unmerged quad (index into the flushed bin).
    Single(usize),
    /// A merge pair `(front, back)` occupying two adjacent quad slots;
    /// `front` is the earlier (nearer) quad in bin order.
    Pair(usize, usize),
}

impl WarpSlot {
    /// Quad slots this entry occupies in the warp (a pair takes two).
    #[inline]
    pub fn slots(&self) -> usize {
        match self {
            WarpSlot::Single(_) => 1,
            WarpSlot::Pair(..) => 2,
        }
    }
}

/// The QRU's output for one TC-bin flush: the warp launch plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpPlan {
    /// Planned warps, each holding at most 8 quad slots.
    pub warps: Vec<Vec<WarpSlot>>,
    /// 128-bit merge bitmap: bit `i` set when bin quad `i` participates in
    /// a merge (front or back).
    pub merge_bitmap: u128,
    /// Number of merge pairs found.
    pub pairs: usize,
}

impl WarpPlan {
    /// Warps launched.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Occupied quad slots across all warps.
    pub fn slots_used(&self) -> usize {
        self.warps
            .iter()
            .map(|w| w.iter().map(WarpSlot::slots).sum::<usize>())
            .sum()
    }
}

/// Runs the QRU over a flushed bin (paper Fig. 14 right).
///
/// The unit scans quads from QID 0 upward, holding the last unmatched QID
/// per quad position in one of 64 registers. A second quad at an occupied
/// position forms a pair; the register is then cleared, so a third quad at
/// the same position starts a new potential pair (consecutive occurrences
/// merge, preserving per-pixel blend order under associativity).
///
/// Pairs are packed first (adjacent slots, up to 4 pairs per warp), then
/// unmerged quads fill the remaining slots using the bitmap.
///
/// # Panics
///
/// Panics when the bin exceeds the QRU's 128-entry quad buffer.
pub fn plan_warps(bin: &[Quad]) -> WarpPlan {
    let mut plan = WarpPlan::default();
    plan_warps_into(bin, &mut plan, &mut Vec::new());
    plan
}

/// A warp vector from `pool`, or a new one sized for a full warp, so a
/// recycled warp never reallocates whatever it held before.
pub(crate) fn pooled_warp(pool: &mut Vec<Vec<WarpSlot>>) -> Vec<WarpSlot> {
    pool.pop().unwrap_or_else(|| Vec::with_capacity(8))
}

/// [`plan_warps`] into a reusable plan, with flushed warp vectors recycled
/// through `pool` — the allocation-free frame-loop entry point.
///
/// # Panics
///
/// Panics when the bin exceeds the QRU's 128-entry quad buffer.
pub fn plan_warps_into(bin: &[Quad], plan: &mut WarpPlan, pool: &mut Vec<Vec<WarpSlot>>) {
    assert!(bin.len() <= 128, "QRU buffer holds at most 128 quads");
    for mut warp in plan.warps.drain(..) {
        warp.clear();
        pool.push(warp);
    }
    plan.merge_bitmap = 0;

    // 64 position registers: valid bit + 7-bit QID, as in the paper.
    let mut registers: [Option<usize>; 64] = [None; 64];
    // At most 64 pairs fit a 128-quad bin.
    let mut pairs = [(0usize, 0usize); 64];
    let mut n_pairs = 0usize;

    for (qid, quad) in bin.iter().enumerate() {
        let reg = quad.pos.register_index();
        match registers[reg] {
            Some(front) => {
                pairs[n_pairs] = (front, qid);
                n_pairs += 1;
                plan.merge_bitmap |= 1 << front;
                plan.merge_bitmap |= 1 << qid;
                registers[reg] = None;
            }
            None => registers[reg] = Some(qid),
        }
    }
    plan.pairs = n_pairs;

    // Pack: pairs first in detection order, then singles, 8 slots per warp.
    let mut current = pooled_warp(pool);
    let mut used = 0usize;
    fn push_slot(
        slot: WarpSlot,
        warps: &mut Vec<Vec<WarpSlot>>,
        current: &mut Vec<WarpSlot>,
        used: &mut usize,
        pool: &mut Vec<Vec<WarpSlot>>,
    ) {
        if *used + slot.slots() > 8 {
            let next = pooled_warp(pool);
            warps.push(std::mem::replace(current, next));
            *used = 0;
        }
        *used += slot.slots();
        current.push(slot);
    }
    for &(front, back) in &pairs[..n_pairs] {
        push_slot(
            WarpSlot::Pair(front, back),
            &mut plan.warps,
            &mut current,
            &mut used,
            pool,
        );
    }
    for single in (0..bin.len()).filter(|i| plan.merge_bitmap & (1 << i) == 0) {
        push_slot(
            WarpSlot::Single(single),
            &mut plan.warps,
            &mut current,
            &mut used,
            pool,
        );
    }
    if current.is_empty() {
        pool.push(current);
    } else {
        plan.warps.push(current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::tiles::{QuadPos, TileId};

    fn quad(pos: (u8, u8), splat: u32) -> Quad {
        Quad {
            tile: TileId { x: 0, y: 0 },
            pos: QuadPos { x: pos.0, y: pos.1 },
            origin: (pos.0 as u32 * 2, pos.1 as u32 * 2),
            coverage: 0xF,
            splat,
        }
    }

    #[test]
    fn no_overlap_no_pairs() {
        let bin: Vec<Quad> = (0..8).map(|i| quad((i, 0), i as u32)).collect();
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 0);
        assert_eq!(plan.merge_bitmap, 0);
        assert_eq!(plan.warp_count(), 1);
        assert_eq!(plan.slots_used(), 8);
    }

    #[test]
    fn overlapping_quads_pair_in_order() {
        // Quads 0 and 2 at the same position, 1 elsewhere.
        let bin = vec![quad((3, 3), 0), quad((1, 1), 1), quad((3, 3), 2)];
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 1);
        assert_eq!(plan.merge_bitmap, 0b101);
        // Pair packed first, then the single.
        assert_eq!(plan.warps[0][0], WarpSlot::Pair(0, 2));
        assert_eq!(plan.warps[0][1], WarpSlot::Single(1));
    }

    #[test]
    fn three_at_same_position_pairs_first_two() {
        let bin = vec![quad((0, 0), 0), quad((0, 0), 1), quad((0, 0), 2)];
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 1);
        assert_eq!(plan.merge_bitmap, 0b011);
        assert_eq!(plan.warps[0][0], WarpSlot::Pair(0, 1));
        assert_eq!(plan.warps[0][1], WarpSlot::Single(2));
    }

    #[test]
    fn four_at_same_position_pairs_both() {
        let bin = vec![
            quad((0, 0), 0),
            quad((0, 0), 1),
            quad((0, 0), 2),
            quad((0, 0), 3),
        ];
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 2);
        assert_eq!(plan.warps[0][0], WarpSlot::Pair(0, 1));
        assert_eq!(plan.warps[0][1], WarpSlot::Pair(2, 3));
    }

    #[test]
    fn pairs_never_straddle_warp_boundary() {
        // 5 pairs (10 slots) + 3 singles: first warp gets 4 pairs (8 slots),
        // second warp gets the fifth pair + singles.
        let mut bin = Vec::new();
        for p in 0..5u8 {
            bin.push(quad((p, 0), 0));
            bin.push(quad((p, 0), 1));
        }
        for p in 0..3u8 {
            bin.push(quad((p, 7), 2));
        }
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 5);
        assert_eq!(plan.warp_count(), 2);
        assert_eq!(plan.warps[0].len(), 4);
        assert_eq!(plan.warps[0].iter().map(WarpSlot::slots).sum::<usize>(), 8);
        assert_eq!(plan.warps[1].iter().map(WarpSlot::slots).sum::<usize>(), 5);
    }

    #[test]
    fn full_bin_of_overlaps_halves_quads() {
        // 128 quads over 64 positions, two each → 64 pairs → 16 warps of
        // 4 pairs; every ROP quad halved.
        let mut bin = Vec::new();
        for i in 0..128usize {
            let p = (i % 64) as u8;
            bin.push(quad((p % 8, p / 8), i as u32));
        }
        let plan = plan_warps(&bin);
        assert_eq!(plan.pairs, 64);
        assert_eq!(plan.warp_count(), 16);
        assert_eq!(plan.merge_bitmap, u128::MAX);
    }

    #[test]
    fn reused_plan_matches_fresh_plan() {
        let mut plan = WarpPlan::default();
        let mut pool = Vec::new();
        for round in 0..4u8 {
            let bin: Vec<Quad> = (0..(32 + round as usize * 17))
                .map(|i| quad(((i % 8) as u8, ((i / 8) % 8) as u8), i as u32))
                .collect();
            plan_warps_into(&bin, &mut plan, &mut pool);
            assert_eq!(plan, plan_warps(&bin), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "128")]
    fn oversized_bin_panics() {
        let bin: Vec<Quad> = (0..129).map(|_| quad((0, 0), 0)).collect();
        let _ = plan_warps(&bin);
    }
}
