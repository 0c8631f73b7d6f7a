//! Quad merging (QM) — paper §V-C, Figs. 14 & 15.
//!
//! The **Quad Reorder Unit** (QRU) in the PROP examines the quads of a
//! flushed TC bin in order, detects pairs that cover the same quad position
//! in the screen tile, and packs each pair into *adjacent* warp slots with
//! a merge flag. In the fragment shader, the back quad of a pair fetches
//! the front quad's fragments by warp shuffle and partially blends them
//! (legal because front-to-back blending is associative, paper Eq. 2), so
//! a single merged quad reaches the ROP.
//!
//! The model keeps the QRU's register scan ([`QuadPairs::scan`]) and
//! counts its warp packing in closed form ([`warp_counts`]): the draw needs
//! only the pairs and three counts, never the warps themselves.

use gpu_sim::config::MAX_TC_BIN_SIZE;
use gpu_sim::tiles::QuadPos;

/// Quad slots per warp: 32 threads at one thread per fragment.
const WARP_QUADS: usize = 8;

/// An empty position register (QIDs are 7-bit).
const EMPTY: u8 = u8::MAX;

/// The QRU's pairing of one flushed TC bin: which quads merge with which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadPairs {
    /// `back[f]`: bin index of the back quad of the pair whose front is
    /// quad `f` (meaningful where `fronts` has bit `f`).
    back: [u8; MAX_TC_BIN_SIZE],
    /// Bit `i` set when bin quad `i` is the front (earlier) quad of a pair.
    pub fronts: u128,
    /// Bit `i` set when bin quad `i` is the back (later) quad of a pair.
    pub backs: u128,
}

impl QuadPairs {
    /// No pairs: what a pipeline without QM launches.
    pub const NONE: Self = Self {
        back: [0; MAX_TC_BIN_SIZE],
        fronts: 0,
        backs: 0,
    };

    /// Runs the QRU's register scan (paper Fig. 14 right) over the quads
    /// of a flushed bin, given as `(bin index, position)` in bin order.
    ///
    /// The unit holds the last unmatched QID per quad position in one of
    /// 64 registers. A second quad at an occupied position forms a pair;
    /// the register is then cleared, so a third quad at the same position
    /// starts a new potential pair (consecutive occurrences merge,
    /// preserving per-pixel blend order under associativity).
    ///
    /// # Panics
    ///
    /// Panics when a bin index exceeds the QRU's 128-entry quad buffer.
    pub fn scan(quads: impl IntoIterator<Item = (usize, QuadPos)>) -> Self {
        let mut pairs = Self::NONE;
        // 64 position registers: valid bit + 7-bit QID, as in the paper.
        let mut registers = [EMPTY; 64];
        for (qid, pos) in quads {
            assert!(
                qid < MAX_TC_BIN_SIZE,
                "QRU buffer holds at most {MAX_TC_BIN_SIZE} quads"
            );
            let reg = &mut registers[pos.register_index()];
            match *reg {
                EMPTY => *reg = qid as u8,
                front => {
                    pairs.back[front as usize] = qid as u8;
                    pairs.fronts |= 1 << front;
                    pairs.backs |= 1 << qid;
                    *reg = EMPTY;
                }
            }
        }
        pairs
    }

    /// The back quad paired with quad `front`, if `front` fronts a pair.
    #[inline]
    pub fn back_of(&self, front: usize) -> Option<usize> {
        (front < MAX_TC_BIN_SIZE && self.fronts >> front & 1 != 0)
            .then(|| self.back[front] as usize)
    }

    /// Number of merge pairs.
    pub fn count(&self) -> usize {
        self.fronts.count_ones() as usize
    }
}

/// The warps the QRU launches for one flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpCounts {
    /// Warps launched.
    pub warps: usize,
    /// Occupied quad slots across all warps.
    pub slots: usize,
    /// Warps holding at least one merge pair (they run the merge epilogue).
    pub warps_with_pair: usize,
}

/// Warp accounting of a flush of `quads` shaded quads holding `pairs`
/// merge pairs.
///
/// The QRU packs pairs first, in detection order, into adjacent slots (up
/// to four per 8-slot warp), then fills the remaining slots with unmerged
/// quads. A pair takes two slots and a warp eight, so no slot is left
/// empty before the last warp: `⌈quads/8⌉` warps, `quads` slots, and the
/// pairs in the first `⌈pairs/4⌉` warps. Without QM (`pairs == 0`) this is
/// quads in bin order, eight per warp.
pub fn warp_counts(quads: usize, pairs: usize) -> WarpCounts {
    debug_assert!(2 * pairs <= quads, "{pairs} pairs in {quads} quads");
    WarpCounts {
        warps: quads.div_ceil(WARP_QUADS),
        slots: quads,
        warps_with_pair: pairs.div_ceil(WARP_QUADS / 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans quads at `positions` (x, y), in bin order.
    fn scan(positions: &[(u8, u8)]) -> QuadPairs {
        QuadPairs::scan(
            positions
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (i, QuadPos { x, y })),
        )
    }

    #[test]
    fn no_overlap_no_pairs() {
        let positions: Vec<(u8, u8)> = (0..8).map(|i| (i, 0)).collect();
        let pairs = scan(&positions);
        assert_eq!(pairs, QuadPairs::NONE);
        assert_eq!(pairs.fronts | pairs.backs, 0);
        let w = warp_counts(positions.len(), pairs.count());
        assert_eq!((w.warps, w.slots, w.warps_with_pair), (1, 8, 0));
    }

    #[test]
    fn overlapping_quads_pair_in_order() {
        // Quads 0 and 2 at the same position, 1 elsewhere.
        let pairs = scan(&[(3, 3), (1, 1), (3, 3)]);
        assert_eq!(pairs.count(), 1);
        assert_eq!(pairs.fronts | pairs.backs, 0b101);
        assert_eq!(pairs.back_of(0), Some(2));
        assert_eq!(pairs.back_of(1), None);
        assert_eq!(pairs.back_of(2), None);
        assert_eq!(pairs.backs, 0b100);
    }

    #[test]
    fn three_at_same_position_pairs_first_two() {
        let pairs = scan(&[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(pairs.count(), 1);
        assert_eq!(pairs.fronts | pairs.backs, 0b011);
        assert_eq!(pairs.back_of(0), Some(1));
        assert_eq!(pairs.back_of(2), None);
    }

    #[test]
    fn four_at_same_position_pairs_both() {
        let pairs = scan(&[(0, 0), (0, 0), (0, 0), (0, 0)]);
        assert_eq!(pairs.count(), 2);
        assert_eq!(pairs.back_of(0), Some(1));
        assert_eq!(pairs.back_of(2), Some(3));
        assert_eq!(pairs.fronts, 0b0101);
        assert_eq!(pairs.backs, 0b1010);
    }

    #[test]
    fn pairs_never_straddle_warp_boundary() {
        // 5 pairs (10 slots) + 3 singles: the first warp gets 4 pairs (8
        // slots), the second the fifth pair + the singles (5 slots).
        let mut positions = Vec::new();
        for p in 0..5u8 {
            positions.extend([(p, 0), (p, 0)]);
        }
        positions.extend((0..3u8).map(|p| (p, 7)));
        let pairs = scan(&positions);
        assert_eq!(pairs.count(), 5);
        let w = warp_counts(positions.len(), pairs.count());
        assert_eq!((w.warps, w.slots, w.warps_with_pair), (2, 13, 2));
        // Four pairs fill a warp exactly; a single then opens the next.
        let w = warp_counts(9, 4);
        assert_eq!((w.warps, w.warps_with_pair), (2, 1));
    }

    #[test]
    fn full_bin_of_overlaps_halves_quads() {
        // 128 quads over 64 positions, two each → 64 pairs → 16 warps of
        // 4 pairs; every ROP quad halved.
        let positions: Vec<(u8, u8)> = (0..128usize)
            .map(|i| ((i % 64) as u8 % 8, (i % 64) as u8 / 8))
            .collect();
        let pairs = scan(&positions);
        assert_eq!(pairs.count(), 64);
        assert_eq!(pairs.fronts | pairs.backs, u128::MAX);
        let w = warp_counts(128, 64);
        assert_eq!((w.warps, w.warps_with_pair), (16, 16));
    }

    #[test]
    #[should_panic(expected = "128")]
    fn oversized_bin_panics() {
        let _ = scan(&[(0, 0); 129]);
    }
}
