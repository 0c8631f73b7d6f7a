//! Deterministic corruption injection for the asset chaos suite — the
//! ingestion-boundary sibling of `vrpipe::serve::faults`.
//!
//! A [`Corruption`] is a pure, total transformation of a byte buffer:
//! applying one never panics regardless of buffer size (offsets are
//! reduced modulo the length), so the chaos tests can drive the decoder
//! with *any* plan against *any* file. [`seeded_corruptions`] derives a
//! replayable plan from a seed with the repo's standard SplitMix64
//! stream, mirroring how `FaultPlan::seeded` drives the serve chaos
//! suite.

use super::{HEADER_LEN, SECTION_COUNT, TABLE_ENTRY_LEN};

/// One way to damage an encoded asset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Keep only the first `n` bytes (`n` is clamped to the buffer).
    TruncateAt(usize),
    /// Flip bit `bit & 7` of the byte at `offset % len`.
    BitFlip {
        /// Byte offset (reduced modulo the buffer length).
        offset: usize,
        /// Bit index within the byte (reduced modulo 8).
        bit: u8,
    },
    /// XOR the stored CRC32 of section-table entry `section %
    /// SECTION_COUNT` with a non-zero constant, so the table lies about
    /// an intact payload.
    ClobberSectionCrc {
        /// Section-table index (reduced modulo [`SECTION_COUNT`]).
        section: usize,
    },
}

impl Corruption {
    /// Applies the corruption, returning the damaged copy. Total: for
    /// any input (including empty or far-too-short buffers) this returns
    /// without panicking, degrading to a no-op where the target bytes do
    /// not exist.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match *self {
            Corruption::TruncateAt(n) => out.truncate(n),
            Corruption::BitFlip { offset, bit } => {
                if !out.is_empty() {
                    let i = offset % out.len();
                    out[i] ^= 1 << (bit & 7);
                }
            }
            Corruption::ClobberSectionCrc { section } => {
                let entry = HEADER_LEN + (section % SECTION_COUNT) * TABLE_ENTRY_LEN;
                let crc_at = entry + 4;
                if out.len() >= crc_at + 4 {
                    for b in &mut out[crc_at..crc_at + 4] {
                        *b ^= 0xA5;
                    }
                }
            }
        }
        out
    }
}

/// SplitMix64 step — the repo's standard seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-determined plan of `n` corruptions for a file of `len` bytes.
/// Identical `(seed, len, n)` yield identical plans — a failing chaos
/// run replays bit for bit.
pub fn seeded_corruptions(seed: u64, len: usize, n: usize) -> Vec<Corruption> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match splitmix(&mut state) % 4 {
            0 => Corruption::TruncateAt(splitmix(&mut state) as usize % len.max(1)),
            1 => Corruption::ClobberSectionCrc {
                section: splitmix(&mut state) as usize % SECTION_COUNT,
            },
            // Bit flips twice as often: they probe every region of the
            // layout, including header and table bytes.
            _ => Corruption::BitFlip {
                offset: splitmix(&mut state) as usize % len.max(1),
                bit: (splitmix(&mut state) % 8) as u8,
            },
        };
        out.push(kind);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruptions_are_total_on_degenerate_buffers() {
        let kinds = [
            Corruption::TruncateAt(10),
            Corruption::BitFlip {
                offset: 99,
                bit: 200,
            },
            Corruption::ClobberSectionCrc { section: 42 },
        ];
        for k in kinds {
            assert!(k.apply(&[]).is_empty() || !k.apply(&[]).is_empty());
            let _ = k.apply(&[7]);
            let _ = k.apply(&[0; 16]);
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = seeded_corruptions(0xC0FFEE, 4096, 16);
        let b = seeded_corruptions(0xC0FFEE, 4096, 16);
        assert_eq!(a, b);
        let c = seeded_corruptions(0xBEEF, 4096, 16);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        assert!(
            seeded_corruptions(1, 0, 4).len() == 4,
            "len 0 must not panic"
        );
    }
}
