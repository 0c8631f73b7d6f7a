//! Hardware early termination (HET) — paper §V-B, Fig. 13.
//!
//! Three lightweight units repurpose the stencil-test hardware:
//!
//! 1. **Termination test unit** (in ZROP): at TC-bin flush, reads the
//!    stencil MSB of each quad's covered pixels and discards quads whose
//!    covered pixels are all terminated, *before* fragment shading.
//! 2. **Alpha test unit** (in CROP): after blending, checks
//!    `prev α < θ ≤ new α` — the "newly crossed" filter avoids flooding
//!    ZROP with redundant update requests (paper's bandwidth-contention
//!    argument).
//! 3. **Termination update unit** (in ZROP): sets the stencil MSB with a
//!    bitwise OR, preserving the low 7 stencil bits.
//!
//! A screen tile's flags are held as bit rows ([`TerminationRows`]): the
//! test compares a quad's 4-bit coverage with the 4 flag bits under it,
//! and an update sets one bit.

use gpu_sim::config::MAX_SCREEN_TILE_PX;
use gsplat::blend::EARLY_TERMINATION_THRESHOLD;
use gsplat::framebuffer::DepthStencilBuffer;

/// Outcome of the ZROP termination test for one quad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminationTest {
    /// `true` when at least one covered fragment is not yet terminated and
    /// the quad proceeds to shading.
    pub survives: bool,
    /// Covered fragments whose pixel is already terminated (these lanes do
    /// no useful work even if the quad survives).
    pub terminated_fragments: u32,
}

/// The termination flags (stencil MSBs) of one screen tile's pixel window,
/// one bit row per pixel row: bit `x` of row `y` is window pixel `(x, y)`.
/// Screen tiles are at most [`MAX_SCREEN_TILE_PX`] pixels wide, so a `u16`
/// holds a row; bits outside the window stay clear.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TerminationRows([u16; MAX_SCREEN_TILE_PX as usize]);

impl TerminationRows {
    /// The flags of the quad whose top-left pixel is window pixel `(x, y)`
    /// (both even), as a 4-bit mask in the fine raster's coverage fragment
    /// order ([`rasterize_in_tile_with`]).
    ///
    /// [`rasterize_in_tile_with`]: gpu_sim::raster::rasterize_in_tile_with
    #[inline]
    pub fn quad(&self, x: u32, y: u32) -> u8 {
        let row = |r: u32| (self.0[r as usize] >> x) as u8 & 3;
        row(y) | row(y + 1) << 2
    }

    /// Termination update unit: flags window pixel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32) {
        self.0[y as usize] |= 1 << x;
    }

    /// `true` when every pixel of a `w`×`h` window is flagged.
    pub fn all(&self, w: u32, h: u32) -> bool {
        let full = ((1u32 << w) - 1) as u16;
        self.0[..h as usize].iter().all(|&row| row & full == full)
    }

    /// Sets the stencil MSB in `ds` of every flagged pixel, for a window
    /// whose top-left pixel is `(x0, y0)`; the low stencil bits stay.
    pub fn write_back(&self, ds: &mut DepthStencilBuffer, x0: u32, y0: u32) {
        for (y, &row) in (y0..).zip(&self.0) {
            let mut bits = row;
            while bits != 0 {
                ds.set_terminated(x0 + bits.trailing_zeros(), y);
                bits &= bits - 1;
            }
        }
    }
}

/// Termination test unit: checks a quad's 4-bit `coverage` against the
/// 4-bit `terminated` flags of its pixels ([`TerminationRows::quad`]).
///
/// A quad is discarded only when *all* its covered pixels are terminated
/// (paper: "quads with at least one fragment that passes the early
/// termination test are sent back to the PROP").
#[inline]
pub fn termination_test(coverage: u8, terminated: u8) -> TerminationTest {
    TerminationTest {
        survives: coverage & !terminated & 0xF != 0,
        terminated_fragments: (coverage & terminated & 0xF).count_ones(),
    }
}

/// Alpha test unit: returns `true` when this blend *newly* crosses the
/// termination threshold and a termination update must be sent to ZROP.
///
/// # Examples
///
/// ```
/// use vrpipe::het::alpha_test;
/// assert!(alpha_test(0.9, 0.997));   // newly crossed → update
/// assert!(!alpha_test(0.997, 0.999)); // already terminated → no traffic
/// assert!(!alpha_test(0.5, 0.6));     // not terminated → no traffic
/// ```
#[inline]
pub fn alpha_test(prev_alpha: f32, new_alpha: f32) -> bool {
    prev_alpha < EARLY_TERMINATION_THRESHOLD && new_alpha >= EARLY_TERMINATION_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_with(pixels: &[(u32, u32)]) -> TerminationRows {
        let mut rows = TerminationRows::default();
        for &(x, y) in pixels {
            rows.set(x, y);
        }
        rows
    }

    #[test]
    fn quad_survives_with_one_live_pixel() {
        let rows = rows_with(&[(0, 0), (1, 0), (0, 1)]);
        let t = termination_test(0xF, rows.quad(0, 0));
        assert!(t.survives);
        assert_eq!(t.terminated_fragments, 3);
    }

    #[test]
    fn quad_discarded_when_all_covered_terminated() {
        let rows = rows_with(&[(0, 0), (1, 0)]);
        // Coverage only over the two terminated pixels.
        let t = termination_test(0b0011, rows.quad(0, 0));
        assert!(!t.survives);
        assert_eq!(t.terminated_fragments, 2);
    }

    #[test]
    fn uncovered_fragments_do_not_keep_quad_alive() {
        // The uncovered live pixel (3, 3) does not save the quad.
        let rows = rows_with(&[(2, 2), (3, 2), (2, 3)]);
        let t = termination_test(0b0111, rows.quad(2, 2));
        assert!(!t.survives);
        assert_eq!(t.terminated_fragments, 3);
    }

    /// The old per-pixel test: one flag lookup per covered fragment of the
    /// quad at window pixel `(x, y)`.
    fn per_pixel_test(
        coverage: u8,
        x: u32,
        y: u32,
        flagged: impl Fn(u32, u32) -> bool,
    ) -> TerminationTest {
        let mut terminated = 0;
        let mut any_alive = false;
        for i in (0..4u32).filter(|i| coverage & 1 << i != 0) {
            if flagged(x + (i & 1), y + (i >> 1)) {
                terminated += 1;
            } else {
                any_alive = true;
            }
        }
        TerminationTest {
            survives: any_alive,
            terminated_fragments: terminated,
        }
    }

    #[test]
    fn mask_test_matches_per_pixel_reference_for_every_pattern() {
        let n = MAX_SCREEN_TILE_PX;
        for flags in 0..16u8 {
            for (x, y) in [(0, 0), (6, 4), (n - 2, n - 2)] {
                let pixels: Vec<_> = (0..4u32)
                    .filter(|i| flags & 1 << i != 0)
                    .map(|i| (x + (i & 1), y + (i >> 1)))
                    .collect();
                let rows = rows_with(&pixels);
                assert_eq!(rows.quad(x, y), flags);
                for coverage in 0..16u8 {
                    assert_eq!(
                        termination_test(coverage, rows.quad(x, y)),
                        per_pixel_test(coverage, x, y, |px, py| pixels.contains(&(px, py))),
                        "coverage {coverage:04b}, flags {flags:04b} at ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_test_matches_per_pixel_reference_in_clipped_windows() {
        // Partial edge tiles: a window narrower or shorter than the tile,
        // quads straddling its edge, flags only inside it.
        let n = MAX_SCREEN_TILE_PX;
        for (w, h) in [(1, 1), (5, 3), (7, n), (n, 9), (n, n)] {
            let flagged = |x: u32, y: u32| x < w && y < h && !(x * 7 + y * 3).is_multiple_of(5);
            let mut rows = TerminationRows::default();
            for y in 0..h {
                for x in (0..w).filter(|&x| flagged(x, y)) {
                    rows.set(x, y);
                }
            }
            for y in (0..n).step_by(2) {
                for x in (0..n).step_by(2) {
                    for coverage in 0..16u8 {
                        assert_eq!(
                            termination_test(coverage, rows.quad(x, y)),
                            per_pixel_test(coverage, x, y, flagged),
                            "{w}x{h} window, quad ({x}, {y}), coverage {coverage:04b}"
                        );
                    }
                }
            }
            assert!(!rows.all(w, h));
            for y in 0..h {
                for x in 0..w {
                    rows.set(x, y);
                }
            }
            assert!(rows.all(w, h), "{w}x{h}");
        }
    }

    #[test]
    fn alpha_test_crossing_filter() {
        let th = EARLY_TERMINATION_THRESHOLD;
        assert!(alpha_test(th - 0.01, th));
        assert!(alpha_test(0.0, 1.0));
        assert!(!alpha_test(th, th + 0.001));
        assert!(!alpha_test(0.1, 0.2));
    }

    #[test]
    fn update_sets_msb_only() {
        let mut ds = DepthStencilBuffer::new(8, 8);
        ds.set_stencil(5, 3, 0x3C);
        ds.set_stencil(4, 3, 0x11);
        // Window pixel (1, 1) of a window at (4, 2) is pixel (5, 3).
        rows_with(&[(1, 1)]).write_back(&mut ds, 4, 2);
        assert!(ds.is_terminated(5, 3));
        assert_eq!(ds.stencil(5, 3), 0x3C | 0x80);
        assert_eq!(ds.stencil(4, 3), 0x11);
        assert_eq!(ds.terminated_count(), 1);
    }
}
