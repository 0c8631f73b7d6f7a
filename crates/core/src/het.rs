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

use gpu_sim::quad::Quad;
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

/// Per-pixel termination flags (the stencil MSB) that the HET units read
/// and set: a whole depth/stencil buffer, or the window of it that one
/// screen tile's flush processing owns.
pub trait TerminationFlags {
    /// `true` when pixel `(x, y)` lies on this target and its flag is set.
    fn is_terminated(&self, x: u32, y: u32) -> bool;
    /// Sets the flag of pixel `(x, y)`, which lies on this target.
    fn set_terminated(&mut self, x: u32, y: u32);
}

impl TerminationFlags for DepthStencilBuffer {
    fn is_terminated(&self, x: u32, y: u32) -> bool {
        x < self.width() && y < self.height() && DepthStencilBuffer::is_terminated(self, x, y)
    }

    fn set_terminated(&mut self, x: u32, y: u32) {
        DepthStencilBuffer::set_terminated(self, x, y);
    }
}

/// Termination test unit: checks a quad against the stencil MSB.
///
/// A quad is discarded only when *all* its covered pixels are terminated
/// (paper: "quads with at least one fragment that passes the early
/// termination test are sent back to the PROP").
pub fn termination_test<F: TerminationFlags + ?Sized>(quad: &Quad, flags: &F) -> TerminationTest {
    let mut terminated = 0u32;
    let mut any_alive = false;
    for i in 0..4 {
        if !quad.covers(i) {
            continue;
        }
        let (x, y) = quad.fragment_xy(i);
        if flags.is_terminated(x, y) {
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

/// Termination update unit: sets the stencil MSB for a newly terminated
/// pixel (bitwise OR write-back through the z-cache).
#[inline]
pub fn termination_update<F: TerminationFlags + ?Sized>(flags: &mut F, x: u32, y: u32) {
    flags.set_terminated(x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::tiles::{QuadPos, TileId};

    fn quad_at(x: u32, y: u32, coverage: u8) -> Quad {
        Quad {
            tile: TileId {
                x: x / 16,
                y: y / 16,
            },
            pos: QuadPos {
                x: ((x % 16) / 2) as u8,
                y: ((y % 16) / 2) as u8,
            },
            origin: (x, y),
            coverage,
            splat: 0,
        }
    }

    #[test]
    fn quad_survives_with_one_live_pixel() {
        let mut ds = DepthStencilBuffer::new(16, 16);
        ds.set_terminated(0, 0);
        ds.set_terminated(1, 0);
        ds.set_terminated(0, 1);
        let t = termination_test(&quad_at(0, 0, 0xF), &ds);
        assert!(t.survives);
        assert_eq!(t.terminated_fragments, 3);
    }

    #[test]
    fn quad_discarded_when_all_covered_terminated() {
        let mut ds = DepthStencilBuffer::new(16, 16);
        ds.set_terminated(0, 0);
        ds.set_terminated(1, 0);
        // Coverage only over the two terminated pixels.
        let t = termination_test(&quad_at(0, 0, 0b0011), &ds);
        assert!(!t.survives);
        assert_eq!(t.terminated_fragments, 2);
    }

    #[test]
    fn uncovered_fragments_do_not_keep_quad_alive() {
        let mut ds = DepthStencilBuffer::new(16, 16);
        for (x, y) in [(2u32, 2u32), (3, 2), (2, 3), (3, 3)] {
            ds.set_terminated(x, y);
        }
        let t = termination_test(&quad_at(2, 2, 0xF), &ds);
        assert!(!t.survives);
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
        let mut ds = DepthStencilBuffer::new(4, 4);
        ds.set_stencil(1, 1, 0x3C);
        termination_update(&mut ds, 1, 1);
        assert!(ds.is_terminated(1, 1));
        assert_eq!(ds.stencil(1, 1), 0x3C | 0x80);
    }
}
