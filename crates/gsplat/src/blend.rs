//! Front-to-back alpha blending — the arithmetic heart of volume rendering.
//!
//! The final pixel color of Gaussian splatting (paper Eq. 1) is
//!
//! ```text
//! C = Σ_i α_i c_i Π_{j<i} (1 - α_j)
//! ```
//!
//! computed by iterating splats front-to-back. In pre-multiplied form the
//! two-operand blend `ffb(c1, c2) = c1 + (1 - α1)·c2` is **associative**
//! (paper Eq. 2), which is the algebraic property quad merging exploits:
//! adjacent fragments can be partially blended in the shader cores before
//! the ROP applies the result to the framebuffer, without changing the
//! final color.

use crate::color::Rgba;

/// Alpha-pruning threshold: fragments with `α < 1/255` are discarded before
/// blending (paper §III-A).
pub const ALPHA_PRUNE_THRESHOLD: f32 = 1.0 / 255.0;

/// Early-termination threshold: once a pixel's accumulated alpha reaches
/// `0.996`, subsequent fragments no longer contribute visibly (paper §IV-B).
pub const EARLY_TERMINATION_THRESHOLD: f32 = 0.996;

/// Upper clamp applied to per-fragment alpha, matching the 3DGS reference
/// renderer (`min(0.99, alpha)`), which guarantees accumulation asymptotes
/// rather than saturating in one step.
pub const ALPHA_MAX: f32 = 0.99;

/// Front-to-back blend of two *pre-multiplied* colors: `c1 + (1 - α1)·c2`.
///
/// `c1` is in front of `c2`. This operator is associative (see
/// [`module docs`](self)), which is verified by property tests.
///
/// # Examples
///
/// ```
/// use gsplat::blend::blend_over;
/// use gsplat::color::Rgba;
/// let front = Rgba::new(0.5, 0.0, 0.0, 0.5); // premultiplied red, α=0.5
/// let back = Rgba::new(0.0, 1.0, 0.0, 1.0);  // premultiplied green, α=1
/// let out = blend_over(front, back);
/// assert_eq!(out, Rgba::new(0.5, 0.5, 0.0, 1.0));
/// ```
#[inline]
pub fn blend_over(c1: Rgba, c2: Rgba) -> Rgba {
    let t = 1.0 - c1.a;
    Rgba::new(
        c1.r + t * c2.r,
        c1.g + t * c2.g,
        c1.b + t * c2.b,
        c1.a + t * c2.a,
    )
}

/// Accumulator for front-to-back blending of one pixel, in the
/// transmittance form used by the software (CUDA-style) renderer.
///
/// Maintains `C` (accumulated pre-multiplied color) and transmittance
/// `T = Π (1 - α_j)`; a fragment contributes `T · α · c`.
///
/// # Examples
///
/// ```
/// use gsplat::blend::PixelAccumulator;
/// use gsplat::math::Vec3;
/// let mut acc = PixelAccumulator::new();
/// acc.blend(Vec3::new(1.0, 0.0, 0.0), 0.5);
/// acc.blend(Vec3::new(0.0, 1.0, 0.0), 1.0);
/// let c = acc.color();
/// assert!((c.r - 0.5).abs() < 1e-6 && (c.g - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelAccumulator {
    color: Rgba,
    transmittance: f32,
}

impl Default for PixelAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl PixelAccumulator {
    /// A fresh accumulator: transparent color, full transmittance.
    #[inline]
    pub fn new() -> Self {
        Self {
            color: Rgba::TRANSPARENT,
            transmittance: 1.0,
        }
    }

    /// Blends one fragment (straight-alpha RGB `c`, opacity `alpha`) behind
    /// everything already accumulated.
    ///
    /// `alpha` is clamped to `[0, 1]` once on entry so the stored
    /// transmittance can never leave `[0, 1]` whatever the caller feeds in
    /// (the renderer paths always pass `α ≤ `[`ALPHA_MAX`], for which the
    /// clamp is the identity).
    #[inline]
    pub fn blend(&mut self, c: crate::math::Vec3, alpha: f32) {
        let alpha = alpha.clamp(0.0, 1.0);
        let w = self.transmittance * alpha;
        self.color.r += w * c.x;
        self.color.g += w * c.y;
        self.color.b += w * c.z;
        self.color.a += w;
        self.transmittance *= 1.0 - alpha;
    }

    /// Accumulated pre-multiplied color so far.
    #[inline]
    pub fn color(&self) -> Rgba {
        self.color
    }

    /// Remaining transmittance `T`.
    #[inline]
    pub fn transmittance(&self) -> f32 {
        self.transmittance
    }

    /// Accumulated alpha (`1 - T` up to rounding; stored explicitly).
    #[inline]
    pub fn alpha(&self) -> f32 {
        self.color.a
    }

    /// `true` once accumulated alpha passes the early-termination threshold.
    #[inline]
    pub fn is_terminated(&self) -> bool {
        self.color.a >= EARLY_TERMINATION_THRESHOLD
    }
}

/// The exponent `-½ dᵀ Σ'⁻¹ d` of the 2D Gaussian falloff, given the conic
/// (inverse covariance) coefficients `(a, b, c)` and the pixel offset `d`
/// from the splat center: the one definition every fragment evaluation
/// (scalar here, four lanes at a time in the simulated draw's shader)
/// shares, so they all form the same `f32` operations in the same order.
#[inline]
pub fn gaussian_power(conic: (f32, f32, f32), dx: f32, dy: f32) -> f32 {
    -0.5 * (conic.0 * dx * dx + conic.2 * dy * dy) - conic.1 * dx * dy
}

/// Evaluates the 2D Gaussian falloff `exp(-½ dᵀ Σ'⁻¹ d)` given the conic
/// (inverse covariance) coefficients `(a, b, c)` and the pixel offset `d`
/// from the splat center.
///
/// This is exactly the fragment-shader computation the paper describes: a
/// dot product on the normalized pixel coordinate plus one exponential.
/// Returns 0 for numerically invalid (positive) power terms.
#[inline]
pub fn gaussian_falloff(conic: (f32, f32, f32), dx: f32, dy: f32) -> f32 {
    let power = gaussian_power(conic, dx, dy);
    if power > 0.0 {
        // Numerical artifact: the quadratic form must be non-positive.
        return 0.0;
    }
    power.exp()
}

/// Computes a fragment's blend alpha: opacity × Gaussian falloff, clamped to
/// [`ALPHA_MAX`]. Returns `None` when the fragment is alpha-pruned
/// (`α < 1/255`).
#[inline]
pub fn fragment_alpha(opacity: f32, conic: (f32, f32, f32), dx: f32, dy: f32) -> Option<f32> {
    let alpha = (opacity * gaussian_falloff(conic, dx, dy)).min(ALPHA_MAX);
    if alpha < ALPHA_PRUNE_THRESHOLD {
        None
    } else {
        Some(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;

    #[test]
    fn blend_over_front_opaque_wins() {
        let front = Rgba::new(1.0, 0.0, 0.0, 1.0);
        let back = Rgba::new(0.0, 1.0, 0.0, 1.0);
        assert_eq!(blend_over(front, back), front);
    }

    #[test]
    fn blend_over_identity_element() {
        // Fully transparent front is the identity.
        let back = Rgba::new(0.2, 0.4, 0.6, 0.8);
        assert_eq!(blend_over(Rgba::TRANSPARENT, back), back);
    }

    #[test]
    fn blend_over_is_associative() {
        let a = Rgba::new(0.10, 0.20, 0.05, 0.25);
        let b = Rgba::new(0.30, 0.10, 0.40, 0.50);
        let c = Rgba::new(0.05, 0.60, 0.20, 0.75);
        let left = blend_over(blend_over(a, b), c);
        let right = blend_over(a, blend_over(b, c));
        assert!(left.max_abs_diff(right) < 1e-6);
    }

    #[test]
    fn accumulator_matches_pairwise_blend() {
        // The transmittance form and the pre-multiplied ffb form agree.
        let frags = [
            (Vec3::new(1.0, 0.0, 0.0), 0.3f32),
            (Vec3::new(0.0, 1.0, 0.0), 0.6),
            (Vec3::new(0.0, 0.0, 1.0), 0.9),
        ];
        let mut acc = PixelAccumulator::new();
        for (c, a) in frags {
            acc.blend(c, a);
        }
        let mut ffb = Rgba::TRANSPARENT;
        for (c, a) in frags {
            ffb = blend_over(ffb, Rgba::from_rgb(c, a).premultiplied());
        }
        assert!(acc.color().max_abs_diff(ffb) < 1e-6);
    }

    #[test]
    fn accumulator_terminates_after_enough_alpha() {
        let mut acc = PixelAccumulator::new();
        for _ in 0..10 {
            acc.blend(Vec3::splat(1.0), 0.5);
        }
        assert!(acc.is_terminated());
        assert!(acc.alpha() <= 1.0 + 1e-6);
    }

    #[test]
    fn gaussian_falloff_peaks_at_center() {
        let conic = (1.0, 0.0, 1.0);
        assert_eq!(gaussian_falloff(conic, 0.0, 0.0), 1.0);
        assert!(gaussian_falloff(conic, 1.0, 0.0) < 1.0);
        assert!(gaussian_falloff(conic, 2.0, 0.0) < gaussian_falloff(conic, 1.0, 0.0));
    }

    #[test]
    fn gaussian_falloff_invalid_power_is_zero() {
        // A non-positive-definite conic can make the power positive.
        let conic = (-1.0, 0.0, -1.0);
        assert_eq!(gaussian_falloff(conic, 1.0, 1.0), 0.0);
    }

    #[test]
    fn fragment_alpha_prunes_small_alpha() {
        let conic = (1.0, 0.0, 1.0);
        // Far from the center, falloff drives alpha under 1/255.
        assert!(fragment_alpha(1.0, conic, 5.0, 5.0).is_none());
        // At the center with opacity 1.0, alpha is clamped to ALPHA_MAX.
        assert_eq!(fragment_alpha(1.0, conic, 0.0, 0.0), Some(ALPHA_MAX));
    }
}
