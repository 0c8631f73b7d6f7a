//! RGBA colors and the framebuffer pixel formats the ROP model cares about.

use serde::{Deserialize, Serialize};

use crate::math::Vec3;

/// An RGBA color with `f32` channels in `[0, 1]` (alpha = coverage/opacity).
///
/// Blending math in the pipeline operates on `f32`; the framebuffer format
/// ([`PixelFormat`]) only affects ROP throughput and cache footprint in the
/// simulator, exactly as on real hardware (paper Fig. 20b).
///
/// # Examples
///
/// ```
/// use gsplat::color::Rgba;
/// let c = Rgba::new(1.0, 0.5, 0.0, 0.8);
/// assert_eq!(c.premultiplied().r, 0.8);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rgba {
    pub r: f32,
    pub g: f32,
    pub b: f32,
    pub a: f32,
}

impl Rgba {
    /// Fully transparent black — the clear color for volume rendering.
    pub const TRANSPARENT: Self = Self::new(0.0, 0.0, 0.0, 0.0);
    /// Opaque white.
    pub const WHITE: Self = Self::new(1.0, 1.0, 1.0, 1.0);
    /// Opaque black.
    pub const BLACK: Self = Self::new(0.0, 0.0, 0.0, 1.0);

    /// Creates a color from channels.
    #[inline]
    pub const fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Self { r, g, b, a }
    }

    /// Creates a color from an RGB vector and an alpha.
    #[inline]
    pub fn from_rgb(rgb: Vec3, a: f32) -> Self {
        Self::new(rgb.x, rgb.y, rgb.z, a)
    }

    /// The RGB part as a vector.
    #[inline]
    pub fn rgb(self) -> Vec3 {
        Vec3::new(self.r, self.g, self.b)
    }

    /// Pre-multiplies RGB by alpha: `(αr, αg, αb, α)`.
    ///
    /// Front-to-back blending (paper Eq. 2) operates on pre-multiplied
    /// colors: `ffb(c1, c2) = c1 + (1 - α1) · c2`.
    #[inline]
    pub fn premultiplied(self) -> Self {
        Self::new(self.r * self.a, self.g * self.a, self.b * self.a, self.a)
    }

    /// Clamps every channel to `[0, 1]`.
    #[inline]
    pub fn clamped(self) -> Self {
        Self::new(
            self.r.clamp(0.0, 1.0),
            self.g.clamp(0.0, 1.0),
            self.b.clamp(0.0, 1.0),
            self.a.clamp(0.0, 1.0),
        )
    }

    /// `true` when every channel is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.r.is_finite() && self.g.is_finite() && self.b.is_finite() && self.a.is_finite()
    }

    /// Maximum absolute channel difference to another color.
    #[inline]
    pub fn max_abs_diff(self, other: Self) -> f32 {
        (self.r - other.r)
            .abs()
            .max((self.g - other.g).abs())
            .max((self.b - other.b).abs())
            .max((self.a - other.a).abs())
    }

    /// Quantizes to 8-bit UNORM per channel (what an RGBA8 target stores).
    #[inline]
    pub fn to_unorm8(self) -> [u8; 4] {
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8;
        [q(self.r), q(self.g), q(self.b), q(self.a)]
    }
}

/// Framebuffer color formats the CROP model distinguishes.
///
/// The format determines bytes per pixel and therefore ROP throughput in
/// pixels per cycle and CROP cache footprint (paper §VII-A, Fig. 20b):
/// a GPC processes 16 px/cycle at RGBA8 but only 8 px/cycle at RGBA16F.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PixelFormat {
    /// 8-bit UNORM per channel, 4 bytes per pixel.
    Rgba8,
    /// 16-bit float per channel, 8 bytes per pixel. The format 3DGS
    /// rendering uses for accumulation precision (paper Table I).
    #[default]
    Rgba16F,
    /// 32-bit float per channel, 16 bytes per pixel.
    Rgba32F,
}

impl PixelFormat {
    /// Bytes of color data per pixel.
    #[inline]
    pub const fn bytes_per_pixel(self) -> usize {
        match self {
            PixelFormat::Rgba8 => 4,
            PixelFormat::Rgba16F => 8,
            PixelFormat::Rgba32F => 16,
        }
    }
}

impl std::fmt::Display for PixelFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PixelFormat::Rgba8 => write!(f, "RGBA8"),
            PixelFormat::Rgba16F => write!(f, "RGBA16F"),
            PixelFormat::Rgba32F => write!(f, "RGBA32F"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn premultiplied_scales_rgb_only() {
        let c = Rgba::new(0.5, 1.0, 0.25, 0.5).premultiplied();
        assert_eq!(c, Rgba::new(0.25, 0.5, 0.125, 0.5));
    }

    #[test]
    fn clamped_bounds_channels() {
        let c = Rgba::new(-0.5, 1.5, 0.3, 2.0).clamped();
        assert_eq!(c, Rgba::new(0.0, 1.0, 0.3, 1.0));
    }

    #[test]
    fn unorm8_quantization_rounds() {
        assert_eq!(Rgba::WHITE.to_unorm8(), [255, 255, 255, 255]);
        assert_eq!(Rgba::TRANSPARENT.to_unorm8(), [0, 0, 0, 0]);
        let mid = Rgba::new(0.5, 0.5, 0.5, 0.5).to_unorm8();
        assert_eq!(mid, [128, 128, 128, 128]);
    }

    #[test]
    fn format_sizes_match_hardware() {
        assert_eq!(PixelFormat::Rgba8.bytes_per_pixel(), 4);
        assert_eq!(PixelFormat::Rgba16F.bytes_per_pixel(), 8);
        assert_eq!(PixelFormat::Rgba32F.bytes_per_pixel(), 16);
    }

    #[test]
    fn max_abs_diff_symmetric() {
        let a = Rgba::new(0.1, 0.2, 0.3, 0.4);
        let b = Rgba::new(0.2, 0.0, 0.3, 0.4);
        assert!((a.max_abs_diff(b) - 0.2).abs() < 1e-6);
        assert_eq!(a.max_abs_diff(b), b.max_abs_diff(a));
    }
}
