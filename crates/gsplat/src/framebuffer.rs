//! Render targets: color buffer and combined depth/stencil buffer.
//!
//! The stencil buffer is central to VR-Pipe: its per-pixel 8-bit value hosts
//! both the conventional stencil test (low 7 bits) and the repurposed MSB
//! *termination flag* (paper §V-B).

use serde::{Deserialize, Serialize};

use crate::color::{PixelFormat, Rgba};

/// Mask of the stencil MSB used as the early-termination flag.
pub const TERMINATION_BIT: u8 = 0x80;

/// A 2D color render target with `f32` channel precision.
///
/// The declared [`PixelFormat`] affects simulator timing/caching, not the
/// stored precision (blending math stays in `f32`, as ROP datapaths do).
///
/// # Examples
///
/// ```
/// use gsplat::framebuffer::ColorBuffer;
/// use gsplat::color::{PixelFormat, Rgba};
/// let mut fb = ColorBuffer::new(4, 4, PixelFormat::Rgba16F);
/// fb.set(1, 2, Rgba::WHITE);
/// assert_eq!(fb.get(1, 2), Rgba::WHITE);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColorBuffer {
    width: u32,
    height: u32,
    format: PixelFormat,
    pixels: Vec<Rgba>,
}

impl ColorBuffer {
    /// Creates a buffer cleared to transparent black.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero.
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Self {
            width,
            height,
            format,
            pixels: vec![Rgba::TRANSPARENT; width as usize * height as usize],
        }
    }

    /// Buffer width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Declared storage format.
    #[inline]
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on out-of-bounds coordinates.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgba {
        self.pixels[self.index(x, y)]
    }

    /// Writes the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgba) {
        let i = self.index(x, y);
        self.pixels[i] = c;
    }

    /// Clears every pixel to `c`.
    pub fn clear(&mut self, c: Rgba) {
        self.pixels.fill(c);
    }

    /// All pixels in row-major order.
    #[inline]
    pub fn pixels(&self) -> &[Rgba] {
        &self.pixels
    }

    /// All pixels in row-major order, mutably — the handle the parallel
    /// render paths split into disjoint row bands.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Rgba] {
        &mut self.pixels
    }

    /// Reconfigures the buffer in place (reusing the allocation when it is
    /// large enough) and clears every pixel to transparent black — the
    /// frame-loop alternative to constructing a fresh buffer per draw.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero.
    pub fn reset(&mut self, width: u32, height: u32, format: PixelFormat) {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        self.width = width;
        self.height = height;
        self.format = format;
        self.pixels.clear();
        self.pixels
            .resize(width as usize * height as usize, Rgba::TRANSPARENT);
    }

    /// Maximum per-channel difference to another buffer of the same size.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "buffer dimensions differ"
        );
        self.pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| a.max_abs_diff(*b))
            .fold(0.0, f32::max)
    }

    /// Mean accumulated alpha over the full buffer — a quick scene-coverage
    /// statistic used in tests and experiments.
    pub fn mean_alpha(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p.a).sum::<f32>() / self.pixels.len() as f32
    }

    /// Writes the buffer as a binary PPM image (tone-mapped straight RGB),
    /// for eyeballing rendered output from the examples.
    ///
    /// Rows are converted straight from the pixel slice into one reused
    /// byte buffer and emitted with a single write per row, so the output
    /// stage does no per-pixel indexing or per-pixel I/O calls.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_ppm<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        let width = self.width as usize;
        let mut row = vec![0u8; width * 3];
        for pixels in self.pixels.chunks_exact(width) {
            for (dst, px) in row.chunks_exact_mut(3).zip(pixels) {
                let [r, g, b, _] = px.to_unorm8();
                dst.copy_from_slice(&[r, g, b]);
            }
            w.write_all(&row)?;
        }
        Ok(())
    }
}

/// Combined depth (f32) and stencil (u8) buffer, as managed by ZROP.
///
/// # Examples
///
/// ```
/// use gsplat::framebuffer::{DepthStencilBuffer, TERMINATION_BIT};
/// let mut ds = DepthStencilBuffer::new(8, 8);
/// ds.set_terminated(3, 4);
/// assert!(ds.is_terminated(3, 4));
/// assert_eq!(ds.stencil(3, 4) & !TERMINATION_BIT, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthStencilBuffer {
    width: u32,
    height: u32,
    depth: Vec<f32>,
    stencil: Vec<u8>,
}

impl DepthStencilBuffer {
    /// Creates a buffer with depth cleared to 1.0 (far) and stencil to 0.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "depth buffer must be non-empty");
        let n = width as usize * height as usize;
        Self {
            width,
            height,
            depth: vec![1.0; n],
            stencil: vec![0; n],
        }
    }

    /// Buffer width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Depth value at `(x, y)`.
    #[inline]
    pub fn depth(&self, x: u32, y: u32) -> f32 {
        self.depth[self.index(x, y)]
    }

    /// Full 8-bit stencil value at `(x, y)`.
    #[inline]
    pub fn stencil(&self, x: u32, y: u32) -> u8 {
        self.stencil[self.index(x, y)]
    }

    /// Writes the full stencil value at `(x, y)`.
    #[inline]
    pub fn set_stencil(&mut self, x: u32, y: u32, v: u8) {
        let i = self.index(x, y);
        self.stencil[i] = v;
    }

    /// `true` when the pixel's termination flag (stencil MSB) is set.
    #[inline]
    pub fn is_terminated(&self, x: u32, y: u32) -> bool {
        self.stencil(x, y) & TERMINATION_BIT != 0
    }

    /// Sets the termination flag, preserving the low 7 stencil bits
    /// (bitwise OR, exactly as the termination update unit does).
    #[inline]
    pub fn set_terminated(&mut self, x: u32, y: u32) {
        let i = self.index(x, y);
        self.stencil[i] |= TERMINATION_BIT;
    }

    /// Number of pixels with the termination flag set.
    pub fn terminated_count(&self) -> usize {
        self.stencil
            .iter()
            .filter(|&&s| s & TERMINATION_BIT != 0)
            .count()
    }

    /// Clears depth to `1.0` and the stencil to zero.
    pub fn clear(&mut self) {
        self.depth.fill(1.0);
        self.stencil.fill(0);
    }

    /// Reconfigures the buffer in place (reusing allocations when large
    /// enough) and clears depth to `1.0` and stencil to zero.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero.
    pub fn reset(&mut self, width: u32, height: u32) {
        assert!(width > 0 && height > 0, "depth buffer must be non-empty");
        let n = width as usize * height as usize;
        self.width = width;
        self.height = height;
        self.depth.clear();
        self.depth.resize(n, 1.0);
        self.stencil.clear();
        self.stencil.resize(n, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_buffer_roundtrip() {
        let mut fb = ColorBuffer::new(3, 2, PixelFormat::Rgba8);
        fb.set(2, 1, Rgba::new(0.1, 0.2, 0.3, 0.4));
        assert_eq!(fb.get(2, 1), Rgba::new(0.1, 0.2, 0.3, 0.4));
        assert_eq!(fb.get(0, 0), Rgba::TRANSPARENT);
        assert_eq!(fb.pixels().len(), 6);
    }

    #[test]
    fn clear_resets_all_pixels() {
        let mut fb = ColorBuffer::new(4, 4, PixelFormat::Rgba16F);
        fb.set(1, 1, Rgba::WHITE);
        fb.clear(Rgba::BLACK);
        assert!(fb.pixels().iter().all(|&p| p == Rgba::BLACK));
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let fb = ColorBuffer::new(2, 2, PixelFormat::Rgba16F);
        assert_eq!(fb.max_abs_diff(&fb.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn diff_mismatched_dims_panics() {
        let a = ColorBuffer::new(2, 2, PixelFormat::Rgba16F);
        let b = ColorBuffer::new(2, 3, PixelFormat::Rgba16F);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn termination_flag_preserves_stencil_bits() {
        let mut ds = DepthStencilBuffer::new(4, 4);
        ds.set_stencil(1, 1, 0x5A & !TERMINATION_BIT);
        ds.set_terminated(1, 1);
        assert!(ds.is_terminated(1, 1));
        assert_eq!(ds.stencil(1, 1) & !TERMINATION_BIT, 0x5A & !TERMINATION_BIT);
        assert_eq!(ds.terminated_count(), 1);
    }

    #[test]
    fn depth_clear_is_far() {
        let mut ds = DepthStencilBuffer::new(2, 2);
        ds.depth[0] = 0.25;
        ds.set_terminated(1, 1);
        ds.clear();
        assert_eq!(ds.depth(0, 0), 1.0);
        assert_eq!(ds.terminated_count(), 0);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = ColorBuffer::new(3, 2, PixelFormat::Rgba8);
        let mut out = Vec::new();
        fb.write_ppm(&mut out).unwrap();
        assert!(out.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(out.len(), b"P6\n3 2\n255\n".len() + 3 * 2 * 3);
    }

    #[test]
    fn mean_alpha_average() {
        let mut fb = ColorBuffer::new(2, 1, PixelFormat::Rgba16F);
        fb.set(0, 0, Rgba::new(0.0, 0.0, 0.0, 1.0));
        assert!((fb.mean_alpha() - 0.5).abs() < 1e-6);
    }
}
