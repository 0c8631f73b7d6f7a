//! Screen-space tiling geometry: screen tiles, raster tiles, quads and tile
//! grids, with the coordinate conversions the binning units use.

use serde::{Deserialize, Serialize};

/// Identifier of a 16×16-pixel screen tile: `(tile_x, tile_y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileId {
    pub x: u32,
    pub y: u32,
}

/// Identifier of a tile grid (a `grid×grid` block of screen tiles, 64×64 px
/// by default) — the TGC unit's binning granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileGridId {
    pub x: u32,
    pub y: u32,
}

/// Position of a 2×2 quad *within* a screen tile, `(qx, qy)` each in
/// `0..tile_px/2` (0..8 for 16-px tiles) — the QRU register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuadPos {
    pub x: u8,
    pub y: u8,
}

impl QuadPos {
    /// Linear register index in the QRU's 8×8 register file.
    #[inline]
    pub fn register_index(self) -> usize {
        self.y as usize * 8 + self.x as usize
    }
}

/// Tiling geometry for one render target.
///
/// # Examples
///
/// ```
/// use gpu_sim::tiles::Tiling;
/// let t = Tiling::new(100, 60, 16);
/// assert_eq!(t.tiles_x(), 7); // ceil(100/16)
/// assert_eq!(t.tiles_y(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tiling {
    width: u32,
    height: u32,
    tile_px: u32,
}

impl Tiling {
    /// Creates the tiling for a `width`×`height` viewport with square
    /// screen tiles of `tile_px`.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized viewport or tile.
    pub fn new(width: u32, height: u32, tile_px: u32) -> Self {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        assert!(tile_px > 0, "tile size must be non-zero");
        Self {
            width,
            height,
            tile_px,
        }
    }

    /// Viewport width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Viewport height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Screen-tile edge in pixels.
    #[inline]
    pub fn tile_px(&self) -> u32 {
        self.tile_px
    }

    /// Number of screen tiles horizontally.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile_px)
    }

    /// Number of screen tiles vertically.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile_px)
    }

    /// Total screen-tile count.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_x() as usize * self.tiles_y() as usize
    }

    /// Pixel origin (top-left) of a screen tile.
    #[inline]
    pub fn tile_origin(&self, t: TileId) -> (u32, u32) {
        (t.x * self.tile_px, t.y * self.tile_px)
    }

    /// Quad position within its screen tile for the quad whose top-left
    /// pixel is `(x, y)` (must be even coordinates).
    #[inline]
    pub fn quad_pos(&self, x: u32, y: u32) -> QuadPos {
        debug_assert!(
            x.is_multiple_of(2) && y.is_multiple_of(2),
            "quad origin must be even"
        );
        QuadPos {
            x: ((x % self.tile_px) / 2) as u8,
            y: ((y % self.tile_px) / 2) as u8,
        }
    }

    /// Inclusive screen-tile rectangle `(x0, x1, y0, y1)` overlapped by
    /// the pixel-space AABB `[min, max]`, clamped to the viewport; `None`
    /// when the box is entirely off-screen. The rectangle form lets hot
    /// loops walk tiles (or the enclosing tile grids) without collecting
    /// them.
    pub fn tile_rect_in_aabb(
        &self,
        min: (f32, f32),
        max: (f32, f32),
    ) -> Option<(u32, u32, u32, u32)> {
        if max.0 < 0.0 || max.1 < 0.0 || min.0 >= self.width as f32 || min.1 >= self.height as f32 {
            return None;
        }
        let x0 = (min.0.max(0.0) as u32).min(self.width.saturating_sub(1)) / self.tile_px;
        let y0 = (min.1.max(0.0) as u32).min(self.height.saturating_sub(1)) / self.tile_px;
        let x1 = (max.0.max(0.0) as u32).min(self.width.saturating_sub(1)) / self.tile_px;
        let y1 = (max.1.max(0.0) as u32).min(self.height.saturating_sub(1)) / self.tile_px;
        Some((x0, x1, y0, y1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_counts_round_up() {
        let t = Tiling::new(1552, 1040, 16);
        assert_eq!(t.tiles_x(), 97);
        assert_eq!(t.tiles_y(), 65);
        assert_eq!(t.tile_count(), 97 * 65);
    }

    #[test]
    fn quad_pos_register_index() {
        let t = Tiling::new(64, 64, 16);
        let q = t.quad_pos(18, 34); // tile (1,2), quad offset (1,1)
        assert_eq!(q, QuadPos { x: 1, y: 1 });
        assert_eq!(q.register_index(), 9);
        assert_eq!(t.quad_pos(14, 14).register_index(), 63);
    }

    #[test]
    fn aabb_tile_enumeration() {
        let t = Tiling::new(64, 64, 16);
        // Spans tiles (0,0)..(1,1).
        let rect = t.tile_rect_in_aabb((10.0, 10.0), (20.0, 20.0));
        assert_eq!(rect, Some((0, 1, 0, 1)));
        // Clamped to the viewport: the full first row of 4 tiles.
        let clamped = t.tile_rect_in_aabb((-100.0, -100.0), (1000.0, 5.0));
        assert_eq!(clamped, Some((0, 3, 0, 0)));
    }

    #[test]
    fn aabb_fully_offscreen_is_empty() {
        let t = Tiling::new(64, 64, 16);
        assert_eq!(t.tile_rect_in_aabb((100.0, 0.0), (200.0, 10.0)), None);
        assert_eq!(t.tile_rect_in_aabb((-50.0, -50.0), (-10.0, -10.0)), None);
    }

    #[test]
    fn tile_origin_roundtrip() {
        let t = Tiling::new(128, 128, 16);
        let (ox, oy) = t.tile_origin(TileId { x: 3, y: 5 });
        assert_eq!((ox, oy), (48, 80));
    }
}
