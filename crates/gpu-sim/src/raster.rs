//! The raster engine: setup, coarse raster, and fine raster of splat OBBs
//! into 2×2-fragment quads (paper §V-A: setup → coarse raster → Hi-z →
//! fine raster). Volume rendering draws with depth testing off and
//! bypasses Hi-z, so the model has no Hi-z stage.
//!
//! Splats are rendered as oriented bounding boxes (two triangles sharing a
//! diagonal — geometrically the OBB parallelogram), so the inside test is
//! performed against the parallelogram: a pixel is covered when its
//! coordinates in the OBB's axis frame are within `[-1, 1]²`
//! ([`SplatSetup::covers`]).
//!
//! The fine raster evaluates that test a pixel row at a time: for each
//! (primitive, screen tile) pair it forms the column and row halves of the
//! inside test once, evaluates every candidate row as one branch-free lane
//! loop into a `u16` coverage row, and cuts each quad's 4 coverage bits out
//! of two rows; the pair's covered-fragment count is the popcount of its
//! rows. The bits equal the per-pixel test's (DESIGN.md §4);
//! `crates/gpu-sim/tests/props.rs` keeps the per-pixel raster as the
//! oracle.

use gsplat::math::{Mat2, Vec2};
use gsplat::splat::Splat;

use crate::config::MAX_SCREEN_TILE_PX;
use crate::tiles::{QuadPos, TileId, Tiling};

/// Pixels per coverage bit row: the widest screen tile
/// [`GpuConfig::validate`](crate::config::GpuConfig::validate) accepts.
const LANES: usize = MAX_SCREEN_TILE_PX as usize;

/// Per-primitive setup state computed by the setup unit: the inverse of the
/// OBB axis matrix, used for the fine-raster inside test (the hardware
/// equivalent computes triangle edge equations; for an OBB the two
/// formulations accept exactly the same pixels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplatSetup {
    center: Vec2,
    /// Maps a pixel offset from the center into OBB axis coordinates.
    inv_axes: Mat2,
    /// Screen-space AABB (min, max) of the OBB.
    pub aabb: (Vec2, Vec2),
}

impl SplatSetup {
    /// Runs triangle/edge setup for a splat. Returns `None` for degenerate
    /// (zero-area) OBBs, which the hardware would cull here.
    pub fn new(splat: &Splat) -> Option<Self> {
        let axes = Mat2::from_cols(splat.axis_major, splat.axis_minor);
        let inv_axes = axes.inverse()?;
        Some(Self {
            center: splat.center,
            inv_axes,
            aabb: splat.aabb(),
        })
    }

    /// Fine-raster inside test at a pixel center: the definition every
    /// coverage bit of [`rasterize_in_tile_with`] reproduces.
    #[inline]
    pub fn covers(&self, px: f32, py: f32) -> bool {
        let local = self.inv_axes * (Vec2::new(px, py) - self.center);
        local.x.abs() <= 1.0 && local.y.abs() <= 1.0
    }

    /// Coverage bit rows of the candidate pixels of the screen tile at
    /// `origin`: bit `c` of row `r` is [`SplatSetup::covers`] at the
    /// center of tile pixel `(c, r)`, for the inclusive tile-relative
    /// column range `cols` and row range `rows`; every other bit is 0.
    ///
    /// `covers` forms `inv_axes * (p - center)` as `col0 * dx + col1 * dy`.
    /// Here the products with `dx` are formed once per column and those
    /// with `dy` once per row, and each pixel adds its two products: the
    /// same f32 operations on the same operands, so every bit equals the
    /// per-pixel test (Rust never contracts a multiply and an add into an
    /// FMA).
    fn row_masks(&self, origin: (u32, u32), cols: (u32, u32), rows: (u32, u32)) -> [u16; LANES] {
        let [c0, c1] = self.inv_axes.cols;
        let mut ax = [0.0f32; LANES];
        let mut ay = [0.0f32; LANES];
        for (c, (ax, ay)) in ax.iter_mut().zip(&mut ay).enumerate() {
            let dx = (origin.0 + c as u32) as f32 + 0.5 - self.center.x;
            *ax = c0.x * dx;
            *ay = c0.y * dx;
        }
        let window = ((2u32 << cols.1) - (1u32 << cols.0)) as u16;
        let mut masks = [0u16; LANES];
        for r in rows.0..=rows.1 {
            let dy = (origin.1 + r) as f32 + 0.5 - self.center.y;
            masks[r as usize] = row_mask(&ax, &ay, c1.x * dy, c1.y * dy) & window;
        }
        masks
    }
}

/// One row of the inside test over all [`LANES`] columns, branch-free so
/// the compiler can evaluate it as vector lanes: bit `c` is set when
/// `|ax[c] + bx| <= 1` and `|ay[c] + by| <= 1`.
#[inline]
fn row_mask(ax: &[f32; LANES], ay: &[f32; LANES], bx: f32, by: f32) -> u16 {
    let mut mask = 0u16;
    for c in 0..LANES {
        let inside = ((ax[c] + bx).abs() <= 1.0) & ((ay[c] + by).abs() <= 1.0);
        mask |= (inside as u16) << c;
    }
    mask
}

/// Rasterizes one primitive (already set up) within one screen tile,
/// handing each covered quad to `emit` as its position in the tile and its
/// 4-bit coverage (fragment order (0,0), (1,0), (0,1), (1,1)) in raster
/// scan order, and returns the coarse-raster tile count and the number of
/// covered fragments.
///
/// Mirrors the hardware flow: the coarse raster walks the raster tiles of
/// the screen tile that intersect the primitive's AABB; the fine raster
/// tests each candidate pixel of a visited raster tile — the quad-aligned
/// AABB clipped to the tile and the viewport — and assembles 2×2 quads,
/// raster tile by raster tile, quad rows top to bottom, left to right.
/// The candidate pixels are evaluated as one coverage bit row per pixel
/// row; a quad's coverage is two bits from each of its two rows, and the
/// covered-fragment count is the rows' popcount (every candidate pixel
/// lies in a visited raster tile).
///
/// # Panics
///
/// Panics when the tiling's screen tiles are wider than
/// [`MAX_SCREEN_TILE_PX`] (which [`GpuConfig::validate`] rejects).
///
/// [`GpuConfig::validate`]: crate::config::GpuConfig::validate
pub fn rasterize_in_tile_with(
    setup: &SplatSetup,
    tile: TileId,
    tiling: &Tiling,
    raster_tile_px: u32,
    mut emit: impl FnMut(QuadPos, u8),
) -> (u64, u64) {
    assert!(
        tiling.tile_px() <= MAX_SCREEN_TILE_PX,
        "screen tiles are at most {MAX_SCREEN_TILE_PX} px wide"
    );
    let (tile_x0, tile_y0) = tiling.tile_origin(tile);
    let tile_x1 = (tile_x0 + tiling.tile_px()).min(tiling.width());
    let tile_y1 = (tile_y0 + tiling.tile_px()).min(tiling.height());

    // Clip the primitive AABB to this tile.
    let min_x = setup.aabb.0.x.max(tile_x0 as f32);
    let min_y = setup.aabb.0.y.max(tile_y0 as f32);
    let max_x = setup.aabb.1.x.min(tile_x1 as f32 - 1.0);
    let max_y = setup.aabb.1.y.min(tile_y1 as f32 - 1.0);
    if min_x > max_x || min_y > max_y {
        return (0, 0);
    }
    let (min_x, min_y) = (min_x as u32 - tile_x0, min_y as u32 - tile_y0);
    let (max_x, max_y) = (max_x as u32 - tile_x0, max_y as u32 - tile_y0);

    // Coarse raster: the raster tiles the clipped AABB intersects.
    let (rt0_x, rt1_x) = (min_x / raster_tile_px, max_x / raster_tile_px);
    let (rt0_y, rt1_y) = (min_y / raster_tile_px, max_y / raster_tile_px);

    // Fine raster. Tile origins and raster tiles are quad-aligned, so the
    // candidate quads of all visited raster tiles together cover one
    // pixel rect: from the quad holding the clipped AABB's first pixel to
    // the quad holding its last, minus pixels past the viewport's edge.
    let cols = (min_x & !1, (max_x | 1).min(tiling.width() - 1 - tile_x0));
    let rows = (min_y & !1, (max_y | 1).min(tiling.height() - 1 - tile_y0));
    let masks = setup.row_masks((tile_x0, tile_y0), cols, rows);
    let fragments = masks.iter().map(|m| m.count_ones()).sum::<u32>() as u64;
    let rt_cols = (1u32 << raster_tile_px) - 1;
    for rty in rt0_y..rt1_y + 1 {
        // Quad rows `qr` hold pixel rows `2 qr` and `2 qr + 1`.
        let qr0 = (rty * raster_tile_px).max(rows.0) / 2;
        let qr1 = (rty * raster_tile_px + raster_tile_px - 1).min(rows.1) / 2;
        for rtx in rt0_x..rt1_x + 1 {
            let in_rt = rt_cols << (rtx * raster_tile_px);
            for qr in qr0..qr1 + 1 {
                let top = masks[2 * qr as usize] as u32 & in_rt;
                let bottom = masks[2 * qr as usize + 1] as u32 & in_rt;
                let any = top | bottom;
                // Bit c (c even) set when quad column c has a covered pixel.
                let mut quads = (any | any >> 1) & 0x5555;
                while quads != 0 {
                    let c = quads.trailing_zeros();
                    quads &= quads - 1;
                    let pos = QuadPos {
                        x: (c / 2) as u8,
                        y: qr as u8,
                    };
                    emit(pos, ((top >> c & 3) | (bottom >> c & 3) << 2) as u8);
                }
            }
        }
    }
    let coarse = (rt1_x - rt0_x + 1) * (rt1_y - rt0_y + 1);
    (coarse as u64, fragments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::Quad;
    use gsplat::math::Vec3;

    fn axis_splat(cx: f32, cy: f32, rx: f32, ry: f32) -> Splat {
        Splat {
            center: Vec2::new(cx, cy),
            depth: 1.0,
            conic: (1.0 / (rx * rx), 0.0, 1.0 / (ry * ry)),
            axis_major: Vec2::new(rx, 0.0),
            axis_minor: Vec2::new(0.0, ry),
            color: Vec3::splat(1.0),
            opacity: 0.9,
            source: 0,
        }
    }

    fn tiling() -> Tiling {
        Tiling::new(64, 64, 16)
    }

    /// The quads and coarse-tile count of one (primitive, tile) pair,
    /// checking the returned fragment count against the quads'.
    fn rasterize_in_tile(
        setup: &SplatSetup,
        tile: TileId,
        tiling: &Tiling,
        raster_tile_px: u32,
    ) -> (Vec<Quad>, u64) {
        let mut quads = Vec::new();
        let (x0, y0) = tiling.tile_origin(tile);
        let (coarse, fragments) =
            rasterize_in_tile_with(setup, tile, tiling, raster_tile_px, |pos, coverage| {
                quads.push(Quad {
                    tile,
                    pos,
                    origin: (x0 + 2 * pos.x as u32, y0 + 2 * pos.y as u32),
                    coverage,
                    splat: 0,
                })
            });
        let counted: u32 = quads.iter().map(Quad::coverage_count).sum();
        assert_eq!(fragments, counted as u64);
        (quads, coarse)
    }

    #[test]
    fn setup_rejects_degenerate_obb() {
        let mut s = axis_splat(10.0, 10.0, 4.0, 4.0);
        s.axis_minor = Vec2::ZERO;
        assert!(SplatSetup::new(&s).is_none());
        assert!(SplatSetup::new(&axis_splat(8.0, 8.0, 2.0, 2.0)).is_some());
    }

    #[test]
    fn covers_matches_obb_geometry() {
        let s = axis_splat(8.0, 8.0, 4.0, 2.0);
        let setup = SplatSetup::new(&s).unwrap();
        assert!(setup.covers(8.0, 8.0));
        assert!(setup.covers(11.9, 8.0));
        assert!(!setup.covers(12.1, 8.0));
        assert!(!setup.covers(8.0, 10.5));
    }

    #[test]
    fn rotated_obb_covers_rotated_extent() {
        let mut s = axis_splat(32.0, 32.0, 1.0, 1.0);
        // 45°-rotated axes with length 8 and 2.
        let d = std::f32::consts::FRAC_1_SQRT_2;
        s.axis_major = Vec2::new(8.0 * d, 8.0 * d);
        s.axis_minor = Vec2::new(-2.0 * d, 2.0 * d);
        let setup = SplatSetup::new(&s).unwrap();
        assert!(setup.covers(36.0, 36.0)); // along the major diagonal
        assert!(!setup.covers(36.0, 28.0)); // perpendicular, outside minor
    }

    #[test]
    fn fully_covered_tile_produces_all_quads() {
        // A huge splat covering the whole 16x16 tile → 64 quads, all full.
        let s = axis_splat(8.0, 8.0, 100.0, 100.0);
        let setup = SplatSetup::new(&s).unwrap();
        let (quads, coarse_tiles) = rasterize_in_tile(&setup, TileId { x: 0, y: 0 }, &tiling(), 8);
        assert_eq!(quads.len(), 64);
        assert!(quads.iter().all(|q| q.coverage == 0xF));
        assert_eq!(coarse_tiles, 4); // 2x2 raster tiles of 8x8
    }

    #[test]
    fn small_splat_emits_few_quads() {
        let s = axis_splat(8.0, 8.0, 1.4, 1.4);
        let setup = SplatSetup::new(&s).unwrap();
        let (quads, _) = rasterize_in_tile(&setup, TileId { x: 0, y: 0 }, &tiling(), 8);
        assert!(!quads.is_empty() && quads.len() <= 4);
        let frags: u32 = quads.iter().map(|q| q.coverage_count()).sum();
        // ~2.8x2.8 px box around (8,8) covers pixels 6..10 in each axis.
        assert!((4..=16).contains(&frags), "frags = {frags}");
    }

    #[test]
    fn out_of_tile_splat_produces_nothing() {
        let s = axis_splat(8.0, 8.0, 2.0, 2.0);
        let setup = SplatSetup::new(&s).unwrap();
        let (quads, coarse_tiles) = rasterize_in_tile(&setup, TileId { x: 3, y: 3 }, &tiling(), 8);
        assert!(quads.is_empty());
        assert_eq!(coarse_tiles, 0);
    }

    #[test]
    fn coverage_agrees_with_direct_test() {
        // Every emitted fragment passes `covers`; no covered pixel missed.
        let mut s = axis_splat(20.0, 36.0, 5.0, 3.0);
        let d = 0.6f32;
        s.axis_major = Vec2::new(5.0 * d, 5.0 * (1.0 - d));
        s.axis_minor = Vec2::new(-3.0 * (1.0 - d), 3.0 * d);
        let setup = SplatSetup::new(&s).unwrap();
        let t = tiling();
        let mut emitted = std::collections::HashSet::new();
        for ty in 0..4 {
            for tx in 0..4 {
                let (quads, _) = rasterize_in_tile(&setup, TileId { x: tx, y: ty }, &t, 8);
                for q in quads {
                    for i in 0..4 {
                        if q.covers(i) {
                            emitted.insert(q.fragment_xy(i));
                        }
                    }
                }
            }
        }
        for y in 0..64u32 {
            for x in 0..64u32 {
                let expect = setup.covers(x as f32 + 0.5, y as f32 + 0.5);
                assert_eq!(
                    emitted.contains(&(x, y)),
                    expect,
                    "pixel ({x},{y}) mismatch"
                );
            }
        }
    }

    #[test]
    fn quads_are_in_scan_order_within_tile() {
        let s = axis_splat(8.0, 8.0, 100.0, 100.0);
        let setup = SplatSetup::new(&s).unwrap();
        let (quads, _) = rasterize_in_tile(&setup, TileId { x: 0, y: 0 }, &tiling(), 8);
        // Raster-tile-major, then scan order within; positions never repeat.
        let mut seen = std::collections::HashSet::new();
        for q in &quads {
            assert!(seen.insert((q.origin.0, q.origin.1)));
        }
    }
}
