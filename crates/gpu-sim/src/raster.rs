//! The raster engine: setup, coarse raster, and fine raster of splat OBBs
//! into 2×2-fragment quads (paper §V-A: setup → coarse raster → Hi-z →
//! fine raster).
//!
//! Splats are rendered as oriented bounding boxes (two triangles sharing a
//! diagonal — geometrically the OBB parallelogram), so the inside test is
//! performed against the parallelogram: a pixel is covered when its
//! coordinates in the OBB's axis frame are within `[-1, 1]²`.

use gsplat::math::{Mat2, Vec2};
use gsplat::splat::Splat;
use gsplat::stream::SplatStream;

use crate::quad::Quad;
use crate::tiles::{TileId, Tiling};

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

    /// [`SplatSetup::new`] reading splat `i` from a SoA [`SplatStream`].
    ///
    /// The stream stores the exact field values of the AoS splat, and the
    /// construction performs the same operations, so the setup — and every
    /// raster decision downstream of it — is bit-identical to the scalar
    /// path's.
    pub fn from_stream(stream: &SplatStream, i: usize) -> Option<Self> {
        let (axis_major, axis_minor) = stream.axes(i);
        let axes = Mat2::from_cols(axis_major, axis_minor);
        let inv_axes = axes.inverse()?;
        let center = stream.center(i);
        let ext = Vec2::new(
            axis_major.x.abs() + axis_minor.x.abs(),
            axis_major.y.abs() + axis_minor.y.abs(),
        );
        Some(Self {
            center,
            inv_axes,
            aabb: (center - ext, center + ext),
        })
    }

    /// Fine-raster inside test at a pixel center.
    #[inline]
    pub fn covers(&self, px: f32, py: f32) -> bool {
        let local = self.inv_axes * (Vec2::new(px, py) - self.center);
        local.x.abs() <= 1.0 && local.y.abs() <= 1.0
    }
}

/// Output of rasterizing one primitive within one screen tile.
#[derive(Debug, Clone, Default)]
pub struct TileRasterOutput {
    /// Quads with at least one covered fragment, in raster scan order.
    pub quads: Vec<Quad>,
    /// 8×8 raster tiles visited by the coarse raster.
    pub coarse_tiles: u64,
}

/// Rasterizes one primitive (already set up) within one screen tile,
/// producing covered quads in scan order.
///
/// Mirrors the hardware flow: the coarse raster walks the raster tiles of
/// the screen tile that intersect the primitive's AABB; the fine raster
/// tests each pixel of a visited raster tile and assembles 2×2 quads.
pub fn rasterize_in_tile(
    setup: &SplatSetup,
    splat_index: u32,
    tile: TileId,
    tiling: &Tiling,
    raster_tile_px: u32,
) -> TileRasterOutput {
    let mut quads = Vec::new();
    let coarse_tiles =
        rasterize_in_tile_with(setup, splat_index, tile, tiling, raster_tile_px, |q| {
            quads.push(q)
        });
    TileRasterOutput {
        quads,
        coarse_tiles,
    }
}

/// [`rasterize_in_tile`] handing each covered quad to `emit`, in raster
/// scan order (the allocation-free frame-loop entry point). Returns the
/// coarse-raster tile count.
pub fn rasterize_in_tile_with(
    setup: &SplatSetup,
    splat_index: u32,
    tile: TileId,
    tiling: &Tiling,
    raster_tile_px: u32,
    mut emit: impl FnMut(Quad),
) -> u64 {
    let (tile_x0, tile_y0) = tiling.tile_origin(tile);
    let tile_x1 = (tile_x0 + tiling.tile_px()).min(tiling.width());
    let tile_y1 = (tile_y0 + tiling.tile_px()).min(tiling.height());

    // Clip the primitive AABB to this tile.
    let min_x = setup.aabb.0.x.max(tile_x0 as f32);
    let min_y = setup.aabb.0.y.max(tile_y0 as f32);
    let max_x = setup.aabb.1.x.min(tile_x1 as f32 - 1.0);
    let max_y = setup.aabb.1.y.min(tile_y1 as f32 - 1.0);
    if min_x > max_x || min_y > max_y {
        return 0;
    }

    // Coarse raster: visit intersecting raster tiles.
    let rt0_x = (min_x as u32 - tile_x0) / raster_tile_px;
    let rt0_y = (min_y as u32 - tile_y0) / raster_tile_px;
    let rt1_x = (max_x as u32 - tile_x0) / raster_tile_px;
    let rt1_y = (max_y as u32 - tile_y0) / raster_tile_px;

    let mut coarse_tiles = 0u64;
    for rty in rt0_y..=rt1_y {
        for rtx in rt0_x..=rt1_x {
            coarse_tiles += 1;
            let rt_x0 = tile_x0 + rtx * raster_tile_px;
            let rt_y0 = tile_y0 + rty * raster_tile_px;
            fine_raster_tile(
                setup,
                splat_index,
                rt_x0,
                rt_y0,
                raster_tile_px,
                tile,
                tiling,
                (min_x, min_y, max_x, max_y),
                &mut emit,
            );
        }
    }
    coarse_tiles
}

/// Fine raster of one 8×8 raster tile: tests pixels quad by quad.
#[allow(clippy::too_many_arguments)]
fn fine_raster_tile(
    setup: &SplatSetup,
    splat_index: u32,
    rt_x0: u32,
    rt_y0: u32,
    raster_tile_px: u32,
    tile: TileId,
    tiling: &Tiling,
    clip: (f32, f32, f32, f32),
    emit: &mut impl FnMut(Quad),
) {
    let (min_x, min_y, max_x, max_y) = clip;
    // Quad-aligned bounds within the raster tile, clipped to the AABB so we
    // do not evaluate obviously-outside quads (the hardware's fine raster
    // similarly walks only candidate stamps).
    let qx0 = ((min_x as u32).max(rt_x0) & !1).max(rt_x0 & !1);
    let qy0 = ((min_y as u32).max(rt_y0) & !1).max(rt_y0 & !1);
    let qx1 = (max_x as u32)
        .min(rt_x0 + raster_tile_px - 1)
        .min(tiling.width() - 1);
    let qy1 = (max_y as u32)
        .min(rt_y0 + raster_tile_px - 1)
        .min(tiling.height() - 1);

    let mut qy = qy0;
    while qy <= qy1 {
        let mut qx = qx0;
        while qx <= qx1 {
            let mut coverage = 0u8;
            for i in 0..4u32 {
                let px = qx + (i & 1);
                let py = qy + (i >> 1);
                if px < tiling.width()
                    && py < tiling.height()
                    && setup.covers(px as f32 + 0.5, py as f32 + 0.5)
                {
                    coverage |= 1 << i;
                }
            }
            if coverage != 0 {
                emit(Quad {
                    tile,
                    pos: tiling.quad_pos(qx, qy),
                    origin: (qx, qy),
                    coverage,
                    splat: splat_index,
                });
            }
            qx += 2;
        }
        qy += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        Tiling::new(64, 64, 16, 4)
    }

    #[test]
    fn setup_rejects_degenerate_obb() {
        let mut s = axis_splat(10.0, 10.0, 4.0, 4.0);
        s.axis_minor = Vec2::ZERO;
        assert!(SplatSetup::new(&s).is_none());
        assert!(SplatSetup::new(&axis_splat(8.0, 8.0, 2.0, 2.0)).is_some());
    }

    #[test]
    fn from_stream_matches_aos_setup() {
        let mut s = axis_splat(20.0, 36.0, 5.0, 3.0);
        s.axis_major = Vec2::new(3.0, 4.0);
        s.axis_minor = Vec2::new(-1.2, 0.9);
        let stream = SplatStream::from_splats(std::slice::from_ref(&s));
        assert_eq!(SplatSetup::from_stream(&stream, 0), SplatSetup::new(&s));
        // Degenerate OBB rejected identically.
        let mut d = s;
        d.axis_minor = Vec2::ZERO;
        let stream = SplatStream::from_splats(std::slice::from_ref(&d));
        assert!(SplatSetup::from_stream(&stream, 0).is_none());
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
        let out = rasterize_in_tile(&setup, 0, TileId { x: 0, y: 0 }, &tiling(), 8);
        assert_eq!(out.quads.len(), 64);
        assert!(out.quads.iter().all(|q| q.coverage == 0xF));
        assert_eq!(out.coarse_tiles, 4); // 2x2 raster tiles of 8x8
    }

    #[test]
    fn small_splat_emits_few_quads() {
        let s = axis_splat(8.0, 8.0, 1.4, 1.4);
        let setup = SplatSetup::new(&s).unwrap();
        let out = rasterize_in_tile(&setup, 3, TileId { x: 0, y: 0 }, &tiling(), 8);
        assert!(!out.quads.is_empty() && out.quads.len() <= 4);
        let frags: u32 = out.quads.iter().map(|q| q.coverage_count()).sum();
        // ~2.8x2.8 px box around (8,8) covers pixels 6..10 in each axis.
        assert!((4..=16).contains(&frags), "frags = {frags}");
        assert!(out.quads.iter().all(|q| q.splat == 3));
    }

    #[test]
    fn out_of_tile_splat_produces_nothing() {
        let s = axis_splat(8.0, 8.0, 2.0, 2.0);
        let setup = SplatSetup::new(&s).unwrap();
        let out = rasterize_in_tile(&setup, 0, TileId { x: 3, y: 3 }, &tiling(), 8);
        assert!(out.quads.is_empty());
        assert_eq!(out.coarse_tiles, 0);
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
                let out = rasterize_in_tile(&setup, 0, TileId { x: tx, y: ty }, &t, 8);
                for q in out.quads {
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
        let out = rasterize_in_tile(&setup, 0, TileId { x: 0, y: 0 }, &tiling(), 8);
        // Raster-tile-major, then scan order within; positions never repeat.
        let mut seen = std::collections::HashSet::new();
        for q in &out.quads {
            assert!(seen.insert((q.origin.0, q.origin.1)));
        }
    }
}
