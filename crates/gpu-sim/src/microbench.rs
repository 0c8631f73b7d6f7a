//! Microbenchmarks of the fixed-function units (paper §VII-A, Fig. 20),
//! re-run against the simulator's models instead of real Ampere hardware.
//!
//! The paper used these experiments to *derive* the model parameters (CROP
//! cache ≈ 16 KB, quad-granularity ROPs, 32 TC bins); here they validate
//! that our models reproduce the measured behaviour.

use gsplat::color::PixelFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binning::BinTable;
use crate::cache::Cache;
use crate::config::GpuConfig;

/// Result of one CROP-cache working-set probe (Fig. 20a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CropCacheProbe {
    /// Rectangle footprint described, e.g. (8, 16).
    pub rect: (u32, u32),
    /// Number of rectangles drawn.
    pub rects: u32,
    /// Total color data touched, in bytes.
    pub data_bytes: usize,
    /// L2 accesses caused by CROP-cache misses *after warmup* — zero while
    /// the working set fits.
    pub l2_accesses: u64,
}

/// Fig. 20a: draws `rects` rectangles of `rect_w`×`rect_h` at random
/// non-overlapping tile-aligned positions, re-blending them repeatedly, and
/// reports whether the steady-state working set stays inside the CROP cache.
pub fn crop_cache_probe(
    cfg: &GpuConfig,
    rect_w: u32,
    rect_h: u32,
    rects: u32,
    seed: u64,
) -> CropCacheProbe {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fully associative: this probe measures *capacity* (as Fig. 20a does);
    // set conflicts at random positions would blur the 16 KB edge.
    let lines = cfg.crop_cache_bytes / cfg.cache_line_bytes;
    let mut cache = Cache::new(cfg.crop_cache_bytes, cfg.cache_line_bytes, lines);
    let bpp = cfg.pixel_format.bytes_per_pixel();
    // Framebuffer lines: a 128-B line holds 16 RGBA16F pixels, laid out as
    // a 4×4 pixel block (GOB-style tiling).
    let block = 4u32;
    let fb_w_blocks = 2048 / block;

    // Random distinct block-aligned origins.
    let mut origins = Vec::with_capacity(rects as usize);
    let mut used = std::collections::HashSet::new();
    while origins.len() < rects as usize {
        let ox = rng.gen_range(0..(2048 - rect_w) / block) * block;
        let oy = rng.gen_range(0..(2048 - rect_h) / block) * block;
        if used.insert((ox, oy)) {
            origins.push((ox, oy));
        }
    }

    let touch = |cache: &mut Cache, origins: &[(u32, u32)]| -> u64 {
        let mut misses = 0;
        for &(ox, oy) in origins {
            for by in (0..rect_h).step_by(block as usize) {
                for bx in (0..rect_w).step_by(block as usize) {
                    let line = ((oy + by) / block) as u64 * fb_w_blocks as u64
                        + ((ox + bx) / block) as u64;
                    if !cache.access(line, true) {
                        misses += 1;
                    }
                }
            }
        }
        misses
    };

    // Warmup pass fills the cache; the measured passes count L2 traffic.
    touch(&mut cache, &origins);
    let mut l2 = 0;
    for _ in 0..4 {
        l2 += touch(&mut cache, &origins);
    }
    CropCacheProbe {
        rect: (rect_w, rect_h),
        rects,
        data_bytes: rects as usize * (rect_w * rect_h) as usize * bpp,
        l2_accesses: l2,
    }
}

/// Fig. 20b: ROP pixel throughput per cycle by color format.
pub fn rop_pixels_per_cycle(cfg: &GpuConfig, format: PixelFormat) -> u32 {
    let mut c = cfg.clone();
    c.pixel_format = format;
    c.crop_quads_per_cycle() * 4
}

/// Fig. 20c: normalized render time as a function of quads per pixel.
///
/// ROPs operate at quad granularity, so blending P pixels delivered as
/// `q` quads per pixel costs `q` quad-slots per pixel: partially covered
/// quads waste ROP lanes. Time is normalized to the fully-packed case
/// (0.25 quads per pixel).
pub fn rop_time_vs_quads_per_pixel(quads_per_pixel: f32) -> f32 {
    assert!(
        (0.25..=1.0).contains(&quads_per_pixel),
        "quads per pixel must be in [0.25, 1]"
    );
    quads_per_pixel / 0.25
}

/// Result of the tile-binning warp-launch experiment (§VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBinningProbe {
    /// Number of distinct screen tiles the rectangles rotate through.
    pub tiles: u32,
    /// Rectangles drawn (one quad each).
    pub rects: u32,
    /// Warps launched after binning.
    pub warps: u64,
}

/// §VII-A tile-binning microbench: draws 2×2 rectangles round-robin across
/// `tiles` screen tiles and counts launched warps. With ≤ 32 tiles the
/// quads coalesce into full warps; at 33 tiles every insertion evicts the
/// oldest bin and each warp carries a single quad.
pub fn tile_binning_probe(cfg: &GpuConfig, tiles: u32, rects: u32) -> TileBinningProbe {
    let mut tc: BinTable<u32, u32> = BinTable::new(cfg.tc_bins, cfg.tc_bin_size);
    let quads_per_warp = cfg.quads_per_warp() as u64;
    let mut warps = 0u64;
    let mut count_flush = |items: usize| {
        warps += (items as u64).div_ceil(quads_per_warp);
    };
    for i in 0..rects {
        let tile = i % tiles;
        for f in tc.insert(tile, i) {
            count_flush(f.items.len());
        }
    }
    while let Some(f) = tc.drain_next() {
        count_flush(f.items.len());
    }
    TileBinningProbe {
        tiles,
        rects,
        warps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crop_cache_fits_16kb_of_rectangles() {
        let cfg = GpuConfig::default();
        // 16 rectangles of 8×16 px at RGBA16F = 16 KB: fits, no L2 traffic.
        let fit = crop_cache_probe(&cfg, 8, 16, 16, 42);
        assert_eq!(fit.data_bytes, 16 * 1024);
        assert_eq!(fit.l2_accesses, 0, "16KB working set must fit");
        // 24 rectangles = 24 KB: thrashes.
        let spill = crop_cache_probe(&cfg, 8, 16, 24, 42);
        assert!(spill.l2_accesses > 0, "24KB working set must spill");
    }

    #[test]
    fn rop_throughput_matches_fig20b() {
        let cfg = GpuConfig::default();
        assert_eq!(rop_pixels_per_cycle(&cfg, PixelFormat::Rgba8), 16);
        assert_eq!(rop_pixels_per_cycle(&cfg, PixelFormat::Rgba16F), 8);
    }

    #[test]
    fn quad_granularity_penalty() {
        assert_eq!(rop_time_vs_quads_per_pixel(0.25), 1.0);
        assert_eq!(rop_time_vs_quads_per_pixel(1.0), 4.0);
        assert!((rop_time_vs_quads_per_pixel(0.5) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tile_binning_cliff_at_33_tiles() {
        let cfg = GpuConfig::default();
        // Paper: 320 rectangles / 32 tiles → ~67 warps.
        let ok = tile_binning_probe(&cfg, 32, 320);
        assert!(ok.warps <= 70, "expected coalesced warps, got {}", ok.warps);
        // Paper: 330 rectangles / 33 tiles → 330 warps.
        let bad = tile_binning_probe(&cfg, 33, 330);
        assert_eq!(bad.warps, 330, "each quad must launch alone");
    }

    #[test]
    #[should_panic(expected = "quads per pixel")]
    fn quads_per_pixel_out_of_range_panics() {
        let _ = rop_time_vs_quads_per_pixel(0.1);
    }
}
