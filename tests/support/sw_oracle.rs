//! Scalar reference kernels of the three software renderers: the plain
//! per-fragment AoS loops that the production SoA kernels must reproduce
//! bit for bit. Each runs serially over the `&[Splat]` list and calls
//! `gsplat::blend::fragment_alpha` per fragment, with none of the
//! production fast paths (SoA stream, tile alpha bound, retired-tile
//! abandon, row bands, chunk-ordered bins).
//!
//! Included by `tests/kernel_parity.rs`.

use gsplat::blend::{fragment_alpha, PixelAccumulator, EARLY_TERMINATION_THRESHOLD};
use gsplat::{ColorBuffer, PixelFormat, Rgba, Splat};
use swrender::cuda_like::SwStats;
use swrender::multipass::{MultiPassConfig, MultiPassFrame};

/// Inclusive pixel rectangle `(x0, y0, x1, y1)` of a splat's AABB clamped
/// to the viewport, or `None` when the AABB misses it.
fn clamped_aabb(s: &Splat, width: u32, height: u32) -> Option<(u32, u32, u32, u32)> {
    let (lo, hi) = s.aabb();
    if hi.x < 0.0 || hi.y < 0.0 || lo.x >= width as f32 || lo.y >= height as f32 {
        return None;
    }
    let x0 = lo.x.max(0.0) as u32;
    let y0 = lo.y.max(0.0) as u32;
    let x1 = (hi.x.min(width as f32 - 1.0)).max(0.0) as u32;
    let y1 = (hi.y.min(height as f32 - 1.0)).max(0.0) as u32;
    (y0 <= y1).then_some((x0, y0, x1, y1))
}

/// The CUDA-style renderer with `tile`-pixel tiles: each tile's splat
/// list is built by testing every splat's AABB against the tile, then 8
/// warps of 32 pixel threads sweep the list in lockstep. Returns the image
/// and every [`SwStats`] field except `bound_skipped_iterations`, which
/// stays 0.
pub fn cuda_like(
    splats: &[Splat],
    width: u32,
    height: u32,
    tile: u32,
    early_termination: bool,
) -> (ColorBuffer, SwStats) {
    let mut color = ColorBuffer::new(width, height, PixelFormat::Rgba16F);
    let mut stats = SwStats::default();
    let n_px = (tile * tile) as usize;
    let done = |a: &PixelAccumulator| a.alpha() >= EARLY_TERMINATION_THRESHOLD;
    for ty in 0..height.div_ceil(tile) {
        for tx in 0..width.div_ceil(tile) {
            let list: Vec<&Splat> = splats
                .iter()
                .filter(|s| {
                    let (lo, hi) = s.aabb();
                    if hi.x < 0.0 || hi.y < 0.0 || lo.x >= width as f32 || lo.y >= height as f32 {
                        return false;
                    }
                    let tile_of = |v: f32, extent: u32| (v.max(0.0) as u32).min(extent - 1) / tile;
                    (tile_of(lo.x, width)..=tile_of(hi.x, width)).contains(&tx)
                        && (tile_of(lo.y, height)..=tile_of(hi.y, height)).contains(&ty)
                })
                .collect();
            stats.duplicated_keys += list.len() as u64;
            if list.is_empty() {
                continue;
            }
            let pixel = |t: usize| (tx * tile + t as u32 % tile, ty * tile + t as u32 / tile);
            let in_bounds: Vec<bool> = (0..n_px)
                .map(|t| {
                    let (x, y) = pixel(t);
                    x < width && y < height
                })
                .collect();
            let mut acc = vec![PixelAccumulator::new(); n_px];
            for warp in 0..n_px / 32 {
                let lanes = warp * 32..warp * 32 + 32;
                for (iter, s) in list.iter().enumerate() {
                    // Whole-warp early exit: every live pixel terminated.
                    if early_termination && lanes.clone().all(|t| !in_bounds[t] || done(&acc[t])) {
                        stats.warp_iterations_saved += (list.len() - iter) as u64;
                        break;
                    }
                    stats.warp_iterations += 1;
                    stats.thread_slots += 32;
                    for t in lanes.clone().filter(|&t| in_bounds[t]) {
                        if early_termination && done(&acc[t]) {
                            stats.terminated_fragments += 1;
                            continue;
                        }
                        let (x, y) = pixel(t);
                        let dx = x as f32 + 0.5 - s.center.x;
                        let dy = y as f32 + 0.5 - s.center.y;
                        if let Some(alpha) = fragment_alpha(s.opacity, s.conic, dx, dy) {
                            acc[t].blend(s.color, alpha);
                            stats.blending_threads += 1;
                            stats.blended_fragments += 1;
                        }
                    }
                }
            }
            stats.tiles_swept += 1;
            if (0..n_px).all(|t| !in_bounds[t] || done(&acc[t])) {
                stats.retired_tiles += 1;
            }
            for t in (0..n_px).filter(|&t| in_bounds[t]) {
                let (x, y) = pixel(t);
                color.set(x, y, acc[t].color());
            }
        }
    }
    (color, stats)
}

/// Multi-pass rendering (Algorithm 1): each batch blends under the stencil
/// test, then a full-screen pass sets the stencil of terminated pixels.
/// The modelled time uses `cfg`'s rates, as the production renderer does.
pub fn multipass(
    splats: &[Splat],
    width: u32,
    height: u32,
    passes: usize,
    cfg: &MultiPassConfig,
) -> MultiPassFrame {
    let mut color = ColorBuffer::new(width, height, PixelFormat::Rgba16F);
    let mut stencil = vec![false; (width * height) as usize];
    let (mut blended, mut discarded, mut cycles) = (0u64, 0u64, 0.0f64);
    for (pass, batch) in splats
        .chunks(splats.len().div_ceil(passes).max(1))
        .enumerate()
    {
        let (mut raster, mut blend) = (0u64, 0u64);
        for s in batch {
            let Some((x0, y0, x1, y1)) = clamped_aabb(s, width, height) else {
                continue;
            };
            for y in y0..=y1 {
                for x in x0..=x1 {
                    raster += 1;
                    if stencil[(y * width + x) as usize] {
                        discarded += 1;
                        continue;
                    }
                    let dx = x as f32 + 0.5 - s.center.x;
                    let dy = y as f32 + 0.5 - s.center.y;
                    if let Some(alpha) = fragment_alpha(s.opacity, s.conic, dx, dy) {
                        let dest = color.get(x, y);
                        let t = 1.0 - dest.a;
                        color.set(
                            x,
                            y,
                            Rgba::new(
                                dest.r + t * s.color.x * alpha,
                                dest.g + t * s.color.y * alpha,
                                dest.b + t * s.color.z * alpha,
                                dest.a + t * alpha,
                            ),
                        );
                        blend += 1;
                    }
                }
            }
        }
        blended += blend;
        cycles += cfg.draw_call_overhead_cycles
            + (raster as f64 / 4.0) / cfg.raster_quads_per_cycle
            + (blend as f64 / 4.0) / cfg.blend_quads_per_cycle;
        if pass + 1 < passes {
            for (st, px) in stencil.iter_mut().zip(color.pixels()) {
                *st |= px.a >= EARLY_TERMINATION_THRESHOLD;
            }
            cycles += cfg.draw_call_overhead_cycles
                + (width * height) as f64 / cfg.stencil_update_px_per_cycle;
        }
    }
    MultiPassFrame {
        color,
        passes,
        blended_fragments: blended,
        stencil_discarded_fragments: discarded,
        time_ms: cycles / (cfg.core_freq_mhz * 1e3),
    }
}

/// The in-shader fragment workload: `(fragments, quads,
/// max_fragments_per_pixel)` from a per-fragment coverage scan.
pub fn fragment_workload(splats: &[Splat], width: u32, height: u32) -> (u64, u64, u64) {
    let mut per_pixel = vec![0u32; (width * height) as usize];
    let mut fragments = 0u64;
    for s in splats {
        let Some((x0, y0, x1, y1)) = clamped_aabb(s, width, height) else {
            continue;
        };
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = x as f32 + 0.5 - s.center.x;
                let dy = y as f32 + 0.5 - s.center.y;
                if fragment_alpha(s.opacity, s.conic, dx, dy).is_some() {
                    fragments += 1;
                    per_pixel[(y * width + x) as usize] += 1;
                }
            }
        }
    }
    let quads = (fragments as f64 / 3.2).ceil() as u64;
    let max_chain = per_pixel.iter().copied().max().unwrap_or(0) as u64;
    (fragments, quads, max_chain)
}
