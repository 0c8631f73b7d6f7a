//! Multi-pass software early termination via graphics APIs
//! (paper §IV-B, Algorithm 1, Fig. 11).
//!
//! The depth-sorted splats are split into `N` batches. Each pass draws one
//! batch with a stencil test that discards fragments of already-terminated
//! pixels, then renders a screen-sized rectangle that sets the stencil for
//! pixels whose accumulated alpha crossed the threshold. Early termination
//! is therefore only checked at *batch* granularity, and each extra pass
//! pays a stencil-update draw — the trade-off Fig. 11 sweeps.
//!
//! Both draws are parallel over disjoint framebuffer row bands. Within a
//! band the batch's splats blend in draw order, so every pixel sees the
//! exact serial blend sequence — the parallel render is bit-exact with
//! `threads: 1`.
//!
//! The blend reads a SoA [`SplatStream`] copy of the splat list, built once
//! per render, and hoists the per-row falloff term; its image and counts
//! equal those of the plain per-fragment stencil blend the tests keep as
//! the reference (`tests/support/sw_oracle.rs`).

use gsplat::blend::{ALPHA_MAX, ALPHA_PRUNE_THRESHOLD, EARLY_TERMINATION_THRESHOLD};
use gsplat::color::{PixelFormat, Rgba};
use gsplat::framebuffer::ColorBuffer;
use gsplat::par::{for_each_claimed, ThreadPolicy};
use gsplat::splat::Splat;
use gsplat::stream::SplatStream;
use serde::{Deserialize, Serialize};

/// Cost model for the multi-pass OpenGL renderer, expressed in the same
/// hardware-rate terms as the pipeline simulator (ROP-bound draw calls).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiPassConfig {
    /// Blended quads per cycle (ROP throughput at RGBA16F).
    pub blend_quads_per_cycle: f64,
    /// Rasterised (stencil-tested) quads per cycle — fragments of
    /// terminated pixels still consume raster/ZROP slots.
    pub raster_quads_per_cycle: f64,
    /// Stencil-update fullscreen pass: pixels per cycle.
    pub stencil_update_px_per_cycle: f64,
    /// Fixed overhead per draw call in cycles (validation, state roll,
    /// pipeline drain between ordered passes).
    pub draw_call_overhead_cycles: f64,
    /// Core clock in MHz.
    pub core_freq_mhz: f64,
    /// Host worker threads for the functional render (`0` = all cores).
    pub threads: usize,
}

impl Default for MultiPassConfig {
    fn default() -> Self {
        Self {
            blend_quads_per_cycle: 2.0,
            raster_quads_per_cycle: 12.0,
            stencil_update_px_per_cycle: 16.0,
            draw_call_overhead_cycles: 60_000.0,
            core_freq_mhz: 612.0,
            threads: 0,
        }
    }
}

impl MultiPassConfig {
    /// The work-distribution policy these settings describe.
    pub fn thread_policy(&self) -> ThreadPolicy {
        ThreadPolicy {
            threads: self.threads,
        }
    }
}

/// Result of a multi-pass render.
#[derive(Debug, Clone)]
pub struct MultiPassFrame {
    /// Rendered pre-multiplied color buffer.
    pub color: ColorBuffer,
    /// Number of passes used.
    pub passes: usize,
    /// Fragments blended (stencil-surviving).
    pub blended_fragments: u64,
    /// Fragments discarded by the stencil test across passes.
    pub stencil_discarded_fragments: u64,
    /// Modelled render time in milliseconds.
    pub time_ms: f64,
}

/// Renders with `passes`-way multi-pass early termination (Algorithm 1).
///
/// `passes == 1` is the plain single-pass OpenGL baseline.
///
/// # Panics
///
/// Panics when `passes == 0`.
///
/// # Examples
///
/// ```
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
/// use swrender::multipass::{render_multipass, MultiPassConfig};
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let cam = scene.default_camera();
/// let pre = preprocess(&scene, &cam);
/// let one = render_multipass(&pre.splats, cam.width(), cam.height(), 1, &MultiPassConfig::default());
/// let four = render_multipass(&pre.splats, cam.width(), cam.height(), 4, &MultiPassConfig::default());
/// assert!(four.blended_fragments <= one.blended_fragments);
/// ```
pub fn render_multipass(
    splats: &[Splat],
    width: u32,
    height: u32,
    passes: usize,
    cfg: &MultiPassConfig,
) -> MultiPassFrame {
    assert!(passes > 0, "at least one pass required");
    let policy = cfg.thread_policy();
    let mut color = ColorBuffer::new(width, height, PixelFormat::Rgba16F);
    // Stencil: true = terminated (stencil value 1 in Algorithm 1).
    let mut stencil = vec![false; (width * height) as usize];
    let mut blended = 0u64;
    let mut discarded = 0u64;

    // Row bands: over-split relative to the worker count so skewed splat
    // footprints still balance; a single worker gets a single band (no
    // point re-scanning the batch per band).
    let workers = policy.workers(height as usize);
    let band_rows = if workers <= 1 {
        height
    } else {
        height.div_ceil((workers * 4) as u32).max(1)
    };
    let band_len = (band_rows * width) as usize;
    // Per row band: its color and stencil rows and the current pass's
    // (rasterized, blended, discarded) fragment counts.
    let mut bands: Vec<_> = color
        .pixels_mut()
        .chunks_mut(band_len)
        .zip(stencil.chunks_mut(band_len))
        .map(|(color, stencil)| (color, stencil, (0u64, 0u64, 0u64)))
        .collect();

    let batch_len = splats.len().div_ceil(passes).max(1);
    let mut time_cycles = 0.0f64;

    // SoA copy of the splat list, built once for all passes.
    let stream = SplatStream::from_splats(splats);

    for (pass, start) in (0..splats.len()).step_by(batch_len).enumerate() {
        let batch = start..(start + batch_len).min(splats.len());
        // --- Draw call 1: blend the batch under the stencil test. ---
        for_each_claimed(workers, &mut bands, |(color, stencil, counts), b| {
            let row0 = b as u32 * band_rows;
            let rows = (row0, (row0 + band_rows).min(height));
            *counts = blend_band(&stream, batch.clone(), color, stencil, rows, width, height);
        });
        let mut pass_raster = 0u64;
        let mut pass_blend = 0u64;
        for &(.., (raster, blend, disc)) in &bands {
            pass_raster += raster;
            pass_blend += blend;
            discarded += disc;
        }
        blended += pass_blend;
        time_cycles += cfg.draw_call_overhead_cycles
            + (pass_raster as f64 / 4.0) / cfg.raster_quads_per_cycle
            + (pass_blend as f64 / 4.0) / cfg.blend_quads_per_cycle;

        // --- Draw call 2: stencil update (skipped after the last pass). ---
        if pass + 1 < passes {
            for_each_claimed(workers, &mut bands, |(color, stencil, _), _| {
                for (st, px) in stencil.iter_mut().zip(color.iter()) {
                    if !*st && px.a >= EARLY_TERMINATION_THRESHOLD {
                        *st = true;
                    }
                }
            });
            time_cycles += cfg.draw_call_overhead_cycles
                + (width * height) as f64 / cfg.stencil_update_px_per_cycle;
        }
    }

    MultiPassFrame {
        color,
        passes,
        blended_fragments: blended,
        stencil_discarded_fragments: discarded,
        time_ms: time_cycles / (cfg.core_freq_mhz * 1e3),
    }
}

/// Blends the splats `batch` of `stream` into the row band `rows` under
/// the stencil test. `color` and `stencil` are the band's pixels. Returns
/// the band's (rasterized, blended, discarded) fragment counts.
///
/// The per-row `c·dy·dy` term is hoisted (same operation tree, so the same
/// value); otherwise the arithmetic is operation-for-operation
/// `gsplat::blend::fragment_alpha` and `Splat::aabb`.
// vrlint: hot
// vrlint: allow-block(VL01[index], reason = "band-local pixel indices are clamped to the band's row window of the framebuffer split")
fn blend_band(
    stream: &SplatStream,
    batch: std::ops::Range<usize>,
    band_color: &mut [Rgba],
    band_stencil: &[bool],
    (row0, row1): (u32, u32),
    width: u32,
    height: u32,
) -> (u64, u64, u64) {
    let mut pass_raster = 0u64;
    let mut pass_blend = 0u64;
    let mut pass_discarded = 0u64;
    for si in batch {
        let cx = stream.center_x()[si];
        let cy = stream.center_y()[si];
        let (a, bq, c) = stream.conic(si);
        let opacity = stream.opacity()[si];
        let (maj, min_ax) = stream.axes(si);
        let ext_x = maj.x.abs() + min_ax.x.abs();
        let ext_y = maj.y.abs() + min_ax.y.abs();
        let (lo_x, lo_y) = (cx - ext_x, cy - ext_y);
        let (hi_x, hi_y) = (cx + ext_x, cy + ext_y);
        if hi_x < 0.0 || hi_y < 0.0 || lo_x >= width as f32 || lo_y >= height as f32 {
            continue;
        }
        let x0 = lo_x.max(0.0) as u32;
        let y0 = (lo_y.max(0.0) as u32).max(row0);
        let x1 = (hi_x.min(width as f32 - 1.0)).max(0.0) as u32;
        let y1 = ((hi_y.min(height as f32 - 1.0)).max(0.0) as u32).min(row1 - 1);
        if y0 > y1 || y0 >= row1 {
            continue;
        }
        let (cr, cg, cb) = {
            let v = stream.color(si);
            (v.x, v.y, v.z)
        };
        for y in y0..=y1 {
            let dy = y as f32 + 0.5 - cy;
            let cdy2 = c * dy * dy;
            for x in x0..=x1 {
                pass_raster += 1;
                let idx = ((y - row0) * width + x) as usize;
                if band_stencil[idx] {
                    pass_discarded += 1;
                    continue;
                }
                let dx = x as f32 + 0.5 - cx;
                let power = -0.5 * (a * dx * dx + cdy2) - bq * dx * dy;
                let falloff = if power > 0.0 { 0.0 } else { power.exp() };
                let alpha = (opacity * falloff).min(ALPHA_MAX);
                if alpha >= ALPHA_PRUNE_THRESHOLD {
                    let dest = band_color[idx];
                    let t = 1.0 - dest.a;
                    band_color[idx] = Rgba::new(
                        dest.r + t * cr * alpha,
                        dest.g + t * cg * alpha,
                        dest.b + t * cb * alpha,
                        dest.a + t * alpha,
                    );
                    pass_blend += 1;
                }
            }
        }
    }
    (pass_raster, pass_blend, pass_discarded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::math::{Vec2, Vec3};

    fn stacked(n: usize, opacity: f32) -> Vec<Splat> {
        (0..n)
            .map(|i| Splat {
                center: Vec2::new(16.0, 16.0),
                depth: 1.0 + i as f32,
                conic: (0.02, 0.0, 0.02),
                axis_major: Vec2::new(14.0, 0.0),
                axis_minor: Vec2::new(0.0, 14.0),
                color: Vec3::new(0.7, 0.3, 0.2),
                opacity,
                source: i as u32,
            })
            .collect()
    }

    #[test]
    fn single_pass_blends_everything_visible() {
        let f = render_multipass(&stacked(20, 0.5), 32, 32, 1, &MultiPassConfig::default());
        assert_eq!(f.passes, 1);
        assert_eq!(f.stencil_discarded_fragments, 0);
        assert!(f.blended_fragments > 0);
    }

    #[test]
    fn more_passes_discard_more() {
        let splats = stacked(64, 0.8);
        let cfg = MultiPassConfig::default();
        let p1 = render_multipass(&splats, 32, 32, 1, &cfg);
        let p4 = render_multipass(&splats, 32, 32, 4, &cfg);
        let p16 = render_multipass(&splats, 32, 32, 16, &cfg);
        assert!(p4.blended_fragments < p1.blended_fragments);
        assert!(p16.blended_fragments <= p4.blended_fragments);
        assert!(p16.stencil_discarded_fragments > p4.stencil_discarded_fragments);
    }

    #[test]
    fn pass_overhead_eventually_dominates() {
        // With a tiny scene, many passes must be slower than one pass.
        let splats = stacked(8, 0.1);
        let cfg = MultiPassConfig::default();
        let p1 = render_multipass(&splats, 32, 32, 1, &cfg);
        let p30 = render_multipass(&splats, 32, 32, 30, &cfg);
        assert!(p30.time_ms > p1.time_ms);
    }

    #[test]
    fn images_match_single_pass_within_termination_tolerance() {
        let splats = stacked(64, 0.8);
        let cfg = MultiPassConfig::default();
        let p1 = render_multipass(&splats, 32, 32, 1, &cfg);
        let p8 = render_multipass(&splats, 32, 32, 8, &cfg);
        assert!(p1.color.max_abs_diff(&p8.color) < 3.0 / 255.0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_panics() {
        let _ = render_multipass(&[], 32, 32, 0, &MultiPassConfig::default());
    }

    #[test]
    fn parallel_is_bit_exact_with_serial() {
        let splats = stacked(48, 0.8);
        let serial_cfg = MultiPassConfig {
            threads: 1,
            ..MultiPassConfig::default()
        };
        for passes in [1usize, 4, 9] {
            let serial = render_multipass(&splats, 70, 50, passes, &serial_cfg);
            for threads in [3, 4, 0] {
                let cfg = MultiPassConfig {
                    threads,
                    ..MultiPassConfig::default()
                };
                let par = render_multipass(&splats, 70, 50, passes, &cfg);
                assert_eq!(par.blended_fragments, serial.blended_fragments);
                assert_eq!(
                    par.stencil_discarded_fragments,
                    serial.stencil_discarded_fragments
                );
                assert_eq!(par.time_ms, serial.time_ms);
                assert_eq!(
                    par.color.max_abs_diff(&serial.color),
                    0.0,
                    "passes={passes} threads={threads}"
                );
            }
        }
    }
}
