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

use gsplat::blend::{
    fragment_alpha, ALPHA_MAX, ALPHA_PRUNE_THRESHOLD, EARLY_TERMINATION_THRESHOLD,
};
use gsplat::color::{PixelFormat, Rgba};
use gsplat::framebuffer::ColorBuffer;
use gsplat::par::{run_indexed, Bands, ThreadPolicy};
use gsplat::splat::Splat;
use gsplat::stream::{FragmentKernel, SplatStream};
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
    /// Fragment-kernel implementation (AoS `Scalar` oracle vs SoA fast
    /// path). Images, fragment counts and modelled times are bit-exact
    /// between the two.
    pub kernel: FragmentKernel,
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
            kernel: FragmentKernel::Scalar,
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
// vrlint: hot
// vrlint: allow-block(VL01[index], reason = "band-local pixel indices are clamped to the band's row window of the framebuffer split")
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
    // vrlint: allow(VL02, reason = "whole-frame render targets are allocated per call; this kernel is a modelled workload probe, not the vrpipe scratch-reusing frame loop")
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
    let n_bands = height.div_ceil(band_rows) as usize;

    let batch_len = splats.len().div_ceil(passes);
    let mut time_cycles = 0.0f64;

    // SoA view for the `Soa` kernel, built once for all passes.
    let stream = match cfg.kernel {
        FragmentKernel::Scalar => None,
        FragmentKernel::Soa => Some(SplatStream::from_splats(splats)),
    };

    for (pass, batch) in splats.chunks(batch_len.max(1)).enumerate() {
        let batch_start = pass * batch_len.max(1);
        // --- Draw call 1: blend the batch under the stencil test. ---
        let color_bands = Bands::new(color.pixels_mut(), (band_rows * width) as usize);
        let stencil_bands = Bands::new(&mut stencil, (band_rows * width) as usize);
        let band_counts = run_indexed(n_bands, policy, |b| {
            let band_color = color_bands.take(b);
            let band_stencil = stencil_bands.take(b);
            let row0 = b as u32 * band_rows;
            let row1 = (row0 + band_rows).min(height);
            let mut pass_raster = 0u64;
            let mut pass_blend = 0u64;
            let mut pass_discarded = 0u64;
            match &stream {
                None => {
                    for s in batch {
                        let (lo, hi) = s.aabb();
                        if hi.x < 0.0 || hi.y < 0.0 || lo.x >= width as f32 || lo.y >= height as f32
                        {
                            continue;
                        }
                        let x0 = lo.x.max(0.0) as u32;
                        let y0 = (lo.y.max(0.0) as u32).max(row0);
                        let x1 = (hi.x.min(width as f32 - 1.0)).max(0.0) as u32;
                        let y1 = ((hi.y.min(height as f32 - 1.0)).max(0.0) as u32).min(row1 - 1);
                        if y0 > y1 || y0 >= row1 {
                            continue;
                        }
                        for y in y0..=y1 {
                            for x in x0..=x1 {
                                pass_raster += 1;
                                let idx = ((y - row0) * width + x) as usize;
                                if band_stencil[idx] {
                                    pass_discarded += 1;
                                    continue;
                                }
                                let dx = x as f32 + 0.5 - s.center.x;
                                let dy = y as f32 + 0.5 - s.center.y;
                                if let Some(alpha) = fragment_alpha(s.opacity, s.conic, dx, dy) {
                                    let dest = band_color[idx];
                                    let t = 1.0 - dest.a;
                                    band_color[idx] = Rgba::new(
                                        dest.r + t * s.color.x * alpha,
                                        dest.g + t * s.color.y * alpha,
                                        dest.b + t * s.color.z * alpha,
                                        dest.a + t * alpha,
                                    );
                                    pass_blend += 1;
                                }
                            }
                        }
                    }
                }
                Some(stream) => {
                    // SoA kernel: flat-slice parameter loads, the per-row
                    // `c·dy·dy` term hoisted (same value, same rounding),
                    // otherwise operation-for-operation the scalar oracle.
                    for j in 0..batch.len() {
                        let si = batch_start + j;
                        let cx = stream.center_x()[si];
                        let cy = stream.center_y()[si];
                        let (a, bq, c) = stream.conic(si);
                        let opacity = stream.opacity()[si];
                        let (maj, min_ax) = stream.axes(si);
                        let ext_x = maj.x.abs() + min_ax.x.abs();
                        let ext_y = maj.y.abs() + min_ax.y.abs();
                        let (lo_x, lo_y) = (cx - ext_x, cy - ext_y);
                        let (hi_x, hi_y) = (cx + ext_x, cy + ext_y);
                        if hi_x < 0.0 || hi_y < 0.0 || lo_x >= width as f32 || lo_y >= height as f32
                        {
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
                }
            }
            (pass_raster, pass_blend, pass_discarded)
        });
        let mut pass_raster = 0u64;
        let mut pass_blend = 0u64;
        for (raster, blend, disc) in band_counts {
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
            let color_bands = Bands::new(color.pixels_mut(), (band_rows * width) as usize);
            let stencil_bands = Bands::new(&mut stencil, (band_rows * width) as usize);
            run_indexed(n_bands, policy, |b| {
                let band_color = color_bands.take(b);
                let band_stencil = stencil_bands.take(b);
                for (st, px) in band_stencil.iter_mut().zip(band_color.iter()) {
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
    fn soa_kernel_matches_scalar_bit_exactly() {
        let splats = stacked(48, 0.8);
        for passes in [1usize, 4, 9] {
            let scalar = render_multipass(&splats, 70, 50, passes, &MultiPassConfig::default());
            let soa_cfg = MultiPassConfig {
                kernel: FragmentKernel::Soa,
                ..MultiPassConfig::default()
            };
            let soa = render_multipass(&splats, 70, 50, passes, &soa_cfg);
            assert_eq!(soa.blended_fragments, scalar.blended_fragments, "{passes}");
            assert_eq!(
                soa.stencil_discarded_fragments,
                scalar.stencil_discarded_fragments
            );
            assert_eq!(soa.time_ms, scalar.time_ms, "{passes}");
            assert_eq!(
                soa.color.max_abs_diff(&scalar.color),
                0.0,
                "passes={passes}: image diverged"
            );
        }
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
