//! High-level rendering API: scene + camera + variant → frame, plus the
//! end-to-end time model (preprocessing + sorting + draw call) used by the
//! paper's overall comparison (Figs. 5 and 17).

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::camera::Camera;
use gsplat::framebuffer::ColorBuffer;
use gsplat::preprocess::{preprocess_into, PreprocessScratch, PreprocessStats};
use gsplat::scene::Scene;
use gsplat::splat::Splat;
use serde::{Deserialize, Serialize};

use crate::pipeline::{draw_with_scratch, DrawScratch};
use crate::variant::PipelineVariant;

/// Per-gaussian preprocessing cost on the reference edge GPU (ms per
/// Gaussian) — calibrated against the AGX Orin numbers the paper uses for
/// its end-to-end estimate (§VI-B footnote 6: preprocess + sort are taken
/// from AGX Orin measurements in both the paper and this model).
pub const PREPROCESS_MS_PER_GAUSSIAN: f64 = 6.0e-6;
/// Per-splat radix-sort cost on the reference edge GPU (ms per visible
/// splat, CUB-style device radix sort).
pub const SORT_MS_PER_SPLAT: f64 = 8.0e-6;

/// A rendered frame: the image plus all measurements.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Rendered (pre-multiplied) color buffer.
    pub color: ColorBuffer,
    /// Hardware-pipeline statistics of the draw call.
    pub stats: PipelineStats,
    /// Preprocessing statistics.
    pub preprocess: PreprocessStats,
    /// End-to-end time breakdown, extrapolated to full scene scale.
    pub time: TimeBreakdown,
}

/// End-to-end frame-time breakdown in milliseconds (Fig. 5's stacking).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Frustum culling, projection, SH evaluation (CUDA kernels).
    pub preprocess_ms: f64,
    /// Global depth sort (CUB radix sort).
    pub sort_ms: f64,
    /// The draw call through the hardware pipeline (our simulator).
    pub rasterize_ms: f64,
}

impl TimeBreakdown {
    /// Total frame time.
    pub fn total_ms(&self) -> f64 {
        self.preprocess_ms + self.sort_ms + self.rasterize_ms
    }

    /// Frames per second implied by the total.
    pub fn fps(&self) -> f64 {
        if self.total_ms() > 0.0 {
            1000.0 / self.total_ms()
        } else {
            0.0
        }
    }
}

/// Renders Gaussian-splatting scenes through the (extended) hardware
/// graphics pipeline.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
/// use gsplat::scene::EVALUATED_SCENES;
/// use vrpipe::{PipelineVariant, Renderer};
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let renderer = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm);
/// let frame = renderer.render(&scene, &scene.default_camera());
/// assert!(frame.time.rasterize_ms > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Renderer {
    cfg: GpuConfig,
    variant: PipelineVariant,
}

impl Renderer {
    /// Creates a renderer for a GPU configuration and pipeline variant.
    pub fn new(cfg: GpuConfig, variant: PipelineVariant) -> Self {
        Self { cfg, variant }
    }

    /// The GPU configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The pipeline variant in use.
    pub fn variant(&self) -> PipelineVariant {
        self.variant
    }

    /// Renders one frame: preprocess + sort (cost model) and the simulated
    /// draw call.
    ///
    /// Because scenes are generated at a reduced `scale` (DESIGN.md §2),
    /// draw-call cycles are extrapolated to full scale by `1/scale²` (work
    /// is proportional to pixels × depth complexity, both scaling with
    /// `scale²`); preprocessing and sorting scale with the full Gaussian
    /// count directly.
    pub fn render(&self, scene: &Scene, camera: &Camera) -> Frame {
        self.render_with(scene, camera, &mut FrameScratch::default())
    }

    /// [`Renderer::render`] reusing caller-owned scratch buffers: the
    /// frame loop's intermediates (projection chunks, sort keys, the raster
    /// arena, flush records and tile shards) allocate nothing after the
    /// first frame;
    /// only the returned frame's image buffers are fresh.
    pub fn render_with(&self, scene: &Scene, camera: &Camera, scratch: &mut FrameScratch) -> Frame {
        let pre_stats = preprocess_into(
            scene,
            camera,
            self.cfg.thread_policy(),
            &mut scratch.preprocess,
            &mut scratch.splats,
        );
        let out = draw_with_scratch(
            &scratch.splats,
            camera.width(),
            camera.height(),
            &self.cfg,
            self.variant,
            &mut scratch.draw,
        );
        let scale2 = (scene.scale as f64) * (scene.scale as f64);
        let full_gaussians = scene.spec.gaussians as f64;
        let full_visible = pre_stats.visible_splats as f64 / scale2;
        let time = TimeBreakdown {
            preprocess_ms: full_gaussians * PREPROCESS_MS_PER_GAUSSIAN,
            sort_ms: full_visible * SORT_MS_PER_SPLAT,
            rasterize_ms: self.cfg.cycles_to_ms(out.stats.total_cycles) / scale2,
        };
        Frame {
            color: out.color,
            stats: out.stats,
            preprocess: pre_stats,
            time,
        }
    }
}

/// Reusable buffers for [`Renderer::render_with`]: preprocessing scratch,
/// the sorted splat list and the draw-call scratch.
#[derive(Debug, Default)]
pub struct FrameScratch {
    preprocess: PreprocessScratch,
    splats: Vec<Splat>,
    draw: DrawScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::scene::EVALUATED_SCENES;

    #[test]
    fn render_small_scene_all_variants() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.04); // Lego
        let cam = scene.default_camera();
        let mut times = Vec::new();
        for v in PipelineVariant::ALL {
            let frame = Renderer::new(GpuConfig::default(), v).render(&scene, &cam);
            assert!(frame.stats.total_cycles > 0, "{v}");
            assert!(frame.color.mean_alpha() > 0.0, "{v}");
            times.push((v, frame.time.rasterize_ms));
        }
        // HET+QM must beat the baseline.
        let base = times[0].1;
        let hetqm = times[3].1;
        assert!(
            hetqm < base,
            "HET+QM ({hetqm:.3} ms) must be faster than baseline ({base:.3} ms)"
        );
    }

    #[test]
    fn time_breakdown_totals() {
        let t = TimeBreakdown {
            preprocess_ms: 2.0,
            sort_ms: 3.0,
            rasterize_ms: 5.0,
        };
        assert_eq!(t.total_ms(), 10.0);
        assert_eq!(t.fps(), 100.0);
        assert_eq!(TimeBreakdown::default().fps(), 0.0);
    }

    #[test]
    fn scale_extrapolation_is_scale_invariant_within_tolerance() {
        // Rendering at two scales must give comparable full-scale times.
        let spec = &EVALUATED_SCENES[4];
        let cam_a;
        let cam_b;
        let a = {
            let s = spec.generate_scaled(0.05);
            cam_a = s.default_camera();
            Renderer::new(GpuConfig::default(), PipelineVariant::Baseline).render(&s, &cam_a)
        };
        let b = {
            let s = spec.generate_scaled(0.08);
            cam_b = s.default_camera();
            Renderer::new(GpuConfig::default(), PipelineVariant::Baseline).render(&s, &cam_b)
        };
        let ratio = a.time.rasterize_ms / b.time.rasterize_ms;
        assert!(
            ratio > 0.4 && ratio < 2.5,
            "scale extrapolation drifted: {ratio:.2}"
        );
    }
}
