//! Shared helpers for the figure-regeneration harness.

use std::sync::OnceLock;

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::camera::Camera;
use gsplat::preprocess::preprocess;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use vrpipe::{PipelineVariant, Renderer, TimeBreakdown};

/// Default linear scene scale for experiments. Override with the
/// `VRPIPE_SCALE` environment variable (e.g. `VRPIPE_SCALE=0.12`).
///
/// The default is 0.5, the smallest scale whose ratios match the full
/// frame's: Fig. 16's geomeans at 0.5 and 1.0 agree within 1.3%. Below
/// it they drift (DESIGN.md §2), so compare numbers at one scale.
pub fn default_scale() -> f32 {
    std::env::var("VRPIPE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(0.5)
}

/// Viewpoints per scene for Fig. 21. Override with the
/// `VRPIPE_VIEWPOINTS` environment variable; see [`parse_viewpoints`].
pub fn viewpoints() -> usize {
    parse_viewpoints(std::env::var("VRPIPE_VIEWPOINTS").ok().as_deref())
}

/// Parses a viewpoint count: a positive integer, else the default of 8.
/// Zero is rejected like an unparsable value, because a sweep over no
/// viewpoints has no min, average or max to report.
pub fn parse_viewpoints(var: Option<&str>) -> usize {
    var.and_then(|v| v.parse().ok())
        .filter(|n: &usize| *n > 0)
        .unwrap_or(8)
}

/// One scene of the evaluation matrix (§VI): a Table II scene at
/// [`default_scale`], its default camera, and one cell per frame the
/// matrix figures read. A cell renders on first use and is kept for the
/// process, so no frame renders twice. Cells keep no images.
pub struct EvalScene {
    pub scene: Scene,
    pub cam: Camera,
    /// One draw per [`PipelineVariant`], in declaration (= `ALL`) order.
    draws: [OnceLock<Draw>; 4],
    cuda_et: OnceLock<TimeBreakdown>,
}

/// What the matrix figures read of one simulated draw.
pub struct Draw {
    pub stats: PipelineStats,
    pub time: TimeBreakdown,
}

/// The evaluation matrix: the six Table II scenes, generated on first use.
pub fn eval_scenes() -> &'static [EvalScene] {
    static TABLE: OnceLock<Vec<EvalScene>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let scale = default_scale();
        EVALUATED_SCENES
            .iter()
            .map(|spec| {
                let scene = spec.generate_scaled(scale);
                EvalScene {
                    cam: scene.default_camera(),
                    scene,
                    draws: Default::default(),
                    cuda_et: OnceLock::new(),
                }
            })
            .collect()
    })
}

impl EvalScene {
    /// The default-camera draw through `variant`.
    pub fn draw(&self, variant: PipelineVariant) -> &Draw {
        self.draws[variant as usize].get_or_init(|| {
            let f = Renderer::new(GpuConfig::default(), variant).render(&self.scene, &self.cam);
            Draw {
                stats: f.stats,
                time: f.time,
            }
        })
    }

    /// The CUDA-like frame with early termination, the strongest software
    /// baseline, as a full-scale estimate: preprocessing from the
    /// per-Gaussian cost model, sort and raster scaled by `1/scale²`.
    pub fn cuda_et(&self) -> &TimeBreakdown {
        self.cuda_et.get_or_init(|| {
            let pre = preprocess(&self.scene, &self.cam);
            let sw = CudaLikeRenderer::new(SwConfig::default(), true).render(
                &pre.splats,
                self.cam.width(),
                self.cam.height(),
            );
            let scale2 = (self.scene.scale as f64) * (self.scene.scale as f64);
            let gaussians = self.scene.spec.gaussians as f64;
            TimeBreakdown {
                preprocess_ms: gaussians * SwConfig::default().preprocess_ns_per_gaussian * 1e-6,
                sort_ms: sw.sort_ms / scale2,
                rasterize_ms: sw.rasterize_ms / scale2,
            }
        })
    }
}

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints a figure header banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("=== {id}: {caption} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn viewpoints_reject_zero_and_garbage() {
        assert_eq!(parse_viewpoints(None), 8);
        assert_eq!(parse_viewpoints(Some("0")), 8);
        assert_eq!(parse_viewpoints(Some("-3")), 8);
        assert_eq!(parse_viewpoints(Some("many")), 8);
        assert_eq!(parse_viewpoints(Some("3")), 3);
    }

    #[test]
    fn scale_default_in_range() {
        let s = default_scale();
        assert!(s > 0.0 && s <= 1.0);
    }
}
