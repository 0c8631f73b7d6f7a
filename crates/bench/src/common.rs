//! Shared helpers for the figure-regeneration harness.

use gpu_sim::config::GpuConfig;
use gsplat::scene::SceneSpec;
use vrpipe::{Frame, PipelineVariant, Renderer};

/// Default linear scene scale for experiments. Override with the
/// `VRPIPE_SCALE` environment variable (e.g. `VRPIPE_SCALE=0.2`).
///
/// Ratios (speedups, reductions, utilisations) are not scale-stable below
/// about 0.5: at small scales the frame shrinks while the unit
/// capacities of `GpuConfig` do not, and e.g. the HET speedup of Fig. 16
/// moves by ~25% between 0.06 and 1.0. Compare numbers at one scale.
pub fn default_scale() -> f32 {
    std::env::var("VRPIPE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(0.12)
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

/// Renders one scene with every pipeline variant at the given scale.
pub fn render_all_variants(spec: &SceneSpec, scale: f32) -> Vec<(PipelineVariant, Frame)> {
    let scene = spec.generate_scaled(scale);
    let cam = scene.default_camera();
    PipelineVariant::ALL
        .iter()
        .map(|&v| {
            let frame = Renderer::new(GpuConfig::default(), v).render(&scene, &cam);
            (v, frame)
        })
        .collect()
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
