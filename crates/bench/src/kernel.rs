//! Tile-retirement experiment on the indoor and outdoor archetypes: how
//! often the software renderer's fragment kernel retires tiles and skips
//! pruned tile visits, and what the simulated pipeline's tile-granularity
//! retirement check (`GpuConfig::kernel = Soa`) saves in ZROP tests.
//!
//! Deterministic: every number is a count or ratio from the renderers,
//! never a host timing. Bit-exactness of the kernels is gated by
//! `tests/kernel_parity.rs`.

use gpu_sim::config::GpuConfig;
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::FragmentKernel;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use vrpipe::{FrameScratch, PipelineVariant, Renderer};

use crate::common::{banner, default_scale};

/// The `kernel` experiment: retired-tile ratios and bound skips on the
/// indoor (Room) and outdoor (Train) archetypes, for the software
/// renderer and the simulated VR-Pipe pipeline.
pub fn kernel() {
    banner(
        "kernel",
        "tile retirement in the fragment kernels (indoor/outdoor)",
    );
    let scale = default_scale();

    println!("software (CUDA-style) renderer, early termination on:");
    println!("  scene        retired-tile ratio   bound-skips");
    for spec in &EVALUATED_SCENES[1..3] {
        let scene = spec.generate_scaled(scale);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        let stats = CudaLikeRenderer::new(SwConfig::default(), true)
            .render(&pre.splats, cam.width(), cam.height())
            .stats;
        println!(
            "  {:<12} {:>18.3} {:>13}",
            spec.name,
            stats.retired_tile_ratio(),
            stats.bound_skipped_iterations,
        );
        assert!(
            stats.retired_tile_ratio() > 0.0,
            "{}: expected a nonzero retired-tile ratio",
            spec.name
        );
    }

    println!();
    println!("vrpipe pipeline (HET+QM), tile-granularity ZROP retirement check:");
    println!("  scene        retired tiles   wholesale flush discards   zrop tests scalar->soa");
    for spec in &EVALUATED_SCENES[1..3] {
        let scene = spec.generate_scaled(scale);
        let cam = scene.default_camera();
        let mut scratch = FrameScratch::default();
        let scalar = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm).render_with(
            &scene,
            &cam,
            &mut scratch,
        );
        let soa_cfg = GpuConfig {
            kernel: FragmentKernel::Soa,
            ..GpuConfig::default()
        };
        let soa =
            Renderer::new(soa_cfg, PipelineVariant::HetQm).render_with(&scene, &cam, &mut scratch);
        assert_eq!(
            scalar.color.max_abs_diff(&soa.color),
            0.0,
            "{}: the retirement check changed the image",
            spec.name
        );
        println!(
            "  {:<12} {:>13} {:>26} {:>12} -> {}",
            spec.name,
            soa.stats.retired_tiles,
            soa.stats.retired_tile_skips,
            scalar.stats.zrop_term_tests,
            soa.stats.zrop_term_tests,
        );
    }
}
