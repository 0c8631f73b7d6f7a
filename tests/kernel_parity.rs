//! End-to-end fragment-kernel parity: the SoA fast path must produce
//! bit-exact images against the scalar AoS oracle on real (procedural)
//! workloads, for every pipeline variant and every renderer.
//!
//! This is the gate behind flipping `kernel = Soa` anywhere: the SoA
//! kernel executes the same `f32` operations in the same per-pixel order,
//! and its fast paths (conservative tile alpha bound, tile retirement)
//! only elide work that is provably invisible, so equality is exact —
//! no tolerances.

use gpu_sim::config::GpuConfig;
use gsplat::preprocess::{preprocess, preprocess_into_stream, PreprocessScratch};
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::FragmentKernel;
use gsplat::ThreadPolicy;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload_kernel;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{PipelineVariant, Renderer};

const TEST_SCALE: f32 = 0.06;

/// Indoor + outdoor archetypes — the two the acceptance gate names.
fn archetype_scenes() -> [&'static gsplat::scene::SceneSpec; 2] {
    [&EVALUATED_SCENES[1], &EVALUATED_SCENES[2]]
}

#[test]
fn stream_from_preprocess_matches_aos_bit_for_bit() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        let mut scratch = PreprocessScratch::default();
        let mut splats = Vec::new();
        let mut stream = gsplat::SplatStream::new();
        preprocess_into_stream(
            &scene,
            &cam,
            ThreadPolicy::default(),
            &mut scratch,
            &mut splats,
            &mut stream,
        );
        assert_eq!(stream.len(), splats.len(), "{}", spec.name);
        for (i, s) in splats.iter().enumerate() {
            assert_eq!(stream.get(i), *s, "{}: splat {i}", spec.name);
        }
    }
}

#[test]
fn pipeline_variants_kernels_bit_exact_on_archetypes() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        for variant in PipelineVariant::ALL {
            let soa_cfg = GpuConfig {
                kernel: FragmentKernel::Soa,
                ..GpuConfig::default()
            };
            let scalar = Renderer::new(GpuConfig::default(), variant).render(&scene, &cam);
            let soa = Renderer::new(soa_cfg, variant).render(&scene, &cam);
            assert_eq!(
                scalar.color.max_abs_diff(&soa.color),
                0.0,
                "{}: {variant}: kernels diverged",
                spec.name
            );
            if !variant.het() {
                assert_eq!(soa.stats, scalar.stats, "{}: {variant}", spec.name);
            } else {
                // The quad flow is identical between kernels; the fast
                // path only removes ZROP test work (and the cycles and
                // z-cache traffic it cost). CROP-cache traffic is per
                // surviving quad and must match exactly.
                let mut masked = soa.stats.clone();
                masked.retired_tile_skips = 0;
                masked.zrop_term_tests = scalar.stats.zrop_term_tests;
                masked.z_cache = scalar.stats.z_cache;
                masked.total_cycles = scalar.stats.total_cycles;
                masked.busy_cycles = scalar.stats.busy_cycles;
                assert_eq!(masked, scalar.stats, "{}: {variant}", spec.name);
                assert!(soa.stats.zrop_term_tests <= scalar.stats.zrop_term_tests);
                assert!(soa.stats.total_cycles <= scalar.stats.total_cycles);
            }
        }
    }
}

#[test]
fn cuda_like_kernels_bit_exact_on_archetypes() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        for et in [false, true] {
            let soa_cfg = SwConfig {
                kernel: FragmentKernel::Soa,
                ..SwConfig::default()
            };
            let scalar = CudaLikeRenderer::new(SwConfig::default(), et).render(
                &pre.splats,
                cam.width(),
                cam.height(),
            );
            let soa =
                CudaLikeRenderer::new(soa_cfg, et).render(&pre.splats, cam.width(), cam.height());
            assert_eq!(
                scalar.color.max_abs_diff(&soa.color),
                0.0,
                "{}: et={et}",
                spec.name
            );
            let mut masked = soa.stats;
            masked.bound_skipped_iterations = 0;
            assert_eq!(masked, scalar.stats, "{}: et={et}", spec.name);
        }
    }
}

#[test]
fn multipass_kernels_bit_exact_on_archetypes() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        for passes in [1usize, 4] {
            let soa_cfg = MultiPassConfig {
                kernel: FragmentKernel::Soa,
                ..MultiPassConfig::default()
            };
            let scalar = render_multipass(
                &pre.splats,
                cam.width(),
                cam.height(),
                passes,
                &MultiPassConfig::default(),
            );
            let soa = render_multipass(&pre.splats, cam.width(), cam.height(), passes, &soa_cfg);
            assert_eq!(
                scalar.color.max_abs_diff(&soa.color),
                0.0,
                "{}: passes={passes}",
                spec.name
            );
            assert_eq!(soa.blended_fragments, scalar.blended_fragments);
            assert_eq!(soa.time_ms, scalar.time_ms);
        }
    }
}

#[test]
fn inshader_workload_kernels_agree_on_archetypes() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        let scalar = fragment_workload_kernel(
            &pre.splats,
            cam.width(),
            cam.height(),
            ThreadPolicy::default(),
            FragmentKernel::Scalar,
        );
        let soa = fragment_workload_kernel(
            &pre.splats,
            cam.width(),
            cam.height(),
            ThreadPolicy::default(),
            FragmentKernel::Soa,
        );
        assert_eq!(soa, scalar, "{}", spec.name);
    }
}

#[test]
fn het_retirement_engages_on_saturating_archetypes() {
    // The indoor archetype stacks opacity behind the visible surface, so
    // tiles must retire under HET; the SoA fast path must turn that into
    // skipped raster visits while keeping the image identical.
    let scene = EVALUATED_SCENES[1].generate_scaled(0.08);
    let cam = scene.default_camera();
    let soa_cfg = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };
    let scalar = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm).render(&scene, &cam);
    let soa = Renderer::new(soa_cfg, PipelineVariant::HetQm).render(&scene, &cam);
    assert!(
        scalar.stats.retired_tiles > 0,
        "indoor archetype must saturate tiles"
    );
    assert!(soa.stats.retired_tile_skips > 0, "fast path must engage");
    assert!(
        soa.stats.zrop_term_tests < scalar.stats.zrop_term_tests,
        "wholesale discard must replace per-quad ZROP tests"
    );
    assert!(soa.stats.z_cache.accesses() < scalar.stats.z_cache.accesses());
    assert!(soa.stats.total_cycles <= scalar.stats.total_cycles);
    assert_eq!(scalar.color.max_abs_diff(&soa.color), 0.0);
}
