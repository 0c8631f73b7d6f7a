//! The determinism contract of the parallel render path (DESIGN.md):
//! every renderer must produce bit-exact images, depth/stencil state and
//! statistics for every `threads` setting — parallelism may only change
//! wall time, never results.

use gpu_sim::config::GpuConfig;
use gsplat::par::ThreadPolicy;
use gsplat::preprocess::preprocess_with;
use gsplat::scene::EVALUATED_SCENES;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload_with;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{draw, PipelineVariant};

const TEST_SCALE: f32 = 0.05;

/// The thread counts every path is checked against, versus `threads: 1`.
const POLICIES: [usize; 3] = [2, 5, 0];

#[test]
fn pipeline_variants_are_bit_exact_across_thread_counts() {
    let scene = EVALUATED_SCENES[4].generate_scaled(TEST_SCALE); // Lego
    let cam = scene.default_camera();
    let pre = preprocess_with(&scene, &cam, ThreadPolicy::serial());
    let serial_cfg = GpuConfig {
        threads: 1,
        ..GpuConfig::default()
    };

    for variant in PipelineVariant::ALL {
        let reference = draw(&pre.splats, cam.width(), cam.height(), &serial_cfg, variant);
        for threads in POLICIES {
            let cfg = GpuConfig {
                threads,
                ..GpuConfig::default()
            };
            let out = draw(&pre.splats, cam.width(), cam.height(), &cfg, variant);
            assert_eq!(
                out.color.max_abs_diff(&reference.color),
                0.0,
                "{variant} threads={threads}: ColorBuffer diverged"
            );
            assert_eq!(
                out.depth_stencil, reference.depth_stencil,
                "{variant} threads={threads}: DepthStencilBuffer diverged"
            );
            assert_eq!(
                out.stats, reference.stats,
                "{variant} threads={threads}: statistics diverged"
            );
        }
    }
}

#[test]
fn preprocessing_is_bit_exact_across_thread_counts() {
    let scene = EVALUATED_SCENES[2].generate_scaled(TEST_SCALE); // Train
    let cam = scene.default_camera();
    let reference = preprocess_with(&scene, &cam, ThreadPolicy::serial());
    for threads in POLICIES {
        let policy = ThreadPolicy { threads };
        let out = preprocess_with(&scene, &cam, policy);
        assert_eq!(out.stats, reference.stats, "{policy:?}");
        assert_eq!(out.splats.len(), reference.splats.len());
        assert!(
            out.splats
                .iter()
                .zip(&reference.splats)
                .all(|(a, b)| a == b),
            "{policy:?}: splat stream diverged"
        );
    }
}

#[test]
fn cuda_like_renderer_is_bit_exact_across_thread_counts() {
    let scene = EVALUATED_SCENES[4].generate_scaled(TEST_SCALE);
    let cam = scene.default_camera();
    let pre = preprocess_with(&scene, &cam, ThreadPolicy::serial());
    for et in [false, true] {
        let serial_cfg = SwConfig {
            threads: 1,
            ..SwConfig::default()
        };
        let reference =
            CudaLikeRenderer::new(serial_cfg, et).render(&pre.splats, cam.width(), cam.height());
        for threads in POLICIES {
            let cfg = SwConfig {
                threads,
                ..SwConfig::default()
            };
            let out = CudaLikeRenderer::new(cfg, et).render(&pre.splats, cam.width(), cam.height());
            assert_eq!(out.stats, reference.stats, "et={et} threads={threads}");
            assert_eq!(
                out.color.max_abs_diff(&reference.color),
                0.0,
                "et={et} threads={threads}: image diverged"
            );
        }
    }
}

#[test]
fn multipass_renderer_is_bit_exact_across_thread_counts() {
    let scene = EVALUATED_SCENES[5].generate_scaled(TEST_SCALE); // Palace
    let cam = scene.default_camera();
    let pre = preprocess_with(&scene, &cam, ThreadPolicy::serial());
    for passes in [1usize, 6] {
        let serial_cfg = MultiPassConfig {
            threads: 1,
            ..MultiPassConfig::default()
        };
        let reference =
            render_multipass(&pre.splats, cam.width(), cam.height(), passes, &serial_cfg);
        for threads in POLICIES {
            let cfg = MultiPassConfig {
                threads,
                ..MultiPassConfig::default()
            };
            let out = render_multipass(&pre.splats, cam.width(), cam.height(), passes, &cfg);
            assert_eq!(out.blended_fragments, reference.blended_fragments);
            assert_eq!(
                out.stencil_discarded_fragments,
                reference.stencil_discarded_fragments
            );
            assert_eq!(
                out.color.max_abs_diff(&reference.color),
                0.0,
                "passes={passes} threads={threads}: image diverged"
            );
        }
    }
}

#[test]
fn inshader_workload_is_bit_exact_across_thread_counts() {
    let scene = EVALUATED_SCENES[4].generate_scaled(TEST_SCALE);
    let cam = scene.default_camera();
    let pre = preprocess_with(&scene, &cam, ThreadPolicy::serial());
    let reference = fragment_workload_with(
        &pre.splats,
        cam.width(),
        cam.height(),
        ThreadPolicy::serial(),
    );
    for threads in POLICIES {
        let policy = ThreadPolicy { threads };
        assert_eq!(
            fragment_workload_with(&pre.splats, cam.width(), cam.height(), policy),
            reference,
            "{policy:?}"
        );
    }
}

#[test]
fn renderer_scratch_path_matches_plain_path() {
    use vrpipe::{FrameScratch, Renderer};
    let scene = EVALUATED_SCENES[1].generate_scaled(TEST_SCALE); // Bonsai
    let cam = scene.default_camera();
    let mut scratch = FrameScratch::default();
    for variant in PipelineVariant::ALL {
        let renderer = Renderer::new(GpuConfig::default(), variant);
        let plain = renderer.render(&scene, &cam);
        for _ in 0..2 {
            let scratched = renderer.render_with(&scene, &cam, &mut scratch);
            assert_eq!(scratched.color.max_abs_diff(&plain.color), 0.0, "{variant}");
            assert_eq!(scratched.stats, plain.stats, "{variant}");
            assert_eq!(scratched.preprocess, plain.preprocess, "{variant}");
        }
    }
}
