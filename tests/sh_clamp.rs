//! SH-degree clamping bit-exactness: preprocessing with
//! `PreprocessRequest::max_sh_degree = d` must produce *bit-identical* splats to preprocessing a scene whose SH
//! coefficient lists were physically truncated to degree `d` — the
//! quality ladder's SH rung is a pure evaluation-order contract, not an
//! approximation. Verified on the flat and indexed preprocess paths and
//! through all three software render backends (CUDA-style, multipass,
//! in-shader workload model).

use gsplat::camera::Camera;
use gsplat::index::{CullState, SceneIndex};
use gsplat::math::Vec3;
use gsplat::preprocess::{
    preprocess, preprocess_frame, PreprocessMode, PreprocessOutput, PreprocessRequest,
    PreprocessScratch,
};
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::sh::{coeff_count, ShColor, MAX_SH_DEGREE};
use gsplat::splat::Splat;
use gsplat::ThreadPolicy;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload;
use swrender::multipass::{render_multipass, MultiPassConfig};

/// A scene whose Gaussians all carry full degree-3 SH with varied,
/// deterministic higher-band coefficients — generated scenes are
/// degree-0, so without this upgrade a clamp would be a no-op on bits.
fn degree3_scene() -> Scene {
    let mut scene = EVALUATED_SCENES[4].generate_scaled(0.04);
    for (i, g) in scene.gaussians.iter_mut().enumerate() {
        let base = g.sh.coeffs()[0];
        let coeffs = (0..coeff_count(3))
            .map(|c| {
                if c == 0 {
                    base
                } else {
                    // Sub-unit magnitudes keyed off (gaussian, coeff): every
                    // band contributes visibly different bits.
                    let s = ((i * 31 + c * 7) % 97) as f32 / 97.0 - 0.5;
                    Vec3::new(s * 0.3, -s * 0.2, s * 0.25)
                }
            })
            .collect();
        g.sh = ShColor::new(3, coeffs);
    }
    scene
}

/// The same scene with every coefficient list physically cut at `degree`.
fn truncated_scene(scene: &Scene, degree: u8) -> Scene {
    let mut t = scene.clone();
    for g in &mut t.gaussians {
        g.sh = g.sh.truncated(degree);
    }
    t
}

/// Exact per-splat digest: `Debug` for f32 prints the shortest exactly
/// round-tripping decimal, so two splats format identically iff their
/// bits match.
fn splat_bits(splats: &[Splat]) -> Vec<String> {
    splats.iter().map(|s| format!("{s:?}")).collect()
}

/// One frame preprocessed in `mode` with SH evaluation capped at
/// `max_sh_degree`.
fn capped(
    scene: &Scene,
    cam: &Camera,
    max_sh_degree: u8,
    mode: PreprocessMode,
) -> PreprocessOutput {
    let request = PreprocessRequest {
        policy: ThreadPolicy::default(),
        max_sh_degree,
        mode,
    };
    let mut splats = Vec::new();
    let stats = preprocess_frame(
        scene,
        cam,
        request,
        &mut PreprocessScratch::default(),
        &mut splats,
    );
    PreprocessOutput { splats, stats }
}

/// The full sweep with SH evaluation capped at `max_sh_degree`.
fn preprocess_clamped(scene: &Scene, cam: &Camera, max_sh_degree: u8) -> PreprocessOutput {
    capped(scene, cam, max_sh_degree, PreprocessMode::Full)
}

/// A solo indexed frame — a round of one camera over a fresh index of
/// `scene` — with SH evaluation capped at `max_sh_degree`.
fn indexed_clamped(scene: &Scene, cam: &Camera, max_sh_degree: u8) -> PreprocessOutput {
    let index = SceneIndex::build(&scene.gaussians);
    let mut cull = CullState::default();
    cull.begin_round(&index, std::slice::from_ref(cam));
    let mode = PreprocessMode::Indexed {
        index: &index,
        cull: &mut cull,
    };
    capped(scene, cam, max_sh_degree, mode)
}

#[test]
fn clamped_preprocess_is_bit_exact_with_truncated_scene() {
    let scene = degree3_scene();
    let cam = scene.default_camera();
    for max in 0..=MAX_SH_DEGREE {
        let clamped = preprocess_clamped(&scene, &cam, max);
        let reference = preprocess(&truncated_scene(&scene, max), &cam);
        assert_eq!(clamped.stats, reference.stats, "degree {max}");
        assert_eq!(
            splat_bits(&clamped.splats),
            splat_bits(&reference.splats),
            "degree {max}: clamped evaluation must equal truncated coefficients bit for bit"
        );
    }
    // Clamping at (or above) the scene's own degree is the identity.
    let full = preprocess_clamped(&scene, &cam, MAX_SH_DEGREE);
    let plain = preprocess(&scene, &cam);
    assert_eq!(splat_bits(&full.splats), splat_bits(&plain.splats));
}

#[test]
fn indexed_clamped_preprocess_matches_truncated_scene() {
    // The indexed path caches degree-0 base colors in its
    // camera-invariant projection head; that cache is clamp-invariant, so
    // the clamped indexed path must also be bit-exact against the
    // truncated scene run through its own index.
    let scene = degree3_scene();
    let cam = scene.default_camera();
    for max in [0u8, 2] {
        let a = indexed_clamped(&scene, &cam, max);
        let b = indexed_clamped(&truncated_scene(&scene, max), &cam, MAX_SH_DEGREE);
        assert_eq!(a.stats, b.stats, "degree {max}");
        assert_eq!(
            splat_bits(&a.splats),
            splat_bits(&b.splats),
            "degree {max}: indexed clamped path diverged"
        );
    }
}

#[test]
fn clamped_splats_render_identically_on_all_backends() {
    let scene = degree3_scene();
    let cam = scene.default_camera();
    let (w, h) = (cam.width(), cam.height());
    for max in [0u8, 1, 2] {
        let clamped = preprocess_clamped(&scene, &cam, max);
        let reference = preprocess(&truncated_scene(&scene, max), &cam);

        let sw_a = CudaLikeRenderer::new(SwConfig::default(), false).render(&clamped.splats, w, h);
        let sw_b =
            CudaLikeRenderer::new(SwConfig::default(), false).render(&reference.splats, w, h);
        assert_eq!(
            sw_a.color.max_abs_diff(&sw_b.color),
            0.0,
            "degree {max}: CUDA-style images differ"
        );
        assert_eq!(sw_a.stats.blended_fragments, sw_b.stats.blended_fragments);

        let mp_a = render_multipass(&clamped.splats, w, h, 4, &MultiPassConfig::default());
        let mp_b = render_multipass(&reference.splats, w, h, 4, &MultiPassConfig::default());
        assert_eq!(
            mp_a.color.max_abs_diff(&mp_b.color),
            0.0,
            "degree {max}: multipass images differ"
        );
        assert_eq!(mp_a.blended_fragments, mp_b.blended_fragments);

        assert_eq!(
            fragment_workload(&clamped.splats, w, h),
            fragment_workload(&reference.splats, w, h),
            "degree {max}: in-shader workload model differs"
        );
    }
    // Sanity: a real clamp actually changes the image vs full quality —
    // the parity above isn't comparing constants.
    let full = preprocess(&scene, &cam);
    let cut = preprocess_clamped(&scene, &cam, 0);
    let img_full = CudaLikeRenderer::new(SwConfig::default(), false).render(&full.splats, w, h);
    let img_cut = CudaLikeRenderer::new(SwConfig::default(), false).render(&cut.splats, w, h);
    assert!(
        img_full.color.max_abs_diff(&img_cut.color) > 0.0,
        "degree-3 bands must be visible at this viewpoint for the test to bite"
    );
}
