//! Fragment-kernel parity, with no tolerances.
//!
//! * Each software renderer runs one SoA fragment kernel. It must match
//!   the scalar per-fragment reference in `support/sw_oracle.rs` bit for
//!   bit, in image and in statistics: its fast paths (conservative tile
//!   alpha bound, retired-tile abandon, hoisted row terms) only elide work
//!   that provably changes nothing. Checked on real (procedural)
//!   workloads, hand-built edge cases and random splat sets.
//! * In the simulated pipeline `GpuConfig::kernel = Soa` turns on the
//!   tile-granularity retirement check. It may remove ZROP test work and
//!   the cycles and z-cache traffic it costs, and nothing else.

#[path = "support/sw_oracle.rs"]
mod sw_oracle;

use gpu_sim::config::GpuConfig;
use gsplat::blend::ALPHA_PRUNE_THRESHOLD;
use gsplat::math::{Vec2, Vec3};
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::FragmentKernel;
use gsplat::{Splat, ThreadPolicy};
use proptest::prelude::*;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload_with;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{PipelineVariant, Renderer};

const TEST_SCALE: f32 = 0.06;

/// Indoor + outdoor archetypes — the two the acceptance gate names.
fn archetype_scenes() -> [&'static gsplat::scene::SceneSpec; 2] {
    [&EVALUATED_SCENES[1], &EVALUATED_SCENES[2]]
}

/// The CUDA-style renderer against the oracle: same image bits, same
/// statistics (the oracle has no `bound_skipped_iterations`).
fn check_cuda_like(splats: &[Splat], w: u32, h: u32, et: bool, threads: usize, case: &str) {
    let cfg = SwConfig {
        threads,
        ..SwConfig::default()
    };
    let frame = CudaLikeRenderer::new(cfg, et).render(splats, w, h);
    let (color, stats) = sw_oracle::cuda_like(splats, w, h, cfg.tile_px, et);
    assert!(
        frame.color.pixels() == color.pixels(),
        "{case}: cuda_like image diverged from the oracle"
    );
    let mut masked = frame.stats;
    masked.bound_skipped_iterations = 0;
    assert_eq!(masked, stats, "{case}: cuda_like stats diverged");
}

/// The multi-pass renderer against the oracle: image, fragment counts and
/// modelled time.
fn check_multipass(splats: &[Splat], w: u32, h: u32, passes: usize, threads: usize, case: &str) {
    let cfg = MultiPassConfig {
        threads,
        ..MultiPassConfig::default()
    };
    let frame = render_multipass(splats, w, h, passes, &cfg);
    let oracle = sw_oracle::multipass(splats, w, h, passes, &cfg);
    assert!(
        frame.color.pixels() == oracle.color.pixels(),
        "{case}: multipass image diverged from the oracle"
    );
    assert_eq!(frame.passes, oracle.passes, "{case}");
    assert_eq!(frame.blended_fragments, oracle.blended_fragments, "{case}");
    assert_eq!(
        frame.stencil_discarded_fragments, oracle.stencil_discarded_fragments,
        "{case}"
    );
    assert_eq!(frame.time_ms, oracle.time_ms, "{case}");
}

/// The in-shader workload scan against the oracle.
fn check_workload(splats: &[Splat], w: u32, h: u32, threads: usize, case: &str) {
    assert_eq!(
        fragment_workload_with(splats, w, h, ThreadPolicy { threads }),
        sw_oracle::fragment_workload(splats, w, h),
        "{case}: fragment workload diverged from the oracle"
    );
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
                // The quad flow is identical; the retirement check only
                // removes ZROP test work (and the cycles and z-cache
                // traffic it cost). CROP-cache traffic is per surviving
                // quad and must match exactly.
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
            let case = format!("{}: et={et}", spec.name);
            check_cuda_like(&pre.splats, cam.width(), cam.height(), et, 0, &case);
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
            let case = format!("{}: passes={passes}", spec.name);
            check_multipass(&pre.splats, cam.width(), cam.height(), passes, 0, &case);
        }
    }
}

#[test]
fn inshader_workload_kernels_agree_on_archetypes() {
    for spec in archetype_scenes() {
        let scene = spec.generate_scaled(TEST_SCALE);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        check_workload(&pre.splats, cam.width(), cam.height(), 0, spec.name);
    }
}

#[test]
fn het_retirement_engages_on_saturating_archetypes() {
    // The indoor archetype stacks opacity behind the visible surface, so
    // tiles must retire under HET; the retirement check must turn that
    // into wholesale flush discards while keeping the image identical.
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

/// `n` identical circular splats stacked at (16, 16), front to back.
fn stacked(n: usize, opacity: f32) -> Vec<Splat> {
    (0..n)
        .map(|i| Splat {
            center: Vec2::new(16.0, 16.0),
            depth: 1.0 + i as f32,
            conic: (0.02, 0.0, 0.02),
            axis_major: Vec2::new(14.0, 0.0),
            axis_minor: Vec2::new(0.0, 14.0),
            color: Vec3::new(0.4, 0.6, 0.2),
            opacity,
            source: i as u32,
        })
        .collect()
}

/// Wide, nearly flat splats: every pixel of a tile accumulates and whole
/// warps, then whole tiles, reach the termination threshold.
fn flat_stacked(n: usize) -> Vec<Splat> {
    let mut v = stacked(n, 0.9);
    for s in &mut v {
        s.conic = (0.002, 0.0, 0.002);
        s.axis_major = Vec2::new(80.0, 0.0);
        s.axis_minor = Vec2::new(0.0, 80.0);
    }
    v
}

/// Wide OBBs around a sharp, dim Gaussian: distant tiles are provably
/// below the prune threshold, so the tile alpha bound skips them.
fn sharp_wide(n: usize) -> Vec<Splat> {
    let mut v = stacked(n, 0.4);
    for s in &mut v {
        s.center = Vec2::new(48.0, 48.0);
        s.conic = (0.5, 0.0, 0.5);
        s.axis_major = Vec2::new(45.0, 0.0);
        s.axis_minor = Vec2::new(0.0, 45.0);
    }
    v
}

/// Anisotropic splats on a grid with opacities from faint to medium.
fn scattered(n: u32) -> Vec<Splat> {
    (0..n)
        .map(|i| Splat {
            center: Vec2::new(5.0 + (i % 9) as f32 * 7.0, 4.0 + (i % 6) as f32 * 8.0),
            depth: 1.0 + i as f32,
            conic: (0.3 + 0.01 * i as f32, 0.02, 0.4),
            axis_major: Vec2::new(9.0, 1.0),
            axis_minor: Vec2::new(-1.0, 8.0),
            color: Vec3::splat(0.5),
            opacity: 0.05 + 0.02 * (i % 10) as f32,
            source: i,
        })
        .collect()
}

#[test]
fn cuda_like_matches_oracle_on_stacked_splats() {
    let cases = [
        ("stacked", stacked(40, 0.5), 96, 64),
        ("flat", flat_stacked(80), 96, 64),
        ("sharp-wide", sharp_wide(30), 96, 96),
    ];
    for (name, splats, w, h) in cases {
        for et in [false, true] {
            check_cuda_like(&splats, w, h, et, 0, &format!("{name}: et={et}"));
        }
    }
    // The fast paths engaged where they should.
    let f = CudaLikeRenderer::new(SwConfig::default(), true).render(&sharp_wide(30), 96, 96);
    assert!(f.stats.bound_skipped_iterations > 0);
    let f = CudaLikeRenderer::new(SwConfig::default(), true).render(&flat_stacked(80), 96, 64);
    assert!(f.stats.retired_tiles > 0);
}

#[test]
fn multipass_matches_oracle_on_stacked_splats() {
    let splats = stacked(48, 0.8);
    for passes in [1usize, 4, 9] {
        check_multipass(&splats, 70, 50, passes, 0, &format!("passes={passes}"));
    }
}

#[test]
fn inshader_workload_matches_oracle_on_scattered_splats() {
    for threads in [1usize, 0] {
        check_workload(
            &scattered(60),
            64,
            48,
            threads,
            &format!("threads={threads}"),
        );
    }
}

/// A random oriented splat: center anywhere from well off-screen to past
/// the far edge of a 70×50 viewport, an OBB of random size, aspect and
/// angle with the matching 3σ conic, and an opacity drawn from one of four
/// regimes — straddling the 1/255 prune threshold (where the tile alpha
/// bound decides by a hair), faint-to-opaque, near-saturating, uniform.
fn splat_strategy() -> impl Strategy<Value = Splat> {
    (
        (-24.0f32..94.0, -24.0f32..74.0),
        (0.5f32..30.0, 0.05f32..1.0, 0.0f32..std::f32::consts::PI),
        (0u32..4, 0.0f32..1.0),
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    )
        .prop_map(|((cx, cy), (len, aspect, theta), (regime, t), (r, g, b))| {
            let (sin, cos) = theta.sin_cos();
            let (inv_major, inv_minor) = (9.0 / (len * len), 9.0 / (len * len * aspect * aspect));
            let opacity = match regime {
                0 => ALPHA_PRUNE_THRESHOLD * (0.98 + 0.04 * t),
                1 => 0.05 + 0.95 * t,
                2 => 0.9 + 0.09 * t,
                _ => t,
            };
            Splat {
                center: Vec2::new(cx, cy),
                depth: 1.0,
                conic: (
                    cos * cos * inv_major + sin * sin * inv_minor,
                    cos * sin * (inv_major - inv_minor),
                    sin * sin * inv_major + cos * cos * inv_minor,
                ),
                axis_major: Vec2::new(cos, sin) * len,
                axis_minor: Vec2::new(-sin, cos) * (len * aspect),
                color: Vec3::new(r, g, b),
                opacity,
                source: 0,
            }
        })
}

proptest! {
    /// Every software kernel equals its oracle on random splat sets, over
    /// viewports that are mostly not multiples of the 16-px tile, early
    /// termination on and off, 1–4 passes and 1–2 host workers.
    #[test]
    fn software_kernels_match_oracle_on_random_splats(
        splats in proptest::collection::vec(splat_strategy(), 0..40),
        (w, h) in (1u32..70, 1u32..50),
        et in 0u32..2,
        passes in 1usize..5,
        threads in 1usize..3,
    ) {
        let case = format!("{} splats {w}x{h} et={et} passes={passes} threads={threads}", splats.len());
        check_cuda_like(&splats, w, h, et == 1, threads, &case);
        check_multipass(&splats, w, h, passes, threads, &case);
        check_workload(&splats, w, h, threads, &case);
    }
}
