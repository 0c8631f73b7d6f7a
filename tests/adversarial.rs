//! Failure injection and adversarial workloads: bin-overflow storms,
//! degenerate geometry, extreme viewports and stencil coexistence.

use gpu_sim::config::GpuConfig;
use gpu_sim::stencil::{StencilFunc, StencilOp, StencilState};
use gsplat::camera::Camera;
use gsplat::framebuffer::{DepthStencilBuffer, TERMINATION_BIT};
use gsplat::gaussian::Gaussian;
use gsplat::math::{Vec2, Vec3};
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::sh::ShColor;
use gsplat::splat::Splat;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{draw, try_draw, try_draw_with_scratch, DrawError, DrawScratch, PipelineVariant};

fn splat(cx: f32, cy: f32, r: f32, depth: f32, opacity: f32) -> Splat {
    Splat {
        center: Vec2::new(cx, cy),
        depth,
        conic: (1.0 / (r * r), 0.0, 1.0 / (r * r)),
        axis_major: Vec2::new(r * 2.5, 0.0),
        axis_minor: Vec2::new(0.0, r * 2.5),
        color: Vec3::new(0.5, 0.5, 0.5),
        opacity,
        source: 0,
    }
}

/// Bin-overflow storm: thousands of tiny splats round-robin across more
/// screen tiles than the TC unit has bins — every insertion evicts.
#[test]
fn tc_bin_overflow_storm_is_correct_and_counted() {
    // 48 tiles in a 384x32 strip (> 32 bins), tiny splats rotating.
    let mut splats = Vec::new();
    for round in 0..20 {
        for tile in 0..48u32 {
            let mut s = splat(tile as f32 * 8.0 + 4.0, 16.0, 1.2, 1.0 + round as f32, 0.3);
            s.source = round * 48 + tile;
            splats.push(s);
        }
    }
    let cfg = GpuConfig::default();
    let base = draw(&splats, 384, 32, &cfg, PipelineVariant::Baseline);
    assert!(
        base.stats.tc_evictions > 500,
        "storm must force evictions, got {}",
        base.stats.tc_evictions
    );
    // Correctness survives the storm: QM image still matches.
    let qm = draw(&splats, 384, 32, &cfg, PipelineVariant::Qm);
    assert!(base.color.max_abs_diff(&qm.color) < 1e-4);
    // And the TGC path reduces premature flushes.
    assert!(qm.stats.tc_evictions <= base.stats.tc_evictions);
}

/// Degenerate geometry: zero-area axes, NaN-free handling, off-screen and
/// sub-pixel splats must not panic or corrupt the image.
#[test]
fn degenerate_splats_are_survivable() {
    let mut splats = vec![
        splat(16.0, 16.0, 4.0, 1.0, 0.5), // normal
    ];
    // Zero minor axis (degenerate OBB → culled at setup).
    let mut zero_axis = splat(10.0, 10.0, 3.0, 2.0, 0.5);
    zero_axis.axis_minor = Vec2::ZERO;
    splats.push(zero_axis);
    // Sub-pixel splat.
    splats.push(splat(20.5, 20.5, 0.01, 3.0, 0.9));
    // Far off-screen splat.
    splats.push(splat(-500.0, -500.0, 5.0, 4.0, 0.9));
    for v in PipelineVariant::ALL {
        let out = draw(&splats, 32, 32, &GpuConfig::default(), v);
        assert!(
            out.color.pixels().iter().all(|p| p.is_finite()),
            "{v}: NaN leaked"
        );
        assert!(out.color.get(16, 16).a > 0.0, "{v}: normal splat lost");
    }
}

/// Single-pixel and single-quad viewports: tiling edge cases.
#[test]
fn tiny_viewports_render() {
    let splats = vec![splat(0.5, 0.5, 2.0, 1.0, 0.8)];
    for (w, h) in [(1u32, 1u32), (2, 2), (3, 5), (16, 1)] {
        let out = draw(&splats, w, h, &GpuConfig::default(), PipelineVariant::HetQm);
        assert!(out.color.get(0, 0).a > 0.0, "{w}x{h}: pixel (0,0) empty");
    }
}

/// 1×1 and tile-misaligned framebuffers through *every* backend: the
/// software renderers and the in-shader workload model must survive
/// viewports that do not divide into 16-px tiles or 2×2 quads.
#[test]
fn odd_framebuffers_survive_every_backend() {
    let splats = vec![
        splat(0.5, 0.5, 2.0, 1.0, 0.8),
        splat(8.0, 5.0, 3.0, 2.0, 0.6),
    ];
    for (w, h) in [(1u32, 1u32), (17, 9), (31, 33), (16, 1), (3, 47)] {
        let f = CudaLikeRenderer::new(SwConfig::default(), true).render(&splats, w, h);
        assert!(
            f.color.pixels().iter().all(|p| p.is_finite()),
            "cuda_like {w}x{h}"
        );
        let mp = render_multipass(&splats, w, h, 3, &MultiPassConfig::default());
        assert!(
            mp.color.pixels().iter().all(|p| p.is_finite()),
            "multipass {w}x{h}"
        );
        let (frags, quads, chain) = fragment_workload(&splats, w, h);
        assert!(
            quads >= frags / 4 && chain <= frags.max(1),
            "inshader {w}x{h}"
        );
        let hw = draw(&splats, w, h, &GpuConfig::default(), PipelineVariant::HetQm);
        assert!(
            hw.color.pixels().iter().all(|p| p.is_finite()),
            "vrpipe {w}x{h}"
        );
    }
}

/// An empty scene (zero splats) through every backend: no panics, no
/// work, fully transparent output.
#[test]
fn empty_scene_renders_through_every_backend() {
    let splats: Vec<Splat> = Vec::new();
    let f = CudaLikeRenderer::new(SwConfig::default(), true).render(&splats, 32, 32);
    assert_eq!(f.stats.blended_fragments, 0);
    assert_eq!(f.color.mean_alpha(), 0.0);
    let mp = render_multipass(&splats, 32, 32, 4, &MultiPassConfig::default());
    assert_eq!(mp.blended_fragments, 0);
    assert_eq!(fragment_workload(&splats, 32, 32), (0, 0, 0));
    for v in PipelineVariant::ALL {
        let out = draw(&splats, 32, 32, &GpuConfig::default(), v);
        assert_eq!(out.stats.crop_fragments, 0, "{v}");
        assert_eq!(out.color.mean_alpha(), 0.0, "{v}");
    }
}

/// Non-finite Gaussians (NaN/∞ means, scales, rotations, opacities) are
/// culled at projection — the preprocessing output upholds the "all
/// emitted splats are finite" invariant and renders cleanly everywhere.
#[test]
fn non_finite_gaussians_are_culled_and_render_cleanly() {
    let mut scene = EVALUATED_SCENES[4].generate_scaled(0.03);
    let color = ShColor::from_base_color(Vec3::splat(0.5));
    // Struct literals bypass `Gaussian::new`'s validation, exactly like a
    // corrupt checkpoint deserialized straight into the public fields.
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let healthy = Gaussian::new(
            Vec3::ZERO,
            Vec3::splat(0.1),
            [1.0, 0.0, 0.0, 0.0],
            0.9,
            color.clone(),
        );
        scene.gaussians.push(Gaussian {
            mean: Vec3::new(bad, 0.0, 0.0),
            ..healthy.clone()
        });
        scene.gaussians.push(Gaussian {
            scale: Vec3::new(bad, 0.1, 0.1),
            ..healthy.clone()
        });
        scene.gaussians.push(Gaussian {
            rotation: [bad, 0.0, 0.0, 0.0],
            ..healthy.clone()
        });
        scene.gaussians.push(Gaussian {
            opacity: bad,
            ..healthy
        });
    }
    let cam = Camera::look_at(Vec3::new(0.0, 0.5, 6.0), Vec3::ZERO, 64, 48, 1.0);
    let pre = preprocess(&scene, &cam);
    assert!(
        pre.splats.iter().all(Splat::is_finite),
        "projection leaked a non-finite splat"
    );
    // Depth keys are NaN-free, so the sorted order is truly front-to-back.
    assert!(pre.splats.windows(2).all(|w| w[0].depth <= w[1].depth));
    // And every backend blends finite pixels from it.
    let sw = CudaLikeRenderer::new(SwConfig::default(), true).render(&pre.splats, 64, 48);
    assert!(sw.color.pixels().iter().all(|p| p.is_finite()));
    let hw = draw(
        &pre.splats,
        64,
        48,
        &GpuConfig::default(),
        PipelineVariant::HetQm,
    );
    assert!(hw.color.pixels().iter().all(|p| p.is_finite()));
}

/// Invalid GPU configurations come back as `DrawError`s from the fallible
/// entry points — a long-running frame loop can reject them without
/// unwinding. That includes tiles and TC bins larger than the quad reorder
/// unit holds, which would otherwise overrun its 64 position registers or
/// its 128-quad buffer mid-draw.
#[test]
fn invalid_configs_error_instead_of_panicking() {
    let mut splats = vec![splat(16.0, 16.0, 4.0, 1.0, 0.5)];
    // Faint splats stacked over one 16-px tile: 256 quads reach its TC bin.
    splats.extend((0..4).map(|i| splat(8.0, 8.0, 4.0, 2.0 + i as f32, 0.1)));
    let bads = [
        GpuConfig {
            screen_tile_px: 32,
            ..GpuConfig::default()
        },
        GpuConfig {
            tc_bin_size: 256,
            ..GpuConfig::default()
        },
        GpuConfig {
            raster_tile_px: 5,
            ..GpuConfig::default()
        },
        GpuConfig {
            tc_bins: 0,
            ..GpuConfig::default()
        },
        GpuConfig {
            crop_cache_bytes: 1000,
            ..GpuConfig::default()
        },
    ];
    for bad in bads {
        for v in PipelineVariant::ALL {
            let err = try_draw(&splats, 32, 32, &bad, v).unwrap_err();
            assert!(matches!(err, DrawError::InvalidConfig(_)), "{v}: {err}");
        }
    }
}

/// A viewport with no pixels is a typed, permanent error from both
/// fallible draw entry points, never the framebuffer's panic.
#[test]
fn empty_viewports_error_instead_of_panicking() {
    let splats = vec![splat(4.0, 4.0, 2.0, 1.0, 0.5)];
    let gpu = GpuConfig::default();
    for (width, height) in [(0u32, 0u32), (0, 8), (8, 0)] {
        for v in PipelineVariant::ALL {
            let expect = DrawError::EmptyViewport { width, height };
            let err = try_draw(&splats, width, height, &gpu, v).unwrap_err();
            assert_eq!(err, expect, "{v} {width}x{height}");
            assert!(!err.is_transient());
            let mut scratch = DrawScratch::default();
            let err =
                try_draw_with_scratch(&splats, width, height, &gpu, v, &mut scratch).unwrap_err();
            assert_eq!(err, expect, "{v} {width}x{height}");
        }
    }
}

/// Zero-area splats (both axes singular) are skipped with the degenerate
/// counter — never unwrapped, never mis-rastered.
#[test]
fn zero_area_splats_are_counted_and_skipped() {
    let mut splats = vec![splat(16.0, 16.0, 4.0, 1.0, 0.5)];
    let mut dead = splat(10.0, 10.0, 3.0, 2.0, 0.9);
    dead.axis_major = Vec2::ZERO;
    dead.axis_minor = Vec2::ZERO;
    splats.push(dead);
    let mut line = splat(20.0, 20.0, 3.0, 3.0, 0.9);
    line.axis_minor = Vec2::ZERO; // collapses to a segment
    splats.push(line);
    for v in PipelineVariant::ALL {
        let out = draw(&splats, 32, 32, &GpuConfig::default(), v);
        assert_eq!(out.stats.degenerate_prims, 2, "{v}");
        assert!(out.color.get(16, 16).a > 0.0, "{v}: live splat lost");
        assert!(out.color.pixels().iter().all(|p| p.is_finite()), "{v}");
    }
}

/// Viewport-straddling splats: clipping at all four edges must keep the
/// fragment funnel monotone and in-bounds.
#[test]
fn edge_straddling_splats_clip_cleanly() {
    let splats = vec![
        splat(0.0, 16.0, 6.0, 1.0, 0.7),  // left edge
        splat(32.0, 16.0, 6.0, 2.0, 0.7), // right edge
        splat(16.0, 0.0, 6.0, 3.0, 0.7),  // top edge
        splat(16.0, 32.0, 6.0, 4.0, 0.7), // bottom edge
        splat(0.0, 0.0, 9.0, 5.0, 0.7),   // corner
    ];
    let out = draw(
        &splats,
        32,
        32,
        &GpuConfig::default(),
        PipelineVariant::HetQm,
    );
    let s = &out.stats;
    assert!(s.crop_fragments <= s.shaded_fragments);
    assert!(s.shaded_fragments <= s.raster_fragments);
    assert!(out.color.pixels().iter().all(|p| p.is_finite()));
}

/// Pathological depth ties: hundreds of splats at identical depth must
/// keep a deterministic order (stable sort) and identical images across
/// variants.
#[test]
fn depth_ties_are_deterministic() {
    let splats: Vec<Splat> = (0..100)
        .map(|i| {
            let mut s = splat(16.0, 16.0, 5.0, 7.0, 0.2); // all same depth
            s.color = Vec3::new((i % 10) as f32 / 10.0, 0.5, 0.5);
            s.source = i;
            s
        })
        .collect();
    let cfg = GpuConfig::default();
    let a = draw(&splats, 32, 32, &cfg, PipelineVariant::Baseline);
    let b = draw(&splats, 32, 32, &cfg, PipelineVariant::Baseline);
    assert_eq!(
        a.color.max_abs_diff(&b.color),
        0.0,
        "nondeterminism detected"
    );
    let qm = draw(&splats, 32, 32, &cfg, PipelineVariant::Qm);
    assert!(a.color.max_abs_diff(&qm.color) < 1e-4);
}

/// HET's termination flag coexists with a live 7-bit stencil: running a
/// conventional stencil pass over a buffer carrying termination bits must
/// neither clobber them nor misread them (paper §V-B's harmonic claim).
#[test]
fn termination_flag_survives_stencil_traffic() {
    let mut ds = DepthStencilBuffer::new(8, 8);
    // HET terminated some pixels.
    ds.set_terminated(1, 1);
    ds.set_terminated(4, 4);
    // A stencil pass increments everywhere it passes (Algorithm-1 style).
    let state = StencilState {
        func: StencilFunc::Equal,
        reference: 0,
        op_pass: StencilOp::IncrClamp,
        op_fail: StencilOp::Keep,
        ..StencilState::default()
    };
    for y in 0..8 {
        for x in 0..8 {
            state.apply_at(&mut ds, x, y);
        }
    }
    // Termination bits intact; low bits updated everywhere (the masked
    // compare ignores the MSB, so terminated pixels still passed Equal-0).
    assert!(ds.is_terminated(1, 1) && ds.is_terminated(4, 4));
    assert_eq!(ds.stencil(0, 0), 1);
    assert_eq!(ds.stencil(1, 1), TERMINATION_BIT | 1);
    assert_eq!(ds.terminated_count(), 2);
}

/// Opacity extremes: fully transparent scenes blend nothing; a wall of
/// ALPHA_MAX splats terminates almost immediately under HET.
#[test]
fn opacity_extremes() {
    let cfg = GpuConfig::default();
    let transparent: Vec<Splat> = (0..20)
        .map(|i| splat(16.0, 16.0, 5.0, i as f32 + 1.0, 0.001))
        .collect();
    let out = draw(&transparent, 32, 32, &cfg, PipelineVariant::Baseline);
    assert_eq!(
        out.stats.crop_fragments, 0,
        "sub-threshold opacity must prune everything"
    );

    let opaque: Vec<Splat> = (0..50)
        .map(|i| splat(16.0, 16.0, 6.0, i as f32 + 1.0, 0.99))
        .collect();
    let het = draw(&opaque, 32, 32, &cfg, PipelineVariant::Het);
    let base = draw(&opaque, 32, 32, &cfg, PipelineVariant::Baseline);
    // Quad granularity bounds the saving: never-terminating OBB-edge
    // pixels (alpha below threshold at every splat) keep their quads alive,
    // so the reduction is solid but not total — exactly the quad-vs-
    // fragment gap Fig. 18 discusses.
    assert!(
        (het.stats.crop_fragments as f64) < base.stats.crop_fragments as f64 * 0.8,
        "an opaque wall must terminate early: {} vs {}",
        het.stats.crop_fragments,
        base.stats.crop_fragments
    );
    assert!(
        het.depth_stencil.terminated_count() > 50,
        "central region must terminate"
    );
}
