//! The paper-evaluation workload: the evaluation matrix of the paper's
//! Figs. 16–19 — every evaluated scene, seen from orbit viewpoints,
//! rendered cold by each of the four pipeline variants through the
//! single-frame renderer, whose preprocessing and draw fork-join over the
//! host threads. A frame's time is its render call's wall time.

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::camera::Camera;
use gsplat::math::Vec3;
use gsplat::preprocess::{preprocess_into, PreprocessScratch};
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::Splat;
use vrpipe::{draw_with_scratch, DrawScratch, FrameScratch, PipelineVariant, Renderer};

use crate::report::{process_cpu_s, Outcome, Rng, Setup, Tally};
use crate::HOST_THREADS;

/// Linear scene scale of every evaluated scene.
const SCALE: f32 = 0.08;
/// Orbit viewpoints per scene.
const VIEWS: usize = 3;

/// The paper's simulated GPU (Table I) with the host fork-join width set.
fn gpu(threads: usize) -> GpuConfig {
    GpuConfig {
        threads,
        ..GpuConfig::default()
    }
}

/// `VIEWS` viewpoints evenly spaced on the scene's orbit, starting at a
/// seeded angle.
fn views(scene: &Scene, rng: &mut Rng) -> Vec<Camera> {
    let (w, h) = scene.spec.scaled_viewport(scene.scale);
    let phase = rng.range(0.0, std::f32::consts::TAU);
    (0..VIEWS)
        .map(|i| {
            let theta = phase + i as f32 / VIEWS as f32 * std::f32::consts::TAU;
            let eye = scene.center
                + Vec3::new(
                    scene.view_radius * theta.cos(),
                    scene.view_height,
                    scene.view_radius * theta.sin(),
                );
            Camera::look_at(eye, scene.center, w, h, 55f32.to_radians())
        })
        .collect()
}

/// Reused buffers of the frame loop: the renderer's own scratch for
/// untraced runs, the per-layer scratch for traced ones.
#[derive(Default)]
struct Scratch {
    frame: FrameScratch,
    pre: PreprocessScratch,
    splats: Vec<Splat>,
    draw: DrawScratch,
}

/// Renders one frame. Untraced, this is one `Renderer::render_with`
/// call; traced, it makes the same two layer calls the renderer makes —
/// preprocessing, then the simulated draw — and returns the draw's span.
fn render(
    renderer: &Renderer,
    scene: &Scene,
    cam: &Camera,
    trace: bool,
    scratch: &mut Scratch,
) -> (PipelineStats, usize, f64) {
    if !trace {
        let f = renderer.render_with(scene, cam, &mut scratch.frame);
        return (f.stats, f.preprocess.visible_splats, 0.0);
    }
    let cfg = renderer.config();
    let pre = preprocess_into(
        scene,
        cam,
        cfg.thread_policy(),
        &mut scratch.pre,
        &mut scratch.splats,
    );
    let t0 = Instant::now();
    let out = draw_with_scratch(
        &scratch.splats,
        cam.width(),
        cam.height(),
        cfg,
        renderer.variant(),
        &mut scratch.draw,
    );
    (out.stats, pre.visible_splats, t0.elapsed().as_secs_f64())
}

/// `paper-eval`: evaluation passes over the whole matrix until the time
/// is up. Set-up is generating the scenes; one untimed pass warms
/// the buffers and records the reference statistics every later pass
/// must reproduce exactly.
pub fn paper_eval(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mut setup, scenes) = Setup::new(|| {
        EVALUATED_SCENES
            .iter()
            .map(|spec| spec.generate_scaled(SCALE))
            .collect::<Vec<Scene>>()
    });
    let mut rng = Rng::new(seed);
    let cams: Vec<Vec<Camera>> = scenes.iter().map(|s| views(s, &mut rng)).collect();
    let renderers: Vec<Renderer> = PipelineVariant::ALL
        .iter()
        .map(|&v| Renderer::new(gpu(HOST_THREADS), v))
        .collect();
    let renderers = &renderers;
    let matrix: Vec<(&Scene, &Camera, &Renderer)> = scenes
        .iter()
        .zip(&cams)
        .flat_map(|(scene, cams)| {
            cams.iter()
                .flat_map(move |cam| renderers.iter().map(move |r| (scene, cam, r)))
        })
        .collect();
    let mut scratch = Scratch::default();
    let mut tally = Tally {
        slots: 1,
        ..Tally::default()
    };

    let reference: Vec<PipelineStats> = matrix
        .iter()
        .map(|(scene, cam, r)| render(r, scene, cam, trace, &mut scratch).0)
        .collect();
    let mut repeatable = true;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for ((scene, cam, r), expected) in matrix.iter().zip(&reference) {
            let start = Instant::now();
            let (stats, visible, draw_s) = render(r, scene, cam, trace, &mut scratch);
            tally.frame_ms.push(start.elapsed().as_secs_f64() * 1e3);
            repeatable &= stats == *expected;
            tally.attempted += 1;
            tally.frames += 1;
            tally.draw_s += draw_s;
            tally.visible_splats += visible as u64;
            if r.variant() == PipelineVariant::HetQm {
                tally.hetqm_cycles += stats.total_cycles;
                tally.hetqm_frames += 1;
            }
            tally.sim.add(&stats);
        }
        setup.run();
    }
    tally.wall_s = t0.elapsed().as_secs_f64();
    tally.cpu_s = process_cpu_s() - cpu0;
    tally.setup_s = setup.median_s();

    // Simulated results may not depend on host threading (the repo's
    // determinism contract): redraw each scene's first viewpoint serially.
    // The matrix runs scene-major, then viewpoint, then variant.
    let per_scene = PipelineVariant::ALL.len() * VIEWS;
    let serial_matches = (0..matrix.len()).step_by(per_scene).all(|first| {
        let (scene, cam, _) = matrix[first];
        PipelineVariant::ALL.iter().enumerate().all(|(i, &v)| {
            Renderer::new(gpu(1), v).render(scene, cam).stats == reference[first + i]
        })
    });
    let cycles = |v: PipelineVariant| -> u64 {
        matrix
            .iter()
            .zip(&reference)
            .filter(|((_, _, r), _)| r.variant() == v)
            .map(|(_, s)| s.total_cycles)
            .sum()
    };
    let (base, hetqm) = (
        cycles(PipelineVariant::Baseline),
        cycles(PipelineVariant::HetQm),
    );
    tally.speedup_sample = (base, hetqm);
    // The paper's headline holds over the matrix: HET+QM needs fewer
    // simulated cycles than the baseline pipeline.
    tally.correct = repeatable && serial_matches && hetqm < base;
    tally.outcome(trace)
}
