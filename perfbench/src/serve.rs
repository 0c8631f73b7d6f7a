//! The serving workload: viewers of one shared scene served by
//! `vrpipe::serve::Server` over a fixed worker pool, every frame
//! preprocessed by the stream's session and drawn through the simulated
//! HET+QM pipeline.
//!
//! A viewer's frame time is the interval between two of its frames being
//! finished (the first measured from the start of the server run), which
//! is what the viewer waits for. Closed loop: each
//! viewer asks for its next frame as soon as the previous one is done
//! (at most one frame in flight per viewer).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::camera::CameraPath;
use gsplat::index::CullStats;
use gsplat::math::Vec3;
use gsplat::preprocess::PreprocessStats;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::{ColorBuffer, DepthStencilBuffer, FragmentKernel, WorkerPool};
use vrpipe::{
    DrawScratch, FrameInput, PipelineVariant, Renderer, SequenceConfig, ServeReport, Server,
    Session, SharedScene, StreamPhase, StreamSpec,
};

use crate::report::{process_cpu_s, Outcome, Rng, Setup, Tally};
use crate::HOST_THREADS;

/// Scene the fleet renders (the outdoor "Train").
const SCENE: usize = 2;

/// serve-fleet: scene scale (viewport scales with it).
const FLEET_SCALE: f32 = 0.06;
/// serve-fleet: concurrent viewers, four times the pool's workers so the
/// pool never idles for want of a ready frame.
const FLEET_VIEWERS: usize = 8;
/// serve-fleet: frames per viewer per server run.
const FLEET_FRAMES: usize = 12;

/// What the benchmark's backend returns for each served frame.
struct Delivered {
    stats: PipelineStats,
    preprocess: PreprocessStats,
    cull: CullStats,
    /// Host time inside the draw call (zero unless traced).
    draw: Duration,
    /// When the frame was finished.
    done: Instant,
}

/// The simulated GPU every viewer is drawn on. Serial per frame: serving
/// parallelism comes from the pool, as with `StreamSpec::vrpipe`.
fn gpu() -> GpuConfig {
    GpuConfig {
        kernel: FragmentKernel::Soa,
        threads: 1,
        ..GpuConfig::default()
    }
}

/// A viewer stream: the same draw `StreamSpec::vrpipe` performs (HET+QM
/// into persistent targets with a reused scratch), plus the frame's
/// finish time and, when traced, the span of the draw call.
fn viewer(name: String, cfg: SequenceConfig, trace: bool) -> StreamSpec<Delivered> {
    let gpu = gpu();
    let mut color = ColorBuffer::new(cfg.width, cfg.height, gpu.pixel_format);
    let mut ds = DepthStencilBuffer::new(cfg.width, cfg.height);
    let mut scratch = DrawScratch::default();
    StreamSpec::fallible(name, cfg, move |f: FrameInput<'_>| {
        let start = trace.then(Instant::now);
        let stats = vrpipe::try_draw_in_place(
            f.splats,
            &gpu,
            PipelineVariant::HetQm,
            &mut color,
            &mut ds,
            &mut scratch,
        )?;
        let done = Instant::now();
        Ok(Delivered {
            stats,
            preprocess: f.preprocess,
            cull: f.cull,
            draw: start.map_or(Duration::ZERO, |s| done - s),
            done,
        })
    })
}

/// Adds one server run, started at `start`, to the tally.
fn tally_run(
    tally: &mut Tally,
    report: &ServeReport<Delivered>,
    budgets: &[usize],
    start: Instant,
) {
    for (s, &budget) in report.streams.iter().zip(budgets) {
        tally.attempted += budget as u64;
        tally.failed += budget.saturating_sub(s.frames.len()) as u64;
        tally.resort_frames += s.resort.frames;
        tally.resort_repaired += s.resort.repaired;
        let mut prev = start;
        for d in &s.frames {
            tally.frame_ms.push((d.done - prev).as_secs_f64() * 1e3);
            prev = d.done;
            tally.frames += 1;
            tally.draw_s += d.draw.as_secs_f64();
            tally.visible_splats += d.preprocess.visible_splats as u64;
            tally.indexed_gaussians += d.preprocess.input_gaussians as u64;
            tally.gaussians_skipped += d.cull.gaussians_skipped;
            tally.hetqm_cycles += d.stats.total_cycles;
            tally.hetqm_frames += 1;
            tally.sim.add(&d.stats);
        }
    }
    let b = &report.batch;
    tally.batch_rounds += b.rounds as u64;
    tally.batch_batched_rounds += b.batched_rounds as u64;
    tally.batch_frames += b.dispatched_frames() as u64;
}

/// Every stream completed, and each of its frames is bit-exact with the
/// same viewer rendered alone by a solo `Session` through the built-in
/// simulated-pipeline backend.
fn matches_solo(scene: &Scene, report: &ServeReport<Delivered>, cfgs: &[SequenceConfig]) -> bool {
    report.streams.len() == cfgs.len()
        && report.streams.iter().zip(cfgs).all(|(s, cfg)| {
            let Ok(solo) =
                Session::default().run_vrpipe(scene, cfg, &gpu(), PipelineVariant::HetQm)
            else {
                return false;
            };
            s.phase == StreamPhase::Completed
                && s.frames.len() == solo.len()
                && s.frames
                    .iter()
                    .zip(&solo)
                    .all(|(d, r)| d.stats == r.stats && d.preprocess == r.preprocess)
        })
}

/// Simulated cycles of each viewer's first frame drawn by the baseline
/// pipeline and by HET+QM.
fn speedup_sample(scene: &Scene, cfgs: &[SequenceConfig]) -> (u64, u64) {
    cfgs.iter().fold((0, 0), |(base, hetqm), cfg| {
        let cam = cfg
            .path
            .camera(0, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
        let cycles = |v| {
            Renderer::new(gpu(), v)
                .render(scene, &cam)
                .stats
                .total_cycles
        };
        (
            base + cycles(PipelineVariant::Baseline),
            hetqm + cycles(PipelineVariant::HetQm),
        )
    })
}

/// The fleet: even viewers orbit the scene at their own radius and
/// height; odd viewers fly toward it with hand shake, from directions
/// evenly spaced around it and turned by the seeded `phase` (evenly
/// spaced, so every seed sees the scene from all sides). Every camera
/// looks along its own direction, so no viewer's camera is a translation
/// of another's.
fn fleet_cfg(scene: &Scene, k: usize, phase: f32, w: u32, h: u32) -> SequenceConfig {
    let r = scene.view_radius;
    let path = if k.is_multiple_of(2) {
        CameraPath::orbit(
            scene.center,
            r * (0.85 + 0.05 * k as f32 / FLEET_VIEWERS as f32),
            scene.view_height * (0.7 + 0.1 * k as f32 / FLEET_VIEWERS as f32),
            0.04,
        )
    } else {
        let angle = phase + k as f32 / FLEET_VIEWERS as f32 * std::f32::consts::TAU;
        let start = scene.center + Vec3::new(r * angle.cos(), scene.view_height, r * angle.sin());
        CameraPath::flythrough(start, scene.center, r * 0.0015, r * 0.0008)
    };
    SequenceConfig::new(path, FLEET_FRAMES, w, h).with_index()
}

/// `serve-fleet`: a warm fleet served run after run by one batching
/// server. Set-up is scene generation, the shared index build, the pool
/// and stream registration; one untimed run warms every viewer's
/// temporal state.
pub fn fleet(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let spec = &EVALUATED_SCENES[SCENE];
    let (w, h) = spec.scaled_viewport(FLEET_SCALE);
    let phase = Rng::new(seed).range(0.0, std::f32::consts::TAU);
    let (mut setup, (shared, mut server, cfgs)) = Setup::new(|| {
        let shared = Arc::new(SharedScene::new(spec.generate_scaled(FLEET_SCALE)));
        shared.index();
        let pool = Arc::new(WorkerPool::new(HOST_THREADS));
        let mut server = Server::with_pool(Arc::clone(&shared), pool).with_batching();
        let cfgs: Vec<SequenceConfig> = (0..FLEET_VIEWERS)
            .map(|k| fleet_cfg(shared.scene(), k, phase, w, h))
            .collect();
        for (k, cfg) in cfgs.iter().enumerate() {
            server.add_stream(viewer(format!("viewer-{k}"), cfg.clone(), trace));
        }
        (shared, server, cfgs)
    });
    let budgets: Vec<usize> = cfgs.iter().map(|c| c.frames).collect();
    let mut tally = Tally {
        slots: HOST_THREADS,
        ..Tally::default()
    };

    let _warm = server.run();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut last = None;
    while t0.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let report = server.run();
        tally_run(&mut tally, &report, &budgets, start);
        last = Some(report);
        setup.run();
    }
    tally.wall_s = t0.elapsed().as_secs_f64();
    tally.cpu_s = process_cpu_s() - cpu0;
    tally.setup_s = setup.median_s();

    tally.correct = last.is_some_and(|r| matches_solo(shared.scene(), &r, &cfgs));
    if trace {
        tally.speedup_sample = speedup_sample(shared.scene(), &cfgs);
    }
    tally.outcome(trace)
}
