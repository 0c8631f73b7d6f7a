//! Multi-stream serving experiment: aggregate throughput as the number of
//! concurrent viewers of one shared scene grows (1/2/4/8 streams), plus
//! the index-share hit rate (how many sessions reuse the single
//! `Arc<SceneIndex>` allocation) and per-stream health counters (p50/p99
//! frame latency, deadline misses, dropped frames, terminal phase).
//!
//! Parity-gated: before anything is timed, every stream of a 4-stream
//! server run is asserted bit-exact against running that stream alone in
//! a solo [`Session`], so a reported throughput can never hide a
//! scheduling or state-sharing bug. The companion `serve-faults` smoke
//! ([`serve_faults`]) drives the server through a seeded fault plan plus
//! a deadline/stall eviction and applies the same gate to every *produced*
//! frame.

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::index::CullStats;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::sort::ResortStats;
use gsplat::stream::FragmentKernel;
use vrpipe::{
    FaultKind, FaultPlan, PipelineVariant, QualityLadder, SchedulePolicy, SequenceConfig,
    ServeReport, Server, Session, SharedScene, StreamPhase, StreamReport, StreamSpec,
};

use crate::common::{banner, default_scale};

/// Frames each stream renders.
pub const SERVE_FRAMES: usize = 8;

/// Concurrent-stream counts swept by the experiment.
pub const STREAM_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Seed of the fault plan driven by the `serve-faults` smoke.
pub const FAULT_SEED: u64 = 0xC0FFEE;

/// Per-stream health counters of one serve run, for the JSON trail.
pub struct StreamDetail {
    /// Stream name.
    pub name: String,
    /// Terminal phase, flattened to a label ("completed", "evicted: …",
    /// "failed: …").
    pub phase: String,
    /// Frames produced.
    pub frames: usize,
    /// Frames shed by graceful degradation.
    pub frames_dropped: usize,
    /// Produced frames that completed after their deadline.
    pub deadline_misses: usize,
    /// Backend retries performed.
    pub retries: u32,
    /// Median accepted frame latency, ms.
    pub latency_p50_ms: f64,
    /// 99th-percentile accepted frame latency, ms.
    pub latency_p99_ms: f64,
}

/// Flattens a [`StreamPhase`] to a stable report label.
fn phase_label(phase: &StreamPhase) -> String {
    match phase {
        StreamPhase::Completed => "completed".to_string(),
        StreamPhase::Evicted(reason) => format!("evicted: {reason}"),
        StreamPhase::Failed(fault) => format!("failed: {fault}"),
        StreamPhase::Admitted => "admitted".to_string(),
        StreamPhase::Running => "running".to_string(),
    }
}

fn detail_of<R>(s: &StreamReport<R>) -> StreamDetail {
    StreamDetail {
        name: s.name.clone(),
        phase: phase_label(&s.phase),
        frames: s.frames.len(),
        frames_dropped: s.frames_dropped,
        deadline_misses: s.deadline_misses,
        retries: s.retries,
        latency_p50_ms: s.latency_p50_ms,
        latency_p99_ms: s.latency_p99_ms,
    }
}

/// One stream-count configuration's measurement.
pub struct ServePoint {
    /// Concurrent streams served.
    pub streams: usize,
    /// Frames delivered across all streams.
    pub total_frames: usize,
    /// Wall time of the serve run, ms (best of the reps).
    pub wall_ms: f64,
    /// Aggregate delivered frame rate (all streams / wall clock).
    pub aggregate_fps: f64,
    /// Fraction of indexed streams sharing the single `Arc<SceneIndex>`.
    pub index_share: f64,
    /// Summed incremental re-sort counters across streams.
    pub resort: ResortStats,
    /// Summed incremental culling counters across streams.
    pub cull: CullStats,
    /// Per-stream health counters of the final rep.
    pub details: Vec<StreamDetail>,
}

/// The k-th viewer's sequence: alternating frame-coherent orbits (even
/// streams — warm-sort territory) and shaky flythroughs (odd streams —
/// pure-translation deltas, covariance-cache territory), each from a
/// stream-specific pose. Every viewer sees the same scene; nobody shares
/// a camera.
fn viewer_cfg(scene: &gsplat::Scene, k: usize, frames: usize, w: u32, h: u32) -> SequenceConfig {
    let r = scene.view_radius;
    let path = if k.is_multiple_of(2) {
        CameraPath::orbit(
            scene.center,
            r * (0.85 + 0.1 * (k % 3) as f32),
            0.7 + 0.35 * k as f32,
            0.002 * (1.0 + 0.5 * k as f32) * frames as f32,
        )
    } else {
        CameraPath::flythrough(
            scene.center + gsplat::math::Vec3::new(0.3 * k as f32, scene.view_height, r),
            scene.center,
            r * 0.0015,
            r * 0.0008,
        )
    };
    SequenceConfig::new(path, frames, w, h).with_index()
}

/// Builds a server with `n` viewer streams over `shared`.
fn build_server(
    shared: SharedScene,
    n: usize,
    frames: usize,
    w: u32,
    h: u32,
    gpu: &GpuConfig,
) -> Server<vrpipe::SequenceFrameRecord> {
    let mut server = Server::new(shared, 0);
    for k in 0..n {
        let cfg = viewer_cfg(server.shared().scene(), k, frames, w, h);
        server.add_stream(StreamSpec::vrpipe(
            format!("viewer-{k}"),
            cfg,
            gpu.clone(),
            PipelineVariant::HetQm,
        ));
    }
    server
}

/// Asserts stream `k` of `report` bit-exact against its solo session for
/// every frame it produced (full budget for healthy streams, the prefix
/// before the fault otherwise).
#[allow(clippy::too_many_arguments)]
fn assert_stream_parity(
    scene: &gsplat::Scene,
    report: &ServeReport<vrpipe::SequenceFrameRecord>,
    k: usize,
    frames: usize,
    w: u32,
    h: u32,
    gpu: &GpuConfig,
    context: &str,
) {
    let cfg = viewer_cfg(scene, k, frames, w, h);
    let solo = Session::default()
        .run_vrpipe(scene, &cfg, gpu, PipelineVariant::HetQm)
        .expect("valid config");
    let stream = &report.streams[k];
    for (served, &frame) in stream.frames.iter().zip(&stream.produced) {
        let alone = &solo[frame];
        assert_eq!(
            served.stats, alone.stats,
            "{context}: stream {k} frame {frame} diverged from its solo render"
        );
        assert_eq!(
            served.preprocess, alone.preprocess,
            "{context}: stream {k} frame {frame} preprocess diverged"
        );
    }
}

/// Measures aggregate serve throughput per stream count. **Parity-gated**:
/// a 4-stream server is first checked stream-by-stream against solo
/// sessions, bit for bit, before any timing runs.
pub fn measure_serve(spec_index: usize, scale: f32, frames: usize) -> Vec<ServePoint> {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };

    // --- Parity gate: served == solo, stream by stream, bit for bit. ---
    {
        let mut server = build_server(SharedScene::new(scene.clone()), 4, frames, w, h, &gpu);
        let report = server.run();
        assert_eq!(
            report.index_sharers, 4,
            "{}: not every session shares the scene index",
            spec.name
        );
        for k in 0..report.streams.len() {
            assert_eq!(
                report.streams[k].frames.len(),
                frames,
                "{}: stream {k}",
                spec.name
            );
            assert_stream_parity(&scene, &report, k, frames, w, h, &gpu, spec.name);
        }
    }

    // --- Timing: fresh server per stream count (cold temporal state on
    // rep 1; later reps rewind with warm state — reported is the best,
    // matching steady-state serving). ---
    let reps = 3;
    STREAM_COUNTS
        .iter()
        .map(|&n| {
            let mut server = build_server(SharedScene::new(scene.clone()), n, frames, w, h, &gpu);
            let mut best_wall = f64::INFINITY;
            let mut last = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let report = server.run();
                best_wall = best_wall.min(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(report);
            }
            let report = last.expect("at least one rep");
            let resort = report.streams.iter().fold(ResortStats::default(), |a, s| {
                let r = s.resort;
                ResortStats {
                    frames: a.frames + r.frames,
                    repaired: a.repaired + r.repaired,
                    radix_fallbacks: a.radix_fallbacks + r.radix_fallbacks,
                    repair_shifts: a.repair_shifts + r.repair_shifts,
                }
            });
            let cull = report
                .streams
                .iter()
                .fold(CullStats::default(), |a, s| sum_cull(a, s.cull));
            ServePoint {
                streams: n,
                total_frames: report.total_frames,
                wall_ms: best_wall,
                aggregate_fps: report.total_frames as f64 / (best_wall / 1e3).max(1e-12),
                index_share: report.index_share(),
                resort,
                cull,
                details: report.streams.iter().map(detail_of).collect(),
            }
        })
        .collect()
}

fn sum_cull(a: CullStats, b: CullStats) -> CullStats {
    CullStats {
        frames: a.frames + b.frames,
        cells_skipped: a.cells_skipped + b.cells_skipped,
        cells_refreshed: a.cells_refreshed + b.cells_refreshed,
        cells_reprojected: a.cells_reprojected + b.cells_reprojected,
        gaussians_skipped: a.gaussians_skipped + b.gaussians_skipped,
        gaussians_refreshed: a.gaussians_refreshed + b.gaussians_refreshed,
        gaussians_reprojected: a.gaussians_reprojected + b.gaussians_reprojected,
    }
}

/// The `serve-faults` smoke measurement: one server driven through a
/// deterministic chaos scenario (healthy / transient-recovered /
/// persistently-failing / stalled-and-evicted streams) plus a seeded
/// [`FaultPlan`], every produced frame parity-gated against solo
/// sessions.
pub struct ServeFaultsMeasurement {
    /// Seed of the random fault plan.
    pub seed: u64,
    /// Per-stream outcomes of the deterministic chaos scenario.
    pub streams: Vec<StreamDetail>,
}

/// Runs the fault-injection smoke: (a) a 4-stream chaos matrix — healthy
/// deadline stream, transient fault that retries recover, persistent
/// error that exhausts retries, stalled stream the watchdog evicts — and
/// (b) a seeded [`FaultPlan`] over 4 more streams. Both are parity-gated:
/// every frame any stream *produced* is bit-exact with its solo session.
pub fn measure_serve_faults(
    spec_index: usize,
    scale: f32,
    frames: usize,
) -> ServeFaultsMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };

    // --- (a) Deterministic chaos matrix. Stream k renders viewer_cfg(k)
    // so the solo references are the same as the throughput gate's. ---
    let mut server = Server::new(SharedScene::new(scene.clone()), 0).with_watchdog(2.0);
    let mk = |k: usize, server: &Server<vrpipe::SequenceFrameRecord>| {
        StreamSpec::vrpipe(
            format!("chaos-{k}"),
            viewer_cfg(server.shared().scene(), k, frames, w, h),
            gpu.clone(),
            PipelineVariant::HetQm,
        )
    };
    // Healthy, generous deadline: must complete with zero misses.
    let s0 = mk(0, &server).with_deadline_ms(10_000.0);
    server.add_stream(s0);
    // Transient fault at frame 1, cleared by two retries: must recover.
    let s1 = mk(1, &server).with_faults(
        FaultPlan::new()
            .with_fault(0, 1, FaultKind::Transient(2))
            .injector(0),
    );
    server.add_stream(s1);
    // Persistent error at frame 2: retries exhaust, stream fails.
    let s2 = mk(2, &server).with_faults(
        FaultPlan::new()
            .with_fault(0, 2, FaultKind::Error)
            .injector(0),
    );
    server.add_stream(s2);
    // Stall far past the watchdog budget (2 × 5 ms): evicted.
    let s3 = mk(3, &server).with_deadline_ms(5.0).with_faults(
        FaultPlan::new()
            .with_fault(0, 1, FaultKind::Stall(120))
            .injector(0),
    );
    server.add_stream(s3);

    let report = server.run();
    for k in 0..4 {
        assert_stream_parity(&scene, &report, k, frames, w, h, &gpu, "serve-faults");
    }
    let s = &report.streams;
    assert_eq!(s[0].phase, StreamPhase::Completed, "healthy stream");
    assert_eq!(s[0].frames.len(), frames);
    assert_eq!(s[0].deadline_misses, 0, "generous deadline missed");
    assert_eq!(s[1].phase, StreamPhase::Completed, "transient must recover");
    assert_eq!(s[1].retries, 2, "transient fault takes exactly two retries");
    assert!(
        matches!(s[2].phase, StreamPhase::Failed(_)),
        "persistent error must fail the stream: {:?}",
        s[2].phase
    );
    assert!(
        phase_label(&s[2].phase).contains("injected"),
        "report must name the injected cause: {}",
        phase_label(&s[2].phase)
    );
    assert!(
        matches!(s[3].phase, StreamPhase::Evicted(_)),
        "stalled stream must be evicted: {:?}",
        s[3].phase
    );
    let details = report.streams.iter().map(detail_of).collect();

    // --- (b) Seeded fault plan: whatever the seed injects, produced
    // frames stay bit-exact and the server terminates. ---
    let plan = FaultPlan::seeded(FAULT_SEED, 4, frames);
    let mut server = Server::new(SharedScene::new(scene.clone()), 0).with_watchdog(4.0);
    for k in 0..4 {
        let mut spec = mk(k, &server).with_faults(plan.injector(k));
        if plan
            .faults_for(k)
            .any(|f| matches!(f.kind, FaultKind::Stall(_)))
        {
            // Stalls only evict under a deadline; give stalled streams one
            // so the seeded plan exercises the watchdog too.
            spec = spec.with_deadline_ms(5.0);
        }
        server.add_stream(spec);
    }
    let report = server.run();
    for k in 0..4 {
        assert_stream_parity(
            &scene,
            &report,
            k,
            frames,
            w,
            h,
            &gpu,
            "serve-faults(seeded)",
        );
    }
    for (k, s) in report.streams.iter().enumerate() {
        if plan.faults_for(k).next().is_none() {
            assert_eq!(
                s.phase,
                StreamPhase::Completed,
                "unfaulted stream {k} must complete"
            );
            assert_eq!(s.frames.len(), frames, "unfaulted stream {k}");
        }
    }

    ServeFaultsMeasurement {
        seed: FAULT_SEED,
        streams: details,
    }
}

/// Serving period of the overload-degradation smoke, ms. Generous enough
/// that an on-time frame is decidable even on a debug build on a loaded
/// CI machine (~60 ms/frame at these scales).
pub const DEGRADE_PERIOD_MS: f64 = 150.0;

/// Frames each stream renders in the overload-degradation smoke — enough
/// post-spike room for the hysteresis to climb all the way back up.
pub const DEGRADE_FRAMES: usize = 10;

/// Per-stream outcome of the overload-degradation smoke, for the JSON
/// trail: the recorded rung trace plus occupancy and step counters.
pub struct DegradeStreamDetail {
    /// Stream name.
    pub name: String,
    /// Terminal phase label.
    pub phase: String,
    /// Frames produced.
    pub frames: usize,
    /// Produced frames that completed after their deadline.
    pub deadline_misses: usize,
    /// Recorded rung per produced frame, in production order.
    pub rungs: Vec<u8>,
    /// Frames produced at each ladder rung; sums to `frames`.
    pub occupancy: Vec<usize>,
    /// Hysteresis + brownout steps toward lower quality.
    pub steps_down: usize,
    /// Hysteresis steps back toward full quality.
    pub steps_up: usize,
    /// Steps forced by the server-level brownout detector.
    pub brownout_steps: usize,
}

fn degrade_detail_of(s: &StreamReport<vrpipe::SequenceFrameRecord>) -> DegradeStreamDetail {
    DegradeStreamDetail {
        name: s.name.clone(),
        phase: phase_label(&s.phase),
        frames: s.frames.len(),
        deadline_misses: s.deadline_misses,
        rungs: s.rungs.clone(),
        occupancy: s.rung_occupancy(),
        steps_down: s.rung_steps_down,
        steps_up: s.rung_steps_up,
        brownout_steps: s.brownout_steps,
    }
}

/// The `serve-degrade` smoke measurement: the same load spike driven
/// through a frame-dropping-only server (which loses the stream to the
/// watchdog) and a quality-ladder server (which serves every frame),
/// with per-rung parity gates on everything produced.
pub struct ServeDegradeMeasurement {
    /// Frame period of both servers, ms.
    pub period_ms: f64,
    /// Terminal phase of the frame-dropping baseline stream.
    pub baseline_phase: String,
    /// Frames the baseline delivered before losing its slot.
    pub baseline_frames: usize,
    /// Frames the ladder delivered that the baseline did not.
    pub frames_saved: usize,
    /// Per-stream outcomes of the adaptive server.
    pub streams: Vec<DegradeStreamDetail>,
}

/// Asserts every frame `stream` produced bit-exact against a solo
/// [`Session`] configured at that frame's *recorded* rung from the very
/// start — degradation is a quality change, never a correctness change.
fn assert_rung_parity(
    scene: &gsplat::Scene,
    base: &SequenceConfig,
    ladder: &QualityLadder,
    gpu: &GpuConfig,
    stream: &StreamReport<vrpipe::SequenceFrameRecord>,
    context: &str,
) {
    let solos: Vec<Vec<vrpipe::SequenceFrameRecord>> = ladder
        .derive_all(base)
        .iter()
        .map(|cfg| {
            Session::default()
                .run_vrpipe(scene, cfg, gpu, PipelineVariant::HetQm)
                .expect("valid config")
        })
        .collect();
    assert_eq!(
        stream.rungs.len(),
        stream.produced.len(),
        "{context}: {} records exactly one rung per produced frame",
        stream.name
    );
    for ((served, &frame), &rung) in stream
        .frames
        .iter()
        .zip(&stream.produced)
        .zip(&stream.rungs)
    {
        let alone = &solos[rung as usize][frame];
        assert_eq!(
            served.stats, alone.stats,
            "{context}: {} frame {frame} at rung {rung} diverged from its solo render",
            stream.name
        );
        assert_eq!(
            served.preprocess, alone.preprocess,
            "{context}: {} frame {frame} at rung {rung} preprocess diverged",
            stream.name
        );
    }
}

/// Runs the overload-degradation smoke: (a) a frame-dropping-only
/// baseline hit by a two-frame load spike — the spike frame is
/// dispatched before it is droppable and blows the watchdog budget
/// mid-flight, so the stream is evicted; (b) the same spike against a
/// stream carrying [`QualityLadder::standard`] — it steps down to the
/// quarter-cost floor, serves the spike inside the budget, and climbs
/// back to full quality. Every produced frame of both servers is
/// parity-gated against a solo session at its recorded rung.
pub fn measure_serve_degrade(
    spec_index: usize,
    scale: f32,
    frames: usize,
) -> ServeDegradeMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };
    // Step down after a single miss, back up after two on-time frames.
    let ladder = QualityLadder::standard().with_hysteresis(1, 2);
    // A 200 ms onset (a guaranteed miss at the 150 ms period) and a
    // 1.6 s spike — beyond the 4 × 150 ms watchdog budget at full
    // quality, comfortably inside it at quarter cost.
    let spike = || {
        FaultPlan::new()
            .with_fault(0, 0, FaultKind::Load(200))
            .with_fault(0, 1, FaultKind::Load(1_600))
            .injector(0)
    };
    let mk = |k: usize, name: &str, scene: &gsplat::Scene| {
        StreamSpec::vrpipe(
            name.to_string(),
            viewer_cfg(scene, k, frames, w, h),
            gpu.clone(),
            PipelineVariant::HetQm,
        )
    };

    // --- (a) Baseline: dropping late frames is the only pressure valve.
    let mut baseline = Server::new(SharedScene::new(scene.clone()), 1);
    baseline.add_stream(
        mk(0, "baseline", &scene)
            .with_deadline_ms(DEGRADE_PERIOD_MS)
            .with_frame_dropping()
            .with_faults(spike()),
    );
    let lost = baseline.run();
    let b = &lost.streams[0];
    assert!(
        matches!(b.phase, StreamPhase::Evicted(_)),
        "frame dropping alone must lose the stream to the spike: {:?}",
        b.phase
    );
    assert!(
        b.frames.len() < frames,
        "the evicted baseline never delivers its budget"
    );
    // What it did produce is still bit-exact (single-rung ladder).
    assert_rung_parity(
        &scene,
        &viewer_cfg(&scene, 0, frames, w, h),
        &QualityLadder::new(),
        &gpu,
        b,
        "serve-degrade(baseline)",
    );

    // --- (b) Adaptive: same spike, plus the ladder, plus a healthy
    // deadline-less companion. EDF keeps the deadline stream first in
    // line, so its degradation trajectory is pool-size independent.
    let mut adaptive =
        Server::new(SharedScene::new(scene.clone()), 1).with_policy(SchedulePolicy::Deadline);
    adaptive.add_stream(
        mk(0, "adaptive", &scene)
            .with_deadline_ms(DEGRADE_PERIOD_MS)
            .with_ladder(ladder.clone())
            .with_faults(spike()),
    );
    adaptive.add_stream(mk(1, "steady", &scene));
    let saved = adaptive.run();
    for s in &saved.streams {
        assert_eq!(
            s.phase,
            StreamPhase::Completed,
            "{}: the ladder absorbs the spike — zero evictions",
            s.name
        );
        assert_eq!(s.frames.len(), frames, "{}: no frames lost", s.name);
    }
    let a = &saved.streams[0];
    assert!(
        a.rungs.contains(&1) && a.rungs.contains(&2),
        "the spike must push the stream through both degraded rungs: {:?}",
        a.rungs
    );
    assert_eq!(a.rungs.last(), Some(&0), "recovered to full quality");
    assert_rung_parity(
        &scene,
        &viewer_cfg(&scene, 0, frames, w, h),
        &ladder,
        &gpu,
        a,
        "serve-degrade(adaptive)",
    );
    assert_rung_parity(
        &scene,
        &viewer_cfg(&scene, 1, frames, w, h),
        &QualityLadder::new(),
        &gpu,
        &saved.streams[1],
        "serve-degrade(steady)",
    );

    ServeDegradeMeasurement {
        period_ms: DEGRADE_PERIOD_MS,
        baseline_phase: phase_label(&b.phase),
        baseline_frames: b.frames.len(),
        frames_saved: frames - b.frames.len(),
        streams: saved.streams.iter().map(degrade_detail_of).collect(),
    }
}

// ---- cross-stream batched preprocessing ----

/// Frames each stream renders in the batched-preprocessing comparison.
pub const BATCH_FRAMES: usize = 1;

/// FNV-1a over the raw bits of everything frame-relevant a stream emits:
/// the sorted splat stream plus the preprocessing counters. This is the
/// bit-exactness witness batching must preserve (`cull` is excluded by
/// design: batched frames account their culling work in the shared
/// [`vrpipe::BatchStats`], the one counter batching is allowed to move).
fn batch_digest(f: &vrpipe::FrameInput<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for s in f.splats {
        eat(s.center.x.to_bits() as u64 | (s.center.y.to_bits() as u64) << 32);
        eat(s.depth.to_bits() as u64 | (s.conic.0.to_bits() as u64) << 32);
        eat(s.conic.1.to_bits() as u64 | (s.conic.2.to_bits() as u64) << 32);
        eat(s.color.x.to_bits() as u64 | (s.color.y.to_bits() as u64) << 32);
        eat(s.color.z.to_bits() as u64 | (s.opacity.to_bits() as u64) << 32);
        eat(s.source as u64);
    }
    eat(f.preprocess.input_gaussians as u64);
    eat(f.preprocess.visible_splats as u64);
    eat(f.preprocess.sorted_keys as u64);
    eat(f.preprocess.total_obb_area.to_bits());
    h
}

/// The k-th batched viewer: an axis-aligned −z flythrough whose camera
/// basis is bit-identical across frames and across the fleet's
/// power-of-two eye offsets — every stream is provably a pure
/// translation of every other, so an M-stream server forms M-member
/// rounds.
fn batch_viewer_cfg(
    scene: &gsplat::Scene,
    k: usize,
    frames: usize,
    w: u32,
    h: u32,
) -> SequenceConfig {
    let dx = 0.5 * (k % 4) as f32;
    let dy = 0.25 * (k / 4) as f32;
    let start = scene.center + gsplat::math::Vec3::new(dx, dy, scene.view_radius);
    SequenceConfig::new(
        CameraPath::flythrough(
            start,
            start + gsplat::math::Vec3::new(0.0, 0.0, -8.0),
            0.25,
            0.01,
        ),
        frames,
        w,
        h,
    )
    .with_index()
}

/// One stream-count configuration of the batched-vs-unbatched comparison.
pub struct ServeBatchPoint {
    /// Concurrent translation-bound streams served.
    pub streams: usize,
    /// Frames delivered across all streams.
    pub total_frames: usize,
    /// Wall time of the unbatched (exact per-stream) server, ms.
    pub unbatched_wall_ms: f64,
    /// Aggregate fps of the unbatched server.
    pub unbatched_fps: f64,
    /// Wall time of the batching server, ms.
    pub batched_wall_ms: f64,
    /// Aggregate fps of the batching server.
    pub batched_fps: f64,
    /// `unbatched_wall / batched_wall`.
    pub speedup: f64,
    /// Batched preprocessing wall per stream, ms.
    pub preprocess_ms_per_stream: f64,
    /// Frames served by ≥2-member rounds.
    pub batched_frames: usize,
    /// Frames that fell back to the exact solo path.
    pub solo_frames: usize,
    /// Fraction of dispatch rounds that fell back to solo.
    pub fallback_ratio: f64,
    /// Round-occupancy histogram: `occupancy[i]` rounds had `i + 1`
    /// members. `Σ (i+1)·occupancy[i]` equals the preprocessed frames.
    pub occupancy: Vec<usize>,
}

/// The `serve-batch` measurement: a translation-bound fleet served
/// batched vs unbatched, parity-gated, plus the stereo eye-pair
/// occupancy proof.
pub struct ServeBatchMeasurement {
    /// Frames per stream.
    pub frames: usize,
    /// One point per stream count in [`STREAM_COUNTS`].
    pub points: Vec<ServeBatchPoint>,
    /// Dispatch rounds of the lone stereo stream.
    pub stereo_rounds: usize,
    /// Rounds that carried both eyes (must equal `stereo_rounds`).
    pub stereo_paired_rounds: usize,
}

/// Measures cross-stream batched preprocessing: one classification pass
/// serving M translation-bound cameras vs the exact per-stream path.
/// **Parity-gated**: every stream of a 4-stream batching server is
/// asserted bit-exact against its solo session, and a stereo stream is
/// asserted to pair both eyes on 100% of rounds, before any timing runs.
/// Timing uses a 1-worker pool on both sides so the comparison isolates
/// shared-vs-duplicated preprocessing work at a fixed core budget.
pub fn measure_serve_batch(spec_index: usize, scale: f32, frames: usize) -> ServeBatchMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);

    // The gate fleets hash every splat (`batch_digest`) so divergence is
    // provable; the timing fleets use a length sink so the clock weighs
    // the preprocessing under comparison, not the checksum.
    let build = |scene: &gsplat::Scene,
                 n: usize,
                 batching: bool,
                 workers: usize,
                 vw: u32,
                 vh: u32,
                 render: fn(vrpipe::FrameInput) -> u64|
     -> Server<u64> {
        let mut server = Server::new(SharedScene::new(scene.clone()), workers);
        if batching {
            server = server.with_batching();
        }
        for k in 0..n {
            let cfg = batch_viewer_cfg(server.shared().scene(), k, frames, vw, vh);
            server.add_stream(StreamSpec::new(format!("viewer-{k}"), cfg, render));
        }
        server
    };

    // --- Parity gate: batched == solo, stream by stream, bit for bit,
    // before anything is timed. ---
    {
        let mut server = build(&scene, 4, true, 0, w, h, |f| batch_digest(&f));
        let report = server.run();
        assert!(
            report.batch.batched_frames > 0,
            "{}: the translation-bound fleet must actually batch: {:?}",
            spec.name,
            report.batch
        );
        for (k, s) in report.streams.iter().enumerate() {
            assert_eq!(s.phase, StreamPhase::Completed, "{}", s.name);
            let cfg = batch_viewer_cfg(&scene, k, frames, w, h);
            let solo = Session::default().run(&scene, &cfg, |f| batch_digest(&f));
            assert_eq!(
                s.frames, solo,
                "{}: stream {k} batched frames diverged from its solo render",
                spec.name
            );
        }
    }

    // --- Stereo eye pairing: both eyes ride one round on 100% of
    // eligible frames, bit-exact with the solo session. An eye pair is
    // two frames, so this gate needs a budget of at least two even when
    // the timing sweep measures the single-frame cold join. ---
    let (stereo_rounds, stereo_paired_rounds) = {
        let stereo_frames = frames.max(2);
        let start = scene.center + gsplat::math::Vec3::new(0.0, 0.0, scene.view_radius);
        let cfg = SequenceConfig::new(
            CameraPath::flythrough(
                start,
                start + gsplat::math::Vec3::new(0.0, 0.0, -8.0),
                0.25,
                0.01,
            )
            .stereo(0.065),
            stereo_frames,
            w,
            h,
        )
        .with_index();
        let mut server = Server::new(SharedScene::new(scene.clone()), 0).with_batching();
        server.add_stream(StreamSpec::new("hmd", cfg.clone(), |f| batch_digest(&f)));
        let report = server.run();
        let solo = Session::default().run(&scene, &cfg, |f| batch_digest(&f));
        assert_eq!(report.streams[0].frames, solo, "stereo parity");
        let b = &report.batch;
        assert_eq!(
            b.batched_rounds, b.rounds,
            "stereo eyes must pair on 100% of eligible frames: {b:?}"
        );
        assert_eq!(b.solo_frames, 0, "no stereo frame may fall back: {b:?}");
        (b.rounds, b.batched_rounds)
    };

    // --- Timing: batched vs unbatched per stream count, 1 worker. A
    // fresh server per rep keeps every stream's temporal state cold:
    // this measures the serving scenario batching targets — M viewers
    // join and the server preprocesses their frames, paying the
    // classification pass and the WΣWᵀ projection once per round
    // instead of once per stream. The timing scene is denser and the
    // timing viewport halved so the comparison weighs the per-Gaussian
    // preprocessing that batching shares rather than the per-pixel
    // raster that it cannot, and so wall times clear the noise floor;
    // the parity gates above run at the reported scale and viewport. ---
    let tscene = spec.generate_scaled((scale * 2.0).min(0.12));
    let (tw, th) = (w.div_ceil(2), h.div_ceil(2));
    let reps = 5;
    let points = STREAM_COUNTS
        .iter()
        .map(|&n| {
            let time = |batching: bool| {
                let mut best = f64::INFINITY;
                let mut last = None;
                for _ in 0..reps {
                    let mut server =
                        build(&tscene, n, batching, 1, tw, th, |f| f.splats.len() as u64);
                    let t0 = Instant::now();
                    let report = server.run();
                    best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                    last = Some(report);
                }
                (best, last.expect("at least one rep"))
            };
            let (unbatched_wall, _) = time(false);
            let (batched_wall, report) = time(true);
            let b = &report.batch;
            assert_eq!(
                b.dispatched_frames(),
                n * frames,
                "batch accounting must cover every frame"
            );
            ServeBatchPoint {
                streams: n,
                total_frames: report.total_frames,
                unbatched_wall_ms: unbatched_wall,
                unbatched_fps: (n * frames) as f64 / (unbatched_wall / 1e3).max(1e-12),
                batched_wall_ms: batched_wall,
                batched_fps: (n * frames) as f64 / (batched_wall / 1e3).max(1e-12),
                speedup: unbatched_wall / batched_wall.max(1e-12),
                preprocess_ms_per_stream: batched_wall / n as f64,
                batched_frames: b.batched_frames,
                solo_frames: b.solo_frames,
                fallback_ratio: b.fallback_ratio(),
                occupancy: b.occupancy.clone(),
            }
        })
        .collect();

    ServeBatchMeasurement {
        frames,
        points,
        stereo_rounds,
        stereo_paired_rounds,
    }
}

/// The `serve-batch` experiment (also reachable as `figures serve
/// --batch`): cross-stream batched preprocessing — one widened
/// classification pass and one covariance replay serving every
/// translation-bound camera of a round, parity-gated before timing.
pub fn serve_batch() {
    banner(
        "serve-batch",
        "cross-stream batched preprocessing (one classification pass, M cameras)",
    );
    let scale = default_scale().min(0.06);
    let m = measure_serve_batch(2, scale, BATCH_FRAMES);
    println!(
        "translation-bound fleet, {} frames/stream, batched vs exact per-stream (1 worker):",
        m.frames
    );
    println!(
        "  {:>8} {:>12} {:>12} {:>8} {:>14} {:>10} {:>12}",
        "streams", "solo-fps", "batch-fps", "speedup", "ms/stream", "fallback", "occupancy"
    );
    for p in &m.points {
        println!(
            "  {:>8} {:>12.1} {:>12.1} {:>7.2}x {:>14.3} {:>10.3} {:>12}",
            p.streams,
            p.unbatched_fps,
            p.batched_fps,
            p.speedup,
            p.preprocess_ms_per_stream,
            p.fallback_ratio,
            format!("{:?}", p.occupancy),
        );
    }
    println!(
        "  stereo: {}/{} rounds carried both eyes (100% required)",
        m.stereo_paired_rounds, m.stereo_rounds
    );
    println!("  parity gate passed: every batched frame bit-exact with its solo session");
}

/// The `serve` experiment: aggregate throughput vs concurrent stream
/// count over one shared scene, parity-gated.
pub fn serve() {
    banner(
        "serve",
        "multi-stream serving (shared scene + index, stream scheduler)",
    );
    let scale = default_scale().min(0.06);
    let spec = &EVALUATED_SCENES[2]; // outdoor Train
    let points = measure_serve(2, scale, SERVE_FRAMES);
    println!(
        "'{}' viewers of one shared scene, {} frames each (HET+QM, SoA kernel, indexed):",
        spec.name, SERVE_FRAMES
    );
    println!(
        "  {:>8} {:>8} {:>10} {:>10} {:>12} {:>16} {:>22}",
        "streams",
        "frames",
        "wall-ms",
        "agg-fps",
        "index-share",
        "repaired/fallbk",
        "skip/refr/reproj"
    );
    for p in &points {
        println!(
            "  {:>8} {:>8} {:>10.2} {:>10.1} {:>12.2} {:>10}/{} {:>12}/{}/{}",
            p.streams,
            p.total_frames,
            p.wall_ms,
            p.aggregate_fps,
            p.index_share,
            p.resort.repaired,
            p.resort.radix_fallbacks,
            p.cull.gaussians_skipped,
            p.cull.gaussians_refreshed,
            p.cull.gaussians_reprojected,
        );
        assert!(
            (p.index_share - 1.0).abs() < 1e-12,
            "every indexed session must share the one scene index"
        );
        assert_eq!(p.total_frames, p.streams * SERVE_FRAMES);
    }
    let largest = points.last().expect("non-empty sweep");
    println!("  per-stream (at {} streams):", largest.streams);
    for d in &largest.details {
        println!(
            "    {:>10}  p50 {:>7.3} ms  p99 {:>7.3} ms  misses {}  dropped {}  {}",
            d.name,
            d.latency_p50_ms,
            d.latency_p99_ms,
            d.deadline_misses,
            d.frames_dropped,
            d.phase
        );
    }
}

/// The `serve-faults` experiment (also reachable as `figures serve
/// --faults`): fault-injection smoke — chaos matrix + seeded fault plan,
/// parity-gated before anything is reported.
pub fn serve_faults() {
    banner(
        "serve-faults",
        "fault-tolerant serving (injection, retries, watchdog eviction)",
    );
    let scale = default_scale().min(0.04);
    let m = measure_serve_faults(2, scale, 4);
    println!("seeded fault plan 0x{:X}; chaos matrix outcomes:", m.seed);
    for d in &m.streams {
        println!(
            "  {:>10}  frames {}  dropped {}  misses {}  retries {}  p50 {:.3} ms  {}",
            d.name,
            d.frames,
            d.frames_dropped,
            d.deadline_misses,
            d.retries,
            d.latency_p50_ms,
            d.phase
        );
    }
    println!("  parity gate passed: every produced frame bit-exact with its solo session");
}

/// The `serve-degrade` experiment (also reachable as `figures serve
/// --degrade`): overload-degradation smoke — the spike that evicts a
/// frame-dropping-only stream is served to completion by the quality
/// ladder, every frame parity-gated at its recorded rung.
pub fn serve_degrade() {
    banner(
        "serve-degrade",
        "overload-adaptive serving (quality ladder, hysteresis, recorded rungs)",
    );
    let scale = default_scale().min(0.03);
    let m = measure_serve_degrade(2, scale, DEGRADE_FRAMES);
    println!(
        "load spike at a {} ms period — frame-dropping baseline vs quality ladder:",
        m.period_ms
    );
    println!(
        "  baseline:  {}/{} frames, then {}",
        m.baseline_frames, DEGRADE_FRAMES, m.baseline_phase
    );
    for d in &m.streams {
        let trace: Vec<String> = d.rungs.iter().map(|r| r.to_string()).collect();
        println!(
            "  {:>9}:  frames {}  misses {}  steps {} down / {} up  brownout {}  occupancy {:?}  {}",
            d.name,
            d.frames,
            d.deadline_misses,
            d.steps_down,
            d.steps_up,
            d.brownout_steps,
            d.occupancy,
            d.phase
        );
        println!("             rung trace  {}", trace.join(" → "));
    }
    println!(
        "  {} frame(s) the baseline lost were served by the ladder; parity gate passed:",
        m.frames_saved
    );
    println!("  every produced frame bit-exact with its solo session at the recorded rung");
}
