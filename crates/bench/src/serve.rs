//! Multi-stream serving experiments. `serve`: four concurrent viewers of
//! one shared scene, the index-share hit rate (how many sessions reuse
//! the single `Arc<SceneIndex>` allocation), the summed re-sort and
//! culling counters and per-stream health counters (deadline misses,
//! dropped frames, terminal phase). `serve-batch`: a translation-bound
//! fleet's batch-round accounting and the stereo eye-pair proof.
//!
//! Parity-gated: every stream of the server run is asserted bit-exact
//! against running that stream alone in a solo [`Session`], so a
//! reported counter can never hide a scheduling or state-sharing bug.
//! No stream has a deadline, so the output is host-independent. Host
//! time is not measured here; `perfbench` does that. Faults, deadlines
//! and the quality ladder are covered by `tests/serve_faults.rs` and
//! `tests/serve_degrade.rs`.

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::index::CullStats;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::sort::ResortStats;
use gsplat::stream::FragmentKernel;
use vrpipe::{
    PipelineVariant, SequenceConfig, Server, Session, SharedScene, StreamPhase, StreamReport,
    StreamSpec,
};

use crate::common::{banner, default_scale};

/// Frames each stream renders.
pub const SERVE_FRAMES: usize = 8;

/// Concurrent streams of the `serve` and `serve-batch` fleets.
pub const STREAMS: usize = 4;

/// Per-stream health counters of one serve run.
pub struct StreamDetail {
    /// Stream name.
    pub name: String,
    /// Terminal phase, flattened to a label ("completed", "evicted: …",
    /// "failed: …").
    pub phase: String,
    /// Frames shed by graceful degradation.
    pub frames_dropped: usize,
    /// Produced frames that completed after their deadline.
    pub deadline_misses: usize,
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
        frames_dropped: s.frames_dropped,
        deadline_misses: s.deadline_misses,
    }
}

/// The `serve` fleet's outcome.
pub struct ServePoint {
    /// Concurrent streams served.
    pub streams: usize,
    /// Frames delivered across all streams.
    pub total_frames: usize,
    /// Fraction of indexed streams sharing the single `Arc<SceneIndex>`.
    pub index_share: f64,
    /// Summed incremental re-sort counters across streams.
    pub resort: ResortStats,
    /// Summed incremental culling counters across streams.
    pub cull: CullStats,
    /// Per-stream health counters.
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

/// Serves [`STREAMS`] viewers of one scene. **Parity-gated**: every
/// stream is checked against its solo session, bit for bit.
pub fn measure_serve(spec_index: usize, scale: f32, frames: usize) -> ServePoint {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };

    let mut server = build_server(SharedScene::new(scene.clone()), STREAMS, frames, w, h, &gpu);
    let report = server.run();
    assert_eq!(
        report.index_sharers, STREAMS,
        "{}: not every session shares the scene index",
        spec.name
    );
    for (k, stream) in report.streams.iter().enumerate() {
        assert_eq!(stream.frames.len(), frames, "{}: stream {k}", spec.name);
        let solo = Session::default()
            .run_vrpipe(
                &scene,
                &viewer_cfg(&scene, k, frames, w, h),
                &gpu,
                PipelineVariant::HetQm,
            )
            .expect("valid config");
        for (frame, (served, alone)) in stream.frames.iter().zip(&solo).enumerate() {
            assert_eq!(
                (&served.stats, &served.preprocess),
                (&alone.stats, &alone.preprocess),
                "{}: stream {k} frame {frame} diverged from its solo render",
                spec.name
            );
        }
    }
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
        streams: STREAMS,
        total_frames: report.total_frames,
        index_share: report.index_share(),
        resort,
        cull,
        details: report.streams.iter().map(detail_of).collect(),
    }
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

/// The `serve-batch` measurement: a translation-bound fleet's batch
/// accounting, plus the stereo eye-pair occupancy proof.
pub struct ServeBatchMeasurement {
    /// Frames per stream.
    pub frames: usize,
    /// Batch accounting of the [`STREAMS`]-stream batching server.
    pub batch: vrpipe::BatchStats,
    /// Dispatch rounds of the lone stereo stream.
    pub stereo_rounds: usize,
    /// Rounds that carried both eyes (must equal `stereo_rounds`).
    pub stereo_paired_rounds: usize,
}

/// Measures cross-stream batched preprocessing: one classification pass
/// serving M translation-bound cameras. **Parity-gated**: every stream
/// of a [`STREAMS`]-stream batching server is asserted bit-exact against
/// its solo session, and a stereo stream is asserted to pair both eyes
/// on 100% of rounds.
pub fn measure_serve_batch(spec_index: usize, scale: f32, frames: usize) -> ServeBatchMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);

    // --- Parity gate: batched == solo, stream by stream, bit for bit.
    // Every stream hashes its splats (`batch_digest`) so divergence is
    // provable. ---
    let mut server = Server::new(SharedScene::new(scene.clone()), 0).with_batching();
    for k in 0..STREAMS {
        let cfg = batch_viewer_cfg(&scene, k, frames, w, h);
        server.add_stream(StreamSpec::new(format!("viewer-{k}"), cfg, |f| {
            batch_digest(&f)
        }));
    }
    let report = server.run();
    let batch = report.batch.clone();
    assert!(
        batch.batched_frames > 0,
        "{}: the translation-bound fleet must actually batch: {batch:?}",
        spec.name
    );
    assert_eq!(
        batch.dispatched_frames(),
        STREAMS * frames,
        "batch accounting must cover every frame"
    );
    let accounted: usize = batch
        .occupancy
        .iter()
        .enumerate()
        .map(|(i, n)| (i + 1) * n)
        .sum();
    assert_eq!(
        accounted,
        batch.dispatched_frames(),
        "occupancy {:?} must sum to the preprocessed frames",
        batch.occupancy
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

    // --- Stereo eye pairing: both eyes ride one round on 100% of
    // eligible frames, bit-exact with the solo session. An eye pair is
    // two frames, so this gate needs a budget of at least two even when
    // the fleet above joins for a single frame. ---
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

    ServeBatchMeasurement {
        frames,
        batch,
        stereo_rounds,
        stereo_paired_rounds,
    }
}

/// The `serve-batch` experiment: cross-stream batched preprocessing — one widened
/// classification pass and one covariance replay serving every
/// translation-bound camera of a round, parity-gated.
pub fn serve_batch() {
    banner(
        "serve-batch",
        "cross-stream batched preprocessing (one classification pass, M cameras)",
    );
    let scale = default_scale().min(0.06);
    let m = measure_serve_batch(2, scale, BATCH_FRAMES);
    println!(
        "translation-bound fleet, {} frames/stream, batching server:",
        m.frames
    );
    println!("  {:>8} {:>10} {:>12}", "streams", "fallback", "occupancy");
    println!(
        "  {:>8} {:>10.3} {:>12}",
        STREAMS,
        m.batch.fallback_ratio(),
        format!("{:?}", m.batch.occupancy),
    );
    println!(
        "  stereo: {}/{} rounds carried both eyes (100% required)",
        m.stereo_paired_rounds, m.stereo_rounds
    );
    println!("  parity gate passed: every batched frame bit-exact with its solo session");
}

/// The `serve` experiment: a multi-stream fleet over one shared scene,
/// parity-gated.
pub fn serve() {
    banner(
        "serve",
        "multi-stream serving (shared scene + index, stream scheduler)",
    );
    let scale = default_scale().min(0.06);
    let spec = &EVALUATED_SCENES[2]; // outdoor Train
    let p = measure_serve(2, scale, SERVE_FRAMES);
    println!(
        "'{}' viewers of one shared scene, {} frames each (HET+QM, SoA kernel, indexed):",
        spec.name, SERVE_FRAMES
    );
    println!(
        "  {:>8} {:>8} {:>12} {:>16} {:>22}",
        "streams", "frames", "index-share", "repaired/fallbk", "skip/refr/reproj"
    );
    println!(
        "  {:>8} {:>8} {:>12.2} {:>10}/{} {:>12}/{}/{}",
        p.streams,
        p.total_frames,
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
    println!("  per-stream:");
    for d in &p.details {
        println!(
            "    {:>10}  misses {}  dropped {}  {}",
            d.name, d.deadline_misses, d.frames_dropped, d.phase
        );
    }
    println!("  parity gate passed: every stream bit-exact with its solo session");
}
