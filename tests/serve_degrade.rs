//! Chaos acceptance gate for overload-adaptive serving: under a seeded
//! load spike ([`FaultKind::Load`]) a stream with a [`QualityLadder`]
//! degrades in deterministic, *recorded* rungs instead of losing frames
//! or its slot — and every produced frame is bit-exact with a solo
//! [`Session`] configured at that frame's recorded rung from the start.
//! Also covered: step-down/step-up hysteresis with recovery to full
//! quality, priority-ordered brownout shedding (high-priority streams
//! structurally protected), per-rung parity on 1- and 4-worker pools,
//! and the headline invariant — the same spike
//! that evicts a stream from PR 6's frame-dropping-only server is served
//! to completion with zero evictions by the ladder.

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use vrpipe::{
    EvictReason, FaultInjector, FaultKind, FaultPlan, PipelineVariant, QualityLadder, QualityRung,
    SchedulePolicy, SequenceConfig, SequenceFrameRecord, Server, Session, SharedScene, StreamPhase,
    StreamReport, StreamSpec,
};

const FRAMES: usize = 10;

fn lego_scene() -> Scene {
    EVALUATED_SCENES[4].generate_scaled(0.02)
}

/// The k-th viewer's sequence: every stream its own orbit, same scene.
fn viewer_cfg(scene: &Scene, k: usize, frames: usize) -> SequenceConfig {
    let path = CameraPath::orbit(
        scene.center,
        scene.view_radius * (0.9 + 0.05 * k as f32),
        0.8 + 0.3 * k as f32,
        0.03 * (k as f32 + 1.0),
    );
    SequenceConfig::new(path, frames, 48, 36).with_index()
}

/// Per-frame digest pinning the whole frame (the pipeline stats feed on
/// every pixel, the preprocess stats on every culling decision).
fn digest(f: &SequenceFrameRecord) -> String {
    format!("{:?}|{:?}", f.stats, f.preprocess)
}

/// Reference bits for every rung: `solo[r][i]` is frame `i` of a solo
/// session configured at rung `r`'s derived config from the very start.
fn solo_rung_digests(
    scene: &Scene,
    base: &SequenceConfig,
    ladder: &QualityLadder,
    gpu: &GpuConfig,
) -> Vec<Vec<String>> {
    ladder
        .derive_all(base)
        .iter()
        .map(|cfg| {
            Session::default()
                .run_vrpipe(scene, cfg, gpu, PipelineVariant::HetQm)
                .expect("valid config")
                .iter()
                .map(digest)
                .collect()
        })
        .collect()
}

/// The headline invariant: every frame a stream produced must equal the
/// solo reference *at the rung the report recorded for it* — degradation
/// is a quality change, never a correctness change.
fn assert_rung_bits_match_solo(
    scene: &Scene,
    base: &SequenceConfig,
    ladder: &QualityLadder,
    stream: &StreamReport<SequenceFrameRecord>,
) {
    let solo = solo_rung_digests(scene, base, ladder, &GpuConfig::default());
    assert_eq!(
        stream.rungs.len(),
        stream.produced.len(),
        "{}: every produced frame records exactly one rung",
        stream.name
    );
    for ((f, &frame), &rung) in stream
        .frames
        .iter()
        .zip(&stream.produced)
        .zip(&stream.rungs)
    {
        assert_eq!(
            f.rung, rung,
            "{}: frame {frame} record disagrees with the report rung",
            stream.name
        );
        assert_eq!(
            &digest(f),
            &solo[rung as usize][frame],
            "{}: frame {frame} at rung {rung} diverged from the solo render at that rung",
            stream.name
        );
    }
    let occ = stream.rung_occupancy();
    assert_eq!(
        occ.iter().sum::<usize>(),
        stream.produced.len(),
        "{}: rung occupancy accounts for every produced frame",
        stream.name
    );
}

/// The serving period for the spike scenarios, ms. Generous enough that
/// an on-time frame is decidable even on a debug build on a loaded CI
/// machine (~60 ms/frame at full resolution).
const PERIOD_MS: f64 = 150.0;

/// A load spike: frame 0 carries a 200 ms onset (a guaranteed deadline
/// miss at a 150 ms period), frame 1 a 1600 ms spike — beyond the
/// 4 × 150 ms watchdog budget at full quality, comfortably inside it at
/// quarter cost.
fn spike() -> FaultInjector {
    FaultPlan::new()
        .with_fault(0, 0, FaultKind::Load(200))
        .with_fault(0, 1, FaultKind::Load(1_600))
        .injector(0)
}

/// The ladder under test: full → half-res/SH≤2 → quarter-res/SH≤1,
/// stepping down after a single miss and back up after two consecutive
/// on-time frames.
fn test_ladder() -> QualityLadder {
    QualityLadder::new()
        .with_rung(QualityRung::new(1, 2))
        .with_rung(QualityRung::new(2, 1))
        .with_hysteresis(1, 2)
}

fn vr_spec(scene: &Scene, k: usize, frames: usize) -> StreamSpec<SequenceFrameRecord> {
    StreamSpec::vrpipe(
        format!("viewer-{k}"),
        viewer_cfg(scene, k, frames),
        GpuConfig::default(),
        PipelineVariant::HetQm,
    )
}

/// Step-down, floor, and full recovery under the spike — deterministic
/// rung schedule at both ends, healthy companion stream untouched.
fn check_spike_degrades_and_recovers(threads: usize) {
    let scene = lego_scene();
    // EDF scheduling: the deadline stream owns the pool whenever it is
    // ready, so its recovery trajectory does not depend on how many
    // deadline-less frames share the worker(s).
    let mut server =
        Server::new(SharedScene::new(scene.clone()), threads).with_policy(SchedulePolicy::Deadline);
    server.add_stream(
        vr_spec(&scene, 0, FRAMES)
            .with_deadline_ms(PERIOD_MS)
            .with_ladder(test_ladder())
            .with_faults(spike()),
    );
    server.add_stream(vr_spec(&scene, 1, FRAMES));
    let report = server.run();

    let loaded = &report.streams[0];
    assert_eq!(
        loaded.phase,
        StreamPhase::Completed,
        "the ladder absorbs the spike: no eviction, no failure"
    );
    assert_eq!(loaded.frames.len(), FRAMES, "no frames lost");
    assert_eq!(loaded.frames_dropped, 0);
    // The schedule's deterministic spine: full quality at frame 0, one
    // rung down after its guaranteed miss, floored for the spike frame.
    assert_eq!(loaded.rungs[0], 0, "frame 0 renders at full quality");
    assert_eq!(loaded.rungs[1], 1, "one miss steps down exactly one rung");
    assert_eq!(loaded.rungs[2], 2, "the spike frame lands on the floor");
    assert_eq!(
        loaded.rungs.last(),
        Some(&0),
        "after the spike passes, hysteresis climbs back to full quality"
    );
    assert_eq!(loaded.rung_steps_down, 2);
    assert_eq!(loaded.rung_steps_up, 2);
    assert_eq!(loaded.brownout_steps, 0, "no server-level shedding armed");
    assert!(loaded.deadline_misses >= 2);
    let occ = loaded.rung_occupancy();
    assert_eq!(occ.len(), 3);
    assert!(
        occ.iter().all(|&n| n >= 1),
        "every rung was visited: {occ:?}"
    );
    assert_rung_bits_match_solo(
        &scene,
        &viewer_cfg(&scene, 0, FRAMES),
        &test_ladder(),
        loaded,
    );

    // The healthy companion is oblivious: full quality throughout.
    let healthy = &report.streams[1];
    assert_eq!(healthy.phase, StreamPhase::Completed);
    assert_eq!(healthy.frames.len(), FRAMES);
    assert!(healthy.rungs.iter().all(|&r| r == 0));
    assert_eq!(healthy.rung_steps_down, 0);
    assert_rung_bits_match_solo(
        &scene,
        &viewer_cfg(&scene, 1, FRAMES),
        &QualityLadder::new(),
        healthy,
    );
}

#[test]
fn spike_degrades_and_recovers_one_worker() {
    check_spike_degrades_and_recovers(1);
}

#[test]
fn spike_degrades_and_recovers_four_workers() {
    check_spike_degrades_and_recovers(4);
}

/// The headline: the exact spike that costs PR 6's frame-dropping-only
/// server a stream is served to completion — every frame, zero
/// evictions — once the stream carries a ladder.
#[test]
fn ladder_survives_the_spike_that_evicts_the_frame_dropping_server() {
    let scene = lego_scene();

    // Baseline: drop-late-frames is the only pressure valve. The 400 ms
    // spike frame is dispatched before it is droppable and then blows the
    // 4 × 40 ms stall budget mid-flight: the watchdog evicts the stream.
    let mut baseline = Server::new(SharedScene::new(scene.clone()), 1);
    baseline.add_stream(
        vr_spec(&scene, 0, FRAMES)
            .with_deadline_ms(PERIOD_MS)
            .with_frame_dropping()
            .with_faults(spike()),
    );
    let lost = baseline.run();
    match &lost.streams[0].phase {
        StreamPhase::Evicted(EvictReason::Stalled { frame, .. }) => {
            assert_eq!(*frame, 1, "the spike frame is what kills it");
        }
        p => panic!("frame dropping alone must lose the stream, got {p:?}"),
    }
    assert!(
        lost.streams[0].frames.len() < FRAMES,
        "the evicted stream never delivers its budget"
    );
    // What it did produce is still bit-exact (single-rung ladder).
    assert_rung_bits_match_solo(
        &scene,
        &viewer_cfg(&scene, 0, FRAMES),
        &QualityLadder::new(),
        &lost.streams[0],
    );

    // Same server shape, same spike, plus the ladder: served in full.
    let mut adaptive = Server::new(SharedScene::new(scene.clone()), 1);
    adaptive.add_stream(
        vr_spec(&scene, 0, FRAMES)
            .with_deadline_ms(PERIOD_MS)
            .with_ladder(test_ladder())
            .with_faults(spike()),
    );
    let saved = adaptive.run();
    let s = &saved.streams[0];
    assert_eq!(s.phase, StreamPhase::Completed, "zero evictions");
    assert_eq!(s.frames.len(), FRAMES);
    assert_eq!(s.frames_dropped, 0);
    assert!(s.rungs.contains(&1) && s.rungs.contains(&2));
    assert_eq!(s.rungs.last(), Some(&0), "recovered to full quality");
    assert_rung_bits_match_solo(&scene, &viewer_cfg(&scene, 0, FRAMES), &test_ladder(), s);
}

/// Brownout sheds in priority order: the server-level detector steps
/// down the lowest-priority streams with ladder headroom, in
/// registration order, and a high-priority stream with no headroom is
/// structurally untouchable — it rides out the overload at full quality.
#[test]
fn brownout_sheds_lowest_priority_streams_first() {
    const N: usize = 4;
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 1).with_brownout(5.0);
    // Sustained 70 ms of injected work on every frame of every stream,
    // against 80 ms periods on one worker shared three ways: aggregate
    // lateness exceeds the 5 ms brownout threshold from the first
    // completion on.
    let sustained = |frames: usize| {
        let mut plan = FaultPlan::new();
        for frame in 0..frames {
            plan = plan.with_fault(0, frame, FaultKind::Load(70));
        }
        plan.injector(0)
    };
    // Hysteresis far out of reach: every rung step below is brownout's.
    let inert = |ladder: QualityLadder| ladder.with_hysteresis(1_000, 1_000);
    server.add_stream(
        vr_spec(&scene, 0, N)
            .with_deadline_ms(80.0)
            .with_priority(10)
            .with_faults(sustained(N)),
    );
    for k in 1..3 {
        server.add_stream(
            vr_spec(&scene, k, N)
                .with_deadline_ms(80.0)
                .with_priority(0)
                .with_ladder(inert(QualityLadder::standard()))
                .with_faults(sustained(N)),
        );
    }
    let report = server.run();

    let vip = &report.streams[0];
    assert_eq!(vip.phase, StreamPhase::Completed);
    assert!(
        vip.rungs.iter().all(|&r| r == 0),
        "no ladder headroom: the vip stream is never degraded"
    );
    assert_eq!(vip.brownout_steps, 0);
    assert!(vip.deadline_misses > 0, "the vip is late, just protected");

    for k in 1..3 {
        let bulk = &report.streams[k];
        assert_eq!(bulk.phase, StreamPhase::Completed, "stream {k}");
        assert!(
            bulk.brownout_steps >= 1,
            "stream {k}: brownout must step the low-priority tier"
        );
        assert_eq!(
            bulk.rungs.last(),
            Some(&2),
            "stream {k}: shed all the way to the floor"
        );
        assert_eq!(bulk.rung_steps_down, bulk.brownout_steps);
    }
    // Registration order breaks the priority tie: the first bulk stream
    // is floored before the second absorbs any steps.
    assert_eq!(report.streams[1].brownout_steps, 2);
    assert_eq!(report.streams[2].brownout_steps, 2);

    // Degraded or not, every stream's bits are the solo reference at its
    // recorded rung.
    assert_rung_bits_match_solo(
        &scene,
        &viewer_cfg(&scene, 0, N),
        &QualityLadder::new(),
        vip,
    );
    for k in 1..3 {
        assert_rung_bits_match_solo(
            &scene,
            &viewer_cfg(&scene, k, N),
            &inert(QualityLadder::standard()),
            &report.streams[k],
        );
    }
}

/// The hysteresis is deadline-driven: a stream with a ladder but no
/// deadline has no notion of "late", so it never steps — overload or
/// not, every frame renders at full quality and the rung trace says so.
#[test]
fn ladder_without_deadline_never_steps() {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 1);
    server.add_stream(
        vr_spec(&scene, 0, 4)
            .with_ladder(test_ladder())
            .with_faults(
                FaultPlan::new()
                    .with_fault(0, 0, FaultKind::Load(100))
                    .with_fault(0, 1, FaultKind::Load(100))
                    .injector(0),
            ),
    );
    let report = server.run();
    let s = &report.streams[0];
    assert_eq!(s.phase, StreamPhase::Completed);
    assert_eq!(s.deadline_misses, 0);
    assert!(s.rungs.iter().all(|&r| r == 0), "rungs: {:?}", s.rungs);
    assert_eq!(s.rung_steps_down, 0);
    assert_eq!(s.rung_count, 3, "the ladder is still attached and reported");
    assert_rung_bits_match_solo(&scene, &viewer_cfg(&scene, 0, 4), &test_ladder(), s);
}
