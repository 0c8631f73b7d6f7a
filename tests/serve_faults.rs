//! Chaos acceptance gate for fault-tolerant serving: deterministic fault
//! injection ([`FaultPlan`] / [`FaultInjector`]) at the backend seam must
//! never leak across streams — a fault on stream A changes **nothing**
//! about stream B's bits, frame for frame, against a solo [`Session`]
//! reference — for 1- and 4-worker pools. Also covered: bounded retry
//! recovery of transients, watchdog eviction of stalled streams (which
//! frees admission capacity), panic containment and heal-and-rerun,
//! mid-flight attach/detach through a [`ServerHandle`], graceful frame
//! dropping, and seed-replayable chaos.

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::framebuffer::ColorBuffer;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use vrpipe::{
    AdmissionPolicy, EvictReason, FaultInjector, FaultKind, FaultPlan, FrameInput, PipelineVariant,
    SequenceConfig, SequenceFrameRecord, Server, Session, SharedScene, StreamFault, StreamPhase,
    StreamReport, StreamSpec,
};

const FRAMES: usize = 5;

fn lego_scene() -> Scene {
    EVALUATED_SCENES[4].generate_scaled(0.02)
}

/// The k-th viewer's sequence: every stream its own orbit, same scene.
fn viewer_cfg(scene: &Scene, k: usize) -> SequenceConfig {
    let path = CameraPath::orbit(
        scene.center,
        scene.view_radius * (0.9 + 0.05 * k as f32),
        0.8 + 0.3 * k as f32,
        0.03 * (k as f32 + 1.0),
    );
    SequenceConfig::new(path, FRAMES, 48, 36).with_index()
}

/// Per-frame digest pinning the whole frame (the pipeline stats feed on
/// every pixel, the preprocess stats on every culling decision).
fn digest(f: &SequenceFrameRecord) -> String {
    format!("{:?}|{:?}", f.stats, f.preprocess)
}

/// Stream `k` rendered alone in a solo session: the reference bits.
fn solo_digests(scene: &Scene, k: usize) -> Vec<String> {
    Session::default()
        .run_vrpipe(
            scene,
            &viewer_cfg(scene, k),
            &GpuConfig::default(),
            PipelineVariant::HetQm,
        )
        .expect("valid config")
        .iter()
        .map(digest)
        .collect()
}

fn served_digests(stream: &StreamReport<SequenceFrameRecord>) -> Vec<String> {
    stream.frames.iter().map(digest).collect()
}

fn vr_spec(scene: &Scene, k: usize) -> StreamSpec<SequenceFrameRecord> {
    StreamSpec::vrpipe(
        format!("viewer-{k}"),
        viewer_cfg(scene, k),
        GpuConfig::default(),
        PipelineVariant::HetQm,
    )
}

/// Every frame a stream *produced* must equal the solo reference at the
/// frame's index — whether the stream then completed, failed, or was
/// evicted.
fn assert_produced_bits_match_solo(
    scene: &Scene,
    stream: &StreamReport<SequenceFrameRecord>,
    k: usize,
) {
    let solo = solo_digests(scene, k);
    let served = served_digests(stream);
    assert_eq!(served.len(), stream.produced.len());
    for (d, &frame) in served.iter().zip(&stream.produced) {
        assert_eq!(
            d, &solo[frame],
            "stream {k} ({}) frame {frame} diverged from its solo render",
            stream.name
        );
    }
}

/// The core isolation gate: a persistent fault on one stream changes
/// nothing about the other streams' bits, for the given pool size.
fn check_fault_isolation(threads: usize) {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), threads);
    for k in 0..3 {
        let mut spec = vr_spec(&scene, k);
        if k == 1 {
            spec = spec.with_faults(FaultInjector::at(1, FaultKind::Error));
        }
        server.add_stream(spec);
    }
    let report = server.run();

    // The faulted stream fails, exhausting its retry budget, and the
    // report names the injected cause.
    let faulted = &report.streams[1];
    match &faulted.phase {
        StreamPhase::Failed(StreamFault::Render { error, retries }) => {
            assert_eq!(*retries, 3, "default retry budget must be exhausted");
            assert!(
                error.to_string().contains("injected persistent error"),
                "report must name the exact cause: {error}"
            );
        }
        p => panic!("faulted stream should fail with a render fault, got {p:?}"),
    }
    assert_eq!(faulted.produced, vec![0], "frames before the fault survive");

    // Every stream — healthy or faulted — is bit-exact on what it produced.
    for (k, stream) in report.streams.iter().enumerate() {
        assert_produced_bits_match_solo(&scene, stream, k);
        if k != 1 {
            assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
            assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
            assert_eq!(stream.frames_dropped, 0, "stream {k}");
        }
    }
}

#[test]
fn fault_on_one_stream_never_changes_anothers_bits_one_worker() {
    check_fault_isolation(1);
}

#[test]
fn fault_on_one_stream_never_changes_anothers_bits_four_workers() {
    check_fault_isolation(4);
}

#[test]
fn transient_faults_recover_bit_exact() {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 2);
    server
        .add_stream(vr_spec(&scene, 0).with_faults(FaultInjector::at(1, FaultKind::Transient(2))));
    server.add_stream(vr_spec(&scene, 1));
    let report = server.run();
    for (k, stream) in report.streams.iter().enumerate() {
        assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
        assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
        assert_produced_bits_match_solo(&scene, stream, k);
    }
    assert_eq!(
        report.streams[0].retries, 2,
        "Transient(2) takes exactly two retries"
    );
    assert_eq!(report.streams[1].retries, 0);
}

/// A stream stalling far past its stall budget is evicted — the others
/// complete bit-exact, on serial pools (late-completion eviction) and
/// threaded pools (mid-stall watchdog eviction) alike.
fn check_stall_eviction(threads: usize) {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), threads).with_watchdog(2.0);
    // Budget 2 × 200 ms: far above a normal frame even on a loaded CI
    // machine, far below the injected stall.
    server.add_stream(
        vr_spec(&scene, 0)
            .with_deadline_ms(200.0)
            .with_faults(FaultInjector::at(1, FaultKind::Stall(1_500))),
    );
    // A healthy neighbour with a generous deadline: the stall must not
    // cost it a single miss.
    server.add_stream(vr_spec(&scene, 1).with_deadline_ms(10_000.0));
    server.add_stream(vr_spec(&scene, 2));
    let report = server.run();

    match &report.streams[0].phase {
        StreamPhase::Evicted(EvictReason::Stalled {
            frame,
            waited_ms,
            budget_ms,
        }) => {
            assert_eq!(*frame, 1, "the stalled frame is named");
            assert!(waited_ms > budget_ms, "{waited_ms} vs {budget_ms}");
        }
        p => panic!("stalled stream should be evicted, got {p:?}"),
    }
    for (k, stream) in report.streams.iter().enumerate() {
        assert_produced_bits_match_solo(&scene, stream, k);
        if k != 0 {
            assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
            assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
            assert_eq!(stream.deadline_misses, 0, "stream {k}");
        }
    }
}

#[test]
fn stalled_stream_is_evicted_others_unharmed_one_worker() {
    check_stall_eviction(1);
}

#[test]
fn stalled_stream_is_evicted_others_unharmed_two_workers() {
    check_stall_eviction(2);
}

/// A panicking backend is contained as a per-stream fault; healing the
/// stream ([`Server::set_faults`]) and rerunning replays every stream
/// bit-exact from frame 0 (the rewind resets sorter warm start and cull
/// epochs).
#[test]
fn panic_is_contained_and_the_stream_healable() {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 2);
    let _calm = server.add_stream(vr_spec(&scene, 0));
    let boom =
        server.add_stream(vr_spec(&scene, 1).with_faults(FaultInjector::at(0, FaultKind::Panic)));

    let report = server.run();
    match &report.streams[1].phase {
        StreamPhase::Failed(StreamFault::Panicked { message, frame }) => {
            assert_eq!(*frame, 0);
            assert!(
                message.contains("injected panic"),
                "panic payload must survive to the report: {message}"
            );
        }
        p => panic!("panicking stream should fail, got {p:?}"),
    }
    assert!(report.streams[1].frames.is_empty());
    assert_eq!(report.streams[0].phase, StreamPhase::Completed);
    assert_produced_bits_match_solo(&scene, &report.streams[0], 0);

    // Heal and rerun: both streams complete, bit-exact from frame 0.
    assert!(server.set_faults(boom, FaultInjector::none()));
    let report = server.run();
    for (k, stream) in report.streams.iter().enumerate() {
        assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
        assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
        assert_produced_bits_match_solo(&scene, stream, k);
    }
}

/// Same seed, same chaos: two servers driven by one seeded [`FaultPlan`]
/// end in identical phases with identical bits. A third run gives the
/// stalled stream a deadline, so the watchdog joins the chaos.
#[test]
fn seeded_chaos_is_replayable() {
    let scene = lego_scene();
    let plan = FaultPlan::seeded(0xD1CE, 4, FRAMES);
    assert!(
        !plan.faults().is_empty(),
        "seed 0xD1CE must inject something for this test to bite"
    );
    // `stall_deadline_ms` gives every stream the plan stalls a deadline,
    // so the watchdog joins the chaos.
    let run = |stall_deadline_ms: Option<f64>| {
        let mut server = Server::new(SharedScene::new(scene.clone()), 2);
        for k in 0..4 {
            let mut spec = vr_spec(&scene, k).with_faults(plan.injector(k));
            let stalls = plan
                .faults_for(k)
                .any(|f| matches!(f.kind, FaultKind::Stall(_)));
            if let (true, Some(period)) = (stalls, stall_deadline_ms) {
                spec = spec.with_deadline_ms(period);
            }
            server.add_stream(spec);
        }
        server.run()
    };
    let a = run(None);
    let b = run(None);
    for k in 0..4 {
        assert_eq!(a.streams[k].phase, b.streams[k].phase, "stream {k}");
        assert_eq!(a.streams[k].produced, b.streams[k].produced, "stream {k}");
        assert_eq!(a.streams[k].retries, b.streams[k].retries, "stream {k}");
        assert_eq!(
            served_digests(&a.streams[k]),
            served_digests(&b.streams[k]),
            "stream {k} bits must replay"
        );
        // And whatever was produced is still the solo reference, both runs.
        assert_produced_bits_match_solo(&scene, &a.streams[k], k);
        // Unfaulted streams must be untouched by everyone else's chaos.
        if plan.faults_for(k).next().is_none() {
            assert_eq!(a.streams[k].phase, StreamPhase::Completed, "stream {k}");
            assert_eq!(a.streams[k].frames.len(), FRAMES, "stream {k}");
        }
    }

    // With a 5 ms deadline on the stalled stream its outcome depends on
    // host speed (watchdog eviction, misses), so it is not replayed; its
    // produced bits and the unfaulted streams are still pinned.
    assert!(
        plan.faults()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Stall(_))),
        "seed 0xD1CE must stall a stream for the watchdog input to bite"
    );
    let c = run(Some(5.0));
    for (k, stream) in c.streams.iter().enumerate() {
        assert_produced_bits_match_solo(&scene, stream, k);
        if plan.faults_for(k).next().is_none() {
            assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
            assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
        }
    }
}

/// Evicting a stalled stream frees its admission slot: with capacity 1
/// (queueing admission), the queued stream is promoted and completes.
#[test]
fn eviction_frees_admission_capacity() {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 1)
        .with_admission(1, AdmissionPolicy::Queue)
        .with_watchdog(2.0);
    server.add_stream(
        vr_spec(&scene, 0)
            .with_deadline_ms(4.0)
            .with_faults(FaultInjector::at(0, FaultKind::Stall(60))),
    );
    server.add_stream(vr_spec(&scene, 1));
    let report = server.run();

    assert!(
        matches!(
            report.streams[0].phase,
            StreamPhase::Evicted(EvictReason::Stalled { .. })
        ),
        "got {:?}",
        report.streams[0].phase
    );
    assert_eq!(
        report.streams[1].phase,
        StreamPhase::Completed,
        "the queued stream must inherit the freed slot"
    );
    assert_eq!(report.streams[1].frames.len(), FRAMES);
    assert_produced_bits_match_solo(&scene, &report.streams[1], 1);
}

/// The k-th member of a translation-bound fleet: an axis-aligned −z
/// flythrough whose camera basis is bit-identical across offsets, so the
/// batching server provably groups every member into shared rounds.
fn batched_viewer_cfg(scene: &Scene, k: usize) -> SequenceConfig {
    let start =
        scene.center + gsplat::math::Vec3::new(0.5 * k as f32, 0.0, scene.view_radius + 6.0);
    SequenceConfig::new(
        CameraPath::flythrough(
            start,
            start + gsplat::math::Vec3::new(0.0, 0.0, -8.0),
            0.25,
            0.01,
        ),
        FRAMES,
        48,
        36,
    )
    .with_index()
}

fn batched_vr_spec(scene: &Scene, k: usize) -> StreamSpec<SequenceFrameRecord> {
    StreamSpec::vrpipe(
        format!("fleet-{k}"),
        batched_viewer_cfg(scene, k),
        GpuConfig::default(),
        PipelineVariant::HetQm,
    )
}

/// Parity of a fleet stream's produced frames against its solo session.
fn assert_batched_bits_match_solo(
    scene: &Scene,
    stream: &StreamReport<SequenceFrameRecord>,
    k: usize,
) {
    let solo: Vec<String> = Session::default()
        .run_vrpipe(
            scene,
            &batched_viewer_cfg(scene, k),
            &GpuConfig::default(),
            PipelineVariant::HetQm,
        )
        .expect("valid config")
        .iter()
        .map(digest)
        .collect();
    let served = served_digests(stream);
    assert_eq!(served.len(), stream.produced.len());
    for (d, &frame) in served.iter().zip(&stream.produced) {
        assert_eq!(
            d, &solo[frame],
            "fleet stream {k} frame {frame} diverged from its solo render"
        );
    }
}

/// Chaos under batching: a persistent fault on one member of a
/// translation-bound batch never perturbs its batch-mates' bits — the
/// survivors keep batching and stay frame-for-frame identical to their
/// solo sessions, on serial and threaded pools alike.
fn check_batched_fault_isolation(threads: usize) {
    let scene = lego_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), threads).with_batching();
    for k in 0..3 {
        let mut spec = batched_vr_spec(&scene, k);
        if k == 1 {
            spec = spec.with_faults(FaultInjector::at(1, FaultKind::Error));
        }
        server.add_stream(spec);
    }
    let report = server.run();

    // The fleet really batched — frame 0 rode a shared round with the
    // faulty member aboard — and the fault was contained to its stream.
    assert!(
        report.batch.batched_frames > 0,
        "the fleet must batch: {:?}",
        report.batch
    );
    let faulted = &report.streams[1];
    match &faulted.phase {
        StreamPhase::Failed(StreamFault::Render { error, retries }) => {
            assert_eq!(*retries, 3, "default retry budget must be exhausted");
            assert!(
                error.to_string().contains("injected persistent error"),
                "report must name the exact cause: {error}"
            );
        }
        p => panic!("faulted member should fail with a render fault, got {p:?}"),
    }
    assert_eq!(faulted.produced, vec![0], "frames before the fault survive");

    // Every member — healthy or faulted — is bit-exact on what it
    // produced, and the survivors complete their full budgets.
    for (k, stream) in report.streams.iter().enumerate() {
        assert_batched_bits_match_solo(&scene, stream, k);
        if k != 1 {
            assert_eq!(stream.phase, StreamPhase::Completed, "stream {k}");
            assert_eq!(stream.frames.len(), FRAMES, "stream {k}");
            assert_eq!(stream.frames_dropped, 0, "stream {k}");
        }
    }
}

#[test]
fn batched_fault_never_perturbs_batch_mates_one_worker() {
    check_batched_fault_isolation(1);
}

#[test]
fn batched_fault_never_perturbs_batch_mates_four_workers() {
    check_batched_fault_isolation(4);
}

/// FNV-1a over a color buffer's pixel bits (bit-exactness digest for the
/// closure-backend streams below).
fn image_digest(color: &ColorBuffer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u32| {
        h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in color.pixels() {
        mix(p.r.to_bits());
        mix(p.g.to_bits());
        mix(p.b.to_bits());
        mix(p.a.to_bits());
    }
    h
}

/// A closure backend rendering through the simulated pipeline, digesting
/// stats + image bits.
fn digest_backend(w: u32, h: u32) -> impl FnMut(FrameInput<'_>) -> (String, u64) + Send + 'static {
    let gpu = GpuConfig::default();
    let mut scratch = vrpipe::DrawScratch::default();
    move |f: FrameInput<'_>| {
        let out = vrpipe::try_draw_with_scratch(
            f.splats,
            w,
            h,
            &gpu,
            PipelineVariant::HetQm,
            &mut scratch,
        )
        .expect("valid config");
        (format!("{:?}", out.stats), image_digest(&out.color))
    }
}

/// Streams can be attached and detached *from inside a running frame*:
/// commands ride the scheduler's own channel, so a backend holding a
/// [`ServerHandle`] can reshape the stream set mid-run.
#[test]
fn mid_flight_attach_and_detach_through_the_handle() {
    let scene = lego_scene();
    let mut server: Server<(String, u64)> = Server::new(SharedScene::new(scene.clone()), 1);

    let victim_cfg = viewer_cfg(&scene, 0);
    let late_cfg = viewer_cfg(&scene, 1);
    let victim = server.add_stream(StreamSpec::new(
        "victim",
        victim_cfg.clone(),
        digest_backend(48, 36),
    ));

    let handle = server.handle();
    let driver_cfg = SequenceConfig::new(
        CameraPath::orbit(scene.center, scene.view_radius, 1.1, 0.05),
        2,
        32,
        24,
    );
    let attach_cfg = late_cfg.clone();
    let mut fired = false;
    server.add_stream(StreamSpec::new(
        "driver",
        driver_cfg,
        move |f: FrameInput<'_>| {
            if !fired {
                fired = true;
                handle.detach(victim);
                handle.attach(StreamSpec::new(
                    "late",
                    attach_cfg.clone(),
                    digest_backend(48, 36),
                ));
            }
            (format!("driver:{}", f.splats.len()), 0)
        },
    ));

    let report = server.run();
    let by_name = |n: &str| {
        report
            .streams
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("stream {n} missing from report"))
    };

    // The victim was detached mid-run: reported as evicted, and whatever
    // it produced first matches its solo run.
    let v = by_name("victim");
    assert_eq!(v.phase, StreamPhase::Evicted(EvictReason::Detached));
    assert!(v.frames.len() < FRAMES, "victim must not finish its budget");
    let mut solo_victim = Session::default();
    let solo: Vec<(String, u64)> =
        solo_victim.run(&scene, &victim_cfg, &mut digest_backend(48, 36));
    for (got, &frame) in v.frames.iter().zip(&v.produced) {
        assert_eq!(got, &solo[frame], "victim frame {frame}");
    }

    // The late-attached stream was admitted mid-run and completes
    // bit-exact against its own solo session.
    let l = by_name("late");
    assert_eq!(l.phase, StreamPhase::Completed);
    let solo: Vec<(String, u64)> =
        Session::default().run(&scene, &late_cfg, &mut digest_backend(48, 36));
    assert_eq!(l.frames.len(), solo.len());
    for (i, (got, want)) in l.frames.iter().zip(&solo).enumerate() {
        assert_eq!(got, want, "late frame {i}");
    }

    assert_eq!(by_name("driver").phase, StreamPhase::Completed);
}

/// Graceful degradation: an overloaded stream sheds late frames — they
/// are *recorded* as dropped, never silently rendered differently, and
/// the frames that are produced still match the solo reference at their
/// exact indices.
#[test]
fn late_frames_are_dropped_not_silently_wrong() {
    let scene = lego_scene();
    // Huge watchdog multiplier: nobody gets evicted, lateness is shed
    // through the drop rule instead.
    let mut server = Server::new(SharedScene::new(scene.clone()), 2).with_watchdog(1000.0);
    server.add_stream(
        vr_spec(&scene, 0)
            .with_deadline_ms(4.0)
            .with_frame_dropping()
            .with_faults(FaultInjector::at(0, FaultKind::Stall(60))),
    );
    server.add_stream(vr_spec(&scene, 1));
    let report = server.run();

    let laggy = &report.streams[0];
    assert_eq!(
        laggy.phase,
        StreamPhase::Completed,
        "drops complete the budget"
    );
    assert!(laggy.frames_dropped >= 1, "the stall must shed something");
    assert_eq!(
        laggy.frames.len() + laggy.frames_dropped,
        FRAMES,
        "every frame is accounted for: produced or dropped"
    );
    assert!(
        laggy.deadline_misses >= 1,
        "the stalled frame itself was late"
    );
    assert_produced_bits_match_solo(&scene, laggy, 0);

    // The healthy stream is oblivious.
    assert_eq!(report.streams[1].phase, StreamPhase::Completed);
    assert_eq!(report.streams[1].frames.len(), FRAMES);
    assert_eq!(report.streams[1].frames_dropped, 0);
    assert_produced_bits_match_solo(&scene, &report.streams[1], 1);
}
