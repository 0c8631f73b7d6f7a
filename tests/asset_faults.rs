//! Chaos acceptance gate for the corruption-tolerant asset pipeline:
//! seeded corruptions of an encoded scene ([`Corruption`] /
//! [`seeded_corruptions`]) must always surface as a typed [`AssetError`]
//! or a documented quarantine — never a panic, never silently wrong
//! bits. Quarantined loads render **bit-exact** with a scene rebuilt
//! from the survivors on every software backend, and a failed
//! [`reload_scene`](vrpipe::ServerHandle::reload_scene) mid-run rolls
//! back completely: the serving streams stay frame-for-frame bit-exact
//! against their solo references, exactly as if the reload never
//! happened.

#[path = "support/readers.rs"]
mod readers;

use gpu_sim::config::GpuConfig;
use gsplat::asset::faults::{seeded_corruptions, Corruption};
use gsplat::asset::{
    decode_scene, encode_scene, load_scene, read_scene, save_scene, AssetError, GaussianDefect,
    LoadPolicy,
};
use gsplat::camera::CameraPath;
use gsplat::framebuffer::ColorBuffer;
use gsplat::math::Vec3;
use gsplat::preprocess::preprocess;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use readers::{FailingReader, ShortReader};
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{
    DrawError, FrameInput, PipelineVariant, SceneSource, SequenceConfig, SequenceFrameRecord,
    Server, Session, SharedScene, StreamPhase, StreamSpec,
};

const FRAMES: usize = 5;

fn lego_scene() -> Scene {
    EVALUATED_SCENES[4].generate_scaled(0.02)
}

fn train_scene() -> Scene {
    EVALUATED_SCENES[2].generate_scaled(0.02)
}

/// The k-th viewer's sequence (the serve chaos suite's orbit family).
fn viewer_cfg(scene: &Scene, k: usize) -> SequenceConfig {
    let path = CameraPath::orbit(
        scene.center,
        scene.view_radius * (0.9 + 0.05 * k as f32),
        0.8 + 0.3 * k as f32,
        0.03 * (k as f32 + 1.0),
    );
    SequenceConfig::new(path, FRAMES, 48, 36).with_index()
}

fn digest(f: &SequenceFrameRecord) -> String {
    format!("{:?}|{:?}", f.stats, f.preprocess)
}

/// Solo reference for a *given* camera config over a *given* scene — the
/// reload tests pin the config to the original scene's orbit while the
/// served content changes underneath it.
fn solo_digests_on(scene: &Scene, cfg: &SequenceConfig) -> Vec<String> {
    Session::default()
        .run_vrpipe(scene, cfg, &GpuConfig::default(), PipelineVariant::HetQm)
        .expect("valid config")
        .iter()
        .map(digest)
        .collect()
}

fn vr_spec(scene: &Scene, k: usize) -> StreamSpec<SequenceFrameRecord> {
    StreamSpec::vrpipe(
        format!("viewer-{k}"),
        viewer_cfg(scene, k),
        GpuConfig::default(),
        PipelineVariant::HetQm,
    )
}

/// FNV-1a over a color buffer's pixel bits.
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

/// Plants three semantically invalid residents in `scene`, returning the
/// poisoned indices with their expected defects (ascending order).
fn poison(scene: &mut Scene) -> Vec<(usize, GaussianDefect)> {
    let n = scene.gaussians.len();
    assert!(n > 16, "test scene too small to poison");
    let picks = [
        (3, GaussianDefect::NonFiniteMean),
        (n / 2, GaussianDefect::NegativeScale),
        (n - 2, GaussianDefect::OpacityOutOfRange),
    ];
    for &(i, defect) in &picks {
        let g = &mut scene.gaussians[i];
        match defect {
            GaussianDefect::NonFiniteMean => g.mean = Vec3::new(f32::NAN, 0.0, 0.0),
            GaussianDefect::NegativeScale => g.scale.y = -0.25,
            GaussianDefect::OpacityOutOfRange => g.opacity = 2.0,
            _ => unreachable!(),
        }
    }
    picks.to_vec()
}

/// `scene` minus the residents at `drop` (file order preserved).
fn without(scene: &Scene, drop: &[usize]) -> Scene {
    let mut survivors = scene.clone();
    let mut i = 0usize;
    survivors.gaussians.retain(|_| {
        let keep = !drop.contains(&i);
        i += 1;
        keep
    });
    survivors
}

// ---------------------------------------------------------------------------
// Chaos matrix: every seeded corruption is a typed error, never a panic.
// ---------------------------------------------------------------------------

#[test]
fn every_seeded_corruption_yields_a_typed_error() {
    let bytes = encode_scene(&train_scene());
    for seed in [0xA55E7u64, 0xD1CE, 0xBEEF, 42] {
        let plan = seeded_corruptions(seed, bytes.len(), 16);
        assert_eq!(plan.len(), 16);
        let mut cumulative = bytes.clone();
        for (i, c) in plan.iter().enumerate() {
            let damaged = c.apply(&bytes);
            cumulative = c.apply(&cumulative);
            for policy in [LoadPolicy::Strict, LoadPolicy::Quarantine] {
                let err = decode_scene(&damaged, policy)
                    .expect_err(&format!("seed {seed:#x} corruption {i} ({c:?}) must fail"));
                // Kind-specific taxonomy: truncation is a structural
                // error, a lying table CRC a checksum error; a bit flip
                // lands wherever the flipped byte lives, but is *always*
                // detected (every byte is covered by header CRC or a
                // section CRC — proptest-gated in gsplat).
                match c {
                    Corruption::TruncateAt(_) => {
                        assert!(matches!(err, AssetError::Truncated { .. }), "{c:?} → {err}")
                    }
                    Corruption::ClobberSectionCrc { .. } => assert!(
                        matches!(err, AssetError::ChecksumMismatch { .. }),
                        "{c:?} → {err}"
                    ),
                    Corruption::BitFlip { .. } => {}
                }
                // The taxonomy composes as a std error.
                let dynamic: &dyn std::error::Error = &err;
                assert!(!dynamic.to_string().is_empty());
            }
        }
        // Stacked damage (all 16 applied in sequence) is also typed.
        assert!(decode_scene(&cumulative, LoadPolicy::Quarantine).is_err());
    }
}

// ---------------------------------------------------------------------------
// Quarantine: drops exactly the invalid residents, renders bit-exact.
// ---------------------------------------------------------------------------

#[test]
fn quarantine_names_every_dropped_resident_and_renders_bit_exact() {
    let mut poisoned = lego_scene();
    let picks = poison(&mut poisoned);
    let bytes = encode_scene(&poisoned);

    // Strict: the load fails on the *first* invalid resident, by index.
    match decode_scene(&bytes, LoadPolicy::Strict) {
        Err(AssetError::InvalidGaussian { index, reason }) => {
            assert_eq!((index, reason), picks[0]);
        }
        other => panic!("strict load of a poisoned file must fail, got {other:?}"),
    }

    // Quarantine: only the poisoned residents are dropped, each named.
    let loaded = decode_scene(&bytes, LoadPolicy::Quarantine).expect("quarantine degrades");
    let report = &loaded.report;
    assert_eq!(report.total, poisoned.gaussians.len());
    assert_eq!(report.kept, report.total - picks.len());
    assert!(!report.is_clean());
    let named: Vec<(usize, GaussianDefect)> = report
        .quarantined
        .iter()
        .map(|q| (q.index, q.defect))
        .collect();
    assert_eq!(
        named, picks,
        "every quarantined resident is named, in file order"
    );

    // The surviving cloud is bit-identical to a scene rebuilt from the
    // survivors, and the report's fingerprint is the serving-side one.
    let drop: Vec<usize> = picks.iter().map(|&(i, _)| i).collect();
    let survivors = without(&poisoned, &drop);
    assert_eq!(loaded.scene.gaussians, survivors.gaussians);
    assert_eq!(loaded.scene.spec, survivors.spec);
    assert_eq!(
        report.kept_fingerprint,
        SharedScene::new(survivors.clone()).fingerprint()
    );

    // Render parity on every software backend: quarantined load vs the
    // rebuilt scene, bit for bit.
    let cam = survivors.default_camera();
    let a = preprocess(&loaded.scene, &cam);
    let b = preprocess(&survivors, &cam);
    let (w, h) = (cam.width(), cam.height());
    for et in [false, true] {
        let ra = CudaLikeRenderer::new(SwConfig::default(), et).render(&a.splats, w, h);
        let rb = CudaLikeRenderer::new(SwConfig::default(), et).render(&b.splats, w, h);
        assert_eq!(
            image_digest(&ra.color),
            image_digest(&rb.color),
            "cuda-like (et={et}) diverged"
        );
    }
    let cfg = MultiPassConfig::default();
    let ma = render_multipass(&a.splats, w, h, 4, &cfg);
    let mb = render_multipass(&b.splats, w, h, 4, &cfg);
    assert_eq!(
        image_digest(&ma.color),
        image_digest(&mb.color),
        "multipass diverged"
    );
}

// ---------------------------------------------------------------------------
// I/O faults: reader failures surface as AssetError::Io, composing with
// the pipeline's DrawError.
// ---------------------------------------------------------------------------

#[test]
fn reader_faults_surface_as_typed_io_errors() {
    let scene = train_scene();
    let bytes = encode_scene(&scene);

    // Adversarially small reads are legal and lossless.
    let short = read_scene(ShortReader::new(&bytes[..], 3), LoadPolicy::Strict)
        .expect("short reads are absorbed");
    assert_eq!(short.scene.gaussians, scene.gaussians);

    // An injected I/O failure is an AssetError::Io at any budget — even
    // when smuggled underneath short reads.
    for budget in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        let err = read_scene(
            ShortReader::new(FailingReader::new(&bytes[..], budget), 5),
            LoadPolicy::Quarantine,
        )
        .expect_err("injected I/O fault must fail the load");
        assert!(
            matches!(err, AssetError::Io { .. }),
            "budget {budget}: {err}"
        );
        assert!(
            std::error::Error::source(&err).is_some(),
            "Io must carry its source"
        );
        // The serving pipeline can absorb the failure as a permanent
        // backend fault.
        let draw: DrawError = err.into();
        assert!(draw.to_string().contains("scene asset"), "{draw}");
    }
}

#[test]
fn disk_roundtrip_survives_and_disk_corruption_is_detected() {
    let scene = lego_scene();
    let path =
        std::env::temp_dir().join(format!("vrpipe_asset_faults_{}.gspa", std::process::id()));
    save_scene(&path, &scene).expect("save");
    let back = load_scene(&path, LoadPolicy::Strict).expect("clean file loads strict");
    assert!(back.report.is_clean());
    assert_eq!(back.scene.gaussians, scene.gaussians);

    // Flip one bit on disk: the reload must fail, typed.
    let bytes = std::fs::read(&path).expect("reread");
    let damaged = Corruption::BitFlip {
        offset: bytes.len() / 3,
        bit: 5,
    }
    .apply(&bytes);
    std::fs::write(&path, &damaged).expect("rewrite");
    assert!(load_scene(&path, LoadPolicy::Strict).is_err());

    // An idle server refuses the damaged file and keeps serving the old
    // scene: the epoch is untouched.
    let mut server: Server<SequenceFrameRecord> = Server::new(SharedScene::new(scene), 1);
    let err = server
        .reload_scene(SceneSource::Path(path.clone(), LoadPolicy::Strict))
        .expect_err("damaged file must be refused");
    assert!(
        !matches!(err, AssetError::Io { .. }),
        "typed decode error: {err}"
    );
    assert_eq!(
        server.scene_epoch(),
        0,
        "failed reload must not bump the epoch"
    );

    std::fs::remove_file(&path).ok();
    let missing = load_scene(&path, LoadPolicy::Strict).expect_err("missing file");
    assert!(matches!(missing, AssetError::Io { .. }));
}

// ---------------------------------------------------------------------------
// Hot reload under fire: failed swaps roll back completely, successful
// swaps are bit-exact from the next dispatched frame.
// ---------------------------------------------------------------------------

/// A closure backend rendering through the simulated pipeline, digesting
/// stats + image bits (the serve chaos suite's idiom).
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

/// Mid-flight corrupt reload through the handle: the swap is refused, the
/// streams never see it. A follow-up reload of the *same* bytes succeeds
/// as a no-op (fingerprint match) — still without disturbing a single
/// frame.
#[test]
fn mid_flight_failed_reload_rolls_back_and_streams_stay_bit_exact() {
    let scene = lego_scene();
    let clean = encode_scene(&scene);
    let corrupt = Corruption::ClobberSectionCrc { section: 3 }.apply(&clean);
    let expected_fp = SharedScene::new(scene.clone()).fingerprint();

    let mut server: Server<(String, u64)> = Server::new(SharedScene::new(scene.clone()), 2);
    let viewer_cfgs = [viewer_cfg(&scene, 0), viewer_cfg(&scene, 1)];
    for (k, cfg) in viewer_cfgs.iter().enumerate() {
        server.add_stream(StreamSpec::new(
            format!("viewer-{k}"),
            cfg.clone(),
            digest_backend(48, 36),
        ));
    }

    let handle = server.handle();
    let driver_cfg = SequenceConfig::new(
        CameraPath::orbit(scene.center, scene.view_radius, 1.1, 0.05),
        3,
        32,
        24,
    );
    let mut frame = 0usize;
    let (corrupt_clone, clean_clone) = (corrupt.clone(), clean.clone());
    server.add_stream(StreamSpec::new(
        "driver",
        driver_cfg,
        move |f: FrameInput<'_>| {
            match frame {
                0 => handle.reload_scene(SceneSource::Bytes(
                    corrupt_clone.clone(),
                    LoadPolicy::Strict,
                )),
                1 => {
                    handle.reload_scene(SceneSource::Bytes(clean_clone.clone(), LoadPolicy::Strict))
                }
                _ => {}
            }
            frame += 1;
            (format!("driver:{}", f.splats.len()), 0)
        },
    ));

    let report = server.run();

    // Both reloads are accounted for: the corrupt one as a typed error
    // (all-or-nothing — nothing swapped), the clean one as an unchanged
    // no-op at epoch 1.
    assert_eq!(report.reloads.len(), 2, "both mid-flight reloads reported");
    match &report.reloads[0] {
        Err(AssetError::ChecksumMismatch { .. }) => {}
        other => panic!("corrupt reload must be refused with a checksum error, got {other:?}"),
    }
    match &report.reloads[1] {
        Ok(outcome) => {
            assert!(!outcome.changed, "same bytes → same fingerprint → no swap");
            assert_eq!(outcome.epoch, 1);
            assert_eq!(outcome.fingerprint, expected_fp);
            assert_eq!(outcome.quarantined, 0);
        }
        other => panic!("clean reload must succeed, got {other:?}"),
    }
    assert_eq!(report.scene_epoch, 1);

    // Neither viewer stream saw anything: frame for frame identical to a
    // solo session that never heard of reloads.
    for (k, cfg) in viewer_cfgs.iter().enumerate() {
        let s = report
            .streams
            .iter()
            .find(|s| s.name == format!("viewer-{k}"))
            .expect("viewer present");
        assert_eq!(s.phase, StreamPhase::Completed, "viewer-{k}");
        let solo: Vec<(String, u64)> =
            Session::default().run(&scene, cfg, &mut digest_backend(48, 36));
        assert_eq!(s.frames.len(), solo.len(), "viewer-{k}");
        for (i, (got, want)) in s.frames.iter().zip(&solo).enumerate() {
            assert_eq!(
                got, want,
                "viewer-{k} frame {i} diverged across the reloads"
            );
        }
    }
}

/// An unchanged reload must never cancel a *pending* rebind: a stream
/// that is still bound to an older scene (it never dispatched after a
/// changed swap) keeps its stale index until its own rebind — marking it
/// current would pair the new cloud with the old index.
#[test]
fn unchanged_reload_never_cancels_a_pending_rebind() {
    let scene_a = lego_scene();
    let scene_b = train_scene();
    let bytes_b = encode_scene(&scene_b);

    let mut server: Server<SequenceFrameRecord> = Server::new(SharedScene::new(scene_a.clone()), 1);
    server.add_stream(vr_spec(&scene_a, 0));
    server.run(); // bind the stream's index to scene A

    // Changed swap (stream not dispatched: its rebind stays pending),
    // then a reload of the *same* scene B bytes — a no-op that must not
    // mark the still-stale stream as current.
    let first = server
        .reload_scene(SceneSource::Bytes(bytes_b.clone(), LoadPolicy::Strict))
        .expect("clean reload");
    assert!(first.changed);
    let second = server
        .reload_scene(SceneSource::Bytes(bytes_b, LoadPolicy::Strict))
        .expect("clean reload");
    assert!(!second.changed);
    assert_eq!(second.epoch, 2);

    let report = server.run();
    let s = &report.streams[0];
    assert_eq!(
        s.phase,
        StreamPhase::Completed,
        "stale stream must rebind, not render scene B against scene A's index"
    );
    assert_eq!(
        s.frames.iter().map(digest).collect::<Vec<_>>(),
        solo_digests_on(&scene_b, &viewer_cfg(&scene_a, 0)),
    );
}

/// The full lifecycle on real vrpipe streams: serve scene A bit-exact,
/// refuse garbage (epoch fenced), then swap to a *quarantined* load of
/// scene B and serve the survivors bit-exact — streams rebind (temporal
/// state invalidated, index re-attached) at their next dispatch.
#[test]
fn failed_then_quarantined_reload_serves_each_scene_bit_exact() {
    let scene_a = lego_scene();
    let mut server: Server<SequenceFrameRecord> = Server::new(SharedScene::new(scene_a.clone()), 2);
    server.add_stream(vr_spec(&scene_a, 0));
    server.add_stream(vr_spec(&scene_a, 1));

    // Run 1: scene A, the baseline.
    let report = server.run();
    for (k, s) in report.streams.iter().enumerate() {
        assert_eq!(s.phase, StreamPhase::Completed, "stream {k}");
        assert_eq!(
            s.frames.iter().map(digest).collect::<Vec<_>>(),
            solo_digests_on(&scene_a, &viewer_cfg(&scene_a, k)),
            "run 1 stream {k}"
        );
    }

    // Garbage is refused before a single field mutates.
    let err = server
        .reload_scene(SceneSource::Bytes(
            b"not a scene".to_vec(),
            LoadPolicy::Strict,
        ))
        .expect_err("garbage must be refused");
    assert!(matches!(
        err,
        AssetError::BadMagic { .. } | AssetError::Truncated { .. }
    ));
    assert_eq!(server.scene_epoch(), 0);

    // Run 2: the rollback left scene A fully intact — same bits again.
    let report = server.run();
    for (k, s) in report.streams.iter().enumerate() {
        assert_eq!(
            s.frames.iter().map(digest).collect::<Vec<_>>(),
            solo_digests_on(&scene_a, &viewer_cfg(&scene_a, k)),
            "run 2 stream {k}"
        );
    }

    // Swap to a poisoned scene B under Quarantine: the survivors go live.
    let mut scene_b = train_scene();
    let picks = poison(&mut scene_b);
    let drop: Vec<usize> = picks.iter().map(|&(i, _)| i).collect();
    let survivors = without(&scene_b, &drop);
    let outcome = server
        .reload_scene(SceneSource::Bytes(
            encode_scene(&scene_b),
            LoadPolicy::Quarantine,
        ))
        .expect("quarantined reload succeeds");
    assert!(outcome.changed);
    assert_eq!(outcome.epoch, 1);
    assert_eq!(outcome.quarantined, picks.len());
    assert_eq!(
        outcome.fingerprint,
        SharedScene::new(survivors.clone()).fingerprint()
    );

    // Run 3: every frame matches a solo session over the survivor scene
    // (cameras still orbit scene A's center — the config is the stream's,
    // the content the server's).
    let report = server.run();
    assert_eq!(report.scene_epoch, 1);
    for (k, s) in report.streams.iter().enumerate() {
        assert_eq!(s.phase, StreamPhase::Completed, "stream {k}");
        assert_eq!(
            s.frames.iter().map(digest).collect::<Vec<_>>(),
            solo_digests_on(&survivors, &viewer_cfg(&scene_a, k)),
            "run 3 stream {k} must serve the quarantined survivors bit-exact"
        );
    }
}
