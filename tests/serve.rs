//! Multi-session serving acceptance gate: every stream of a multi-stream
//! [`Server`] run must be **bit-exact** with running that stream alone in
//! a solo [`Session`] — across all three `swrender` backends and the
//! simulated vrpipe path, for 1- and 4-worker pools — and all sessions
//! must share **one** `SceneIndex` allocation (`Arc::ptr_eq` /
//! `Arc::strong_count`).

use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::framebuffer::ColorBuffer;
use gsplat::math::Vec3;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::stream::FragmentKernel;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};
use swrender::inshader::fragment_workload;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{
    FrameInput, PipelineVariant, SequenceConfig, SequenceFrameRecord, Server, Session, SharedScene,
    StreamSpec,
};

const FRAMES: usize = 6;

fn train_scene() -> Scene {
    EVALUATED_SCENES[2].generate_scaled(0.03)
}

/// FNV-1a over a color buffer's pixel bits: a bit-exactness digest.
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

/// The common per-frame result type all four backends reduce to: a debug
/// rendering of the backend's stats plus an image digest (0 when the
/// backend produces no image).
type Digest = (String, u64);

/// One stream's definition: name, sequence, whether the session must
/// maintain the SoA stream mirror, and the backend closure.
type StreamDef = (
    &'static str,
    SequenceConfig,
    bool,
    Box<dyn FnMut(FrameInput<'_>) -> Digest + Send>,
);

/// The four stream definitions — each its own camera path, resolution and
/// backend. Returned as `(name, cfg, needs_stream, closure)` constructors
/// so the serve run and the solo reference build *identical* closures.
fn stream_defs(scene: &Scene) -> Vec<StreamDef> {
    let center = scene.center;
    let radius = scene.view_radius;
    let mut defs: Vec<StreamDef> = Vec::new();

    // Stream 0: cuda_like renderer, SoA kernel, prepared-stream entry.
    let cfg0 = SequenceConfig::new(CameraPath::orbit(center, radius, 1.2, 0.03), FRAMES, 96, 64)
        .with_index();
    let sw = CudaLikeRenderer::new(
        SwConfig {
            kernel: FragmentKernel::Soa,
            ..SwConfig::default()
        },
        true,
    );
    let mut sw_scratch = SwScratch::default();
    let (w0, h0) = (cfg0.width, cfg0.height);
    defs.push((
        "cuda_like",
        cfg0,
        true,
        Box::new(move |f: FrameInput<'_>| {
            let frame = sw.render_prepared(f.splats, f.stream, w0, h0, &mut sw_scratch);
            (format!("{:?}", frame.stats), image_digest(&frame.color))
        }),
    ));

    // Stream 1: multipass renderer at a different resolution.
    let cfg1 = SequenceConfig::new(
        CameraPath::orbit(center, radius * 0.9, 0.8, -0.04),
        FRAMES,
        80,
        60,
    )
    .with_index();
    let mp_cfg = MultiPassConfig::default();
    let (w1, h1) = (cfg1.width, cfg1.height);
    defs.push((
        "multipass",
        cfg1,
        false,
        Box::new(move |f: FrameInput<'_>| {
            let frame = render_multipass(f.splats, w1, h1, 4, &mp_cfg);
            (
                format!(
                    "blended={} discarded={}",
                    frame.blended_fragments, frame.stencil_discarded_fragments
                ),
                image_digest(&frame.color),
            )
        }),
    ));

    // Stream 2: in-shader workload model on a shaky flythrough.
    let start = center + Vec3::new(0.0, scene.view_height, radius);
    let cfg2 = SequenceConfig::new(
        CameraPath::flythrough(start, center, radius * 0.0015, radius * 0.0008),
        FRAMES,
        64,
        48,
    )
    .with_index();
    let (w2, h2) = (cfg2.width, cfg2.height);
    defs.push((
        "inshader",
        cfg2,
        false,
        Box::new(move |f: FrameInput<'_>| {
            (format!("{:?}", fragment_workload(f.splats, w2, h2)), 0)
        }),
    ));

    // Stream 3: the simulated hardware pipeline on a stereo pair.
    let cfg3 = SequenceConfig::new(
        CameraPath::orbit(center, radius, 1.0, 0.05).stereo(0.065),
        FRAMES,
        96,
        72,
    )
    .with_index();
    let gpu = GpuConfig::default();
    let mut scratch = vrpipe::DrawScratch::default();
    let (w3, h3) = (cfg3.width, cfg3.height);
    defs.push((
        "vrpipe-stereo",
        cfg3,
        false,
        Box::new(move |f: FrameInput<'_>| {
            let out = vrpipe::try_draw_with_scratch(
                f.splats,
                w3,
                h3,
                &gpu,
                PipelineVariant::HetQm,
                &mut scratch,
            )
            .expect("valid config");
            (format!("{:?}", out.stats), image_digest(&out.color))
        }),
    ));

    defs
}

/// The acceptance gate proper: a 4-stream server (one stream per backend)
/// against four solo sessions, for the given pool size.
fn check_serve_matches_solo(threads: usize) {
    let scene = train_scene();

    // Solo references: each stream runs alone in its own Session.
    let mut solo: Vec<Vec<Digest>> = Vec::new();
    for (_, cfg, needs_stream, mut render) in stream_defs(&scene) {
        let mut session = if needs_stream {
            Session::default().with_stream()
        } else {
            Session::default()
        };
        solo.push(session.run(&scene, &cfg, &mut render));
    }

    // The served run: same closures, one shared scene, one pool.
    let mut server = Server::new(SharedScene::new(scene.clone()), threads);
    for (name, cfg, needs_stream, render) in stream_defs(&scene) {
        let mut spec = StreamSpec::new(name, cfg, render);
        if needs_stream {
            spec = spec.with_stream();
        }
        server.add_stream(spec);
    }

    // One SceneIndex allocation, shared by all four sessions: the shared
    // Arc plus one clone per session and nothing else.
    let shared_index = Arc::clone(server.shared().index());
    for id in 0..4 {
        let own = server.stream_index(id).expect("indexed stream");
        assert!(
            Arc::ptr_eq(&own, &shared_index),
            "stream {id} built a private index"
        );
    }
    assert_eq!(
        Arc::strong_count(&shared_index),
        // `shared_index` above + the SharedScene's own + 4 sessions.
        6,
        "unexpected SceneIndex sharing degree"
    );

    let report = server.run();
    assert_eq!(report.total_frames, 4 * FRAMES);
    assert_eq!(report.index_sharers, 4);
    assert_eq!(report.indexed_streams, 4);

    for (sid, stream) in report.streams.iter().enumerate() {
        assert_eq!(stream.frames.len(), FRAMES, "{}", stream.name);
        assert!(stream.shares_index, "{}", stream.name);
        for (i, (served, alone)) in stream.frames.iter().zip(&solo[sid]).enumerate() {
            assert_eq!(
                served, alone,
                "stream {} ({}) frame {i} diverged from its solo render",
                sid, stream.name
            );
        }
        // Streams really exercised the temporal machinery while serving.
        assert!(
            stream.resort.frames > 0,
            "{}: sorter never engaged",
            stream.name
        );
        assert_eq!(stream.cull.frames as usize, FRAMES, "{}", stream.name);
    }
}

#[test]
fn four_streams_match_solo_sessions_one_worker() {
    check_serve_matches_solo(1);
}

#[test]
fn four_streams_match_solo_sessions_four_workers() {
    check_serve_matches_solo(4);
}

/// The built-in vrpipe stream backend (persistent targets + DrawScratch
/// inside the spec) must equal `Session::run_vrpipe` frame for frame.
fn check_vrpipe_streams_match_run_vrpipe(threads: usize) {
    let scene = train_scene();
    let gpu = GpuConfig::default();
    let paths = [
        CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.04),
        CameraPath::orbit(scene.center, scene.view_radius * 0.8, 1.6, -0.03),
        CameraPath::flythrough(
            scene.center + Vec3::new(0.0, scene.view_height, scene.view_radius),
            scene.center,
            scene.view_radius * 0.002,
            scene.view_radius * 0.001,
        ),
        CameraPath::orbit(scene.center, scene.view_radius, 1.0, 0.05).stereo(0.065),
    ];

    let mut server = Server::new(SharedScene::new(scene.clone()), threads);
    let mut solo: Vec<Vec<SequenceFrameRecord>> = Vec::new();
    for (k, path) in paths.iter().enumerate() {
        let cfg = SequenceConfig::new(path.clone(), FRAMES, 88, 66).with_index();
        solo.push(
            Session::default()
                .run_vrpipe(&scene, &cfg, &gpu, PipelineVariant::HetQm)
                .expect("valid config"),
        );
        server.add_stream(StreamSpec::vrpipe(
            format!("viewer-{k}"),
            cfg,
            gpu.clone(),
            PipelineVariant::HetQm,
        ));
    }
    let report = server.run();
    assert_eq!(report.index_sharers, 4);
    for (sid, stream) in report.streams.iter().enumerate() {
        for (i, (served, alone)) in stream.frames.iter().zip(&solo[sid]).enumerate() {
            assert_eq!(served.stats, alone.stats, "stream {sid} frame {i}");
            assert_eq!(
                served.preprocess, alone.preprocess,
                "stream {sid} frame {i}"
            );
            assert_eq!(served.cull, alone.cull, "stream {sid} frame {i}");
        }
    }
}

#[test]
fn vrpipe_streams_match_run_vrpipe_one_worker() {
    check_vrpipe_streams_match_run_vrpipe(1);
}

#[test]
fn vrpipe_streams_match_run_vrpipe_four_workers() {
    check_vrpipe_streams_match_run_vrpipe(4);
}

/// Mixed indexed / non-indexed stream sets: only indexed sessions touch
/// the shared index, and nobody builds a private copy.
#[test]
fn non_indexed_streams_do_not_touch_the_shared_index() {
    let scene = train_scene();
    let mut server = Server::new(SharedScene::new(scene.clone()), 2);
    let indexed_cfg = SequenceConfig::new(
        CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.03),
        3,
        64,
        48,
    )
    .with_index();
    let plain_cfg = SequenceConfig::new(
        CameraPath::orbit(scene.center, scene.view_radius, 0.9, -0.03),
        3,
        64,
        48,
    );
    server.add_stream(StreamSpec::new("indexed", indexed_cfg, |f| f.splats.len()));
    server.add_stream(StreamSpec::new("plain", plain_cfg, |f| f.splats.len()));
    let report = server.run();
    assert_eq!(report.indexed_streams, 1);
    assert_eq!(report.index_sharers, 1);
    assert!(report.streams[0].shares_index);
    assert!(!report.streams[1].shares_index);
    assert!(server.stream_index(1).is_none());
    // Shared Arc + the one indexed session.
    assert_eq!(Arc::strong_count(server.shared().index()), 2);
}

/// An axis-aligned −z flythrough from a per-stream (dx, dy) offset: the
/// camera basis is bit-identical across frames and across offsets, so
/// every such stream provably satisfies the pure-translation bound
/// against every other — the batchable fleet.
fn translated_path(scene: &Scene, dx: f32, dy: f32) -> CameraPath {
    let start = scene.center + Vec3::new(dx, dy, scene.view_radius + 6.0);
    CameraPath::flythrough(start, start + Vec3::new(0.0, 0.0, -8.0), 0.25, 0.01)
}

/// FNV-1a frame digest for closure streams: preprocess stats as the
/// string half, raw splat debug bits as the numeric half.
fn frame_digest(f: &FrameInput<'_>) -> Digest {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{}|{:?}", f.index, f.splats).bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (format!("{:?}", f.preprocess), h)
}

/// Batched serving acceptance gate: a mixed fleet — three
/// translation-bound streams (batchable), one orbit stream (unprovable
/// delta, must fall back to the exact solo path), and one stereo pair —
/// under a batching server is bit-exact, stream for stream and frame for
/// frame, with each stream's own solo [`Session`].
fn check_batched_serve_matches_solo(threads: usize) {
    let scene = train_scene();
    let mut cfgs: Vec<(String, SequenceConfig)> = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.25)]
        .iter()
        .enumerate()
        .map(|(k, &(dx, dy))| {
            let path = translated_path(&scene, dx, dy);
            (
                format!("fleet-{k}"),
                SequenceConfig::new(path, FRAMES, 64, 48).with_index(),
            )
        })
        .collect();
    cfgs.push((
        "orbit".to_string(),
        SequenceConfig::new(
            CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.03),
            FRAMES,
            64,
            48,
        )
        .with_index(),
    ));
    cfgs.push((
        "hmd".to_string(),
        SequenceConfig::new(
            translated_path(&scene, 0.25, 0.5).stereo(0.065),
            FRAMES,
            64,
            48,
        )
        .with_index(),
    ));

    let solo: Vec<Vec<Digest>> = cfgs
        .iter()
        .map(|(_, cfg)| Session::default().run(&scene, cfg, |f| frame_digest(&f)))
        .collect();

    let mut server = Server::new(SharedScene::new(scene.clone()), threads).with_batching();
    for (name, cfg) in &cfgs {
        server.add_stream(StreamSpec::new(name.clone(), cfg.clone(), |f| {
            frame_digest(&f)
        }));
    }
    let report = server.run();
    assert_eq!(report.total_frames, cfgs.len() * FRAMES);

    for (sid, stream) in report.streams.iter().enumerate() {
        assert_eq!(stream.frames.len(), FRAMES, "{}", stream.name);
        for (i, (served, alone)) in stream.frames.iter().zip(&solo[sid]).enumerate() {
            assert_eq!(
                served, alone,
                "stream {} ({}) frame {i} diverged from its solo render under batching",
                sid, stream.name
            );
        }
    }

    // The fleet batched, the orbit stream fell back to the exact path,
    // and every dispatched frame is accounted for in exactly one round.
    let b = &report.batch;
    assert!(b.batched_frames > 0, "the fleet must batch: {b:?}");
    assert_eq!(
        report.streams[3].frames_batched, 0,
        "the orbit stream's deltas are unprovable"
    );
    assert_eq!(
        report.streams[3].cull.frames as usize, FRAMES,
        "the fallback path still runs the exact per-stream cull"
    );
    assert_eq!(b.dispatched_frames(), cfgs.len() * FRAMES);
    assert_eq!(
        report
            .streams
            .iter()
            .map(|s| s.frames_batched)
            .sum::<usize>(),
        b.batched_frames,
        "per-stream batched-frame counters must sum to the report total"
    );
}

#[test]
fn batched_streams_match_solo_sessions_one_worker() {
    check_batched_serve_matches_solo(1);
}

#[test]
fn batched_streams_match_solo_sessions_four_workers() {
    check_batched_serve_matches_solo(4);
}

/// A stereo **orbit** rotates its leader camera every eye pair, so no two
/// rounds share a view rotation. A batching server must still pair both
/// eyes on every round, stay bit-exact with a solo [`Session`], and run
/// every round on the stream's own cull state (no per-rotation state
/// accumulates anywhere else).
///
/// Each eye is the head camera translated, so every pair proves the
/// bit-exact translation bound. Eyes rebuilt through `look_at` from f32
/// differences would miss it on one pair of this orbit.
fn check_stereo_orbit_pairs_every_round(threads: usize) {
    const PAIRS: usize = 8;
    let scene = train_scene();
    let path = CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.3).stereo(0.065);
    let cfg = SequenceConfig::new(path, 2 * PAIRS, 64, 48).with_index();
    let solo = Session::default().run(&scene, &cfg, |f| frame_digest(&f));

    let mut server = Server::new(SharedScene::new(scene), threads).with_batching();
    server.add_stream(StreamSpec::new("hmd", cfg, |f| frame_digest(&f)));
    let report = server.run();
    let b = &report.batch;
    assert_eq!(b.rounds, PAIRS, "one round per eye pair: {b:?}");
    assert_eq!(
        b.batched_rounds, b.rounds,
        "both eyes pair on 100% of rounds"
    );
    assert_eq!(b.occupancy, vec![0, PAIRS]);
    let hmd = &report.streams[0];
    assert_eq!(hmd.frames_batched, 2 * PAIRS);
    for (i, (served, alone)) in hmd.frames.iter().zip(&solo).enumerate() {
        assert_eq!(served, alone, "frame {i} diverged from its solo render");
    }
    assert_eq!(hmd.frames.len(), solo.len());
    // Each round's cull work accrued to the stream's own session: every
    // frame counted, cells classified once per pair.
    assert_eq!(hmd.cull.frames as usize, 2 * PAIRS);
    let cells = server.shared().index().cell_count() as u64;
    let classified = hmd.cull.cells_skipped + hmd.cull.cells_refreshed + hmd.cull.cells_reprojected;
    assert_eq!(classified, cells * PAIRS as u64);
}

#[test]
fn stereo_orbit_pairs_every_round_one_worker() {
    check_stereo_orbit_pairs_every_round(1);
}

#[test]
fn stereo_orbit_pairs_every_round_four_workers() {
    check_stereo_orbit_pairs_every_round(4);
}
