//! Frame-sequence coverage: a ≥16-frame shaky flythrough rendered as one
//! temporal session must be bit-exact with rendering every frame from
//! scratch in isolation, on every backend — the three software renderers,
//! the in-shader workload model and the simulated hardware pipeline — both
//! with the plain temporal warm start and with incremental spatially
//! indexed preprocessing (`SequenceConfig::with_index`).

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::math::Vec3;
use gsplat::preprocess::preprocess;
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::stream::FragmentKernel;
use gsplat::ThreadPolicy;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};
use swrender::inshader::fragment_workload;
use swrender::multipass::{render_multipass, MultiPassConfig};
use vrpipe::{draw, PipelineVariant, SequenceConfig, Session};

const FRAMES: usize = 16;
const TEST_SCALE: f32 = 0.04;

fn train_scene() -> Scene {
    EVALUATED_SCENES[2].generate_scaled(TEST_SCALE)
}

fn flythrough_cfg(scene: &Scene, indexed: bool) -> SequenceConfig {
    let start = scene.center + Vec3::new(0.0, scene.view_height, scene.view_radius);
    let cfg = SequenceConfig::new(
        CameraPath::flythrough(
            start,
            scene.center,
            scene.view_radius * 0.0015,
            scene.view_radius * 0.0008,
        ),
        FRAMES,
        96,
        64,
    );
    if indexed {
        cfg.with_index()
    } else {
        cfg
    }
}

/// The isolated-render reference for frame `i`: a fresh full preprocess.
fn isolated_splats(scene: &Scene, cfg: &SequenceConfig, i: usize) -> Vec<gsplat::Splat> {
    let cam = cfg
        .path
        .camera(i, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
    preprocess(scene, &cam).splats
}

fn check_vrpipe_sequence(indexed: bool) {
    let scene = train_scene();
    let cfg = flythrough_cfg(&scene, indexed);
    for kernel in FragmentKernel::ALL {
        let gpu = GpuConfig {
            kernel,
            ..GpuConfig::default()
        };
        let mut session = Session::default();
        let records = session
            .run_vrpipe(&scene, &cfg, &gpu, PipelineVariant::HetQm)
            .unwrap();
        assert_eq!(records.len(), FRAMES);
        for (i, rec) in records.iter().enumerate() {
            let splats = isolated_splats(&scene, &cfg, i);
            let fresh = draw(&splats, cfg.width, cfg.height, &gpu, PipelineVariant::HetQm);
            assert_eq!(
                rec.stats, fresh.stats,
                "{kernel:?} indexed={indexed}: frame {i}"
            );
        }
        assert!(
            session.resort_stats().repaired > 0,
            "{kernel:?}: coherent flythrough must exercise the repair path"
        );
        if indexed {
            let cs = session.cull_stats();
            assert_eq!(cs.frames as usize, FRAMES);
            assert!(
                cs.gaussians_refreshed > 0,
                "translation-coherent flythrough must hit the covariance cache: {cs:?}"
            );
        }
    }
}

#[test]
fn vrpipe_sequence_is_bit_exact_with_isolated_frames() {
    check_vrpipe_sequence(false);
}

#[test]
fn indexed_vrpipe_sequence_is_bit_exact_with_isolated_frames() {
    check_vrpipe_sequence(true);
}

fn check_cuda_like_sequence(indexed: bool) {
    let scene = train_scene();
    let cfg = flythrough_cfg(&scene, indexed);
    for kernel in FragmentKernel::ALL {
        let sw_cfg = SwConfig {
            kernel,
            ..SwConfig::default()
        };
        let sw = CudaLikeRenderer::new(sw_cfg, true);
        let mut session = Session::default().with_stream();
        let mut scratch = SwScratch::default();
        let frames = {
            let scratch = &mut scratch;
            let sw = &sw;
            session.run(&scene, &cfg, |f| {
                sw.render_prepared(f.splats, f.stream, cfg.width, cfg.height, scratch)
            })
        };
        for (i, frame) in frames.iter().enumerate() {
            let splats = isolated_splats(&scene, &cfg, i);
            let fresh = sw.render(&splats, cfg.width, cfg.height);
            assert_eq!(
                frame.stats, fresh.stats,
                "{kernel:?} indexed={indexed}: frame {i}"
            );
            assert_eq!(
                frame.color.max_abs_diff(&fresh.color),
                0.0,
                "{kernel:?} indexed={indexed}: frame {i} image diverged"
            );
        }
    }
}

#[test]
fn cuda_like_sequence_is_bit_exact_with_isolated_frames() {
    check_cuda_like_sequence(false);
}

#[test]
fn indexed_cuda_like_sequence_is_bit_exact_with_isolated_frames() {
    check_cuda_like_sequence(true);
}

fn check_multipass_sequence(indexed: bool) {
    let scene = train_scene();
    let cfg = flythrough_cfg(&scene, indexed);
    let mp_cfg = MultiPassConfig::default();
    let mut session = Session::default();
    let frames = session.run(&scene, &cfg, |f| {
        render_multipass(f.splats, cfg.width, cfg.height, 4, &mp_cfg)
    });
    for (i, frame) in frames.iter().enumerate() {
        let splats = isolated_splats(&scene, &cfg, i);
        let fresh = render_multipass(&splats, cfg.width, cfg.height, 4, &mp_cfg);
        assert_eq!(
            frame.blended_fragments, fresh.blended_fragments,
            "indexed={indexed}: frame {i}"
        );
        assert_eq!(
            frame.stencil_discarded_fragments,
            fresh.stencil_discarded_fragments
        );
        assert_eq!(
            frame.color.max_abs_diff(&fresh.color),
            0.0,
            "indexed={indexed}: frame {i} image diverged"
        );
    }
}

#[test]
fn multipass_sequence_is_bit_exact_with_isolated_frames() {
    check_multipass_sequence(false);
}

#[test]
fn indexed_multipass_sequence_is_bit_exact_with_isolated_frames() {
    check_multipass_sequence(true);
}

fn check_inshader_sequence(indexed: bool) {
    let scene = train_scene();
    let cfg = flythrough_cfg(&scene, indexed);
    let mut session = Session::default();
    let workloads = session.run(&scene, &cfg, |f| {
        fragment_workload(f.splats, cfg.width, cfg.height)
    });
    for (i, w) in workloads.iter().enumerate() {
        let splats = isolated_splats(&scene, &cfg, i);
        assert_eq!(
            *w,
            fragment_workload(&splats, cfg.width, cfg.height),
            "indexed={indexed}: frame {i}"
        );
    }
}

#[test]
fn inshader_workload_sequence_matches_isolated_frames() {
    check_inshader_sequence(false);
}

#[test]
fn indexed_inshader_workload_sequence_matches_isolated_frames() {
    check_inshader_sequence(true);
}

fn check_stereo_sequence(indexed: bool) {
    let scene = train_scene();
    let base = flythrough_cfg(&scene, indexed);
    let cfg = SequenceConfig {
        path: base.path.clone().stereo(0.065),
        ..base
    };
    let mut session = Session::default();
    let records = session
        .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::Het)
        .unwrap();
    assert_eq!(records.len(), FRAMES);
    // Every stereo frame is bit-exact with its isolated render.
    for (i, rec) in records.iter().enumerate() {
        let splats = isolated_splats(&scene, &cfg, i);
        let fresh = draw(
            &splats,
            cfg.width,
            cfg.height,
            &GpuConfig::default(),
            PipelineVariant::Het,
        );
        assert_eq!(rec.stats, fresh.stats, "indexed={indexed}: frame {i}");
    }
    // Left/right eyes of a pair see nearly identical workloads.
    for k in 0..FRAMES / 2 {
        let l = &records[2 * k].preprocess.visible_splats;
        let r = &records[2 * k + 1].preprocess.visible_splats;
        let diff = l.abs_diff(*r) as f64 / (*l).max(1) as f64;
        assert!(
            diff < 0.05,
            "pair {k}: visible counts diverged ({l} vs {r})"
        );
    }
    if indexed {
        // The two eyes of a pair differ by a pure translation, so the
        // covariance cache must land hits even on this stereo path.
        assert!(session.cull_stats().gaussians_refreshed > 0);
    }
}

#[test]
fn stereo_sequence_runs_through_the_pipeline() {
    check_stereo_sequence(false);
}

#[test]
fn indexed_stereo_sequence_is_bit_exact_with_isolated_frames() {
    check_stereo_sequence(true);
}

#[test]
fn sequence_respects_thread_policy_bit_exactly() {
    let scene = train_scene();
    for indexed in [false, true] {
        let cfg = flythrough_cfg(&scene, indexed);
        let short = SequenceConfig { frames: 4, ..cfg };
        let reference = Session::new(ThreadPolicy::serial())
            .run_vrpipe(
                &scene,
                &short,
                &GpuConfig::default(),
                PipelineVariant::HetQm,
            )
            .unwrap();
        for threads in [3usize, 0] {
            let policy = ThreadPolicy { threads };
            let gpu = GpuConfig {
                threads,
                ..GpuConfig::default()
            };
            let records = Session::new(policy)
                .run_vrpipe(&scene, &short, &gpu, PipelineVariant::HetQm)
                .unwrap();
            for (a, b) in reference.iter().zip(&records) {
                assert_eq!(
                    a.stats, b.stats,
                    "indexed={indexed} threads={threads} frame {}",
                    a.index
                );
            }
        }
    }
}
