//! Frame-sequence experiment: temporal coherence across a flythrough
//! (per-frame pipeline behaviour, the incremental re-sort's repair rate
//! and the spatial index's culling counters).
//!
//! Parity-gated: every sequence frame is asserted bit-exact against
//! rendering the same frame in isolation, and every indexed frame
//! against the full preprocess, so a reported counter can never hide a
//! temporal-reuse bug.

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::index::{CullState, CullStats, SceneIndex};
use gsplat::math::Vec3;
use gsplat::preprocess::{
    preprocess_frame, PreprocessMode, PreprocessRequest, PreprocessScratch, PreprocessStats,
};
use gsplat::scene::EVALUATED_SCENES;
use gsplat::sort::ResortStats;
use gsplat::stream::FragmentKernel;
use gsplat::ThreadPolicy;
use vrpipe::{draw, PipelineVariant, SequenceConfig, Session};

use crate::common::{banner, default_scale};

/// Frames per measured sequence (the acceptance floor is 16).
pub const SEQUENCE_FRAMES: usize = 16;

/// One scene's incremental-preprocessing outcome.
pub struct PreprocessMeasurement {
    /// Scene name.
    pub scene: &'static str,
    /// Gaussians in the cloud.
    pub gaussians: usize,
    /// Visible splats in the final frame.
    pub visible_last: usize,
    /// Accumulated culling counters of the indexed run.
    pub cull: CullStats,
}

/// One solo indexed frame: a round of one camera on `cull`, then its
/// emission.
fn indexed_frame(
    scene: &gsplat::Scene,
    cam: &gsplat::Camera,
    policy: ThreadPolicy,
    index: &SceneIndex,
    cull: &mut CullState,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<gsplat::Splat>,
) -> PreprocessStats {
    cull.begin_round(index, std::slice::from_ref(cam));
    let request = PreprocessRequest::new(policy, PreprocessMode::Indexed { index, cull });
    preprocess_frame(scene, cam, request, scratch, out)
}

/// One full-sweep frame with the warm-started temporal sort.
fn temporal_frame(
    scene: &gsplat::Scene,
    cam: &gsplat::Camera,
    policy: ThreadPolicy,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<gsplat::Splat>,
) -> PreprocessStats {
    let request = PreprocessRequest::new(policy, PreprocessMode::Temporal);
    preprocess_frame(scene, cam, request, scratch, out)
}

/// Runs indexed preprocessing over a coherent flythrough.
/// **Parity-gated**: every frame's indexed output (stats and the full
/// splat stream) is asserted bit-exact against the full path, so the
/// reported culling counters cannot hide a classification or cache-reuse
/// bug.
pub fn measure_preprocess(spec_index: usize, scale: f32, frames: usize) -> PreprocessMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let path = flythrough_of(&scene);
    let fov = 55f32.to_radians();
    let policy = ThreadPolicy::default();

    let index = SceneIndex::build(&scene.gaussians);
    let mut cull = CullState::default();
    let mut s_idx = PreprocessScratch::default();
    let mut s_full = PreprocessScratch::default();
    let mut indexed = Vec::new();
    let mut full = Vec::new();
    for i in 0..frames {
        let cam = path.camera(i, frames, w, h, fov);
        let a = indexed_frame(
            &scene,
            &cam,
            policy,
            &index,
            &mut cull,
            &mut s_idx,
            &mut indexed,
        );
        let b = temporal_frame(&scene, &cam, policy, &mut s_full, &mut full);
        assert_eq!(a, b, "{}: frame {i} stats diverged", spec.name);
        assert_eq!(
            indexed, full,
            "{}: frame {i} splat stream diverged from the full path",
            spec.name
        );
    }

    PreprocessMeasurement {
        scene: spec.name,
        gaussians: scene.len(),
        visible_last: full.len(),
        cull: cull.stats(),
    }
}

/// The flythrough used throughout: a gentle approach toward the scene
/// center with hand shake, scaled to the scene's viewing radius so every
/// archetype gets frame-coherent motion.
fn flythrough_of(scene: &gsplat::Scene) -> CameraPath {
    let start = scene.center + Vec3::new(0.0, scene.view_height, scene.view_radius);
    CameraPath::flythrough(
        start,
        scene.center,
        scene.view_radius * 0.0015,
        scene.view_radius * 0.0008,
    )
}

/// Renders one scene's flythrough as a temporal session and returns the
/// final frame's visible splats and the session's re-sort counters,
/// gating on bit-exact parity between sequence frames and isolated
/// re-renders.
pub fn measure_sequence(spec_index: usize, scale: f32, frames: usize) -> (usize, ResortStats) {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let seq_cfg = SequenceConfig {
        path: flythrough_of(&scene),
        frames,
        width: w,
        height: h,
        fov_y: 55f32.to_radians(),
        temporal: true,
        indexed: false,
        max_sh_degree: gsplat::sh::MAX_SH_DEGREE,
        rung: 0,
    };
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };

    let mut session = Session::default();
    let mut visible = 0;
    let mut draw_scratch = vrpipe::DrawScratch::default();
    let records = session.run(&scene, &seq_cfg, |f| {
        visible = f.splats.len();
        vrpipe::try_draw_with_scratch(
            f.splats,
            w,
            h,
            &gpu,
            PipelineVariant::HetQm,
            &mut draw_scratch,
        )
        .expect("valid config")
    });

    for (i, rec) in records.iter().enumerate() {
        let cam = seq_cfg.path.camera(i, frames, w, h, seq_cfg.fov_y);
        let pre = gsplat::preprocess::preprocess(&scene, &cam);
        let fresh = draw(&pre.splats, w, h, &gpu, PipelineVariant::HetQm);
        assert_eq!(
            rec.stats, fresh.stats,
            "{}: frame {i} diverged from isolated render",
            spec.name
        );
        assert_eq!(
            rec.color.max_abs_diff(&fresh.color),
            0.0,
            "{}: frame {i} image diverged",
            spec.name
        );
    }
    (visible, session.resort_stats())
}

/// The `sequence` experiment: a 16-frame shaky flythrough per archetype,
/// reporting per-frame pipeline behaviour and the temporal re-sort gain.
pub fn sequence() {
    banner(
        "sequence",
        "frame sequences with temporal coherence (flythrough, incremental re-sort)",
    );
    let scale = default_scale().min(0.1);

    // Detailed per-frame trajectory on the outdoor archetype (Train).
    let spec = &EVALUATED_SCENES[2];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let cfg = SequenceConfig {
        path: flythrough_of(&scene),
        frames: SEQUENCE_FRAMES,
        width: w,
        height: h,
        fov_y: 55f32.to_radians(),
        temporal: true,
        indexed: true,
        max_sh_degree: gsplat::sh::MAX_SH_DEGREE,
        rung: 0,
    };
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };
    let mut session = Session::default();
    let records = session
        .run_vrpipe(&scene, &cfg, &gpu, PipelineVariant::HetQm)
        .expect("valid config");
    // Parity gate for the index-enabled session: every frame bit-exact
    // with an isolated full render.
    for (i, rec) in records.iter().enumerate() {
        let cam = cfg
            .path
            .camera(i, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
        let pre = gsplat::preprocess::preprocess(&scene, &cam);
        let fresh = draw(&pre.splats, w, h, &gpu, PipelineVariant::HetQm);
        assert_eq!(
            rec.stats, fresh.stats,
            "{}: indexed frame {i} diverged from isolated render",
            spec.name
        );
    }
    println!(
        "'{}' {}-frame flythrough at {}x{} (HET+QM, SoA kernel, indexed preprocessing):",
        spec.name, SEQUENCE_FRAMES, w, h
    );
    println!(
        "  {:>5} {:>9} {:>12} {:>14} {:>12} {:>17}",
        "frame", "visible", "cycles", "retired-ratio", "tile-skips", "skip/refr/reproj"
    );
    for r in &records {
        println!(
            "  {:>5} {:>9} {:>12} {:>14.3} {:>12} {:>7}/{}/{}",
            r.index,
            r.preprocess.visible_splats,
            r.stats.total_cycles,
            r.retired_tile_ratio,
            r.stats.retired_tile_skips,
            r.cull.gaussians_skipped,
            r.cull.gaussians_refreshed,
            r.cull.gaussians_reprojected,
        );
    }
    let rs = session.resort_stats();
    println!(
        "  re-sort: {} repaired / {} radix fallbacks, {} repair shifts",
        rs.repaired, rs.radix_fallbacks, rs.repair_shifts
    );
    let cs = session.cull_stats();
    println!(
        "  culling: {} cells skipped / {} refreshed / {} re-projected; \
         {} gaussians skipped, {} refreshed, {} re-projected",
        cs.cells_skipped,
        cs.cells_refreshed,
        cs.cells_reprojected,
        cs.gaussians_skipped,
        cs.gaussians_refreshed,
        cs.gaussians_reprojected,
    );

    // Parity-gated re-sort and preprocessing counters per archetype.
    println!();
    println!("incremental vs full re-sort (parity-gated, {SEQUENCE_FRAMES} frames):");
    println!(
        "  {:<12} {:>8} {:>16}",
        "scene", "splats", "repaired/fallbk"
    );
    for spec_index in [2usize, 4] {
        let (visible, rs) = measure_sequence(spec_index, scale, SEQUENCE_FRAMES);
        let name = EVALUATED_SCENES[spec_index].name;
        println!(
            "  {:<12} {:>8} {:>10}/{}",
            name, visible, rs.repaired, rs.radix_fallbacks,
        );
        assert!(
            rs.repaired > 0,
            "{name}: coherent flythrough must hit the repair fast path"
        );
    }

    println!();
    println!(
        "incremental (indexed) vs full preprocessing (parity-gated, {SEQUENCE_FRAMES} frames):"
    );
    println!(
        "  {:<12} {:>9} {:>8} {:>20}",
        "scene", "gauss", "visible", "skip/refr/reproj"
    );
    for spec_index in [2usize, 4] {
        let m = measure_preprocess(spec_index, scale, SEQUENCE_FRAMES);
        println!(
            "  {:<12} {:>9} {:>8} {:>10}/{}/{}",
            m.scene,
            m.gaussians,
            m.visible_last,
            m.cull.gaussians_skipped,
            m.cull.gaussians_refreshed,
            m.cull.gaussians_reprojected,
        );
        assert!(
            m.cull.gaussians_refreshed > 0,
            "{}: translation-coherent flythrough must hit the covariance cache",
            m.scene
        );
        // Compact objects that fit entirely on screen legitimately have no
        // fully-outside cells; everywhere else the frustum must cut cells.
        assert!(
            m.cull.gaussians_skipped > 0 || m.visible_last * 100 >= m.gaussians * 95,
            "{}: frustum edges must produce fully-outside cells",
            m.scene
        );
    }
}
