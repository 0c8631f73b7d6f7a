//! Frame-sequence experiment: temporal-coherence acceleration across a
//! flythrough (per-frame time, incremental-vs-full re-sort speedup, and
//! the retired-ratio trajectory).
//!
//! Parity-gated: before anything is timed, every sequence frame is
//! asserted bit-exact against rendering the same frame in isolation, so a
//! reported speedup can never hide a temporal-reuse bug.

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gpu_sim::tiles::Tiling;
use gsplat::camera::CameraPath;
use gsplat::index::{CullState, CullStats, SceneIndex};
use gsplat::math::Vec3;
use gsplat::preprocess::{
    preprocess_frame, PreprocessMode, PreprocessRequest, PreprocessScratch, PreprocessStats,
};
use gsplat::scene::EVALUATED_SCENES;
use gsplat::sort::{depth_key, radix_argsort_into, IncrementalSorter, SortScratch};
use gsplat::stream::FragmentKernel;
use gsplat::ThreadPolicy;
use vrpipe::{draw, PipelineVariant, SequenceConfig, Session};

use crate::common::{banner, default_scale};

/// Frames per measured sequence (the acceptance floor is 16).
pub const SEQUENCE_FRAMES: usize = 16;

/// One scene's sequence measurement.
pub struct SequenceMeasurement {
    /// Scene name.
    pub scene: &'static str,
    /// Frames rendered.
    pub frames: usize,
    /// Visible splats in the final frame (sequence workload size).
    pub visible_splats: usize,
    /// Total wall time of the incremental re-sort across the sequence, ms.
    pub incremental_sort_ms: f64,
    /// Total wall time of the from-scratch fused radix sort on the same
    /// per-frame key streams, ms.
    pub full_sort_ms: f64,
    /// `full_sort_ms / incremental_sort_ms`.
    pub sort_speedup: f64,
    /// Frames resolved by the insertion-repair fast path.
    pub repaired_frames: u64,
    /// Frames that fell back to the radix sort (first frame included).
    pub radix_fallbacks: u64,
    /// Retired-tile ratio of the first frame (HET+QM, SoA kernel).
    pub retired_ratio_first: f64,
    /// Retired-tile ratio of the last frame.
    pub retired_ratio_last: f64,
}

/// One scene's incremental-preprocessing measurement.
pub struct PreprocessMeasurement {
    /// Scene name.
    pub scene: &'static str,
    /// Frames preprocessed.
    pub frames: usize,
    /// Gaussians in the cloud.
    pub gaussians: usize,
    /// Visible splats in the final frame.
    pub visible_last: usize,
    /// One-off spatial index construction time, ms (amortized across the
    /// whole sequence — not part of the per-frame cost).
    pub index_build_ms: f64,
    /// Total wall time of a replica of the **pre-PR** preprocess across
    /// the sequence, ms: per-Gaussian camera-constant recomputation
    /// (un-hoisted [`gsplat::projection::project_gaussian`]) plus the
    /// separate key-extraction and workload-sum passes — what production
    /// ran before this change.
    pub prior_full_ms: f64,
    /// Total wall time of this PR's full (hoisted, temporal-sort)
    /// preprocess across the sequence, ms.
    pub full_ms: f64,
    /// Total wall time of the indexed preprocess across the sequence, ms.
    pub indexed_ms: f64,
    /// `prior_full_ms / indexed_ms` — the per-frame preprocess time cut
    /// this PR delivers on a coherent path (hoisting + spatial index +
    /// covariance/SH caches combined).
    pub speedup: f64,
    /// `full_ms / indexed_ms` — the share of the speedup attributable to
    /// the index alone (against this PR's already-hoisted full path).
    pub speedup_vs_full: f64,
    /// Accumulated culling counters of the gated run.
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

/// Measures incremental (spatially indexed) vs full preprocessing over a
/// coherent flythrough. **Parity-gated**: before timing, every frame's
/// indexed output (stats and the full splat stream) is asserted bit-exact
/// against the full path, so the reported speedup cannot hide a
/// classification or cache-reuse bug.
pub fn measure_preprocess(spec_index: usize, scale: f32, frames: usize) -> PreprocessMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);
    let path = flythrough_of(&scene);
    let fov = 55f32.to_radians();
    let cams: Vec<_> = (0..frames)
        .map(|i| path.camera(i, frames, w, h, fov))
        .collect();
    let policy = ThreadPolicy::default();

    // --- Parity gate: indexed == full, frame by frame, bit for bit. ---
    let index = SceneIndex::build(&scene.gaussians);
    let mut cull = CullState::default();
    let mut s_idx = PreprocessScratch::default();
    let mut s_full = PreprocessScratch::default();
    let mut indexed = Vec::new();
    let mut full = Vec::new();
    for (i, cam) in cams.iter().enumerate() {
        let a = indexed_frame(
            &scene,
            cam,
            policy,
            &index,
            &mut cull,
            &mut s_idx,
            &mut indexed,
        );
        let b = temporal_frame(&scene, cam, policy, &mut s_full, &mut full);
        assert_eq!(a, b, "{}: frame {i} stats diverged", spec.name);
        assert_eq!(
            indexed, full,
            "{}: frame {i} splat stream diverged from the full path",
            spec.name
        );
    }
    let cull_stats = cull.stats();

    // --- Timing: whole-sequence replays, fresh temporal state per rep
    // (the index itself is per-scene and reused, like production). Reps
    // interleave the two paths and the minimum is reported — the
    // noise-robust estimator on a shared host.
    let reps = 7;
    let index_build_ms = {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(SceneIndex::build(&scene.gaussians));
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    let mut indexed_ms = f64::INFINITY;
    let mut full_ms = f64::INFINITY;
    let mut prior_full_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        for cam in &cams {
            indexed_frame(
                &scene,
                cam,
                policy,
                &index,
                &mut cull,
                &mut scratch,
                &mut indexed,
            );
        }
        indexed_ms = indexed_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let mut scratch = PreprocessScratch::default();
        for cam in &cams {
            temporal_frame(&scene, cam, policy, &mut scratch, &mut full);
        }
        full_ms = full_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        // Replica of the pre-PR preprocess: per-Gaussian constant
        // recomputation, two-pass key extraction, separate workload sweep,
        // same warm-started sort. Asserted to produce the same splats.
        let t0 = Instant::now();
        let mut sorter = IncrementalSorter::default();
        let mut staging: Vec<gsplat::Splat> = Vec::new();
        let mut depths: Vec<f32> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut order: Vec<u32> = Vec::new();
        let mut prior_out: Vec<gsplat::Splat> = Vec::new();
        let mut obb = 0.0f64;
        for cam in &cams {
            staging.clear();
            for (i, g) in scene.gaussians.iter().enumerate() {
                if let Some(s) = gsplat::projection::project_gaussian(g, cam, i as u32) {
                    staging.push(s);
                }
            }
            depths.clear();
            depths.extend(staging.iter().map(|s| s.depth));
            ids.clear();
            ids.extend(staging.iter().map(|s| s.source));
            sorter.sort_depths_with_ids_into(&depths, &ids, &mut order);
            prior_out.clear();
            prior_out.extend(order.iter().map(|&i| staging[i as usize]));
            obb += prior_out.iter().map(|s| s.obb_area() as f64).sum::<f64>();
        }
        prior_full_ms = prior_full_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(obb);
        assert_eq!(
            prior_out, full,
            "{}: pre-PR replica diverged from the hoisted path",
            spec.name
        );
    }

    PreprocessMeasurement {
        scene: spec.name,
        frames,
        gaussians: scene.len(),
        visible_last: full.len(),
        index_build_ms,
        prior_full_ms,
        full_ms,
        indexed_ms,
        speedup: prior_full_ms / indexed_ms.max(1e-9),
        speedup_vs_full: full_ms / indexed_ms.max(1e-9),
        cull: cull_stats,
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

/// Measures one scene's sequence behaviour, gating on bit-exact parity
/// between sequence frames and isolated re-renders.
pub fn measure_sequence(spec_index: usize, scale: f32, frames: usize) -> SequenceMeasurement {
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

    // --- Sequence render + per-frame (key, id) capture, persistent
    // scratch. The ids (stable `source` identities) are what the temporal
    // production path sorts by, so the timing below replays it exactly.
    let mut session = Session::default();
    let mut frame_keys: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(frames);
    let mut draw_scratch = vrpipe::DrawScratch::default();
    let records = {
        let keys = &mut frame_keys;
        let scratch = &mut draw_scratch;
        let gpu = &gpu;
        session.run(&scene, &seq_cfg, |f| {
            keys.push((
                f.splats.iter().map(|s| depth_key(s.depth)).collect(),
                f.splats.iter().map(|s| s.source).collect(),
            ));
            vrpipe::try_draw_with_scratch(f.splats, w, h, gpu, PipelineVariant::HetQm, scratch)
                .expect("valid config")
        })
    };

    // --- Parity gate: every frame bit-exact with an isolated render. ---
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

    // --- Re-sort timing: replay the captured (key, id) streams through
    // the id-keyed warm start (the production temporal path) vs the fused
    // radix sort. The reported repair/fallback mix comes from the same
    // replay that is timed.
    let reps = 5;
    let mut order = Vec::new();
    let mut replay_stats = gsplat::sort::ResortStats::default();
    let t_incremental = {
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut sorter = IncrementalSorter::default();
            for (keys, ids) in &frame_keys {
                sorter.sort_keys_with_ids_into(keys, ids, &mut order);
            }
            replay_stats = sorter.stats();
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    let t_full = {
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut scratch = SortScratch::default();
            for (keys, _) in &frame_keys {
                radix_argsort_into(keys, &mut scratch, &mut order);
            }
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    // The replay reproduces the session's sorter decisions exactly (same
    // keys, same ids, same budgets).
    assert_eq!(
        (replay_stats.repaired, replay_stats.radix_fallbacks),
        (
            session.resort_stats().repaired,
            session.resort_stats().radix_fallbacks
        ),
        "{}: timed replay diverged from the session's sorter",
        spec.name
    );

    let tiles = Tiling::new(w, h, gpu.screen_tile_px, gpu.tile_grid_tiles).tile_count() as f64;
    let ratio = |r: &vrpipe::DrawOutput| r.stats.retired_tiles as f64 / tiles.max(1.0);
    SequenceMeasurement {
        scene: spec.name,
        frames,
        visible_splats: frame_keys.last().map_or(0, |(k, _)| k.len()),
        incremental_sort_ms: t_incremental,
        full_sort_ms: t_full,
        sort_speedup: t_full / t_incremental.max(1e-9),
        repaired_frames: replay_stats.repaired,
        radix_fallbacks: replay_stats.radix_fallbacks,
        retired_ratio_first: records.first().map_or(0.0, &ratio),
        retired_ratio_last: records.last().map_or(0.0, &ratio),
    }
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

    // Parity-gated measurement + sort timing per archetype.
    println!();
    println!("incremental vs full re-sort (parity-gated, {SEQUENCE_FRAMES} frames):");
    println!(
        "  {:<12} {:>8} {:>16} {:>12} {:>9} {:>16}",
        "scene", "splats", "incremental-ms", "full-ms", "speedup", "repaired/fallbk"
    );
    for spec_index in [2usize, 4] {
        let m = measure_sequence(spec_index, scale, SEQUENCE_FRAMES);
        println!(
            "  {:<12} {:>8} {:>16.3} {:>12.3} {:>8.2}x {:>10}/{}",
            m.scene,
            m.visible_splats,
            m.incremental_sort_ms,
            m.full_sort_ms,
            m.sort_speedup,
            m.repaired_frames,
            m.radix_fallbacks,
        );
        assert!(
            m.repaired_frames > 0,
            "{}: coherent flythrough must hit the repair fast path",
            m.scene
        );
    }

    // Incremental vs full preprocessing per archetype (parity-gated inside
    // `measure_preprocess` before anything is timed).
    println!();
    println!(
        "incremental (indexed) vs full preprocessing (parity-gated, {SEQUENCE_FRAMES} frames):"
    );
    println!("  speedup = pre-PR path / indexed (the PR's total preprocess cut);");
    println!("  vs-full = this PR's hoisted full path / indexed (the index's own share)");
    println!(
        "  {:<12} {:>9} {:>8} {:>10} {:>12} {:>10} {:>10} {:>9} {:>9} {:>20}",
        "scene",
        "gauss",
        "visible",
        "build-ms",
        "indexed-ms",
        "full-ms",
        "prior-ms",
        "speedup",
        "vs-full",
        "skip/refr/reproj"
    );
    for spec_index in [2usize, 4] {
        let m = measure_preprocess(spec_index, scale, SEQUENCE_FRAMES);
        println!(
            "  {:<12} {:>9} {:>8} {:>10.3} {:>12.3} {:>10.3} {:>10.3} {:>8.2}x {:>8.2}x {:>10}/{}/{}",
            m.scene,
            m.gaussians,
            m.visible_last,
            m.index_build_ms,
            m.indexed_ms,
            m.full_ms,
            m.prior_full_ms,
            m.speedup,
            m.speedup_vs_full,
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
