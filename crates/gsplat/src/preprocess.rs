//! The preprocessing + sorting stage shared by every renderer
//! (paper Fig. 4, left): frustum culling, EWA projection, SH color
//! evaluation, and the global front-to-back depth sort.
//!
//! On real hardware this runs as CUDA kernels (with NVIDIA CUB for the
//! sort); every renderer in this repository — software, hardware-baseline
//! and VR-Pipe — consumes the same output, mirroring the paper's setup where
//! only the rasterization step differs.
//!
//! [`preprocess_frame`] is the one entry point: a [`PreprocessRequest`]
//! picks the threading policy, the SH degree cap and the
//! [`PreprocessMode`] — a full sweep, a full sweep with a warm-started
//! sort, or the spatially indexed sweep over one member of a
//! [`CullState`] round. [`preprocess`], [`preprocess_with`] and
//! [`preprocess_into`] are the full-sweep conveniences. Projection is embarrassingly parallel, so every mode
//! fans the Gaussian list out over worker chunks and concatenates the
//! surviving splats in chunk order — bit-exact with the serial sweep.
//! With a reusable [`PreprocessScratch`] the whole stage (projection,
//! keying, fused radix sort, reorder) allocates nothing once warmed up.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::camera::Camera;
use crate::gaussian::Gaussian;
use crate::index::{cloud_fingerprint, CellClass, CovCacheEntry, CullState, SceneIndex};
use crate::par::{chunked_ranges_mut, for_each_claimed, ThreadPolicy};
use crate::projection::{
    covariance_entries, project_gaussian_frame, splat_from_covariance, ColorSource, FrameTransform,
};
use crate::scene::Scene;
use crate::sh::MAX_SH_DEGREE;
use crate::sort::{sort_splats_by_depth_into, IncrementalSorter, ResortStats, SortScratch};
use crate::splat::Splat;

/// Output of preprocessing: visible splats in front-to-back order, plus the
/// work counters the cost models consume.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    /// Visible splats, sorted front-to-back by camera depth.
    pub splats: Vec<Splat>,
    /// Statistics of the preprocessing pass.
    pub stats: PreprocessStats,
}

/// Work counters for the preprocessing + sorting stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessStats {
    /// Gaussians considered (scene size).
    pub input_gaussians: usize,
    /// Gaussians surviving frustum culling + opacity pruning.
    pub visible_splats: usize,
    /// Keys sorted (== visible splats for the hardware path; the CUDA path
    /// re-sorts duplicated per-tile keys and overrides this).
    pub sorted_keys: usize,
    /// Total OBB area of visible splats in pixels² — the rasterization
    /// workload proxy.
    pub total_obb_area: f64,
}

/// How [`preprocess_frame`] culls and sorts a frame. Every mode emits the
/// same splats in the same order with the same [`PreprocessStats`]; only
/// the work to produce them differs.
#[derive(Debug)]
pub enum PreprocessMode<'a> {
    /// Cull and project every Gaussian, then sort from scratch.
    Full,
    /// [`PreprocessMode::Full`] with the depth sort warm-started from the
    /// previous call's near-sorted order through the scratch's
    /// [`IncrementalSorter`] (insertion-repair fast path, fused-radix
    /// fallback). Use [`PreprocessScratch::resort_stats`] to observe the
    /// repair/fallback mix and [`PreprocessScratch::invalidate_temporal`]
    /// on scene cuts.
    Temporal,
    /// Incremental, spatially indexed preprocessing of one member of the
    /// current `cull` round: cells the round classified fully outside are
    /// skipped wholesale, fully-inside cells skip the per-Gaussian cull
    /// test, and the covariance product `W Σ Wᵀ` of every visible
    /// Gaussian is replayed from the round's cache whenever it was
    /// computed under a bit-identical view rotation. Splats are emitted in
    /// scene order and sorted with the warm start of
    /// [`PreprocessMode::Temporal`]. [`CullState::stats`] reports what was
    /// skipped.
    ///
    /// The caller owns the round: [`CullState::begin_round`] must have
    /// admitted the camera ([`CullState::admits`]) — a solo frame is a
    /// round of one camera.
    Indexed {
        /// The scene's spatial index.
        index: &'a SceneIndex,
        /// The round state `index` is paired with.
        cull: &'a mut CullState,
    },
}

/// What [`preprocess_frame`] computes for one frame.
#[derive(Debug)]
pub struct PreprocessRequest<'a> {
    /// Host threading policy of the projection sweep (results are
    /// bit-identical for every policy).
    pub policy: ThreadPolicy,
    /// SH evaluation degree cap (the quality-ladder color knob). Output is
    /// bit-exact with a scene whose SH coefficients were truncated to the
    /// same degree; [`MAX_SH_DEGREE`] is the identity.
    pub max_sh_degree: u8,
    /// Culling and sorting strategy.
    pub mode: PreprocessMode<'a>,
}

impl<'a> PreprocessRequest<'a> {
    /// A request for `mode` under `policy` with SH evaluated uncapped.
    pub fn new(policy: ThreadPolicy, mode: PreprocessMode<'a>) -> Self {
        Self {
            policy,
            max_sh_degree: MAX_SH_DEGREE,
            mode,
        }
    }
}

/// Visible splats plus their fused sort keys, filled in lockstep so the
/// sort never needs a second pass over the 64-byte splats.
#[derive(Debug, Default)]
struct Emitted {
    splats: Vec<Splat>,
    /// Camera-space depth of each splat.
    depths: Vec<f32>,
    /// Stable identity (`source`) of each splat, for the temporal warm
    /// start.
    ids: Vec<u32>,
}

impl Emitted {
    #[inline]
    fn push(&mut self, s: Splat) {
        self.depths.push(s.depth);
        self.ids.push(s.source);
        self.splats.push(s);
    }

    fn clear(&mut self) {
        self.splats.clear();
        self.depths.clear();
        self.ids.clear();
    }

    /// Moves `other`'s contents to the end of `self`.
    fn append(&mut self, other: &mut Emitted) {
        self.splats.append(&mut other.splats);
        self.depths.append(&mut other.depths);
        self.ids.append(&mut other.ids);
    }
}

/// Reusable buffers for the preprocessing stage: per-worker projection
/// outputs, the unsorted splat staging list with its keys, and the sort
/// state.
#[derive(Debug, Default)]
pub struct PreprocessScratch {
    /// Per-worker emission chunks (kept allocated across frames).
    workers: Vec<Emitted>,
    /// Visible splats and their keys in input (pre-sort) order.
    staging: Emitted,
    /// Front-to-back permutation of `staging`.
    order: Vec<u32>,
    /// Radix-sort buffers.
    sort: SortScratch,
    /// Warm-start sorter for [`PreprocessMode::Temporal`] and
    /// [`PreprocessMode::Indexed`] frame loops.
    sorter: IncrementalSorter,
}

impl PreprocessScratch {
    /// Counters of the incremental re-sort (frames repaired vs radix
    /// fallbacks), accumulated across warm-started [`preprocess_frame`]
    /// calls.
    pub fn resort_stats(&self) -> ResortStats {
        self.sorter.stats()
    }

    /// Forgets the temporal warm-start order, e.g. on a scene or camera
    /// cut where the next frame's depth order shares nothing with the
    /// previous one.
    pub fn invalidate_temporal(&mut self) {
        self.sorter.invalidate();
    }
}

/// Runs culling, projection and the global depth sort for one viewpoint.
///
/// # Examples
///
/// ```
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.05); // Lego, tiny
/// let cam = scene.default_camera();
/// let out = preprocess(&scene, &cam);
/// assert!(out.stats.visible_splats > 0);
/// // Front-to-back order:
/// assert!(out.splats.windows(2).all(|w| w[0].depth <= w[1].depth));
/// ```
pub fn preprocess(scene: &Scene, camera: &Camera) -> PreprocessOutput {
    preprocess_with(scene, camera, ThreadPolicy::default())
}

/// [`preprocess`] with an explicit threading policy.
pub fn preprocess_with(scene: &Scene, camera: &Camera, policy: ThreadPolicy) -> PreprocessOutput {
    let mut scratch = PreprocessScratch::default();
    let mut splats = Vec::new();
    let stats = preprocess_into(scene, camera, policy, &mut scratch, &mut splats);
    PreprocessOutput { splats, stats }
}

/// [`preprocess`] into caller-provided buffers — the allocation-free frame
/// loop entry point, [`preprocess_frame`] in [`PreprocessMode::Full`].
/// `out` is cleared and refilled with the sorted splats.
// vrlint: hot
pub fn preprocess_into(
    scene: &Scene,
    camera: &Camera,
    policy: ThreadPolicy,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<Splat>,
) -> PreprocessStats {
    let request = PreprocessRequest::new(policy, PreprocessMode::Full);
    preprocess_frame(scene, camera, request, scratch, out)
}

/// Preprocesses one frame as `request` asks, into caller-provided buffers:
/// `out` is cleared and refilled with the visible splats sorted
/// front-to-back. Every [`PreprocessMode`] is **bit-exact** with
/// [`preprocess_into`] (splat values, order and [`PreprocessStats`]) on
/// every frame; the modes differ only in the work they do.
///
/// # Panics
///
/// In [`PreprocessMode::Indexed`]: when the camera is not admitted by the
/// current `cull` round, or when `index` was not built from this scene's
/// Gaussian cloud — a length mismatch panics on every call, and a content
/// (fingerprint) mismatch panics on the first frame after `cull`
/// (re)pairs with the index. The full-content check is `O(scene)` and
/// runs once per pairing, not per frame, so an **in-place** mutation of
/// the cloud after pairing goes undetected (rebuild the index, or use
/// [`CullState::invalidate`] plus a fresh [`SceneIndex`], after mutating).
///
/// # Examples
///
/// A solo indexed frame is a round of one camera; a stereo pair is a
/// round of two, whose single classification pass serves both eyes.
///
/// ```
/// use gsplat::camera::Camera;
/// use gsplat::index::{CullState, SceneIndex};
/// use gsplat::math::Vec3;
/// use gsplat::preprocess::{
///     preprocess_frame, preprocess_into, PreprocessMode, PreprocessRequest, PreprocessScratch,
/// };
/// use gsplat::scene::EVALUATED_SCENES;
/// use gsplat::ThreadPolicy;
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let index = SceneIndex::build(&scene.gaussians);
/// let policy = ThreadPolicy::default();
/// let left = scene.default_camera();
/// let d = Vec3::new(0.065, 0.0, 0.0);
/// let right = Camera::look_at(left.eye() + d, Vec3::ZERO + d, left.width(), left.height(), left.fov_y());
/// assert!(right.is_translation_of(&left));
/// let indexed = |cull: &mut CullState, cam: &Camera| {
///     let request = PreprocessRequest::new(policy, PreprocessMode::Indexed { index: &index, cull });
///     let mut out = Vec::new();
///     let stats = preprocess_frame(&scene, cam, request, &mut PreprocessScratch::default(), &mut out);
///     (stats, out)
/// };
/// let full = |cam: &Camera| {
///     let mut out = Vec::new();
///     let stats = preprocess_into(&scene, cam, policy, &mut PreprocessScratch::default(), &mut out);
///     (stats, out)
/// };
/// let mut solo = CullState::default();
/// solo.begin_round(&index, std::slice::from_ref(&left));
/// assert_eq!(indexed(&mut solo, &left), full(&left));
///
/// let mut pair = CullState::default();
/// pair.begin_round(&index, &[left.clone(), right.clone()]);
/// assert_eq!(indexed(&mut pair, &left), full(&left));
/// assert_eq!(indexed(&mut pair, &right), full(&right));
/// assert_eq!((pair.rounds(), pair.members_total()), (1, 2));
/// ```
// vrlint: hot
pub fn preprocess_frame(
    scene: &Scene,
    camera: &Camera,
    request: PreprocessRequest<'_>,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<Splat>,
) -> PreprocessStats {
    let PreprocessRequest {
        policy,
        max_sh_degree,
        mode,
    } = request;
    let n = scene.len();
    let workers = policy.workers(n);
    // The indexed path is inherently temporal: it exists for coherent
    // frame streams, so it always feeds the id-keyed warm-started sort.
    let temporal = !matches!(mode, PreprocessMode::Full);
    // Hoist the camera constants out of the per-Gaussian loop; every
    // worker shares the same precomputed frame transform.
    let frame = &FrameTransform::new(camera).with_max_sh_degree(max_sh_degree);
    match mode {
        PreprocessMode::Full | PreprocessMode::Temporal => {
            let gaussians = &scene.gaussians;
            emit_ranges::<()>(n, workers, &mut [], scratch, |range, _, out| {
                let start = range.start;
                // vrlint: allow(VL01[index], reason = "chunk ranges partition 0..gaussians.len() by construction")
                for (k, g) in gaussians[range].iter().enumerate() {
                    if let Some(s) = project_gaussian_frame(g, frame, (start + k) as u32) {
                        out.push(s);
                    }
                }
                (0, 0)
            });
        }
        PreprocessMode::Indexed { index, cull } => {
            assert_eq!(
                index.len(),
                n,
                "spatial index built for a different cloud size"
            );
            assert_eq!(
                cull.paired_with(),
                index.fingerprint(),
                "cull state not paired with this index (begin_round not called)"
            );
            cull.check_content_once(|| {
                assert_eq!(
                    index.fingerprint(),
                    cloud_fingerprint(&scene.gaussians),
                    "spatial index built for a different scene"
                );
            });
            assert!(
                cull.admits(camera),
                "camera not admitted by the current round — unprovable deltas need their own round"
            );
            let (classes, mcache, epoch) = cull.projection_parts();
            let (refreshed, reprojected) =
                emit_ranges(n, workers, mcache, scratch, |range, window, out| {
                    project_indexed_range(
                        &scene.gaussians,
                        index,
                        frame,
                        classes,
                        epoch,
                        range,
                        window,
                        out,
                    )
                });
            cull.record_projection(refreshed, reprojected);
        }
    }
    finish_preprocess(n, scratch, out, temporal)
}

/// Fills `scratch`'s staging list by running `body` over `0..n`: inline
/// when `workers <= 1`, otherwise over `workers` contiguous chunks claimed
/// through [`for_each_claimed`], each chunk with its own window of `state`
/// (see [`chunked_ranges_mut`]), its own emission buffer and its own
/// counters. Chunk-order concatenation reproduces the serial sweep's order
/// exactly. Returns the summed per-chunk counters.
fn emit_ranges<S: Send>(
    n: usize,
    workers: usize,
    state: &mut [S],
    scratch: &mut PreprocessScratch,
    body: impl Fn(Range<usize>, &mut [S], &mut Emitted) -> (u64, u64) + Sync,
) -> (u64, u64) {
    scratch.staging.clear();
    if workers <= 1 {
        return body(0..n, state, &mut scratch.staging);
    }
    let parts = chunked_ranges_mut(n, workers, state);
    // Exactly one chunk buffer per part: a shorter part list must not
    // leave stale chunks for the merge to pick up. Growth happens only on
    // first use or a worker-count change.
    scratch.workers.resize_with(parts.len(), Emitted::default);
    let mut chunks: Vec<_> = parts
        .into_iter()
        .zip(&mut scratch.workers)
        .map(|((range, window), out)| (range, window, out, (0, 0)))
        .collect();
    for_each_claimed(
        &mut vec![(); chunks.len()],
        &mut chunks,
        None,
        |_, (range, window, out, counters), _| {
            out.clear();
            *counters = body(range.clone(), window, out);
        },
    );
    let counters = chunks
        .iter()
        .fold((0, 0), |(a, b), &(.., (r, p))| (a + r, b + p));
    for chunk in &mut scratch.workers {
        scratch.staging.append(chunk);
    }
    counters
}

/// The shared sort-and-emit tail of every preprocess mode: the
/// (optionally warm-started) front-to-back sort over the key streams the
/// emission sweep already extracted, the reorder into `out` and the stats.
fn finish_preprocess(
    input_gaussians: usize,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<Splat>,
    temporal: bool,
) -> PreprocessStats {
    let staging = &scratch.staging;
    debug_assert_eq!(staging.depths.len(), staging.splats.len());
    debug_assert_eq!(staging.ids.len(), staging.splats.len());
    if temporal {
        // Warm-start by stable identity: `source` survives visibility
        // churn at the frustum edges, unlike the staging index.
        scratch
            .sorter
            .sort_depths_with_ids_into(&staging.depths, &staging.ids, &mut scratch.order);
    } else {
        sort_splats_by_depth_into(&staging.depths, &mut scratch.sort, &mut scratch.order);
    }

    out.clear();
    out.reserve(staging.splats.len());
    // One pass reorders and accumulates the workload proxy — the f64 adds
    // run in sorted order, exactly as a separate sweep over `out` would.
    let mut total_obb_area = 0.0f64;
    out.extend(scratch.order.iter().map(|&i| {
        let s = staging.splats[i as usize];
        total_obb_area += s.obb_area() as f64;
        s
    }));
    PreprocessStats {
        input_gaussians,
        visible_splats: out.len(),
        sorted_keys: out.len(),
        total_obb_area,
    }
}

/// Projects the Gaussians of `range` through the classification lattice
/// into `out`, returning `(refreshed, reprojected)` covariance counters.
/// `mstate` is the covariance-cache window covering exactly `range`.
#[allow(clippy::too_many_arguments)]
fn project_indexed_range(
    gaussians: &[Gaussian],
    index: &SceneIndex,
    frame: &FrameTransform,
    classes: &[CellClass],
    epoch: u32,
    range: Range<usize>,
    mstate: &mut [CovCacheEntry],
    out: &mut Emitted,
) -> (u64, u64) {
    let base = range.start;
    let (mut refreshed, mut reprojected) = (0u64, 0u64);
    // Zipped SoA iteration: the hot loop streams only the values the
    // camera-dependent tail consumes (mean, opacity, the caches) and never
    // touches the ~80-byte Gaussian structs; no per-item bounds checks
    // beyond the per-cell class lookup.
    let cell_of = &index.cell_of()[range.clone()];
    let cov3d = &index.cov3d()[range.clone()];
    let cutoff = &index.cutoff()[range.clone()];
    let base_color = &index.base_color()[range.clone()];
    let means = &index.means()[range.clone()];
    let opacities = &index.opacities()[range.clone()];
    let radius = &index.radius()[range];
    for (k, ((((&cell, &mean), &opacity), entry), cov3)) in cell_of
        .iter()
        .zip(means)
        .zip(opacities)
        .zip(mstate.iter_mut())
        .zip(cov3d)
        .enumerate()
    {
        match classes[cell as usize] {
            // Every live resident provably fails the sphere cull — and
            // dead Gaussians (camera-invariantly culled: the full path's
            // opacity and finiteness gates return `None` for them under
            // every camera) point at the always-`Outside` sentinel entry.
            CellClass::Outside => continue,
            // Every live resident provably passes it: skip the test.
            CellClass::Inside => {}
            CellClass::Boundary => {
                if !frame.sphere_visible(mean, radius[k]) {
                    continue;
                }
            }
        }
        if entry.epoch == epoch {
            refreshed += 1;
        } else {
            entry.m = covariance_entries(frame, cov3);
            entry.epoch = epoch;
            reprojected += 1;
        }
        let m6 = entry.m;
        let color = match base_color[k] {
            Some(c) => ColorSource::Cached(c),
            // View-dependent SH (degree > 0): fall back to the struct.
            None => ColorSource::Sh(&gaussians[base + k].sh),
        };
        if let Some(s) = splat_from_covariance(
            mean,
            opacity,
            frame,
            (base + k) as u32,
            move || m6,
            cutoff[k],
            color,
        ) {
            out.push(s);
        }
    }
    (refreshed, reprojected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::EVALUATED_SCENES;

    /// [`preprocess_frame`] in [`PreprocessMode::Temporal`].
    fn preprocess_into_temporal(
        scene: &Scene,
        camera: &Camera,
        policy: ThreadPolicy,
        scratch: &mut PreprocessScratch,
        out: &mut Vec<Splat>,
    ) -> PreprocessStats {
        let request = PreprocessRequest::new(policy, PreprocessMode::Temporal);
        preprocess_frame(scene, camera, request, scratch, out)
    }

    /// One solo indexed frame: a round of one camera, then its emission.
    fn preprocess_into_indexed(
        scene: &Scene,
        camera: &Camera,
        policy: ThreadPolicy,
        index: &SceneIndex,
        cull: &mut CullState,
        scratch: &mut PreprocessScratch,
        out: &mut Vec<Splat>,
    ) -> PreprocessStats {
        cull.begin_round(index, std::slice::from_ref(camera));
        let request = PreprocessRequest::new(policy, PreprocessMode::Indexed { index, cull });
        preprocess_frame(scene, camera, request, scratch, out)
    }

    #[test]
    fn output_is_depth_sorted() {
        let scene = EVALUATED_SCENES[5].generate_scaled(0.06);
        let out = preprocess(&scene, &scene.default_camera());
        assert!(out.splats.windows(2).all(|w| w[0].depth <= w[1].depth));
    }

    #[test]
    fn culling_reduces_count() {
        let scene = EVALUATED_SCENES[2].generate_scaled(0.06); // outdoor Train
        let out = preprocess(&scene, &scene.default_camera());
        assert!(out.stats.visible_splats <= out.stats.input_gaussians);
        assert!(out.stats.visible_splats > 0);
    }

    #[test]
    fn stats_are_consistent() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05);
        let out = preprocess(&scene, &scene.default_camera());
        assert_eq!(out.stats.visible_splats, out.splats.len());
        assert_eq!(out.stats.sorted_keys, out.splats.len());
        assert!(out.stats.total_obb_area > 0.0);
    }

    #[test]
    fn different_viewpoints_yield_different_visibility() {
        let scene = EVALUATED_SCENES[3].generate_scaled(0.04); // Truck outdoor
        let cams = scene.viewpoints(4);
        let counts: Vec<usize> = cams
            .iter()
            .map(|c| preprocess(&scene, c).stats.visible_splats)
            .collect();
        // At least two viewpoints should differ in visible splats.
        assert!(counts.iter().any(|&c| c != counts[0]) || counts[0] > 0);
    }

    #[test]
    fn parallel_matches_serial_bit_exactly() {
        let scene = EVALUATED_SCENES[1].generate_scaled(0.06);
        let cam = scene.default_camera();
        let serial = preprocess_with(&scene, &cam, ThreadPolicy::serial());
        for policy in [
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 5 },
            ThreadPolicy::default(),
        ] {
            let par = preprocess_with(&scene, &cam, policy);
            assert_eq!(par.stats, serial.stats, "{policy:?}");
            assert_eq!(par.splats.len(), serial.splats.len());
            assert!(
                par.splats.iter().zip(&serial.splats).all(|(a, b)| a == b),
                "{policy:?}: splat stream diverged"
            );
        }
    }

    #[test]
    fn temporal_preprocess_is_bit_exact_with_full_sort() {
        use crate::camera::CameraPath;
        let scene = EVALUATED_SCENES[2].generate_scaled(0.05); // Train
        let path = CameraPath::flythrough(
            scene.center + crate::math::Vec3::new(0.0, 1.5, scene.view_radius),
            scene.center,
            0.05,
            0.02,
        );
        let cams = path.cameras(8, 160, 120, 1.0);
        let mut temporal_scratch = PreprocessScratch::default();
        let mut full_scratch = PreprocessScratch::default();
        let mut temporal_out = Vec::new();
        let mut full_out = Vec::new();
        for (i, cam) in cams.iter().enumerate() {
            let ts = preprocess_into_temporal(
                &scene,
                cam,
                ThreadPolicy::default(),
                &mut temporal_scratch,
                &mut temporal_out,
            );
            let fs = preprocess_into(
                &scene,
                cam,
                ThreadPolicy::default(),
                &mut full_scratch,
                &mut full_out,
            );
            assert_eq!(ts, fs, "frame {i}: stats diverged");
            assert_eq!(
                temporal_out, full_out,
                "frame {i}: splat order diverged from the full sort"
            );
        }
        let rs = temporal_scratch.resort_stats();
        assert_eq!(rs.frames, 8);
        assert!(
            rs.repaired >= 1,
            "coherent path must hit the repair fast path: {rs:?}"
        );
    }

    /// Indexed preprocessing must be bit-exact with the full path on every
    /// frame of a sequence, for both camera-delta regimes: a flythrough
    /// (pure translation — the covariance cache is hot) and an orbit
    /// (rotation every frame — every epoch misses).
    #[test]
    fn indexed_preprocess_is_bit_exact_with_full() {
        use crate::camera::CameraPath;
        let scene = EVALUATED_SCENES[2].generate_scaled(0.05); // Train
        let index = SceneIndex::build(&scene.gaussians);
        let paths = [
            CameraPath::flythrough(
                scene.center + crate::math::Vec3::new(0.0, 1.5, scene.view_radius),
                scene.center,
                scene.view_radius * 0.01,
                scene.view_radius * 0.005,
            ),
            CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.05),
        ];
        for path in paths {
            let cams = path.cameras(6, 160, 120, 1.0);
            let mut cull = CullState::default();
            let mut s_idx = PreprocessScratch::default();
            let mut s_full = PreprocessScratch::default();
            let mut indexed = Vec::new();
            let mut full = Vec::new();
            for (i, cam) in cams.iter().enumerate() {
                let a = preprocess_into_indexed(
                    &scene,
                    cam,
                    ThreadPolicy::default(),
                    &index,
                    &mut cull,
                    &mut s_idx,
                    &mut indexed,
                );
                let b =
                    preprocess_into(&scene, cam, ThreadPolicy::default(), &mut s_full, &mut full);
                assert_eq!(a, b, "{path:?}: frame {i} stats diverged");
                assert_eq!(
                    indexed.len(),
                    full.len(),
                    "{path:?}: frame {i} visible count diverged"
                );
                for (k, (x, y)) in indexed.iter().zip(&full).enumerate() {
                    assert_eq!(x, y, "{path:?}: frame {i} splat {k} diverged");
                }
            }
            let cs = cull.stats();
            assert_eq!(cs.frames, 6);
            assert!(
                cs.gaussians_skipped + cs.gaussians_refreshed + cs.gaussians_reprojected > 0,
                "{path:?}: no per-Gaussian decisions recorded: {cs:?}"
            );
        }
    }

    /// The translation bound must actually fire on a flythrough: frames
    /// after the first replay cached covariance products.
    #[test]
    fn indexed_preprocess_refreshes_under_translation() {
        use crate::camera::CameraPath;
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05); // Lego
        let index = SceneIndex::build(&scene.gaussians);
        let path = CameraPath::flythrough(
            scene.center + crate::math::Vec3::new(0.0, 1.0, scene.view_radius),
            scene.center,
            scene.view_radius * 0.005,
            scene.view_radius * 0.002,
        );
        let cams = path.cameras(5, 128, 96, 1.0);
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        for cam in &cams {
            preprocess_into_indexed(
                &scene,
                cam,
                ThreadPolicy::default(),
                &index,
                &mut cull,
                &mut scratch,
                &mut out,
            );
        }
        let cs = cull.stats();
        assert!(
            cs.gaussians_refreshed > cs.gaussians_reprojected,
            "flythrough frames 2..5 should be cache hits: {cs:?}"
        );
    }

    /// The indexed path is bit-exact for every threading policy, like the
    /// full path.
    #[test]
    fn indexed_parallel_matches_indexed_serial() {
        let scene = EVALUATED_SCENES[1].generate_scaled(0.05);
        let cam = scene.default_camera();
        let index = SceneIndex::build(&scene.gaussians);
        let run = |policy: ThreadPolicy| {
            let mut cull = CullState::default();
            let mut scratch = PreprocessScratch::default();
            let mut out = Vec::new();
            let stats = preprocess_into_indexed(
                &scene,
                &cam,
                policy,
                &index,
                &mut cull,
                &mut scratch,
                &mut out,
            );
            (stats, out)
        };
        let (ref_stats, ref_out) = run(ThreadPolicy::serial());
        for policy in [
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 5 },
            ThreadPolicy::default(),
        ] {
            let (stats, out) = run(policy);
            assert_eq!(stats, ref_stats, "{policy:?}");
            assert_eq!(out, ref_out, "{policy:?}: splat stream diverged");
        }
    }

    /// A `CullState` reused across two different (same-length) scenes must
    /// auto-invalidate when handed the second scene's index: replaying the
    /// first scene's cached covariance products would be silently wrong.
    #[test]
    fn cull_state_invalidates_when_repaired_with_another_index() {
        let scene_a = EVALUATED_SCENES[4].generate_scaled(0.04);
        let mut scene_b = scene_a.clone();
        for g in &mut scene_b.gaussians {
            g.mean.x += 0.35; // same length, different cloud
        }
        let cam = scene_a.default_camera();
        let index_a = SceneIndex::build(&scene_a.gaussians);
        let index_b = SceneIndex::build(&scene_b.gaussians);
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        // Warm the covariance cache on scene A (two frames, same camera —
        // the second is a pure-translation delta, all cache hits).
        for _ in 0..2 {
            preprocess_into_indexed(
                &scene_a,
                &cam,
                ThreadPolicy::default(),
                &index_a,
                &mut cull,
                &mut scratch,
                &mut out,
            );
        }
        assert!(cull.stats().gaussians_refreshed > 0);
        // Same camera, same cloud size, *different* scene: without the
        // pairing guard the epoch would hold and scene A's products would
        // be replayed for scene B's Gaussians.
        let stats_b = preprocess_into_indexed(
            &scene_b,
            &cam,
            ThreadPolicy::default(),
            &index_b,
            &mut cull,
            &mut scratch,
            &mut out,
        );
        let mut full_scratch = PreprocessScratch::default();
        let mut full = Vec::new();
        let full_stats = preprocess_into(
            &scene_b,
            &cam,
            ThreadPolicy::default(),
            &mut full_scratch,
            &mut full,
        );
        assert_eq!(stats_b, full_stats);
        assert_eq!(out, full, "stale covariance cache leaked across scenes");
    }

    /// A camera whose view translation is non-finite still forms a round
    /// of one: the leader is admitted by its own bits (every span
    /// comparison is false for NaN), and the frame matches the full path.
    #[test]
    fn non_finite_camera_is_its_own_round() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
        let index = SceneIndex::build(&scene.gaussians);
        let cam = Camera::look_at(
            crate::math::Vec3::new(f32::INFINITY, 0.0, 0.0),
            crate::math::Vec3::ZERO,
            64,
            48,
            1.0,
        );
        let mut out = Vec::new();
        let stats = preprocess_into_indexed(
            &scene,
            &cam,
            ThreadPolicy::default(),
            &index,
            &mut CullState::default(),
            &mut PreprocessScratch::default(),
            &mut out,
        );
        let full = preprocess(&scene, &cam);
        assert_eq!(stats, full.stats);
        assert_eq!(out, full.splats);
    }

    #[test]
    #[should_panic(expected = "different scene")]
    fn indexed_preprocess_rejects_mismatched_index() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
        let mut other = scene.clone();
        other.gaussians[0].mean.x += 10.0;
        let index = SceneIndex::build(&other.gaussians);
        let _ = preprocess_into_indexed(
            &scene,
            &scene.default_camera(),
            ThreadPolicy::default(),
            &index,
            &mut CullState::default(),
            &mut PreprocessScratch::default(),
            &mut Vec::new(),
        );
    }

    #[test]
    fn scratch_reuse_is_stable_across_frames() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05);
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        let cams = scene.viewpoints(3);
        for cam in &cams {
            let stats =
                preprocess_into(&scene, cam, ThreadPolicy::default(), &mut scratch, &mut out);
            let fresh = preprocess(&scene, cam);
            assert_eq!(stats, fresh.stats);
            assert_eq!(out.len(), fresh.splats.len());
        }
    }
}
