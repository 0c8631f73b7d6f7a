//! Frame-sequence workloads with temporal coherence — the paper's actual
//! deployment scenario. VR-Pipe's per-frame early termination only pays
//! off across a *stream* of temporally coherent frames, so this module
//! turns the single-frame renderers into sequence renderers:
//!
//! * a [`SequenceConfig`] pairs a [`CameraPath`] (orbit, flythrough with
//!   velocity/shake, stereo eye pairs) with a frame budget and viewport;
//! * a [`Session`] preprocesses each frame into persistent scratch — the
//!   depth sort warm-starts from the previous frame's near-sorted order
//!   through [`gsplat::sort::IncrementalSorter`] (bit-exact with the
//!   from-scratch sort), and projection chunks, sort buffers and the
//!   splat list all survive across frames;
//! * any backend renders the frames: [`Session::render_frame`] hands one
//!   frame's preprocessed splats to a caller closure (the three
//!   `swrender` backends plug in here). The simulated hardware pipeline
//!   is one such closure: [`Session::run_vrpipe`] draws every frame
//!   through [`try_draw_in_place`] into render targets and a
//!   [`DrawScratch`] the closure owns — zero steady-state allocation, and
//!   an error (never a panic) on bad configurations.
//!
//! Every frame of a sequence is bit-exact with rendering that frame in
//! isolation: the temporal machinery accelerates, it never approximates
//! (DESIGN.md §6).

use std::sync::{Arc, OnceLock};

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gpu_sim::tiles::Tiling;
use gsplat::camera::{Camera, CameraPath};
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::index::{cloud_fingerprint, CullState, CullStats, SceneIndex};
use gsplat::preprocess::{
    preprocess_frame, PreprocessMode, PreprocessRequest, PreprocessScratch, PreprocessStats,
};
use gsplat::scene::Scene;
use gsplat::sort::ResortStats;
use gsplat::splat::Splat;
use gsplat::ThreadPolicy;

use crate::pipeline::{try_draw_in_place, DrawError, DrawScratch};
use crate::variant::PipelineVariant;

/// One frame-sequence workload: a camera trajectory, a frame budget and a
/// viewport.
///
/// # Examples
///
/// ```
/// use gsplat::camera::CameraPath;
/// use gsplat::math::Vec3;
/// use vrpipe::SequenceConfig;
/// let cfg = SequenceConfig::new(
///     CameraPath::orbit(Vec3::ZERO, 4.0, 1.5, 0.25),
///     16,
///     160,
///     120,
/// );
/// assert_eq!(cfg.frames, 16);
/// assert!(cfg.temporal);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceConfig {
    /// The camera trajectory.
    pub path: CameraPath,
    /// Number of frames to render.
    pub frames: usize,
    /// Viewport width in pixels.
    pub width: u32,
    /// Viewport height in pixels.
    pub height: u32,
    /// Vertical field of view in radians.
    pub fov_y: f32,
    /// Warm-start the depth sort from the previous frame (`true`, the
    /// point of a sequence) or re-sort every frame from scratch (`false`,
    /// the A/B baseline). Results are bit-exact either way.
    pub temporal: bool,
    /// Preprocess through the spatial index ([`gsplat::index`]): per-cell
    /// frustum classification skips provably-culled cells and replays
    /// cached covariance work under the camera-delta bound. Implies the
    /// temporal warm-started sort. Results are bit-exact with the full
    /// path — only preprocessing cost changes.
    pub indexed: bool,
    /// SH evaluation degree cap for view-dependent color (the quality
    /// ladder's color knob; [`gsplat::sh::MAX_SH_DEGREE`] = no clamp).
    /// Frames rendered under a cap are bit-exact with a scene whose SH
    /// coefficients were truncated to the same degree.
    pub max_sh_degree: u8,
    /// Quality-ladder rung this configuration was derived at (0 = full
    /// quality). Purely descriptive: it tags every
    /// [`SequenceFrameRecord`] so served frames can be audited against a
    /// solo session at the same rung; it does not change any render math.
    pub rung: u8,
}

impl SequenceConfig {
    /// A sequence over `path` with the default 55° field of view and the
    /// temporal fast path enabled.
    pub fn new(path: CameraPath, frames: usize, width: u32, height: u32) -> Self {
        Self {
            path,
            frames,
            width,
            height,
            fov_y: 55f32.to_radians(),
            temporal: true,
            indexed: false,
            max_sh_degree: gsplat::sh::MAX_SH_DEGREE,
            rung: 0,
        }
    }

    /// The same sequence with the SH evaluation degree capped.
    pub fn with_max_sh_degree(mut self, max_sh_degree: u8) -> Self {
        self.max_sh_degree = max_sh_degree;
        self
    }

    /// The same sequence with the temporal warm start disabled.
    pub fn full_sort(mut self) -> Self {
        self.temporal = false;
        self
    }

    /// The same sequence with incremental spatially indexed preprocessing
    /// enabled.
    pub fn with_index(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// Everything a backend needs to render one frame of a sequence: the
/// camera, the front-to-back sorted splats and the preprocessing
/// counters.
pub struct FrameInput<'a> {
    /// Frame index within the sequence.
    pub index: usize,
    /// This frame's camera.
    pub camera: &'a Camera,
    /// Visible splats, sorted front-to-back.
    pub splats: &'a [Splat],
    /// Preprocessing statistics of this frame.
    pub preprocess: PreprocessStats,
    /// This frame's incremental-culling counters (all zero unless
    /// [`SequenceConfig::indexed`] is set).
    pub cull: CullStats,
    /// Quality-ladder rung of the configuration this frame was rendered
    /// at, copied from [`SequenceConfig::rung`].
    pub rung: u8,
}

/// Per-frame record of a [`Session::run_vrpipe`] sequence.
#[derive(Debug, Clone)]
pub struct SequenceFrameRecord {
    /// Frame index within the sequence.
    pub index: usize,
    /// Preprocessing counters.
    pub preprocess: PreprocessStats,
    /// Draw-call statistics.
    pub stats: PipelineStats,
    /// Fraction of screen tiles fully retired by early termination in
    /// `[0, 1]` (0 for non-HET variants) — the retired-ratio trajectory
    /// across the sequence.
    pub retired_tile_ratio: f64,
    /// Incremental-culling counters of this frame (all zero unless the
    /// sequence ran with [`SequenceConfig::indexed`]).
    pub cull: CullStats,
    /// Quality-ladder rung the frame was rendered at, copied from
    /// [`SequenceConfig::rung`] (0 = full quality).
    pub rung: u8,
}

/// A frame-sequence rendering session: owns every cross-frame buffer so an
/// N-frame sequence allocates like a single frame.
///
/// The session is backend-agnostic — [`Session::run`] preprocesses each
/// frame (temporal warm-started sort, persistent scratch) and hands a
/// [`FrameInput`] to the caller's render closure. [`Session::run_vrpipe`]
/// runs the built-in hardware-pipeline closure.
///
/// # Examples
///
/// ```
/// use gsplat::camera::CameraPath;
/// use gsplat::scene::EVALUATED_SCENES;
/// use vrpipe::{SequenceConfig, Session};
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let cfg = SequenceConfig::new(
///     CameraPath::orbit(scene.center, scene.view_radius, 1.0, 0.02),
///     4,
///     96,
///     72,
/// );
/// let mut session = Session::default();
/// let counts = session.run(&scene, &cfg, |f| f.splats.len());
/// assert_eq!(counts.len(), 4);
/// assert!(session.resort_stats().repaired > 0);
/// ```
#[derive(Debug, Default)]
pub struct Session {
    policy: ThreadPolicy,
    pre: PreprocessScratch,
    splats: Vec<Splat>,
    /// Spatial index for [`SequenceConfig::indexed`] sequences. Either
    /// this session's own (built lazily per scene, fingerprint-guarded,
    /// reused across runs) or a [`SharedScene`]'s — shared immutable
    /// per-scene data behind an `Arc`, while everything else in the
    /// session is per-stream state.
    index: Option<Arc<SceneIndex>>,
    /// Temporal culling state paired with `index`: per-round
    /// classification and the epoch-tagged covariance cache follow *this*
    /// stream's cameras. A solo frame is a round of one; a stereo pair
    /// ([`Session::render_stereo_pair`]) or a served batch this session
    /// leads is a round of several.
    cull: CullState,
}

impl Session {
    /// A session with an explicit host threading policy.
    pub fn new(policy: ThreadPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Counters of the incremental re-sort across the frames run so far.
    pub fn resort_stats(&self) -> ResortStats {
        self.pre.resort_stats()
    }

    /// Counters of the incremental (indexed) preprocess across the rounds
    /// this session's [`CullState`] ran so far — cells and Gaussians
    /// skipped, refreshed, re-projected. Cell counters advance once per
    /// round, so a stereo pair rendered as one round counts its cells
    /// once.
    pub fn cull_stats(&self) -> CullStats {
        self.cull.stats()
    }

    /// This session's own cull state — the serve scheduler borrows it out
    /// for a round of several cameras this stream leads.
    pub(crate) fn cull_mut(&mut self) -> &mut CullState {
        &mut self.cull
    }

    /// Forgets the temporal warm start: the sorter's warm-start order and
    /// the [`CullState`]'s classification history / covariance-cache
    /// epochs. Call on a scene or camera cut — and after any run that did
    /// **not** complete cleanly (the serve scheduler calls this when it
    /// rewinds an evicted or failed stream, so a rerun is provably
    /// bit-exact from frame 0 even if the aborted run left mid-frame
    /// state behind).
    pub fn invalidate_temporal(&mut self) {
        self.pre.invalidate_temporal();
        self.cull.invalidate();
    }

    /// Drops the cached spatial index (call when the scene's Gaussians
    /// changed in place; a different scene is detected automatically by
    /// fingerprint).
    pub fn invalidate_index(&mut self) {
        self.index = None;
        self.cull = CullState::default();
    }

    /// The spatial index this session currently holds — its own or a
    /// [`SharedScene`]'s. `Arc::ptr_eq` against [`SharedScene::index`]
    /// tells the two apart; `None` until an indexed run prepared one.
    pub fn scene_index(&self) -> Option<&Arc<SceneIndex>> {
        self.index.as_ref()
    }

    /// Adopts `index` as this session's spatial index — the sharing seam:
    /// N sessions over one scene each adopt one [`SharedScene`]'s
    /// `Arc<SceneIndex>` instead of building N copies. A no-op when the
    /// session already holds this exact allocation. The per-stream
    /// [`CullState`] is kept: it re-pairs by fingerprint on the next
    /// frame, and cached covariance products stay valid across
    /// same-fingerprint index swaps (they depend only on the cloud bits).
    pub fn attach_index(&mut self, index: Arc<SceneIndex>) {
        if self
            .index
            .as_ref()
            .is_some_and(|own| Arc::ptr_eq(own, &index))
        {
            return;
        }
        self.index = Some(index);
    }

    /// Prepares the session for `cfg` over `scene`: for indexed sequences,
    /// builds (or rebuilds) the session's own spatial index when it has
    /// not seen this scene before. The fingerprint guard catches both a
    /// session re-pointed at a different scene and an in-place mutation of
    /// the same cloud between runs; an unchanged scene provably reuses the
    /// existing allocation (`Arc::ptr_eq` holds across runs).
    ///
    /// [`Session::run`]/[`Session::run_vrpipe`] call this implicitly; it
    /// is public for callers that step frames manually through
    /// [`Session::render_frame`].
    pub fn prepare(&mut self, scene: &Scene, cfg: &SequenceConfig) {
        if !cfg.indexed {
            return;
        }
        let fp = cloud_fingerprint(&scene.gaussians);
        if self.index.as_ref().map(|i| i.fingerprint()) != Some(fp) {
            self.index = Some(Arc::new(SceneIndex::build(&scene.gaussians)));
            self.cull = CullState::default();
        }
    }

    /// [`Session::prepare`] against a [`SharedScene`]: indexed sequences
    /// adopt the shared `Arc<SceneIndex>` (building it on first use)
    /// instead of constructing a private copy.
    pub fn prepare_shared(&mut self, shared: &SharedScene, cfg: &SequenceConfig) {
        if cfg.indexed {
            self.attach_index(Arc::clone(shared.index()));
        }
    }

    /// Preprocesses frame `index` of the sequence and hands it to `render`
    /// — the single-frame body of [`Session::run`], public so external
    /// schedulers (the [`crate::serve`] server) can interleave frames of
    /// many sessions. For indexed sequences the index must already be in
    /// place ([`Session::prepare`] or [`Session::prepare_shared`]).
    ///
    /// With `round: None` the frame is a round of one on this session's
    /// own [`CullState`], and [`FrameInput::cull`] covers the
    /// classification pass it paid for. With `Some(round)` the frame is
    /// one member of a round of several cameras: preprocessing replays
    /// `round`'s shared classification pass and covariance cache. The
    /// caller owns that round protocol — `round.begin_round` must have run
    /// over a camera group this frame's camera belongs to (the
    /// [`crate::serve`] scheduler and [`Session::render_stereo_pair`] do
    /// this) — and `FrameInput::cull` reports only this member's emission
    /// counters. Either way the emitted frame is bit-exact.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.indexed` is set but no index was prepared, when a
    /// `round` is given for a config that is not indexed, or when the
    /// camera falls outside the round (see
    /// [`gsplat::preprocess::preprocess_frame`]).
    // vrlint: hot
    pub fn render_frame<R>(
        &mut self,
        scene: &Scene,
        cfg: &SequenceConfig,
        index: usize,
        round: Option<&mut CullState>,
        render: impl FnOnce(FrameInput<'_>) -> R,
    ) -> R {
        let solo = round.is_none();
        assert!(
            cfg.indexed || solo,
            "a round of several requires an indexed sequence config"
        );
        let camera = cfg
            .path
            .camera(index, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
        let cull = round.unwrap_or(&mut self.cull);
        // A solo frame snapshots before its own round of one, so its
        // `FrameInput::cull` covers the classification pass it paid for.
        let cull_before = cull.stats();
        let mode = if cfg.indexed {
            let index = self
                .index
                .as_deref()
                // vrlint: allow(VL01, reason = "documented precondition: prepare()/prepare_shared() builds the index before any indexed frame")
                .expect("indexed sequence: call prepare()/prepare_shared() first");
            if solo {
                cull.begin_round(index, std::slice::from_ref(&camera));
            }
            PreprocessMode::Indexed {
                index,
                cull: &mut *cull,
            }
        } else if cfg.temporal {
            PreprocessMode::Temporal
        } else {
            PreprocessMode::Full
        };
        let request = PreprocessRequest {
            policy: self.policy,
            max_sh_degree: cfg.max_sh_degree,
            mode,
        };
        let preprocess = preprocess_frame(scene, &camera, request, &mut self.pre, &mut self.splats);
        let cull = cull.stats().delta_since(&cull_before);
        render(FrameInput {
            index,
            camera: &camera,
            splats: &self.splats,
            preprocess,
            cull,
            rung: cfg.rung,
        })
    }

    /// Renders `cfg.frames` frames of `scene` along the configured path,
    /// calling `render` once per frame with the preprocessed
    /// [`FrameInput`]. Preprocessing reuses all scratch across frames; the
    /// backend owns whatever per-frame state it needs inside the closure.
    pub fn run<R>(
        &mut self,
        scene: &Scene,
        cfg: &SequenceConfig,
        mut render: impl FnMut(FrameInput<'_>) -> R,
    ) -> Vec<R> {
        self.prepare(scene, cfg);
        (0..cfg.frames)
            .map(|i| self.render_frame(scene, cfg, i, None, &mut render))
            .collect()
    }

    /// Renders stereo pair `pair` — frames `2*pair` (left eye) and
    /// `2*pair + 1` (right eye) — through `render`. On an indexed stereo
    /// sequence the two eyes share the translation bound by construction
    /// ([`Camera::is_translation_of`]), so the pair runs as one two-camera
    /// round on the session's [`CullState`]: one cell-classification pass
    /// and one covariance-cache replay serve both eyes. When the bound
    /// does not hold (a path that is not stereo) or the sequence is not
    /// indexed, each eye is its own round of one instead — either way,
    /// both frames are bit-exact with [`Session::render_frame`] on the
    /// same frame index.
    pub fn render_stereo_pair<R>(
        &mut self,
        scene: &Scene,
        cfg: &SequenceConfig,
        pair: usize,
        mut render: impl FnMut(FrameInput<'_>) -> R,
    ) -> (R, R) {
        let (l, r) = (2 * pair, 2 * pair + 1);
        let left = cfg
            .path
            .camera(l, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
        let right = cfg
            .path
            .camera(r, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
        let index = match self.index.as_ref() {
            Some(index) if cfg.indexed && right.is_translation_of(&left) => Arc::clone(index),
            _ => {
                let a = self.render_frame(scene, cfg, l, None, &mut render);
                let b = self.render_frame(scene, cfg, r, None, &mut render);
                return (a, b);
            }
        };
        // Take the cull state out so the frame calls can borrow `self`
        // mutably alongside the round.
        let mut round = std::mem::take(&mut self.cull);
        round.begin_round(&index, &[left, right]);
        let a = self.render_frame(scene, cfg, l, Some(&mut round), &mut render);
        let b = self.render_frame(scene, cfg, r, Some(&mut round), &mut render);
        self.cull = round;
        (a, b)
    }

    /// Renders the sequence through the simulated hardware pipeline
    /// (`gpu`/`variant`), reusing one [`DrawScratch`] and one pair of
    /// render targets across all frames. Returns per-frame records, or
    /// the first [`DrawError`]: an invalid configuration is rejected
    /// here, before any frame is preprocessed, instead of panicking
    /// mid-sequence.
    pub fn run_vrpipe(
        &mut self,
        scene: &Scene,
        cfg: &SequenceConfig,
        gpu: &GpuConfig,
        variant: PipelineVariant,
    ) -> Result<Vec<SequenceFrameRecord>, DrawError> {
        gpu.validate().map_err(DrawError::InvalidConfig)?;
        self.prepare(scene, cfg);
        let mut draw = VrPipeDraw::new(gpu.clone(), variant);
        (0..cfg.frames)
            .map(|i| self.render_frame(scene, cfg, i, None, |f| draw.draw(f)))
            .collect()
    }
}

/// The simulated hardware pipeline as a frame backend: draws each
/// [`FrameInput`] through [`try_draw_in_place`] into render targets and a
/// [`DrawScratch`] it owns, so a whole sequence allocates like one frame.
/// [`Session::run_vrpipe`] and `StreamSpec::vrpipe` both render through
/// it.
#[derive(Debug)]
pub(crate) struct VrPipeDraw {
    gpu: GpuConfig,
    variant: PipelineVariant,
    scratch: DrawScratch,
    /// Color and depth/stencil targets, created on the first frame and
    /// resized when the camera's viewport changes (a quality-ladder rung
    /// switch). The draw resets both on every frame.
    targets: Option<(ColorBuffer, DepthStencilBuffer)>,
}

impl VrPipeDraw {
    /// A backend drawing with `gpu` through `variant`.
    pub(crate) fn new(gpu: GpuConfig, variant: PipelineVariant) -> Self {
        Self {
            gpu,
            variant,
            scratch: DrawScratch::default(),
            targets: None,
        }
    }

    /// Draws one frame and records its statistics.
    // vrlint: hot
    pub(crate) fn draw(&mut self, f: FrameInput<'_>) -> Result<SequenceFrameRecord, DrawError> {
        let (width, height) = (f.camera.width(), f.camera.height());
        let format = self.gpu.pixel_format;
        let (color, ds) = self.targets.get_or_insert_with(|| {
            (
                ColorBuffer::new(width, height, format),
                DepthStencilBuffer::new(width, height),
            )
        });
        if (color.width(), color.height()) != (width, height) {
            color.reset(width, height, format);
            ds.reset(width, height);
        }
        let stats = try_draw_in_place(
            f.splats,
            &self.gpu,
            self.variant,
            color,
            ds,
            &mut self.scratch,
        )?;
        // A camera's viewport is never empty, so there is at least one tile.
        let tiles = Tiling::new(
            width,
            height,
            self.gpu.screen_tile_px,
            self.gpu.tile_grid_tiles,
        )
        .tile_count();
        Ok(SequenceFrameRecord {
            index: f.index,
            preprocess: f.preprocess,
            retired_tile_ratio: stats.retired_tiles as f64 / tiles as f64,
            stats,
            cull: f.cull,
            rung: f.rung,
        })
    }
}

/// The immutable per-scene half of a multi-stream workload: the scene and
/// its lazily built, fingerprint-guarded [`SceneIndex`], shared behind
/// `Arc`s by every [`Session`] that streams views of it.
///
/// The split mirrors what each piece of state depends on: everything in
/// here is a pure function of the Gaussian cloud (grid cells, per-Gaussian
/// camera-invariant caches, the content fingerprint), so N head-tracked
/// streams of one scene can read it concurrently — while everything that
/// follows a *camera* (frame classification, the epoch-tagged covariance
/// cache, sorter warm starts, render targets) stays per-stream inside each
/// `Session`.
///
/// # Examples
///
/// ```
/// use gsplat::scene::EVALUATED_SCENES;
/// use std::sync::Arc;
/// use vrpipe::SharedScene;
/// let shared = SharedScene::new(EVALUATED_SCENES[4].generate_scaled(0.04));
/// let a = Arc::clone(shared.index());
/// let b = Arc::clone(shared.index());
/// assert!(Arc::ptr_eq(&a, &b)); // built once, shared forever
/// ```
#[derive(Debug)]
pub struct SharedScene {
    scene: Arc<Scene>,
    /// Content fingerprint of `scene`, computed once at construction.
    fingerprint: u64,
    /// The shared spatial index, built on first [`SharedScene::index`]
    /// call. `OnceLock` keeps `SharedScene: Sync` so worker threads can
    /// race the first build safely (one winner, same bits either way).
    index: OnceLock<Arc<SceneIndex>>,
}

impl SharedScene {
    /// Wraps `scene` for sharing, computing its content fingerprint once.
    pub fn new(scene: Scene) -> Self {
        Self::from_arc(Arc::new(scene))
    }

    /// [`SharedScene::new`] over an existing `Arc<Scene>` (no clone).
    pub fn from_arc(scene: Arc<Scene>) -> Self {
        let fingerprint = cloud_fingerprint(&scene.gaussians);
        Self {
            scene,
            fingerprint,
            index: OnceLock::new(),
        }
    }

    /// The wrapped scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// A handle to the wrapped scene (for moving into worker tasks).
    pub fn scene_arc(&self) -> Arc<Scene> {
        Arc::clone(&self.scene)
    }

    /// Content fingerprint of the wrapped scene (see
    /// [`cloud_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shared spatial index, built exactly once on first use. The
    /// build is fingerprint-guarded by construction: the scene behind the
    /// `Arc` is immutable while shared, so the index's fingerprint always
    /// matches [`SharedScene::fingerprint`] (checked here so a violation
    /// — e.g. interior mutability smuggled into `Scene` — fails loudly
    /// instead of serving a stale index).
    pub fn index(&self) -> &Arc<SceneIndex> {
        let index = self
            .index
            .get_or_init(|| Arc::new(SceneIndex::build(&self.scene.gaussians)));
        assert_eq!(
            index.fingerprint(),
            self.fingerprint,
            "shared scene mutated after its index was built"
        );
        index
    }

    /// The shared index if some caller already built it.
    pub fn index_if_built(&self) -> Option<&Arc<SceneIndex>> {
        self.index.get()
    }

    /// A fresh per-stream [`Session`] prepared for `cfg` over this scene:
    /// indexed configurations adopt the shared index instead of building
    /// their own.
    pub fn session(&self, policy: ThreadPolicy, cfg: &SequenceConfig) -> Session {
        let mut session = Session::new(policy);
        session.prepare_shared(self, cfg);
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::draw;
    use gsplat::math::Vec3;
    use gsplat::scene::EVALUATED_SCENES;

    /// A frame-coherent orbit: ~0.7° of arc per frame, the granularity of
    /// a real frame loop (a full turn would span ~500 frames; even this is
    /// coarse next to 90 fps head motion).
    fn orbit_cfg(scene: &Scene, frames: usize) -> SequenceConfig {
        SequenceConfig::new(
            CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.002 * frames as f32),
            frames,
            96,
            72,
        )
    }

    #[test]
    fn sequence_frames_match_isolated_renders_bit_exactly() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
        let cfg = orbit_cfg(&scene, 6);
        let mut session = Session::default();
        let records = session
            .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::HetQm)
            .unwrap();
        assert_eq!(records.len(), 6);
        // Re-render each frame in isolation: identical stats.
        for (i, rec) in records.iter().enumerate() {
            let cam = cfg
                .path
                .camera(i, cfg.frames, cfg.width, cfg.height, cfg.fov_y);
            let pre = gsplat::preprocess::preprocess(&scene, &cam);
            let fresh = draw(
                &pre.splats,
                cfg.width,
                cfg.height,
                &GpuConfig::default(),
                PipelineVariant::HetQm,
            );
            assert_eq!(rec.stats, fresh.stats, "frame {i}");
            assert_eq!(rec.preprocess.visible_splats, pre.stats.visible_splats);
        }
        // The coherent orbit must exercise the repair fast path.
        assert!(session.resort_stats().repaired > 0);
    }

    #[test]
    fn temporal_and_full_sort_sequences_are_identical() {
        let scene = EVALUATED_SCENES[2].generate_scaled(0.04);
        let cfg = orbit_cfg(&scene, 5);
        let full = cfg.clone().full_sort();
        let mut a = Session::default();
        let mut b = Session::default();
        let ra = a
            .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::Het)
            .unwrap();
        let rb = b
            .run_vrpipe(&scene, &full, &GpuConfig::default(), PipelineVariant::Het)
            .unwrap();
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.stats, y.stats, "frame {}", x.index);
            assert_eq!(x.preprocess, y.preprocess);
        }
        assert!(a.resort_stats().repaired > 0);
        assert_eq!(b.resort_stats().frames, 0, "full sort bypasses the sorter");
    }

    #[test]
    fn run_vrpipe_surfaces_config_errors() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        let cfg = orbit_cfg(&scene, 3);
        let bad = GpuConfig {
            tgc_bins: 0,
            ..GpuConfig::default()
        };
        let err = Session::default()
            .run_vrpipe(&scene, &cfg, &bad, PipelineVariant::HetQm)
            .unwrap_err();
        assert!(matches!(err, DrawError::InvalidConfig(_)));
    }

    #[test]
    fn stereo_sequence_produces_left_right_pairs() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        let path = CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.1).stereo(0.065);
        let cfg = SequenceConfig::new(path, 8, 96, 72);
        let mut session = Session::default();
        let eyes = session.run(&scene, &cfg, |f| f.camera.eye());
        assert_eq!(eyes.len(), 8);
        for k in 0..4 {
            let sep = (eyes[2 * k] - eyes[2 * k + 1]).length();
            assert!((sep - 0.065).abs() < 1e-3, "pair {k}: separation {sep}");
        }
    }

    #[test]
    fn shaky_flythrough_still_repairs() {
        let scene = EVALUATED_SCENES[2].generate_scaled(0.04); // Train
        let start = scene.center + Vec3::new(0.0, 1.8, scene.view_radius);
        let path = CameraPath::flythrough(start, scene.center, 0.02, 0.01);
        let cfg = SequenceConfig::new(path, 8, 96, 72);
        let mut session = Session::default();
        let records = session
            .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::HetQm)
            .unwrap();
        assert_eq!(records.len(), 8);
        let rs = session.resort_stats();
        assert!(
            rs.repaired >= rs.radix_fallbacks,
            "coherent flythrough should mostly repair: {rs:?}"
        );
        for rec in &records {
            assert!(rec.retired_tile_ratio >= 0.0 && rec.retired_tile_ratio <= 1.0);
        }
    }

    #[test]
    fn indexed_sequence_matches_full_sequence_bit_exactly() {
        let scene = EVALUATED_SCENES[2].generate_scaled(0.04);
        let start = scene.center + Vec3::new(0.0, 1.8, scene.view_radius);
        let path = CameraPath::flythrough(start, scene.center, 0.02, 0.01);
        let cfg = SequenceConfig::new(path, 6, 96, 72);
        let indexed_cfg = cfg.clone().with_index();
        let mut full = Session::default();
        let mut indexed = Session::default();
        let rf = full
            .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::HetQm)
            .unwrap();
        let ri = indexed
            .run_vrpipe(
                &scene,
                &indexed_cfg,
                &GpuConfig::default(),
                PipelineVariant::HetQm,
            )
            .unwrap();
        for (a, b) in rf.iter().zip(&ri) {
            assert_eq!(a.stats, b.stats, "frame {}", a.index);
            assert_eq!(a.preprocess, b.preprocess, "frame {}", a.index);
        }
        // The full sequence records zero cull activity; the indexed one
        // must report per-frame decisions that add up to the session total.
        assert!(rf.iter().all(|r| r.cull == gsplat::CullStats::default()));
        let cs = indexed.cull_stats();
        assert_eq!(cs.frames, 6);
        assert_eq!(
            ri.iter().map(|r| r.cull.gaussians_touched()).sum::<u64>(),
            cs.gaussians_touched()
        );
        // Coherent flythrough: the translation bound must fire.
        assert!(
            cs.gaussians_refreshed > 0,
            "no covariance cache hits on a flythrough: {cs:?}"
        );
    }

    #[test]
    fn indexed_session_reuses_and_rebuilds_the_index() {
        let scene_a = EVALUATED_SCENES[4].generate_scaled(0.03);
        let scene_b = EVALUATED_SCENES[5].generate_scaled(0.03);
        let mut session = Session::default();
        let run_on = |session: &mut Session, scene: &Scene| {
            let cfg = orbit_cfg(scene, 2).with_index();
            session.run(scene, &cfg, |f| f.splats.len());
        };
        run_on(&mut session, &scene_a);
        let frames_a = session.cull_stats().frames;
        // A different scene must rebuild (fingerprint mismatch) and reset
        // the temporal culling state rather than reusing stale cells.
        run_on(&mut session, &scene_b);
        assert_eq!(session.cull_stats().frames, 2);
        assert_eq!(frames_a, 2);
        // Re-running the same scene keeps accumulating.
        run_on(&mut session, &scene_b);
        assert_eq!(session.cull_stats().frames, 4);
        // Explicit invalidation drops everything.
        session.invalidate_index();
        assert_eq!(session.cull_stats().frames, 0);
        // And the results still match a fresh full session.
        let cfg = orbit_cfg(&scene_b, 2);
        let counts_full = Session::default().run(&scene_b, &cfg, |f| f.splats.len());
        let counts_indexed = session.run(&scene_b, &cfg.clone().with_index(), |f| f.splats.len());
        assert_eq!(counts_full, counts_indexed);
    }

    /// Regression: the fingerprint guard must (a) provably reuse the same
    /// `Arc<SceneIndex>` allocation across runs of an unchanged scene,
    /// (b) rebuild when the scene's Gaussians are mutated in place between
    /// runs, and (c) drop everything on `invalidate_index`.
    #[test]
    fn index_reuses_arc_until_scene_mutates() {
        let mut scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        let cfg = orbit_cfg(&scene, 2).with_index();
        let mut session = Session::default();
        session.run(&scene, &cfg, |f| f.splats.len());
        let first = Arc::clone(session.scene_index().expect("indexed run built an index"));
        // Unchanged scene: the next run must reuse the very allocation.
        session.run(&scene, &cfg, |f| f.splats.len());
        assert!(
            Arc::ptr_eq(&first, session.scene_index().unwrap()),
            "unchanged scene rebuilt its index"
        );
        // In-place mutation: the fingerprint changes, so the next run must
        // rebuild instead of serving stale cells/caches.
        scene.gaussians[0].mean.x += 0.5;
        let counts = session.run(&scene, &cfg, |f| f.splats.len());
        assert!(
            !Arc::ptr_eq(&first, session.scene_index().unwrap()),
            "mutated scene kept its stale index"
        );
        // And the rebuilt index yields the same result as a fresh session.
        let fresh = Session::default().run(&scene, &cfg, |f| f.splats.len());
        assert_eq!(counts, fresh);
        // Explicit invalidation drops the index outright.
        session.invalidate_index();
        assert!(session.scene_index().is_none());
        // A session attached to a SharedScene adopts its allocation.
        let shared = SharedScene::new(scene.clone());
        session.prepare_shared(&shared, &cfg);
        assert!(Arc::ptr_eq(session.scene_index().unwrap(), shared.index()));
        // prepare() on the same scene keeps the shared allocation (same
        // fingerprint), rather than rebuilding a private copy.
        session.prepare(&scene, &cfg);
        assert!(Arc::ptr_eq(session.scene_index().unwrap(), shared.index()));
    }

    #[test]
    fn indexed_stereo_sequence_is_bit_exact() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        let path = CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.05).stereo(0.065);
        let cfg = SequenceConfig::new(path, 8, 96, 72);
        let mut full = Session::default();
        let mut indexed = Session::default();
        let rf = full
            .run_vrpipe(&scene, &cfg, &GpuConfig::default(), PipelineVariant::Het)
            .unwrap();
        let ri = indexed
            .run_vrpipe(
                &scene,
                &cfg.clone().with_index(),
                &GpuConfig::default(),
                PipelineVariant::Het,
            )
            .unwrap();
        for (a, b) in rf.iter().zip(&ri) {
            assert_eq!(a.stats, b.stats, "frame {}", a.index);
        }
        // Stereo eye pairs share their view direction, so the right eye of
        // every pair is a pure translation of the left: cache hits happen
        // even though the orbit rotates between pairs.
        assert!(indexed.cull_stats().gaussians_refreshed > 0);
    }

    /// [`Session::render_stereo_pair`] must batch every pair (one
    /// classification pass + one covariance replay for both eyes) and stay
    /// bit-exact with rendering each frame solo.
    #[test]
    fn stereo_pair_batches_and_matches_solo_frames() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        // A rotating head: every pair has its own view rotation, and both
        // eyes of a stereo pair share it by construction.
        let path = CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.3).stereo(0.065);
        let cfg = SequenceConfig::new(path, 8, 96, 72).with_index();
        let draw = || VrPipeDraw::new(GpuConfig::default(), PipelineVariant::HetQm);
        let mut solo = Session::default();
        let mut paired = Session::default();
        solo.prepare(&scene, &cfg);
        paired.prepare(&scene, &cfg);
        let mut solo_draw = draw();
        let rf: Vec<_> = (0..cfg.frames)
            .map(|i| {
                solo.render_frame(&scene, &cfg, i, None, |f| solo_draw.draw(f))
                    .unwrap()
            })
            .collect();
        let mut paired_draw = draw();
        for pair in 0..cfg.frames / 2 {
            let (a, b) = paired.render_stereo_pair(&scene, &cfg, pair, |f| paired_draw.draw(f));
            let (a, b) = (a.unwrap(), b.unwrap());
            for (got, want) in [(&a, &rf[2 * pair]), (&b, &rf[2 * pair + 1])] {
                assert_eq!(got.index, want.index);
                assert_eq!(got.stats, want.stats, "frame {}", want.index);
                assert_eq!(got.preprocess, want.preprocess, "frame {}", want.index);
            }
        }
        // Every pair took one two-camera round: the cull state saw all 8
        // frames but classified cells once per pair, where the solo
        // session classified them once per frame.
        let cells = paired.scene_index().unwrap().cell_count() as u64;
        let classified = |s: CullStats| s.cells_skipped + s.cells_refreshed + s.cells_reprojected;
        let ps = paired.cull_stats();
        assert_eq!(ps.frames, cfg.frames as u64);
        assert_eq!(classified(ps), cells * cfg.frames as u64 / 2);
        assert_eq!(classified(solo.cull_stats()), cells * cfg.frames as u64);
        // Batching must actually share covariance work: with one
        // classification round per pair, the second eye replays the
        // first eye's cache.
        assert!(
            ps.gaussians_refreshed > 0,
            "no covariance replay across the pair: {ps:?}"
        );
        // A rotating path falls back to the exact solo path per eye.
        let orbit = SequenceConfig::new(
            CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.3),
            8,
            96,
            72,
        )
        .with_index();
        let mut fallback = Session::default();
        fallback.prepare(&scene, &orbit);
        let mut fallback_draw = draw();
        let (a, b) = fallback.render_stereo_pair(&scene, &orbit, 1, |f| fallback_draw.draw(f));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!((a.index, b.index), (2, 3));
        let fs = fallback.cull_stats();
        assert_eq!(fs.frames, 2);
        assert_eq!(classified(fs), cells * 2, "one round of one per eye");
    }

    #[test]
    fn empty_sequence_is_empty() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.03);
        let cfg = orbit_cfg(&scene, 0);
        let mut session = Session::default();
        let records = session
            .run_vrpipe(
                &scene,
                &cfg,
                &GpuConfig::default(),
                PipelineVariant::Baseline,
            )
            .unwrap();
        assert!(records.is_empty());
        // A session reused across separate run_vrpipe calls is also fine.
        let cfg2 = orbit_cfg(&scene, 2);
        assert_eq!(
            session
                .run_vrpipe(
                    &scene,
                    &cfg2,
                    &GpuConfig::default(),
                    PipelineVariant::Baseline
                )
                .unwrap()
                .len(),
            2
        );
    }
}
