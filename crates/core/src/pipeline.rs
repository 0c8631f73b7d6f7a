//! The hardware graphics pipeline orchestrator: drives one draw call of
//! sorted splats through the unit models (paper Fig. 12) and produces both
//! the rendered image (functional correctness) and per-unit timing
//! (performance), for any [`PipelineVariant`].
//!
//! Flow per primitive (front-to-back draw order):
//!
//! ```text
//! VPO ─→ [TGC (QM)] ─→ Raster (setup/coarse/fine) ─→ TC bins
//!   TC flush ─→ [ZROP termination test (HET)] ─→ PROP [QRU (QM)]
//!     ─→ SM fragment shading (alpha prune, merge) ─→ CROP blending
//!       └─ alpha test unit (HET) ─→ ZROP termination update
//! ```
//!
//! The simulated pipeline is inherently order-dependent (bin evictions,
//! cache state, the flow-shop timer), so the draw loop itself runs
//! serially — but its pure per-primitive prologue (triangle setup, the
//! TGC `(grid, primitive)` key stream) fans out over the host threads in
//! [`GpuConfig::thread_policy`], and every per-primitive / per-flush
//! buffer lives in a reusable [`DrawScratch`], making the steady-state
//! frame loop allocation-free. Simulated results are bit-exact for every
//! `threads` setting.

use gpu_sim::binning::{BinTable, Flush, FlushReason, KeyStream};
use gpu_sim::cache::Cache;
use gpu_sim::config::GpuConfig;
use gpu_sim::quad::{Quad, ShadedQuad};
use gpu_sim::raster::{rasterize_in_tile_into, SplatSetup};
use gpu_sim::stats::{PipelineStats, Unit};
use gpu_sim::tiles::{TileGridId, TileId, Tiling};
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use gsplat::blend::blend_over;
use gsplat::color::Rgba;
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::par::Bands;
use gsplat::splat::Splat;
use gsplat::stream::{FragmentKernel, SplatStream, TileBitset};

use crate::het::{alpha_test, termination_test, termination_update};
use crate::qm::{plan_warps_into, WarpPlan, WarpSlot};
use crate::shading::{merge_pair, premultiplied_fragment, shade_quad, shade_quad_stream};
use crate::variant::PipelineVariant;

/// Result of one simulated draw call.
#[derive(Debug, Clone)]
pub struct DrawOutput {
    /// The rendered (pre-multiplied) color buffer.
    pub color: ColorBuffer,
    /// Final depth/stencil state (termination flags in the MSB).
    pub depth_stencil: DepthStencilBuffer,
    /// Work counters, cache behaviour, cycles and utilisation.
    pub stats: PipelineStats,
}

/// Why a draw call failed. Returned by the fallible
/// [`try_draw`]/[`try_draw_with_scratch`]/[`try_draw_in_place`] entry
/// points and by stream backends behind `vrpipe::serve`; the panicking
/// [`draw`] family unwraps it.
///
/// Implements [`std::error::Error`] + [`std::fmt::Display`], and
/// [`DrawError::is_transient`] classifies errors for retry logic — user
/// code can match on the variants instead of inspecting strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrawError {
    /// The [`GpuConfig`] failed [`GpuConfig::validate`]; the payload is
    /// the validator's description of the first violation.
    InvalidConfig(String),
    /// The caller-owned color and depth/stencil targets disagree on their
    /// dimensions (`(width, height)` of each).
    TargetMismatch {
        /// Color-buffer dimensions.
        color: (u32, u32),
        /// Depth/stencil-buffer dimensions.
        depth_stencil: (u32, u32),
    },
    /// A runtime backend fault: the stream's renderer (or an injected
    /// fault, see `vrpipe::serve::faults`) failed while producing a frame.
    /// `transient` marks faults worth retrying (momentary resource
    /// pressure, an injected transient) as opposed to deterministic ones.
    Backend {
        /// Human-readable description of the fault.
        reason: String,
        /// `true` when a retry of the same frame may succeed.
        transient: bool,
    },
}

impl DrawError {
    /// A runtime backend fault (see [`DrawError::Backend`]).
    pub fn backend(reason: impl Into<String>, transient: bool) -> Self {
        DrawError::Backend {
            reason: reason.into(),
            transient,
        }
    }

    /// `true` when retrying the failed operation may succeed, so retry
    /// loops (e.g. the serve scheduler's bounded exponential backoff) can
    /// classify errors without string inspection. Configuration and
    /// target-shape errors are deterministic — a retry would fail
    /// identically — so only transient [`DrawError::Backend`] faults
    /// qualify.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DrawError::Backend {
                transient: true,
                ..
            }
        )
    }
}

impl std::fmt::Display for DrawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrawError::InvalidConfig(why) => write!(f, "invalid GPU configuration: {why}"),
            DrawError::TargetMismatch {
                color,
                depth_stencil,
            } => write!(
                f,
                "render target dimensions disagree: color {}x{} vs depth/stencil {}x{}",
                color.0, color.1, depth_stencil.0, depth_stencil.1
            ),
            DrawError::Backend { reason, transient } => write!(
                f,
                "backend fault ({}): {reason}",
                if *transient { "transient" } else { "permanent" }
            ),
        }
    }
}

impl std::error::Error for DrawError {}

/// Asset-loading failures surface at backend call sites as permanent
/// (non-transient) backend faults: a corrupt file fails identically on
/// retry, so the serve scheduler's retry machinery must not spin on it.
impl From<gsplat::asset::AssetError> for DrawError {
    fn from(e: gsplat::asset::AssetError) -> Self {
        DrawError::backend(format!("scene asset: {e}"), false)
    }
}

/// Reusable per-draw buffers: primitive setups, the TGC key stream, the
/// raster quad buffer and every per-flush staging vector. Holding one of
/// these across draws removes all steady-state allocation from the
/// simulator's frame loop.
#[derive(Debug, Default)]
pub struct DrawScratch {
    /// Per-primitive setup results (parallel prologue output).
    setups: Vec<Option<SplatSetup>>,
    /// TGC `(grid, primitive)` insertion stream.
    tgc_stream: KeyStream<TileGridId>,
    /// Fine-raster quad staging for one (primitive, tile) visit.
    quads: Vec<Quad>,
    /// Surviving quads of the TC flush being processed.
    bin: Vec<Quad>,
    /// Shaded quads of the current flush.
    shaded: Vec<ShadedQuad>,
    /// Merge replacements (front slots) of the current flush.
    replacement: Vec<Option<ShadedQuad>>,
    /// Back-quad skip marks of the current flush.
    skip: Vec<bool>,
    /// QRU output, with its warp vectors recycled through `warp_pool`.
    plan: WarpPlan,
    warp_pool: Vec<Vec<WarpSlot>>,
    /// SoA view of the splat list (rebuilt per draw, `Soa` kernel only).
    stream: SplatStream,
    /// Retired-tile bitset (HET variants): set once every pixel of a
    /// screen tile has crossed the termination threshold.
    retired: TileBitset,
    /// Per-tile count of terminated pixels, feeding `retired`.
    tile_term: Vec<u32>,
}

/// Simulates one draw call of depth-sorted splats.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
/// use vrpipe::{draw, PipelineVariant};
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let cam = scene.default_camera();
/// let pre = preprocess(&scene, &cam);
/// let cfg = GpuConfig::default();
/// let out = draw(&pre.splats, cam.width(), cam.height(), &cfg, PipelineVariant::Baseline);
/// assert!(out.stats.total_cycles > 0);
/// ```
///
/// # Panics
///
/// Panics when the configuration fails [`GpuConfig::validate`]; use
/// [`try_draw`] to handle invalid configurations as values.
pub fn draw(
    splats: &[Splat],
    width: u32,
    height: u32,
    cfg: &GpuConfig,
    variant: PipelineVariant,
) -> DrawOutput {
    // vrlint: allow(VL01, reason = "documented # Panics wrapper; frame loops use the try_ form")
    try_draw(splats, width, height, cfg, variant).expect("draw rejected")
}

/// Fallible [`draw`]: returns [`DrawError::InvalidConfig`] instead of
/// panicking, so long-running frame loops can surface bad configurations
/// as errors.
pub fn try_draw(
    splats: &[Splat],
    width: u32,
    height: u32,
    cfg: &GpuConfig,
    variant: PipelineVariant,
) -> Result<DrawOutput, DrawError> {
    try_draw_with_scratch(
        splats,
        width,
        height,
        cfg,
        variant,
        &mut DrawScratch::default(),
    )
}

/// [`draw`] reusing caller-owned scratch buffers across draw calls.
///
/// # Panics
///
/// Panics when the configuration fails [`GpuConfig::validate`]; use
/// [`try_draw_with_scratch`] for the fallible form.
pub fn draw_with_scratch(
    splats: &[Splat],
    width: u32,
    height: u32,
    cfg: &GpuConfig,
    variant: PipelineVariant,
    scratch: &mut DrawScratch,
) -> DrawOutput {
    // vrlint: allow(VL01, reason = "documented # Panics wrapper; frame loops use the try_ form")
    try_draw_with_scratch(splats, width, height, cfg, variant, scratch).expect("draw rejected")
}

/// Fallible [`draw_with_scratch`].
pub fn try_draw_with_scratch(
    splats: &[Splat],
    width: u32,
    height: u32,
    cfg: &GpuConfig,
    variant: PipelineVariant,
    scratch: &mut DrawScratch,
) -> Result<DrawOutput, DrawError> {
    let mut color = ColorBuffer::new(width, height, cfg.pixel_format);
    let mut ds = DepthStencilBuffer::new(width, height);
    let stats = try_draw_in_place(splats, cfg, variant, &mut color, &mut ds, scratch)?;
    Ok(DrawOutput {
        color,
        depth_stencil: ds,
        stats,
    })
}

/// [`draw`] into caller-owned render targets (cleared here), reusing
/// `scratch` — the fully allocation-free frame-loop entry point.
///
/// # Panics
///
/// Panics when the configuration fails [`GpuConfig::validate`] or when the
/// color and depth/stencil dimensions disagree; use [`try_draw_in_place`]
/// for the fallible form.
pub fn draw_in_place(
    splats: &[Splat],
    cfg: &GpuConfig,
    variant: PipelineVariant,
    color: &mut ColorBuffer,
    ds: &mut DepthStencilBuffer,
    scratch: &mut DrawScratch,
) -> PipelineStats {
    // vrlint: allow(VL01, reason = "documented # Panics wrapper; frame loops use the try_ form")
    try_draw_in_place(splats, cfg, variant, color, ds, scratch).expect("draw rejected")
}

/// Fallible [`draw_in_place`]: rejects invalid configurations and
/// mismatched render targets as a [`DrawError`] before any pipeline state
/// is touched, instead of panicking mid-frame-loop.
// vrlint: hot
pub fn try_draw_in_place(
    splats: &[Splat],
    cfg: &GpuConfig,
    variant: PipelineVariant,
    color: &mut ColorBuffer,
    ds: &mut DepthStencilBuffer,
    scratch: &mut DrawScratch,
) -> Result<PipelineStats, DrawError> {
    cfg.validate().map_err(DrawError::InvalidConfig)?;
    if (color.width(), color.height()) != (ds.width(), ds.height()) {
        return Err(DrawError::TargetMismatch {
            color: (color.width(), color.height()),
            depth_stencil: (ds.width(), ds.height()),
        });
    }
    let (width, height) = (color.width(), color.height());
    color.reset(width, height, cfg.pixel_format);
    ds.reset(width, height);
    let tiling = Tiling::new(width, height, cfg.screen_tile_px, cfg.tile_grid_tiles);
    if cfg.kernel == FragmentKernel::Soa {
        scratch.stream.rebuild_from(splats);
    }
    let track_tiles = if variant.het() {
        tiling.tile_count()
    } else {
        0
    };
    scratch.retired.reset(track_tiles);
    scratch.tile_term.clear();
    scratch.tile_term.resize(track_tiles, 0);
    Ok(Pipeline {
        splats,
        cfg,
        variant,
        tiling,
        color,
        ds,
        crop_cache: Cache::new(cfg.crop_cache_bytes, cfg.cache_line_bytes, cfg.cache_ways),
        z_cache: Cache::new(cfg.z_cache_bytes, cfg.cache_line_bytes, cfg.cache_ways),
        l2: Cache::new(4 * 1024 * 1024, cfg.cache_line_bytes, 16),
        timer: PipelineTimer::new(),
        stats: PipelineStats::default(),
        pending: WorkBatch::default(),
        tc: BinTable::new(cfg.tc_bins, cfg.tc_bin_size),
        line_block: line_block(cfg),
        scratch,
    }
    .run())
}

/// Color-cache line geometry: a 128-B line covers a
/// `(128/bpp/4)`-wide × 4-tall pixel block.
fn line_block(cfg: &GpuConfig) -> (u32, u32) {
    let bpp = cfg.pixel_format.bytes_per_pixel() as u32;
    let block_h = 4u32;
    let block_w = (cfg.cache_line_bytes as u32 / (bpp * block_h)).max(1);
    (block_w, block_h)
}

/// Internal per-draw-call state.
struct Pipeline<'a> {
    splats: &'a [Splat],
    cfg: &'a GpuConfig,
    variant: PipelineVariant,
    tiling: Tiling,
    color: &'a mut ColorBuffer,
    ds: &'a mut DepthStencilBuffer,
    crop_cache: Cache,
    z_cache: Cache,
    l2: Cache,
    timer: PipelineTimer,
    stats: PipelineStats,
    /// Upstream work accumulated since the last TC flush.
    pending: WorkBatch,
    tc: BinTable<TileId, Quad>,
    /// Color-cache line geometry (pixels per line block).
    line_block: (u32, u32),
    scratch: &'a mut DrawScratch,
}

impl Pipeline<'_> {
    fn run(mut self) -> PipelineStats {
        self.precompute_setups();
        // Degenerate (singular-axes) primitives were culled at setup —
        // count them so zero-area inputs are observable, never silent.
        self.stats.degenerate_prims =
            self.scratch.setups.iter().filter(|s| s.is_none()).count() as u64;
        if self.variant.qm() {
            self.run_with_tgc();
        } else {
            self.run_direct();
        }
        // End-of-draw: drain the TC unit (subsumes the timeout flush).
        let drains = self.tc.drain();
        for flush in drains {
            self.process_tc_flush(flush);
        }
        // Push any trailing upstream work.
        if self.pending.total() > 0.0 {
            let batch = std::mem::take(&mut self.pending);
            self.timer.push(batch);
        }
        self.crop_cache.flush();
        self.z_cache.flush();

        self.stats.crop_cache = self.crop_cache.stats();
        self.stats.z_cache = self.z_cache.stats();
        let (total, busy) = self.timer.finish();
        self.stats.total_cycles = total;
        self.stats.busy_cycles = busy;
        self.stats
    }

    /// Parallel prologue: triangle setup for every primitive. Pure
    /// per-splat work fanned out over contiguous chunks; results land in
    /// primitive order, so downstream behaviour is independent of the
    /// thread count. The `Soa` kernel reads the [`SplatStream`] (identical
    /// field values → identical setups).
    fn precompute_setups(&mut self) {
        let splats = self.splats;
        let soa = self.cfg.kernel == FragmentKernel::Soa;
        let DrawScratch { setups, stream, .. } = &mut *self.scratch;
        let stream = &*stream;
        let make = |i: usize| {
            if soa {
                SplatSetup::from_stream(stream, i)
            } else {
                SplatSetup::new(&splats[i])
            }
        };
        setups.clear();
        setups.resize(splats.len(), None);
        let policy = self.cfg.thread_policy();
        if policy.workers(splats.len()) <= 1 {
            for (i, setup) in setups.iter_mut().enumerate() {
                *setup = make(i);
            }
            return;
        }
        let chunk = splats.len().div_ceil(policy.workers(splats.len()));
        let bands = Bands::new(setups, chunk);
        gsplat::par::run_indexed(splats.len().div_ceil(chunk), policy, |c| {
            let band = bands.take(c);
            for (j, setup) in band.iter_mut().enumerate() {
                *setup = make(c * chunk + j);
            }
        });
    }

    /// Baseline path: each primitive rasterizes across all its screen
    /// tiles immediately, in draw order.
    fn run_direct(&mut self) {
        for i in 0..self.splats.len() {
            self.account_vertex(i);
            let Some(setup) = self.scratch.setups[i] else {
                continue;
            };
            let Some(rect) = self.tiling.tile_rect_in_aabb(
                (setup.aabb.0.x, setup.aabb.0.y),
                (setup.aabb.1.x, setup.aabb.1.y),
            ) else {
                continue;
            };
            self.rasterize_rect(i as u32, &setup, rect);
        }
    }

    /// QM path: primitives are first gathered per tile grid by the TGC
    /// unit; a TGC flush rasterizes its primitives restricted to that grid,
    /// concentrating spatially-overlapping quads in the TC bins.
    ///
    /// The `(grid, primitive)` key stream is derived on worker threads
    /// (chunk-ordered merge), then replayed serially through the TGC bin
    /// table — flush and eviction order is bit-exact with a serial build.
    fn run_with_tgc(&mut self) {
        let mut stream = std::mem::take(&mut self.scratch.tgc_stream);
        {
            let setups = &self.scratch.setups;
            let tiling = &self.tiling;
            let g = self.cfg.tile_grid_tiles;
            stream.build(self.splats.len(), self.cfg.thread_policy(), |i, push| {
                let Some(setup) = setups[i as usize] else {
                    return;
                };
                let Some((x0, x1, y0, y1)) = tiling.tile_rect_in_aabb(
                    (setup.aabb.0.x, setup.aabb.0.y),
                    (setup.aabb.1.x, setup.aabb.1.y),
                ) else {
                    return;
                };
                // x-major grid walk: the same visit order as sorting
                // TileGridIds (lexicographic by x, then y) and deduping.
                for gx in x0 / g..=x1 / g {
                    for gy in y0 / g..=y1 / g {
                        push(TileGridId { x: gx, y: gy });
                    }
                }
            });
        }

        let mut tgc: BinTable<TileGridId, u32> =
            BinTable::new(self.cfg.tgc_bins, self.cfg.tgc_bin_size);
        // Vertex work interleaves with insertions exactly as a per-splat
        // loop would: each primitive is accounted just before its first
        // insertion (or with the next accounted primitive if it has none).
        let mut next_vertex = 0usize;
        for idx in 0..stream.pairs().len() {
            let (grid, prim) = stream.pairs()[idx];
            while next_vertex <= prim as usize {
                self.account_vertex(next_vertex);
                next_vertex += 1;
            }
            self.stats.tgc_insertions += 1;
            self.pending.add(Unit::Tgc, 1.0);
            for flush in tgc.insert(grid, prim) {
                let Flush { key, items, .. } = flush;
                self.process_tgc_flush(key, &items);
                tgc.recycle(items);
            }
        }
        while next_vertex < self.splats.len() {
            self.account_vertex(next_vertex);
            next_vertex += 1;
        }
        self.scratch.tgc_stream = stream;

        let drains = tgc.drain();
        for flush in drains {
            self.process_tgc_flush(flush.key, &flush.items);
        }
        let s = tgc.stats();
        self.stats.tgc_flushes = s.flushes;
        self.stats.tgc_evictions = s.evictions;
    }

    fn account_vertex(&mut self, _index: usize) {
        self.stats.primitives += 1;
        self.pending
            .add(Unit::Vpo, 1.0 / self.cfg.vpo_prims_per_cycle as f64);
        self.pending.add(
            Unit::Sm,
            self.cfg.vertex_shader_cycles_per_prim as f64 / self.cfg.simt_cores as f64,
        );
    }

    /// Rasterizes a TGC flush: every primitive in the bin, restricted to
    /// the screen tiles of that tile grid.
    fn process_tgc_flush(&mut self, grid: TileGridId, prims: &[u32]) {
        let g = self.cfg.tile_grid_tiles;
        for &prim in prims {
            let Some(setup) = self.scratch.setups[prim as usize] else {
                continue;
            };
            let Some((x0, x1, y0, y1)) = self.tiling.tile_rect_in_aabb(
                (setup.aabb.0.x, setup.aabb.0.y),
                (setup.aabb.1.x, setup.aabb.1.y),
            ) else {
                continue;
            };
            // Intersect the primitive's tile rect with this grid's tiles.
            let rect = (
                x0.max(grid.x * g),
                x1.min(grid.x * g + g - 1),
                y0.max(grid.y * g),
                y1.min(grid.y * g + g - 1),
            );
            if rect.0 > rect.1 || rect.2 > rect.3 {
                continue;
            }
            self.rasterize_rect(prim, &setup, rect);
        }
    }

    /// Runs setup + coarse + fine raster over the inclusive tile rectangle
    /// `(x0, x1, y0, y1)` and feeds the TC unit.
    ///
    /// Retired tiles are deliberately *not* skipped here: their quads must
    /// keep flowing into the TC bins so bin-pressure evictions — and with
    /// them every other tile's flush boundaries, ZROP test timing and
    /// blend rounding — stay identical between kernels. The fast path
    /// instead discards a retired tile's quads wholesale at flush time
    /// (see [`Pipeline::process_tc_flush`]), which is exact.
    fn rasterize_rect(&mut self, prim: u32, setup: &SplatSetup, rect: (u32, u32, u32, u32)) {
        let (x0, x1, y0, y1) = rect;
        self.pending
            .add(Unit::Raster, 1.0 / self.cfg.setup_prims_per_cycle as f64);
        let mut quads = std::mem::take(&mut self.scratch.quads);
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                let tile = TileId { x: tx, y: ty };
                quads.clear();
                let coarse_tiles = rasterize_in_tile_into(
                    setup,
                    prim,
                    tile,
                    &self.tiling,
                    self.cfg.raster_tile_px,
                    &mut quads,
                );
                self.stats.coarse_tiles += coarse_tiles;
                self.pending.add(
                    Unit::Raster,
                    coarse_tiles as f64 / self.cfg.coarse_raster_tiles_per_cycle as f64
                        + quads.len() as f64 / self.cfg.fine_raster_quads_per_cycle as f64,
                );
                for &q in &quads {
                    self.stats.raster_quads += 1;
                    self.stats.raster_fragments += q.coverage_count() as u64;
                    self.tc_insert(q);
                }
            }
        }
        self.scratch.quads = quads;
    }

    fn tc_insert(&mut self, q: Quad) {
        self.stats.tc_insertions += 1;
        self.pending
            .add(Unit::Tc, 1.0 / self.cfg.tc_quads_per_cycle as f64);
        let tile = q.tile;
        for flush in self.tc.insert(tile, q) {
            self.process_tc_flush(flush);
        }
    }

    /// The heart of the pipeline: one TC-bin flush travels through ZROP
    /// (HET), PROP/QRU (QM), the SMs and CROP, producing one timing batch.
    fn process_tc_flush(&mut self, flush: Flush<TileId, Quad>) {
        let mut batch = std::mem::take(&mut self.pending);
        self.stats.tc_flushes += 1;
        if flush.reason == FlushReason::Evicted {
            self.stats.tc_evictions += 1;
        }

        // --- ZROP early-termination test (HET) ---
        let mut bin = std::mem::take(&mut self.scratch.bin);
        bin.clear();
        if self.variant.het() {
            let retired_fast_discard = self.cfg.kernel == FragmentKernel::Soa && {
                let idx = (flush.key.y * self.tiling.tiles_x() + flush.key.x) as usize;
                self.scratch.retired.get(idx)
            };
            if retired_fast_discard {
                // Tile-granularity transmittance check: every pixel of the
                // tile is terminated, so the whole flush is discarded on
                // one tile-flag read instead of per-quad stencil-line
                // tests. The surviving set (empty) is what the per-quad
                // loop would produce, so images and downstream state are
                // bit-identical; only ZROP/z-cache work disappears.
                self.stats.retired_tile_skips += 1;
                self.stats.zrop_term_discards += flush.items.len() as u64;
                self.stats.zrop_term_discarded_fragments += flush
                    .items
                    .iter()
                    .map(|q| q.coverage_count() as u64)
                    .sum::<u64>();
                batch.add(Unit::Zrop, 1.0 / self.cfg.zrop_quads_per_cycle as f64);
            } else {
                let n = flush.items.len() as f64;
                self.stats.zrop_term_tests += flush.items.len() as u64;
                batch.add(Unit::Zrop, n / self.cfg.zrop_quads_per_cycle as f64);
                for &q in &flush.items {
                    // One z-cache line read per quad (stencil MSBs).
                    self.z_cache_access(q.origin, false, &mut batch);
                    let t = termination_test(&q, self.ds);
                    if t.survives {
                        self.stats.zrop_term_discarded_fragments += t.terminated_fragments as u64;
                        bin.push(q);
                    } else {
                        self.stats.zrop_term_discards += 1;
                        self.stats.zrop_term_discarded_fragments += q.coverage_count() as u64;
                    }
                }
            }
        } else {
            bin.extend_from_slice(&flush.items);
        }
        self.tc.recycle(flush.items);
        if bin.is_empty() {
            self.timer.push(batch);
            self.scratch.bin = bin;
            return;
        }

        // --- PROP routing / quad reorder unit (QM) ---
        let mut plan = std::mem::take(&mut self.scratch.plan);
        if self.variant.qm() {
            plan_warps_into(&bin, &mut plan, &mut self.scratch.warp_pool);
        } else {
            sequential_plan_into(bin.len(), &mut plan, &mut self.scratch.warp_pool);
        }
        // Pre-shading routing (and QRU examination, which proceeds at the
        // routing rate — the scan is simple register compares pipelined
        // with dispatch).
        batch.add(
            Unit::Prop,
            bin.len() as f64 / self.cfg.prop_quads_per_cycle as f64,
        );
        self.stats.warps_launched += plan.warp_count() as u64;
        self.stats.warp_quad_slots_used += plan.slots_used() as u64;
        self.stats.merged_pairs += plan.pairs as u64;

        // --- SM fragment shading ---
        let mut warp_cycles = 0u64;
        for warp in &plan.warps {
            let has_pair = warp.iter().any(|s| matches!(s, WarpSlot::Pair(..)));
            warp_cycles += self.cfg.frag_shader_cycles_per_warp as u64
                + if has_pair {
                    self.cfg.qm_extra_cycles_per_warp as u64
                } else {
                    0
                };
        }
        batch.add(Unit::Sm, warp_cycles as f64 / self.cfg.simt_cores as f64);

        let mut shaded = std::mem::take(&mut self.scratch.shaded);
        shaded.clear();
        let soa = self.cfg.kernel == FragmentKernel::Soa;
        for q in &bin {
            let sq = if soa {
                shade_quad_stream(q, &self.scratch.stream)
            } else {
                shade_quad(q, &self.splats[q.splat as usize])
            };
            let covered = q.coverage_count() as u64;
            self.stats.shaded_fragments += covered;
            self.stats.alpha_pruned_fragments += covered - sq.alive_count() as u64;
            shaded.push(sq);
        }

        // Merge pairs: replace the front quad, skip the back quad.
        let mut replacement = std::mem::take(&mut self.scratch.replacement);
        let mut skip = std::mem::take(&mut self.scratch.skip);
        replacement.clear();
        replacement.resize(bin.len(), None);
        skip.clear();
        skip.resize(bin.len(), false);
        for warp in &plan.warps {
            for slot in warp {
                if let WarpSlot::Pair(front, back) = *slot {
                    replacement[front] = Some(merge_pair(&shaded[front], &shaded[back]));
                    skip[back] = true;
                }
            }
        }

        // --- CROP blending (+ HET alpha test unit) ---
        let mut crop_quads_here = 0u64;
        for idx in 0..bin.len() {
            if skip[idx] {
                continue;
            }
            let sq = replacement[idx].as_ref().unwrap_or(&shaded[idx]);
            if sq.is_dead() {
                self.stats.dead_quads += 1;
                continue;
            }
            crop_quads_here += 1;
            self.stats.crop_quads += 1;
            self.crop_cache_access(sq.quad.origin, &mut batch);
            for i in 0..4 {
                if sq.alive & (1 << i) == 0 {
                    continue;
                }
                let (x, y) = sq.quad.fragment_xy(i);
                if x >= self.color.width() || y >= self.color.height() {
                    continue;
                }
                self.stats.crop_fragments += 1;
                let (rgb, a) = premultiplied_fragment(sq, i);
                let dest = self.color.get(x, y);
                let prev_alpha = dest.a;
                let blended = blend_over(dest, Rgba::from_rgb(rgb, a));
                self.color.set(x, y, blended);
                if self.variant.het() && alpha_test(prev_alpha, blended.a) {
                    // Termination signal → ZROP update (read-modify-write
                    // of the stencil line through the z-cache).
                    self.stats.term_updates += 1;
                    self.z_cache_access((x, y), true, &mut batch);
                    batch.add(Unit::Zrop, 0.5);
                    termination_update(self.ds, x, y);
                    self.note_terminated_pixel(x, y);
                }
            }
        }
        batch.add(
            Unit::Crop,
            crop_quads_here as f64 / self.cfg.crop_quads_per_cycle() as f64,
        );
        // Post-shading ordering in PROP proceeds at CROP pace (PROP
        // orchestrates the color-fragment flow into CROP).
        batch.add(
            Unit::Prop,
            crop_quads_here as f64 / self.cfg.crop_quads_per_cycle() as f64,
        );
        self.timer.push(batch);

        self.scratch.bin = bin;
        self.scratch.shaded = shaded;
        self.scratch.replacement = replacement;
        self.scratch.skip = skip;
        self.scratch.plan = plan;
    }

    /// Records a newly terminated pixel in the per-tile counters and marks
    /// the tile retired once every one of its pixels has terminated.
    /// Alpha accumulation is monotone and [`alpha_test`] fires exactly at
    /// the crossing, so each pixel is counted once; the counter state —
    /// and therefore `retired_tiles` — is identical for both kernels
    /// (only the *consumption* of the bitset is `Soa`-gated).
    fn note_terminated_pixel(&mut self, x: u32, y: u32) {
        let tid = self.tiling.tile_of_pixel(x, y);
        let idx = (tid.y * self.tiling.tiles_x() + tid.x) as usize;
        self.scratch.tile_term[idx] += 1;
        let tile_px = self.tiling.tile_px();
        let w = ((tid.x + 1) * tile_px).min(self.color.width()) - tid.x * tile_px;
        let h = ((tid.y + 1) * tile_px).min(self.color.height()) - tid.y * tile_px;
        if self.scratch.tile_term[idx] == w * h {
            self.scratch.retired.set(idx);
            self.stats.retired_tiles += 1;
        }
    }

    /// One CROP-cache access for the color line(s) under a quad.
    fn crop_cache_access(&mut self, origin: (u32, u32), batch: &mut WorkBatch) {
        let (bw, bh) = self.line_block;
        let blocks_x = self.color.width().div_ceil(bw) as u64;
        let mut lines = [u64::MAX; 4];
        let mut n = 0;
        for (dx, dy) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
            let x = origin.0 + dx;
            let y = origin.1 + dy;
            if x >= self.color.width() || y >= self.color.height() {
                continue;
            }
            let line = (y / bh) as u64 * blocks_x + (x / bw) as u64;
            if !lines[..n].contains(&line) {
                lines[n] = line;
                n += 1;
            }
        }
        for &line in &lines[..n] {
            if !self.crop_cache.access(line, true) {
                self.memory_fill(line, batch);
            }
        }
    }

    /// One z-cache access for the stencil line under a quad or pixel.
    fn z_cache_access(&mut self, origin: (u32, u32), write: bool, batch: &mut WorkBatch) {
        // 128-B stencil line = 16×8 pixel block at 1 B/pixel.
        let blocks_x = self.color.width().div_ceil(16) as u64;
        let line = (origin.1 / 8) as u64 * blocks_x + (origin.0 / 16) as u64;
        // Address-space tag to keep z lines distinct from color lines in L2.
        let tagged = line | 1 << 62;
        if !self.z_cache.access(tagged, write) {
            self.memory_fill(tagged, batch);
        }
    }

    /// A ROP-cache miss: fill from L2; an L2 miss goes to DRAM.
    fn memory_fill(&mut self, line: u64, batch: &mut WorkBatch) {
        let bytes = self.cfg.cache_line_bytes as f64;
        batch.add(Unit::L2, bytes / self.cfg.l2_bytes_per_cycle as f64);
        if !self.l2.access(line, false) {
            batch.add(Unit::Dram, bytes / self.cfg.dram_bytes_per_cycle as f64);
        }
    }
}

/// Baseline warp packing: quads in bin order, eight per warp, no pairs.
fn sequential_plan_into(n: usize, plan: &mut WarpPlan, pool: &mut Vec<Vec<WarpSlot>>) {
    for mut warp in plan.warps.drain(..) {
        warp.clear();
        pool.push(warp);
    }
    plan.merge_bitmap = 0;
    plan.pairs = 0;
    let mut i = 0;
    while i < n {
        let end = (i + 8).min(n);
        let mut warp = pool.pop().unwrap_or_default();
        warp.extend((i..end).map(WarpSlot::Single));
        plan.warps.push(warp);
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::math::{Vec2, Vec3};

    /// A deterministic stack of fully-overlapping circular splats.
    fn stacked_splats(n: usize, opacity: f32) -> Vec<Splat> {
        (0..n)
            .map(|i| Splat {
                center: Vec2::new(16.0, 16.0),
                depth: 1.0 + i as f32,
                conic: (0.02, 0.0, 0.02),
                axis_major: Vec2::new(14.0, 0.0),
                axis_minor: Vec2::new(0.0, 14.0),
                color: Vec3::new(0.5, 0.25, 0.75),
                opacity,
                source: i as u32,
            })
            .collect()
    }

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn draw_produces_nonzero_image_and_cycles() {
        let splats = stacked_splats(10, 0.5);
        let out = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        assert!(out.stats.total_cycles > 0);
        assert!(out.color.get(16, 16).a > 0.9);
        assert!(out.stats.crop_fragments > 0);
        assert_eq!(out.stats.primitives, 10);
    }

    #[test]
    fn variants_render_equivalent_images() {
        let splats = stacked_splats(30, 0.3);
        let base = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        for v in [
            PipelineVariant::Qm,
            PipelineVariant::Het,
            PipelineVariant::HetQm,
        ] {
            let out = draw(&splats, 32, 32, &cfg(), v);
            let diff = base.color.max_abs_diff(&out.color);
            // HET legitimately drops invisible contributions; tolerance is
            // sub-quantization (1/255 ≈ 0.0039).
            assert!(diff < 3.0 / 255.0, "{v}: diff {diff}");
        }
    }

    #[test]
    fn qm_without_het_is_floating_point_exact_enough() {
        let splats = stacked_splats(40, 0.2);
        let base = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        let qm = draw(&splats, 32, 32, &cfg(), PipelineVariant::Qm);
        // Associative regrouping only: differences are float rounding.
        assert!(base.color.max_abs_diff(&qm.color) < 1e-4);
    }

    #[test]
    fn het_terminates_saturated_pixels() {
        let splats = stacked_splats(50, 0.8);
        let out = draw(&splats, 32, 32, &cfg(), PipelineVariant::Het);
        assert!(out.depth_stencil.terminated_count() > 0);
        assert!(out.stats.zrop_term_discards > 0);
        assert!(out.stats.term_updates > 0);
        // HET must reduce CROP work vs baseline.
        let base = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        assert!(out.stats.crop_fragments < base.stats.crop_fragments);
        assert!(out.stats.total_cycles < base.stats.total_cycles);
    }

    #[test]
    fn qm_merges_overlapping_quads() {
        let splats = stacked_splats(40, 0.2);
        let out = draw(&splats, 32, 32, &cfg(), PipelineVariant::Qm);
        assert!(out.stats.merged_pairs > 0);
        let base = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        assert!(out.stats.crop_quads < base.stats.crop_quads);
        // A merged pair blends each pixel once with the pre-blended value,
        // so ROP fragments drop too (exactly what Fig. 18 counts).
        assert!(out.stats.crop_fragments < base.stats.crop_fragments);
    }

    #[test]
    fn baseline_never_uses_extension_hardware() {
        let splats = stacked_splats(20, 0.5);
        let out = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        assert_eq!(out.stats.zrop_term_tests, 0);
        assert_eq!(out.stats.merged_pairs, 0);
        assert_eq!(out.stats.tgc_insertions, 0);
        assert_eq!(out.stats.term_updates, 0);
        assert_eq!(out.depth_stencil.terminated_count(), 0);
    }

    #[test]
    fn fragment_conservation() {
        // Raster fragments = shaded + termination-discarded (HET off: equal).
        let splats = stacked_splats(25, 0.4);
        let out = draw(&splats, 32, 32, &cfg(), PipelineVariant::Baseline);
        assert_eq!(out.stats.raster_fragments, out.stats.shaded_fragments);
        // Blended = shaded − pruned (single tile, no edge clipping here).
        assert_eq!(
            out.stats.crop_fragments,
            out.stats.shaded_fragments - out.stats.alpha_pruned_fragments
        );
    }

    #[test]
    fn empty_draw_is_empty() {
        let out = draw(&[], 32, 32, &cfg(), PipelineVariant::HetQm);
        assert_eq!(out.stats.total_cycles, 0);
        assert_eq!(out.stats.crop_fragments, 0);
        assert_eq!(out.color.mean_alpha(), 0.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_draws() {
        let splats = stacked_splats(35, 0.4);
        let mut scratch = DrawScratch::default();
        for v in PipelineVariant::ALL {
            let fresh = draw(&splats, 32, 32, &cfg(), v);
            let reused = draw_with_scratch(&splats, 32, 32, &cfg(), v, &mut scratch);
            assert_eq!(reused.stats, fresh.stats, "{v}");
            assert_eq!(reused.color.max_abs_diff(&fresh.color), 0.0, "{v}");
            assert_eq!(reused.depth_stencil, fresh.depth_stencil, "{v}");
        }
    }

    #[test]
    fn thread_count_never_changes_simulated_results() {
        let splats = stacked_splats(40, 0.5);
        let serial = {
            let mut c = cfg();
            c.threads = 1;
            PipelineVariant::ALL.map(|v| draw(&splats, 48, 48, &c, v))
        };
        for threads in [3usize, 5, 0] {
            let mut c = cfg();
            c.threads = threads;
            for (v, reference) in PipelineVariant::ALL.iter().zip(&serial) {
                let out = draw(&splats, 48, 48, &c, *v);
                assert_eq!(out.stats, reference.stats, "{v} threads={threads}");
                assert_eq!(out.color.max_abs_diff(&reference.color), 0.0, "{v}");
                assert_eq!(out.depth_stencil, reference.depth_stencil, "{v}");
            }
        }
    }

    /// Wide, nearly-flat splats that saturate whole tiles quickly.
    fn flat_stacked(n: usize) -> Vec<Splat> {
        let mut v = stacked_splats(n, 0.9);
        for s in &mut v {
            s.conic = (0.002, 0.0, 0.002);
            s.axis_major = Vec2::new(80.0, 0.0);
            s.axis_minor = Vec2::new(0.0, 80.0);
        }
        v
    }

    #[test]
    fn soa_kernel_images_bit_exact_all_variants() {
        let splats = flat_stacked(60);
        for v in PipelineVariant::ALL {
            let scalar = draw(&splats, 32, 32, &cfg(), v);
            let soa_cfg = GpuConfig {
                kernel: gsplat::stream::FragmentKernel::Soa,
                ..cfg()
            };
            let soa = draw(&splats, 32, 32, &soa_cfg, v);
            assert_eq!(
                soa.color.max_abs_diff(&scalar.color),
                0.0,
                "{v}: image diverged between kernels"
            );
            assert_eq!(soa.depth_stencil, scalar.depth_stencil, "{v}");
            if !v.het() {
                // Without HET there is no retirement fast path: the SoA
                // kernel is a pure re-layout and stats match exactly.
                assert_eq!(soa.stats, scalar.stats, "{v}");
            } else {
                // With HET the fast path removes only ZROP test work and
                // its z-cache traffic; everything else — including the
                // per-surviving-quad CROP-cache behaviour — matches
                // exactly.
                let mut masked = soa.stats.clone();
                masked.retired_tile_skips = 0;
                masked.zrop_term_tests = scalar.stats.zrop_term_tests;
                masked.z_cache = scalar.stats.z_cache;
                masked.total_cycles = scalar.stats.total_cycles;
                masked.busy_cycles = scalar.stats.busy_cycles;
                assert_eq!(masked, scalar.stats, "{v}");
                assert!(soa.stats.total_cycles <= scalar.stats.total_cycles, "{v}");
            }
        }
    }

    #[test]
    fn soa_het_retires_tiles_and_discards_flushes_wholesale() {
        let splats = flat_stacked(60);
        let soa_cfg = GpuConfig {
            kernel: gsplat::stream::FragmentKernel::Soa,
            ..cfg()
        };
        let scalar = draw(&splats, 32, 32, &cfg(), PipelineVariant::Het);
        let soa = draw(&splats, 32, 32, &soa_cfg, PipelineVariant::Het);
        assert!(scalar.stats.retired_tiles > 0, "tiles must saturate");
        assert_eq!(scalar.stats.retired_tile_skips, 0, "oracle never skips");
        assert!(soa.stats.retired_tile_skips > 0, "fast path must engage");
        // The quad flow is identical; only the ZROP testing work shrinks.
        assert_eq!(soa.stats.raster_quads, scalar.stats.raster_quads);
        assert_eq!(soa.stats.tc_flushes, scalar.stats.tc_flushes);
        assert!(soa.stats.zrop_term_tests < scalar.stats.zrop_term_tests);
        assert_eq!(
            soa.stats.zrop_term_discards,
            scalar.stats.zrop_term_discards
        );
        assert!(soa.stats.z_cache.accesses() < scalar.stats.z_cache.accesses());
        assert!(soa.stats.total_cycles <= scalar.stats.total_cycles);
        assert_eq!(soa.color.max_abs_diff(&scalar.color), 0.0);
        assert_eq!(soa.depth_stencil, scalar.depth_stencil);
    }

    #[test]
    fn soa_kernel_is_thread_count_invariant() {
        let splats = flat_stacked(40);
        let mut serial_cfg = cfg();
        serial_cfg.threads = 1;
        serial_cfg.kernel = gsplat::stream::FragmentKernel::Soa;
        let reference = draw(&splats, 48, 48, &serial_cfg, PipelineVariant::HetQm);
        for threads in [3usize, 5, 0] {
            let mut c = serial_cfg.clone();
            c.threads = threads;
            let out = draw(&splats, 48, 48, &c, PipelineVariant::HetQm);
            assert_eq!(out.stats, reference.stats, "threads={threads}");
            assert_eq!(out.color.max_abs_diff(&reference.color), 0.0);
            assert_eq!(out.depth_stencil, reference.depth_stencil);
        }
    }

    #[test]
    fn try_draw_rejects_invalid_config_without_panicking() {
        let splats = stacked_splats(5, 0.5);
        let bad = GpuConfig {
            tc_bins: 0,
            ..cfg()
        };
        let err = try_draw(&splats, 32, 32, &bad, PipelineVariant::Baseline).unwrap_err();
        assert!(matches!(err, DrawError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("TC unit"), "{err}");
        let err2 = try_draw_with_scratch(
            &splats,
            32,
            32,
            &bad,
            PipelineVariant::Het,
            &mut DrawScratch::default(),
        )
        .unwrap_err();
        assert_eq!(err, err2);
    }

    /// The retry classifier: only transient backend faults are worth
    /// retrying — config and target-shape errors are deterministic.
    #[test]
    fn draw_error_transience_classifier() {
        assert!(!DrawError::InvalidConfig("x".into()).is_transient());
        assert!(!DrawError::TargetMismatch {
            color: (1, 1),
            depth_stencil: (2, 2)
        }
        .is_transient());
        assert!(DrawError::backend("blip", true).is_transient());
        assert!(!DrawError::backend("hard fault", false).is_transient());
        // Display carries the classification for logs.
        assert!(DrawError::backend("blip", true)
            .to_string()
            .contains("transient"));
        assert!(DrawError::backend("hard fault", false)
            .to_string()
            .contains("permanent"));
        // std::error::Error is implemented (satisfies `?`-style callers).
        let e: Box<dyn std::error::Error> = Box::new(DrawError::backend("blip", true));
        assert!(e.to_string().contains("blip"));
    }

    #[test]
    fn try_draw_in_place_rejects_mismatched_targets() {
        let splats = stacked_splats(5, 0.5);
        let mut color = ColorBuffer::new(32, 32, cfg().pixel_format);
        let mut ds = DepthStencilBuffer::new(32, 16);
        let err = try_draw_in_place(
            &splats,
            &cfg(),
            PipelineVariant::Baseline,
            &mut color,
            &mut ds,
            &mut DrawScratch::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DrawError::TargetMismatch {
                color: (32, 32),
                depth_stencil: (32, 16)
            }
        );
        assert!(err.to_string().contains("32x32"));
    }

    #[test]
    fn try_draw_matches_draw_on_valid_input() {
        let splats = stacked_splats(12, 0.5);
        let a = draw(&splats, 32, 32, &cfg(), PipelineVariant::HetQm);
        let b = try_draw(&splats, 32, 32, &cfg(), PipelineVariant::HetQm).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.color.max_abs_diff(&b.color), 0.0);
    }

    #[test]
    fn degenerate_primitives_are_counted_not_dropped_silently() {
        let mut splats = stacked_splats(6, 0.5);
        splats[2].axis_minor = gsplat::math::Vec2::ZERO; // singular OBB
        splats[4].axis_major = gsplat::math::Vec2::ZERO;
        for v in PipelineVariant::ALL {
            let out = draw(&splats, 32, 32, &cfg(), v);
            assert_eq!(out.stats.degenerate_prims, 2, "{v}");
            assert_eq!(out.stats.primitives, 6, "{v}");
            assert!(out.color.get(16, 16).a > 0.0, "{v}: healthy splats lost");
        }
    }

    #[test]
    fn draw_in_place_reuses_targets() {
        let splats = stacked_splats(20, 0.6);
        let mut color = ColorBuffer::new(32, 32, cfg().pixel_format);
        let mut ds = DepthStencilBuffer::new(32, 32);
        let mut scratch = DrawScratch::default();
        let fresh = draw(&splats, 32, 32, &cfg(), PipelineVariant::HetQm);
        for _ in 0..3 {
            let stats = draw_in_place(
                &splats,
                &cfg(),
                PipelineVariant::HetQm,
                &mut color,
                &mut ds,
                &mut scratch,
            );
            assert_eq!(stats, fresh.stats);
            assert_eq!(color.max_abs_diff(&fresh.color), 0.0);
            assert_eq!(ds, fresh.depth_stencil);
        }
    }
}
