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
//! The simulated pipeline is order-dependent (bin evictions, cache state,
//! the flow-shop timer), but its pixel work is not: a TC flush holds quads
//! of one screen tile, so flushes of different tiles commute. A draw runs
//! in four phases over the host threads of [`GpuConfig::thread_policy`];
//! the parallel ones fork through [`gsplat::par::for_each_claimed`]:
//!
//! 1. **Prologue** (parallel): triangle setup and fine raster of every
//!    primitive over its whole tile rect — pure per primitive.
//! 2. **Spine** (serial): vertex accounting, TGC/TC insertion, evictions
//!    and drains in draw order. It records each TC flush with the
//!    upstream work batch it closes, and reads no pixel.
//! 3. **Shards** (parallel, per screen tile): each tile's flushes in spine
//!    order through ZROP, QRU, shading, merge and CROP, on the tile's own
//!    pixels and termination state, logging their ROP-cache accesses.
//! 4. **Tail** (serial): replays the cache logs through the CROP/z/L2
//!    models and pushes each flush's timing batch, in spine order.
//!
//! Simulated results are bit-exact for every `threads` setting (DESIGN.md
//! §4). Every per-primitive / per-flush buffer, like the bin tables and
//! caches themselves (reset to power-on state per draw), lives in a
//! reusable [`DrawScratch`]; at `threads: 1` every phase runs inline and
//! the steady-state frame loop is allocation-free.

use gpu_sim::binning::{BinTable, Flush, FlushReason};
use gpu_sim::cache::Cache;
use gpu_sim::config::GpuConfig;
use gpu_sim::quad::{Quad, ShadedQuad};
use gpu_sim::raster::{rasterize_in_tile_with, SplatSetup};
use gpu_sim::stats::{PipelineStats, Unit};
use gpu_sim::tiles::{QuadPos, TileGridId, TileId, Tiling};
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use gsplat::blend::blend_over;
use gsplat::color::Rgba;
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::par::for_each_claimed;
use gsplat::splat::Splat;
use gsplat::stream::FragmentKernel;

use crate::het::{alpha_test, termination_test, TerminationRows};
use crate::qm::{plan_warps_into, pooled_warp, WarpPlan, WarpSlot};
use crate::shading::{merge_pair, premultiplied_fragment, shade_quad};
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
    /// The requested viewport has no pixels: `width` or `height` is zero.
    EmptyViewport {
        /// Requested width in pixels.
        width: u32,
        /// Requested height in pixels.
        height: u32,
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
    /// classify errors without string inspection. Configuration,
    /// target-shape and viewport errors are deterministic — a retry would
    /// fail identically — so only transient [`DrawError::Backend`] faults
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
            DrawError::EmptyViewport { width, height } => {
                write!(f, "empty viewport: {width}x{height} has no pixels")
            }
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

/// Reusable per-draw buffers: the prologue's setup and fine-raster arena,
/// the spine's flush records, the per-tile shards, the per-worker staging
/// and the hardware-unit models (bin tables and caches, reset to power-on
/// state at the top of every draw). Holding one of these across draws
/// removes all steady-state allocation from a `threads: 1` draw; it never
/// changes a result.
#[derive(Debug, Default)]
pub struct DrawScratch {
    /// TC/TGC bin tables and CROP/z/L2 caches, built on first use and
    /// rebuilt only when the configuration changes their geometry.
    units: Option<Units>,
    /// Setup of every primitive and fine raster of every (primitive,
    /// screen tile) pair (parallel prologue output).
    raster: RasterArena,
    /// TC flushes in spine order.
    flushes: Vec<SpineFlush>,
    /// The quads of every TC flush, flush after flush in spine order.
    flush_quads: Vec<BinQuad>,
    /// One shard per screen tile, row-major.
    tiles: Vec<TileShard>,
    /// Tiles with flushes, heaviest first: the claim order of the
    /// parallel shard phase.
    tile_order: Vec<u32>,
    /// Raster and flush-processing staging, one per host worker.
    staging: Vec<FlushStaging>,
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
/// Panics when the configuration fails [`GpuConfig::validate`] or the
/// viewport is empty; use [`try_draw`] to handle both as values.
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

/// Fallible [`draw`]: returns [`DrawError::InvalidConfig`] or
/// [`DrawError::EmptyViewport`] instead of panicking, so long-running
/// frame loops can surface bad configurations and viewports as errors.
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
/// Panics when the configuration fails [`GpuConfig::validate`] or the
/// viewport is empty; use [`try_draw_with_scratch`] for the fallible form.
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
    if width == 0 || height == 0 {
        return Err(DrawError::EmptyViewport { width, height });
    }
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
    let units = Units::power_on(&mut scratch.units, cfg);
    scratch.flushes.clear();
    scratch.flush_quads.clear();
    scratch.tile_order.clear();
    scratch
        .tiles
        .resize_with(tiling.tile_count(), TileShard::default);
    for shard in &mut scratch.tiles {
        shard.touched = false;
    }
    let mut pipeline = Pipeline {
        splats,
        cfg,
        variant,
        tiling,
        units,
        timer: PipelineTimer::new(),
        stats: PipelineStats::default(),
        pending: WorkBatch::default(),
        round_quads: if cfg.thread_policy().workers(tiling.tile_count()) <= 1 {
            SERIAL_ROUND_QUADS
        } else {
            usize::MAX
        },
        scratch,
    };
    pipeline.prologue();
    let mut raster = std::mem::take(&mut pipeline.scratch.raster);
    pipeline.spine(&mut raster);
    pipeline.scratch.raster = raster;
    pipeline.run_round();
    Ok(pipeline.finish(color, ds))
}

/// Color-cache line geometry: a 128-B line covers a
/// `(128/bpp/4)`-wide × 4-tall pixel block.
fn line_block(cfg: &GpuConfig) -> (u32, u32) {
    let bpp = cfg.pixel_format.bytes_per_pixel() as u32;
    let block_h = 4u32;
    let block_w = (cfg.cache_line_bytes as u32 / (bpp * block_h)).max(1);
    (block_w, block_h)
}

/// L2 model geometry: 4 MB, 16-way.
const L2_BYTES: usize = 4 * 1024 * 1024;
const L2_WAYS: usize = 16;

/// Cache-log tag of a z-cache (stencil-line) access; it doubles as the
/// address-space tag that keeps z lines distinct from color lines in L2.
const Z_LINE: u64 = 1 << 62;
/// Cache-log flag of a z-cache write (termination update).
const Z_WRITE: u64 = 1 << 63;
/// Cache-log field holding a run length minus one: back-to-back repeats of
/// one access within a flush share an entry. Line addresses stay below
/// bit 48 (a frame would need 2^48 cache lines to reach it).
const RUN_SHIFT: u32 = 48;
const RUN_MASK: u64 = ((1 << 14) - 1) << RUN_SHIFT;

/// The stateful hardware-unit models one draw drives.
#[derive(Debug)]
struct Units {
    crop_cache: Cache,
    z_cache: Cache,
    l2: Cache,
    tc: BinTable<TileId, BinQuad>,
    tgc: BinTable<TileGridId, u32>,
}

impl Units {
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            crop_cache: Cache::new(cfg.crop_cache_bytes, cfg.cache_line_bytes, cfg.cache_ways),
            z_cache: Cache::new(cfg.z_cache_bytes, cfg.cache_line_bytes, cfg.cache_ways),
            l2: Cache::new(L2_BYTES, cfg.cache_line_bytes, L2_WAYS),
            tc: BinTable::new(cfg.tc_bins, cfg.tc_bin_size),
            tgc: BinTable::new(cfg.tgc_bins, cfg.tgc_bin_size),
        }
    }

    /// Whether these models have the geometry `cfg` asks for.
    fn fit(&self, cfg: &GpuConfig) -> bool {
        let line = cfg.cache_line_bytes;
        self.crop_cache
            .has_geometry(cfg.crop_cache_bytes, line, cfg.cache_ways)
            && self
                .z_cache
                .has_geometry(cfg.z_cache_bytes, line, cfg.cache_ways)
            && self.l2.has_geometry(L2_BYTES, line, L2_WAYS)
            && self.tc.has_shape(cfg.tc_bins, cfg.tc_bin_size)
            && self.tgc.has_shape(cfg.tgc_bins, cfg.tgc_bin_size)
    }

    /// Power-on models for `cfg`: the ones in `slot`, reset, when their
    /// geometry fits, otherwise new ones.
    fn power_on(slot: &mut Option<Units>, cfg: &GpuConfig) -> Self {
        match slot.take() {
            Some(mut units) if units.fit(cfg) => {
                units.crop_cache.reset();
                units.z_cache.reset();
                units.l2.reset();
                units.tc.reset();
                units.tgc.reset();
                units
            }
            _ => Units::new(cfg),
        }
    }

    /// Replays one cache-log entry — a run of identical ROP-cache
    /// accesses (CROP color-line writes, or [`Z_LINE`]-tagged stencil-line
    /// accesses) — with the L2/DRAM fill of its first access; the rest of
    /// the run hits.
    fn replay(&mut self, entry: u64, cfg: &GpuConfig, batch: &mut WorkBatch) {
        let run = ((entry & RUN_MASK) >> RUN_SHIFT) as u32 + 1;
        let access = entry & !RUN_MASK;
        let (line, hit) = if access & Z_LINE != 0 {
            let line = access & !Z_WRITE;
            (
                line,
                self.z_cache.access_run(line, access & Z_WRITE != 0, run),
            )
        } else {
            (access, self.crop_cache.access_run(access, true, run))
        };
        if !hit {
            // A ROP-cache miss fills from L2; an L2 miss goes to DRAM.
            let bytes = cfg.cache_line_bytes as f64;
            batch.add(Unit::L2, bytes / cfg.l2_bytes_per_cycle as f64);
            if !self.l2.access(line, false) {
                batch.add(Unit::Dram, bytes / cfg.dram_bytes_per_cycle as f64);
            }
        }
    }
}

/// Quads per round when one host worker runs every phase: a few dozen
/// flushes, so a round's quads and ROP-cache log stay in the host's
/// private caches while the per-round bookkeeping stays negligible.
const SERIAL_ROUND_QUADS: usize = 4096;

/// Prologue claims per host worker: enough chunks that workers finish
/// together although raster work per primitive varies widely (the
/// nearest, largest splats come first in draw order).
const PROLOGUE_CHUNKS_PER_WORKER: usize = 8;

/// The setup of every primitive and the fine raster of every (primitive,
/// screen tile) pair of a draw, one part per prologue chunk of
/// `1 << shift` primitives (a power of two, so finding a primitive's part
/// is a shift and a mask).
///
/// With one host worker nothing runs beside the spine, so the prologue
/// stores setups only and the spine rasterizes each pair when it reaches
/// it (`lazy`), keeping the draw's working set as small as a single
/// pair's quads.
#[derive(Debug, Default)]
struct RasterArena {
    shift: u32,
    parts: Vec<RasterPart>,
    lazy: bool,
    /// The pair rasterized last, when `lazy`.
    lazy_quads: Vec<BinQuad>,
}

/// The setups and fine raster of one chunk of primitives. A primitive's
/// pairs are contiguous and row-major over its full tile rect.
#[derive(Debug, Default)]
struct RasterPart {
    /// Per primitive of the chunk: its setup (`None` when degenerate).
    setups: Vec<Option<SplatSetup>>,
    /// Per primitive of the chunk: index of its first pair.
    first: Vec<u32>,
    pairs: Vec<RasterPair>,
    quads: Vec<BinQuad>,
}

/// A quad as the raster arena, the TC bins and the flush records hold it:
/// a third of a [`Quad`]'s bytes. The screen tile is implied (the pair's
/// tile, the bin's key) and the origin follows from the tile and `pos`.
#[derive(Debug, Clone, Copy)]
struct BinQuad {
    splat: u32,
    pos: QuadPos,
    coverage: u8,
}

impl BinQuad {
    fn new(q: &Quad) -> Self {
        Self {
            splat: q.splat,
            pos: q.pos,
            coverage: q.coverage,
        }
    }

    /// The full quad, in screen tile `tile` of `tile_px` pixels.
    #[inline]
    fn quad(self, tile: TileId, tile_px: u32) -> Quad {
        Quad {
            tile,
            pos: self.pos,
            origin: (
                tile.x * tile_px + 2 * self.pos.x as u32,
                tile.y * tile_px + 2 * self.pos.y as u32,
            ),
            coverage: self.coverage,
            splat: self.splat,
        }
    }
}

/// One (primitive, tile) visit: coarse-raster tiles and its quad range.
#[derive(Debug, Clone, Copy)]
struct RasterPair {
    coarse_tiles: u32,
    quads: (u32, u32),
}

/// Fine raster of primitive `prim` in `tile`, appended to `quads`;
/// returns the coarse-raster tile count.
fn raster_pair(
    setup: &SplatSetup,
    prim: u32,
    tile: TileId,
    tiling: &Tiling,
    cfg: &GpuConfig,
    quads: &mut Vec<BinQuad>,
) -> u64 {
    rasterize_in_tile_with(setup, prim, tile, tiling, cfg.raster_tile_px, |q| {
        let bq = BinQuad::new(&q);
        debug_assert_eq!(bq.quad(tile, tiling.tile_px()), q);
        quads.push(bq);
    })
}

impl RasterPart {
    /// Appends primitive `prim`'s setup and, unless `lazy`, its raster
    /// over its full tile rect.
    fn push_prim(
        &mut self,
        setup: Option<SplatSetup>,
        prim: u32,
        tiling: &Tiling,
        cfg: &GpuConfig,
        lazy: bool,
    ) {
        self.setups.push(setup);
        self.first.push(self.pairs.len() as u32);
        let Some(setup) = setup.filter(|_| !lazy) else {
            return;
        };
        let Some((x0, x1, y0, y1)) = tile_rect(tiling, &setup) else {
            return;
        };
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                let start = self.quads.len() as u32;
                let tile = TileId { x: tx, y: ty };
                let coarse = raster_pair(&setup, prim, tile, tiling, cfg, &mut self.quads);
                self.pairs.push(RasterPair {
                    coarse_tiles: coarse as u32,
                    quads: (start, self.quads.len() as u32),
                });
            }
        }
    }
}

impl RasterArena {
    /// Part and index within it of primitive `prim`.
    #[inline]
    fn locate(&self, prim: usize) -> (&RasterPart, usize) {
        (
            &self.parts[prim >> self.shift],
            prim & ((1 << self.shift) - 1),
        )
    }

    /// The setup of primitive `prim` (`None` when degenerate).
    fn setup(&self, prim: usize) -> Option<SplatSetup> {
        let (part, j) = self.locate(prim);
        part.setups[j]
    }

    /// Coarse-raster tiles and quads of primitive `prim` (set up as
    /// `setup`) in tile `(tx, ty)` of its full tile rect `full`.
    #[allow(clippy::too_many_arguments)]
    fn pair(
        &mut self,
        prim: u32,
        setup: &SplatSetup,
        full: (u32, u32, u32, u32),
        tx: u32,
        ty: u32,
        tiling: &Tiling,
        cfg: &GpuConfig,
    ) -> (u64, &[BinQuad]) {
        if self.lazy {
            self.lazy_quads.clear();
            let tile = TileId { x: tx, y: ty };
            let coarse = raster_pair(setup, prim, tile, tiling, cfg, &mut self.lazy_quads);
            return (coarse, &self.lazy_quads);
        }
        let (part, j) = self.locate(prim as usize);
        let offset = (ty - full.2) * (full.1 - full.0 + 1) + (tx - full.0);
        let pair = part.pairs[(part.first[j] + offset) as usize];
        let (start, end) = pair.quads;
        (
            pair.coarse_tiles as u64,
            &part.quads[start as usize..end as usize],
        )
    }
}

/// The inclusive screen-tile rect `(x0, x1, y0, y1)` a primitive's AABB
/// covers, if any.
fn tile_rect(tiling: &Tiling, setup: &SplatSetup) -> Option<(u32, u32, u32, u32)> {
    tiling.tile_rect_in_aabb(
        (setup.aabb.0.x, setup.aabb.0.y),
        (setup.aabb.1.x, setup.aabb.1.y),
    )
}

/// One TC flush as the serial spine records it.
#[derive(Debug, Clone, Copy)]
struct SpineFlush {
    /// Row-major screen-tile index.
    tile: u32,
    /// Ordinal among its tile's flushes (index into the shard's outcomes).
    slot: u32,
    /// Range of its quads in `DrawScratch::flush_quads`.
    quads: (u32, u32),
    /// The upstream work accumulated since the previous flush.
    pending: WorkBatch,
}

/// What processing one TC flush produced, beyond pixels and counters.
#[derive(Debug, Clone, Copy)]
struct FlushOutcome {
    /// ZROP, PROP, SM and CROP cycles (no other unit is touched).
    cycles: WorkBatch,
    /// Range of its ROP-cache log entries in the shard's log.
    log: (u32, u32),
}

/// The work counters TC-flush processing adds to. Kept per tile shard and
/// folded into [`PipelineStats`] after the shards join: `u64` sums
/// commute, so the totals never depend on which worker ran which tile.
#[derive(Debug, Default, Clone, Copy)]
struct FlushCounters {
    zrop_term_tests: u64,
    zrop_term_discards: u64,
    zrop_term_discarded_fragments: u64,
    retired_tile_skips: u64,
    warps_launched: u64,
    warp_quad_slots_used: u64,
    merged_pairs: u64,
    shaded_fragments: u64,
    alpha_pruned_fragments: u64,
    dead_quads: u64,
    crop_quads: u64,
    crop_fragments: u64,
    term_updates: u64,
    retired_tiles: u64,
}

impl FlushCounters {
    fn fold_into(&self, s: &mut PipelineStats) {
        s.zrop_term_tests += self.zrop_term_tests;
        s.zrop_term_discards += self.zrop_term_discards;
        s.zrop_term_discarded_fragments += self.zrop_term_discarded_fragments;
        s.retired_tile_skips += self.retired_tile_skips;
        s.warps_launched += self.warps_launched;
        s.warp_quad_slots_used += self.warp_quad_slots_used;
        s.merged_pairs += self.merged_pairs;
        s.shaded_fragments += self.shaded_fragments;
        s.alpha_pruned_fragments += self.alpha_pruned_fragments;
        s.dead_quads += self.dead_quads;
        s.crop_quads += self.crop_quads;
        s.crop_fragments += self.crop_fragments;
        s.term_updates += self.term_updates;
        s.retired_tiles += self.retired_tiles;
    }
}

/// Everything one screen tile's TC flushes touch: the tile's pixels (color
/// and termination flags), its retired flag, the work counters, and the
/// per-flush outcomes and ROP-cache access log the serial tail replays. A
/// shard is owned by one worker at a time.
#[derive(Debug, Default)]
struct TileShard {
    /// The tile has had a flush this draw (its pixel window is live).
    touched: bool,
    /// Spine-order indices of this tile's flushes in the current round.
    flushes: Vec<u32>,
    /// Quads over those flushes (the claim-order weight).
    quads: u64,
    /// Pixel window: origin and extent (clipped to the viewport).
    x0: u32,
    y0: u32,
    w: u32,
    h: u32,
    /// Row-major color of the window.
    color: Vec<Rgba>,
    /// Termination flags (stencil MSBs) of the window, one bit row per
    /// pixel row: the ZROP test reads a quad's four bits at once.
    terminated: TerminationRows,
    /// Every pixel of the window has terminated (HET variants).
    retired: bool,
    counters: FlushCounters,
    /// One per flush of the current round, in this tile's spine order.
    outcomes: Vec<FlushOutcome>,
    /// ROP-cache accesses of those flushes, in issue order.
    log: Vec<u64>,
}

impl TileShard {
    /// Clears the shard to the state of a freshly reset target window,
    /// at the tile's first flush of a draw.
    fn reset(&mut self, tiling: &Tiling, index: usize) {
        self.touched = true;
        let tile_px = tiling.tile_px();
        let tiles_x = tiling.tiles_x() as usize;
        self.x0 = (index % tiles_x) as u32 * tile_px;
        self.y0 = (index / tiles_x) as u32 * tile_px;
        self.w = (self.x0 + tile_px).min(tiling.width()) - self.x0;
        self.h = (self.y0 + tile_px).min(tiling.height()) - self.y0;
        let n = (self.w * self.h) as usize;
        self.color.clear();
        self.color.resize(n, Rgba::TRANSPARENT);
        self.terminated = TerminationRows::default();
        self.retired = false;
        self.counters = FlushCounters::default();
        self.end_round();
    }

    /// Drops the current round's flushes once the tail has replayed them.
    fn end_round(&mut self) {
        self.flushes.clear();
        self.quads = 0;
        self.outcomes.clear();
        self.log.clear();
    }

    /// Logs one ROP-cache access of the flush whose log starts at `from`,
    /// extending the previous entry's run when it is the same access.
    fn log_access(&mut self, from: usize, access: u64) {
        debug_assert!(
            access & RUN_MASK == 0,
            "line address overflows into the run field"
        );
        match self.log.get_mut(from..).and_then(|flush| flush.last_mut()) {
            Some(last) if *last & !RUN_MASK == access && *last & RUN_MASK != RUN_MASK => {
                *last += 1 << RUN_SHIFT;
            }
            _ => self.log.push(access),
        }
    }

    /// Window index of pixel `(x, y)`, when the pixel lies in the window.
    #[inline]
    fn index(&self, x: u32, y: u32) -> Option<usize> {
        let (dx, dy) = (x.wrapping_sub(self.x0), y.wrapping_sub(self.y0));
        (dx < self.w && dy < self.h).then(|| (dy * self.w + dx) as usize)
    }

    /// Writes the window back into the render targets.
    fn scatter(&self, color: &mut ColorBuffer, ds: &mut DepthStencilBuffer) {
        let width = color.width() as usize;
        let w = self.w as usize;
        for (r, row) in self.color.chunks_exact(w).enumerate() {
            let start = (self.y0 as usize + r) * width + self.x0 as usize;
            color.pixels_mut()[start..start + w].copy_from_slice(row);
        }
        self.terminated.write_back(ds, self.x0, self.y0);
    }
}

/// Per-worker staging of the flush being processed.
#[derive(Debug, Default)]
struct FlushStaging {
    /// Surviving quads of the flush.
    bin: Vec<Quad>,
    /// Shaded quads of the flush.
    shaded: Vec<ShadedQuad>,
    /// Merge replacements (front slots).
    replacement: Vec<Option<ShadedQuad>>,
    /// Back-quad skip marks.
    skip: Vec<bool>,
    /// QRU output, with its warp vectors recycled through `warp_pool`.
    plan: WarpPlan,
    warp_pool: Vec<Vec<WarpSlot>>,
}

/// Internal per-draw-call state of the serial phases.
struct Pipeline<'a> {
    splats: &'a [Splat],
    cfg: &'a GpuConfig,
    variant: PipelineVariant,
    tiling: Tiling,
    /// Taken from the scratch for the draw and returned at its end.
    units: Units,
    timer: PipelineTimer,
    stats: PipelineStats,
    /// Upstream work accumulated since the last TC flush.
    pending: WorkBatch,
    /// Recorded flush quads that close a round: shard and tail run once
    /// the spine has recorded this many. With one host worker a round is
    /// [`SERIAL_ROUND_QUADS`], so its quads and cache log are consumed
    /// while still in cache; otherwise the whole draw is one round.
    round_quads: usize,
    scratch: &'a mut DrawScratch,
}

impl Pipeline<'_> {
    /// Parallel prologue: triangle setup and fine raster of every
    /// primitive over its whole tile rect. Pure per-splat work over
    /// contiguous chunks, one arena part per chunk, so every result is
    /// independent of the thread count.
    fn prologue(&mut self) {
        let (splats, cfg, tiling) = (self.splats, self.cfg, &self.tiling);
        let raster = &mut self.scratch.raster;
        let n = splats.len();
        let workers = cfg.thread_policy().workers(n);
        let chunks = if workers > 1 {
            workers * PROLOGUE_CHUNKS_PER_WORKER
        } else {
            1
        };
        let chunk = n.div_ceil(chunks).max(1).next_power_of_two();
        raster.shift = chunk.trailing_zeros();
        raster.lazy = workers <= 1;
        let lazy = raster.lazy;
        raster
            .parts
            .resize_with(n.div_ceil(chunk).max(1), RasterPart::default);
        // Raster workers need no state of their own: one `()` each (a
        // `Vec` of a zero-sized type never allocates).
        for_each_claimed(
            &mut vec![(); workers],
            &mut raster.parts,
            None,
            |_, part, c| {
                part.setups.clear();
                part.first.clear();
                part.pairs.clear();
                part.quads.clear();
                let start = c * chunk;
                for (i, splat) in splats.iter().enumerate().take(start + chunk).skip(start) {
                    part.push_prim(SplatSetup::new(splat), i as u32, tiling, cfg, lazy);
                }
            },
        );
    }

    /// Serial spine: replays vertex accounting, TGC/TC insertion, bin
    /// evictions and drains in draw order, recording every TC flush with
    /// the upstream work pending at that moment. Nothing here reads a
    /// pixel, so the flush sequence is fixed before any pixel work runs.
    fn spine(&mut self, raster: &mut RasterArena) {
        // Degenerate (singular-axes) primitives were culled at setup —
        // count them so zero-area inputs are observable, never silent.
        self.stats.degenerate_prims = raster
            .parts
            .iter()
            .flat_map(|p| &p.setups)
            .filter(|s| s.is_none())
            .count() as u64;
        if self.variant.qm() {
            self.run_with_tgc(raster);
        } else {
            self.run_direct(raster);
        }
        // End-of-draw: drain the TC unit (subsumes the timeout flush).
        while let Some(flush) = self.units.tc.drain_next() {
            self.record_tc_flush(flush);
        }
    }

    /// Baseline path: each primitive rasterizes across all its screen
    /// tiles immediately, in draw order.
    fn run_direct(&mut self, raster: &mut RasterArena) {
        for i in 0..self.splats.len() {
            self.account_vertex(i);
            let Some(setup) = raster.setup(i) else {
                continue;
            };
            let Some(rect) = tile_rect(&self.tiling, &setup) else {
                continue;
            };
            self.rasterize_rect(raster, i as u32, &setup, rect, rect);
        }
    }

    /// QM path: primitives are first gathered per tile grid by the TGC
    /// unit; a TGC flush rasterizes its primitives restricted to that grid,
    /// concentrating spatially-overlapping quads in the TC bins.
    ///
    /// Each primitive is accounted, then inserted into the TGC bin of
    /// every tile grid its tile rect touches, x-major: the same visit
    /// order as sorting `TileGridId`s (lexicographic by x, then y).
    fn run_with_tgc(&mut self, raster: &mut RasterArena) {
        let g = self.cfg.tile_grid_tiles;
        for i in 0..self.splats.len() {
            self.account_vertex(i);
            let Some(setup) = raster.setup(i) else {
                continue;
            };
            let Some((x0, x1, y0, y1)) = tile_rect(&self.tiling, &setup) else {
                continue;
            };
            for gx in x0 / g..=x1 / g {
                for gy in y0 / g..=y1 / g {
                    self.stats.tgc_insertions += 1;
                    self.pending.add(Unit::Tgc, 1.0);
                    for flush in self.units.tgc.insert(TileGridId { x: gx, y: gy }, i as u32) {
                        self.process_tgc_flush(raster, flush.key, &flush.items);
                        self.units.tgc.recycle(flush.items);
                    }
                }
            }
        }
        while let Some(flush) = self.units.tgc.drain_next() {
            self.process_tgc_flush(raster, flush.key, &flush.items);
            self.units.tgc.recycle(flush.items);
        }
        let s = self.units.tgc.stats();
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
    fn process_tgc_flush(&mut self, raster: &mut RasterArena, grid: TileGridId, prims: &[u32]) {
        let g = self.cfg.tile_grid_tiles;
        for &prim in prims {
            let Some(setup) = raster.setup(prim as usize) else {
                continue;
            };
            let Some(full) = tile_rect(&self.tiling, &setup) else {
                continue;
            };
            // Intersect the primitive's tile rect with this grid's tiles.
            let (x0, x1, y0, y1) = full;
            let rect = (
                x0.max(grid.x * g),
                x1.min(grid.x * g + g - 1),
                y0.max(grid.y * g),
                y1.min(grid.y * g + g - 1),
            );
            if rect.0 > rect.1 || rect.2 > rect.3 {
                continue;
            }
            self.rasterize_rect(raster, prim, &setup, full, rect);
        }
    }

    /// Feeds the raster of the inclusive tile rectangle
    /// `rect = (x0, x1, y0, y1)` — within the primitive's full tile rect
    /// `full` — through setup/coarse/fine accounting into the TC unit.
    ///
    /// Retired tiles are deliberately *not* skipped here: their quads must
    /// keep flowing into the TC bins so bin-pressure evictions — and with
    /// them every other tile's flush boundaries, ZROP test timing and
    /// blend rounding — stay identical with and without the retirement
    /// check (`GpuConfig::kernel`). The check instead discards a retired
    /// tile's quads wholesale at flush time (see
    /// [`ShardCtx::process_flush`]), which is exact. This is also what lets
    /// the spine run ahead of all pixel work.
    fn rasterize_rect(
        &mut self,
        raster: &mut RasterArena,
        prim: u32,
        setup: &SplatSetup,
        full: (u32, u32, u32, u32),
        rect: (u32, u32, u32, u32),
    ) {
        let (x0, x1, y0, y1) = rect;
        self.pending
            .add(Unit::Raster, 1.0 / self.cfg.setup_prims_per_cycle as f64);
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                let (coarse_tiles, quads) =
                    raster.pair(prim, setup, full, tx, ty, &self.tiling, self.cfg);
                self.stats.coarse_tiles += coarse_tiles;
                self.pending.add(
                    Unit::Raster,
                    coarse_tiles as f64 / self.cfg.coarse_raster_tiles_per_cycle as f64
                        + quads.len() as f64 / self.cfg.fine_raster_quads_per_cycle as f64,
                );
                for &q in quads {
                    self.stats.raster_quads += 1;
                    self.stats.raster_fragments += (q.coverage & 0xF).count_ones() as u64;
                    self.tc_insert(TileId { x: tx, y: ty }, q);
                }
            }
        }
    }

    fn tc_insert(&mut self, tile: TileId, q: BinQuad) {
        self.stats.tc_insertions += 1;
        self.pending
            .add(Unit::Tc, 1.0 / self.cfg.tc_quads_per_cycle as f64);
        for flush in self.units.tc.insert(tile, q) {
            self.record_tc_flush(flush);
        }
    }

    /// Records one TC flush for its tile's shard: its quads, and the
    /// upstream work batch it closes.
    fn record_tc_flush(&mut self, flush: Flush<TileId, BinQuad>) {
        self.stats.tc_flushes += 1;
        if flush.reason == FlushReason::Evicted {
            self.stats.tc_evictions += 1;
        }
        let DrawScratch {
            flushes,
            flush_quads,
            tiles,
            tile_order,
            ..
        } = &mut *self.scratch;
        let tile = flush.key.y * self.tiling.tiles_x() + flush.key.x;
        let shard = &mut tiles[tile as usize];
        if !shard.touched {
            shard.reset(&self.tiling, tile as usize);
        }
        if shard.flushes.is_empty() {
            tile_order.push(tile);
        }
        let start = flush_quads.len() as u32;
        flush_quads.extend_from_slice(&flush.items);
        shard.quads += flush.items.len() as u64;
        shard.flushes.push(flushes.len() as u32);
        flushes.push(SpineFlush {
            tile,
            slot: shard.flushes.len() as u32 - 1,
            quads: (start, flush_quads.len() as u32),
            pending: std::mem::take(&mut self.pending),
        });
        self.units.tc.recycle(flush.items);
        if self.scratch.flush_quads.len() >= self.round_quads {
            self.run_round();
        }
    }

    /// Runs the recorded round of flushes through the shard and tail
    /// phases, then drops it.
    fn run_round(&mut self) {
        self.shard_tiles();
        self.replay_round();
        let DrawScratch {
            flushes,
            flush_quads,
            tiles,
            tile_order,
            ..
        } = &mut *self.scratch;
        for &t in tile_order.iter() {
            tiles[t as usize].end_round();
        }
        tile_order.clear();
        flushes.clear();
        flush_quads.clear();
    }

    /// Per-tile shards: every tile's flushes of the round, in spine order,
    /// on the host workers. Tiles own disjoint pixels, termination state
    /// and logs, so which worker runs which tile never changes a result.
    /// Workers claim tiles heaviest first; with one worker the tiles run
    /// inline.
    fn shard_tiles(&mut self) {
        let DrawScratch {
            flushes,
            flush_quads,
            tiles,
            tile_order,
            staging,
            ..
        } = &mut *self.scratch;
        let ctx = ShardCtx {
            splats: self.splats,
            cfg: self.cfg,
            variant: self.variant,
            tiling: &self.tiling,
            flushes,
            flush_quads,
            line_block: line_block(self.cfg),
        };
        let workers = self.cfg.thread_policy().workers(tile_order.len());
        if workers > 1 {
            tile_order.sort_unstable_by_key(|&t| std::cmp::Reverse(tiles[t as usize].quads));
        }
        staging.resize_with(workers, FlushStaging::default);
        for_each_claimed(staging, tiles, Some(tile_order), |st, shard, t| {
            ctx.run_tile(shard, t, st)
        });
    }

    /// Serial tail: replays each flush's ROP-cache log (adding the L2/DRAM
    /// fills) and pushes its timing batch, in spine order.
    fn replay_round(&mut self) {
        let DrawScratch { flushes, tiles, .. } = &*self.scratch;
        for flush in flushes {
            let shard = &tiles[flush.tile as usize];
            let outcome = &shard.outcomes[flush.slot as usize];
            // `pending` never touches ZROP/PROP/CROP/L2/DRAM and the flush
            // adds to SM once, so every per-unit f64 sum is formed in the
            // same order as processing the flush in place would form it.
            let mut batch = flush.pending;
            for (b, c) in batch.cycles.iter_mut().zip(outcome.cycles.cycles) {
                *b += c;
            }
            let (start, end) = outcome.log;
            for &entry in &shard.log[start as usize..end as usize] {
                self.units.replay(entry, self.cfg, &mut batch);
            }
            self.timer.push(batch);
        }
    }

    /// End of draw: pushes the trailing upstream work, writes the tile
    /// windows back and finishes the stats.
    fn finish(mut self, color: &mut ColorBuffer, ds: &mut DepthStencilBuffer) -> PipelineStats {
        // Push any trailing upstream work.
        if self.pending.total() > 0.0 {
            let batch = std::mem::take(&mut self.pending);
            self.timer.push(batch);
        }
        self.units.crop_cache.flush();
        self.units.z_cache.flush();
        for shard in self.scratch.tiles.iter().filter(|s| s.touched) {
            shard.scatter(color, ds);
            shard.counters.fold_into(&mut self.stats);
        }

        self.stats.crop_cache = self.units.crop_cache.stats();
        self.stats.z_cache = self.units.z_cache.stats();
        let (total, busy) = self.timer.finish();
        self.stats.total_cycles = total;
        self.stats.busy_cycles = busy;
        self.scratch.units = Some(self.units);
        self.stats
    }
}

/// The read-only draw state every shard worker shares.
struct ShardCtx<'a> {
    splats: &'a [Splat],
    cfg: &'a GpuConfig,
    variant: PipelineVariant,
    tiling: &'a Tiling,
    flushes: &'a [SpineFlush],
    flush_quads: &'a [BinQuad],
    /// Color-cache line geometry (pixels per line block).
    line_block: (u32, u32),
}

impl ShardCtx<'_> {
    /// Processes the round's flushes of tile `index`, in spine order.
    fn run_tile(&self, shard: &mut TileShard, index: usize, staging: &mut FlushStaging) {
        let tiles_x = self.tiling.tiles_x();
        let tile = TileId {
            x: index as u32 % tiles_x,
            y: index as u32 / tiles_x,
        };
        for k in 0..shard.flushes.len() {
            let (start, end) = self.flushes[shard.flushes[k] as usize].quads;
            let items = &self.flush_quads[start as usize..end as usize];
            let log_start = shard.log.len() as u32;
            let cycles = self.process_flush(shard, staging, tile, items);
            shard.outcomes.push(FlushOutcome {
                cycles,
                log: (log_start, shard.log.len() as u32),
            });
        }
    }

    /// The heart of the pipeline: one TC-bin flush travels through ZROP
    /// (HET), PROP/QRU (QM), the SMs and CROP. Returns those units' cycles;
    /// the ROP-cache accesses go to the shard's log for the serial tail.
    fn process_flush(
        &self,
        shard: &mut TileShard,
        st: &mut FlushStaging,
        tile: TileId,
        items: &[BinQuad],
    ) -> WorkBatch {
        let cfg = self.cfg;
        let tile_px = self.tiling.tile_px();
        let log_from = shard.log.len();
        let mut batch = WorkBatch::default();

        // --- ZROP early-termination test (HET) ---
        st.bin.clear();
        if self.variant.het() {
            if cfg.kernel == FragmentKernel::Soa && shard.retired {
                // Tile-granularity transmittance check: every pixel of the
                // tile is terminated, so the whole flush is discarded on
                // one tile-flag read instead of per-quad stencil-line
                // tests. The surviving set (empty) is what the per-quad
                // loop would produce, so images and downstream state are
                // bit-identical; only ZROP/z-cache work disappears.
                let c = &mut shard.counters;
                c.retired_tile_skips += 1;
                c.zrop_term_discards += items.len() as u64;
                c.zrop_term_discarded_fragments += items
                    .iter()
                    .map(|q| (q.coverage & 0xF).count_ones() as u64)
                    .sum::<u64>();
                batch.add(Unit::Zrop, 1.0 / cfg.zrop_quads_per_cycle as f64);
            } else {
                shard.counters.zrop_term_tests += items.len() as u64;
                batch.add(
                    Unit::Zrop,
                    items.len() as f64 / cfg.zrop_quads_per_cycle as f64,
                );
                for q in items.iter().map(|q| q.quad(tile, tile_px)) {
                    // One z-cache line read per quad (stencil MSBs).
                    shard.log_access(log_from, self.z_line(q.origin));
                    let terminated = shard
                        .terminated
                        .quad(2 * q.pos.x as u32, 2 * q.pos.y as u32);
                    let t = termination_test(q.coverage, terminated);
                    if t.survives {
                        shard.counters.zrop_term_discarded_fragments +=
                            t.terminated_fragments as u64;
                        st.bin.push(q);
                    } else {
                        shard.counters.zrop_term_discards += 1;
                        shard.counters.zrop_term_discarded_fragments += q.coverage_count() as u64;
                    }
                }
            }
        } else {
            st.bin.extend(items.iter().map(|q| q.quad(tile, tile_px)));
        }
        if st.bin.is_empty() {
            return batch;
        }
        let bin = &st.bin;

        // --- PROP routing / quad reorder unit (QM) ---
        if self.variant.qm() {
            plan_warps_into(bin, &mut st.plan, &mut st.warp_pool);
        } else {
            sequential_plan_into(bin.len(), &mut st.plan, &mut st.warp_pool);
        }
        let plan = &st.plan;
        // Pre-shading routing (and QRU examination, which proceeds at the
        // routing rate — the scan is simple register compares pipelined
        // with dispatch).
        batch.add(
            Unit::Prop,
            bin.len() as f64 / cfg.prop_quads_per_cycle as f64,
        );
        shard.counters.warps_launched += plan.warp_count() as u64;
        shard.counters.warp_quad_slots_used += plan.slots_used() as u64;
        shard.counters.merged_pairs += plan.pairs as u64;

        // --- SM fragment shading ---
        let mut warp_cycles = 0u64;
        for warp in &plan.warps {
            let has_pair = warp.iter().any(|s| matches!(s, WarpSlot::Pair(..)));
            warp_cycles += cfg.frag_shader_cycles_per_warp as u64
                + if has_pair {
                    cfg.qm_extra_cycles_per_warp as u64
                } else {
                    0
                };
        }
        batch.add(Unit::Sm, warp_cycles as f64 / cfg.simt_cores as f64);

        st.shaded.clear();
        for q in bin {
            let sq = shade_quad(q, &self.splats[q.splat as usize]);
            let covered = q.coverage_count() as u64;
            shard.counters.shaded_fragments += covered;
            shard.counters.alpha_pruned_fragments += covered - sq.alive_count() as u64;
            st.shaded.push(sq);
        }

        // Merge pairs: replace the front quad, skip the back quad.
        st.replacement.clear();
        st.replacement.resize(bin.len(), None);
        st.skip.clear();
        st.skip.resize(bin.len(), false);
        for warp in &plan.warps {
            for slot in warp {
                if let WarpSlot::Pair(front, back) = *slot {
                    st.replacement[front] = Some(merge_pair(&st.shaded[front], &st.shaded[back]));
                    st.skip[back] = true;
                }
            }
        }

        // --- CROP blending (+ HET alpha test unit) ---
        let mut crop_quads_here = 0u64;
        for idx in 0..bin.len() {
            if st.skip[idx] {
                continue;
            }
            let sq = st.replacement[idx].as_ref().unwrap_or(&st.shaded[idx]);
            if sq.is_dead() {
                shard.counters.dead_quads += 1;
                continue;
            }
            crop_quads_here += 1;
            shard.counters.crop_quads += 1;
            self.crop_lines(sq.quad.origin, |line| shard.log_access(log_from, line));
            for i in 0..4 {
                if sq.alive & (1 << i) == 0 {
                    continue;
                }
                let (x, y) = sq.quad.fragment_xy(i);
                let Some(px) = shard.index(x, y) else {
                    continue;
                };
                shard.counters.crop_fragments += 1;
                let (rgb, a) = premultiplied_fragment(sq, i);
                let dest = shard.color[px];
                let prev_alpha = dest.a;
                let blended = blend_over(dest, Rgba::from_rgb(rgb, a));
                shard.color[px] = blended;
                if self.variant.het() && alpha_test(prev_alpha, blended.a) {
                    // Termination signal → ZROP update (read-modify-write
                    // of the stencil line through the z-cache).
                    shard.counters.term_updates += 1;
                    shard.log_access(log_from, self.z_line((x, y)) | Z_WRITE);
                    batch.add(Unit::Zrop, 0.5);
                    shard.terminated.set(x - shard.x0, y - shard.y0);
                    // The retired flag is set either way (only its
                    // *consumption* is gated on `kernel == Soa`).
                    if !shard.retired && shard.terminated.all(shard.w, shard.h) {
                        shard.retired = true;
                        shard.counters.retired_tiles += 1;
                    }
                }
            }
        }
        batch.add(
            Unit::Crop,
            crop_quads_here as f64 / cfg.crop_quads_per_cycle() as f64,
        );
        // Post-shading ordering in PROP proceeds at CROP pace (PROP
        // orchestrates the color-fragment flow into CROP).
        batch.add(
            Unit::Prop,
            crop_quads_here as f64 / cfg.crop_quads_per_cycle() as f64,
        );
        batch
    }

    /// Logs the CROP-cache accesses for the color line(s) under a quad.
    fn crop_lines(&self, origin: (u32, u32), mut log: impl FnMut(u64)) {
        let (bw, bh) = self.line_block;
        let (width, height) = (self.tiling.width(), self.tiling.height());
        let blocks_x = width.div_ceil(bw) as u64;
        let mut lines = [u64::MAX; 4];
        let mut n = 0;
        for (dx, dy) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
            let x = origin.0 + dx;
            let y = origin.1 + dy;
            if x >= width || y >= height {
                continue;
            }
            let line = (y / bh) as u64 * blocks_x + (x / bw) as u64;
            if !lines[..n].contains(&line) {
                lines[n] = line;
                n += 1;
            }
        }
        lines[..n].iter().for_each(|&line| log(line));
    }

    /// The [`Z_LINE`]-tagged stencil line under a quad or pixel.
    fn z_line(&self, origin: (u32, u32)) -> u64 {
        // 128-B stencil line = 16×8 pixel block at 1 B/pixel.
        let blocks_x = self.tiling.width().div_ceil(16) as u64;
        let line = (origin.1 / 8) as u64 * blocks_x + (origin.0 / 16) as u64;
        line | Z_LINE
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
        let mut warp = pooled_warp(pool);
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

    /// Tiny TC/TGC tables and CROP cache: forces TC evictions, so one tile
    /// flushes many times, and rebuilds the unit models when interleaved
    /// with the default configuration.
    fn small_units() -> GpuConfig {
        GpuConfig {
            tc_bins: 3,
            tc_bin_size: 8,
            tgc_bins: 2,
            tgc_bin_size: 4,
            crop_cache_bytes: 1024,
            ..cfg()
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_draws() {
        // One scratch serves interleaved variants, splat sets, viewports,
        // unit geometries and host worker counts. Stale bin, cache, shard
        // or retirement state would make a reused draw differ from a
        // fresh one.
        let stacked = stacked_splats(35, 0.4);
        let scattered = scattered_splats(90, 96, 64);
        let cases = [
            (&stacked, 32, 32, cfg()),
            (&scattered, 96, 64, cfg()),
            (&scattered, 96, 64, small_units()),
            (&stacked, 48, 40, cfg()),
            (&scattered, 96, 64, cfg()),
            (&stacked, 32, 32, small_units()),
        ];
        let mut scratch = DrawScratch::default();
        for (round, threads) in [1, 1, 2].into_iter().enumerate() {
            for v in PipelineVariant::ALL {
                for (i, (splats, w, h, gpu)) in cases.iter().enumerate() {
                    let gpu = GpuConfig {
                        threads,
                        ..gpu.clone()
                    };
                    let fresh = draw(splats, *w, *h, &gpu, v);
                    let reused = draw_with_scratch(splats, *w, *h, &gpu, v, &mut scratch);
                    let at = format!("round {round} (threads {threads}) {v} case {i}");
                    assert_eq!(reused.stats, fresh.stats, "{at}");
                    assert_eq!(reused.color.max_abs_diff(&fresh.color), 0.0, "{at}");
                    assert_eq!(reused.depth_stencil, fresh.depth_stencil, "{at}");
                }
            }
        }
    }

    /// `n` overlapping splats spread over a `w`×`h` viewport in draw
    /// order, so the bin tables see many tiles and tile grids.
    fn scattered_splats(n: usize, w: u32, h: u32) -> Vec<Splat> {
        let mut v = stacked_splats(n, 0.6);
        for (i, s) in v.iter_mut().enumerate() {
            let k = i as u32 * 37;
            s.center = Vec2::new((k % w) as f32, ((k / w) * 11 % h) as f32);
            s.axis_major = Vec2::new(9.0, 0.0);
            s.axis_minor = Vec2::new(0.0, 9.0);
            s.conic = (0.05, 0.0, 0.05);
        }
        v
    }

    #[test]
    fn thread_count_never_changes_simulated_results() {
        // Tile shards commute only if every piece of state a TC flush
        // touches is its tile's own: cover partial edge tiles, tiles that
        // flush many times, fewer tiles than workers, and tiles that
        // retire mid-draw.
        let stacked = stacked_splats(40, 0.5);
        let scattered = scattered_splats(120, 90, 70);
        let flat = flat_stacked(60);
        let soa = GpuConfig {
            kernel: FragmentKernel::Soa,
            ..cfg()
        };
        let cases = [
            ("stacked", &stacked, 48, 48, cfg()),
            ("partial edge tiles", &scattered, 90, 70, cfg()),
            ("TC evictions", &scattered, 90, 70, small_units()),
            ("fewer tiles than workers", &stacked, 20, 12, cfg()),
            ("SoA tile retirement", &flat, 40, 40, soa),
        ];
        for (case, splats, w, h, gpu) in cases {
            let at = |threads: usize| GpuConfig {
                threads,
                ..gpu.clone()
            };
            let serial = PipelineVariant::ALL.map(|v| draw(splats, w, h, &at(1), v));
            let het = &serial[PipelineVariant::Het as usize];
            match case {
                "TC evictions" => {
                    assert!(het.stats.tc_evictions > 0, "{case}");
                    let tiles = Tiling::new(w, h, gpu.screen_tile_px, 1).tile_count() as u64;
                    assert!(het.stats.tc_flushes > 2 * tiles, "{case}");
                }
                "fewer tiles than workers" => {
                    assert!(Tiling::new(w, h, gpu.screen_tile_px, 1).tile_count() < 3);
                }
                "SoA tile retirement" => {
                    assert!(het.stats.retired_tiles > 0, "{case}");
                    assert!(het.stats.retired_tile_skips > 0, "{case}");
                }
                _ => {}
            }
            for threads in [2usize, 3, 5] {
                for (v, reference) in PipelineVariant::ALL.iter().zip(&serial) {
                    let out = draw(splats, w, h, &at(threads), *v);
                    let at = format!("{case}: {v} threads={threads}");
                    assert_eq!(out.stats, reference.stats, "{at}");
                    assert_eq!(out.color.max_abs_diff(&reference.color), 0.0, "{at}");
                    assert_eq!(out.depth_stencil, reference.depth_stencil, "{at}");
                }
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
                // Without HET there is no retirement check, so `kernel`
                // has no effect and stats match exactly.
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
