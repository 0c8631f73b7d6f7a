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
//! in rounds of about `ROUND_QUADS` flushed quads, each through three
//! phases, on the host workers of [`GpuConfig::thread_policy`]:
//!
//! 1. **Spine** (calling thread): vertex accounting, triangle setup and
//!    TGC/TC insertion in draw order. It fine-rasterizes each (primitive,
//!    screen tile) pair when it reaches it, and the pair's quads enter the
//!    TC bins as one run. It records each TC flush with the upstream work
//!    batch it closes, and reads no pixel.
//! 2. **Shards** (any worker, per screen tile): each tile's flushes of the
//!    round in spine order, on the tile's own pixels and termination
//!    state. ZROP tests a flush's quads into a survivor mask, the QRU pairs
//!    the survivors, and one pass in bin order shades each front quad with
//!    its back, merges and blends it in CROP, logging the ROP-cache
//!    accesses. Nothing is staged between the units.
//! 3. **Tail** (calling thread): replays the round's cache logs through the
//!    CROP/z/L2 models and pushes each flush's timing batch, in spine
//!    order.
//!
//! Rounds are pipelined through a [`gsplat::par::with_crew`] crew whose
//! helpers live for the whole draw: while they shard a closed round, the
//! calling thread replays the tail of the round before it and records the
//! next one, and when it closes that one it helps finish the shards. With
//! one worker the same steps run in turn on the calling thread.
//!
//! Simulated results are bit-exact for every `threads` setting (DESIGN.md
//! §4). The setups, the two round buffers and the tile shards, like the
//! bin tables and caches themselves (reset to power-on state per draw),
//! live in a reusable [`DrawScratch`]; at `threads: 1` the steady-state
//! frame loop is allocation-free.

use gpu_sim::binning::{BinTable, Flush, FlushReason};
use gpu_sim::cache::Cache;
use gpu_sim::config::{GpuConfig, L2_BYTES, L2_WAYS, MAX_TC_BIN_SIZE};
use gpu_sim::raster::{rasterize_in_tile_with, SplatSetup};
use gpu_sim::stats::{PipelineStats, Unit};
use gpu_sim::tiles::{QuadPos, TileGridId, TileId, Tiling};
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use gsplat::blend::blend_over;
use gsplat::color::Rgba;
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::par::{with_crew, Crew};
use gsplat::splat::Splat;
use gsplat::stream::FragmentKernel;
use std::sync::{Mutex, PoisonError};

use crate::het::{alpha_test, termination_test, TerminationRows};
use crate::qm::{warp_counts, QuadPairs};
use crate::shading::{shade_pair, QuadLanes, ShadeCounters};
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
    /// The [`GpuConfig`] failed [`GpuConfig::validate`], or a frame
    /// sequence's field of view is outside `(0, π)`
    /// (`Session::run_vrpipe`); the payload describes the first violation.
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

/// Reusable per-draw buffers: the spine's setups and pair raster, the two
/// rounds of flush records and shard outputs, the per-tile shards and the
/// hardware-unit models (bin tables and caches, reset to power-on state at
/// the top of every draw). Holding one of these across draws removes all
/// steady-state allocation from a `threads: 1` draw; it never changes a
/// result.
#[derive(Debug, Default)]
pub struct DrawScratch {
    /// TC/TGC bin tables and CROP/z/L2 caches, built on first use and
    /// rebuilt only when the configuration changes their geometry.
    units: Option<Units>,
    /// Per primitive reached so far, in draw order: its setup (`None` when
    /// degenerate).
    setups: Vec<Option<SplatSetup>>,
    /// The fine raster of the (primitive, tile) pair the spine reached
    /// last.
    pair_quads: Vec<BinQuad>,
    /// The round the spine records and the round the shards and the tail
    /// work on.
    rounds: [Round; 2],
    /// One shard per screen tile, row-major.
    tiles: Vec<Mutex<TileShard>>,
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

/// [`try_draw`] into caller-owned render targets (cleared here), reusing
/// `scratch` — the fully allocation-free frame-loop entry point. Rejects
/// invalid configurations and mismatched render targets as a
/// [`DrawError`] before any pipeline state is touched, instead of
/// panicking mid-frame-loop.
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
    Ok(draw_in_rounds(
        splats,
        cfg,
        variant,
        color,
        ds,
        scratch,
        ROUND_QUADS,
    ))
}

/// The draw behind [`try_draw_in_place`], closing a round once it holds
/// `round_quads` recorded flush quads (results never depend on it).
// vrlint: hot
fn draw_in_rounds(
    splats: &[Splat],
    cfg: &GpuConfig,
    variant: PipelineVariant,
    color: &mut ColorBuffer,
    ds: &mut DepthStencilBuffer,
    scratch: &mut DrawScratch,
    round_quads: usize,
) -> PipelineStats {
    let (width, height) = (color.width(), color.height());
    color.reset(width, height, cfg.pixel_format);
    ds.reset(width, height);
    let tiling = Tiling::new(width, height, cfg.screen_tile_px);
    let DrawScratch {
        units,
        setups,
        pair_quads,
        rounds,
        tiles,
    } = scratch;
    let Units {
        crop_cache,
        z_cache,
        l2,
        tc,
        tgc,
    } = Units::power_on(units, cfg);
    setups.clear();
    let [mut round, mut spare] = std::mem::take(rounds);
    round.resize(tiling.tile_count());
    spare.resize(tiling.tile_count());
    tiles.resize_with(tiling.tile_count(), Mutex::default);
    for shard in tiles.iter_mut() {
        shard
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .touched = false;
    }
    let tail = Tail {
        cfg,
        crop_cache,
        z_cache,
        l2,
        timer: PipelineTimer::new(),
    };
    let ctx = ShardCtx::new(splats, cfg, variant, &tiling, tiles);
    let workers = cfg.thread_policy().workers(tiling.tile_count());
    let (mut stats, tc, tgc, tail) = with_crew(
        workers - 1,
        |round: &Round, k| ctx.run_claim(round, k),
        |crew| {
            let mut spine = Spine {
                splats,
                cfg,
                variant,
                tiling,
                tc,
                tgc,
                setups,
                pair_quads,
                stats: PipelineStats::default(),
                pending: WorkBatch::default(),
                round,
                spare,
                round_quads,
                tail,
                crew,
            };
            spine.run();
            *rounds = [spine.round, spine.spare];
            (spine.stats, spine.tc, spine.tgc, spine.tail)
        },
    );
    for shard in tiles.iter_mut() {
        let shard = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
        if shard.touched {
            shard.scatter(color, ds);
            shard.counters.fold_into(&mut stats);
        }
    }
    let Tail {
        mut crop_cache,
        mut z_cache,
        l2,
        timer,
        ..
    } = tail;
    crop_cache.flush();
    z_cache.flush();
    stats.crop_cache = crop_cache.stats();
    stats.z_cache = z_cache.stats();
    let (total, busy) = timer.finish();
    stats.total_cycles = total;
    stats.busy_cycles = busy;
    *units = Some(Units {
        crop_cache,
        z_cache,
        l2,
        tc,
        tgc,
    });
    stats
}

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

/// The stateful hardware-unit models one draw drives: the spine's bin
/// tables and the tail's caches.
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
}

/// Recorded flush quads that close a round: a few dozen flushes, so a
/// round's quads and ROP-cache log stay in the host's private caches,
/// while the hand-off of a round to the shard workers (a lock and a
/// wake-up, some microseconds) stays small against its work.
const ROUND_QUADS: usize = 4096;

/// A quad as the fine raster emits it, and as the TC bins and the flush
/// records hold it: its primitive, its position in the screen tile and its
/// coverage. The screen tile is implied (the pair's tile, the bin's key)
/// and the origin follows from the tile and `pos`.
#[derive(Debug, Clone, Copy)]
struct BinQuad {
    splat: u32,
    pos: QuadPos,
    coverage: u8,
}

/// The inclusive screen-tile rect `(x0, x1, y0, y1)` a primitive's AABB
/// covers, if any.
fn tile_rect(tiling: &Tiling, setup: &SplatSetup) -> Option<(u32, u32, u32, u32)> {
    tiling.tile_rect_in_aabb(
        (setup.aabb.0.x, setup.aabb.0.y),
        (setup.aabb.1.x, setup.aabb.1.y),
    )
}

/// One TC flush as the spine records it.
#[derive(Debug, Clone, Copy)]
struct SpineFlush {
    /// Row-major screen-tile index.
    tile: u32,
    /// Ordinal among its tile's flushes of the round (index into the
    /// tile's outcomes).
    slot: u32,
    /// Range of its quads in [`Round::quads`].
    quads: (u32, u32),
    /// The upstream work accumulated since the previous flush.
    pending: WorkBatch,
}

/// What processing one TC flush produced, beyond pixels and counters.
#[derive(Debug, Clone, Copy)]
struct FlushOutcome {
    /// ZROP, PROP, SM and CROP cycles (no other unit is touched).
    cycles: WorkBatch,
    /// Range of its ROP-cache log entries in the tile's log.
    log: (u32, u32),
}

/// The TC flushes the spine recorded between two round closes, and what
/// the shards made of them for the tail. The spine owns a round while it
/// records it; the shards then read the records and write only the
/// per-tile outputs, each behind its own lock; the tail reads both.
#[derive(Debug, Default)]
struct Round {
    /// TC flushes in spine order.
    flushes: Vec<SpineFlush>,
    /// The quads of every flush, flush after flush in spine order.
    quads: Vec<BinQuad>,
    /// Tiles with flushes, in the order the shard workers claim them:
    /// heaviest first when workers share the round.
    tile_order: Vec<u32>,
    /// Per screen tile: its flushes of the round.
    tiles: Vec<TileFlushes>,
    /// Per screen tile: what its shard made of those flushes.
    outputs: Vec<Mutex<TileOutput>>,
}

/// One tile's TC flushes of a round.
#[derive(Debug, Default)]
struct TileFlushes {
    /// Spine-order indices into [`Round::flushes`].
    flushes: Vec<u32>,
    /// Quads over those flushes (the claim-order weight).
    quads: u64,
}

/// What one tile's shard made of its flushes of a round. Aligned, like
/// [`TileShard`], to two cache lines, so workers on neighbouring tiles
/// never write the same line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct TileOutput {
    /// One per flush, in the tile's spine order.
    outcomes: Vec<FlushOutcome>,
    /// ROP-cache accesses of those flushes, in issue order.
    log: Vec<u64>,
}

impl Round {
    /// Sizes the per-tile slots for `tiles` screen tiles. A draw hands
    /// both rounds back to the scratch cleared (a draw that panics drops
    /// them), so the slots are empty.
    fn resize(&mut self, tiles: usize) {
        self.tiles.resize_with(tiles, TileFlushes::default);
        self.outputs.resize_with(tiles, Mutex::default);
    }

    /// Drops the round's flushes once the tail has replayed them.
    fn clear(&mut self) {
        for &t in &self.tile_order {
            let tile = &mut self.tiles[t as usize];
            tile.flushes.clear();
            tile.quads = 0;
            let out = self.outputs[t as usize]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            out.outcomes.clear();
            out.log.clear();
        }
        self.tile_order.clear();
        self.flushes.clear();
        self.quads.clear();
    }
}

/// The work counters TC-flush processing adds to. Kept per tile shard and
/// folded into [`PipelineStats`] at the end of the draw: `u64` sums
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
    shade: ShadeCounters,
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
        s.shaded_fragments += self.shade.shaded_fragments;
        s.alpha_pruned_fragments += self.shade.alpha_pruned_fragments;
        s.dead_quads += self.shade.dead_quads;
        s.crop_quads += self.crop_quads;
        s.crop_fragments += self.crop_fragments;
        s.term_updates += self.term_updates;
        s.retired_tiles += self.retired_tiles;
    }
}

/// Everything one screen tile's TC flushes touch across rounds: the
/// tile's pixels (color and termination flags), its retired flag and the
/// work counters. A shard is owned by one worker at a time.
#[derive(Debug, Default)]
#[repr(align(128))]
struct TileShard {
    /// The tile has had a flush this draw (its pixel window is live).
    touched: bool,
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

/// Logs one ROP-cache access of the flush whose log starts at `from`,
/// extending the previous entry's run when it is the same access.
fn log_access(log: &mut Vec<u64>, from: usize, access: u64) {
    debug_assert!(
        access & RUN_MASK == 0,
        "line address overflows into the run field"
    );
    match log.get_mut(from..).and_then(|flush| flush.last_mut()) {
        Some(last) if *last & !RUN_MASK == access && *last & RUN_MASK != RUN_MASK => {
            *last += 1 << RUN_SHIFT;
        }
        _ => log.push(access),
    }
}

/// The tail's state: the ROP and L2 cache models and the flow-shop timer,
/// fed round after round in spine order.
struct Tail<'a> {
    cfg: &'a GpuConfig,
    crop_cache: Cache,
    z_cache: Cache,
    l2: Cache,
    timer: PipelineTimer,
}

impl Tail<'_> {
    /// Replays each flush's ROP-cache log (adding the L2/DRAM fills) and
    /// pushes its timing batch, in spine order.
    fn replay(&mut self, round: &mut Round) {
        let Round {
            flushes, outputs, ..
        } = round;
        for flush in flushes.iter() {
            let out = outputs[flush.tile as usize]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            let outcome = &out.outcomes[flush.slot as usize];
            // `pending` never touches ZROP/PROP/CROP/L2/DRAM and the flush
            // adds to SM once, so every per-unit f64 sum is formed in the
            // same order as processing the flush in place would form it.
            let mut batch = flush.pending;
            for (b, c) in batch.cycles.iter_mut().zip(outcome.cycles.cycles) {
                *b += c;
            }
            let (start, end) = outcome.log;
            for &entry in &out.log[start as usize..end as usize] {
                self.access(entry, &mut batch);
            }
            self.timer.push(batch);
        }
    }

    /// Replays one cache-log entry — a run of identical ROP-cache
    /// accesses (CROP color-line writes, or [`Z_LINE`]-tagged stencil-line
    /// accesses) — with the L2/DRAM fill of its first access; the rest of
    /// the run hits.
    fn access(&mut self, entry: u64, batch: &mut WorkBatch) {
        let cfg = self.cfg;
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

/// The spine's state, on the calling thread: the bin tables, the upstream
/// work and the round it records, plus the tail it feeds and the crew
/// that shards its closed rounds.
struct Spine<'a, 'c> {
    splats: &'a [Splat],
    cfg: &'a GpuConfig,
    variant: PipelineVariant,
    tiling: Tiling,
    tc: BinTable<TileId, BinQuad>,
    tgc: BinTable<TileGridId, u32>,
    setups: &'a mut Vec<Option<SplatSetup>>,
    pair_quads: &'a mut Vec<BinQuad>,
    stats: PipelineStats,
    /// Upstream work accumulated since the last TC flush.
    pending: WorkBatch,
    /// The round being recorded.
    round: Round,
    /// The other round buffer while no round is in flight.
    spare: Round,
    /// Recorded flush quads that close a round.
    round_quads: usize,
    tail: Tail<'a>,
    crew: &'c Crew<'c, Round>,
}

impl Spine<'_, '_> {
    /// Replays vertex accounting, setup, TGC/TC insertion with the fine
    /// raster, bin evictions and drains in draw order, closing rounds as
    /// it goes, then shards and replays the last rounds and pushes the
    /// trailing upstream work. Nothing in the spine reads a pixel, so the
    /// flush sequence is fixed before any pixel work runs.
    fn run(&mut self) {
        if self.variant.qm() {
            self.run_with_tgc();
        } else {
            self.run_direct();
        }
        // End-of-draw: drain the TC unit (subsumes the timeout flush).
        while let Some(flush) = self.tc.drain_next() {
            self.record_tc_flush(flush);
        }
        self.close_round();
        if let Some(mut last) = self.crew.take() {
            self.tail.replay(&mut last);
            last.clear();
            self.spare = last;
        }
        // Push any trailing upstream work.
        if self.pending.total() > 0.0 {
            self.tail.timer.push(std::mem::take(&mut self.pending));
        }
    }

    /// Baseline path: each primitive rasterizes across all its screen
    /// tiles immediately, in draw order.
    fn run_direct(&mut self) {
        for i in 0..self.splats.len() {
            let Some(setup) = self.account_vertex(i) else {
                continue;
            };
            let Some(rect) = tile_rect(&self.tiling, &setup) else {
                continue;
            };
            self.rasterize_rect(i as u32, &setup, rect);
        }
    }

    /// QM path: primitives are first gathered per tile grid by the TGC
    /// unit; a TGC flush rasterizes its primitives restricted to that grid,
    /// concentrating spatially-overlapping quads in the TC bins.
    ///
    /// Each primitive is accounted, then inserted into the TGC bin of
    /// every tile grid its tile rect touches, x-major: the same visit
    /// order as sorting `TileGridId`s (lexicographic by x, then y).
    fn run_with_tgc(&mut self) {
        let g = self.cfg.tile_grid_tiles;
        for i in 0..self.splats.len() {
            let Some(setup) = self.account_vertex(i) else {
                continue;
            };
            let Some((x0, x1, y0, y1)) = tile_rect(&self.tiling, &setup) else {
                continue;
            };
            for gx in x0 / g..=x1 / g {
                for gy in y0 / g..=y1 / g {
                    self.stats.tgc_insertions += 1;
                    self.pending.add(Unit::Tgc, 1.0);
                    for flush in self.tgc.insert(TileGridId { x: gx, y: gy }, i as u32) {
                        self.process_tgc_flush(flush.key, &flush.items);
                        self.tgc.recycle(flush.items);
                    }
                }
            }
        }
        while let Some(flush) = self.tgc.drain_next() {
            self.process_tgc_flush(flush.key, &flush.items);
            self.tgc.recycle(flush.items);
        }
        let s = self.tgc.stats();
        self.stats.tgc_flushes = s.flushes;
        self.stats.tgc_evictions = s.evictions;
    }

    /// Vertex accounting and triangle setup of primitive `index`; returns
    /// its setup, `None` when degenerate. Degenerate (singular-axes)
    /// primitives are culled here and counted, so zero-area inputs are
    /// observable, never silent.
    fn account_vertex(&mut self, index: usize) -> Option<SplatSetup> {
        self.stats.primitives += 1;
        self.pending
            .add(Unit::Vpo, 1.0 / self.cfg.vpo_prims_per_cycle as f64);
        self.pending.add(
            Unit::Sm,
            self.cfg.vertex_shader_cycles_per_prim as f64 / self.cfg.simt_cores as f64,
        );
        let setup = SplatSetup::new(&self.splats[index]);
        self.stats.degenerate_prims += u64::from(setup.is_none());
        self.setups.push(setup);
        setup
    }

    /// Rasterizes a TGC flush: every primitive in the bin, restricted to
    /// the screen tiles of that tile grid.
    fn process_tgc_flush(&mut self, grid: TileGridId, prims: &[u32]) {
        let g = self.cfg.tile_grid_tiles;
        for &prim in prims {
            let Some(setup) = self.setups[prim as usize] else {
                continue;
            };
            let Some((x0, x1, y0, y1)) = tile_rect(&self.tiling, &setup) else {
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

    /// Fine-rasterizes primitive `prim` in each tile of the inclusive tile
    /// rectangle `rect = (x0, x1, y0, y1)` and feeds every pair through
    /// setup/coarse/fine accounting into the TC unit.
    ///
    /// Retired tiles are deliberately *not* skipped here: their quads must
    /// keep flowing into the TC bins so bin-pressure evictions — and with
    /// them every other tile's flush boundaries, ZROP test timing and
    /// blend rounding — stay identical with and without the retirement
    /// check (`GpuConfig::kernel`). The check instead discards a retired
    /// tile's quads wholesale at flush time (see
    /// [`ShardCtx::process_flush`]), which is exact. This is also what lets
    /// the spine run ahead of all pixel work.
    fn rasterize_rect(&mut self, prim: u32, setup: &SplatSetup, rect: (u32, u32, u32, u32)) {
        let (x0, x1, y0, y1) = rect;
        self.pending
            .add(Unit::Raster, 1.0 / self.cfg.setup_prims_per_cycle as f64);
        let mut quads = std::mem::take(self.pair_quads);
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                let tile = TileId { x: tx, y: ty };
                quads.clear();
                let (coarse_tiles, fragments) = rasterize_in_tile_with(
                    setup,
                    tile,
                    &self.tiling,
                    self.cfg.raster_tile_px,
                    |pos, coverage| {
                        quads.push(BinQuad {
                            splat: prim,
                            pos,
                            coverage,
                        })
                    },
                );
                self.stats.coarse_tiles += coarse_tiles;
                self.pending.add(
                    Unit::Raster,
                    coarse_tiles as f64 / self.cfg.coarse_raster_tiles_per_cycle as f64
                        + quads.len() as f64 / self.cfg.fine_raster_quads_per_cycle as f64,
                );
                let n = quads.len() as u64;
                self.stats.raster_quads += n;
                self.stats.raster_fragments += fragments;
                self.stats.tc_insertions += n;
                self.tc_insert_run(tile, &quads);
            }
        }
        *self.pair_quads = quads;
    }

    /// Inserts one (primitive, tile) pair's quads into the TC unit as a
    /// run. Each quad still adds its TC cycles to `pending` one by one,
    /// before the flushes its insert causes, so the `f64` sums each flush
    /// closes are formed exactly as by per-quad inserts.
    fn tc_insert_run(&mut self, tile: TileId, mut quads: &[BinQuad]) {
        let cycles = 1.0 / self.cfg.tc_quads_per_cycle as f64;
        while !quads.is_empty() {
            let (n, flushes) = self.tc.insert_run(tile, quads);
            for _ in 0..n {
                self.pending.add(Unit::Tc, cycles);
            }
            for flush in flushes {
                self.record_tc_flush(flush);
            }
            quads = &quads[n..];
        }
    }

    /// Records one TC flush in the round: its quads, and the upstream work
    /// batch it closes. Closes the round once it holds `round_quads`
    /// quads and the crew is done with the round before it.
    fn record_tc_flush(&mut self, flush: Flush<TileId, BinQuad>) {
        self.stats.tc_flushes += 1;
        if flush.reason == FlushReason::Evicted {
            self.stats.tc_evictions += 1;
        }
        let round = &mut self.round;
        let tile = flush.key.y * self.tiling.tiles_x() + flush.key.x;
        let part = &mut round.tiles[tile as usize];
        if part.flushes.is_empty() {
            round.tile_order.push(tile);
        }
        let start = round.quads.len() as u32;
        round.quads.extend_from_slice(&flush.items);
        part.quads += flush.items.len() as u64;
        part.flushes.push(round.flushes.len() as u32);
        round.flushes.push(SpineFlush {
            tile,
            slot: part.flushes.len() as u32 - 1,
            quads: (start, round.quads.len() as u32),
            pending: std::mem::take(&mut self.pending),
        });
        self.tc.recycle(flush.items);
        // A full round waits for the crew to finish the round before it;
        // meanwhile this thread runs one of that round's shards per flush
        // it records, while one is left unclaimed.
        if self.round.quads.len() >= self.round_quads && !self.crew.help() && self.crew.idle() {
            self.close_round();
        }
    }

    /// Hands the recorded round to the crew and goes on recording into the
    /// other buffer. The round before it must be done first (this thread
    /// helps finish its shards); its tail then runs here while the crew
    /// shards the new round. With no helpers the new round is sharded
    /// and replayed at once.
    fn close_round(&mut self) {
        if self.round.flushes.is_empty() {
            return;
        }
        if self.crew.helpers() > 0 {
            let Round {
                tile_order, tiles, ..
            } = &mut self.round;
            tile_order.sort_unstable_by_key(|&t| std::cmp::Reverse(tiles[t as usize].quads));
        }
        let mut done = self.crew.take();
        let claims = self.round.tile_order.len();
        self.crew.post(std::mem::take(&mut self.round), claims);
        if self.crew.helpers() == 0 {
            done = self.crew.take();
        }
        self.round = match done {
            Some(mut done) => {
                self.tail.replay(&mut done);
                done.clear();
                done
            }
            None => std::mem::take(&mut self.spare),
        };
    }
}

/// The read-only draw state every shard worker shares, and the tile
/// shards they claim.
struct ShardCtx<'a> {
    splats: &'a [Splat],
    cfg: &'a GpuConfig,
    variant: PipelineVariant,
    tiling: &'a Tiling,
    tiles: &'a [Mutex<TileShard>],
    /// Color-cache line geometry (pixels per line block).
    line_block: (u32, u32),
    /// Line blocks per framebuffer row.
    line_blocks_x: u64,
    /// Stencil-line blocks (16×8 pixels) per framebuffer row.
    z_blocks_x: u64,
}

impl<'a> ShardCtx<'a> {
    fn new(
        splats: &'a [Splat],
        cfg: &'a GpuConfig,
        variant: PipelineVariant,
        tiling: &'a Tiling,
        tiles: &'a [Mutex<TileShard>],
    ) -> Self {
        // A 128-B color line covers a `(128/bpp/4)`-wide × 4-tall pixel
        // block.
        let bpp = cfg.pixel_format.bytes_per_pixel() as u32;
        let line_block = ((cfg.cache_line_bytes as u32 / (bpp * 4)).max(1), 4);
        Self {
            splats,
            cfg,
            variant,
            tiling,
            tiles,
            line_block,
            line_blocks_x: tiling.width().div_ceil(line_block.0) as u64,
            z_blocks_x: tiling.width().div_ceil(16) as u64,
        }
    }

    /// Claim `k` of a round: the round's flushes of its `k`-th tile in
    /// claim order, in spine order.
    fn run_claim(&self, round: &Round, k: usize) {
        let t = round.tile_order[k] as usize;
        let mut shard = self.tiles[t].lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = round.outputs[t]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !shard.touched {
            shard.reset(self.tiling, t);
        }
        let TileOutput { outcomes, log } = &mut *out;
        for &f in &round.tiles[t].flushes {
            let (start, end) = round.flushes[f as usize].quads;
            let items = &round.quads[start as usize..end as usize];
            let log_start = log.len() as u32;
            let cycles = self.process_flush(&mut shard, log, items);
            outcomes.push(FlushOutcome {
                cycles,
                log: (log_start, log.len() as u32),
            });
        }
    }

    /// The heart of the pipeline: one TC-bin flush travels through ZROP
    /// (HET), PROP/QRU (QM), the SMs and CROP. ZROP tests every quad
    /// first, leaving the survivors as a bin mask; the rest is one pass in
    /// bin order: each front quad is shaded into four fragment lanes,
    /// its back quad (which the pass then skips) shaded and merged into
    /// them, and the lanes blended. Returns those units' cycles; the
    /// ROP-cache accesses go to `log` for the tail.
    fn process_flush(
        &self,
        shard: &mut TileShard,
        log: &mut Vec<u64>,
        items: &[BinQuad],
    ) -> WorkBatch {
        let cfg = self.cfg;
        let log_from = log.len();
        let mut batch = WorkBatch::default();

        // --- ZROP early-termination test (HET) ---
        let survivors = if !self.variant.het() {
            u128::MAX >> (MAX_TC_BIN_SIZE - items.len())
        } else if cfg.kernel == FragmentKernel::Soa && shard.retired {
            // Tile-granularity transmittance check: every pixel of the
            // tile is terminated, so the whole flush is discarded on one
            // tile-flag read instead of per-quad stencil-line tests. The
            // surviving set (empty) is what the per-quad test would
            // produce, so images and downstream state are bit-identical;
            // only ZROP/z-cache work disappears.
            let c = &mut shard.counters;
            c.retired_tile_skips += 1;
            c.zrop_term_discards += items.len() as u64;
            c.zrop_term_discarded_fragments += items
                .iter()
                .map(|q| (q.coverage & 0xF).count_ones() as u64)
                .sum::<u64>();
            batch.add(Unit::Zrop, 1.0 / cfg.zrop_quads_per_cycle as f64);
            0
        } else {
            shard.counters.zrop_term_tests += items.len() as u64;
            batch.add(
                Unit::Zrop,
                items.len() as f64 / cfg.zrop_quads_per_cycle as f64,
            );
            self.zrop_test(shard, log, items)
        };
        if survivors == 0 {
            return batch;
        }

        // --- PROP routing / quad reorder unit (QM) ---
        let pairs = if self.variant.qm() {
            QuadPairs::scan(bits(survivors).map(|i| (i, items[i].pos)))
        } else {
            QuadPairs::NONE
        };
        let n = survivors.count_ones() as usize;
        // Pre-shading routing (and QRU examination, which proceeds at the
        // routing rate — the scan is simple register compares pipelined
        // with dispatch).
        batch.add(Unit::Prop, n as f64 / cfg.prop_quads_per_cycle as f64);
        let warps = warp_counts(n, pairs.count());
        shard.counters.warps_launched += warps.warps as u64;
        shard.counters.warp_quad_slots_used += warps.slots as u64;
        shard.counters.merged_pairs += pairs.count() as u64;

        // --- SM fragment shading ---
        let warp_cycles = warps.warps as u64 * cfg.frag_shader_cycles_per_warp as u64
            + warps.warps_with_pair as u64 * cfg.qm_extra_cycles_per_warp as u64;
        batch.add(Unit::Sm, warp_cycles as f64 / cfg.simt_cores as f64);

        // --- Shading, merge, CROP blending (+ HET alpha test unit) ---
        let mut crop_quads = 0u64;
        let quad_in = |q: BinQuad| (&self.splats[q.splat as usize], q.coverage);
        for front in bits(survivors & !pairs.backs) {
            let q = items[front];
            let origin = (shard.x0 + 2 * q.pos.x as u32, shard.y0 + 2 * q.pos.y as u32);
            let back = pairs.back_of(front).map(|back| quad_in(items[back]));
            let Some(lanes) = shade_pair(origin, quad_in(q), back, &mut shard.counters.shade)
            else {
                continue;
            };
            crop_quads += 1;
            self.blend(shard, log, origin, &lanes, log_from, &mut batch);
        }
        shard.counters.crop_quads += crop_quads;
        let crop_cycles = crop_quads as f64 / cfg.crop_quads_per_cycle() as f64;
        batch.add(Unit::Crop, crop_cycles);
        // Post-shading ordering in PROP proceeds at CROP pace (PROP
        // orchestrates the color-fragment flow into CROP).
        batch.add(Unit::Prop, crop_cycles);
        batch
    }

    /// The ZROP termination test of every quad of a flush: returns the
    /// survivors as a bin mask. Each quad reads one z-cache (stencil)
    /// line; the reads are logged as [`log_access`] would fold them (the
    /// flush's log is empty before them).
    fn zrop_test(&self, shard: &mut TileShard, log: &mut Vec<u64>, items: &[BinQuad]) -> u128 {
        let mut survivors = 0u128;
        let mut entry = None;
        for (i, q) in items.iter().enumerate() {
            let (x, y) = (2 * q.pos.x as u32, 2 * q.pos.y as u32);
            let line = self.z_line((shard.x0 + x, shard.y0 + y));
            entry = match entry {
                Some(e) if e & !RUN_MASK == line && e & RUN_MASK != RUN_MASK => {
                    Some(e + (1 << RUN_SHIFT))
                }
                done => {
                    log.extend(done);
                    Some(line)
                }
            };
            let t = termination_test(q.coverage, shard.terminated.quad(x, y));
            let c = &mut shard.counters;
            if t.survives {
                survivors |= 1 << i;
                c.zrop_term_discarded_fragments += t.terminated_fragments as u64;
            } else {
                c.zrop_term_discards += 1;
                c.zrop_term_discarded_fragments += (q.coverage & 0xF).count_ones() as u64;
            }
        }
        log.extend(entry);
        survivors
    }

    /// CROP: writes the color line(s) of the live quad at `origin` and
    /// blends its live fragment lanes into the tile; the HET alpha test
    /// unit sends each newly terminated pixel to ZROP as a termination
    /// update.
    fn blend(
        &self,
        shard: &mut TileShard,
        log: &mut Vec<u64>,
        origin: (u32, u32),
        lanes: &QuadLanes,
        log_from: usize,
        batch: &mut WorkBatch,
    ) {
        self.crop_lines(origin, |line| log_access(log, log_from, line));
        for i in bits(lanes.alive as u128) {
            let (x, y) = (origin.0 + (i as u32 & 1), origin.1 + (i as u32 >> 1));
            let Some(px) = shard.index(x, y) else {
                continue;
            };
            shard.counters.crop_fragments += 1;
            let dest = shard.color[px];
            let prev_alpha = dest.a;
            let blended = blend_over(dest, lanes.fragment(i));
            shard.color[px] = blended;
            if self.variant.het() && alpha_test(prev_alpha, blended.a) {
                // Termination signal → ZROP update (read-modify-write
                // of the stencil line through the z-cache).
                shard.counters.term_updates += 1;
                log_access(log, log_from, self.z_line((x, y)) | Z_WRITE);
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

    /// Logs the CROP-cache accesses for the color line(s) under the quad
    /// at `(x, y)`, in the order its fragments (0,0), (1,0), (0,1), (1,1)
    /// first touch each line. The quad's second column (row) lies in the
    /// next line block exactly when its first one ends a block, and
    /// counts only inside the viewport.
    fn crop_lines(&self, (x, y): (u32, u32), mut log: impl FnMut(u64)) {
        let (bw, bh) = self.line_block;
        let (lx, ly) = (x / bw, y / bh);
        let next_x = x % bw == bw - 1 && x + 1 < self.tiling.width();
        let next_y = y % bh == bh - 1 && y + 1 < self.tiling.height();
        let line = |dx: u32, dy: u32| (ly + dy) as u64 * self.line_blocks_x + (lx + dx) as u64;
        log(line(0, 0));
        if next_x {
            log(line(1, 0));
        }
        if next_y {
            log(line(0, 1));
        }
        if next_x && next_y {
            log(line(1, 1));
        }
    }

    /// The [`Z_LINE`]-tagged stencil line under a quad or pixel.
    fn z_line(&self, origin: (u32, u32)) -> u64 {
        // 128-B stencil line = 16×8 pixel block at 1 B/pixel.
        let line = (origin.1 / 8) as u64 * self.z_blocks_x + (origin.0 / 16) as u64;
        line | Z_LINE
    }
}

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
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
                    let tiles = Tiling::new(w, h, gpu.screen_tile_px).tile_count() as u64;
                    assert!(het.stats.tc_flushes > 2 * tiles, "{case}");
                }
                "fewer tiles than workers" => {
                    assert!(Tiling::new(w, h, gpu.screen_tile_px).tile_count() < 3);
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

    #[test]
    fn many_rounds_on_many_workers_match_one_worker() {
        // Rounds of a handful of quads, so one draw spans hundreds of
        // rounds and every hand-off between the spine, the shard workers
        // and the tail runs many times: a tile's flushes spread over many
        // rounds, tiles retire in one round and discard flushes in later
        // ones, and TC evictions interleave tiles within a round.
        const ROUND: usize = 8;
        let stacked = stacked_splats(40, 0.5);
        let scattered = scattered_splats(120, 90, 70);
        let flat = flat_stacked(60);
        let soa = GpuConfig {
            kernel: FragmentKernel::Soa,
            ..cfg()
        };
        let cases = [
            ("one tile over many rounds", &stacked, 16, 16, cfg()),
            ("TC evictions", &scattered, 90, 70, small_units()),
            ("fewer tiles than workers", &stacked, 20, 12, cfg()),
            ("SoA tile retirement", &flat, 40, 40, soa),
        ];
        for (case, splats, w, h, gpu) in cases {
            let draw_at = |threads: usize, v: PipelineVariant| {
                let gpu = GpuConfig {
                    threads,
                    ..gpu.clone()
                };
                let mut color = ColorBuffer::new(w, h, gpu.pixel_format);
                let mut ds = DepthStencilBuffer::new(w, h);
                let mut scratch = DrawScratch::default();
                let stats =
                    draw_in_rounds(splats, &gpu, v, &mut color, &mut ds, &mut scratch, ROUND);
                (stats, color, ds)
            };
            for v in PipelineVariant::ALL {
                let reference = draw(
                    splats,
                    w,
                    h,
                    &GpuConfig {
                        threads: 1,
                        ..gpu.clone()
                    },
                    v,
                );
                assert!(
                    reference.stats.raster_quads >= 24 * ROUND as u64,
                    "{case}: {v} spans too few rounds"
                );
                if v.het() && case == "SoA tile retirement" {
                    assert!(reference.stats.retired_tile_skips > 0, "{case}: {v}");
                }
                if case == "TC evictions" {
                    assert!(reference.stats.tc_evictions > 0, "{case}: {v}");
                }
                for threads in [1usize, 2, 3, 5] {
                    let (stats, color, ds) = draw_at(threads, v);
                    let at = format!("{case}: {v} threads={threads}");
                    assert_eq!(stats, reference.stats, "{at}");
                    assert_eq!(color.max_abs_diff(&reference.color), 0.0, "{at}");
                    assert_eq!(ds, reference.depth_stencil, "{at}");
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
    fn crop_lines_match_per_fragment_lines() {
        // The per-quad line arithmetic against its definition: the line
        // under each in-viewport pixel of the quad, each line once, in
        // fragment order. Line blocks 1, 2, 4 and 8 px wide; odd and even
        // viewports (the quads of an odd last column or row are clipped).
        use gsplat::color::PixelFormat;
        for (cache_line_bytes, pixel_format) in [
            (32, PixelFormat::Rgba16F),
            (64, PixelFormat::Rgba16F),
            (128, PixelFormat::Rgba16F),
            (128, PixelFormat::Rgba8),
        ] {
            let gpu = GpuConfig {
                cache_line_bytes,
                pixel_format,
                ..cfg()
            };
            for (w, h) in [(33, 27), (32, 32), (7, 5)] {
                let tiling = Tiling::new(w, h, gpu.screen_tile_px);
                let ctx = ShardCtx::new(&[], &gpu, PipelineVariant::Baseline, &tiling, &[]);
                let (bw, bh) = ctx.line_block;
                for (x, y) in (0..h)
                    .step_by(2)
                    .flat_map(|y| (0..w).step_by(2).map(move |x| (x, y)))
                {
                    let mut want = Vec::new();
                    for (px, py) in [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)] {
                        let line = (py / bh) as u64 * w.div_ceil(bw) as u64 + (px / bw) as u64;
                        if px < w && py < h && !want.contains(&line) {
                            want.push(line);
                        }
                    }
                    let mut got = Vec::new();
                    ctx.crop_lines((x, y), |line| got.push(line));
                    assert_eq!(
                        got, want,
                        "{cache_line_bytes} B {pixel_format:?} {w}x{h} at ({x}, {y})"
                    );
                }
            }
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
        // Configurations whose caches cannot be built, or whose units
        // would take no work per cycle, are rejected before the draw.
        let cases = [
            GpuConfig {
                cache_ways: 3,
                ..cfg()
            },
            GpuConfig {
                cache_ways: 0,
                ..cfg()
            },
            GpuConfig {
                z_cache_bytes: 1000,
                ..cfg()
            },
            GpuConfig {
                cache_line_bytes: 96,
                crop_cache_bytes: 96 * 128,
                ..cfg()
            },
            GpuConfig {
                tc_quads_per_cycle: 0,
                ..cfg()
            },
            GpuConfig {
                simt_cores: 0,
                ..cfg()
            },
            GpuConfig {
                core_freq_mhz: 0,
                ..cfg()
            },
        ];
        for bad in cases {
            for v in PipelineVariant::ALL {
                let err = try_draw(&splats, 32, 32, &bad, v).unwrap_err();
                assert!(matches!(err, DrawError::InvalidConfig(_)), "{v}: {err}");
            }
        }
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
            let stats = try_draw_in_place(
                &splats,
                &cfg(),
                PipelineVariant::HetQm,
                &mut color,
                &mut ds,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(stats, fresh.stats);
            assert_eq!(color.max_abs_diff(&fresh.color), 0.0);
            assert_eq!(ds, fresh.depth_stencil);
        }
    }
}
