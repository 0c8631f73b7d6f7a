//! Software (CUDA-style) tile-based Gaussian rasterizer — the paper's
//! "SW-based (CUDA)" comparison point (Figs. 5, 8, 9, 17).
//!
//! Mirrors the 3DGS reference renderer's structure:
//!
//! * **Per-tile duplication**: every splat is duplicated into a
//!   `(tile, depth)` key pair for each 16×16 screen tile it overlaps, and
//!   the duplicated key list is sorted — the preprocessing/sorting
//!   inefficiency the paper contrasts with hardware tiling (§III-A).
//! * **Warp-lockstep execution**: a tile is processed by a thread block of
//!   256 threads (one per pixel, 8 warps of 32). All threads sweep the
//!   tile's splat list front-to-back in lockstep; a warp only retires when
//!   *all* its 32 pixels are done, so threads of terminated or uncovered
//!   pixels burn issue slots — the under-utilisation of Fig. 9.
//!
//! Execution is parallel at tile-row granularity: each worker owns a
//! disjoint horizontal band of the framebuffer, and per-tile splat lists
//! are built with chunk-ordered partial bins, so the parallel render is
//! bit-exact with the serial sweep (`threads: 1`) — same per-pixel blend
//! order, same statistics.

use gsplat::blend::{
    fragment_alpha, PixelAccumulator, ALPHA_MAX, ALPHA_PRUNE_THRESHOLD, EARLY_TERMINATION_THRESHOLD,
};
use gsplat::color::{PixelFormat, Rgba};
use gsplat::framebuffer::ColorBuffer;
use gsplat::math::Vec2;
use gsplat::par::{Bands, BinScratch, ThreadPolicy};
use gsplat::splat::Splat;
use gsplat::stream::{get_word_bit, set_word_bit, tile_alpha_bound, FragmentKernel, SplatStream};
use serde::{Deserialize, Serialize};

/// Cost-model constants for the software renderer, calibrated to the
/// Jetson AGX Orin numbers underlying Fig. 5a.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwConfig {
    /// Screen tile edge in pixels (the CUDA block footprint).
    pub tile_px: u32,
    /// Cycles one warp spends per splat iteration (alpha evaluation,
    /// predicated blend, bookkeeping).
    pub cycles_per_warp_iter: f64,
    /// Concurrent warps retiring per cycle across the GPU (issue width of
    /// all SMs divided by iteration latency is folded into
    /// `cycles_per_warp_iter`; this is the SM count).
    pub concurrent_warps: f64,
    /// Core clock in MHz.
    pub core_freq_mhz: f64,
    /// Preprocess cost per Gaussian in nanoseconds (CUDA path: per-tile
    /// buffer management and key duplication make this *higher* than the
    /// hardware path's preprocessing).
    pub preprocess_ns_per_gaussian: f64,
    /// Sort cost per duplicated key in nanoseconds (device radix sort).
    pub sort_ns_per_key: f64,
    /// Host worker threads for the functional render (`0` = all cores).
    pub threads: usize,
    /// Fragment-kernel implementation: the AoS `Scalar` oracle or the SoA
    /// fast path. Images, statistics and modelled times are bit-exact
    /// between the two (only `bound_skipped_iterations` is `Soa`-specific).
    pub kernel: FragmentKernel,
}

impl Default for SwConfig {
    fn default() -> Self {
        Self {
            tile_px: 16,
            cycles_per_warp_iter: 24.0,
            concurrent_warps: 16.0,
            core_freq_mhz: 612.0,
            preprocess_ns_per_gaussian: 9.0,
            sort_ns_per_key: 7.0,
            threads: 0,
            kernel: FragmentKernel::Scalar,
        }
    }
}

impl SwConfig {
    /// The work-distribution policy these settings describe.
    pub fn thread_policy(&self) -> ThreadPolicy {
        ThreadPolicy {
            threads: self.threads,
        }
    }
}

/// Statistics of one software-rendered frame.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwStats {
    /// Splat-tile pairs after duplication (the sorted key count).
    pub duplicated_keys: u64,
    /// Warp×splat iterations executed (the shader-core work).
    pub warp_iterations: u64,
    /// Thread-slots across all warp iterations (warp_iterations × 32).
    pub thread_slots: u64,
    /// Thread-slots that performed an effective blend (alive fragment on a
    /// non-terminated pixel) — Fig. 9's numerator.
    pub blending_threads: u64,
    /// Fragments blended into pixels.
    pub blended_fragments: u64,
    /// Fragments skipped because their pixel had already terminated.
    pub terminated_fragments: u64,
    /// Warp iterations saved by whole-warp early exit.
    pub warp_iterations_saved: u64,
    /// Non-empty tiles swept (retired-ratio denominator).
    pub tiles_swept: u64,
    /// Tiles whose every in-bounds pixel passed the termination threshold
    /// by the end of the sweep — the tile-granularity transmittance
    /// saturation VR-Pipe exploits. Identical for both kernels.
    pub retired_tiles: u64,
    /// Warp iterations whose alpha evaluation was skipped by the
    /// conservative tile alpha bound (`Soa` kernel only; the iterations
    /// are still accounted in `warp_iterations`, so modelled time is
    /// kernel-independent).
    pub bound_skipped_iterations: u64,
}

impl SwStats {
    /// Percentage of threads in a warp doing effective blending (Fig. 9).
    pub fn blending_thread_pct(&self) -> f64 {
        if self.thread_slots == 0 {
            0.0
        } else {
            100.0 * self.blending_threads as f64 / self.thread_slots as f64
        }
    }

    /// Fraction of swept tiles that fully saturated (retired) in `[0, 1]`.
    pub fn retired_tile_ratio(&self) -> f64 {
        if self.tiles_swept == 0 {
            0.0
        } else {
            self.retired_tiles as f64 / self.tiles_swept as f64
        }
    }

    fn merge(&mut self, other: &SwStats) {
        self.duplicated_keys += other.duplicated_keys;
        self.warp_iterations += other.warp_iterations;
        self.thread_slots += other.thread_slots;
        self.blending_threads += other.blending_threads;
        self.blended_fragments += other.blended_fragments;
        self.terminated_fragments += other.terminated_fragments;
        self.warp_iterations_saved += other.warp_iterations_saved;
        self.tiles_swept += other.tiles_swept;
        self.retired_tiles += other.retired_tiles;
        self.bound_skipped_iterations += other.bound_skipped_iterations;
    }
}

/// A software-rendered frame with its time breakdown.
#[derive(Debug, Clone)]
pub struct SwFrame {
    /// Rendered pre-multiplied color buffer.
    pub color: ColorBuffer,
    /// Execution statistics.
    pub stats: SwStats,
    /// Preprocess time (ms) from the cost model.
    pub preprocess_ms: f64,
    /// Sort time (ms) from the cost model.
    pub sort_ms: f64,
    /// Rasterize/blend time (ms) from the cost model.
    pub rasterize_ms: f64,
}

impl SwFrame {
    /// Total frame time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.preprocess_ms + self.sort_ms + self.rasterize_ms
    }
}

/// Reusable buffers for [`CudaLikeRenderer::render_with_scratch`]: the
/// per-tile duplication bins (and their per-worker partials) survive
/// across frames, so the steady-state loop allocates only the output
/// buffer.
#[derive(Debug, Default)]
pub struct SwScratch {
    bins: BinScratch,
    /// SoA view of the splat list (rebuilt per frame, `Soa` kernel only).
    stream: SplatStream,
    /// Retired-tile bitset storage: `words_per_row` words per tile row, so
    /// each band worker owns a disjoint word range (no synchronization).
    retired_words: Vec<u64>,
}

/// The software renderer.
///
/// # Examples
///
/// ```
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
/// use swrender::cuda_like::CudaLikeRenderer;
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let cam = scene.default_camera();
/// let pre = preprocess(&scene, &cam);
/// let sw = CudaLikeRenderer::new(Default::default(), true);
/// let frame = sw.render(&pre.splats, cam.width(), cam.height());
/// assert!(frame.stats.blended_fragments > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CudaLikeRenderer {
    cfg: SwConfig,
    early_termination: bool,
}

impl CudaLikeRenderer {
    /// Creates a renderer; `early_termination` enables the per-pixel α
    /// threshold exit (the software ET of Fig. 8).
    pub fn new(cfg: SwConfig, early_termination: bool) -> Self {
        Self {
            cfg,
            early_termination,
        }
    }

    /// The cost-model configuration.
    pub fn config(&self) -> &SwConfig {
        &self.cfg
    }

    /// Renders depth-sorted splats at the given viewport.
    pub fn render(&self, splats: &[Splat], width: u32, height: u32) -> SwFrame {
        self.render_with_scratch(splats, width, height, &mut SwScratch::default())
    }

    /// [`CudaLikeRenderer::render`] reusing caller-owned scratch buffers
    /// across frames. For the `Soa` kernel the [`SplatStream`] is rebuilt
    /// into the scratch; callers that already hold the stream (e.g. from
    /// [`gsplat::preprocess::preprocess_into_stream`]) should use
    /// [`CudaLikeRenderer::render_prepared`] to skip that copy.
    pub fn render_with_scratch(
        &self,
        splats: &[Splat],
        width: u32,
        height: u32,
        scratch: &mut SwScratch,
    ) -> SwFrame {
        if self.cfg.kernel == FragmentKernel::Soa {
            let mut stream = std::mem::take(&mut scratch.stream);
            stream.rebuild_from(splats);
            let frame = self.render_prepared(splats, &stream, width, height, scratch);
            scratch.stream = stream;
            return frame;
        }
        let empty = SplatStream::new();
        self.render_prepared(splats, &empty, width, height, scratch)
    }

    /// [`CudaLikeRenderer::render_with_scratch`] with a caller-provided
    /// [`SplatStream`] (as produced by
    /// [`gsplat::preprocess::preprocess_into_stream`]), so a frame loop
    /// that preprocesses into a stream pays no per-frame SoA rebuild.
    ///
    /// The stream is only read by the `Soa` kernel; the `Scalar` oracle
    /// ignores it.
    ///
    /// # Panics
    ///
    /// Panics when the `Soa` kernel is selected and `stream` does not
    /// have one entry per splat.
    pub fn render_prepared(
        &self,
        splats: &[Splat],
        stream: &SplatStream,
        width: u32,
        height: u32,
        scratch: &mut SwScratch,
    ) -> SwFrame {
        if self.cfg.kernel == FragmentKernel::Soa {
            assert_eq!(
                stream.len(),
                splats.len(),
                "stream must mirror the splat list"
            );
        }
        let tile = self.cfg.tile_px;
        let tiles_x = width.div_ceil(tile);
        let tiles_y = height.div_ceil(tile);
        let policy = self.cfg.thread_policy();

        // --- Duplication: per-tile splat lists, built with chunk-ordered
        // partial bins (depth order preserved because `splats` is already
        // globally sorted and the merge keeps input order per tile). ---
        let duplicated_keys = scratch.bins.build(
            (tiles_x * tiles_y) as usize,
            splats.len(),
            policy,
            |i, push| {
                let s = &splats[i as usize];
                let (lo, hi) = s.aabb();
                if hi.x < 0.0 || hi.y < 0.0 || lo.x >= width as f32 || lo.y >= height as f32 {
                    return;
                }
                let tx0 = (lo.x.max(0.0) as u32).min(width - 1) / tile;
                let ty0 = (lo.y.max(0.0) as u32).min(height - 1) / tile;
                let tx1 = (hi.x.max(0.0) as u32).min(width - 1) / tile;
                let ty1 = (hi.y.max(0.0) as u32).min(height - 1) / tile;
                for ty in ty0..=ty1 {
                    for tx in tx0..=tx1 {
                        push(ty * tiles_x + tx);
                    }
                }
            },
        );

        // --- Per-tile lockstep sweep, one framebuffer band per tile row.
        // Bands are disjoint, so tiles blend in exactly the serial order
        // per pixel regardless of the thread count. ---
        let SwScratch {
            bins,
            stream: _,
            retired_words,
        } = scratch;
        let words_per_row = (tiles_x as usize).div_ceil(64);
        retired_words.clear();
        retired_words.resize(words_per_row * tiles_y as usize, 0);
        let mut color = ColorBuffer::new(width, height, PixelFormat::Rgba16F);
        let tile_lists = bins.bins();
        let bands = Bands::new(color.pixels_mut(), (tile * width) as usize);
        let retired_bands = Bands::new(retired_words, words_per_row);
        let band_stats = gsplat::par::run_indexed(tiles_y as usize, policy, |band_idx| {
            let band = bands.take(band_idx);
            let retired_row = retired_bands.take(band_idx);
            let ty = band_idx as u32;
            let mut stats = SwStats::default();
            let n_px = (tile * tile) as usize;
            let mut acc: Vec<PixelAccumulator> = vec![PixelAccumulator::new(); n_px];
            let mut in_bounds = vec![false; n_px];
            // SoA per-tile buffers: pixel-center coordinates and the
            // per-warp alpha staging the flat kernel writes into.
            let mut px_center = vec![0.0f32; n_px];
            let mut py_center = vec![0.0f32; n_px];
            let mut alphas = vec![0.0f32; 32];
            let mut warp_state = Vec::new();
            for tx in 0..tiles_x {
                let list = &tile_lists[(ty * tiles_x + tx) as usize];
                if list.is_empty() {
                    continue;
                }
                acc.fill(PixelAccumulator::new());
                match self.cfg.kernel {
                    FragmentKernel::Scalar => self.sweep_tile(
                        splats,
                        list,
                        tx,
                        ty,
                        width,
                        height,
                        band,
                        &mut acc,
                        &mut in_bounds,
                        &mut stats,
                    ),
                    FragmentKernel::Soa => self.sweep_tile_soa(
                        stream,
                        list,
                        tx,
                        ty,
                        width,
                        height,
                        band,
                        SoaTileScratch {
                            acc: &mut acc,
                            in_bounds: &mut in_bounds,
                            px_center: &mut px_center,
                            py_center: &mut py_center,
                            alphas: &mut alphas,
                            warp_state: &mut warp_state,
                            retired_row: &mut *retired_row,
                        },
                        &mut stats,
                    ),
                }
                // Tile retirement bookkeeping (kernel-independent result):
                // a tile whose every in-bounds pixel saturated past the
                // termination threshold is dead for all remaining work.
                // The SoA sweep marks the band's bitset row when it
                // abandons a tile mid-list (all warps exited), which
                // short-circuits the accumulator scan here; a tile that
                // saturates only on its final splat is caught by the scan
                // in either kernel.
                stats.tiles_swept += 1;
                let retired = get_word_bit(retired_row, tx as usize)
                    || acc
                        .iter()
                        .zip(&in_bounds)
                        .all(|(a, &ib)| !ib || a.alpha() >= EARLY_TERMINATION_THRESHOLD);
                if retired {
                    stats.retired_tiles += 1;
                    set_word_bit(retired_row, tx as usize);
                }
            }
            stats
        });

        let mut stats = SwStats {
            duplicated_keys,
            ..SwStats::default()
        };
        for band in &band_stats {
            stats.merge(band);
        }

        let hz = self.cfg.core_freq_mhz * 1e3; // cycles per ms
        let rasterize_ms = stats.warp_iterations as f64 * self.cfg.cycles_per_warp_iter
            / self.cfg.concurrent_warps
            / hz;
        SwFrame {
            color,
            stats,
            preprocess_ms: splats.len() as f64 * self.cfg.preprocess_ns_per_gaussian * 1e-6
                + stats.duplicated_keys as f64 * 2.0e-6,
            sort_ms: stats.duplicated_keys as f64 * self.cfg.sort_ns_per_key * 1e-6,
            rasterize_ms,
        }
    }

    /// One tile's thread block: 8 warps of 32 threads sweep the splat
    /// list, blending into this tile row's framebuffer `band`.
    #[allow(clippy::too_many_arguments)]
    // vrlint: hot
    // vrlint: allow-block(VL01[index], reason = "tile-local pixel indices are bounded by the tile geometry; splat ids come from the tile's own sorted bin")
    fn sweep_tile(
        &self,
        splats: &[Splat],
        list: &[u32],
        tx: u32,
        ty: u32,
        width: u32,
        height: u32,
        band: &mut [Rgba],
        acc: &mut [PixelAccumulator],
        in_bounds: &mut [bool],
        stats: &mut SwStats,
    ) {
        let tile = self.cfg.tile_px;
        let x0 = tx * tile;
        let y0 = ty * tile;
        let n_px = (tile * tile) as usize;
        for (t, ib) in in_bounds.iter_mut().enumerate() {
            let px = x0 + (t as u32 % tile);
            let py = y0 + (t as u32 / tile);
            *ib = px < width && py < height;
        }

        // A warp covers 32 consecutive thread IDs (two 16-pixel rows).
        let warps = n_px / 32;
        for w in 0..warps {
            let base = w * 32;
            for (iter, &si) in list.iter().enumerate() {
                // Whole-warp early exit: all 32 pixels terminated.
                if self.early_termination
                    && acc[base..base + 32]
                        .iter()
                        .zip(&in_bounds[base..base + 32])
                        .all(|(a, &ib)| !ib || a.alpha() >= EARLY_TERMINATION_THRESHOLD)
                {
                    stats.warp_iterations_saved += (list.len() - iter) as u64;
                    break;
                }
                stats.warp_iterations += 1;
                stats.thread_slots += 32;
                let s = &splats[si as usize];
                for lane in 0..32usize {
                    let t = base + lane;
                    if !in_bounds[t] {
                        continue;
                    }
                    let px = x0 + (t as u32 % tile);
                    let py = y0 + (t as u32 / tile);
                    if self.early_termination && acc[t].alpha() >= EARLY_TERMINATION_THRESHOLD {
                        stats.terminated_fragments += 1;
                        continue;
                    }
                    let dx = px as f32 + 0.5 - s.center.x;
                    let dy = py as f32 + 0.5 - s.center.y;
                    if let Some(alpha) = fragment_alpha(s.opacity, s.conic, dx, dy) {
                        acc[t].blend(s.color, alpha);
                        stats.blending_threads += 1;
                        stats.blended_fragments += 1;
                    }
                }
            }
        }

        // Resolve the tile's accumulators into the band (rows y0.. of the
        // framebuffer, so the in-band row is t / tile).
        for (t, a) in acc.iter().enumerate() {
            if in_bounds[t] {
                let px = x0 + (t as u32 % tile);
                let row = t as u32 / tile;
                let c = a.color();
                band[(row * width + px) as usize] = Rgba::new(c.r, c.g, c.b, c.a);
            }
        }
    }

    /// The SoA fragment kernel for one tile: the same warp-lockstep sweep
    /// as [`CudaLikeRenderer::sweep_tile`], restructured splat-outer over
    /// flat [`SplatStream`] slices so the alpha evaluation is one
    /// branch-light loop per warp, with two fast paths layered on top:
    ///
    /// * the conservative [`tile_alpha_bound`] skips a splat's evaluation
    ///   for the whole tile when every fragment would be alpha-pruned;
    /// * once every warp has hit the whole-warp early exit the remaining
    ///   splat list is abandoned (the tile has retired).
    ///
    /// Both are exact: skipped work is accounted into the statistics with
    /// the values the scalar oracle would have produced, so images,
    /// statistics and modelled times are bit-identical between kernels.
    #[allow(clippy::too_many_arguments)]
    // vrlint: hot
    // vrlint: allow-block(VL01[index], reason = "tile-local pixel indices are bounded by the tile geometry; SoA lanes share the bin's splat ids")
    fn sweep_tile_soa(
        &self,
        stream: &SplatStream,
        list: &[u32],
        tx: u32,
        ty: u32,
        width: u32,
        height: u32,
        band: &mut [Rgba],
        bufs: SoaTileScratch<'_>,
        stats: &mut SwStats,
    ) {
        let tile = self.cfg.tile_px;
        let x0 = tx * tile;
        let y0 = ty * tile;
        let n_px = (tile * tile) as usize;
        let SoaTileScratch {
            acc,
            in_bounds,
            px_center,
            py_center,
            alphas,
            warp_state,
            retired_row,
        } = bufs;

        for t in 0..n_px {
            let px = x0 + (t as u32 % tile);
            let py = y0 + (t as u32 / tile);
            in_bounds[t] = px < width && py < height;
            px_center[t] = px as f32 + 0.5;
            py_center[t] = py as f32 + 0.5;
        }
        // Pixel-center rectangle of the tile for the conservative bound.
        let rect = (
            (x0 as f32 + 0.5, y0 as f32 + 0.5),
            (
                x0 as f32 + (tile - 1) as f32 + 0.5,
                y0 as f32 + (tile - 1) as f32 + 0.5,
            ),
        );

        let warps = n_px / 32;
        warp_state.clear();
        warp_state.resize(warps, WarpState::default());
        for (w, ws) in warp_state.iter_mut().enumerate() {
            ws.oob = in_bounds[w * 32..w * 32 + 32]
                .iter()
                .filter(|&&ib| !ib)
                .count() as u32;
        }
        let et = self.early_termination;
        let mut active = warps;

        for (iter, &si) in list.iter().enumerate() {
            // Whole-warp early exit, checked at the same point in the
            // iteration as the scalar oracle does.
            if et {
                for ws in warp_state.iter_mut() {
                    if !ws.exited && ws.oob + ws.term == 32 {
                        ws.exited = true;
                        active -= 1;
                        stats.warp_iterations_saved += (list.len() - iter) as u64;
                    }
                }
                if active == 0 {
                    // Tile retired: every in-bounds pixel terminated, so
                    // the rest of the splat list is dead. Mark the band's
                    // bitset row (band-private words, no synchronization)
                    // so the caller skips its retirement scan.
                    set_word_bit(retired_row, tx as usize);
                    break;
                }
            }
            let si = si as usize;
            let cx = stream.center_x()[si];
            let cy = stream.center_y()[si];
            let conic = stream.conic(si);
            let opacity = stream.opacity()[si];

            // Conservative tile bound: when even the best-case alpha
            // prunes, account the iterations exactly and skip evaluation.
            let bound = tile_alpha_bound(conic, opacity, Vec2::new(cx, cy), rect.0, rect.1);
            if bound < ALPHA_PRUNE_THRESHOLD {
                for ws in warp_state.iter() {
                    if ws.exited {
                        continue;
                    }
                    stats.warp_iterations += 1;
                    stats.thread_slots += 32;
                    if et {
                        stats.terminated_fragments += ws.term as u64;
                    }
                    stats.bound_skipped_iterations += 1;
                }
                continue;
            }

            let (a, b, c) = conic;
            let color = stream.color(si);
            for (w, ws) in warp_state.iter_mut().enumerate() {
                if ws.exited {
                    continue;
                }
                stats.warp_iterations += 1;
                stats.thread_slots += 32;
                let base = w * 32;
                // Phase 1 — flat, branch-light alpha evaluation over the
                // warp's 32 contiguous lanes (the autovectorizable loop);
                // the arithmetic is operation-for-operation the scalar
                // oracle's `fragment_alpha`.
                for lane in 0..32 {
                    let dx = px_center[base + lane] - cx;
                    let dy = py_center[base + lane] - cy;
                    let power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy;
                    let falloff = if power > 0.0 { 0.0 } else { power.exp() };
                    alphas[lane] = (opacity * falloff).min(ALPHA_MAX);
                }
                // Phase 2 — predicated blend in the oracle's per-pixel
                // order.
                for (lane, &alpha) in alphas.iter().enumerate() {
                    let t = base + lane;
                    if !in_bounds[t] {
                        continue;
                    }
                    if et && acc[t].alpha() >= EARLY_TERMINATION_THRESHOLD {
                        stats.terminated_fragments += 1;
                        continue;
                    }
                    if alpha >= ALPHA_PRUNE_THRESHOLD {
                        acc[t].blend(color, alpha);
                        stats.blending_threads += 1;
                        stats.blended_fragments += 1;
                        if et && acc[t].alpha() >= EARLY_TERMINATION_THRESHOLD {
                            ws.term += 1;
                        }
                    }
                }
            }
        }

        // Resolve, identical to the scalar path.
        for (t, a) in acc.iter().enumerate() {
            if in_bounds[t] {
                let px = x0 + (t as u32 % tile);
                let row = t as u32 / tile;
                let c = a.color();
                band[(row * width + px) as usize] = Rgba::new(c.r, c.g, c.b, c.a);
            }
        }
    }
}

/// Per-warp lockstep state of the SoA sweep: lanes permanently out of
/// bounds, lanes whose pixel crossed the termination threshold, and
/// whether the warp has taken its whole-warp early exit.
#[derive(Debug, Default, Clone, Copy)]
struct WarpState {
    oob: u32,
    term: u32,
    exited: bool,
}

/// Borrowed per-band buffers for [`CudaLikeRenderer::sweep_tile_soa`],
/// allocated once per band worker and reused across its tiles.
struct SoaTileScratch<'a> {
    acc: &'a mut [PixelAccumulator],
    in_bounds: &'a mut [bool],
    px_center: &'a mut [f32],
    py_center: &'a mut [f32],
    alphas: &'a mut [f32],
    warp_state: &'a mut Vec<WarpState>,
    /// This band's retired-tile bitset row (bit index = `tx`).
    retired_row: &'a mut [u64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::math::{Vec2, Vec3};

    fn stacked(n: usize, opacity: f32) -> Vec<Splat> {
        (0..n)
            .map(|i| Splat {
                center: Vec2::new(16.0, 16.0),
                depth: 1.0 + i as f32,
                conic: (0.02, 0.0, 0.02),
                axis_major: Vec2::new(14.0, 0.0),
                axis_minor: Vec2::new(0.0, 14.0),
                color: Vec3::new(0.4, 0.6, 0.2),
                opacity,
                source: i as u32,
            })
            .collect()
    }

    #[test]
    fn renders_center_pixel() {
        let sw = CudaLikeRenderer::new(SwConfig::default(), false);
        let f = sw.render(&stacked(10, 0.5), 32, 32);
        assert!(f.color.get(16, 16).a > 0.9);
        assert!(f.stats.blended_fragments > 0);
        assert!(f.rasterize_ms > 0.0);
    }

    /// Wide, nearly-flat splats so every pixel of the tile accumulates and
    /// whole warps reach the termination threshold.
    fn flat_stacked(n: usize) -> Vec<Splat> {
        let mut v = stacked(n, 0.9);
        for s in &mut v {
            s.conic = (0.002, 0.0, 0.002);
            s.axis_major = Vec2::new(80.0, 0.0);
            s.axis_minor = Vec2::new(0.0, 80.0);
        }
        v
    }

    #[test]
    fn early_termination_reduces_fragments_and_time() {
        let splats = flat_stacked(60);
        let base = CudaLikeRenderer::new(SwConfig::default(), false).render(&splats, 32, 32);
        let et = CudaLikeRenderer::new(SwConfig::default(), true).render(&splats, 32, 32);
        assert!(et.stats.blended_fragments < base.stats.blended_fragments);
        assert!(et.rasterize_ms < base.rasterize_ms);
        assert!(et.stats.warp_iterations_saved > 0);
        // Images differ only in invisible contributions.
        assert!(base.color.max_abs_diff(&et.color) < 3.0 / 255.0);
    }

    #[test]
    fn lockstep_keeps_warp_alive_for_one_pixel() {
        // With ET on, a warp with one never-terminating pixel still burns
        // thread slots: blending percentage must fall below 100%.
        let splats = stacked(40, 0.9);
        let et = CudaLikeRenderer::new(SwConfig::default(), true).render(&splats, 32, 32);
        assert!(et.stats.blending_thread_pct() < 100.0);
        assert!(et.stats.terminated_fragments > 0 || et.stats.warp_iterations_saved > 0);
    }

    #[test]
    fn duplication_counts_tiles() {
        // A splat spanning 2x2 tiles duplicates 4 keys.
        let mut s = stacked(1, 0.5);
        s[0].center = Vec2::new(16.0, 16.0); // on the tile corner of 16px tiles
        let sw = CudaLikeRenderer::new(SwConfig::default(), false);
        let f = sw.render(&s, 32, 32);
        assert_eq!(f.stats.duplicated_keys, 4);
    }

    #[test]
    fn offscreen_splats_are_skipped() {
        let mut s = stacked(1, 0.5);
        s[0].center = Vec2::new(-100.0, -100.0);
        let f = CudaLikeRenderer::new(SwConfig::default(), false).render(&s, 32, 32);
        assert_eq!(f.stats.duplicated_keys, 0);
        assert_eq!(f.stats.blended_fragments, 0);
    }

    #[test]
    fn parallel_is_bit_exact_with_serial() {
        let splats = flat_stacked(80);
        let serial_cfg = SwConfig {
            threads: 1,
            ..SwConfig::default()
        };
        for et in [false, true] {
            let serial = CudaLikeRenderer::new(serial_cfg, et).render(&splats, 96, 64);
            for threads in [3, 5, 0] {
                let cfg = SwConfig {
                    threads,
                    ..SwConfig::default()
                };
                let par = CudaLikeRenderer::new(cfg, et).render(&splats, 96, 64);
                assert_eq!(par.stats, serial.stats, "threads={threads} et={et}");
                assert_eq!(
                    par.color.max_abs_diff(&serial.color),
                    0.0,
                    "threads={threads} et={et}: image diverged"
                );
            }
        }
    }

    #[test]
    fn soa_kernel_matches_scalar_bit_exactly() {
        for et in [false, true] {
            for splats in [stacked(40, 0.5), flat_stacked(80)] {
                let scalar = CudaLikeRenderer::new(SwConfig::default(), et).render(&splats, 96, 64);
                let soa_cfg = SwConfig {
                    kernel: FragmentKernel::Soa,
                    ..SwConfig::default()
                };
                let soa = CudaLikeRenderer::new(soa_cfg, et).render(&splats, 96, 64);
                assert_eq!(
                    scalar.color.max_abs_diff(&soa.color),
                    0.0,
                    "et={et}: image diverged"
                );
                let mut masked = soa.stats;
                masked.bound_skipped_iterations = 0;
                assert_eq!(masked, scalar.stats, "et={et}: stats diverged");
                assert_eq!(soa.rasterize_ms, scalar.rasterize_ms, "et={et}");
            }
        }
    }

    #[test]
    fn retired_tiles_are_counted_and_ratio_bounded() {
        let splats = flat_stacked(80);
        for kernel in FragmentKernel::ALL {
            let cfg = SwConfig {
                kernel,
                ..SwConfig::default()
            };
            let f = CudaLikeRenderer::new(cfg, true).render(&splats, 32, 32);
            assert!(f.stats.tiles_swept > 0, "{kernel:?}");
            assert!(
                f.stats.retired_tiles > 0,
                "{kernel:?}: saturated stack must retire"
            );
            let r = f.stats.retired_tile_ratio();
            assert!((0.0..=1.0).contains(&r), "{kernel:?}: ratio {r}");
        }
    }

    #[test]
    fn tile_bound_skips_pruned_splat_visits() {
        // Wide OBBs (binned into many tiles) but a sharp, dim Gaussian:
        // distant tiles are provably below the prune threshold, so the
        // SoA kernel skips their evaluation while accounting identically.
        let splats: Vec<Splat> = (0..30)
            .map(|i| Splat {
                center: Vec2::new(48.0, 48.0),
                depth: 1.0 + i as f32,
                conic: (0.5, 0.0, 0.5),
                axis_major: Vec2::new(45.0, 0.0),
                axis_minor: Vec2::new(0.0, 45.0),
                color: Vec3::new(0.9, 0.4, 0.1),
                opacity: 0.4,
                source: i as u32,
            })
            .collect();
        let scalar = CudaLikeRenderer::new(SwConfig::default(), true).render(&splats, 96, 96);
        let soa_cfg = SwConfig {
            kernel: FragmentKernel::Soa,
            ..SwConfig::default()
        };
        let soa = CudaLikeRenderer::new(soa_cfg, true).render(&splats, 96, 96);
        assert!(soa.stats.bound_skipped_iterations > 0);
        assert_eq!(scalar.stats.bound_skipped_iterations, 0);
        assert_eq!(soa.color.max_abs_diff(&scalar.color), 0.0);
    }

    #[test]
    fn soa_parallel_is_bit_exact_with_serial() {
        let splats = flat_stacked(80);
        for et in [false, true] {
            let serial_cfg = SwConfig {
                threads: 1,
                kernel: FragmentKernel::Soa,
                ..SwConfig::default()
            };
            let serial = CudaLikeRenderer::new(serial_cfg, et).render(&splats, 96, 64);
            for threads in [3, 5, 0] {
                let cfg = SwConfig {
                    threads,
                    kernel: FragmentKernel::Soa,
                    ..SwConfig::default()
                };
                let par = CudaLikeRenderer::new(cfg, et).render(&splats, 96, 64);
                assert_eq!(par.stats, serial.stats, "threads={threads} et={et}");
                assert_eq!(par.color.max_abs_diff(&serial.color), 0.0);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_frames_is_stable() {
        let splats = stacked(30, 0.5);
        let sw = CudaLikeRenderer::new(SwConfig::default(), true);
        let mut scratch = SwScratch::default();
        let fresh = sw.render(&splats, 48, 32);
        for _ in 0..3 {
            let f = sw.render_with_scratch(&splats, 48, 32, &mut scratch);
            assert_eq!(f.stats, fresh.stats);
            assert_eq!(f.color.max_abs_diff(&fresh.color), 0.0);
        }
    }
}
