//! In-shader pixel blending with and without fragment-shader interlock
//! (paper §IV-A, Fig. 10).
//!
//! Blending in the fragment shader instead of the ROPs requires a critical
//! section (`GL_ARB_fragment_shader_interlock`) to preserve per-pixel
//! blend order. The ordered lock serialises all fragments of a pixel and
//! stalls the warps holding them, collapsing effective parallelism — the
//! paper measures a ~5–10× slowdown. Without the interlock the threads run
//! free (fast but *incorrect*: the blend order becomes nondeterministic).

use gsplat::blend::{ALPHA_MAX, ALPHA_PRUNE_THRESHOLD};
use gsplat::par::{run_indexed, Bands, ThreadPolicy};
use gsplat::splat::Splat;
use gsplat::stream::{tile_alpha_bound, FragmentKernel, SplatStream};
use serde::{Deserialize, Serialize};

/// Blending strategies compared in Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlendStrategy {
    /// Fixed-function ROP blending (the baseline, correct).
    RopBased,
    /// In-shader blending inside an ordered critical section (correct but
    /// serialised per pixel).
    InShaderInterlock,
    /// In-shader blending with no synchronisation (fast, order-racy —
    /// produces incorrect colors; evaluated for its timing only).
    InShaderUnordered,
}

impl BlendStrategy {
    /// Label as used in Fig. 10.
    pub fn label(self) -> &'static str {
        match self {
            BlendStrategy::RopBased => "ROP-Based",
            BlendStrategy::InShaderInterlock => "In-Shader w/ Extension",
            BlendStrategy::InShaderUnordered => "In-Shader w/o Extension",
        }
    }
}

/// Cost model for the three blending strategies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InShaderConfig {
    /// ROP throughput in blended quads per cycle.
    pub rop_quads_per_cycle: f64,
    /// Cycles a fragment spends inside the ordered critical section
    /// (lock acquire, RGBA load, blend, store, release). Fragments of the
    /// same pixel serialise on this cost.
    pub interlock_critical_cycles: f64,
    /// Pixels whose lock chains drain concurrently (limited by how many
    /// ordered warps the scheduler keeps in flight).
    pub interlock_concurrency: f64,
    /// Cycles per fragment for the unordered path: the read-modify-write
    /// through the LSU/L1 dominates (not ALU), so this is memory-bound and
    /// lands near ROP throughput (Fig. 10: "close to or faster than
    /// ROP-based").
    pub unordered_cycles_per_fragment: f64,
    /// Total shader lanes.
    pub lanes: f64,
}

impl Default for InShaderConfig {
    fn default() -> Self {
        Self {
            rop_quads_per_cycle: 2.0,
            interlock_critical_cycles: 32.0,
            interlock_concurrency: 32.0,
            unordered_cycles_per_fragment: 34.0,
            lanes: 1024.0,
        }
    }
}

/// Per-strategy rasterization time for a frame with the given fragment
/// workload, in cycles.
///
/// `fragments` is the number of alpha-surviving fragments; `quads` the ROP
/// quads they arrive in; `max_frags_per_pixel` bounds the longest ordered
/// lock chain.
pub fn rasterize_cycles(
    strategy: BlendStrategy,
    fragments: u64,
    quads: u64,
    max_frags_per_pixel: u64,
    cfg: &InShaderConfig,
) -> f64 {
    match strategy {
        BlendStrategy::RopBased => quads as f64 / cfg.rop_quads_per_cycle,
        BlendStrategy::InShaderInterlock => {
            // Every fragment pays the critical section; chains of the same
            // pixel serialise and only `interlock_concurrency` chains make
            // progress at once. The longest chain lower-bounds the time.
            let serial =
                fragments as f64 * cfg.interlock_critical_cycles / cfg.interlock_concurrency;
            let chain = max_frags_per_pixel as f64 * cfg.interlock_critical_cycles;
            serial.max(chain)
        }
        BlendStrategy::InShaderUnordered => {
            fragments as f64 * cfg.unordered_cycles_per_fragment / cfg.lanes * 4.0
        }
    }
}

/// Fragment workload of a splat list: `(fragments, quads,
/// max_fragments_per_pixel)`, computed by a quick coverage pass.
pub fn fragment_workload(splats: &[Splat], width: u32, height: u32) -> (u64, u64, u64) {
    fragment_workload_with(splats, width, height, ThreadPolicy::default())
}

/// [`fragment_workload`] with an explicit threading policy. The coverage
/// pass fans out over disjoint framebuffer row bands; per-band fragment
/// counts and chain maxima merge commutatively, so the result is identical
/// for every thread count.
pub fn fragment_workload_with(
    splats: &[Splat],
    width: u32,
    height: u32,
    policy: ThreadPolicy,
) -> (u64, u64, u64) {
    fragment_workload_kernel(splats, width, height, policy, FragmentKernel::Scalar)
}

/// [`fragment_workload_with`] with an explicit fragment kernel. The `Soa`
/// kernel scans a [`SplatStream`] with a hoisted per-row falloff term and
/// skips band visits whose conservative [`tile_alpha_bound`] proves every
/// fragment alpha-pruned; counts are identical to the scalar oracle.
// vrlint: hot
// vrlint: allow-block(VL01[index], reason = "band-local pixel indices are clamped to the band's row window; SoA lanes iterate 0..stream.len()")
pub fn fragment_workload_kernel(
    splats: &[Splat],
    width: u32,
    height: u32,
    policy: ThreadPolicy,
    kernel: FragmentKernel,
) -> (u64, u64, u64) {
    let stream = match kernel {
        FragmentKernel::Scalar => None,
        FragmentKernel::Soa => Some(SplatStream::from_splats(splats)),
    };
    // vrlint: allow(VL02, reason = "per-pixel count buffer is allocated per call; this kernel is a modelled workload probe, not the vrpipe scratch-reusing frame loop")
    let mut per_pixel = vec![0u32; (width * height) as usize];
    let workers = policy.workers(height as usize);
    let band_rows = if workers <= 1 {
        height
    } else {
        height.div_ceil((workers * 4) as u32).max(1)
    };
    let n_bands = height.div_ceil(band_rows) as usize;
    let bands = Bands::new(&mut per_pixel, (band_rows * width) as usize);
    let per_band = run_indexed(n_bands, policy, |b| {
        let band = bands.take(b);
        let row0 = b as u32 * band_rows;
        let row1 = (row0 + band_rows).min(height);
        let mut fragments = 0u64;
        match &stream {
            None => {
                for s in splats {
                    let (lo, hi) = s.aabb();
                    if hi.x < 0.0 || hi.y < 0.0 || lo.x >= width as f32 || lo.y >= height as f32 {
                        continue;
                    }
                    let x0 = lo.x.max(0.0) as u32;
                    let y0 = (lo.y.max(0.0) as u32).max(row0);
                    let x1 = (hi.x.min(width as f32 - 1.0)).max(0.0) as u32;
                    let y1 = ((hi.y.min(height as f32 - 1.0)).max(0.0) as u32).min(row1 - 1);
                    if y0 > y1 || y0 >= row1 {
                        continue;
                    }
                    for y in y0..=y1 {
                        for x in x0..=x1 {
                            let dx = x as f32 + 0.5 - s.center.x;
                            let dy = y as f32 + 0.5 - s.center.y;
                            if gsplat::blend::fragment_alpha(s.opacity, s.conic, dx, dy).is_some() {
                                fragments += 1;
                                band[((y - row0) * width + x) as usize] += 1;
                            }
                        }
                    }
                }
            }
            Some(stream) => {
                for si in 0..stream.len() {
                    let cx = stream.center_x()[si];
                    let cy = stream.center_y()[si];
                    let (a, bq, c) = stream.conic(si);
                    let opacity = stream.opacity()[si];
                    let (maj, min_ax) = stream.axes(si);
                    let ext_x = maj.x.abs() + min_ax.x.abs();
                    let ext_y = maj.y.abs() + min_ax.y.abs();
                    let (lo_x, lo_y) = (cx - ext_x, cy - ext_y);
                    let (hi_x, hi_y) = (cx + ext_x, cy + ext_y);
                    if hi_x < 0.0 || hi_y < 0.0 || lo_x >= width as f32 || lo_y >= height as f32 {
                        continue;
                    }
                    let x0 = lo_x.max(0.0) as u32;
                    let y0 = (lo_y.max(0.0) as u32).max(row0);
                    let x1 = (hi_x.min(width as f32 - 1.0)).max(0.0) as u32;
                    let y1 = ((hi_y.min(height as f32 - 1.0)).max(0.0) as u32).min(row1 - 1);
                    if y0 > y1 || y0 >= row1 {
                        continue;
                    }
                    // Conservative band bound: every fragment would be
                    // alpha-pruned, so the counters cannot change.
                    let bound = tile_alpha_bound(
                        (a, bq, c),
                        opacity,
                        gsplat::math::Vec2::new(cx, cy),
                        (x0 as f32 + 0.5, y0 as f32 + 0.5),
                        (x1 as f32 + 0.5, y1 as f32 + 0.5),
                    );
                    if bound < ALPHA_PRUNE_THRESHOLD {
                        continue;
                    }
                    for y in y0..=y1 {
                        let dy = y as f32 + 0.5 - cy;
                        let cdy2 = c * dy * dy;
                        for x in x0..=x1 {
                            let dx = x as f32 + 0.5 - cx;
                            let power = -0.5 * (a * dx * dx + cdy2) - bq * dx * dy;
                            let falloff = if power > 0.0 { 0.0 } else { power.exp() };
                            let alpha = (opacity * falloff).min(ALPHA_MAX);
                            if alpha >= ALPHA_PRUNE_THRESHOLD {
                                fragments += 1;
                                band[((y - row0) * width + x) as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        let max_chain = band.iter().copied().max().unwrap_or(0) as u64;
        (fragments, max_chain)
    });
    let fragments: u64 = per_band.iter().map(|(f, _)| f).sum();
    let max_chain = per_band.iter().map(|(_, c)| *c).max().unwrap_or(0);
    // Quads approximated as fragments / mean quad occupancy (~3.2 of 4
    // lanes covered for ellipse footprints).
    let quads = (fragments as f64 / 3.2).ceil() as u64;
    (fragments, quads, max_chain)
}

/// Normalized rasterization time of `strategy` relative to ROP-based
/// blending for the given workload (Fig. 10's y-axis).
pub fn normalized_time(
    strategy: BlendStrategy,
    fragments: u64,
    quads: u64,
    max_chain: u64,
    cfg: &InShaderConfig,
) -> f64 {
    let base = rasterize_cycles(BlendStrategy::RopBased, fragments, quads, max_chain, cfg);
    rasterize_cycles(strategy, fragments, quads, max_chain, cfg) / base.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::math::{Vec2, Vec3};

    fn workload() -> (u64, u64, u64) {
        (1_000_000, 312_500, 300)
    }

    #[test]
    fn interlock_is_much_slower_than_rop() {
        let (f, q, c) = workload();
        let cfg = InShaderConfig::default();
        let slow = normalized_time(BlendStrategy::InShaderInterlock, f, q, c, &cfg);
        assert!(
            slow > 3.0,
            "interlock should be several times slower, got {slow}"
        );
        assert!(slow < 20.0, "but not absurdly so, got {slow}");
    }

    #[test]
    fn unordered_is_competitive_with_rop() {
        let (f, q, c) = workload();
        let cfg = InShaderConfig::default();
        let t = normalized_time(BlendStrategy::InShaderUnordered, f, q, c, &cfg);
        assert!(
            t > 0.2 && t < 1.5,
            "unordered should be near ROP speed, got {t}"
        );
    }

    #[test]
    fn long_chain_binds_interlock() {
        let cfg = InShaderConfig::default();
        // Few fragments but one pixel with a huge chain.
        let t = rasterize_cycles(BlendStrategy::InShaderInterlock, 10_000, 3_000, 8_000, &cfg);
        assert!(t >= 8_000.0 * cfg.interlock_critical_cycles);
    }

    #[test]
    fn fragment_workload_counts_coverage() {
        let splats = vec![Splat {
            center: Vec2::new(8.0, 8.0),
            depth: 1.0,
            conic: (0.05, 0.0, 0.05),
            axis_major: Vec2::new(6.0, 0.0),
            axis_minor: Vec2::new(0.0, 6.0),
            color: Vec3::splat(0.5),
            opacity: 0.9,
            source: 0,
        }];
        let (frags, quads, chain) = fragment_workload(&splats, 16, 16);
        assert!(frags > 50, "expect a filled ellipse, got {frags}");
        assert!(quads >= frags / 4);
        assert_eq!(chain, 1);
    }

    #[test]
    fn fragment_workload_is_thread_count_invariant() {
        let splats: Vec<Splat> = (0..40)
            .map(|i| Splat {
                center: Vec2::new(5.0 + (i % 7) as f32 * 8.0, 4.0 + (i % 5) as f32 * 9.0),
                depth: 1.0 + i as f32,
                conic: (0.05, 0.0, 0.05),
                axis_major: Vec2::new(7.0, 0.0),
                axis_minor: Vec2::new(0.0, 7.0),
                color: Vec3::splat(0.5),
                opacity: 0.8,
                source: i,
            })
            .collect();
        let serial = fragment_workload_with(&splats, 60, 44, ThreadPolicy::serial());
        for policy in [
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 6 },
            ThreadPolicy::default(),
        ] {
            assert_eq!(
                fragment_workload_with(&splats, 60, 44, policy),
                serial,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn soa_workload_matches_scalar_exactly() {
        let splats: Vec<Splat> = (0..60)
            .map(|i| Splat {
                center: Vec2::new(5.0 + (i % 9) as f32 * 7.0, 4.0 + (i % 6) as f32 * 8.0),
                depth: 1.0 + i as f32,
                conic: (0.3 + 0.01 * i as f32, 0.02, 0.4),
                axis_major: Vec2::new(9.0, 1.0),
                axis_minor: Vec2::new(-1.0, 8.0),
                color: Vec3::splat(0.5),
                opacity: 0.05 + 0.02 * (i % 10) as f32,
                source: i,
            })
            .collect();
        for policy in [ThreadPolicy::serial(), ThreadPolicy::default()] {
            let scalar = fragment_workload_kernel(&splats, 64, 48, policy, FragmentKernel::Scalar);
            let soa = fragment_workload_kernel(&splats, 64, 48, policy, FragmentKernel::Soa);
            assert_eq!(soa, scalar, "{policy:?}");
        }
    }

    #[test]
    fn labels_match_fig10() {
        assert_eq!(BlendStrategy::RopBased.label(), "ROP-Based");
        assert_eq!(
            BlendStrategy::InShaderInterlock.label(),
            "In-Shader w/ Extension"
        );
        assert_eq!(
            BlendStrategy::InShaderUnordered.label(),
            "In-Shader w/o Extension"
        );
    }
}
