//! GPU configuration — Table I of the paper plus the unit throughputs
//! derived from the paper's microbenchmark analysis (§VII-A, Fig. 20).

use serde::{Deserialize, Serialize};

use gsplat::color::PixelFormat;
use gsplat::stream::FragmentKernel;

/// Widest screen tile the quad reorder unit can track: its 64 quad-position
/// registers are one per 2×2 quad of a 16×16-pixel tile (paper §V-C).
pub const MAX_SCREEN_TILE_PX: u32 = 16;

/// Largest TC bin the quad reorder unit can take in one flush: its quad
/// buffer holds 128 quads (7-bit QIDs, paper §V-C).
pub const MAX_TC_BIN_SIZE: usize = 128;

/// Full simulator configuration. Defaults reproduce Table I (a single-GPC
/// GPU configured like the Jetson AGX Orin in 30 W mode).
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
/// let cfg = GpuConfig::default();
/// assert_eq!(cfg.simt_cores, 16);
/// assert_eq!(cfg.tc_bins, 32);
/// assert_eq!(cfg.crop_quads_per_cycle(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of Graphics Processing Clusters. Table I: 1.
    pub gpcs: u32,
    /// SIMT cores (SMs) per GPC. Table I: 16 (1024 CUDA cores).
    pub simt_cores: u32,
    /// Core clock in MHz. Table I: 612 MHz (AGX Orin 30 W).
    pub core_freq_mhz: u32,
    /// Lanes per SIMT core. Table I: 64 (4 warp schedulers).
    pub lanes_per_core: u32,

    /// Screen tile edge in pixels (NVIDIA GPUs: 16×16). At most
    /// [`MAX_SCREEN_TILE_PX`].
    pub screen_tile_px: u32,
    /// Raster tile edge in pixels within a screen tile. Table I: 8×8.
    pub raster_tile_px: u32,
    /// Tile-grid edge in screen tiles for the TGC unit. Table I: 4×4
    /// tiles = 64×64 pixels.
    pub tile_grid_tiles: u32,

    /// Number of TGC bins. Table I: 128.
    pub tgc_bins: usize,
    /// TGC bin capacity in primitives. Table I: 16.
    pub tgc_bin_size: usize,
    /// Number of TC bins. Table I / §VII-A: 32.
    pub tc_bins: usize,
    /// TC bin capacity in quads. Table I: 128, which is also the most
    /// the quad reorder unit takes ([`MAX_TC_BIN_SIZE`]).
    pub tc_bin_size: usize,

    /// CROP cache size in bytes. Table I / Fig. 20a: 16 KB.
    pub crop_cache_bytes: usize,
    /// Z-cache (depth/stencil) size in bytes.
    pub z_cache_bytes: usize,
    /// Cache line size in bytes (128 B, sectored).
    pub cache_line_bytes: usize,
    /// Cache associativity (ways) for the ROP caches.
    pub cache_ways: usize,

    /// Framebuffer color format (throughput + footprint, Fig. 20b).
    pub pixel_format: PixelFormat,

    /// ROP pixel throughput per GPC per cycle at 32 bpp (RGBA8). 16 ROP
    /// units/GPC on Ampere → 16 px/cycle; RGBA16F halves it (Fig. 20b).
    pub rop_pixels_per_cycle_rgba8: u32,

    /// Rasterizer fine-raster throughput in quads per cycle.
    pub fine_raster_quads_per_cycle: u32,
    /// Coarse-raster throughput in raster tiles per cycle.
    pub coarse_raster_tiles_per_cycle: u32,
    /// Setup throughput in primitives per cycle.
    pub setup_prims_per_cycle: u32,
    /// VPO (assembly + tile identification) primitives per cycle.
    pub vpo_prims_per_cycle: u32,
    /// ZROP stencil/termination-test throughput in quads per cycle.
    /// Z-only operations run at a multiple of the color rate (read-only
    /// 1-bit tests against the cached stencil line; depth/stencil-only
    /// rates are conventionally 4× the color rate).
    pub zrop_quads_per_cycle: u32,
    /// TC-unit quad insertion throughput in quads per cycle.
    pub tc_quads_per_cycle: u32,
    /// PROP quad routing throughput in quads per cycle.
    pub prop_quads_per_cycle: u32,
    /// Quad reorder unit scan throughput in quads per cycle (QM only).
    pub qru_quads_per_cycle: u32,

    /// Fragment-shader instruction count per warp (alpha eval: dot product,
    /// exponential, pruning branch — the paper notes these shaders are far
    /// cheaper than lighting/texturing shaders).
    pub frag_shader_cycles_per_warp: u32,
    /// Extra warp cycles for quad merging (warp shuffle + partial blend).
    pub qm_extra_cycles_per_warp: u32,
    /// Vertex-shader cost per primitive (4 vertices, trivial corner math).
    pub vertex_shader_cycles_per_prim: u32,

    /// L2 bandwidth in bytes per core cycle.
    pub l2_bytes_per_cycle: u32,
    /// DRAM bandwidth in bytes per core cycle (LPDDR 16-channel ≈ 204 GB/s
    /// at 612 MHz core clock ≈ 334 B/cycle).
    pub dram_bytes_per_cycle: u32,

    /// Host worker threads for the simulator's parallel phases (`0` = one
    /// per available CPU): triangle setup and fine raster, the TGC key
    /// stream, and TC-flush pixel work sharded by screen tile. The serial
    /// spine (bin tables) and tail (ROP/L2 caches, timer) stay on the
    /// calling thread; with one worker every phase does. This is a *host*
    /// knob: it changes simulation wall time, never simulated results.
    pub threads: usize,
    /// Simulated tile-granularity retirement check. Despite its name this
    /// is not a host knob: every draw runs the same host code. On HET
    /// variants, `Soa` turns the check on: a retired tile's TC flushes
    /// are discarded on a single ZROP tile-flag read instead of per-quad
    /// stencil-line tests — the hardware's tile-granularity transmittance
    /// check. Rendered images, depth/stencil state and work counters are
    /// the same either way except `zrop_term_tests`, `retired_tile_skips`,
    /// the z-cache traffic and the cycles they cost, all of which shrink
    /// under `Soa`. On non-HET variants the value has no effect.
    pub kernel: FragmentKernel,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            gpcs: 1,
            simt_cores: 16,
            core_freq_mhz: 612,
            lanes_per_core: 64,
            screen_tile_px: 16,
            raster_tile_px: 8,
            tile_grid_tiles: 4,
            tgc_bins: 128,
            tgc_bin_size: 16,
            tc_bins: 32,
            tc_bin_size: 128,
            crop_cache_bytes: 16 * 1024,
            z_cache_bytes: 16 * 1024,
            cache_line_bytes: 128,
            cache_ways: 8,
            pixel_format: PixelFormat::Rgba16F,
            rop_pixels_per_cycle_rgba8: 16,
            fine_raster_quads_per_cycle: 12,
            coarse_raster_tiles_per_cycle: 6,
            setup_prims_per_cycle: 1,
            vpo_prims_per_cycle: 1,
            zrop_quads_per_cycle: 16,
            tc_quads_per_cycle: 8,
            prop_quads_per_cycle: 8,
            qru_quads_per_cycle: 2,
            frag_shader_cycles_per_warp: 28,
            qm_extra_cycles_per_warp: 10,
            vertex_shader_cycles_per_prim: 8,
            l2_bytes_per_cycle: 512,
            dram_bytes_per_cycle: 334,
            threads: 0,
            kernel: FragmentKernel::Scalar,
        }
    }
}

impl GpuConfig {
    /// CROP blending throughput in quads per cycle for the configured
    /// format: 4 quads/cycle at RGBA8 (16 px), halved per doubling of
    /// bytes-per-pixel (Fig. 20b).
    pub fn crop_quads_per_cycle(&self) -> u32 {
        let px_per_cycle = match self.pixel_format {
            PixelFormat::Rgba8 => self.rop_pixels_per_cycle_rgba8,
            PixelFormat::Rgba16F => self.rop_pixels_per_cycle_rgba8 / 2,
            PixelFormat::Rgba32F => self.rop_pixels_per_cycle_rgba8 / 4,
        };
        (px_per_cycle / 4).max(1)
    }

    /// Tile-grid edge in pixels.
    pub fn tile_grid_px(&self) -> u32 {
        self.tile_grid_tiles * self.screen_tile_px
    }

    /// Quads per warp: 32 threads at one thread per fragment.
    pub const fn quads_per_warp(&self) -> u32 {
        8
    }

    /// Aggregate SM warp throughput: with `simt_cores` concurrently
    /// resident warps issuing one instruction per cycle, the pipeline
    /// completes `simt_cores / cycles_per_warp` warps per cycle.
    pub fn sm_warps_per_cycle(&self, warp_cycles: u32) -> f64 {
        self.simt_cores as f64 / warp_cycles.max(1) as f64
    }

    /// Converts cycles to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.core_freq_mhz as f64 * 1e3)
    }

    /// The host work-distribution policy (`threads`).
    pub fn thread_policy(&self) -> gsplat::par::ThreadPolicy {
        gsplat::par::ThreadPolicy {
            threads: self.threads,
        }
    }

    /// Validates structural invariants (tile sizes divide evenly, non-zero
    /// bins, the QRU's tile and bin limits), returning a description of
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        // Zero tile geometry would pass the divisibility checks below
        // (0 is a multiple of everything) and panic deep in `Tiling`.
        if self.screen_tile_px == 0 || self.raster_tile_px == 0 {
            return Err("tile sizes must be non-zero".into());
        }
        if self.screen_tile_px > MAX_SCREEN_TILE_PX {
            return Err(format!(
                "screen tile {} px exceeds the {MAX_SCREEN_TILE_PX} px the QRU's \
                 64 quad-position registers cover",
                self.screen_tile_px
            ));
        }
        if self.tile_grid_tiles == 0 {
            return Err("tile grid must span at least one screen tile".into());
        }
        if !self.screen_tile_px.is_multiple_of(self.raster_tile_px) {
            return Err(format!(
                "raster tile {} must divide screen tile {}",
                self.raster_tile_px, self.screen_tile_px
            ));
        }
        if !self.raster_tile_px.is_multiple_of(2) {
            return Err("raster tile must be a multiple of the 2x2 quad".into());
        }
        if self.tc_bins == 0 || self.tc_bin_size == 0 {
            return Err("TC unit must have bins".into());
        }
        if self.tc_bin_size > MAX_TC_BIN_SIZE {
            return Err(format!(
                "TC bin size {} exceeds the QRU's {MAX_TC_BIN_SIZE}-quad buffer",
                self.tc_bin_size
            ));
        }
        if self.tgc_bins == 0 || self.tgc_bin_size == 0 {
            return Err("TGC unit must have bins".into());
        }
        if self.cache_line_bytes == 0
            || !self.crop_cache_bytes.is_multiple_of(self.cache_line_bytes)
        {
            return Err("CROP cache size must be a multiple of the line size".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = GpuConfig::default();
        assert_eq!(c.gpcs, 1);
        assert_eq!(c.simt_cores, 16);
        assert_eq!(c.core_freq_mhz, 612);
        assert_eq!(c.lanes_per_core, 64);
        assert_eq!(c.raster_tile_px, 8);
        assert_eq!(c.tile_grid_px(), 64);
        assert_eq!(c.tgc_bins, 128);
        assert_eq!(c.tgc_bin_size, 16);
        assert_eq!(c.tc_bins, 32);
        assert_eq!(c.tc_bin_size, 128);
        assert_eq!(c.crop_cache_bytes, 16 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn crop_throughput_by_format() {
        let mut c = GpuConfig::default();
        assert_eq!(c.crop_quads_per_cycle(), 2); // RGBA16F (Table I)
        c.pixel_format = PixelFormat::Rgba8;
        assert_eq!(c.crop_quads_per_cycle(), 4);
        c.pixel_format = PixelFormat::Rgba32F;
        assert_eq!(c.crop_quads_per_cycle(), 1);
    }

    #[test]
    fn cycles_to_ms_at_612mhz() {
        let c = GpuConfig::default();
        assert!((c.cycles_to_ms(612_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_tiles() {
        let c = GpuConfig {
            raster_tile_px: 5,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
        for zeroed in [
            GpuConfig {
                screen_tile_px: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                raster_tile_px: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                tile_grid_tiles: 0,
                ..GpuConfig::default()
            },
        ] {
            assert!(zeroed.validate().is_err(), "{zeroed:?}");
        }
        let c2 = GpuConfig {
            tc_bins: 0,
            ..GpuConfig::default()
        };
        assert!(c2.validate().is_err());
        let c3 = GpuConfig {
            crop_cache_bytes: 1000,
            ..GpuConfig::default()
        };
        assert!(c3.validate().is_err());
        // The QRU limits: the largest tile and bin pass, larger ones fail.
        let qru = |screen_tile_px, tc_bin_size| GpuConfig {
            screen_tile_px,
            tc_bin_size,
            ..GpuConfig::default()
        };
        assert!(qru(MAX_SCREEN_TILE_PX, MAX_TC_BIN_SIZE).validate().is_ok());
        let err = qru(32, MAX_TC_BIN_SIZE).validate().unwrap_err();
        assert!(err.contains("QRU"), "{err}");
        let err = qru(MAX_SCREEN_TILE_PX, 129).validate().unwrap_err();
        assert!(err.contains("QRU"), "{err}");
    }

    #[test]
    fn sm_throughput_scales_with_cores() {
        let c = GpuConfig::default();
        assert!((c.sm_warps_per_cycle(28) - 16.0 / 28.0).abs() < 1e-12);
        assert!(c.sm_warps_per_cycle(0) > 0.0);
    }
}
