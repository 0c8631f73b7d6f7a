//! Draw-call energy model (paper §VI-D, Fig. 19).
//!
//! The paper estimates mobile-GPU energy by imitating HET/QM effects on a
//! Jetson AGX Orin. We model energy as static power × draw time plus
//! per-operation dynamic energies. Constants are representative
//! edge-GPU figures (order-of-magnitude per-op energies at a mobile
//! process node); what matters for Fig. 19 is the *ratio* between
//! variants, which is governed by how much of each unit's work the
//! extensions eliminate.

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use serde::{Deserialize, Serialize};

/// Per-operation dynamic energies and static power for the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Static + constant-overhead power drawn for the whole draw call,
    /// in nanojoules per cycle (clock tree, idle lanes, scheduler).
    pub static_nj_per_cycle: f64,
    /// Fragment-shading energy per shaded fragment (ALU + register file).
    pub shade_frag_nj: f64,
    /// Blend energy per fragment in CROP (read-modify-write datapath).
    pub blend_frag_nj: f64,
    /// Rasterization energy per emitted quad (edge evaluation).
    pub raster_quad_nj: f64,
    /// ZROP termination/stencil test energy per quad.
    pub zrop_test_nj: f64,
    /// Termination-bit update energy (z-cache RMW).
    pub term_update_nj: f64,
    /// Energy per ROP-cache access.
    pub rop_cache_access_nj: f64,
    /// Energy per byte moved from L2.
    pub l2_byte_nj: f64,
    /// Energy per byte moved from DRAM.
    pub dram_byte_nj: f64,
    /// Warp launch/scheduling energy.
    pub warp_launch_nj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            static_nj_per_cycle: 2.0,
            shade_frag_nj: 0.9,
            blend_frag_nj: 1.1,
            raster_quad_nj: 0.8,
            zrop_test_nj: 0.15,
            term_update_nj: 0.4,
            rop_cache_access_nj: 0.3,
            l2_byte_nj: 0.03,
            dram_byte_nj: 0.15,
            warp_launch_nj: 4.0,
        }
    }
}

impl EnergyModel {
    /// Total draw-call energy in nanojoules for the given statistics. Each
    /// ROP-cache miss and writeback moves one `cfg.cache_line_bytes` line
    /// through the L2.
    pub fn draw_energy_nj(&self, cfg: &GpuConfig, stats: &PipelineStats) -> f64 {
        let cache_accesses = stats.crop_cache.accesses() + stats.z_cache.accesses();
        let l2_bytes = (stats.crop_cache.misses
            + stats.crop_cache.writebacks
            + stats.z_cache.misses
            + stats.z_cache.writebacks) as f64
            * cfg.cache_line_bytes as f64;
        // A fraction of L2 fills come from DRAM; approximate with the
        // fill traffic itself (framebuffers exceed the L2 for large
        // targets, but binning keeps re-reference high).
        let dram_bytes = l2_bytes * 0.3;
        self.static_nj_per_cycle * stats.total_cycles as f64
            + self.shade_frag_nj * stats.shaded_fragments as f64
            + self.blend_frag_nj * stats.crop_fragments as f64
            + self.raster_quad_nj * stats.raster_quads as f64
            + self.zrop_test_nj * stats.zrop_term_tests as f64
            + self.term_update_nj * stats.term_updates as f64
            + self.rop_cache_access_nj * cache_accesses as f64
            + self.l2_byte_nj * l2_bytes
            + self.dram_byte_nj * dram_bytes
            + self.warp_launch_nj * stats.warps_launched as f64
    }

    /// Energy efficiency of `variant` relative to `baseline`
    /// (Fig. 19's metric: baseline energy / variant energy).
    pub fn efficiency(
        &self,
        cfg: &GpuConfig,
        baseline: &PipelineStats,
        variant: &PipelineStats,
    ) -> f64 {
        let e_base = self.draw_energy_nj(cfg, baseline);
        let e_var = self.draw_energy_nj(cfg, variant);
        if e_var > 0.0 {
            e_base / e_var
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64, shaded: u64, blended: u64) -> PipelineStats {
        PipelineStats {
            total_cycles: cycles,
            shaded_fragments: shaded,
            crop_fragments: blended,
            raster_quads: shaded / 4,
            warps_launched: shaded / 32,
            ..Default::default()
        }
    }

    #[test]
    fn energy_is_positive_and_monotone_in_work() {
        let m = EnergyModel::default();
        let cfg = GpuConfig::default();
        let small = m.draw_energy_nj(&cfg, &stats_with(1000, 4000, 3000));
        let large = m.draw_energy_nj(&cfg, &stats_with(2000, 8000, 6000));
        assert!(small > 0.0);
        assert!(large > small);
    }

    #[test]
    fn less_work_means_better_efficiency() {
        let m = EnergyModel::default();
        let cfg = GpuConfig::default();
        let base = stats_with(10_000, 40_000, 36_000);
        let het = stats_with(5_000, 16_000, 14_000);
        let eff = m.efficiency(&cfg, &base, &het);
        assert!(eff > 1.0, "efficiency {eff}");
    }

    /// L2 and DRAM traffic is one cache line per ROP-cache miss or
    /// writeback: halving the line halves exactly that part of the energy.
    #[test]
    fn line_traffic_scales_with_cache_line_bytes() {
        let m = EnergyModel::default();
        let mut s = stats_with(10_000, 40_000, 36_000);
        s.crop_cache.misses = 300;
        s.crop_cache.writebacks = 100;
        s.z_cache.misses = 50;
        let at = |line: usize| {
            let cfg = GpuConfig {
                cache_line_bytes: line,
                ..GpuConfig::default()
            };
            m.draw_energy_nj(&cfg, &s)
        };
        let traffic_nj_128 = 450.0 * 128.0 * (m.l2_byte_nj + 0.3 * m.dram_byte_nj);
        assert!((at(128) - at(64) - traffic_nj_128 / 2.0).abs() < 1e-6);
        assert!(at(64) < at(128));
    }

    #[test]
    fn efficiency_of_identical_stats_is_one() {
        let m = EnergyModel::default();
        let cfg = GpuConfig::default();
        let s = stats_with(10_000, 40_000, 36_000);
        assert!((m.efficiency(&cfg, &s, &s) - 1.0).abs() < 1e-12);
    }
}
