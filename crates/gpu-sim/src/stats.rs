//! Pipeline statistics: work counters per unit, cache behaviour, timing and
//! utilisation — everything Figs. 6, 16, 18 and 23 are computed from.

use serde::{Deserialize, Serialize};

/// Hardware units tracked for utilisation (Fig. 6 reports PROP, CROP,
/// Raster Engine and SM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Unit {
    /// Vertex processing and operations (assembly, tile identification).
    Vpo,
    /// Tile-grid coalescing unit (VR-Pipe extension; pass-through off).
    Tgc,
    /// Raster engine (setup + coarse + fine raster).
    Raster,
    /// Tile coalescing unit.
    Tc,
    /// Depth/stencil ROP — hosts the early-termination test/update.
    Zrop,
    /// Pre-ROP: quad ordering and (VR-Pipe) the quad reorder unit.
    Prop,
    /// Programmable shader cores.
    Sm,
    /// Color ROP: blending.
    Crop,
    /// L2 bandwidth (consumed by ROP-cache misses).
    L2,
    /// DRAM bandwidth.
    Dram,
}

/// All units in pipeline order.
pub const ALL_UNITS: [Unit; 10] = [
    Unit::Vpo,
    Unit::Tgc,
    Unit::Raster,
    Unit::Tc,
    Unit::Zrop,
    Unit::Prop,
    Unit::Sm,
    Unit::Crop,
    Unit::L2,
    Unit::Dram,
];

impl Unit {
    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Vpo => "VPO",
            Unit::Tgc => "TGC",
            Unit::Raster => "Raster Engine",
            Unit::Tc => "TC",
            Unit::Zrop => "ZROP",
            Unit::Prop => "PROP",
            Unit::Sm => "SM",
            Unit::Crop => "CROP",
            Unit::L2 => "L2",
            Unit::Dram => "DRAM",
        }
    }

    /// Index into dense per-unit arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Unit::Vpo => 0,
            Unit::Tgc => 1,
            Unit::Raster => 2,
            Unit::Tc => 3,
            Unit::Zrop => 4,
            Unit::Prop => 5,
            Unit::Sm => 6,
            Unit::Crop => 7,
            Unit::L2 => 8,
            Unit::Dram => 9,
        }
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (line fill from the next level).
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Complete statistics of one simulated draw call.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    // ---- work counters ----
    /// Primitives submitted (visible splats).
    pub primitives: u64,
    /// Primitives culled at triangle setup because their OBB axes are
    /// singular (zero-area splats the hardware would reject); counted, not
    /// silently dropped, so degenerate inputs stay observable.
    pub degenerate_prims: u64,
    /// Primitive-to-tile-grid insertions performed by the TGC unit.
    pub tgc_insertions: u64,
    /// TGC bin flushes.
    pub tgc_flushes: u64,
    /// TGC flushes forced by capacity eviction (bin pressure), a subset of
    /// `tgc_flushes`.
    pub tgc_evictions: u64,
    /// Raster-tile (8×8) visits in coarse raster.
    pub coarse_tiles: u64,
    /// Quads emitted by fine raster.
    pub raster_quads: u64,
    /// Fragments covered by raster quads.
    pub raster_fragments: u64,
    /// Quad insertions into TC bins.
    pub tc_insertions: u64,
    /// TC bin flushes.
    pub tc_flushes: u64,
    /// TC flushes forced by bin-table pressure (oldest-bin eviction).
    pub tc_evictions: u64,
    /// Quads tested by the ZROP early-termination test (HET only).
    pub zrop_term_tests: u64,
    /// Quads discarded by the termination test (all covered pixels
    /// terminated).
    pub zrop_term_discards: u64,
    /// Fragments discarded by the termination test.
    pub zrop_term_discarded_fragments: u64,
    /// Termination-bit update requests sent by the alpha test unit.
    pub term_updates: u64,
    /// Warps launched for fragment shading.
    pub warps_launched: u64,
    /// Quad slots occupied across launched warps (≤ 8 × warps).
    pub warp_quad_slots_used: u64,
    /// Fragments shaded (alpha evaluated) in the SMs.
    pub shaded_fragments: u64,
    /// Fragments killed by alpha pruning (α < 1/255).
    pub alpha_pruned_fragments: u64,
    /// Quad pairs merged in the shader (QM only).
    pub merged_pairs: u64,
    /// Quads blended by CROP.
    pub crop_quads: u64,
    /// Fragments blended by CROP.
    pub crop_fragments: u64,
    /// Quads dropped before CROP because no fragment survived.
    pub dead_quads: u64,
    /// Screen tiles whose every pixel crossed the termination threshold
    /// during the draw (HET variants; the tile-granularity transmittance
    /// saturation the fast path exploits).
    pub retired_tiles: u64,
    /// TC flushes of retired tiles discarded wholesale by the tile flag
    /// (HET variants with `GpuConfig::kernel = Soa` only): one ZROP tile-flag read
    /// replaces the flush's per-quad stencil-line tests.
    pub retired_tile_skips: u64,

    // ---- caches ----
    /// CROP color-cache behaviour.
    pub crop_cache: CacheStats,
    /// Z-cache (stencil) behaviour.
    pub z_cache: CacheStats,

    // ---- timing (filled by the timing engine) ----
    /// Total draw-call cycles.
    pub total_cycles: u64,
    /// Busy cycles per unit (indexed by [`Unit::index`]).
    pub busy_cycles: [u64; 10],
}

impl PipelineStats {
    /// Utilisation of `unit` in `[0, 1]` (Fig. 6's metric:
    /// measured throughput / max throughput = busy / total).
    pub fn utilization(&self, unit: Unit) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles[unit.index()] as f64 / self.total_cycles as f64
        }
    }

    /// The most-utilised unit — the pipeline bottleneck.
    pub fn bottleneck(&self) -> Unit {
        *ALL_UNITS
            .iter()
            .max_by(|a, b| {
                self.utilization(**a)
                    .partial_cmp(&self.utilization(**b))
                    .unwrap()
            })
            .expect("ALL_UNITS is non-empty")
    }

    /// Average warp occupancy: fraction of warp quad slots holding a quad.
    pub fn warp_occupancy(&self) -> f64 {
        if self.warps_launched == 0 {
            0.0
        } else {
            self.warp_quad_slots_used as f64 / (self.warps_launched * 8) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_indices_are_dense_and_unique() {
        let mut seen = [false; 10];
        for u in ALL_UNITS {
            assert!(!seen[u.index()], "duplicate index for {:?}", u);
            seen[u.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cache_hit_rate() {
        let c = CacheStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn utilization_and_bottleneck() {
        let mut s = PipelineStats {
            total_cycles: 1000,
            ..PipelineStats::default()
        };
        s.busy_cycles[Unit::Crop.index()] = 900;
        s.busy_cycles[Unit::Sm.index()] = 300;
        assert!((s.utilization(Unit::Crop) - 0.9).abs() < 1e-12);
        assert_eq!(s.bottleneck(), Unit::Crop);
    }

    #[test]
    fn warp_occupancy_bounds() {
        let mut s = PipelineStats::default();
        assert_eq!(s.warp_occupancy(), 0.0);
        s.warps_launched = 10;
        s.warp_quad_slots_used = 40;
        assert!((s.warp_occupancy() - 0.5).abs() < 1e-12);
    }
}
