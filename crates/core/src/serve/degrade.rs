//! The deterministic quality ladder: graceful degradation for overloaded
//! streams.
//!
//! PR 6's serve layer answers overload with two blunt tools — drop the
//! frame or evict the stream. This module adds the middle path: a
//! [`QualityLadder`] of derived render configurations ("rungs") that trade
//! *quality* for *latency* in provable, replayable steps, so a load spike
//! degrades what a viewer sees before it degrades whether they see
//! anything at all.
//!
//! A [`QualityRung`] derives a [`SequenceConfig`] from the stream's base
//! configuration along two axes:
//!
//! * **resolution** — `width`/`height` halved per [`QualityRung::res_shift`]
//!   step (1 → ½ → ¼ …), the dominant cost lever;
//! * **SH degree** — [`QualityRung::max_sh_degree`] caps view-dependent
//!   color evaluation (`preprocess` clamps bit-exactly to a truncated
//!   scene, see [`gsplat::sh::ShColor::evaluate_clamped`]).
//!
//! The contract that makes degradation *deterministic* rather than lossy:
//! a rung is a complete render configuration, and frame `i` rendered at
//! rung `r` is **bit-exact** with frame `i` of a solo session configured
//! at rung `r` from the start. That holds because frame bits are a pure
//! function of `(scene, camera, gpu, variant)` — the camera is derived
//! from `(cfg, i)` alone, and the session's temporal machinery
//! (warm-started sort, covariance replay) is bit-exact regardless of what
//! was rendered before (DESIGN.md §12). The scheduler only switches rungs
//! *between* dispatches, never mid-frame, so every produced frame has
//! exactly one rung, recorded in
//! [`StreamReport::rungs`](crate::serve::StreamReport::rungs).
//!
//! Stepping is governed by hysteresis ([`QualityLadder::down_after`]
//! consecutive deadline misses step down, [`QualityLadder::up_after`]
//! consecutive on-time frames step up) plus the server-level brownout
//! detector ([`Server::with_brownout`](crate::serve::Server::with_brownout)),
//! which sheds aggregate lateness by stepping down streams in priority
//! order before the watchdog has to evict anyone.

use gsplat::sh::MAX_SH_DEGREE;

use crate::sequence::SequenceConfig;

/// One rung of the quality ladder: a recipe for deriving a cheaper (or
/// the full-quality) render configuration from a stream's base
/// [`SequenceConfig`].
///
/// # Examples
///
/// ```
/// use vrpipe::serve::degrade::QualityRung;
/// let full = QualityRung::full();
/// assert_eq!(full.res_shift, 0);
/// let quarter = QualityRung::new(2, 1);
/// assert_eq!(quarter.res_shift, 2);
/// assert_eq!(quarter.max_sh_degree, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityRung {
    /// Binary resolution shift: derived `width = max(base >> shift, 1)`,
    /// same for height. 0 = full resolution, 1 = half, 2 = quarter.
    pub res_shift: u8,
    /// SH evaluation degree cap for this rung
    /// ([`SequenceConfig::max_sh_degree`]).
    pub max_sh_degree: u8,
}

impl QualityRung {
    /// The full-quality rung: no resolution shift, no SH clamp. Every
    /// ladder's rung 0.
    pub const fn full() -> Self {
        Self {
            res_shift: 0,
            max_sh_degree: MAX_SH_DEGREE,
        }
    }

    /// A degraded rung: halve resolution `res_shift` times and cap SH
    /// evaluation at `max_sh_degree`.
    pub const fn new(res_shift: u8, max_sh_degree: u8) -> Self {
        Self {
            res_shift,
            max_sh_degree,
        }
    }

    /// Derives the complete render configuration for this rung from a
    /// stream's base configuration, tagging it with `rung` so every frame
    /// record carries its provenance. Deriving with [`QualityRung::full`]
    /// at rung 0 reproduces `base` exactly.
    pub fn derive(&self, base: &SequenceConfig, rung: u8) -> SequenceConfig {
        let mut cfg = base.clone();
        cfg.width = (base.width >> self.res_shift.min(31)).max(1);
        cfg.height = (base.height >> self.res_shift.min(31)).max(1);
        cfg.max_sh_degree = base.max_sh_degree.min(self.max_sh_degree);
        cfg.rung = rung;
        cfg
    }

    /// The rung's render-cost factor relative to the base configuration:
    /// the derived-to-base pixel ratio, in `(0, 1]`. This is what scales a
    /// [`FaultKind::Load`](crate::serve::faults::FaultKind::Load)
    /// injection — degrading genuinely sheds that fraction of the work.
    pub fn cost_scale(&self, base: &SequenceConfig) -> f64 {
        let base_px = (base.width.max(1) as f64) * (base.height.max(1) as f64);
        let d = self.derive(base, 0);
        let rung_px = (d.width as f64) * (d.height as f64);
        (rung_px / base_px).clamp(0.0, 1.0)
    }
}

impl Default for QualityRung {
    fn default() -> Self {
        Self::full()
    }
}

/// An ordered list of [`QualityRung`]s (rung 0 = full quality, ascending
/// = cheaper) plus the hysteresis constants that govern stepping.
///
/// # Examples
///
/// ```
/// use vrpipe::serve::degrade::{QualityLadder, QualityRung};
/// let ladder = QualityLadder::standard();
/// assert_eq!(ladder.len(), 3);
/// assert_eq!(ladder.rungs()[0], QualityRung::full());
/// let custom = QualityLadder::new()
///     .with_rung(QualityRung::new(1, 2))
///     .with_hysteresis(2, 4);
/// assert_eq!(custom.len(), 2);
/// assert_eq!(custom.down_after(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityLadder {
    rungs: Vec<QualityRung>,
    down_after: u32,
    up_after: u32,
}

impl QualityLadder {
    /// The trivial ladder: only the full-quality rung, i.e. no
    /// degradation headroom. Default hysteresis: 2 consecutive misses
    /// step down, 3 consecutive on-time frames step up.
    pub fn new() -> Self {
        Self {
            rungs: vec![QualityRung::full()],
            down_after: 2,
            up_after: 3,
        }
    }

    /// The canonical three-rung ladder the paper-style serving experiments
    /// use: full quality, half resolution at SH ≤ 2, quarter resolution at
    /// SH ≤ 1.
    pub fn standard() -> Self {
        Self::new()
            .with_rung(QualityRung::new(1, 2))
            .with_rung(QualityRung::new(2, 1))
    }

    /// Appends a (typically cheaper) rung below the current bottom.
    #[must_use]
    pub fn with_rung(mut self, rung: QualityRung) -> Self {
        self.rungs.push(rung);
        self
    }

    /// Sets the hysteresis constants: `down_after` consecutive deadline
    /// misses step down one rung, `up_after` consecutive on-time frames
    /// step up one rung. Both are clamped to at least 1.
    #[must_use]
    pub fn with_hysteresis(mut self, down_after: u32, up_after: u32) -> Self {
        self.down_after = down_after.max(1);
        self.up_after = up_after.max(1);
        self
    }

    /// The rungs, full quality first.
    pub fn rungs(&self) -> &[QualityRung] {
        &self.rungs
    }

    /// Number of rungs (always ≥ 1).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// `true` when the ladder has no degradation headroom (one rung).
    pub fn is_empty(&self) -> bool {
        self.rungs.len() <= 1
    }

    /// Consecutive deadline misses required to step down.
    pub fn down_after(&self) -> u32 {
        self.down_after
    }

    /// Consecutive on-time frames required to step up.
    pub fn up_after(&self) -> u32 {
        self.up_after
    }

    /// Derives the per-rung render configurations for `base`, in rung
    /// order — what the scheduler dispatches from.
    pub fn derive_all(&self, base: &SequenceConfig) -> Vec<SequenceConfig> {
        self.rungs
            .iter()
            .enumerate()
            .map(|(i, r)| r.derive(base, i as u8))
            .collect()
    }

    /// The per-rung render-cost factors for `base` (see
    /// [`QualityRung::cost_scale`]).
    pub fn cost_scales(&self, base: &SequenceConfig) -> Vec<f64> {
        self.rungs.iter().map(|r| r.cost_scale(base)).collect()
    }
}

impl Default for QualityLadder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::camera::CameraPath;
    use gsplat::math::Vec3;

    fn base_cfg() -> SequenceConfig {
        SequenceConfig::new(CameraPath::orbit(Vec3::ZERO, 4.0, 1.5, 0.25), 8, 64, 48)
    }

    #[test]
    fn rung_zero_derivation_is_identity_except_tag() {
        let base = base_cfg();
        let derived = QualityRung::full().derive(&base, 0);
        assert_eq!(derived, base);
    }

    #[test]
    fn derivation_halves_resolution_and_clamps_sh() {
        let base = base_cfg();
        let d = QualityRung::new(1, 2).derive(&base, 1);
        assert_eq!((d.width, d.height), (32, 24));
        assert_eq!(d.max_sh_degree, 2);
        assert_eq!(d.rung, 1);
        let q = QualityRung::new(2, 0).derive(&base, 2);
        assert_eq!((q.width, q.height), (16, 12));
        assert_eq!(q.max_sh_degree, 0);
        // Extreme shifts floor at one pixel instead of vanishing.
        let tiny = QualityRung::new(40, 3).derive(&base, 3);
        assert_eq!((tiny.width, tiny.height), (1, 1));
    }

    #[test]
    fn cost_scale_tracks_pixel_ratio() {
        let base = base_cfg();
        assert_eq!(QualityRung::full().cost_scale(&base), 1.0);
        assert_eq!(QualityRung::new(1, 3).cost_scale(&base), 0.25);
        assert_eq!(QualityRung::new(2, 3).cost_scale(&base), 0.0625);
    }

    #[test]
    fn ladder_builders_and_hysteresis_clamp() {
        let ladder = QualityLadder::standard().with_hysteresis(0, 0);
        assert_eq!(ladder.down_after(), 1);
        assert_eq!(ladder.up_after(), 1);
        assert_eq!(ladder.len(), 3);
        assert!(!ladder.is_empty());
        assert!(QualityLadder::new().is_empty());
        let cfgs = ladder.derive_all(&base_cfg());
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].rung, 0);
        assert_eq!(cfgs[2].rung, 2);
        assert_eq!(cfgs[2].width, 16);
        let scales = ladder.cost_scales(&base_cfg());
        assert_eq!(scales, vec![1.0, 0.25, 0.0625]);
    }
}
