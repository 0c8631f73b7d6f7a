//! Structure-of-arrays splat streams — the layout the software
//! renderers' fragment kernels read (`swrender`'s CUDA-style, multi-pass
//! and in-shader models).
//!
//! The AoS [`Splat`] is 64 bytes, but the per-fragment hot loop of a
//! software renderer touches only a handful of its fields (center,
//! conic, opacity, color). [`SplatStream`] stores each field in its own
//! contiguous `f32` slice so the fragment kernel becomes a branch-light
//! loop over flat slices the compiler can autovectorize, and so a
//! splat's scalar parameters load as broadcast-friendly values instead
//! of a strided gather. The simulated pipeline does not use it: its
//! quads look a splat up by index, and one `Splat` is one cache line.
//!
//! The stream is a *lossless* re-layout: [`SplatStream::push`] copies every
//! field bit-for-bit and [`SplatStream::get`] reconstructs the identical
//! [`Splat`] (verified by a round-trip property test). The kernels built
//! on it execute the same `f32` operations in the same per-pixel order as
//! the scalar AoS reference kernels the tests keep, so images are bit-exact
//! by construction (DESIGN.md §5).
//!
//! On top of the stream sit the two tile-retirement primitives of the
//! fast path (paper §V-B at tile granularity, GSCore-style shape-aware
//! culling on the bound side):
//!
//! * [`tile_alpha_bound`] — a conservative upper bound on a splat's alpha
//!   anywhere inside a pixel rectangle. When the bound is below the
//!   alpha-prune threshold, every fragment of that splat in the tile is
//!   pruned, so the whole tile visit can be skipped without touching a
//!   pixel.
//! * [`TileBitset`] — a retired-tile bitset. Parallel band workers own
//!   disjoint word ranges of it, so marking and testing dead tiles needs
//!   no synchronization.

use serde::{Deserialize, Serialize};

use crate::math::{Vec2, Vec3};
use crate::splat::Splat;

/// The value of `gpu_sim::config::GpuConfig::kernel`.
///
/// It does not pick host code: every renderer runs one fragment kernel.
/// Its one effect is in the simulated pipeline: on HET variants, `Soa`
/// turns on the simulated tile-granularity retirement check (a retired
/// tile's TC flushes are discarded on one ZROP tile-flag read). The type and its variant names stay because
/// `GpuConfig` and the benchmark name them; replacing the field with an
/// explicit hardware flag is a benchmark change.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FragmentKernel {
    /// Per-quad ZROP termination tests only.
    #[default]
    Scalar,
    /// Adds the tile-granularity retirement check on HET variants.
    Soa,
}

impl FragmentKernel {
    /// Label used in figures and bench output.
    pub fn label(self) -> &'static str {
        match self {
            FragmentKernel::Scalar => "scalar",
            FragmentKernel::Soa => "soa",
        }
    }

    /// Both values, the default first.
    pub const ALL: [FragmentKernel; 2] = [FragmentKernel::Scalar, FragmentKernel::Soa];
}

/// Structure-of-arrays layout of a depth-sorted splat list.
///
/// Field arrays always have identical lengths; index `i` across all of
/// them reconstructs the `i`-th [`Splat`] exactly.
///
/// # Examples
///
/// ```
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES, stream::SplatStream};
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let pre = preprocess(&scene, &scene.default_camera());
/// let stream = SplatStream::from_splats(&pre.splats);
/// assert_eq!(stream.len(), pre.splats.len());
/// assert_eq!(stream.get(0), pre.splats[0]); // lossless round-trip
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SplatStream {
    center_x: Vec<f32>,
    center_y: Vec<f32>,
    depth: Vec<f32>,
    conic_a: Vec<f32>,
    conic_b: Vec<f32>,
    conic_c: Vec<f32>,
    axis_major_x: Vec<f32>,
    axis_major_y: Vec<f32>,
    axis_minor_x: Vec<f32>,
    axis_minor_y: Vec<f32>,
    color_r: Vec<f32>,
    color_g: Vec<f32>,
    color_b: Vec<f32>,
    opacity: Vec<f32>,
    source: Vec<u32>,
}

macro_rules! slice_accessors {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&self) -> &[f32] {
            &self.$name
        }
    )+};
}

impl SplatStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a stream from an AoS splat slice.
    pub fn from_splats(splats: &[Splat]) -> Self {
        let mut s = Self::new();
        s.rebuild_from(splats);
        s
    }

    /// Number of splats in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.center_x.len()
    }

    /// `true` when the stream holds no splats.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.center_x.is_empty()
    }

    /// Clears the stream, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.center_x.clear();
        self.center_y.clear();
        self.depth.clear();
        self.conic_a.clear();
        self.conic_b.clear();
        self.conic_c.clear();
        self.axis_major_x.clear();
        self.axis_major_y.clear();
        self.axis_minor_x.clear();
        self.axis_minor_y.clear();
        self.color_r.clear();
        self.color_g.clear();
        self.color_b.clear();
        self.opacity.clear();
        self.source.clear();
    }

    /// Reserves capacity for `extra` additional splats in every array.
    pub fn reserve(&mut self, extra: usize) {
        self.center_x.reserve(extra);
        self.center_y.reserve(extra);
        self.depth.reserve(extra);
        self.conic_a.reserve(extra);
        self.conic_b.reserve(extra);
        self.conic_c.reserve(extra);
        self.axis_major_x.reserve(extra);
        self.axis_major_y.reserve(extra);
        self.axis_minor_x.reserve(extra);
        self.axis_minor_y.reserve(extra);
        self.color_r.reserve(extra);
        self.color_g.reserve(extra);
        self.color_b.reserve(extra);
        self.opacity.reserve(extra);
        self.source.reserve(extra);
    }

    /// Appends one splat, copying every field bit-for-bit.
    pub fn push(&mut self, s: &Splat) {
        self.center_x.push(s.center.x);
        self.center_y.push(s.center.y);
        self.depth.push(s.depth);
        self.conic_a.push(s.conic.0);
        self.conic_b.push(s.conic.1);
        self.conic_c.push(s.conic.2);
        self.axis_major_x.push(s.axis_major.x);
        self.axis_major_y.push(s.axis_major.y);
        self.axis_minor_x.push(s.axis_minor.x);
        self.axis_minor_y.push(s.axis_minor.y);
        self.color_r.push(s.color.x);
        self.color_g.push(s.color.y);
        self.color_b.push(s.color.z);
        self.opacity.push(s.opacity);
        self.source.push(s.source);
    }

    /// Clears and refills the stream from an AoS slice — the zero-steady-
    /// state-allocation frame-loop entry point.
    pub fn rebuild_from(&mut self, splats: &[Splat]) {
        self.clear();
        self.reserve(splats.len());
        for s in splats {
            self.push(s);
        }
    }

    /// Reconstructs the `i`-th splat (the exact value pushed).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn get(&self, i: usize) -> Splat {
        Splat {
            center: Vec2::new(self.center_x[i], self.center_y[i]),
            depth: self.depth[i],
            conic: (self.conic_a[i], self.conic_b[i], self.conic_c[i]),
            axis_major: Vec2::new(self.axis_major_x[i], self.axis_major_y[i]),
            axis_minor: Vec2::new(self.axis_minor_x[i], self.axis_minor_y[i]),
            color: Vec3::new(self.color_r[i], self.color_g[i], self.color_b[i]),
            opacity: self.opacity[i],
            source: self.source[i],
        }
    }

    /// Conic `(a, b, c)` of splat `i`.
    #[inline]
    pub fn conic(&self, i: usize) -> (f32, f32, f32) {
        (self.conic_a[i], self.conic_b[i], self.conic_c[i])
    }

    /// View-dependent RGB color of splat `i`.
    #[inline]
    pub fn color(&self, i: usize) -> Vec3 {
        Vec3::new(self.color_r[i], self.color_g[i], self.color_b[i])
    }

    /// OBB semi-axes `(major, minor)` of splat `i`.
    #[inline]
    pub fn axes(&self, i: usize) -> (Vec2, Vec2) {
        (
            Vec2::new(self.axis_major_x[i], self.axis_major_y[i]),
            Vec2::new(self.axis_minor_x[i], self.axis_minor_y[i]),
        )
    }

    slice_accessors! {
        /// Center x coordinates.
        center_x,
        /// Center y coordinates.
        center_y,
        /// Camera-space depths (sort keys).
        depth,
        /// Conic `a` coefficients.
        conic_a,
        /// Conic `b` coefficients.
        conic_b,
        /// Conic `c` coefficients.
        conic_c,
        /// Major OBB semi-axis x components.
        axis_major_x,
        /// Major OBB semi-axis y components.
        axis_major_y,
        /// Minor OBB semi-axis x components.
        axis_minor_x,
        /// Minor OBB semi-axis y components.
        axis_minor_y,
        /// Straight-alpha red channels.
        color_r,
        /// Straight-alpha green channels.
        color_g,
        /// Straight-alpha blue channels.
        color_b,
        /// Peak opacities.
        opacity,
    }

    /// Source Gaussian indices.
    #[inline]
    pub fn source(&self) -> &[u32] {
        &self.source
    }
}

/// Smallest eigenvalue of the symmetric conic matrix `[[a, b], [b, c]]`.
///
/// The conic is the inverse 2D covariance; its smallest eigenvalue is the
/// slowest-decay direction of the Gaussian, which is what a conservative
/// falloff bound must use.
#[inline]
pub fn conic_min_eigenvalue(conic: (f32, f32, f32)) -> f32 {
    let (a, b, c) = conic;
    let half_trace = 0.5 * (a + c);
    let det_term = 0.5 * ((a - c) * (a - c) + 4.0 * b * b).max(0.0).sqrt();
    half_trace - det_term
}

/// Conservative upper bound on `opacity × falloff` anywhere inside the
/// pixel-center rectangle `[min.0, max.0] × [min.1, max.1]`.
///
/// Derivation (DESIGN.md §5): the falloff is `exp(-½ dᵀ Q d)` with `Q`
/// the conic. For any offset `d`, `dᵀ Q d ≥ λ_min |d|²` where `λ_min` is
/// [`conic_min_eigenvalue`]. The smallest `|d|` over the rectangle is the
/// distance from the splat center to its clamped-closest point, so
///
/// ```text
/// α(p) ≤ opacity · exp(-½ λ_min · dist(center, rect)²)   for all p ∈ rect
/// ```
///
/// For a center inside the rectangle or a non-positive-definite conic the
/// bound degenerates to `opacity` (still correct: falloff ≤ 1, and the
/// product `opacity × falloff` rounds to at most `opacity`). A whole
/// tile visit is skippable when the bound is below
/// [`crate::blend::ALPHA_PRUNE_THRESHOLD`] — every fragment would be
/// alpha-pruned, so images are unchanged bit-for-bit.
///
/// The derivation above is exact in real arithmetic, but this function
/// and the oracle's `fragment_alpha` associate their `f32` operations
/// differently, so in the zero-geometric-margin case (the clamped-closest
/// point landing exactly on a pixel center of an isotropic conic) the two
/// can differ by a few ulps in either direction. The eigenvalue path
/// therefore inflates its result by [`BOUND_SAFETY`] before returning —
/// far more than the worst-case accumulated rounding of the ~10
/// operations involved — so the returned value dominates every
/// `fragment_alpha` the oracle can compute, in `f32`, not just in exact
/// arithmetic.
#[inline]
pub fn tile_alpha_bound(
    conic: (f32, f32, f32),
    opacity: f32,
    center: Vec2,
    min: (f32, f32),
    max: (f32, f32),
) -> f32 {
    // Clamped-closest point of the rectangle to the center.
    let cx = center.x.clamp(min.0, max.0);
    let cy = center.y.clamp(min.1, max.1);
    let dx = center.x - cx;
    let dy = center.y - cy;
    let d2 = dx * dx + dy * dy;
    if d2 <= 0.0 {
        return opacity;
    }
    let lam = conic_min_eigenvalue(conic);
    if lam <= 0.0 {
        return opacity;
    }
    opacity * (-0.5 * lam * d2).exp() * BOUND_SAFETY
}

/// Multiplicative headroom applied by [`tile_alpha_bound`]'s eigenvalue
/// path to absorb `f32` rounding differences against the scalar oracle
/// (`f32` ulp is ~1.2e-7; 1e-4 covers hundreds of them).
pub const BOUND_SAFETY: f32 = 1.0 + 1e-4;

/// Sets bit `i` in a flat word slice — the primitive shared by
/// [`TileBitset`] and the band-sliced retired-word rows of the parallel
/// renderers (each band owns a disjoint word range, so concurrent use
/// needs no atomics).
#[inline]
pub fn set_word_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Reads bit `i` from a flat word slice (see [`set_word_bit`]).
#[inline]
pub fn get_word_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// A flat bitset over tile indices, used as the retired-tile mask.
///
/// Band-parallel renderers hand each band a disjoint word range (one
/// tile row per band, with whole words per row), so concurrent marking
/// needs no atomics: ownership is positional, exactly like the band's
/// pixel rows.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TileBitset {
    words: Vec<u64>,
    bits: usize,
}

impl TileBitset {
    /// Words needed to hold `bits` bits.
    #[inline]
    pub fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// An empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and resizes to `bits` zeroed bits, reusing the allocation.
    pub fn reset(&mut self, bits: usize) {
        self.bits = bits;
        self.words.clear();
        self.words.resize(Self::words_for(bits), 0);
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// `true` when the bitset addresses no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "bit {i} out of range ({})", self.bits);
        set_word_bit(&mut self.words, i);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range ({})", self.bits);
        get_word_bit(&self.words, i)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blend::{gaussian_falloff, ALPHA_PRUNE_THRESHOLD};

    fn sample_splat(i: u32) -> Splat {
        let f = i as f32;
        Splat {
            center: Vec2::new(10.0 + f, 20.0 - f * 0.5),
            depth: 1.0 + f,
            conic: (0.5 + f * 0.01, 0.02 * f, 0.4 + f * 0.02),
            axis_major: Vec2::new(3.0 + f, 0.5),
            axis_minor: Vec2::new(-0.5, 2.0 + f),
            color: Vec3::new(0.1 * f, 0.5, 1.0 - 0.05 * f),
            opacity: 0.3 + 0.05 * f,
            source: i,
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let splats: Vec<Splat> = (0..17).map(sample_splat).collect();
        let stream = SplatStream::from_splats(&splats);
        assert_eq!(stream.len(), splats.len());
        for (i, s) in splats.iter().enumerate() {
            assert_eq!(stream.get(i), *s);
        }
    }

    #[test]
    fn rebuild_reuses_and_resets() {
        let mut stream = SplatStream::new();
        stream.rebuild_from(&(0..9).map(sample_splat).collect::<Vec<_>>());
        assert_eq!(stream.len(), 9);
        let two: Vec<Splat> = (3..5).map(sample_splat).collect();
        stream.rebuild_from(&two);
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.get(0), two[0]);
        assert_eq!(stream.get(1), two[1]);
    }

    #[test]
    fn min_eigenvalue_of_diagonal_conic() {
        assert!((conic_min_eigenvalue((2.0, 0.0, 3.0)) - 2.0).abs() < 1e-6);
        assert!((conic_min_eigenvalue((3.0, 0.0, 2.0)) - 2.0).abs() < 1e-6);
        // Rank-deficient conic has a zero eigenvalue.
        assert!(conic_min_eigenvalue((1.0, 1.0, 1.0)).abs() < 1e-6);
    }

    #[test]
    fn alpha_bound_is_conservative_over_rect() {
        // Sample the true falloff over a rect far from the center and
        // check the bound dominates every sample.
        let conic = (0.3, 0.1, 0.5);
        let opacity = 0.9;
        let center = Vec2::new(0.0, 0.0);
        let (min, max) = ((12.5, 4.5), (27.5, 19.5));
        let bound = tile_alpha_bound(conic, opacity, center, min, max);
        for yi in 0..=30 {
            for xi in 0..=30 {
                let x = min.0 + (max.0 - min.0) * xi as f32 / 30.0;
                let y = min.1 + (max.1 - min.1) * yi as f32 / 30.0;
                let alpha = opacity * gaussian_falloff(conic, x - center.x, y - center.y);
                assert!(
                    alpha <= bound + 1e-7,
                    "bound {bound} violated by alpha {alpha} at ({x},{y})"
                );
            }
        }
        // Far enough away, the bound drops below the prune threshold.
        assert!(bound < ALPHA_PRUNE_THRESHOLD * 4.0);
    }

    #[test]
    fn alpha_bound_degenerates_to_opacity() {
        let center = Vec2::new(5.0, 5.0);
        // Center inside the rect.
        let b = tile_alpha_bound((1.0, 0.0, 1.0), 0.7, center, (0.0, 0.0), (10.0, 10.0));
        assert_eq!(b, 0.7);
        // Invalid (non-PSD) conic outside the rect.
        let b = tile_alpha_bound((-1.0, 0.0, -1.0), 0.7, center, (20.0, 20.0), (30.0, 30.0));
        assert_eq!(b, 0.7);
    }

    #[test]
    fn bitset_set_get_count() {
        let mut b = TileBitset::new();
        b.reset(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        b.reset(10);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn kernel_labels() {
        assert_eq!(FragmentKernel::Scalar.label(), "scalar");
        assert_eq!(FragmentKernel::Soa.label(), "soa");
        assert_eq!(FragmentKernel::default(), FragmentKernel::Scalar);
    }
}
