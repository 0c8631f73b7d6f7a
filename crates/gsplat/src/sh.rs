//! Spherical-harmonics color evaluation for view-dependent Gaussian colors.
//!
//! 3DGS stores per-Gaussian SH coefficients up to degree 3 (16 coefficients
//! per color channel) and evaluates them along the viewing direction during
//! preprocessing. We implement the same real SH basis and evaluation as the
//! reference renderer, including the `+0.5` offset and clamp to zero.

use serde::{Deserialize, Serialize};

use crate::math::Vec3;

/// SH band-0 normalization constant `1/(2√π)`.
pub const SH_C0: f32 = 0.282_094_79;
const SH_C1: f32 = 0.488_602_51;
const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];
const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Maximum supported SH degree.
pub const MAX_SH_DEGREE: u8 = 3;

/// Number of SH coefficients for a given degree: `(d+1)²`.
///
/// # Examples
///
/// ```
/// assert_eq!(gsplat::sh::coeff_count(3), 16);
/// ```
#[inline]
pub const fn coeff_count(degree: u8) -> usize {
    ((degree as usize) + 1) * ((degree as usize) + 1)
}

/// Per-Gaussian view-dependent color as SH coefficients (RGB per basis
/// function, up to degree 3).
///
/// # Examples
///
/// ```
/// use gsplat::sh::ShColor;
/// use gsplat::math::Vec3;
/// let sh = ShColor::from_base_color(Vec3::new(1.0, 0.0, 0.0));
/// let c = sh.evaluate(Vec3::new(0.0, 0.0, 1.0));
/// assert!((c.x - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShColor {
    degree: u8,
    /// `coeffs[i]` is the RGB coefficient of the i-th basis function.
    coeffs: Vec<Vec3>,
}

impl ShColor {
    /// Creates SH color from explicit coefficients.
    ///
    /// # Panics
    ///
    /// Panics when `coeffs.len()` is not `(degree+1)²` or `degree > 3`.
    pub fn new(degree: u8, coeffs: Vec<Vec3>) -> Self {
        assert!(
            degree <= MAX_SH_DEGREE,
            "SH degree {degree} > 3 unsupported"
        );
        assert_eq!(
            coeffs.len(),
            coeff_count(degree),
            "expected (degree+1)^2 coefficients"
        );
        Self { degree, coeffs }
    }

    /// Degree-0 (view-independent) color: the DC coefficient is set so that
    /// evaluation returns exactly `rgb` from every direction.
    pub fn from_base_color(rgb: Vec3) -> Self {
        Self {
            degree: 0,
            coeffs: vec![(rgb - Vec3::splat(0.5)) / SH_C0],
        }
    }

    /// The SH degree stored.
    #[inline]
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// Immutable access to the coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[Vec3] {
        &self.coeffs
    }

    /// Mutable access to the coefficients (e.g. to add view-dependence).
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [Vec3] {
        &mut self.coeffs
    }

    /// Evaluates the SH color along (unnormalized) view direction `dir`,
    /// applying the reference renderer's `+0.5` offset and non-negativity
    /// clamp.
    pub fn evaluate(&self, dir: Vec3) -> Vec3 {
        self.evaluate_clamped(dir, MAX_SH_DEGREE)
    }

    /// Evaluates the SH color with the basis truncated to
    /// `min(self.degree, max_degree)`.
    ///
    /// The effective degree only gates which coefficient blocks are summed;
    /// the per-block float operations are identical to [`Self::evaluate`].
    /// Evaluating at clamp `d` is therefore bit-exact with evaluating a
    /// color whose coefficients were truncated to degree `d` up front —
    /// the quality-ladder contract the serving layer relies on.
    pub fn evaluate_clamped(&self, dir: Vec3, max_degree: u8) -> Vec3 {
        let deg = self.degree.min(max_degree);
        let d = dir.normalized();
        let mut c = self.coeffs[0] * SH_C0;
        if deg >= 1 {
            let (x, y, z) = (d.x, d.y, d.z);
            c += self.coeffs[1] * (-SH_C1 * y)
                + self.coeffs[2] * (SH_C1 * z)
                + self.coeffs[3] * (-SH_C1 * x);
            if deg >= 2 {
                let (xx, yy, zz) = (x * x, y * y, z * z);
                let (xy, yz, xz) = (x * y, y * z, x * z);
                c += self.coeffs[4] * (SH_C2[0] * xy)
                    + self.coeffs[5] * (SH_C2[1] * yz)
                    + self.coeffs[6] * (SH_C2[2] * (2.0 * zz - xx - yy))
                    + self.coeffs[7] * (SH_C2[3] * xz)
                    + self.coeffs[8] * (SH_C2[4] * (xx - yy));
                if deg >= 3 {
                    c += self.coeffs[9] * (SH_C3[0] * y * (3.0 * xx - yy))
                        + self.coeffs[10] * (SH_C3[1] * xy * z)
                        + self.coeffs[11] * (SH_C3[2] * y * (4.0 * zz - xx - yy))
                        + self.coeffs[12] * (SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy))
                        + self.coeffs[13] * (SH_C3[4] * x * (4.0 * zz - xx - yy))
                        + self.coeffs[14] * (SH_C3[5] * z * (xx - yy))
                        + self.coeffs[15] * (SH_C3[6] * x * (xx - 3.0 * yy));
                }
            }
        }
        (c + Vec3::splat(0.5)).max(Vec3::ZERO)
    }

    /// A copy truncated to `min(self.degree, degree)`: the retained
    /// coefficients are bit-identical, the higher bands dropped. Evaluating
    /// the truncation equals evaluating the original under the same clamp.
    pub fn truncated(&self, degree: u8) -> Self {
        let deg = self.degree.min(degree);
        Self {
            degree: deg,
            coeffs: self.coeffs[..coeff_count(deg)].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coeff_count_per_degree() {
        assert_eq!(coeff_count(0), 1);
        assert_eq!(coeff_count(1), 4);
        assert_eq!(coeff_count(2), 9);
        assert_eq!(coeff_count(3), 16);
    }

    #[test]
    fn base_color_is_view_independent() {
        let sh = ShColor::from_base_color(Vec3::new(0.2, 0.5, 0.9));
        for dir in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.5, 0.5, -0.7),
        ] {
            let c = sh.evaluate(dir);
            assert!((c - Vec3::new(0.2, 0.5, 0.9)).length() < 1e-5);
        }
    }

    #[test]
    fn degree1_varies_with_direction() {
        let mut coeffs = vec![Vec3::ZERO; 4];
        coeffs[0] = Vec3::splat(0.0);
        coeffs[2] = Vec3::new(1.0, 0.0, 0.0); // z-linear red band
        let sh = ShColor::new(1, coeffs);
        let up = sh.evaluate(Vec3::new(0.0, 0.0, 1.0));
        let down = sh.evaluate(Vec3::new(0.0, 0.0, -1.0));
        assert!(up.x > down.x);
    }

    #[test]
    fn evaluation_clamps_negative() {
        let sh = ShColor::from_base_color(Vec3::new(-5.0, 0.5, 0.5));
        let c = sh.evaluate(Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(c.x, 0.0);
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn wrong_coeff_count_panics() {
        let _ = ShColor::new(2, vec![Vec3::ZERO; 4]);
    }

    #[test]
    fn degree3_full_basis_evaluates_finite() {
        let coeffs: Vec<Vec3> = (0..16)
            .map(|i| Vec3::splat(0.05 * (i as f32 - 8.0)))
            .collect();
        let sh = ShColor::new(3, coeffs);
        let c = sh.evaluate(Vec3::new(0.3, -0.8, 0.52));
        assert!(c.is_finite());
        assert!(c.x >= 0.0 && c.y >= 0.0 && c.z >= 0.0);
    }

    fn bits(v: Vec3) -> [u32; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    fn degree3_fixture() -> ShColor {
        let coeffs: Vec<Vec3> = (0..16)
            .map(|i| Vec3::new(0.03 * i as f32, -0.02 * i as f32, 0.011 * (16 - i) as f32))
            .collect();
        ShColor::new(3, coeffs)
    }

    #[test]
    fn clamp_at_or_above_degree_is_identity() {
        let sh = degree3_fixture();
        let dir = Vec3::new(0.3, -0.8, 0.52);
        assert_eq!(sh.evaluate_clamped(dir, 3), sh.evaluate(dir));
        assert_eq!(sh.evaluate_clamped(dir, 7), sh.evaluate(dir));
    }

    #[test]
    fn clamped_eval_matches_truncated_coefficients_bit_exactly() {
        let sh = degree3_fixture();
        let dirs = [
            Vec3::new(0.3, -0.8, 0.52),
            Vec3::new(-1.0, 0.2, 0.1),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        for deg in 0..=3u8 {
            let cut = sh.truncated(deg);
            assert_eq!(cut.degree(), deg);
            for dir in dirs {
                let clamped = sh.evaluate_clamped(dir, deg);
                let direct = cut.evaluate(dir);
                assert_eq!(
                    bits(clamped),
                    bits(direct),
                    "degree clamp {deg} diverged from truncation"
                );
            }
        }
    }

    #[test]
    fn truncated_keeps_low_band_bits() {
        let sh = degree3_fixture();
        let cut = sh.truncated(1);
        assert_eq!(cut.coeffs(), &sh.coeffs()[..4]);
    }
}
