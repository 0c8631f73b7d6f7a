//! Small square matrices (2×2, 3×3, 4×4), column-major like OpenGL.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul};

use super::vec::{Vec2, Vec3, Vec4};

/// A 2×2 matrix, used for 2D splat covariance and its conic (inverse).
///
/// Stored column-major: `cols[c]` is column `c`.
///
/// # Examples
///
/// ```
/// use gsplat::math::{Mat2, Vec2};
/// let m = Mat2::from_cols(Vec2::new(2.0, 0.0), Vec2::new(0.0, 4.0));
/// assert_eq!(m.determinant(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat2 {
    pub cols: [Vec2; 2],
}

/// A 3×3 matrix (3D covariance, rotations, normal transforms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    pub cols: [Vec3; 3],
}

/// A 4×4 matrix (view / projection transforms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat4 {
    pub cols: [Vec4; 4],
}

impl Mat2 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        cols: [Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)],
    };

    /// Builds a matrix from two columns.
    #[inline]
    pub const fn from_cols(c0: Vec2, c1: Vec2) -> Self {
        Self { cols: [c0, c1] }
    }

    /// Builds a symmetric matrix `[[a, b], [b, c]]`.
    #[inline]
    pub const fn symmetric(a: f32, b: f32, c: f32) -> Self {
        Self::from_cols(Vec2::new(a, b), Vec2::new(b, c))
    }

    /// Element at row `r`, column `c`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let col = self.cols[c];
        match r {
            0 => col.x,
            1 => col.y,
            _ => panic!("Mat2 row out of range: {r}"),
        }
    }

    /// Determinant.
    #[inline]
    pub fn determinant(&self) -> f32 {
        self.at(0, 0) * self.at(1, 1) - self.at(0, 1) * self.at(1, 0)
    }

    /// Inverse, or `None` when the matrix is singular.
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < f32::MIN_POSITIVE {
            return None;
        }
        let inv_det = 1.0 / det;
        Some(Self::from_cols(
            Vec2::new(self.at(1, 1) * inv_det, -self.at(1, 0) * inv_det),
            Vec2::new(-self.at(0, 1) * inv_det, self.at(0, 0) * inv_det),
        ))
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        Self::from_cols(
            Vec2::new(self.at(0, 0), self.at(0, 1)),
            Vec2::new(self.at(1, 0), self.at(1, 1)),
        )
    }

    /// Eigenvalues of a symmetric 2×2 matrix, returned `(major, minor)`.
    ///
    /// Used to derive the splat ellipse semi-axis lengths from the 2D
    /// covariance matrix. Assumes the matrix is symmetric.
    pub fn symmetric_eigenvalues(&self) -> (f32, f32) {
        let mid = 0.5 * (self.at(0, 0) + self.at(1, 1));
        let det = self.determinant();
        let disc = (mid * mid - det).max(0.0).sqrt();
        (mid + disc, mid - disc)
    }

    /// Unit eigenvector for eigenvalue `lambda` of a symmetric matrix.
    pub fn symmetric_eigenvector(&self, lambda: f32) -> Vec2 {
        let b = self.at(0, 1);
        // For [[a, b], [b, c]] the eigenvector of lambda is (b, lambda - a)
        // unless b ~ 0, in which case the matrix is already diagonal.
        if b.abs() > 1e-12 {
            Vec2::new(b, lambda - self.at(0, 0)).normalized()
        } else if self.at(0, 0) >= self.at(1, 1) {
            if (lambda - self.at(0, 0)).abs() <= (lambda - self.at(1, 1)).abs() {
                Vec2::new(1.0, 0.0)
            } else {
                Vec2::new(0.0, 1.0)
            }
        } else if (lambda - self.at(1, 1)).abs() <= (lambda - self.at(0, 0)).abs() {
            Vec2::new(0.0, 1.0)
        } else {
            Vec2::new(1.0, 0.0)
        }
    }
}

impl Mul<Vec2> for Mat2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        self.cols[0] * v.x + self.cols[1] * v.y
    }
}

impl Mul for Mat2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(self * rhs.cols[0], self * rhs.cols[1])
    }
}

impl Add for Mat2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::from_cols(self.cols[0] + rhs.cols[0], self.cols[1] + rhs.cols[1])
    }
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        cols: [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from three columns.
    #[inline]
    pub const fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self { cols: [c0, c1, c2] }
    }

    /// A diagonal matrix with the given diagonal.
    #[inline]
    pub fn from_diagonal(d: Vec3) -> Self {
        Self::from_cols(
            Vec3::new(d.x, 0.0, 0.0),
            Vec3::new(0.0, d.y, 0.0),
            Vec3::new(0.0, 0.0, d.z),
        )
    }

    /// Element at row `r`, column `c`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.cols[c][r]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        Self::from_cols(
            Vec3::new(self.at(0, 0), self.at(0, 1), self.at(0, 2)),
            Vec3::new(self.at(1, 0), self.at(1, 1), self.at(1, 2)),
            Vec3::new(self.at(2, 0), self.at(2, 1), self.at(2, 2)),
        )
    }

    /// Determinant.
    pub fn determinant(&self) -> f32 {
        self.cols[0].dot(self.cols[1].cross(self.cols[2]))
    }

    /// Rotation matrix from a unit quaternion `(w, x, y, z)`.
    ///
    /// The quaternion is normalized internally, matching the 3DGS reference
    /// implementation which stores unnormalized quaternions per Gaussian.
    pub fn from_quaternion(w: f32, x: f32, y: f32, z: f32) -> Self {
        let n = (w * w + x * x + y * y + z * z).sqrt();
        let (w, x, y, z) = if n > 0.0 {
            (w / n, x / n, y / n, z / n)
        } else {
            (1.0, 0.0, 0.0, 0.0)
        };
        Self::from_cols(
            Vec3::new(
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y + w * z),
                2.0 * (x * z - w * y),
            ),
            Vec3::new(
                2.0 * (x * y - w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z + w * x),
            ),
            Vec3::new(
                2.0 * (x * z + w * y),
                2.0 * (y * z - w * x),
                1.0 - 2.0 * (x * x + y * y),
            ),
        )
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z
    }
}

impl Mul for Mat3 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(self * rhs.cols[0], self * rhs.cols[1], self * rhs.cols[2])
    }
}

impl Add for Mat3 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::from_cols(
            self.cols[0] + rhs.cols[0],
            self.cols[1] + rhs.cols[1],
            self.cols[2] + rhs.cols[2],
        )
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four columns.
    #[inline]
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Element at row `r`, column `c`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let col = self.cols[c];
        match r {
            0 => col.x,
            1 => col.y,
            2 => col.z,
            3 => col.w,
            _ => panic!("Mat4 row out of range: {r}"),
        }
    }

    /// Upper-left 3×3 block (the rotation/scale part of a rigid transform).
    pub fn upper_left3(&self) -> Mat3 {
        Mat3::from_cols(
            self.cols[0].truncate(),
            self.cols[1].truncate(),
            self.cols[2].truncate(),
        )
    }

    /// A right-handed look-at view matrix (camera at `eye` looking at `center`).
    pub fn look_at(eye: Vec3, center: Vec3, up: Vec3) -> Self {
        let f = (center - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Self::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }

    /// A right-handed OpenGL-style perspective projection.
    ///
    /// `fov_y` is the vertical field of view in radians; depth maps to
    /// `[-1, 1]` NDC as in OpenGL.
    ///
    /// # Panics
    ///
    /// Panics if `near >= far` or `fov_y` is not in `(0, π)`.
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        assert!(near < far, "near plane must be closer than far plane");
        assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "fov_y must be in (0, pi)"
        );
        let f = 1.0 / (fov_y * 0.5).tan();
        Self::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) / (near - far), -1.0),
            Vec4::new(0.0, 0.0, 2.0 * far * near / (near - far), 0.0),
        )
    }

    /// Transforms a point (w = 1), returning the homogeneous result.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec4 {
        *self * p.extend(1.0)
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }
}

impl Mul for Mat4 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(
            self * rhs.cols[0],
            self * rhs.cols[1],
            self * rhs.cols[2],
            self * rhs.cols[3],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn mat2_inverse_roundtrip() {
        let m = Mat2::from_cols(Vec2::new(3.0, 1.0), Vec2::new(2.0, 4.0));
        let inv = m.inverse().unwrap();
        let id = m * inv;
        assert!(approx(id.at(0, 0), 1.0) && approx(id.at(1, 1), 1.0));
        assert!(approx(id.at(0, 1), 0.0) && approx(id.at(1, 0), 0.0));
    }

    #[test]
    fn mat2_singular_has_no_inverse() {
        let m = Mat2::from_cols(Vec2::new(1.0, 2.0), Vec2::new(2.0, 4.0));
        assert!(m.inverse().is_none());
    }

    #[test]
    fn symmetric_eigen_diagonal() {
        let m = Mat2::symmetric(5.0, 0.0, 2.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        assert!(approx(l1, 5.0) && approx(l2, 2.0));
        let v1 = m.symmetric_eigenvector(l1);
        assert!(approx(v1.x.abs(), 1.0));
    }

    #[test]
    fn symmetric_eigen_reconstruction() {
        // lambda * v == M * v for both eigenpairs.
        let m = Mat2::symmetric(3.0, 1.5, 2.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        for l in [l1, l2] {
            let v = m.symmetric_eigenvector(l);
            let mv = m * v;
            assert!(approx(mv.x, l * v.x), "Mv.x {} != l*v.x {}", mv.x, l * v.x);
            assert!(approx(mv.y, l * v.y));
        }
    }

    #[test]
    fn quaternion_identity_and_rotation() {
        let id = Mat3::from_quaternion(1.0, 0.0, 0.0, 0.0);
        assert_eq!(id, Mat3::IDENTITY);
        // 90 degrees around z: x axis maps to y axis.
        let half = std::f32::consts::FRAC_PI_4;
        let rz = Mat3::from_quaternion(half.cos(), 0.0, 0.0, half.sin());
        let v = rz * Vec3::new(1.0, 0.0, 0.0);
        assert!(approx(v.x, 0.0) && approx(v.y, 1.0) && approx(v.z, 0.0));
    }

    #[test]
    fn quaternion_rotation_is_orthonormal() {
        let r = Mat3::from_quaternion(0.3, -0.5, 0.7, 0.2);
        let rt_r = r.transpose() * r;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(rt_r.at(i, j), expect));
            }
        }
        assert!(approx(r.determinant(), 1.0));
    }

    #[test]
    fn look_at_centers_target() {
        let view = Mat4::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let p = view.transform_point(Vec3::ZERO).truncate();
        // Target is straight ahead on the -z camera axis.
        assert!(approx(p.x, 0.0) && approx(p.y, 0.0) && approx(p.z, -5.0));
    }

    #[test]
    fn perspective_maps_near_far() {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let near = proj
            .transform_point(Vec3::new(0.0, 0.0, -0.1))
            .perspective_divide();
        let far = proj
            .transform_point(Vec3::new(0.0, 0.0, -100.0))
            .perspective_divide();
        assert!(approx(near.z, -1.0));
        assert!(approx(far.z, 1.0));
    }

    #[test]
    #[should_panic(expected = "near plane")]
    fn perspective_rejects_inverted_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 10.0, 1.0);
    }

    #[test]
    fn mat4_mul_identity() {
        let m = Mat4::perspective(1.0, 1.5, 0.1, 50.0);
        let p = m * Mat4::IDENTITY;
        assert_eq!(p, m);
    }
}
