//! Small fixed-dimension vectors used throughout the splatting pipeline.
//!
//! The paper's math needs only 2/3/4-dimensional linear algebra, so we keep a
//! self-contained implementation instead of pulling in an external math crate
//! (see DESIGN.md §6).

use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

use serde::{Deserialize, Serialize};

/// A 2-dimensional `f32` vector (screen-space positions, splat axes).
///
/// # Examples
///
/// ```
/// use gsplat::math::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.length(), 5.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

/// A 3-dimensional `f32` vector (world positions, scales, RGB colors).
///
/// # Examples
///
/// ```
/// use gsplat::math::Vec3;
/// let v = Vec3::new(1.0, 0.0, 0.0).cross(Vec3::new(0.0, 1.0, 0.0));
/// assert_eq!(v, Vec3::new(0.0, 0.0, 1.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

/// A 4-dimensional `f32` vector (homogeneous clip-space coordinates, RGBA).
///
/// # Examples
///
/// ```
/// use gsplat::math::Vec4;
/// let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
/// assert_eq!(v.perspective_divide(), gsplat::math::Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec4 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub w: f32,
}

macro_rules! impl_vec_ops {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($f: self.$f + rhs.$f),+ }
            }
        }
        impl Sub for $t {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($f: self.$f - rhs.$f),+ }
            }
        }
        impl Neg for $t {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }
        impl Mul<f32> for $t {
            type Output = Self;
            #[inline]
            fn mul(self, s: f32) -> Self {
                Self { $($f: self.$f * s),+ }
            }
        }
        impl Mul<$t> for f32 {
            type Output = $t;
            #[inline]
            fn mul(self, v: $t) -> $t {
                v * self
            }
        }
        impl Div<f32> for $t {
            type Output = Self;
            #[inline]
            fn div(self, s: f32) -> Self {
                Self { $($f: self.$f / s),+ }
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                $(self.$f += rhs.$f;)+
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                $(self.$f -= rhs.$f;)+
            }
        }
        impl MulAssign<f32> for $t {
            #[inline]
            fn mul_assign(&mut self, s: f32) {
                $(self.$f *= s;)+
            }
        }
        impl DivAssign<f32> for $t {
            #[inline]
            fn div_assign(&mut self, s: f32) {
                $(self.$f /= s;)+
            }
        }
        impl $t {
            /// The zero vector.
            pub const ZERO: Self = Self { $($f: 0.0),+ };

            /// Dot product with `rhs`.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                let mut acc = 0.0;
                $(acc += self.$f * rhs.$f;)+
                acc
            }

            /// Euclidean length.
            #[inline]
            pub fn length(self) -> f32 {
                self.dot(self).sqrt()
            }

            /// Squared Euclidean length (avoids the square root).
            #[inline]
            pub fn length_squared(self) -> f32 {
                self.dot(self)
            }

            /// Returns the unit vector in the same direction.
            ///
            /// Returns the zero vector when the length is zero.
            #[inline]
            pub fn normalized(self) -> Self {
                let len = self.length();
                if len > 0.0 { self / len } else { Self::ZERO }
            }

            /// Component-wise product (Hadamard product).
            #[inline]
            pub fn component_mul(self, rhs: Self) -> Self {
                Self { $($f: self.$f * rhs.$f),+ }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($f: self.$f.min(rhs.$f)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($f: self.$f.max(rhs.$f)),+ }
            }

            /// `true` when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$f.is_finite())+
            }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);
impl_vec_ops!(Vec4, x, y, z, w);

impl Vec2 {
    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Creates a vector with both components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v }
    }

    /// Rotates the vector by 90 degrees counter-clockwise.
    #[inline]
    pub fn perp(self) -> Self {
        Self::new(-self.y, self.x)
    }
}

impl Vec3 {
    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Extends to a homogeneous [`Vec4`] with the given `w`.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }

    /// Drops the z component.
    #[inline]
    pub fn truncate(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

impl Vec4 {
    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Creates a vector with all components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self {
            x: v,
            y: v,
            z: v,
            w: v,
        }
    }

    /// Drops the w component.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Divides xyz by w (clip space → normalized device coordinates).
    ///
    /// # Panics
    ///
    /// Does not panic, but returns non-finite components when `w == 0`.
    #[inline]
    pub fn perspective_divide(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

impl From<(f32, f32)> for Vec2 {
    fn from((x, y): (f32, f32)) -> Self {
        Self::new(x, y)
    }
}

impl From<(f32, f32, f32)> for Vec3 {
    fn from((x, y, z): (f32, f32, f32)) -> Self {
        Self::new(x, y, z)
    }
}

impl From<(f32, f32, f32, f32)> for Vec4 {
    fn from((x, y, z, w): (f32, f32, f32, f32)) -> Self {
        Self::new(x, y, z, w)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        assert_eq!(a + b, Vec2::new(4.0, -2.0));
        assert_eq!(a - b, Vec2::new(-2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -2.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn vec3_normalized_unit_length() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec4_perspective_divide() {
        let v = Vec4::new(4.0, 8.0, 2.0, 2.0);
        assert_eq!(v.perspective_divide(), Vec3::new(2.0, 4.0, 1.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(3.0, 2.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 2.0));
        assert_eq!(a.max(b), Vec2::new(3.0, 5.0));
    }

    #[test]
    fn vec3_indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec3_index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec2::new(f32::INFINITY, 0.0).is_finite());
    }
}
