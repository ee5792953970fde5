//! A minimal 3-component vector tuned for particle simulation hot loops.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{Axis, Scalar};

/// A 3-component single-precision vector.
///
/// `Vec3` is `repr(C)` and `Copy`; particle stores keep positions, velocities
/// and orientations as flat `Vec<Vec3>` columns, so layout stability matters
/// for the byte-accounting in `netsim` (a particle's wire size is derived
/// from `size_of::<Vec3>()`).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: Scalar,
    pub y: Scalar,
    pub z: Scalar,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    #[inline]
    pub const fn new(x: Scalar, y: Scalar, z: Scalar) -> Self {
        Vec3 { x, y, z }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: Scalar) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Component along `axis` — the projection the domain model slices on.
    #[inline]
    pub fn along(&self, axis: Axis) -> Scalar {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    #[inline]
    pub fn dot(&self, o: Vec3) -> Scalar {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(&self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn length_squared(&self) -> Scalar {
        self.dot(*self)
    }

    #[inline]
    pub fn length(&self) -> Scalar {
        self.length_squared().sqrt()
    }

    /// Euclidean distance to `o`.
    #[inline]
    pub fn distance(&self, o: Vec3) -> Scalar {
        (*self - o).length()
    }

    /// Unit vector in the same direction; returns `Vec3::ZERO` for the zero
    /// vector rather than producing NaNs in hot loops.
    #[inline]
    pub fn normalized(&self) -> Vec3 {
        let len = self.length();
        if len > Scalar::EPSILON {
            *self / len
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Linear interpolation toward `o`.
    #[inline]
    pub fn lerp(&self, o: Vec3, t: Scalar) -> Vec3 {
        *self + (o - *self) * t
    }

    /// Reflect this vector about a unit normal `n`: `v - 2 (v·n) n`.
    ///
    /// Used by the bounce action when a particle hits an external object.
    #[inline]
    pub fn reflect(&self, n: Vec3) -> Vec3 {
        *self - n * (2.0 * self.dot(n))
    }

    /// True when every component is finite (no NaN/Inf escaped an action).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<Scalar> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: Scalar) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for Scalar {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<Scalar> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: Scalar) {
        *self = *self * s;
    }
}

impl Div<Scalar> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: Scalar) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<Scalar> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: Scalar) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = Scalar;
    #[inline]
    fn index(&self, i: usize) -> &Scalar {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl From<[Scalar; 3]> for Vec3 {
    #[inline]
    fn from(a: [Scalar; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [Scalar; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::ONE;
        v -= Vec3::new(0.5, 0.5, 0.5);
        v *= 2.0;
        v /= 3.0;
        assert!(approx_eq(v.x, 1.0, 1e-6));
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn length_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length(), 5.0);
        assert!(approx_eq(v.normalized().length(), 1.0, 1e-6));
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn reflect_about_ground_plane() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        let r = v.reflect(Vec3::Y);
        assert_eq!(r, Vec3::new(1.0, 2.0, 0.5));
    }

    #[test]
    fn axis_projection() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v.along(Axis::X), 7.0);
        assert_eq!(v.along(Axis::Y), 8.0);
        assert_eq!(v.along(Axis::Z), 9.0);
    }

    #[test]
    fn min_max_elem() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 3.0));
    }

    #[test]
    fn index_and_conversions() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 3.0);
        let arr: [f32; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn finite_detection() {
        assert!(Vec3::ONE.is_finite());
        assert!(!Vec3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f32::INFINITY, 0.0).is_finite());
    }
}
