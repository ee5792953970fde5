//! Axis-aligned bounding boxes for simulation spaces and domain slices.

use crate::{Axis, Interval, Scalar, Vec3};

/// An axis-aligned box, half-open along each axis: `[min, max)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// Create a box from corners; panics if any `min` component exceeds the
    /// corresponding `max` component.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min {min:?} must be <= max {max:?} componentwise"
        );
        Aabb { min, max }
    }

    /// A cube centered at the origin with the given half-extent.
    #[inline]
    pub fn centered_cube(half: Scalar) -> Self {
        Aabb::new(Vec3::splat(-half), Vec3::splat(half))
    }

    /// The degenerate empty box (useful as a fold identity for unions).
    pub fn empty() -> Self {
        Aabb { min: Vec3::splat(Scalar::MAX), max: Vec3::splat(Scalar::MIN) }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x >= self.max.x || self.min.y >= self.max.y || self.min.z >= self.max.z
    }

    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    #[inline]
    pub fn volume(&self) -> Scalar {
        if self.is_empty() {
            0.0
        } else {
            let s = self.size();
            s.x * s.y * s.z
        }
    }

    /// Half-open containment test.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x < self.max.x
            && p.y >= self.min.y
            && p.y < self.max.y
            && p.z >= self.min.z
            && p.z < self.max.z
    }

    /// The extent of the box along one axis, as an [`Interval`].
    #[inline]
    pub fn interval(&self, axis: Axis) -> Interval {
        Interval::new(self.min.along(axis), self.max.along(axis))
    }

    /// Smallest box containing both.
    pub fn union(&self, o: &Aabb) -> Aabb {
        if self.is_empty() {
            return *o;
        }
        if o.is_empty() {
            return *self;
        }
        Aabb::new(self.min.min(o.min), self.max.max(o.max))
    }

    /// Clamp a point into the closed box.
    pub fn clamp(&self, p: Vec3) -> Vec3 {
        p.max(self.min).min(self.max)
    }
}

impl std::fmt::Display for Aabb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[({}, {}, {}) .. ({}, {}, {}))",
            self.min.x, self.min.y, self.min.z, self.max.x, self.max.y, self.max.z
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_half_open() {
        let b = Aabb::centered_cube(1.0);
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(-1.0)));
        assert!(!b.contains(Vec3::splat(1.0)));
    }

    #[test]
    fn size_center_volume() {
        let b = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 4.0, 8.0));
        assert_eq!(b.size(), Vec3::new(2.0, 4.0, 8.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 4.0));
        assert_eq!(b.volume(), 64.0);
    }

    #[test]
    fn interval_roundtrip() {
        let b = Aabb::centered_cube(5.0);
        let iv = b.interval(Axis::X);
        assert_eq!(iv, Interval::new(-5.0, 5.0));
    }

    #[test]
    fn union_and_empty() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let b = Aabb::centered_cube(1.0);
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        let c = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = b.union(&c);
        assert!(u.contains(Vec3::ZERO));
        assert!(u.contains(Vec3::splat(2.5)));
    }

    #[test]
    fn grow_and_clamp() {
        let b = Aabb::empty().union(&Aabb::new(Vec3::ZERO, Vec3::splat(2.0)));
        assert!(b.contains(Vec3::ONE));
        assert_eq!(b.clamp(Vec3::splat(10.0)), Vec3::splat(2.0));
        assert_eq!(b.clamp(Vec3::splat(-10.0)), Vec3::ZERO);
    }

    #[test]
    #[should_panic]
    fn inverted_corners_panic() {
        let _ = Aabb::new(Vec3::ONE, Vec3::ZERO);
    }
}
