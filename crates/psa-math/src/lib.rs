//! Foundation math for the particle-cluster-anim workspace.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! small, hot types that every other crate builds on.
//!
//! * [`Vec3`] — a 3-component `f32` vector with the usual operator overloads.
//! * [`Aabb`] — axis-aligned bounding boxes used for simulation spaces and
//!   domain slices.
//! * [`Axis`] — the decomposition axis of the paper's domain model.
//! * [`Interval`] — half-open 1-D intervals, the building block of domain
//!   slices (the paper splits space along one axis only).
//! * [`rng`] — deterministic, splittable random number streams (SplitMix64
//!   core), so the whole simulation is reproducible from a single seed.
//! * [`stats`] — light running-statistics helpers used by the benchmark
//!   harness and the load balancer.
//! * [`histogram`] — fixed-bin histograms for load-distribution reports.

pub mod aabb;
pub mod axis;
pub mod histogram;
pub mod interval;
pub mod rng;
pub mod stats;
pub mod vec3;

pub use aabb::Aabb;
pub use axis::Axis;
pub use histogram::Histogram;
pub use interval::Interval;
pub use rng::{DiscBasis, Rng64};
pub use vec3::Vec3;

/// Convenience alias used throughout the workspace for scalar simulation
/// quantities (positions, velocities, times measured in seconds).
pub type Scalar = f32;

/// Clamp a scalar into `[lo, hi]`.
///
/// Stable, branch-predictable helper used in hot rasterization loops.
#[inline]
pub fn clamp(x: Scalar, lo: Scalar, hi: Scalar) -> Scalar {
    if x < lo {
        lo
    } else if x > hi {
        hi
    } else {
        x
    }
}

/// `v.floor() as isize`, with no call into libm (the x86-64 baseline has
/// no rounding instruction, so `floor` is a library call) — the rasterizer
/// and the bucket store take one per particle. Exact for every `f32`:
/// truncation is exact, and below 2^23 in magnitude `i as Scalar` is too,
/// so the correction is needed exactly when `v` was a negative
/// non-integer; from 2^23 up `v` is an integer and truncation is floor.
/// Saturates like the cast (NaN is 0); the correction saturates too, or
/// `-∞` would step below `isize::MIN`.
#[inline]
pub fn floor_isize(v: Scalar) -> isize {
    let i = v as isize;
    i.saturating_sub(isize::from(i as Scalar > v))
}

/// `v.ceil() as isize` without libm; see [`floor_isize`].
#[inline]
pub fn ceil_isize(v: Scalar) -> isize {
    let i = v as isize;
    i.saturating_add(isize::from((i as Scalar) < v))
}

/// Linear interpolation between `a` and `b` with `t` in `[0, 1]`.
#[inline]
pub fn lerp(a: Scalar, b: Scalar, t: Scalar) -> Scalar {
    a + (b - a) * t
}

/// Approximate float comparison used by tests across the workspace.
#[inline]
pub fn approx_eq(a: Scalar, b: Scalar, eps: Scalar) -> bool {
    (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_basic() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 6.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 6.0, 1.0), 6.0);
        assert_eq!(lerp(2.0, 6.0, 0.5), 4.0);
    }

    /// Every class of `f32` the casts treat apart: signed zeros, halves
    /// and ones, the edges of exact integers (2^23, 2^24), the edge of
    /// `isize` (2^63), the extremes, infinities, NaN and subnormals, then a
    /// million random bit patterns.
    #[test]
    fn floor_and_ceil_isize_equal_the_libm_casts_for_every_class_of_f32() {
        let check = |v: Scalar| {
            assert_eq!(floor_isize(v), v.floor() as isize, "floor({v:e}) bits {:#x}", v.to_bits());
            assert_eq!(ceil_isize(v), v.ceil() as isize, "ceil({v:e}) bits {:#x}", v.to_bits());
        };
        let mut edges = vec![0.0, 0.5, 1.0, 1.5, Scalar::MAX, Scalar::INFINITY];
        edges.extend([Scalar::MIN_POSITIVE, Scalar::from_bits(1), Scalar::from_bits(0x7f_ffff)]);
        for e in [23, 24, 63] {
            let p = (2.0 as Scalar).powi(e);
            let mut near = p;
            for _ in 0..4 {
                near = Scalar::from_bits(near.to_bits() - 1);
            }
            for _ in 0..9 {
                edges.push(near);
                near = Scalar::from_bits(near.to_bits() + 1);
            }
            edges.extend([p - 0.5, p + 0.5, p - 1.5]);
        }
        for v in edges {
            check(v);
            check(-v);
        }
        check(Scalar::NAN);
        check(-Scalar::NAN);
        assert_eq!(floor_isize(Scalar::NEG_INFINITY), isize::MIN);
        assert_eq!(ceil_isize(Scalar::INFINITY), isize::MAX);
        let mut rng = Rng64::new(0xF100_2CE1);
        for _ in 0..1_000_000 {
            check(Scalar::from_bits(rng.next_u64() as u32));
        }
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1_000_000.0, 1_000_000.5, 1e-5));
        assert!(!approx_eq(1.0, 1.5, 1e-5));
    }
}
