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

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1_000_000.0, 1_000_000.5, 1e-5));
        assert!(!approx_eq(1.0, 1.5, 1e-5));
    }
}
