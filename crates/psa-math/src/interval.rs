//! Half-open 1-D intervals `[lo, hi)`.
//!
//! Domain slices in the paper are contiguous ranges along the decomposition
//! axis; representing them as half-open intervals makes "every particle
//! belongs to exactly one domain" hold by construction at the shared
//! boundaries.

use crate::Scalar;

/// A half-open interval `[lo, hi)` on the decomposition axis.
///
/// `lo == hi` is permitted and denotes an empty interval (a calculator whose
/// domain was squeezed to nothing by load balancing still owns a valid,
/// empty slice).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    pub lo: Scalar,
    pub hi: Scalar,
}

impl Interval {
    /// Create `[lo, hi)`. Panics if `lo > hi` or either bound is NaN.
    #[inline]
    pub fn new(lo: Scalar, hi: Scalar) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bounds must not be NaN");
        assert!(lo <= hi, "interval lower bound {lo} exceeds upper bound {hi}");
        Interval { lo, hi }
    }

    /// The "infinite space" interval of the paper's IS configuration.
    ///
    /// We use a large finite sentinel instead of `f32::INFINITY` so that
    /// equal splitting produces finite boundaries; the key property the
    /// paper relies on — all real particles land in the *central* slice(s)
    /// because the outer slices cover astronomically wide, empty ranges —
    /// is preserved.
    pub const INFINITE: Interval = Interval { lo: -1.0e9, hi: 1.0e9 };

    #[inline]
    pub fn width(&self) -> Scalar {
        self.hi - self.lo
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Half-open membership test.
    #[inline]
    pub fn contains(&self, v: Scalar) -> bool {
        v >= self.lo && v < self.hi
    }

    #[inline]
    pub fn center(&self) -> Scalar {
        0.5 * (self.lo + self.hi)
    }

    /// Clamp a value into the closed interval (used when re-homing particles
    /// that drifted marginally past a boundary through floating-point error).
    #[inline]
    pub fn clamp(&self, v: Scalar) -> Scalar {
        crate::clamp(v, self.lo, self.hi)
    }

    /// Split into `n` equal, contiguous half-open slices covering `self`.
    ///
    /// This is exactly the initial domain construction of the paper's
    /// Figure 1: `[-10, 10)` split 4 ways yields `[-10,-5) [-5,0) [0,5)
    /// [5,10)`. The final slice's upper bound is forced to `self.hi` so the
    /// union is exact despite floating-point division.
    pub fn split_even(&self, n: usize) -> Vec<Interval> {
        assert!(n > 0, "cannot split an interval into zero slices");
        let w = self.width() / n as Scalar;
        (0..n)
            .map(|i| {
                let lo = self.lo + w * i as Scalar;
                let hi = if i + 1 == n { self.hi } else { self.lo + w * (i + 1) as Scalar };
                Interval::new(lo, hi)
            })
            .collect()
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_split() {
        // Paper Figure 1: [-10, 10) split into four domains P1..P4.
        let slices = Interval::new(-10.0, 10.0).split_even(4);
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0], Interval::new(-10.0, -5.0));
        assert_eq!(slices[1], Interval::new(-5.0, 0.0));
        assert_eq!(slices[2], Interval::new(0.0, 5.0));
        assert_eq!(slices[3], Interval::new(5.0, 10.0));
    }

    #[test]
    fn split_covers_exactly() {
        let iv = Interval::new(-3.0, 7.0);
        for n in 1..20 {
            let s = iv.split_even(n);
            assert_eq!(s[0].lo, iv.lo);
            assert_eq!(s[n - 1].hi, iv.hi);
            for w in s.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "slices must be contiguous");
            }
        }
    }

    #[test]
    fn half_open_membership() {
        let iv = Interval::new(0.0, 1.0);
        assert!(iv.contains(0.0));
        assert!(!iv.contains(1.0));
        assert!(iv.contains(0.999_999));
        assert!(!iv.contains(-0.000_001));
    }

    #[test]
    fn empty_interval() {
        let iv = Interval::new(2.0, 2.0);
        assert!(iv.is_empty());
        assert!(!iv.contains(2.0));
        assert_eq!(iv.width(), 0.0);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    fn infinite_space_is_wide_and_finite() {
        let inf = Interval::INFINITE;
        assert!(inf.width().is_finite());
        assert!(inf.contains(0.0));
        assert!(inf.contains(-1.0e6));
        // Splitting the IS interval into an odd number of slices leaves the
        // scene-scale region entirely inside the central slice — the effect
        // the paper observes in Table 1's IS-SLB column.
        let s = inf.split_even(5);
        let central = &s[2];
        assert!(central.contains(-100.0) && central.contains(100.0));
        assert!(!s[1].contains(0.0) && !s[3].contains(0.0));
    }
}
