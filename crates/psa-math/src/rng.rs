//! Deterministic, splittable random number streams.
//!
//! The whole reproduction must regenerate the paper's tables bit-for-bit
//! from a single seed, so every stochastic choice flows through [`Rng64`]:
//! a SplitMix64 generator with a cheap `split` operation that derives
//! statistically independent child streams for (particle system, frame,
//! role) tuples. SplitMix64 passes BigCrush for this kind of workload and
//! costs a handful of ALU ops per draw — appropriate for generating
//! 3.2 million particle states per frame.

use crate::{Scalar, Vec3};

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 random number generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seed a new stream. Any seed (including 0) is valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// The raw SplitMix64 state. Feeding it back to [`Rng64::new`] rebuilds
    /// a stream that continues exactly where this one stands — `new` stores
    /// the seed verbatim, so `state`/`new` are exact inverses. Checkpoint
    /// codecs use this to freeze mid-run streams without replaying draws.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Derive an independent child stream keyed by `salt`.
    ///
    /// Child streams are used so that, e.g., particle creation for system 3
    /// on frame 17 draws the same values regardless of how many calculators
    /// participate — the property that makes sequential and parallel runs
    /// comparable.
    #[inline]
    pub fn split(&self, salt: u64) -> Rng64 {
        // Mix the salt through one SplitMix64 round so nearby salts give
        // distant states.
        let mut z = self.state ^ salt.wrapping_mul(GOLDEN_GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng64 { state: z ^ (z >> 31) }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa (plenty for f32 state).
    #[inline]
    pub fn unit(&mut self) -> Scalar {
        (self.next_u64() >> 40) as Scalar * (1.0 / (1u64 << 24) as Scalar)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: Scalar, hi: Scalar) -> Scalar {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for simulation workloads; exact rejection is unnecessary).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via Box–Muller (both values consumed; simplicity over
    /// caching — this is not the hot path, creation is amortized).
    pub fn gaussian(&mut self) -> Scalar {
        let u1 = self.unit().max(1.0e-7);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: Scalar, sigma: Scalar) -> Scalar {
        mean + sigma * self.gaussian()
    }

    /// Uniform point inside the unit sphere (rejection sampling; ~1.9 tries
    /// expected).
    pub fn in_unit_sphere(&mut self) -> Vec3 {
        loop {
            let v = Vec3::new(self.range(-1.0, 1.0), self.range(-1.0, 1.0), self.range(-1.0, 1.0));
            if v.length_squared() < 1.0 {
                return v;
            }
        }
    }

    /// Uniform point on the unit sphere surface.
    pub fn on_unit_sphere(&mut self) -> Vec3 {
        // Marsaglia (1972).
        loop {
            let a = self.range(-1.0, 1.0);
            let b = self.range(-1.0, 1.0);
            let s = a * a + b * b;
            if s < 1.0 {
                let r = 2.0 * (1.0 - s).sqrt();
                return Vec3::new(a * r, b * r, 1.0 - 2.0 * s);
            }
        }
    }

    /// Uniform point inside an axis-aligned box given by corners.
    pub fn in_box(&mut self, min: Vec3, max: Vec3) -> Vec3 {
        Vec3::new(self.range(min.x, max.x), self.range(min.y, max.y), self.range(min.z, max.z))
    }

    /// Uniform point on a disc of radius `r` in the plane orthogonal to
    /// `normal` (any nonzero length), centered at origin. Many draws over
    /// one normal should build the [`DiscBasis`] once and sample through it.
    pub fn on_disc(&mut self, r: Scalar, normal: Vec3) -> Vec3 {
        DiscBasis::new(normal).sample(r, self)
    }
}

/// An orthonormal basis `(u, v)` of the plane orthogonal to a normal: the
/// part of a disc draw that depends on the normal alone, built once so a
/// cohort of draws does not re-derive it per point.
#[derive(Clone, Copy, Debug)]
pub struct DiscBasis {
    u: Vec3,
    v: Vec3,
}

impl DiscBasis {
    /// The basis for `normal` (any nonzero length).
    pub fn new(normal: Vec3) -> Self {
        let n = normal.normalized();
        let helper = if n.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
        let u = n.cross(helper).normalized();
        DiscBasis { u, v: n.cross(u) }
    }

    /// Uniform point on the disc of radius `r` in this plane, centered at
    /// origin (two draws: angle, then radius).
    #[inline]
    pub fn sample(&self, r: Scalar, rng: &mut Rng64) -> Vec3 {
        let theta = rng.range(0.0, std::f32::consts::TAU);
        let rad = r * rng.unit().sqrt();
        self.u * (rad * theta.cos()) + self.v * (rad * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_roundtrips_through_new() {
        let mut a = Rng64::new(0xDEAD_BEEF);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = Rng64::new(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let root = Rng64::new(7);
        let mut c1 = root.split(1);
        let mut c1b = root.split(1);
        let mut c2 = root.split(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn unit_in_range_and_uniform_ish() {
        let mut r = Rng64::new(9);
        let n = 10_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_covers_all_buckets() {
        let mut r = Rng64::new(3);
        let mut hits = [0usize; 8];
        for _ in 0..8000 {
            hits[r.below(8)] += 1;
        }
        for (i, h) in hits.iter().enumerate() {
            assert!(*h > 700, "bucket {i} only hit {h} times");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng64::new(11);
        let n = 20_000;
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = r.gaussian() as f64;
            s += g;
            s2 += g * g;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "gaussian var {var}");
    }

    #[test]
    fn sphere_samples_in_bounds() {
        let mut r = Rng64::new(5);
        for _ in 0..1000 {
            assert!(r.in_unit_sphere().length() < 1.0);
            let s = r.on_unit_sphere().length();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn disc_samples_orthogonal_to_normal() {
        let mut r = Rng64::new(6);
        let n = Vec3::new(0.0, 1.0, 0.0);
        for _ in 0..500 {
            let p = r.on_disc(2.0, n);
            assert!(p.y.abs() < 1e-5);
            assert!(p.length() <= 2.0 + 1e-4);
        }
    }

    #[test]
    fn in_box_respects_bounds() {
        let mut r = Rng64::new(8);
        let (min, max) = (Vec3::new(-1.0, 2.0, 3.0), Vec3::new(1.0, 4.0, 5.0));
        for _ in 0..1000 {
            let p = r.in_box(min, max);
            assert!(p.x >= -1.0 && p.x < 1.0);
            assert!(p.y >= 2.0 && p.y < 4.0);
            assert!(p.z >= 3.0 && p.z < 5.0);
        }
    }
}
