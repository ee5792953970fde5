//! Deterministic, splittable random number streams.
//!
//! The whole reproduction must regenerate the paper's tables bit-for-bit
//! from a single seed, so every stochastic choice flows through [`Rng64`]:
//! a SplitMix64 generator with a cheap `split` operation that derives
//! statistically independent child streams for (particle system, frame,
//! role) tuples. SplitMix64 passes BigCrush for this kind of workload and
//! costs a handful of ALU ops per draw — appropriate for generating
//! 3.2 million particle states per frame.
//!
//! The generator is counter-based: the state only ever steps by
//! the constant γ, so draw `i` of a stream is `mix(state + i·γ)` — a pure
//! function of `(state, i)` with no dependency on the draws before it.
//! [`Rng64::fill_in_unit_sphere`] relies on exactly that to test sphere
//! candidates without a branch per try and still hand back the values, and
//! the final state, of the one-at-a-time rejection loop.

use crate::{Scalar, Vec3};

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function (Stafford's Mix13 finalizer).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
        Rng64 { state: mix(self.state ^ salt.wrapping_mul(GOLDEN_GAMMA)) }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
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

    /// One rejection-sampling candidate: uniform in the cube `[-1, 1)³`.
    #[inline]
    fn sphere_candidate(&mut self) -> Vec3 {
        Vec3::new(self.range(-1.0, 1.0), self.range(-1.0, 1.0), self.range(-1.0, 1.0))
    }

    /// Uniform point inside the unit sphere (rejection sampling; ~1.9 tries
    /// expected). The single-draw entry point; many draws at once go
    /// through [`Rng64::fill_in_unit_sphere`].
    #[inline]
    pub fn in_unit_sphere(&mut self) -> Vec3 {
        loop {
            let v = self.sphere_candidate();
            if v.length_squared() < 1.0 {
                return v;
            }
        }
    }

    /// Fill `out` with uniform points inside the unit sphere: exactly the
    /// values, and exactly the final [`state`](Rng64::state), of
    /// `out.len()` calls of [`Rng64::in_unit_sphere`].
    ///
    /// Candidate `k` of the stream is three draws at `state + (3k+1..=3k+3)·γ`
    /// whatever became of the candidates before it, so instead of branching
    /// on each acceptance test — a coin flip the predictor loses half the
    /// time — every candidate is written to the next free slot and the slot
    /// is kept by advancing past it only when the candidate lies inside.
    pub fn fill_in_unit_sphere(&mut self, out: &mut [Vec3]) {
        let mut taken = 0;
        while taken < out.len() {
            let v = self.sphere_candidate();
            out[taken] = v;
            taken += usize::from(v.length_squared() < 1.0);
        }
    }

    /// Uniform point on the unit sphere surface.
    #[inline]
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

    /// The seeds of the identity tests: the edge states of the counter and
    /// a spread of ordinary ones.
    fn sampler_seeds() -> Vec<u64> {
        let mut seeds = vec![0, u64::MAX, 1, GOLDEN_GAMMA, GOLDEN_GAMMA.wrapping_neg()];
        seeds.extend((0..15).map(|i| Rng64::new(0x5EED).split(i).state()));
        seeds
    }

    #[test]
    fn block_sampler_is_the_scalar_sampler() {
        const LENS: [usize; 16] = [0, 1, 2, 3, 5, 7, 8, 31, 32, 33, 63, 64, 65, 100, 257, 1000];
        let seeds = sampler_seeds();
        assert_eq!(seeds.len(), 20);
        for &seed in &seeds {
            for len in LENS {
                let mut scalar = Rng64::new(seed);
                let want: Vec<Vec3> = (0..len).map(|_| scalar.in_unit_sphere()).collect();
                let mut block = Rng64::new(seed);
                let mut got = vec![Vec3::splat(Scalar::NAN); len];
                block.fill_in_unit_sphere(&mut got);
                let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(g), bits(w), "seed {seed:#x} len {len} draw {i}");
                }
                assert_eq!(block.state(), scalar.state(), "seed {seed:#x} len {len}");
            }
        }
    }

    #[test]
    fn the_block_sampler_leaves_the_stream_where_the_scalar_one_does() {
        for seed in sampler_seeds() {
            let (mut scalar, mut block) = (Rng64::new(seed), Rng64::new(seed));
            // Fills of several lengths back to back, other draws between.
            for len in [3usize, 0, 70, 1, 33] {
                for _ in 0..len {
                    scalar.in_unit_sphere();
                }
                block.fill_in_unit_sphere(&mut vec![Vec3::ZERO; len]);
                assert_eq!(block.next_u64(), scalar.next_u64(), "seed {seed:#x} after {len}");
                assert_eq!(block.in_unit_sphere(), scalar.in_unit_sphere());
                assert_eq!(block.range(2.0, 5.0).to_bits(), scalar.range(2.0, 5.0).to_bits());
            }
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
