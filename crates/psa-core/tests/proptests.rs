//! Crate-level property tests for psa-core's storage invariants.
//!
//! Driven by deterministic [`Rng64`] case generators instead of `proptest`
//! (the workspace builds offline); a failing case reproduces identically on
//! every run.

use psa_core::{Particle, ParticleStore, SubDomainStore};
use psa_math::{Axis, Interval, Rng64, Vec3};

const CASES: usize = 256;

fn p(x: f32) -> Particle {
    Particle::at(Vec3::new(x, 0.0, 0.0))
}

fn coords(rng: &mut Rng64, max_len: usize, lo: f32, hi: f32) -> Vec<f32> {
    let n = rng.below(max_len + 1);
    (0..n).map(|_| rng.range(lo, hi)).collect()
}

/// retain_unordered removes exactly the failing particles, no matter the
/// order of the sweep.
#[test]
fn retain_is_a_filter() {
    let mut rng = Rng64::new(0x7E7A);
    for _ in 0..CASES {
        let xs = coords(&mut rng, 199, -50.0, 50.0);
        let cut = rng.range(-50.0, 50.0);
        let mut s: ParticleStore = xs.iter().map(|&x| p(x)).collect();
        let removed = s.retain_unordered(|q| q.position.x < cut);
        let expected_kept = xs.iter().filter(|&&x| x < cut).count();
        assert_eq!(s.len(), expected_kept);
        assert_eq!(removed, xs.len() - expected_kept);
        assert!(s.iter().all(|q| q.position.x < cut));
    }
}

/// sort_along + donate_low/high from a flat store return the exact
/// extremes.
#[test]
fn flat_donation_is_extreme() {
    let mut rng = Rng64::new(0xF1A7);
    for _ in 0..CASES {
        let mut xs = coords(&mut rng, 98, -50.0, 50.0);
        xs.push(rng.range(-50.0, 50.0)); // never empty
        let mut s: ParticleStore = xs.iter().map(|&x| p(x)).collect();
        s.sort_along(Axis::X);
        let k = (1 + rng.below(49)).min(xs.len());
        let low = s.donate_low(k, Axis::X);
        let mut got: Vec<f32> = low.iter().map(|q| q.position.x).collect();
        got.sort_by(f32::total_cmp);
        let mut want = xs.clone();
        want.sort_by(f32::total_cmp);
        want.truncate(k);
        assert_eq!(got, want);
    }
}

/// Re-bucketing in collect_leavers never changes the population of in-slice
/// particles, whatever motion was applied.
#[test]
fn rebucketing_preserves_population() {
    let mut rng = Rng64::new(0x2EB0);
    for _ in 0..CASES {
        let xs = coords(&mut rng, 149, 0.0, 10.0);
        let dx = rng.range(-8.0, 8.0);
        let buckets = 1 + rng.below(9);
        let slice = Interval::new(0.0, 10.0);
        let mut s = SubDomainStore::new(slice, Axis::X, buckets);
        for &x in &xs {
            s.insert(p(x));
        }
        s.for_each_mut(|q| q.position.x += dx);
        let leavers = s.collect_leavers();
        let expected_in = xs.iter().filter(|&&x| slice.contains(x + dx)).count();
        assert_eq!(s.len(), expected_in);
        assert_eq!(leavers.len(), xs.len() - expected_in);
    }
}

/// reshape is population-preserving: kept + leavers == before.
#[test]
fn reshape_preserves_population() {
    let mut rng = Rng64::new(0x2E5A);
    for _ in 0..CASES {
        let xs = coords(&mut rng, 149, 0.0, 10.0);
        let lo = rng.range(0.0, 5.0);
        let width = rng.range(0.0, 5.0);
        let mut s = SubDomainStore::new(Interval::new(0.0, 10.0), Axis::X, 4);
        for &x in &xs {
            s.insert(p(x));
        }
        let new_slice = Interval::new(lo, lo + width);
        let leavers = s.reshape(new_slice);
        assert_eq!(s.len() + leavers.len(), xs.len());
        for q in s.iter() {
            assert!(new_slice.contains(q.position.x));
        }
    }
}
