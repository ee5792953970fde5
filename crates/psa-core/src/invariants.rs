//! Runtime invariant checks for the frame protocol.
//!
//! The paper's model only reproduces its tables if every executor preserves
//! three structural properties on every frame:
//!
//! 1. **Conservation** — the particle exchange moves particles between
//!    calculators, it never creates or destroys them. After an exchange,
//!    `after == before - outgoing + incoming` on every rank, and the
//!    rank-summed population is unchanged.
//! 2. **Partition** — the per-system domain slices exactly partition the
//!    system's space: contiguous, non-overlapping, first edge at the space
//!    minimum, last edge at the space maximum.
//! 3. **Protocol order** — the recorded trace of one frame is exactly the
//!    Figure-2 sequence (checked in `psa-runtime`, which owns the trace
//!    vocabulary).
//!
//! Every executor runs the checks on every frame of every build, from
//! counts and walks the frame makes anyway (DESIGN.md "Runtime
//! invariants"). Violations are values, not panics: the executor converts
//! them into its own typed error so a broken invariant surfaces as a
//! failed run report instead of a poisoned thread.

use psa_math::{Interval, Scalar};

use crate::domain::DomainMap;
use crate::particle::Particle;

/// Slack for partition edge comparisons. Cuts are `f32` screen/world units;
/// exact equality is required for interior cuts (they are copied, not
/// recomputed), while the outer edges compare against the space the map was
/// built from.
const EDGE_EPS: Scalar = 1e-4;

/// A broken structural invariant, with enough context to debug the frame.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantViolation {
    /// The exchange created or destroyed particles on one rank.
    ConservationBroken {
        frame: u64,
        system: usize,
        rank: usize,
        before: usize,
        outgoing: usize,
        incoming: usize,
        after: usize,
    },
    /// A degraded run (some ranks declared dead) lost or invented particles
    /// beyond the losses attributed to the dead ranks.
    DegradedConservationBroken {
        frame: u64,
        system: usize,
        before: usize,
        after: usize,
        /// Particles the run has accounted as lost to dead ranks so far.
        lost: usize,
    },
    /// The domain slices do not partition the system space.
    PartitionBroken { frame: u64, system: usize, detail: String },
    /// A particle carries a non-finite (NaN or infinite) position component.
    /// No domain slice can own such a particle, so it would silently evade
    /// both the exchange and the load balancer.
    NonFinitePosition { frame: u64, system: usize, rank: usize, position: [Scalar; 3] },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::ConservationBroken {
                frame,
                system,
                rank,
                before,
                outgoing,
                incoming,
                after,
            } => write!(
                f,
                "frame {frame} sys {system} rank {rank}: exchange broke conservation \
                 ({before} - {outgoing} + {incoming} != {after})"
            ),
            InvariantViolation::DegradedConservationBroken {
                frame,
                system,
                before,
                after,
                lost,
            } => write!(
                f,
                "frame {frame} sys {system}: degraded-mode conservation broken \
                 ({before} != {after} alive + {lost} lost to dead ranks)"
            ),
            InvariantViolation::PartitionBroken { frame, system, detail } => {
                write!(f, "frame {frame} sys {system}: domain partition broken: {detail}")
            }
            InvariantViolation::NonFinitePosition { frame, system, rank, position } => write!(
                f,
                "frame {frame} sys {system} rank {rank}: non-finite particle position \
                 [{}, {}, {}]",
                position[0], position[1], position[2]
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Per-rank conservation: `after == before - outgoing + incoming`.
pub fn check_exchange_conservation(
    frame: u64,
    system: usize,
    rank: usize,
    before: usize,
    outgoing: usize,
    incoming: usize,
    after: usize,
) -> Result<(), InvariantViolation> {
    if before + incoming == after + outgoing {
        Ok(())
    } else {
        Err(InvariantViolation::ConservationBroken {
            frame,
            system,
            rank,
            before,
            outgoing,
            incoming,
            after,
        })
    }
}

/// Global conservation: the population held by *running* ranks is
/// unchanged by an exchange or a balancing transfer round (creations/kills
/// happen outside it), except that in a run where calculators have been
/// declared dead it shrinks by exactly the particles accounted as lost
/// (confiscated with a dead rank or sent towards one). `before` is the
/// population baseline for the comparison window, `after` the running-rank
/// population now, `lost` the losses attributed in between — zero in a
/// healthy run.
pub fn check_global_conservation_with_losses(
    frame: u64,
    system: usize,
    before: usize,
    after: usize,
    lost: usize,
) -> Result<(), InvariantViolation> {
    if before == after + lost {
        Ok(())
    } else {
        Err(InvariantViolation::DegradedConservationBroken { frame, system, before, after, lost })
    }
}

/// The domain slices exactly partition `space`: first edge on the space
/// minimum, last edge on the space maximum, interior edges shared exactly
/// (slice `i`'s high edge is slice `i+1`'s low edge), every slice
/// non-inverted.
pub fn check_partition(
    frame: u64,
    system: usize,
    space: Interval,
    domains: &DomainMap,
) -> Result<(), InvariantViolation> {
    let broken = |detail: String| InvariantViolation::PartitionBroken { frame, system, detail };
    let n = domains.len();
    if n == 0 {
        return Err(broken("domain map has zero slices".into()));
    }
    let first = domains.slice(0);
    let last = domains.slice(n - 1);
    // Infinite-space mode uses the ±1e9 sentinel interval (and the slices
    // only cover where particles are), so outer edges are compared only
    // against genuinely bounded spaces.
    let bounded = |edge: Scalar| edge.is_finite() && edge.abs() < Interval::INFINITE.hi;
    if bounded(space.lo) && (first.lo - space.lo).abs() > EDGE_EPS {
        return Err(broken(format!("first edge {} != space lo {}", first.lo, space.lo)));
    }
    if bounded(space.hi) && (last.hi - space.hi).abs() > EDGE_EPS {
        return Err(broken(format!("last edge {} != space hi {}", last.hi, space.hi)));
    }
    for i in 0..n {
        let s = domains.slice(i);
        if s.lo > s.hi {
            return Err(broken(format!("slice {i} inverted: [{}, {}]", s.lo, s.hi)));
        }
        if i + 1 < n {
            let next = domains.slice(i + 1);
            // Interior cuts are shared values, so exact equality is the
            // invariant — a gap or overlap of any width loses particles.
            if s.hi != next.lo {
                return Err(broken(format!(
                    "slice {i} ends at {} but slice {} starts at {}",
                    s.hi,
                    i + 1,
                    next.lo
                )));
            }
        }
    }
    Ok(())
}

/// Every particle's position is finite on all three axes. A NaN or infinite
/// coordinate falls outside every domain slice, so the exchange never picks
/// the particle up and the partition check still passes — the corruption is
/// invisible to the other invariants. Returns the first offender.
pub fn check_finite_positions<'a, I>(
    frame: u64,
    system: usize,
    rank: usize,
    particles: I,
) -> Result<(), InvariantViolation>
where
    I: IntoIterator<Item = &'a Particle>,
{
    for p in particles {
        let v = p.position;
        if !(v.x.is_finite() && v.y.is_finite() && v.z.is_finite()) {
            return Err(InvariantViolation::NonFinitePosition {
                frame,
                system,
                rank,
                position: [v.x, v.y, v.z],
            });
        }
    }
    Ok(())
}

/// Multiplier of the ordered fold. Odd, and `≡ 5 (mod 8)`, so its powers
/// are distinct for every stream length below 2^62 — `pow` encodes length.
const FOLD_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

/// One odd multiplier per 64-bit lane of [`particle_hash`].
const LANES: [u64; 8] = [
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
];

/// Hash of one particle's exact bit pattern, independent of every other
/// particle.
///
/// The sixteen `f32::to_bits` words pair into eight 64-bit lanes; each lane
/// is multiplied by its own odd constant (a bijection per lane, so any
/// single-bit change moves the sum) and the sum goes through the murmur3
/// finalizer (also a bijection, and what makes the hash non-linear in the
/// fields). The eight multiplies are independent, so consecutive particles
/// pipeline — there is no serial chain across the words.
///
/// [`StateHash`] folds this in stream order. Its wrapping *sum* over a
/// population is the commutative multiset fold a decomposition-invariant
/// oracle needs (ROADMAP item 2).
#[inline]
pub fn particle_hash(p: &Particle) -> u64 {
    #[inline(always)]
    fn lane(lo: Scalar, hi: Scalar) -> u64 {
        u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
    }
    let lanes = [
        lane(p.position.x, p.position.y),
        lane(p.position.z, p.velocity.x),
        lane(p.velocity.y, p.velocity.z),
        lane(p.orientation.x, p.orientation.y),
        lane(p.orientation.z, p.color.x),
        lane(p.color.y, p.color.z),
        lane(p.age, p.size),
        lane(p.alpha, p.mass),
    ];
    // The seed keeps the all-zero particle away from the finalizer's fixed
    // point at 0.
    let mut h =
        lanes.iter().zip(LANES).fold(FOLD_PRIME, |acc, (w, m)| acc.wrapping_add(w.wrapping_mul(m)));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Ordered, associative checksum over the exact bit patterns of a particle
/// stream: `h = h·P + particle_hash(p)` per particle, with `P^len` carried
/// alongside so two partial hashes [`combine`](Self::combine).
///
/// This is the frame checksum the determinism regression tests compare: two
/// runs with the same seed must produce bit-identical particle states in
/// the same order, so any drift — a reordered exchange, an extra RNG draw,
/// a float contraction difference — changes the hash. Because
/// `H(A ++ B) = H(A).combine(&H(B))`, the value does not depend on where the
/// stream is cut: every calculator hashes the particles it holds and the
/// image generator combines the partials in `(system, calculator)` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateHash {
    h: u64,
    /// `FOLD_PRIME` to the power of the stream's length.
    pow: u64,
}

impl StateHash {
    /// The hash of the empty stream — the identity of [`Self::combine`].
    pub fn new() -> Self {
        StateHash { h: 0, pow: 1 }
    }

    /// Fold one particle's full state into the hash.
    #[inline]
    pub fn push(&mut self, p: &Particle) {
        self.h = self.h.wrapping_mul(FOLD_PRIME).wrapping_add(particle_hash(p));
        self.pow = self.pow.wrapping_mul(FOLD_PRIME);
    }

    pub fn extend<'a, I: IntoIterator<Item = &'a Particle>>(&mut self, it: I) {
        for p in it {
            self.push(p);
        }
    }

    /// The hash of this stream followed by `other`'s.
    pub fn combine(&self, other: &StateHash) -> StateHash {
        StateHash {
            h: self.h.wrapping_mul(other.pow).wrapping_add(other.h),
            pow: self.pow.wrapping_mul(other.pow),
        }
    }

    /// The checksum value. `pow` takes part so that length always shows,
    /// even for a stream whose fold happens to be 0.
    pub fn finish(&self) -> u64 {
        self.h ^ self.pow.rotate_left(32)
    }
}

impl Default for StateHash {
    fn default() -> Self {
        StateHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Axis, Vec3};

    #[test]
    fn conservation_accepts_balanced_exchange() {
        assert!(check_exchange_conservation(3, 0, 1, 100, 10, 7, 97).is_ok());
        assert!(check_exchange_conservation(3, 0, 1, 0, 0, 0, 0).is_ok());
    }

    #[test]
    fn conservation_rejects_lost_particles() {
        let err = check_exchange_conservation(3, 0, 1, 100, 10, 7, 96).unwrap_err();
        assert!(matches!(err, InvariantViolation::ConservationBroken { after: 96, .. }));
        assert!(err.to_string().contains("conservation"));
    }

    #[test]
    fn degraded_conservation_accounts_for_losses() {
        // 500 particles, 20 lost with a dead rank: 480 alive is conserved.
        assert!(check_global_conservation_with_losses(5, 0, 500, 480, 20).is_ok());
        // A healthy run has lost nothing: the population must not move.
        assert!(check_global_conservation_with_losses(5, 0, 500, 500, 0).is_ok());
        assert!(check_global_conservation_with_losses(5, 0, 500, 499, 0).is_err());
        // Losing more than attributed — or less — is a violation either way.
        let err = check_global_conservation_with_losses(5, 0, 500, 470, 20).unwrap_err();
        assert!(matches!(
            err,
            InvariantViolation::DegradedConservationBroken { after: 470, lost: 20, .. }
        ));
        assert!(err.to_string().contains("degraded"));
        assert!(check_global_conservation_with_losses(5, 0, 500, 490, 20).is_err());
    }

    #[test]
    fn even_split_partitions_its_space() {
        let space = Interval::new(-10.0, 10.0);
        let dm = DomainMap::split_even(space, Axis::X, 7);
        assert!(check_partition(0, 0, space, &dm).is_ok());
    }

    #[test]
    fn partition_detects_wrong_space() {
        let dm = DomainMap::split_even(Interval::new(-10.0, 10.0), Axis::X, 4);
        let err = check_partition(0, 0, Interval::new(-20.0, 10.0), &dm).unwrap_err();
        assert!(matches!(err, InvariantViolation::PartitionBroken { .. }));
    }

    #[test]
    fn partition_detects_interior_gap() {
        // A hand-built map with a gap between slices 0 and 1.
        let dm = DomainMap::from_cuts(Axis::X, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        // from_cuts produces a valid contiguous map; partition check passes.
        assert!(check_partition(0, 0, Interval::new(0.0, 3.0), &dm).is_ok());
        // A shifted space exposes the edge mismatch.
        assert!(check_partition(0, 0, Interval::new(0.5, 3.0), &dm).is_err());
    }

    #[test]
    fn infinite_space_skips_outer_edges() {
        let dm = DomainMap::split_even(Interval::new(-5.0, 5.0), Axis::X, 3);
        assert!(check_partition(0, 0, Interval::INFINITE, &dm).is_ok());
    }

    #[test]
    fn finite_positions_accepts_normal_particles() {
        let ps = [Particle::at(Vec3::new(1.0, 2.0, 3.0)), Particle::at(Vec3::ZERO)];
        assert!(check_finite_positions(0, 0, 1, ps.iter()).is_ok());
        assert!(check_finite_positions(0, 0, 1, std::iter::empty()).is_ok());
    }

    #[test]
    fn finite_positions_rejects_nan_and_inf() {
        let bad_nan = Particle::at(Vec3::new(1.0, f32::NAN, 0.0));
        let err = check_finite_positions(7, 2, 3, [&bad_nan]).unwrap_err();
        match err {
            InvariantViolation::NonFinitePosition { frame: 7, system: 2, rank: 3, position } => {
                assert!(position[1].is_nan());
            }
            other => panic!("wrong violation: {other:?}"),
        }
        assert!(err.to_string().contains("non-finite"));
        let bad_inf = Particle::at(Vec3::new(f32::INFINITY, 0.0, 0.0));
        assert!(check_finite_positions(0, 0, 0, [&bad_inf]).is_err());
    }

    #[test]
    fn state_hash_is_order_and_bit_sensitive() {
        let a = Particle::at(Vec3::new(1.0, 2.0, 3.0));
        let b = Particle::at(Vec3::new(4.0, 5.0, 6.0));
        let hash = |ps: &[Particle]| {
            let mut h = StateHash::new();
            h.extend(ps.iter());
            h.finish()
        };
        assert_eq!(hash(&[a, b]), hash(&[a, b]));
        assert_ne!(hash(&[a, b]), hash(&[b, a]), "order must matter");
        let mut a2 = a;
        a2.age = f32::from_bits(a.age.to_bits() ^ 1);
        assert_ne!(hash(&[a, b]), hash(&[a2, b]), "single-bit drift must show");
        assert_ne!(hash(&[a]), hash(&[a, b]), "length must matter");
    }

    #[test]
    fn state_hash_composes_at_every_split_and_still_sees_every_change() {
        use psa_math::Rng64;
        let hash = |ps: &[Particle]| {
            let mut h = StateHash::new();
            h.extend(ps);
            h
        };
        for seed in 0..16u64 {
            let mut rng = Rng64::new(0x5747_E4A5 ^ seed);
            let vec3 = |r: &mut Rng64| Vec3::new(r.gaussian(), r.gaussian(), r.gaussian());
            let ps: Vec<Particle> = (0..1 + rng.below(40))
                .map(|_| Particle {
                    position: vec3(&mut rng),
                    velocity: vec3(&mut rng),
                    orientation: vec3(&mut rng),
                    color: vec3(&mut rng),
                    age: rng.unit(),
                    size: rng.unit(),
                    alpha: rng.unit(),
                    mass: rng.unit(),
                })
                .collect();
            let whole = hash(&ps);
            assert_eq!(whole.combine(&StateHash::new()), whole, "empty is a right identity");
            assert_eq!(StateHash::new().combine(&whole), whole, "empty is a left identity");
            for i in 0..=ps.len() {
                let (a, b) = ps.split_at(i);
                assert_eq!(hash(a).combine(&hash(b)), whole, "seed {seed} split {i}");
                for j in i..=ps.len() {
                    let (a, b, c) = (hash(&ps[..i]), hash(&ps[i..j]), hash(&ps[j..]));
                    assert_eq!(a.combine(&b).combine(&c), whole, "seed {seed} ({i}, {j}) left");
                    assert_eq!(a.combine(&b.combine(&c)), whole, "seed {seed} ({i}, {j}) right");
                }
            }
            // Swap two particles, flip one bit of one word, drop the tail.
            let (i, j) = (rng.below(ps.len()), rng.below(ps.len()));
            if ps[i] != ps[j] {
                let mut swapped = ps.clone();
                swapped.swap(i, j);
                assert_ne!(hash(&swapped).finish(), whole.finish(), "seed {seed} swap {i} {j}");
            }
            let words: [fn(&mut Particle) -> &mut Scalar; 16] = [
                |q| &mut q.position.x,
                |q| &mut q.position.y,
                |q| &mut q.position.z,
                |q| &mut q.velocity.x,
                |q| &mut q.velocity.y,
                |q| &mut q.velocity.z,
                |q| &mut q.orientation.x,
                |q| &mut q.orientation.y,
                |q| &mut q.orientation.z,
                |q| &mut q.color.x,
                |q| &mut q.color.y,
                |q| &mut q.color.z,
                |q| &mut q.age,
                |q| &mut q.size,
                |q| &mut q.alpha,
                |q| &mut q.mass,
            ];
            for (w, word) in words.iter().enumerate() {
                let mut flipped = ps.clone();
                let x = word(&mut flipped[i]);
                *x = Scalar::from_bits(x.to_bits() ^ 1 << rng.below(32));
                assert_ne!(hash(&flipped).finish(), whole.finish(), "seed {seed} word {w}");
            }
            let short = &ps[..ps.len() - 1];
            assert_ne!(hash(short).finish(), whole.finish(), "seed {seed}: dropped tail");
        }
        // The multiset fold ROADMAP item 2 builds on: a wrapping sum of
        // `particle_hash` ignores order and placement but not content.
        let a = Particle::at(Vec3::new(1.0, 2.0, 3.0));
        let b = Particle::at(Vec3::new(3.0, 2.0, 1.0));
        assert_ne!(particle_hash(&a), particle_hash(&b), "fields are position-tagged");
    }
}
