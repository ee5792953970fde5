//! Property-changing force actions (paper §3.2.2): they alter velocities
//! but never positions, so they need no inter-process communication.

use super::{Action, ActionCtx, ActionKind, ActionOutcome};
use crate::Particle;
use psa_math::{Scalar, Vec3};

/// Sphere draws [`RandomAccel`] takes per `fill_in_unit_sphere` call: a
/// 768-byte stack scratch.
const DRAW_BLOCK: usize = 64;

/// Constant acceleration — gravity in the fountain experiment.
#[derive(Clone, Copy, Debug)]
pub struct Gravity {
    pub g: Vec3,
}

impl Gravity {
    pub fn new(g: Vec3) -> Self {
        Gravity { g }
    }

    /// Standard Earth gravity pointing down the y axis.
    pub fn earth() -> Self {
        Gravity { g: Vec3::new(0.0, -9.81, 0.0) }
    }
}

impl Action for Gravity {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "gravity"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let dv = self.g * ctx.dt;
        for p in chunk.iter_mut() {
            p.velocity += dv;
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Random per-particle acceleration — the snow experiment applies "a random
/// acceleration on the particles" each frame to get flutter.
#[derive(Clone, Copy, Debug)]
pub struct RandomAccel {
    /// Maximum magnitude of the random acceleration.
    pub magnitude: Scalar,
}

impl RandomAccel {
    pub fn new(magnitude: Scalar) -> Self {
        RandomAccel { magnitude }
    }
}

impl Action for RandomAccel {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "random-accel"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        // A sparse run hands this action far more empty bucket slices than
        // particles (1 024 ranks × 32 systems × 8 buckets over 6 400 of
        // them); those must not pay for the scratch below.
        if chunk.is_empty() {
            return Some(ActionOutcome::default());
        }
        let mag = self.magnitude * ctx.dt;
        let mut draws = [Vec3::ZERO; DRAW_BLOCK];
        for block in chunk.chunks_mut(DRAW_BLOCK) {
            let draws = &mut draws[..block.len()];
            ctx.rng.fill_in_unit_sphere(draws);
            for (p, d) in block.iter_mut().zip(draws.iter()) {
                p.velocity += *d * mag;
            }
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn cost_weight(&self) -> f64 {
        // The *modeled* weight, which every virtual-time golden is
        // calibrated on. Measured on the host the sphere draws are dearer
        // than that: 11.5 ns per particle against a plain force pass's 2.7
        // (4.3 ×; 9.6 × while each rejection test was a branch).
        2.0
    }
}

/// Exponential velocity damping (air drag).
#[derive(Clone, Copy, Debug)]
pub struct Damping {
    /// Fraction of velocity lost per second, in `[0, 1]`.
    pub rate: Scalar,
}

impl Damping {
    pub fn new(rate: Scalar) -> Self {
        assert!((0.0..=1.0).contains(&rate), "damping rate must be in [0,1]");
        Damping { rate }
    }
}

impl Action for Damping {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "damping"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let keep = (1.0 - self.rate).powf(ctx.dt);
        for p in chunk.iter_mut() {
            p.velocity *= keep;
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Relax particle velocity toward a wind field velocity.
#[derive(Clone, Copy, Debug)]
pub struct Wind {
    pub wind: Vec3,
    /// Coupling strength per second.
    pub drag: Scalar,
}

impl Wind {
    pub fn new(wind: Vec3, drag: Scalar) -> Self {
        Wind { wind, drag }
    }
}

impl Action for Wind {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "wind"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let k = (self.drag * ctx.dt).min(1.0);
        let wind = self.wind;
        for p in chunk.iter_mut() {
            p.velocity = p.velocity.lerp(wind, k);
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Attract particles toward a point with inverse-square falloff — the
/// classic McAllister `pOrbitPoint` effect, used by the fireworks example.
#[derive(Clone, Copy, Debug)]
pub struct OrbitPoint {
    pub center: Vec3,
    pub strength: Scalar,
    /// Softening epsilon so close particles do not explode numerically.
    pub epsilon: Scalar,
}

impl OrbitPoint {
    pub fn new(center: Vec3, strength: Scalar) -> Self {
        OrbitPoint { center, strength, epsilon: 0.25 }
    }
}

impl Action for OrbitPoint {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "orbit-point"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let c = self.center;
        let s = self.strength * ctx.dt;
        let eps2 = self.epsilon * self.epsilon;
        for p in chunk.iter_mut() {
            let rel = c - p.position;
            let d2 = rel.length_squared() + eps2;
            p.velocity += rel * (s / (d2 * d2.sqrt()));
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }

    fn cost_weight(&self) -> f64 {
        1.5 // sqrt + division per particle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionList;
    use crate::SubDomainStore;
    use psa_math::{Axis, Interval, Rng64};

    fn store_with(ps: &[Vec3]) -> SubDomainStore {
        let mut s = SubDomainStore::new(Interval::new(-100.0, 100.0), Axis::X, 2);
        for &p in ps {
            s.insert(crate::Particle::at(p));
        }
        s
    }

    fn run(a: &dyn Action, s: &mut SubDomainStore, dt: f32) -> ActionOutcome {
        let mut rng = Rng64::new(7);
        let mut ctx = ActionCtx { dt, frame: 1, rng: &mut rng };
        a.apply(&mut ctx, s)
    }

    #[test]
    fn gravity_accumulates_velocity_only() {
        let mut s = store_with(&[Vec3::ZERO]);
        let out = run(&Gravity::earth(), &mut s, 0.5);
        assert_eq!(out.applied, 1);
        let p = s.iter().next().unwrap();
        assert!((p.velocity.y + 4.905).abs() < 1e-4);
        assert_eq!(p.position, Vec3::ZERO); // property action: no movement
    }

    #[test]
    fn random_accel_is_bounded_and_deterministic() {
        let mut s1 = store_with(&[Vec3::ZERO; 32]);
        let mut s2 = store_with(&[Vec3::ZERO; 32]);
        run(&RandomAccel::new(2.0), &mut s1, 1.0);
        run(&RandomAccel::new(2.0), &mut s2, 1.0);
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.velocity, b.velocity, "same seed, same kicks");
            assert!(a.velocity.length() <= 2.0 + 1e-4);
        }
        // at least some particles actually got kicked
        assert!(s1.iter().any(|p| p.velocity.length() > 0.0));
    }

    /// The oracle of the identity tests below: one scalar sphere draw per
    /// particle, in slice order. Production code has one implementation of
    /// this (`RandomAccel::apply_chunk`, on the block sampler); the loop the
    /// action used to be lives on here only.
    fn kick_one_by_one(magnitude: Scalar, dt: Scalar, rng: &mut Rng64, slice: &mut [Particle]) {
        let mag = magnitude * dt;
        for p in slice {
            p.velocity += rng.in_unit_sphere() * mag;
        }
    }

    fn velocity_bits(s: &SubDomainStore) -> Vec<[u32; 3]> {
        s.iter().map(|p| [p.velocity.x, p.velocity.y, p.velocity.z].map(f32::to_bits)).collect()
    }

    /// 300 particles spread unevenly over 5 buckets, so bucket slices of
    /// many lengths (some empty) meet the action.
    fn uneven_store() -> SubDomainStore {
        let mut rng = Rng64::new(0xB0C5);
        let mut s = SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 5);
        for i in 0..300 {
            let x = if i % 3 == 0 { rng.range(-10.0, 10.0) } else { rng.range(2.0, 6.0) };
            s.insert(Particle::at(Vec3::new(x, 1.0, 0.0)).with_velocity(rng.in_unit_sphere()));
        }
        s
    }

    #[test]
    fn random_accel_over_a_slice_is_one_scalar_draw_per_particle() {
        let act = RandomAccel::new(1.7);
        // Empty, a few, one short of a block, a block, one over, several.
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 128, 200] {
            let mut got: Vec<Particle> = (0..len)
                .map(|i| Particle::at(Vec3::ZERO).with_velocity(Vec3::splat(i as f32)))
                .collect();
            let mut want = got.clone();
            let (mut rng_got, mut rng_want) = (Rng64::new(len as u64), Rng64::new(len as u64));
            let mut ctx = ActionCtx { dt: 0.04, frame: 3, rng: &mut rng_got };
            assert_eq!(act.apply_chunk(&mut ctx, &mut got), Some(ActionOutcome::applied(len)));
            kick_one_by_one(1.7, 0.04, &mut rng_want, &mut want);
            assert_eq!(got, want, "len {len}");
            assert_eq!(rng_got.state(), rng_want.state(), "len {len}: the stream moved on");
        }
    }

    #[test]
    fn random_accel_on_the_legacy_path_shares_one_stream_across_actions_and_buckets() {
        // Two stochastic actions around a plain one: the second must find
        // the stream exactly where the first's last bucket left it.
        let list = ActionList::new()
            .then(RandomAccel::new(2.0))
            .then(Gravity::earth())
            .then(RandomAccel::new(0.5));
        let (mut got, mut want) = (uneven_store(), uneven_store());
        crate::kernel::run_actions(&list, 0.05, 9, Rng64::new(77), &mut got, 0, 1);

        let mut rng = Rng64::new(77);
        for bucket in want.bucket_slices_mut() {
            kick_one_by_one(2.0, 0.05, &mut rng, bucket);
        }
        want.for_each_mut(|p| p.velocity += Gravity::earth().g * 0.05);
        for bucket in want.bucket_slices_mut() {
            kick_one_by_one(0.5, 0.05, &mut rng, bucket);
        }
        assert_eq!(velocity_bits(&got), velocity_bits(&want));
    }

    #[test]
    fn random_accel_on_the_chunked_path_draws_per_chunk_streams() {
        let list = ActionList::new().then(Gravity::earth()).then(RandomAccel::new(2.0));
        for chunk in [7usize, 64, 1024] {
            // Rule 2 of the kernel: chunk `ci` of action 1 draws from
            // `base.split(1).split(ci)`, chunks numbered across buckets.
            let mut want = uneven_store();
            want.for_each_mut(|p| p.velocity += Gravity::earth().g * 0.05);
            let act_rng = Rng64::new(77).split(1);
            let mut ci = 0u64;
            for bucket in want.bucket_slices_mut() {
                for piece in bucket.chunks_mut(chunk) {
                    kick_one_by_one(2.0, 0.05, &mut act_rng.split(ci), piece);
                    ci += 1;
                }
            }
            for workers in [1usize, 2, 4] {
                let mut got = uneven_store();
                crate::kernel::run_actions(
                    &list,
                    0.05,
                    9,
                    Rng64::new(77),
                    &mut got,
                    chunk,
                    workers,
                );
                assert_eq!(
                    velocity_bits(&got),
                    velocity_bits(&want),
                    "chunk {chunk} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn damping_shrinks_speed() {
        let mut s = store_with(&[Vec3::ZERO]);
        s.for_each_mut(|p| p.velocity = Vec3::new(10.0, 0.0, 0.0));
        run(&Damping::new(0.5), &mut s, 1.0);
        let v = s.iter().next().unwrap().velocity.x;
        assert!((v - 5.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn damping_rejects_bad_rate() {
        let _ = Damping::new(1.5);
    }

    #[test]
    fn wind_converges_to_field() {
        let mut s = store_with(&[Vec3::ZERO]);
        let w = Wind::new(Vec3::new(3.0, 0.0, 0.0), 1.0);
        for _ in 0..64 {
            run(&w, &mut s, 0.25);
        }
        let v = s.iter().next().unwrap().velocity;
        assert!((v.x - 3.0).abs() < 0.01, "velocity {v:?} should approach wind");
    }

    #[test]
    fn orbit_point_pulls_inward() {
        let mut s = store_with(&[Vec3::new(5.0, 0.0, 0.0)]);
        run(&OrbitPoint::new(Vec3::ZERO, 50.0), &mut s, 1.0);
        let v = s.iter().next().unwrap().velocity;
        assert!(v.x < 0.0, "should accelerate toward center, got {v:?}");
        assert_eq!(v.y, 0.0);
    }
}
