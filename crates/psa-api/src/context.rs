//! The stateful, immediate-mode API context.
//!
//! Mirrors the call style of McAllister's API: *state* calls set the
//! attributes stamped onto newly created particles (`p_color`,
//! `p_velocity_domain`, `p_size`, …); *action* calls execute immediately on
//! the current particle group (`p_source`, `p_gravity`, `p_bounce`,
//! `p_move`, …). The context also records the action sequence of the
//! current frame so [`Context::compile`] can lower it onto the cluster
//! runtime's action lists.

use psa_core::actions::{
    Action, ActionCtx, ActionList, BounceOff, Damping, Fade, Gravity, KillBelow, KillOld,
    KillOutside, MoveParticles, OrbitPoint, RandomAccel, Wind,
};
use psa_core::objects::ExternalObject;
use psa_core::system::{EmissionShape, VelocityModel};
use psa_core::Particle;
use psa_math::{Aabb, Rng64, Scalar, Vec3};

use crate::domain_shapes::PDomain;
use crate::group::ParticleGroup;

/// State registers stamped onto emitted particles.
#[derive(Clone, Debug)]
struct StateRegs {
    color: Vec3,
    alpha: Scalar,
    size: Scalar,
    mass: Scalar,
    orientation: Vec3,
    velocity: PDomain,
    start_position: PDomain,
}

impl Default for StateRegs {
    fn default() -> Self {
        StateRegs {
            color: Vec3::ONE,
            alpha: 1.0,
            size: 1.0,
            mass: 1.0,
            orientation: Vec3::Y,
            velocity: PDomain::Point(Vec3::ZERO),
            start_position: PDomain::Point(Vec3::ZERO),
        }
    }
}

/// A recorded per-frame action (for [`Context::compile`]).
#[derive(Clone, Debug)]
enum Recorded {
    Source { rate: usize },
    Gravity(Vec3),
    RandomAccel(Scalar),
    Damping(Scalar),
    Wind { wind: Vec3, drag: Scalar },
    OrbitPoint { center: Vec3, strength: Scalar },
    Bounce { object: ExternalObject, friction: Scalar, resilience: Scalar },
    KillOld(Scalar),
    KillBelowY(Scalar),
    KillOutside(Aabb),
    Fade { rate: Scalar, kill: bool },
    Move,
}

/// The immediate-mode API context.
pub struct Context {
    rng: Rng64,
    dt: Scalar,
    groups: Vec<ParticleGroup>,
    current: usize,
    state: StateRegs,
    recorded: Vec<Recorded>,
}

impl Context {
    pub fn new(seed: u64) -> Self {
        Context {
            rng: Rng64::new(seed),
            dt: 1.0 / 30.0,
            groups: Vec::new(),
            current: 0,
            state: StateRegs::default(),
            recorded: Vec::new(),
        }
    }

    // ---- group management ----------------------------------------------

    /// `pGenParticleGroups` + `pSetMaxParticles` in one call; returns the
    /// group handle and makes it current.
    pub fn p_gen_particle_group(&mut self, name: &str, max_particles: usize) -> usize {
        self.groups.push(ParticleGroup::new(name, max_particles));
        self.current = self.groups.len() - 1;
        self.current
    }

    /// `pCurrentGroup`.
    pub fn p_current_group(&mut self, handle: usize) {
        assert!(handle < self.groups.len(), "unknown particle group {handle}");
        self.current = handle;
    }

    pub fn group(&self, handle: usize) -> &ParticleGroup {
        &self.groups[handle]
    }

    pub fn current(&self) -> &ParticleGroup {
        &self.groups[self.current]
    }

    // ---- state calls -----------------------------------------------------

    /// `pTimeStep`.
    pub fn p_time_step(&mut self, dt: Scalar) {
        assert!(dt > 0.0);
        self.dt = dt;
    }

    /// `pColor`.
    pub fn p_color(&mut self, r: Scalar, g: Scalar, b: Scalar, alpha: Scalar) {
        self.state.color = Vec3::new(r, g, b);
        self.state.alpha = alpha;
    }

    /// `pSize`.
    pub fn p_size(&mut self, size: Scalar) {
        self.state.size = size;
    }

    /// `pMass`.
    pub fn p_mass(&mut self, mass: Scalar) {
        self.state.mass = mass;
    }

    /// `pUpVec`-style orientation register.
    pub fn p_orientation(&mut self, up: Vec3) {
        self.state.orientation = up.normalized();
    }

    /// `pVelocityD` — initial velocities drawn from a domain.
    pub fn p_velocity_domain(&mut self, d: PDomain) {
        assert!(d.can_generate(), "velocity domain must generate");
        self.state.velocity = d;
    }

    /// `pStartingPositionD` — where sources emit.
    pub fn p_position_domain(&mut self, d: PDomain) {
        assert!(d.can_generate(), "position domain must generate");
        self.state.start_position = d;
    }

    // ---- actions (immediate) ----------------------------------------------

    /// Begin a frame: clears the recorded action list.
    pub fn p_new_frame(&mut self) {
        self.recorded.clear();
    }

    /// `pSource` — emit `rate` particles from the current position domain.
    pub fn p_source(&mut self, rate: usize) {
        self.recorded.push(Recorded::Source { rate });
        for _ in 0..rate {
            let p = Particle {
                position: self.state.start_position.generate(&mut self.rng),
                velocity: self.state.velocity.generate(&mut self.rng),
                orientation: self.state.orientation,
                color: self.state.color,
                age: 0.0,
                size: self.state.size,
                alpha: self.state.alpha,
                mass: self.state.mass,
            };
            if !self.groups[self.current].add(p) {
                break; // at capacity
            }
        }
    }

    /// `pGravity`.
    pub fn p_gravity(&mut self, g: Vec3) {
        self.recorded.push(Recorded::Gravity(g));
        let dv = g * self.dt;
        for p in self.groups[self.current].particles_mut() {
            p.velocity += dv;
        }
    }

    /// `pRandomAccel` — isotropic random acceleration.
    pub fn p_random_accel(&mut self, magnitude: Scalar) {
        self.recorded.push(Recorded::RandomAccel(magnitude));
        // The action reads neither the frame counter nor anything else the
        // immediate-mode context does not keep.
        let mut ctx = ActionCtx { dt: self.dt, frame: 0, rng: &mut self.rng };
        RandomAccel::new(magnitude)
            .apply_chunk(&mut ctx, self.groups[self.current].particles_mut());
    }

    /// `pDamping`.
    pub fn p_damping(&mut self, rate: Scalar) {
        self.recorded.push(Recorded::Damping(rate));
        let keep = (1.0 - rate).powf(self.dt);
        for p in self.groups[self.current].particles_mut() {
            p.velocity *= keep;
        }
    }

    /// Wind coupling.
    pub fn p_wind(&mut self, wind: Vec3, drag: Scalar) {
        self.recorded.push(Recorded::Wind { wind, drag });
        let k = (drag * self.dt).min(1.0);
        for p in self.groups[self.current].particles_mut() {
            p.velocity = p.velocity.lerp(wind, k);
        }
    }

    /// `pOrbitPoint`.
    pub fn p_orbit_point(&mut self, center: Vec3, strength: Scalar) {
        self.recorded.push(Recorded::OrbitPoint { center, strength });
        let act = OrbitPoint::new(center, strength);
        let s = strength * self.dt;
        let eps2 = act.epsilon * act.epsilon;
        for p in self.groups[self.current].particles_mut() {
            let rel = center - p.position;
            let d2 = rel.length_squared() + eps2;
            p.velocity += rel * (s / (d2 * d2.sqrt()));
        }
    }

    /// `pBounce` against a plane/sphere/box obstacle.
    pub fn p_bounce(&mut self, object: ExternalObject, friction: Scalar, resilience: Scalar) {
        self.recorded.push(Recorded::Bounce { object: object.clone(), friction, resilience });
        for p in self.groups[self.current].particles_mut() {
            object.bounce(&mut p.position, &mut p.velocity, resilience, friction);
        }
    }

    /// `pKillOld`.
    pub fn p_kill_old(&mut self, max_age: Scalar) {
        self.recorded.push(Recorded::KillOld(max_age));
        self.groups[self.current].retain(|p| p.age <= max_age);
    }

    /// Remove particles below ground height `h` (Algorithm 1's "remove
    /// particles under the position").
    pub fn p_kill_below(&mut self, h: Scalar) {
        self.recorded.push(Recorded::KillBelowY(h));
        self.groups[self.current].retain(|p| p.position.y >= h);
    }

    /// `pSink` with an out-of-bounds box.
    pub fn p_kill_outside(&mut self, bounds: Aabb) {
        self.recorded.push(Recorded::KillOutside(bounds));
        self.groups[self.current].retain(|p| bounds.contains(p.position));
    }

    /// Alpha fade.
    pub fn p_fade(&mut self, rate: Scalar, kill_at_zero: bool) {
        self.recorded.push(Recorded::Fade { rate, kill: kill_at_zero });
        let da = rate * self.dt;
        for p in self.groups[self.current].particles_mut() {
            p.alpha = (p.alpha - da).max(0.0);
        }
        if kill_at_zero {
            self.groups[self.current].retain(|p| p.alpha > 0.0);
        }
    }

    /// `pMove` — integrate and age.
    pub fn p_move(&mut self) {
        self.recorded.push(Recorded::Move);
        let dt = self.dt;
        for p in self.groups[self.current].particles_mut() {
            p.position += p.velocity * dt;
            p.age += dt;
        }
    }

    // ---- compilation to the cluster runtime -------------------------------

    /// Lower the most recent frame's recorded sequence to a `psa-core`
    /// action list plus the emission parameters a `SystemSpec` needs.
    ///
    /// Returns `(emit_per_frame, emission shape, velocity model, action
    /// list)`. Fails when a state domain has no cluster-side equivalent.
    pub fn compile(&self) -> Result<(usize, EmissionShape, VelocityModel, ActionList), String> {
        let emission = match &self.state.start_position {
            PDomain::Point(p) => EmissionShape::Point(*p),
            PDomain::Box(b) => EmissionShape::Box { min: b.min, max: b.max },
            PDomain::Disc { center, radius, normal } => {
                EmissionShape::Disc { center: *center, radius: *radius, normal: *normal }
            }
            PDomain::Sphere { center, r_outer, .. } => {
                EmissionShape::Sphere { center: *center, radius: *r_outer }
            }
            other => return Err(format!("no cluster emission equivalent for {other:?}")),
        };
        let velocity = match &self.state.velocity {
            PDomain::Point(v) => VelocityModel::Constant(*v),
            PDomain::Sphere { center, r_outer, .. } => {
                VelocityModel::Jittered { base: *center, jitter: *r_outer }
            }
            PDomain::Cone { apex, axis, radius } => {
                let height = axis.length();
                VelocityModel::Cone {
                    axis: axis.normalized(),
                    speed_lo: height * 0.8 + apex.length() * 0.0,
                    speed_hi: height,
                    half_angle: (radius / height).atan(),
                }
            }
            other => return Err(format!("no cluster velocity equivalent for {other:?}")),
        };
        let mut list = ActionList::new();
        let mut rate = 0;
        for r in &self.recorded {
            match r {
                Recorded::Source { rate: n } => rate += n,
                Recorded::Gravity(g) => list.push(Gravity::new(*g)),
                Recorded::RandomAccel(m) => list.push(RandomAccel::new(*m)),
                Recorded::Damping(r) => list.push(Damping::new(*r)),
                Recorded::Wind { wind, drag } => list.push(Wind::new(*wind, *drag)),
                Recorded::OrbitPoint { center, strength } => {
                    list.push(OrbitPoint::new(*center, *strength))
                }
                Recorded::Bounce { object, friction, resilience } => {
                    list.push(BounceOff::new(object.clone(), *resilience, *friction))
                }
                Recorded::KillOld(age) => list.push(KillOld::new(*age)),
                Recorded::KillBelowY(h) => list.push(KillBelow::ground(*h)),
                Recorded::KillOutside(b) => list.push(KillOutside::new(*b)),
                Recorded::Fade { rate, kill } => list.push(Fade::new(*rate, *kill)),
                Recorded::Move => list.push(MoveParticles),
            }
        }
        list.validate()?;
        Ok((rate, emission, velocity, list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fountain_frame(ctx: &mut Context) {
        ctx.p_new_frame();
        ctx.p_source(100);
        ctx.p_gravity(Vec3::new(0.0, -9.81, 0.0));
        ctx.p_bounce(ExternalObject::ground(0.0), 0.1, 0.4);
        ctx.p_kill_old(3.0);
        ctx.p_move();
    }

    fn ctx() -> Context {
        let mut c = Context::new(42);
        c.p_gen_particle_group("fountain", 10_000);
        c.p_time_step(0.05);
        c.p_color(0.4, 0.6, 1.0, 1.0);
        c.p_size(0.1);
        c.p_position_domain(PDomain::Point(Vec3::new(0.0, 0.5, 0.0)));
        c.p_velocity_domain(PDomain::Cone { apex: Vec3::ZERO, axis: Vec3::Y * 10.0, radius: 3.0 });
        c
    }

    #[test]
    fn immediate_mode_simulates() {
        let mut c = ctx();
        for _ in 0..30 {
            fountain_frame(&mut c);
        }
        let g = c.current();
        assert_eq!(g.len(), 3000);
        // droplets went up
        assert!(g.centroid().y > 0.5);
        // state was stamped
        assert!(g.particles().iter().all(|p| p.color == Vec3::new(0.4, 0.6, 1.0)));
    }

    #[test]
    fn random_accel_draws_what_it_always_drew() {
        // `p_random_accel` now runs `RandomAccel::apply_chunk`; what it must
        // still do is one `in_unit_sphere` per particle of the group, in
        // order, on the context's own stream.
        let (mut got, mut want) = (ctx(), ctx());
        for c in [&mut got, &mut want] {
            c.p_source(150);
        }
        got.p_random_accel(2.5);
        let m = 2.5 * want.dt;
        for p in want.groups[want.current].particles_mut() {
            p.velocity += want.rng.in_unit_sphere() * m;
        }
        assert_eq!(got.current().particles(), want.current().particles());
        assert_eq!(got.rng.state(), want.rng.state());
        assert!(got.current().particles().iter().any(|p| p.velocity.x != 0.0));
    }

    #[test]
    fn capacity_bounds_population() {
        let mut c = Context::new(1);
        c.p_gen_particle_group("small", 250);
        c.p_position_domain(PDomain::Point(Vec3::ZERO));
        c.p_velocity_domain(PDomain::Point(Vec3::Y));
        for _ in 0..10 {
            c.p_new_frame();
            c.p_source(100);
            c.p_move();
        }
        assert_eq!(c.current().len(), 250);
    }

    #[test]
    fn kill_old_and_below_work_through_api() {
        let mut c = ctx();
        for _ in 0..100 {
            c.p_new_frame();
            c.p_source(10);
            c.p_gravity(Vec3::new(0.0, -9.81, 0.0));
            c.p_kill_old(0.5); // 10 frames at dt 0.05
            c.p_move();
        }
        // population ≈ rate × lifetime_frames
        let n = c.current().len();
        assert!((90..=115).contains(&n), "steady population {n}");
    }

    #[test]
    fn compile_produces_runtime_actions() {
        let mut c = ctx();
        fountain_frame(&mut c);
        let (rate, emission, velocity, list) = c.compile().expect("compilable");
        assert_eq!(rate, 100);
        assert!(matches!(emission, EmissionShape::Point(_)));
        assert!(matches!(velocity, VelocityModel::Cone { .. }));
        assert_eq!(list.len(), 4); // gravity, bounce, kill-old, move
        assert!(list.validate().is_ok());
    }

    #[test]
    fn compile_rejects_unsupported_domains() {
        let mut c = ctx();
        c.p_position_domain(PDomain::Line { a: Vec3::ZERO, b: Vec3::X });
        fountain_frame(&mut c);
        assert!(c.compile().is_err());
    }

    #[test]
    fn multiple_groups_are_independent() {
        let mut c = Context::new(5);
        let a = c.p_gen_particle_group("a", 1000);
        let b = c.p_gen_particle_group("b", 1000);
        c.p_position_domain(PDomain::Point(Vec3::ZERO));
        c.p_velocity_domain(PDomain::Point(Vec3::ZERO));
        c.p_current_group(a);
        c.p_source(10);
        c.p_current_group(b);
        c.p_source(20);
        assert_eq!(c.group(a).len(), 10);
        assert_eq!(c.group(b).len(), 20);
    }
}
