//! The stateful, immediate-mode API context.
//!
//! Mirrors the call style of McAllister's API: *state* calls set the
//! attributes stamped onto newly created particles (`p_color`,
//! `p_velocity_domain`, `p_size`, …); *action* calls execute immediately on
//! the current particle group (`p_source`, `p_gravity`, `p_bounce`,
//! `p_move`, …). Each action call applies the psa-core action of the same
//! name and appends it to the frame's [`ActionList`], which
//! [`Context::compile`] hands over to the cluster runtime.

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

/// The immediate-mode API context.
pub struct Context {
    rng: Rng64,
    dt: Scalar,
    groups: Vec<ParticleGroup>,
    current: usize,
    /// The state registers a newborn is stamped with; its position and
    /// velocity are drawn from the two domains.
    template: Particle,
    position: PDomain,
    velocity: PDomain,
    /// Particles the frame's `p_source` calls asked for.
    sourced: usize,
    /// The frame's action calls, as the psa-core actions they ran.
    recorded: ActionList,
}

impl Context {
    pub fn new(seed: u64) -> Self {
        Context {
            rng: Rng64::new(seed),
            dt: 1.0 / 30.0,
            groups: Vec::new(),
            current: 0,
            template: Particle::at(Vec3::ZERO),
            position: PDomain::Point(Vec3::ZERO),
            velocity: PDomain::Point(Vec3::ZERO),
            sourced: 0,
            recorded: ActionList::new(),
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
        self.template.color = Vec3::new(r, g, b);
        self.template.alpha = alpha;
    }

    /// `pSize`.
    pub fn p_size(&mut self, size: Scalar) {
        self.template.size = size;
    }

    /// `pMass`.
    pub fn p_mass(&mut self, mass: Scalar) {
        self.template.mass = mass;
    }

    /// `pUpVec`-style orientation register.
    pub fn p_orientation(&mut self, up: Vec3) {
        self.template.orientation = up.normalized();
    }

    /// `pVelocityD` — initial velocities drawn from a domain.
    pub fn p_velocity_domain(&mut self, d: PDomain) {
        self.velocity = d;
    }

    /// `pStartingPositionD` — where sources emit.
    pub fn p_position_domain(&mut self, d: PDomain) {
        self.position = d;
    }

    // ---- actions (immediate) ----------------------------------------------

    /// Begin a frame: clears the recorded action list.
    pub fn p_new_frame(&mut self) {
        self.sourced = 0;
        self.recorded = ActionList::new();
    }

    /// `pSource` — emit `rate` particles from the current position domain.
    pub fn p_source(&mut self, rate: usize) {
        self.sourced += rate;
        for _ in 0..rate {
            let position = self.position.generate(&mut self.rng);
            let velocity = self.velocity.generate(&mut self.rng);
            if !self.groups[self.current].add(Particle { position, velocity, ..self.template }) {
                break; // at capacity
            }
        }
    }

    /// Run `a` on the current group, then record it.
    fn act(&mut self, a: impl Action + 'static) {
        // The actions read neither the frame counter nor anything else the
        // immediate-mode context does not keep.
        let mut ctx = ActionCtx { dt: self.dt, frame: 0, rng: &mut self.rng };
        a.apply(&mut ctx, &mut self.groups[self.current].store);
        self.recorded.push(a);
    }

    /// `pGravity`.
    pub fn p_gravity(&mut self, g: Vec3) {
        self.act(Gravity::new(g));
    }

    /// `pRandomAccel` — isotropic random acceleration.
    pub fn p_random_accel(&mut self, magnitude: Scalar) {
        self.act(RandomAccel::new(magnitude));
    }

    /// `pDamping` — lose the fraction `rate` of velocity per second.
    ///
    /// # Panics
    /// When `rate` is outside `[0, 1]`.
    pub fn p_damping(&mut self, rate: Scalar) {
        self.act(Damping::new(rate));
    }

    /// Wind coupling.
    pub fn p_wind(&mut self, wind: Vec3, drag: Scalar) {
        self.act(Wind::new(wind, drag));
    }

    /// `pOrbitPoint`.
    pub fn p_orbit_point(&mut self, center: Vec3, strength: Scalar) {
        self.act(OrbitPoint::new(center, strength));
    }

    /// `pBounce` against a plane/sphere/box obstacle.
    ///
    /// # Panics
    /// When `friction` or `resilience` is outside `[0, 1]`.
    pub fn p_bounce(&mut self, object: ExternalObject, friction: Scalar, resilience: Scalar) {
        self.act(BounceOff::new(object, resilience, friction));
    }

    /// `pKillOld`.
    ///
    /// # Panics
    /// When `max_age` is negative.
    pub fn p_kill_old(&mut self, max_age: Scalar) {
        self.act(KillOld::new(max_age));
    }

    /// Remove particles below ground height `h` (Algorithm 1's "remove
    /// particles under the position").
    pub fn p_kill_below(&mut self, h: Scalar) {
        self.act(KillBelow::ground(h));
    }

    /// `pSink` with an out-of-bounds box.
    pub fn p_kill_outside(&mut self, bounds: Aabb) {
        self.act(KillOutside::new(bounds));
    }

    /// Alpha fade.
    ///
    /// # Panics
    /// When `rate` is negative.
    pub fn p_fade(&mut self, rate: Scalar, kill_at_zero: bool) {
        self.act(Fade::new(rate, kill_at_zero));
    }

    /// `pMove` — integrate and age.
    pub fn p_move(&mut self) {
        self.act(MoveParticles);
    }

    // ---- compilation to the cluster runtime -------------------------------

    /// Hand the frame over to the cluster runtime: `(emit_per_frame,
    /// emission shape, velocity model, action list)` for a `SystemSpec`.
    /// `emit_per_frame` is the frame's `p_source` total; the action list is
    /// the psa-core actions the frame's calls ran, moved out of the context.
    ///
    /// Positions compile from `Point`, `Box` and `Disc` (see [`PDomain`]).
    /// Velocities compile from `Point` (`VelocityModel::Constant`) and a
    /// solid `Sphere` (`VelocityModel::Jittered`: the same uniform ball,
    /// drawn differently). Any other domain — a position `Sphere` (a
    /// volume, psa-core's is a surface), a shell, a `Cone` — is an `Err`
    /// naming it, as is a list with two moves.
    pub fn compile(&mut self) -> Result<(usize, EmissionShape, VelocityModel, ActionList), String> {
        let Some(emission) = self.position.emission_shape() else {
            return Err(format!("position domain {:?} has no psa-core twin", self.position));
        };
        let velocity = match self.velocity {
            PDomain::Point(v) => VelocityModel::Constant(v),
            PDomain::Sphere { center, r_outer, r_inner: 0.0 } => {
                VelocityModel::Jittered { base: center, jitter: r_outer }
            }
            ref other => return Err(format!("velocity domain {other:?} has no psa-core twin")),
        };
        self.recorded.validate()?;
        Ok((self.sourced, emission, velocity, std::mem::take(&mut self.recorded)))
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
        // `p_random_accel` runs psa-core's `RandomAccel`; what it must
        // still do is one `in_unit_sphere` per particle of the group, in
        // order, on the context's own stream.
        let (mut got, mut want) = (ctx(), ctx());
        for c in [&mut got, &mut want] {
            c.p_source(150);
        }
        got.p_random_accel(2.5);
        let m = 2.5 * want.dt;
        want.groups[want.current].store.for_each_mut(|p| {
            p.velocity += want.rng.in_unit_sphere() * m;
        });
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

    /// A context whose every domain has an exact psa-core twin.
    fn exact_ctx() -> Context {
        let mut c = ctx();
        c.p_velocity_domain(PDomain::Point(Vec3::new(1.0, 8.0, 0.0)));
        c
    }

    #[test]
    fn compile_produces_runtime_actions() {
        let mut c = exact_ctx();
        fountain_frame(&mut c);
        let (rate, emission, velocity, list) = c.compile().expect("compilable");
        assert_eq!(rate, 100);
        assert_eq!(emission, EmissionShape::Point(Vec3::new(0.0, 0.5, 0.0)));
        assert_eq!(velocity, VelocityModel::Constant(Vec3::new(1.0, 8.0, 0.0)));
        let names: Vec<_> = list.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["gravity", "bounce", "kill-old", "move"]);
        // The list was handed over, not copied.
        assert!(c.compile().expect("still compilable").3.is_empty());
    }

    #[test]
    fn compile_maps_a_solid_velocity_sphere_to_jitter() {
        let mut c = exact_ctx();
        c.p_velocity_domain(PDomain::Sphere { center: Vec3::Y, r_outer: 2.0, r_inner: 0.0 });
        fountain_frame(&mut c);
        let velocity = c.compile().expect("compilable").2;
        assert_eq!(velocity, VelocityModel::Jittered { base: Vec3::Y, jitter: 2.0 });
    }

    fn refusal(position: PDomain, velocity: PDomain) -> String {
        let mut c = exact_ctx();
        c.p_position_domain(position);
        c.p_velocity_domain(velocity);
        fountain_frame(&mut c);
        match c.compile() {
            Err(e) => e,
            Ok(_) => panic!("compiled"),
        }
    }

    #[test]
    fn compile_refuses_a_position_sphere() {
        let ball = PDomain::Sphere { center: Vec3::ZERO, r_outer: 1.0, r_inner: 0.0 };
        let err = refusal(ball, PDomain::Point(Vec3::Y));
        assert!(err.contains("position domain Sphere"), "{err}");
    }

    #[test]
    fn compile_refuses_a_velocity_shell() {
        let shell = PDomain::Sphere { center: Vec3::ZERO, r_outer: 2.0, r_inner: 1.0 };
        let err = refusal(PDomain::Point(Vec3::ZERO), shell);
        assert!(err.contains("velocity domain Sphere"), "{err}");
    }

    #[test]
    fn compile_refuses_a_velocity_cone() {
        let cone = PDomain::Cone { apex: Vec3::ZERO, axis: Vec3::Y * 10.0, radius: 3.0 };
        let err = refusal(PDomain::Point(Vec3::ZERO), cone);
        assert!(err.contains("velocity domain Cone"), "{err}");
    }

    #[test]
    fn compile_rejects_unsupported_domains() {
        let mut c = exact_ctx();
        c.p_position_domain(PDomain::Line { a: Vec3::ZERO, b: Vec3::X });
        fountain_frame(&mut c);
        assert!(c.compile().is_err());
    }

    #[test]
    #[should_panic(expected = "damping rate must be in [0,1]")]
    fn damping_out_of_range_panics() {
        ctx().p_damping(1.5);
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
