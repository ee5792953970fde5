//! Particle systems (paper §3.1.3).
//!
//! A particle system has the same properties as its particles *except age*;
//! those properties seed the initial values of emitted particles. Systems
//! are identified by their position in the creation-order vector, which is
//! identical on every process because creation happens in the same order
//! everywhere (paper §4).

use psa_math::{DiscBasis, Interval, Rng64, Scalar, Vec3};

use crate::Particle;

/// Index of a system in the global creation-order vector.
///
/// The paper explicitly uses the vector position as the identifier, relying
/// on deterministic creation order across processes; we keep that design and
/// make it a newtype so it cannot be confused with calculator ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SystemId(pub u16);

impl std::fmt::Display for SystemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sys{}", self.0)
    }
}

/// How initial particle positions are drawn at emission.
#[derive(Clone, Debug, PartialEq)]
pub enum EmissionShape {
    /// A single point (classic fountain nozzle).
    Point(Vec3),
    /// Uniform in an axis-aligned box given by corners (snow cloud layer).
    Box { min: Vec3, max: Vec3 },
    /// Uniform on a disc of radius `r` centered at `center` with normal `n`.
    Disc { center: Vec3, radius: Scalar, normal: Vec3 },
    /// Uniform on a sphere surface (explosion shell).
    Sphere { center: Vec3, radius: Scalar },
}

impl EmissionShape {
    /// Draw one position. A cohort is drawn through an [`Emitter`], which
    /// prepares the shape once; this prepares it per call.
    pub fn sample(&self, rng: &mut Rng64) -> Vec3 {
        self.prepared().sample(rng)
    }

    #[inline]
    fn prepared(&self) -> ShapeSampler {
        match *self {
            EmissionShape::Point(p) => ShapeSampler::Point(p),
            EmissionShape::Box { min, max } => ShapeSampler::Box { min, max },
            EmissionShape::Disc { center, radius, normal } => {
                ShapeSampler::Disc { center, radius, basis: DiscBasis::new(normal) }
            }
            EmissionShape::Sphere { center, radius } => ShapeSampler::Sphere { center, radius },
        }
    }
}

/// An [`EmissionShape`] with every term that depends on the shape alone
/// (a disc's basis) already computed — the only place positions are drawn.
#[derive(Clone, Debug)]
enum ShapeSampler {
    Point(Vec3),
    Box { min: Vec3, max: Vec3 },
    Disc { center: Vec3, radius: Scalar, basis: DiscBasis },
    Sphere { center: Vec3, radius: Scalar },
}

impl ShapeSampler {
    #[inline]
    fn sample(&self, rng: &mut Rng64) -> Vec3 {
        match *self {
            ShapeSampler::Point(p) => p,
            ShapeSampler::Box { min, max } => rng.in_box(min, max),
            ShapeSampler::Disc { center, radius, basis } => center + basis.sample(radius, rng),
            ShapeSampler::Sphere { center, radius } => center + rng.on_unit_sphere() * radius,
        }
    }
}

/// How initial velocities are drawn at emission.
#[derive(Clone, Debug, PartialEq)]
pub enum VelocityModel {
    /// Constant for every particle.
    Constant(Vec3),
    /// Base velocity plus isotropic jitter of the given magnitude.
    Jittered { base: Vec3, jitter: Scalar },
    /// A cone: unit `axis` direction, speed range, half-angle in radians
    /// (fountains spray in a cone).
    Cone { axis: Vec3, speed_lo: Scalar, speed_hi: Scalar, half_angle: Scalar },
}

impl VelocityModel {
    /// Draw one velocity. A cohort is drawn through an [`Emitter`], which
    /// prepares the model once; this prepares it per call.
    pub fn sample(&self, rng: &mut Rng64) -> Vec3 {
        self.prepared().sample(rng)
    }

    #[inline]
    fn prepared(&self) -> VelocitySampler {
        match *self {
            VelocityModel::Constant(v) => VelocitySampler::Constant(v),
            VelocityModel::Jittered { base, jitter } => VelocitySampler::Jittered { base, jitter },
            VelocityModel::Cone { axis, speed_lo, speed_hi, half_angle } => {
                let axis = axis.normalized();
                VelocitySampler::Cone {
                    axis,
                    spread: half_angle.tan(),
                    basis: DiscBasis::new(axis),
                    speed_lo,
                    speed_hi,
                }
            }
        }
    }
}

/// A [`VelocityModel`] with every term that depends on the model alone (a
/// cone's unit axis, its disc basis and `tan(half_angle)`) already computed
/// — the only place velocities are drawn.
#[derive(Clone, Debug)]
enum VelocitySampler {
    Constant(Vec3),
    Jittered { base: Vec3, jitter: Scalar },
    Cone { axis: Vec3, spread: Scalar, basis: DiscBasis, speed_lo: Scalar, speed_hi: Scalar },
}

impl VelocitySampler {
    #[inline]
    fn sample(&self, rng: &mut Rng64) -> Vec3 {
        match *self {
            VelocitySampler::Constant(v) => v,
            VelocitySampler::Jittered { base, jitter } => base + rng.in_unit_sphere() * jitter,
            VelocitySampler::Cone { axis, spread, basis, speed_lo, speed_hi } => {
                // sample direction within the cone by perturbing the axis
                let dir = (axis + basis.sample(spread, rng)).normalized();
                dir * rng.range(speed_lo, speed_hi)
            }
        }
    }
}

/// Static description of one particle system: its identity, its space, and
/// the initial-property generators for emitted particles.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    pub id: SystemId,
    /// Human-readable tag for logs and EXPERIMENTS.md output.
    pub name: String,
    /// The system's own simulated space along the decomposition axis; the
    /// whole space interval its domains slice. `Interval::INFINITE` models
    /// the paper's IS configuration.
    pub space: Interval,
    pub emission: EmissionShape,
    pub velocity: VelocityModel,
    /// Initial orientation assigned to emitted particles.
    pub orientation: Vec3,
    /// Base color assigned to emitted particles.
    pub color: Vec3,
    /// Render size of emitted particles.
    pub size: Scalar,
    /// Particle mass.
    pub mass: Scalar,
    /// Particles emitted per frame by the creation action.
    pub emit_per_frame: usize,
    /// Age (seconds) above which the kill-old action removes particles.
    pub max_age: Scalar,
    /// Optional steady-state pre-population emitted on frame 0: `(count,
    /// shape)` with ages drawn uniformly in `[0, max_age)`, so the paper's
    /// "400,000 particles per system" population exists from the first
    /// measured frame instead of ramping up over a particle lifetime.
    pub initial: Option<(usize, EmissionShape)>,
}

impl SystemSpec {
    /// A reasonable default spec for tests: point emitter at origin emitting
    /// upward with jitter over the Figure-1 space.
    pub fn test_spec(id: u16) -> Self {
        SystemSpec {
            id: SystemId(id),
            name: format!("test-{id}"),
            space: Interval::new(-10.0, 10.0),
            emission: EmissionShape::Point(Vec3::ZERO),
            velocity: VelocityModel::Jittered { base: Vec3::Y * 5.0, jitter: 1.0 },
            orientation: Vec3::Y,
            color: Vec3::ONE,
            size: 1.0,
            mass: 1.0,
            emit_per_frame: 100,
            max_age: 5.0,
            initial: None,
        }
    }

    /// This spec prepared for emission. Build it once per run and draw
    /// every cohort through it; [`emit_one`](Self::emit_one) and
    /// [`emit_initial`](Self::emit_initial) build one per call.
    #[inline]
    pub fn emitter(&self) -> Emitter {
        Emitter {
            position: self.emission.prepared(),
            velocity: self.velocity.prepared(),
            initial: self.initial.as_ref().map(|(count, shape)| (*count, shape.prepared())),
            template: Particle {
                position: Vec3::ZERO,
                velocity: Vec3::ZERO,
                orientation: self.orientation,
                color: self.color,
                age: 0.0,
                size: self.size,
                alpha: 1.0,
                mass: self.mass,
            },
            emit_per_frame: self.emit_per_frame,
            max_age: self.max_age,
        }
    }

    /// Emit one particle using this spec's generators.
    #[inline]
    pub fn emit_one(&self, rng: &mut Rng64) -> Particle {
        self.emitter().emit_one(rng)
    }

    /// Emit the frame-0 pre-population (empty when `initial` is unset):
    /// positions from the initial shape, ages spread uniformly over the
    /// lifetime so the kill/emit cycle is already in steady state.
    pub fn emit_initial(&self, rng: &mut Rng64) -> Vec<Particle> {
        let mut out = Vec::new();
        self.emitter().emit_initial_into(rng, &mut out);
        out
    }
}

/// A [`SystemSpec`]'s generators prepared once: the shape and velocity
/// terms that are the same for every particle are computed at construction,
/// so a draw costs its random numbers and the arithmetic on them. Draw
/// order and every operation on a drawn value are those of the un-prepared
/// entry points, which delegate here — there is one sampling path.
#[derive(Clone, Debug)]
pub struct Emitter {
    position: ShapeSampler,
    velocity: VelocitySampler,
    initial: Option<(usize, ShapeSampler)>,
    /// A newborn's properties that are not drawn.
    template: Particle,
    emit_per_frame: usize,
    max_age: Scalar,
}

impl Emitter {
    /// Emit one particle: position, then velocity.
    #[inline]
    pub fn emit_one(&self, rng: &mut Rng64) -> Particle {
        let mut p = self.template;
        self.draw(rng, &mut p);
        p
    }

    /// The drawn properties of a newborn, written over `p`'s.
    #[inline]
    fn draw(&self, rng: &mut Rng64, p: &mut Particle) {
        p.position = self.position.sample(rng);
        p.velocity = self.velocity.sample(rng);
    }

    /// Emit one particle at the end of `out` and hand it back for the
    /// caller's own draws. The cohort loops assemble a newborn in its slot
    /// on purpose: one built on the stack from 4- and 12-byte field stores
    /// and then moved out in 16-byte pieces stalls store forwarding on
    /// every move (measured on the fountain spec: 68 ns per particle
    /// against 52).
    #[inline]
    fn push_one<'a>(&self, rng: &mut Rng64, out: &'a mut Vec<Particle>) -> &'a mut Particle {
        out.push(self.template);
        let p = out.last_mut().expect("just pushed");
        self.draw(rng, p);
        p
    }

    /// Append the frame-0 pre-population to `out` (nothing when the spec
    /// has no `initial`).
    pub fn emit_initial_into(&self, rng: &mut Rng64, out: &mut Vec<Particle>) {
        let Some((count, ref shape)) = self.initial else {
            return;
        };
        let max_age = self.max_age.max(1e-6);
        out.reserve(count);
        for _ in 0..count {
            let p = self.push_one(rng, out);
            p.position = shape.sample(rng);
            p.age = rng.range(0.0, max_age);
        }
    }

    /// Append the cohort the creation action draws for `frame`: the
    /// pre-population on frame 0, then `emit_per_frame` newborns.
    pub fn emit_cohort_into(&self, frame: u64, rng: &mut Rng64, out: &mut Vec<Particle>) {
        if frame == 0 {
            self.emit_initial_into(rng, out);
        }
        out.reserve(self.emit_per_frame);
        for _ in 0..self.emit_per_frame {
            self.push_one(rng, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_id_display_and_ord() {
        assert_eq!(SystemId(3).to_string(), "sys3");
        assert!(SystemId(1) < SystemId(2));
    }

    #[test]
    fn point_emission_is_exact() {
        let mut rng = Rng64::new(1);
        let shape = EmissionShape::Point(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(shape.sample(&mut rng), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn box_emission_in_bounds() {
        let mut rng = Rng64::new(2);
        let shape = EmissionShape::Box { min: Vec3::splat(-2.0), max: Vec3::splat(2.0) };
        for _ in 0..500 {
            let p = shape.sample(&mut rng);
            assert!(p.x >= -2.0 && p.x < 2.0 && p.y >= -2.0 && p.y < 2.0);
        }
    }

    #[test]
    fn sphere_emission_on_shell() {
        let mut rng = Rng64::new(3);
        let c = Vec3::new(1.0, 1.0, 1.0);
        let shape = EmissionShape::Sphere { center: c, radius: 2.0 };
        for _ in 0..200 {
            let p = shape.sample(&mut rng);
            assert!((p.distance(c) - 2.0).abs() < 1e-3);
        }
    }

    #[test]
    fn cone_velocity_respects_speed_and_angle() {
        let mut rng = Rng64::new(4);
        let m =
            VelocityModel::Cone { axis: Vec3::Y, speed_lo: 4.0, speed_hi: 6.0, half_angle: 0.3 };
        for _ in 0..500 {
            let v = m.sample(&mut rng);
            let speed = v.length();
            assert!((3.9..6.1).contains(&speed), "speed {speed}");
            let cos = v.normalized().dot(Vec3::Y);
            assert!(cos >= (0.3f32).cos() - 1e-3, "outside cone: cos={cos}");
        }
    }

    #[test]
    fn emit_one_carries_spec_properties() {
        let spec = SystemSpec::test_spec(7);
        let mut rng = Rng64::new(5);
        let p = spec.emit_one(&mut rng);
        assert_eq!(p.age, 0.0);
        assert_eq!(p.color, spec.color);
        assert_eq!(p.size, spec.size);
        assert_eq!(p.mass, spec.mass);
        assert_eq!(p.orientation, spec.orientation);
    }

    #[test]
    fn deterministic_emission() {
        let spec = SystemSpec::test_spec(1);
        let mut a = Rng64::new(9);
        let mut b = Rng64::new(9);
        for _ in 0..50 {
            assert_eq!(spec.emit_one(&mut a), spec.emit_one(&mut b));
        }
    }
}
