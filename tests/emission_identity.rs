//! Prepared emission is the old emission, bit for bit.
//!
//! `SystemSpec::emitter()` hoists the per-system constants of a draw — a
//! disc's orthonormal basis, a cone's unit axis and `tan(half_angle)` — out
//! of the per-particle path. The oracle below is the per-particle
//! expression as it stood before that, kept here and only here: every
//! shape and velocity variant, and the frame-0 cohorts of the three paper
//! workloads, must come out identical *and* leave the stream where the old
//! code left it.

use psa_core::system::{EmissionShape, VelocityModel};
use psa_core::{Particle, SystemSpec};
use psa_math::{Rng64, Scalar, Vec3};
use psa_workloads::{fountain_scene, snow_scene, vortex_scene, WorkloadSize};

fn old_on_disc(rng: &mut Rng64, r: Scalar, normal: Vec3) -> Vec3 {
    let n = normal.normalized();
    let helper = if n.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    let u = n.cross(helper).normalized();
    let v = n.cross(u);
    let theta = rng.range(0.0, std::f32::consts::TAU);
    let rad = r * rng.unit().sqrt();
    u * (rad * theta.cos()) + v * (rad * theta.sin())
}

fn old_position(shape: &EmissionShape, rng: &mut Rng64) -> Vec3 {
    match shape {
        EmissionShape::Point(p) => *p,
        EmissionShape::Box { min, max } => rng.in_box(*min, *max),
        EmissionShape::Disc { center, radius, normal } => {
            *center + old_on_disc(rng, *radius, *normal)
        }
        EmissionShape::Sphere { center, radius } => *center + rng.on_unit_sphere() * *radius,
    }
}

fn old_velocity(model: &VelocityModel, rng: &mut Rng64) -> Vec3 {
    match model {
        VelocityModel::Constant(v) => *v,
        VelocityModel::Jittered { base, jitter } => *base + rng.in_unit_sphere() * *jitter,
        VelocityModel::Cone { axis, speed_lo, speed_hi, half_angle } => {
            let a = axis.normalized();
            let perp = old_on_disc(rng, half_angle.tan(), a);
            let dir = (a + perp).normalized();
            dir * rng.range(*speed_lo, *speed_hi)
        }
    }
}

fn old_emit_one(spec: &SystemSpec, rng: &mut Rng64) -> Particle {
    Particle {
        position: old_position(&spec.emission, rng),
        velocity: old_velocity(&spec.velocity, rng),
        orientation: spec.orientation,
        color: spec.color,
        age: 0.0,
        size: spec.size,
        alpha: 1.0,
        mass: spec.mass,
    }
}

fn old_emit_initial(spec: &SystemSpec, rng: &mut Rng64) -> Vec<Particle> {
    let Some((count, ref shape)) = spec.initial else {
        return Vec::new();
    };
    (0..count)
        .map(|_| {
            let mut p = old_emit_one(spec, rng);
            p.position = old_position(shape, rng);
            p.age = rng.range(0.0, spec.max_age.max(1e-6));
            p
        })
        .collect()
}

/// Bitwise equality: `PartialEq` on floats would let `0.0 == -0.0` through.
fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

const DRAWS: usize = 10_000;

/// Normals and axes that reach every branch of the basis construction:
/// unit, non-unit, and `|n.x| ≥ 0.9` (the other helper axis).
const DIRECTIONS: [Vec3; 4] =
    [Vec3::Y, Vec3::new(0.3, 2.0, -1.2), Vec3::X, Vec3::new(-4.0, 0.5, 0.25)];

#[test]
fn every_shape_and_velocity_variant_draws_the_old_values() {
    let c = Vec3::new(1.0, -2.0, 0.5);
    let mut shapes = vec![
        EmissionShape::Point(c),
        EmissionShape::Box { min: Vec3::new(-3.0, 0.0, -1.0), max: Vec3::new(2.0, 9.5, 4.0) },
        EmissionShape::Sphere { center: c, radius: 1.75 },
    ];
    let mut models = vec![
        VelocityModel::Constant(Vec3::new(2.0, 3.0, 0.0)),
        VelocityModel::Jittered { base: Vec3::Y * 5.0, jitter: 1.5 },
    ];
    for d in DIRECTIONS {
        shapes.push(EmissionShape::Disc { center: c, radius: 0.3, normal: d });
        for half_angle in [0.0, 0.35, 1.2] {
            models.push(VelocityModel::Cone { axis: d, speed_lo: 4.0, speed_hi: 6.5, half_angle });
        }
    }

    // Un-prepared entry points, one variant at a time.
    for (i, shape) in shapes.iter().enumerate() {
        let (mut new, mut old) = (Rng64::new(i as u64), Rng64::new(i as u64));
        for k in 0..DRAWS {
            let (a, b) = (shape.sample(&mut new), old_position(shape, &mut old));
            assert_eq!(bits(a), bits(b), "{shape:?} draw {k}");
        }
        assert_eq!(new.state(), old.state(), "{shape:?}");
    }
    for (i, model) in models.iter().enumerate() {
        let (mut new, mut old) = (Rng64::new(!(i as u64)), Rng64::new(!(i as u64)));
        for k in 0..DRAWS {
            let (a, b) = (model.sample(&mut new), old_velocity(model, &mut old));
            assert_eq!(bits(a), bits(b), "{model:?} draw {k}");
        }
        assert_eq!(new.state(), old.state(), "{model:?}");
    }

    // The prepared form, every shape × every model through one emitter.
    for (i, shape) in shapes.iter().enumerate() {
        for (j, model) in models.iter().enumerate() {
            let mut spec = SystemSpec::test_spec(0);
            spec.emission = shape.clone();
            spec.velocity = model.clone();
            let emitter = spec.emitter();
            let seed = (i * 100 + j) as u64;
            let (mut new, mut old) = (Rng64::new(seed), Rng64::new(seed));
            for k in 0..DRAWS / 10 {
                let (a, b) = (emitter.emit_one(&mut new), old_emit_one(&spec, &mut old));
                assert_eq!(a, b, "{shape:?} × {model:?} draw {k}");
                assert_eq!(
                    (bits(a.position), bits(a.velocity)),
                    (bits(b.position), bits(b.velocity))
                );
            }
            assert_eq!(new.state(), old.state(), "{shape:?} × {model:?}");
        }
    }
}

#[test]
fn the_paper_workloads_emit_the_old_cohorts() {
    let size = WorkloadSize { systems: 3, particles_per_system: 4_000, scale: 1.0 };
    for (name, scene) in [
        ("fountain", fountain_scene(size)),
        ("snow", snow_scene(size)),
        ("vortex", vortex_scene(size)),
    ] {
        for (sys, setup) in scene.systems.iter().enumerate() {
            let spec = &setup.spec;
            let seed = 0x21 + sys as u64;

            // The un-prepared entry points.
            let (mut new, mut old) = (Rng64::new(seed), Rng64::new(seed));
            assert_eq!(
                spec.emit_initial(&mut new),
                old_emit_initial(spec, &mut old),
                "{name} sys {sys}"
            );
            assert_eq!(spec.emit_one(&mut new), old_emit_one(spec, &mut old), "{name} sys {sys}");
            assert_eq!(new.state(), old.state(), "{name} sys {sys}");

            // What the executors call: frame 0's cohort, then frame 1's,
            // appended to a buffer that already holds something.
            let emitter = spec.emitter();
            let (mut new, mut old) = (Rng64::new(seed), Rng64::new(seed));
            let mut got = vec![Particle::default()];
            emitter.emit_cohort_into(0, &mut new, &mut got);
            emitter.emit_cohort_into(1, &mut new, &mut got);
            let mut want = vec![Particle::default()];
            want.extend(old_emit_initial(spec, &mut old));
            want.extend((0..2 * spec.emit_per_frame).map(|_| old_emit_one(spec, &mut old)));
            assert_eq!(got.len(), 1 + size.particles_per_system + 2 * spec.emit_per_frame);
            assert_eq!(got, want, "{name} sys {sys}");
            assert_eq!(new.state(), old.state(), "{name} sys {sys}");
        }
    }
}
