//! The snow experiment (paper §5.1).
//!
//! "For each frame of this simulation, we create new particles, apply a
//! random acceleration on the particles, simulate collision, eliminate old
//! particles and finally move the particles through the space. The
//! particles tend to remain in their original domain since their movement
//! is mainly vertical."
//!
//! Geometry: snow falls inside a column `x ∈ [-40, 40]` (the decomposition
//! axis), emitted in a thin cloud layer near the top and killed at the
//! ground. A sphere obstacle provides the "collision with object obj" step
//! of Algorithm 1. The flutter acceleration is calibrated so that roughly
//! 0.2–0.4 % of particles cross a 16-way domain boundary per frame —
//! reproducing the paper's ~560 particles/process/frame exchange volume.

use psa_core::actions::{ActionList, BounceOff, KillBelow, KillOld, MoveParticles, RandomAccel};
use psa_core::objects::ExternalObject;
use psa_core::system::{EmissionShape, VelocityModel};
use psa_core::{SystemId, SystemSpec};
use psa_math::{Interval, Vec3};
use psa_runtime::{Scene, SystemSetup};

use crate::WorkloadSize;

/// Horizontal extent of the snow column (the decomposition axis).
pub const SNOW_SPACE: Interval = Interval { lo: -40.0, hi: 40.0 };
/// Cloud layer height range.
pub const CLOUD_Y: (f32, f32) = (28.0, 34.0);
/// Terminal fall speed, units/second.
pub const FALL_SPEED: f32 = 5.0;
/// Frame time step.
pub const SNOW_DT: f32 = 0.15;
/// Frames a flake lives (cloud to ground at the fall speed).
pub const SNOW_LIFETIME_FRAMES: u64 = 40;
/// Random flutter acceleration magnitude.
pub const FLUTTER: f32 = 0.28;

/// Build the snow scene.
pub fn snow_scene(size: WorkloadSize) -> Scene {
    let mut scene = Scene::new();
    let lifetime = SNOW_LIFETIME_FRAMES as f32 * SNOW_DT;
    for i in 0..size.systems {
        let spec = SystemSpec {
            id: SystemId(i as u16),
            name: format!("snow-{i}"),
            space: SNOW_SPACE,
            emission: EmissionShape::Box {
                min: Vec3::new(SNOW_SPACE.lo, CLOUD_Y.0, -4.0),
                max: Vec3::new(SNOW_SPACE.hi, CLOUD_Y.1, 4.0),
            },
            velocity: VelocityModel::Jittered {
                base: Vec3::new(0.0, -FALL_SPEED, 0.0),
                jitter: 0.25,
            },
            orientation: Vec3::Y,
            color: Vec3::new(0.95, 0.96, 1.0),
            size: 0.06,
            mass: 0.1,
            emit_per_frame: size.particles_per_system / SNOW_LIFETIME_FRAMES as usize,
            max_age: lifetime,
            initial: Some((
                size.particles_per_system,
                // Steady state: flakes everywhere in the fall column.
                EmissionShape::Box {
                    min: Vec3::new(SNOW_SPACE.lo, 0.5, -4.0),
                    max: Vec3::new(SNOW_SPACE.hi, CLOUD_Y.1, 4.0),
                },
            )),
        };
        let actions = ActionList::new()
            .then(RandomAccel::new(FLUTTER))
            .then(BounceOff::new(
                ExternalObject::Sphere { center: Vec3::new(6.0, 8.0, 0.0), radius: 3.0 },
                0.15,
                0.6,
            ))
            .then(KillOld::new(lifetime))
            .then(KillBelow::ground(0.0))
            .then(MoveParticles);
        scene.add_system(SystemSetup::new(spec, actions));
    }
    scene.add_object(ExternalObject::ground(0.0), Vec3::new(0.75, 0.78, 0.85));
    scene.add_object(
        ExternalObject::Sphere { center: Vec3::new(6.0, 8.0, 0.0), radius: 3.0 },
        Vec3::new(0.35, 0.3, 0.3),
    );
    scene
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::CostModel;
    use psa_runtime::{run_sequential, RunConfig};

    #[test]
    fn snow_scene_shape() {
        let s = snow_scene(WorkloadSize::test());
        assert_eq!(s.systems.len(), 2);
        assert_eq!(s.objects.len(), 2);
        let spec = &s.systems[0].spec;
        assert_eq!(spec.space, SNOW_SPACE);
        assert!(spec.initial.is_some());
        // emission × lifetime ≈ steady population
        assert_eq!(
            spec.emit_per_frame * SNOW_LIFETIME_FRAMES as usize,
            (WorkloadSize::test().particles_per_system / SNOW_LIFETIME_FRAMES as usize)
                * SNOW_LIFETIME_FRAMES as usize
        );
    }

    #[test]
    fn snow_population_is_steady() {
        let size = WorkloadSize { systems: 1, particles_per_system: 2000, scale: 1.0 };
        let scene = snow_scene(size);
        let cfg = RunConfig { frames: 20, dt: SNOW_DT, ..Default::default() };
        let r = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
        let first = r.frames.first().unwrap().alive as f64;
        let last = r.frames.last().unwrap().alive as f64;
        // within ±25% of target and not collapsing/exploding
        assert!((0.7..1.3).contains(&(first / 2000.0)), "first {first}");
        assert!((0.7..1.3).contains(&(last / 2000.0)), "last {last}");
    }

    #[test]
    fn snow_motion_is_mostly_vertical() {
        // The paper's premise: snow stays in its domain. Check that per-
        // frame horizontal displacement is far smaller than vertical.
        let size = WorkloadSize { systems: 1, particles_per_system: 1000, scale: 1.0 };
        let scene = snow_scene(size);
        let mut rng = psa_math::Rng64::new(7);
        let spec = &scene.systems[0].spec;
        let mut dx = 0.0f64;
        let mut dy = 0.0f64;
        for _ in 0..200 {
            let v = spec.velocity.sample(&mut rng);
            dx += (v.x.abs() * SNOW_DT) as f64;
            dy += (v.y.abs() * SNOW_DT) as f64;
        }
        assert!(dy > 5.0 * dx, "vertical {dy} vs horizontal {dx}");
    }
}
