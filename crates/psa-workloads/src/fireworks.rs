//! Fireworks — an extra workload used by the examples (the kind of "wide
//! variety of effects" the McAllister API is known for).

use psa_core::actions::{ActionList, Fade, Gravity, KillOld, MoveParticles};
use psa_core::system::{EmissionShape, VelocityModel};
use psa_core::{SystemId, SystemSpec};
use psa_math::{Interval, Vec3};
use psa_runtime::{Scene, SystemSetup};

/// Build a fireworks scene: `bursts` shells at different positions/colors.
/// Each burst emits an expanding sphere shell that fades and falls.
pub fn fireworks_scene(bursts: usize, particles_per_burst: usize) -> Scene {
    let mut scene = Scene::new();
    let palette = [
        Vec3::new(1.0, 0.35, 0.2),
        Vec3::new(0.3, 0.7, 1.0),
        Vec3::new(1.0, 0.85, 0.3),
        Vec3::new(0.5, 1.0, 0.5),
        Vec3::new(1.0, 0.4, 0.9),
    ];
    for i in 0..bursts {
        let cx = -24.0 + 48.0 * (i as f32 + 0.5) / bursts as f32;
        let cy = 18.0 + 6.0 * ((i * 7919) % 5) as f32 / 5.0;
        let center = Vec3::new(cx, cy, 0.0);
        let spec = SystemSpec {
            id: SystemId(i as u16),
            name: format!("burst-{i}"),
            space: Interval::new(-30.0, 30.0),
            emission: EmissionShape::Sphere { center, radius: 0.3 },
            velocity: VelocityModel::Jittered { base: Vec3::ZERO, jitter: 9.0 },
            orientation: Vec3::Y,
            color: palette[i % palette.len()],
            size: 0.12,
            mass: 0.3,
            emit_per_frame: particles_per_burst / 20,
            max_age: 2.0,
            initial: Some((particles_per_burst, EmissionShape::Sphere { center, radius: 2.0 })),
        };
        let actions = ActionList::new()
            .then(Gravity::new(Vec3::new(0.0, -4.0, 0.0)))
            .then(Fade::new(0.55, true))
            .then(KillOld::new(2.0))
            .then(MoveParticles);
        scene.add_system(SystemSetup::new(spec, actions));
    }
    scene
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::CostModel;
    use psa_runtime::{run_sequential, RunConfig};

    #[test]
    fn bursts_are_separate_systems() {
        let s = fireworks_scene(3, 500);
        assert_eq!(s.systems.len(), 3);
        assert_ne!(s.systems[0].spec.color, s.systems[1].spec.color);
    }

    #[test]
    fn population_decays_by_fade_and_age() {
        let s = fireworks_scene(1, 1000);
        let cfg = RunConfig { frames: 25, dt: 0.12, ..Default::default() };
        let r = run_sequential(&s, &cfg, &CostModel::default(), 1.0);
        let first = r.frames.first().unwrap().alive;
        let last = r.frames.last().unwrap().alive;
        assert!(first > 800, "initial burst present: {first}");
        assert!(last < first, "sparks fade/age out: {last} < {first}");
    }
}
