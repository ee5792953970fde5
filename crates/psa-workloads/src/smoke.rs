//! Smoke — a rising, wind-blown plume (the intro's motivating phenomena:
//! "smoke, steam, fog, dust and wind").

use psa_core::actions::{ActionList, Fade, KillOld, MoveParticles, RandomAccel, Wind};
use psa_core::system::{EmissionShape, VelocityModel};
use psa_core::{SystemId, SystemSpec};
use psa_math::{Interval, Vec3};
use psa_runtime::{Scene, SystemSetup};

/// Build a smoke scene: `stacks` chimneys emitting buoyant puffs into a
/// cross-wind along +x (which steadily pushes the plume across domain
/// boundaries — a gentle irregular-load case between snow and fountain).
pub fn smoke_scene(stacks: usize, particles_per_stack: usize) -> Scene {
    let mut scene = Scene::new();
    for i in 0..stacks {
        let x = -20.0 + 40.0 * (i as f32 + 0.5) / stacks as f32;
        let spec = SystemSpec {
            id: SystemId(i as u16),
            name: format!("smoke-{i}"),
            space: Interval::new(-30.0, 50.0),
            emission: EmissionShape::Disc {
                center: Vec3::new(x, 1.0, 0.0),
                radius: 0.6,
                normal: Vec3::Y,
            },
            velocity: VelocityModel::Jittered { base: Vec3::new(0.0, 3.0, 0.0), jitter: 0.8 },
            orientation: Vec3::Y,
            color: Vec3::new(0.55, 0.55, 0.6),
            size: 0.4,
            mass: 0.05,
            emit_per_frame: particles_per_stack / 50,
            max_age: 6.0,
            initial: Some((
                particles_per_stack,
                EmissionShape::Box {
                    min: Vec3::new(x - 2.0, 1.0, -2.0),
                    max: Vec3::new(x + 10.0, 16.0, 2.0),
                },
            )),
        };
        let actions = ActionList::new()
            .then(Wind::new(Vec3::new(2.5, 0.5, 0.0), 0.8))
            .then(RandomAccel::new(0.9))
            .then(Fade::new(0.12, true))
            .then(KillOld::new(6.0))
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
    fn smoke_scene_builds() {
        let s = smoke_scene(2, 1000);
        assert_eq!(s.systems.len(), 2);
        assert_eq!(s.systems[0].spec.emit_per_frame, 20);
    }

    #[test]
    fn plume_survives_and_drifts() {
        let s = smoke_scene(1, 2000);
        let cfg = RunConfig { frames: 20, dt: 0.12, ..Default::default() };
        let r = run_sequential(&s, &cfg, &CostModel::default(), 1.0);
        let last = r.frames.last().unwrap().alive;
        assert!(last > 500, "plume alive: {last}");
    }
}
