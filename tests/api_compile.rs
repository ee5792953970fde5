//! The API on top of the model: a scene written with the McAllister-style
//! API, compiled, runs on the cluster runtime and keeps, frame by frame,
//! the population immediate mode keeps.
//!
//! The fountain draws nothing (a `Point` position and a `Point` velocity),
//! so every executor holds the same particles whatever its calculator
//! count; `alive` must equal the immediate-mode group's length at the end
//! of every frame, on `run_sequential` and on `run_threaded` at 1, 2 and 3
//! calculators.

use cluster_sim::CostModel;
use psa_api::{Context, PDomain};
use psa_core::objects::ExternalObject;
use psa_core::{SystemId, SystemSpec};
use psa_math::{Aabb, Vec3};
use psa_runtime::{run_sequential, run_threaded, RunConfig, Scene, SystemSetup};

const FRAMES: u64 = 70;
const DT: f32 = 0.05;

/// One frame of the fountain: a source, then the calls `compile` hands
/// over. Particles cross the calculators' domain boundaries on the way to
/// the position kill at `x > 1`.
fn frame(ctx: &mut Context) {
    ctx.p_new_frame();
    ctx.p_source(40);
    ctx.p_gravity(Vec3::new(0.0, -9.81, 0.0));
    ctx.p_bounce(ExternalObject::ground(0.0), 0.1, 0.7);
    ctx.p_kill_outside(Aabb::new(Vec3::new(-10.0, -1.0, -5.0), Vec3::new(1.0, 20.0, 5.0)));
    ctx.p_kill_old(3.0);
    ctx.p_move();
}

/// The fountain in immediate mode — its group length after every frame —
/// and compiled into a one-system scene.
fn fountain() -> (Vec<u64>, Scene) {
    let mut ctx = Context::new(7);
    ctx.p_gen_particle_group("fountain", 100_000);
    ctx.p_time_step(DT);
    ctx.p_position_domain(PDomain::Point(Vec3::new(-8.0, 0.5, 0.0)));
    ctx.p_velocity_domain(PDomain::Point(Vec3::new(5.0, 7.0, 0.0)));
    frame(&mut ctx);
    let (emit_per_frame, emission, velocity, actions) = ctx.compile().expect("exact domains");
    let mut alive = vec![ctx.current().len() as u64];
    for _ in 1..FRAMES {
        frame(&mut ctx);
        alive.push(ctx.current().len() as u64);
    }
    let spec = SystemSpec {
        name: "api-fountain".into(),
        emission,
        velocity,
        emit_per_frame,
        ..SystemSpec::test_spec(0)
    };
    let mut scene = Scene::new();
    assert_eq!(scene.add_system(SystemSetup::new(spec, actions)), SystemId(0));
    (alive, scene)
}

fn alive_per_frame(report: &psa_runtime::RunReport) -> Vec<u64> {
    report.frames.iter().map(|f| f.alive).collect()
}

#[test]
fn compiled_fountain_keeps_the_immediate_mode_population() {
    let (want, scene) = fountain();
    // Every particle flies the same arc, so one killer binds: the position
    // kill, at 37 frames of age, before kill-old's 60. Once it does, each
    // frame kills the 40 particles that frame's source adds.
    assert_eq!(want[36], 37 * 40);
    assert!(want[36..].iter().all(|&n| n == 37 * 40), "{want:?}");
    let cfg = RunConfig { frames: FRAMES, dt: DT, seed: 11, ..Default::default() };
    let seq = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
    assert_eq!(alive_per_frame(&seq), want, "run_sequential");
    for calculators in 1..=3 {
        let report = run_threaded(&scene, &cfg, calculators, None).expect("threaded run");
        assert_eq!(alive_per_frame(&report), want, "run_threaded on {calculators} calculators");
    }
}
