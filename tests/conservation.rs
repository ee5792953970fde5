//! Particle conservation across the distributed machinery.
//!
//! Exchange, balancing donations, domain reshaping and the render shipping
//! must never lose or duplicate a particle: alive = emitted − killed, on
//! every executor, every frame.

use particle_cluster_anim::prelude::*;
use psa_runtime::LoadMetric;

/// Scene with NO killing actions at all: population must equal the exact
/// emission total forever, whatever the balancer does.
fn lossless_scene(systems: u16) -> Scene {
    let mut scene = Scene::new();
    for id in 0..systems {
        let mut spec = SystemSpec::test_spec(id);
        spec.emit_per_frame = 321;
        spec.max_age = f32::MAX;
        // strong sideways motion to force migration + balancing
        spec.velocity = psa_core::system::VelocityModel::Jittered {
            base: Vec3::new(3.0, 0.5, 0.0),
            jitter: 2.0,
        };
        spec.space = Interval::new(-10.0, 10.0);
        scene.add_system(SystemSetup::new(
            spec,
            ActionList::new().then(RandomAccel::new(3.0)).then(MoveParticles),
        ));
    }
    scene
}

#[test]
fn virtual_executor_conserves_particles() {
    let scene = lossless_scene(3);
    let cfg = RunConfig {
        frames: 10,
        dt: 0.1,
        balance: BalanceMode::Dynamic(BalancerConfig {
            rel_threshold: 0.05,
            ..BalancerConfig::fixed(4)
        }),
        ..Default::default()
    };
    let mut sim = EventSim::new(scene, cfg, myrinet_gcc(6, 1), CostModel::default());
    let rep = sim.run();
    assert!(
        rep.frames.iter().map(|f| f.balanced).sum::<u64>() > 0,
        "test must exercise balancing transfers"
    );
    for f in &rep.frames {
        let expected = 3 * 321 * (f.frame + 1);
        assert_eq!(f.alive, expected, "frame {}: alive {} != emitted {expected}", f.frame, f.alive);
    }
}

/// The domain broadcast at its edge rank counts: the paper's balancer
/// evaluates — and so broadcasts one shared map — every round, at one
/// calculator (a two-cut map) and at more calculators than particles. Each
/// run conserves, loses nothing and repeats itself exactly.
#[test]
fn every_round_broadcasts_at_edge_rank_counts() {
    let paper = BalanceMode::Dynamic(BalancerConfig::paper());
    let scene = |per_frame| {
        let mut scene = lossless_scene(2);
        scene.systems.iter_mut().for_each(|s| s.spec.emit_per_frame = per_frame);
        scene
    };
    // Virtual time: 1 calculator, and 64 over 2 × 10 new particles a frame
    // (at most 50 a system by the last frame).
    for (calcs, per_frame) in [(1, 321), (64, 10)] {
        let cfg = RunConfig { frames: 5, dt: 0.1, balance: paper, ..Default::default() };
        let run = || {
            EventSim::new(
                scene(per_frame),
                cfg.clone(),
                myrinet_gcc(calcs, 1),
                CostModel::default(),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.lost_particles, 0, "{calcs} calculators");
        for f in &a.frames {
            assert_eq!(f.alive, 2 * per_frame as u64 * (f.frame + 1), "{calcs}: frame {}", f.frame);
        }
        assert_eq!(a.fingerprint(), b.fingerprint(), "{calcs} calculators: not repeatable");
    }
    // Threads: 1 and 3 calculators; count-proportional loads keep the
    // balancer off the wall clock, so the checksums repeat.
    for calcs in [1, 3] {
        let cfg = RunConfig {
            frames: 6,
            dt: 0.1,
            balance: paper,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        };
        let run = || run_threaded(&scene(321), &cfg, calcs, None).expect("threaded run failed");
        let (a, b) = (run(), run());
        assert_eq!(a.lost_particles, 0, "{calcs} threads");
        let sums =
            |r: &RunReport| r.frames.iter().map(|f| (f.alive, f.checksum)).collect::<Vec<_>>();
        assert_eq!(sums(&a), sums(&b), "{calcs} threads: not repeatable");
        for f in &a.frames {
            assert_eq!(f.alive, 2 * 321 * (f.frame + 1), "{calcs} threads: frame {}", f.frame);
        }
    }
}

#[test]
fn threaded_executor_conserves_particles() {
    let scene = lossless_scene(2);
    let cfg = RunConfig { frames: 8, dt: 0.1, ..Default::default() };
    let rep = run_threaded(&scene, &cfg, 4, None).expect("threaded run failed");
    for f in &rep.frames {
        let expected = 2 * 321 * (f.frame + 1);
        assert_eq!(f.alive, expected, "frame {} alive", f.frame);
    }
}

#[test]
fn kills_are_the_only_sink() {
    // With kill-old active: alive = emitted − killed exactly. Run the
    // sequential executor as the oracle and the virtual one in parallel
    // with deterministic actions.
    let mut spec = SystemSpec::test_spec(0);
    spec.emit_per_frame = 400;
    spec.max_age = 0.45;
    spec.velocity = psa_core::system::VelocityModel::Constant(Vec3::new(4.0, 1.0, 0.0));
    let mut scene = Scene::new();
    scene.add_system(SystemSetup::new(
        spec,
        ActionList::new().then(KillOld::new(0.45)).then(MoveParticles),
    ));
    let cfg = RunConfig { frames: 15, dt: 0.1, ..Default::default() };
    let seq = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
    let mut sim = EventSim::new(scene, cfg, myrinet_gcc(5, 1), CostModel::default());
    let par = sim.run();
    // steady state: 4 frames of life ⇒ 400×5 = 2000 alive (ages 0..0.45 at
    // dt 0.1 survive 5 moves)
    let last = par.frames.last().unwrap().alive;
    assert_eq!(last, seq.frames.last().unwrap().alive);
    assert_eq!(last, 2000);
}

#[test]
fn balancing_moves_but_never_loses() {
    // Start grossly imbalanced via a corner emitter; compare total alive
    // against the no-balancing run.
    let mut spec = SystemSpec::test_spec(0);
    spec.emission = psa_core::system::EmissionShape::Box {
        min: Vec3::new(-9.9, 0.0, -1.0),
        max: Vec3::new(-8.9, 4.0, 1.0),
    };
    spec.emit_per_frame = 600;
    spec.max_age = f32::MAX;
    spec.velocity = psa_core::system::VelocityModel::Constant(Vec3::ZERO);
    let mut scene = Scene::new();
    scene.add_system(SystemSetup::new(spec, ActionList::new().then(MoveParticles)));
    let mk = |balance| {
        let cfg = RunConfig { frames: 12, dt: 0.1, balance, ..Default::default() };
        let mut sim = EventSim::new(scene.clone(), cfg, myrinet_gcc(8, 1), CostModel::default());
        sim.run()
    };
    let slb = mk(BalanceMode::Static);
    let dlb = mk(BalanceMode::Dynamic(BalancerConfig {
        rel_threshold: 0.02,
        ..BalancerConfig::fixed(2)
    }));
    for (a, b) in slb.frames.iter().zip(dlb.frames.iter()) {
        assert_eq!(a.alive, b.alive, "balancing changed the population at frame {}", a.frame);
    }
    // and it genuinely flattened the imbalance
    assert!(dlb.frames.last().unwrap().imbalance < slb.frames.last().unwrap().imbalance * 0.5);
}

/// A scene with no systems is a legal (if dull) animation: every executor
/// renders `cfg.frames` empty frames instead of refusing the run.
#[test]
fn empty_scene_yields_empty_frames_on_every_executor() {
    let scene = Scene::new();
    let cfg = RunConfig { frames: 5, dt: 0.1, warmup: 0, ..Default::default() };
    let cost = CostModel::default();
    let dots = RenderSink::headless(Camera::ortho(Aabb::centered_cube(10.0), 16, 12));
    let streaks =
        RenderSink { streaks: std::num::NonZeroUsize::new(3).map(|s| (1.2, s)), ..dots.clone() };
    let reports = [
        ("sequential", run_sequential(&scene, &cfg, &cost, 1.0)),
        ("threaded", run_threaded(&scene, &cfg, 3, None).expect("threaded run failed")),
        ("threaded+dots", run_threaded(&scene, &cfg, 3, Some(dots)).expect("threaded dots failed")),
        (
            "threaded+streaks",
            run_threaded(&scene, &cfg, 1, Some(streaks)).expect("threaded streaks failed"),
        ),
        (
            "virtual",
            EventSim::new(scene.clone(), cfg.clone(), myrinet_gcc(3, 1), cost.clone()).run(),
        ),
    ];
    for (executor, rep) in reports {
        assert_eq!(rep.frames.len(), 5, "{executor}: frame count");
        assert!(rep.frames.iter().all(|f| f.alive == 0), "{executor}: particles from nowhere");
    }
}

/// Action parameters are not refused up front, so a NaN gravity makes
/// NaN positions in the first frame's calculus. No slice can own such a
/// particle; the leaver scan sees it on every build, and both checked
/// executors fail the run with the typed violation instead of carrying it.
#[test]
fn a_non_finite_position_fails_the_run_typed_on_both_checked_executors() {
    use particle_cluster_anim::core::InvariantViolation;
    use particle_cluster_anim::runtime::ProtocolError;
    let mut scene = lossless_scene(1);
    let nan_gravity = Gravity::new(Vec3::new(0.0, f32::NAN, 0.0));
    scene.systems[0].actions = ActionList::new().then(nan_gravity).then(MoveParticles).into();
    let cfg = RunConfig { frames: 3, dt: 0.1, ..Default::default() };
    let mut sim =
        EventSim::new(scene.clone(), cfg.clone(), myrinet_gcc(3, 1), CostModel::default());
    for (executor, outcome) in
        [("virtual", sim.try_run()), ("threaded", run_threaded(&scene, &cfg, 2, None))]
    {
        match outcome {
            Err(ProtocolError::Invariant(InvariantViolation::NonFinitePosition {
                frame: 0,
                system: 0,
                position,
                ..
            })) => assert!(position[1].is_nan(), "{executor}: {position:?}"),
            other => panic!("{executor}: expected a non-finite position, got {other:?}"),
        }
    }
}
