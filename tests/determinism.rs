//! Bit-determinism of the virtual executor: the property that makes the
//! reproduced tables regenerate identically from the seed.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::workloads::{fountain_scene, snow_scene};

fn run_once(seed: u64) -> RunReport {
    let size = WorkloadSize { systems: 3, particles_per_system: 1200, scale: 25.0 };
    let scene = snow_scene(size);
    let cfg = RunConfig { frames: 8, dt: 0.15, seed, ..Default::default() };
    let mut sim = EventSim::new(scene, cfg, myrinet_gcc(5, 1), size.cost_model());
    sim.run()
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_once(11);
    let b = run_once(11);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
    assert_eq!(a.frames.len(), b.frames.len());
    for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
        assert_eq!(fa.alive, fb.alive);
        assert_eq!(fa.migrated, fb.migrated);
        assert_eq!(fa.balanced, fb.balanced);
        assert_eq!(fa.frame_time.to_bits(), fb.frame_time.to_bits());
    }
    assert_eq!(a.traffic, b.traffic);
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1);
    let b = run_once(2);
    // stochastic emission must actually change the run
    assert_ne!(
        a.frames.iter().map(|f| f.migrated).collect::<Vec<_>>(),
        b.frames.iter().map(|f| f.migrated).collect::<Vec<_>>()
    );
}

#[test]
fn sequential_and_parallel_agree_on_population_without_stochastic_actions() {
    // With no RNG-dependent actions, sequential and any-P parallel runs
    // simulate the exact same particle set, so alive counts must match
    // frame by frame.
    let mut spec = SystemSpec::test_spec(0);
    spec.emit_per_frame = 500;
    spec.max_age = 0.6;
    spec.velocity = psa_core::system::VelocityModel::Constant(Vec3::new(2.0, 3.0, 0.0));
    let mut scene = Scene::new();
    scene.add_system(SystemSetup::new(
        spec,
        ActionList::new()
            .then(Gravity::earth())
            .then(KillOld::new(0.6))
            .then(KillBelow::ground(-50.0))
            .then(MoveParticles),
    ));
    let cfg = RunConfig { frames: 12, dt: 0.1, ..Default::default() };
    let cost = CostModel::default();
    let seq = run_sequential(&scene, &cfg, &cost, 1.0);
    for procs in [2usize, 3, 5] {
        let mut sim =
            EventSim::new(scene.clone(), cfg.clone(), myrinet_gcc(procs, 1), cost.clone());
        let par = sim.run();
        for (fs, fp) in seq.frames.iter().zip(par.frames.iter()) {
            assert_eq!(fs.alive, fp.alive, "frame {} alive mismatch at P={procs}", fs.frame);
        }
    }
}

/// Regression: the *threaded* executor (real OS threads, real channels) is
/// bit-deterministic for a fixed seed once balancing uses the deterministic
/// load metric. Runs the snow workload twice and compares the per-frame
/// particle-state checksums — any drift in exchange order, RNG stream use,
/// or balancing decisions changes a hash. The conservation, partition and
/// Figure-2-order checks run inside every run.
///
/// A run that rasterizes ships the particles behind each digest, one that
/// does not ships the digests alone; both shapes must report the same
/// frames.
#[test]
fn threaded_snow_runs_are_bit_identical() {
    use particle_cluster_anim::runtime::LoadMetric;
    let size = WorkloadSize { systems: 2, particles_per_system: 700, scale: 25.0 };
    let mk = |sink: Option<RenderSink>| {
        let scene = snow_scene(size);
        let cfg = RunConfig {
            frames: 6,
            dt: 0.15,
            seed: 23,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        };
        run_threaded(&scene, &cfg, 3, sink).expect("threaded run failed")
    };
    let view = Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0));
    let rendered = mk(Some(RenderSink::headless(Camera::ortho(view, 64, 48))));
    let a = mk(None);
    assert!(a.frames.iter().all(|f| f.alive > 0));
    for b in [mk(None), rendered] {
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
            assert_eq!(fa.alive, fb.alive, "frame {} population drift", fa.frame);
            assert_eq!(
                fa.checksum, fb.checksum,
                "frame {} checksum drift: particle state is not bit-identical",
                fa.frame
            );
        }
    }
}

#[test]
fn fountain_runs_are_deterministic_too() {
    let size = WorkloadSize { systems: 2, particles_per_system: 900, scale: 10.0 };
    let mk = || {
        let scene = fountain_scene(size);
        let cfg = RunConfig { frames: 6, dt: 0.04, ..Default::default() };
        let mut sim = EventSim::new(scene, cfg, myrinet_gcc(4, 1), size.cost_model());
        sim.run()
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

/// Every pluggable balancing strategy must keep the threaded executor
/// bit-deterministic: same seed, same strategy ⇒ identical per-frame
/// particle-state checksums. This is the cross-executor half of the
/// fingerprint gate — the virtual/event-driven side is pinned by
/// `tests/event_parity.rs` over the same mode list.
#[test]
fn threaded_runs_are_bit_identical_for_every_balancer() {
    use particle_cluster_anim::runtime::{BalanceMode, LoadMetric};
    let size = WorkloadSize { systems: 2, particles_per_system: 600, scale: 25.0 };
    for balance in [
        BalanceMode::dynamic(),
        BalanceMode::decentralized(),
        BalanceMode::diffusive(),
        BalanceMode::hierarchical(),
    ] {
        let mk = || {
            let scene = snow_scene(size);
            let cfg = RunConfig {
                frames: 6,
                dt: 0.15,
                seed: 23,
                balance,
                load_metric: LoadMetric::CountProportional,
                ..Default::default()
            };
            run_threaded(&scene, &cfg, 4, None).expect("threaded run failed")
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.frames.len(), b.frames.len(), "{}", balance.label());
        for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
            assert_eq!(
                fa.checksum,
                fb.checksum,
                "{}: frame {} checksum drift",
                balance.label(),
                fa.frame
            );
        }
    }
}

/// The threaded checksum does not depend on how many calculators hold the
/// particles. Two particles of one system start on either side of x = 0,
/// the boundary between calculators 0 and 1 of a two-way split, and are
/// pulled toward the origin, so they cross process lines as the frames go.
/// The per-frame `(alive, checksum)` — a bit-exact hash of every particle,
/// folded where the particles live — must read the same at 1, 2 and 3
/// calculators.
#[test]
fn threaded_checksums_agree_across_calculator_counts() {
    use particle_cluster_anim::runtime::BalanceMode;
    use psa_core::system::{EmissionShape, VelocityModel};
    let mut s = SystemSpec::test_spec(0);
    s.space = Interval::new(-10.0, 10.0);
    s.max_age = f32::MAX;
    s.velocity = VelocityModel::Constant(Vec3::ZERO);
    s.initial = Some((1, EmissionShape::Point(Vec3::new(-0.25, 0.0, 0.0))));
    s.emission = EmissionShape::Point(Vec3::new(0.25, 0.0, 0.0));
    s.emit_per_frame = 1;
    let mut scene = Scene::new();
    let pull = OrbitPoint::new(Vec3::ZERO, 4.0);
    scene.add_system(SystemSetup::new(s, ActionList::new().then(pull).then(MoveParticles)));

    let cfg =
        RunConfig { frames: 20, dt: 0.05, balance: BalanceMode::Static, ..Default::default() };
    let run = |n: usize| run_threaded(&scene, &cfg, n, None).expect("threaded run failed");
    let frames = |rep: &RunReport| -> Vec<(u64, u64)> {
        rep.frames.iter().map(|f| (f.alive, f.checksum)).collect()
    };
    let one = frames(&run(1));
    assert_eq!(one.len(), 20);
    assert_eq!(one[0].0, 2);
    let two = run(2);
    assert!(two.frames.iter().any(|f| f.migrated > 0), "particles must cross x = 0");
    assert_eq!(frames(&two), one, "2 calculators");
    assert_eq!(frames(&run(3)), one, "3 calculators");
}
