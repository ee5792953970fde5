//! The paper's discussion-level features, implemented and tested: the §6
//! future-work decentralized balancer.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::workloads::{fountain, fountain_scene};

fn size() -> WorkloadSize {
    WorkloadSize { systems: 8, particles_per_system: 3_000, scale: 130.0 }
}

fn run_with(scene: &Scene, balance: BalanceMode, frames: u64) -> RunReport {
    let cfg =
        RunConfig { frames, dt: fountain::FOUNTAIN_DT, warmup: 3, balance, ..Default::default() };
    let mut sim = EventSim::new(scene.clone(), cfg, myrinet_gcc(8, 1), size().cost_model());
    sim.run()
}

#[test]
fn decentralized_balancer_flattens_irregular_load() {
    let scene = fountain_scene(size());
    let slb = run_with(&scene, BalanceMode::Static, 20);
    let dec = run_with(&scene, BalanceMode::decentralized(), 20);
    assert!(
        dec.frames.last().unwrap().imbalance < slb.frames.last().unwrap().imbalance * 0.6,
        "decentralized balancing must flatten load: {} vs {}",
        dec.frames.last().unwrap().imbalance,
        slb.frames.last().unwrap().imbalance
    );
    assert!(
        dec.steady_time() < slb.steady_time(),
        "and that must pay off in time: {:.2} vs {:.2}",
        dec.steady_time(),
        slb.steady_time()
    );
}

#[test]
fn decentralized_conserves_particles() {
    let mut spec = SystemSpec::test_spec(0);
    spec.emit_per_frame = 500;
    spec.max_age = f32::MAX;
    spec.emission = psa_core::system::EmissionShape::Box {
        min: Vec3::new(-9.5, 0.0, -1.0),
        max: Vec3::new(-6.0, 4.0, 1.0),
    };
    spec.velocity = psa_core::system::VelocityModel::Jittered { base: Vec3::ZERO, jitter: 2.0 };
    let mut scene = Scene::new();
    scene.add_system(SystemSetup::new(
        spec,
        ActionList::new().then(RandomAccel::new(2.0)).then(MoveParticles),
    ));
    let cfg = RunConfig {
        frames: 12,
        dt: 0.1,
        balance: BalanceMode::Decentralized(BalancerConfig {
            rel_threshold: 0.05,
            ..BalancerConfig::fixed(4)
        }),
        ..Default::default()
    };
    let mut sim = EventSim::new(scene, cfg, myrinet_gcc(6, 1), CostModel::default());
    let rep = sim.run();
    assert!(
        rep.frames.iter().map(|f| f.balanced).sum::<u64>() > 0,
        "decentralized transfers must have happened"
    );
    for f in &rep.frames {
        assert_eq!(f.alive, 500 * (f.frame + 1), "frame {}", f.frame);
    }
}

#[test]
fn decentralized_and_centralized_reach_similar_balance() {
    let scene = fountain_scene(size());
    let dlb = run_with(&scene, BalanceMode::dynamic(), 20);
    let dec = run_with(&scene, BalanceMode::decentralized(), 20);
    let (a, b) = (dlb.frames.last().unwrap().imbalance, dec.frames.last().unwrap().imbalance);
    assert!((a - b).abs() < 0.35, "both balancers converge to comparable imbalance: {a} vs {b}");
}
