//! Reproduces Figure 2: the per-frame protocol event order.
//!
//! The paper's Figure 2 is a sequence diagram of one frame under dynamic
//! load balancing. We run the virtual executor with tracing on a scene
//! engineered to trigger a balancing transfer and assert that the recorded
//! protocol events appear in exactly the diagram's order — one pass per
//! particle system.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::runtime::trace::{
    figure2_passes, matches_figure2, ProtocolEvent, FIGURE2_ORDER,
};

/// A deliberately imbalanced scene of `systems` systems: every emitter sits
/// in one corner so the balancer must act every frame early on.
fn imbalanced_scene(systems: u16) -> Scene {
    let mut s = Scene::new();
    for id in 0..systems {
        let mut spec = SystemSpec::test_spec(id);
        spec.space = Interval::new(-10.0, 10.0);
        spec.emission = psa_core::system::EmissionShape::Box {
            min: Vec3::new(-9.5, 0.0, -1.0),
            max: Vec3::new(-7.5, 5.0, 1.0),
        };
        spec.emit_per_frame = 800;
        spec.max_age = 100.0; // no deaths; population concentrates
        s.add_system(SystemSetup::new(
            spec,
            ActionList::new().then(Gravity::new(Vec3::ZERO)).then(MoveParticles),
        ));
    }
    s
}

#[test]
fn frame_events_match_figure2_order() {
    let cfg = RunConfig {
        frames: 4,
        dt: 0.05,
        balance: BalanceMode::Dynamic(BalancerConfig {
            rel_threshold: 0.05,
            ..BalancerConfig::fixed(8)
        }),
        ..Default::default()
    };
    let cluster = myrinet_gcc(4, 1);
    let mut sim =
        EventSim::new(imbalanced_scene(1), cfg, cluster, CostModel::default()).with_trace();
    let report = sim.run();
    assert!(report.frames.iter().any(|f| f.balanced > 0), "balancer must have acted");

    // Find a frame where a transfer happened; its trace must be the full
    // Figure-2 sequence.
    let trace = sim.trace();
    let full_frame = (0..4)
        .map(|f| trace.frame(f))
        .find(|ev| ev.len() == FIGURE2_ORDER.len())
        .expect("some frame exercised the full protocol");
    assert!(matches_figure2(&full_frame), "events out of order: {full_frame:?}");
}

#[test]
fn static_balancing_skips_balance_events() {
    let cfg = RunConfig { frames: 2, dt: 0.05, balance: BalanceMode::Static, ..Default::default() };
    let cluster = myrinet_gcc(4, 1);
    let mut sim =
        EventSim::new(imbalanced_scene(1), cfg, cluster, CostModel::default()).with_trace();
    sim.run();
    let events = sim.trace().frame(1);
    assert!(!events.contains(&ProtocolEvent::LoadBalancingEvaluation));
    assert!(!events.contains(&ProtocolEvent::LoadBalanceBetweenCalculators));
    // but the compute pipeline still happened, in order
    let idx = |e: ProtocolEvent| events.iter().position(|&x| x == e).unwrap();
    assert!(idx(ProtocolEvent::ParticleCreation) < idx(ProtocolEvent::Calculus));
    assert!(idx(ProtocolEvent::Calculus) < idx(ProtocolEvent::ParticleExchange));
    assert!(idx(ProtocolEvent::ParticleExchange) < idx(ProtocolEvent::ImageGeneration));
}

#[test]
fn every_system_makes_its_own_figure2_pass() {
    let n_sys = 3;
    let frames = 4;
    let cfg = RunConfig { frames, dt: 0.05, balance: BalanceMode::dynamic(), ..Default::default() };
    let cluster = myrinet_gcc(4, 1);
    let mut sim = EventSim::new(imbalanced_scene(n_sys as u16), cfg, cluster, CostModel::default())
        .with_trace();
    let report = sim.try_run().expect("a clean run");
    assert!(report.frames.iter().any(|f| f.balanced > 0), "balancer must have acted");
    for f in 0..frames {
        let events = sim.trace().frame(f);
        assert_eq!(figure2_passes(&events), n_sys, "frame {f}: {events:?}");
        let created = events.iter().filter(|&&e| e == ProtocolEvent::ParticleCreation).count();
        assert_eq!(created, n_sys, "frame {f}: one creation per system");
    }
}

/// A simulator that runs twice records each run into a fresh trace: the
/// log holds one run's frame 0, not two runs' appended, and the second run
/// repeats the first.
#[test]
fn a_rerun_records_into_a_fresh_trace() {
    let cfg = RunConfig { frames: 3, dt: 0.05, ..Default::default() };
    let mut sim = EventSim::new(imbalanced_scene(1), cfg, myrinet_gcc(4, 1), CostModel::default())
        .with_trace();
    let first = sim.try_run().expect("first run");
    let events = sim.trace().frame(0);
    assert_eq!(figure2_passes(&events), 1, "{events:?}");
    let second = sim.try_run().expect("second run");
    assert_eq!(sim.trace().frame(0), events, "the second run's log holds one run");
    assert_eq!(second.fingerprint(), first.fingerprint());
}
