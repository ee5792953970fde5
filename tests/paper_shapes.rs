//! The paper's qualitative results, asserted as tests.
//!
//! These are the "shape" claims of the evaluation section — who wins,
//! where, and why — checked at reduced scale so they run in CI time.
//! EXPERIMENTS.md records the quantitative comparison at full scale.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::workloads::{fountain, fountain_scene, snow_scene};

const SCALE: f64 = 100.0;

fn size() -> WorkloadSize {
    WorkloadSize { systems: 8, particles_per_system: 4_000, scale: SCALE }
}

fn speedup(scene: &Scene, dt: f32, procs: usize, space: SpaceMode, balance: BalanceMode) -> f64 {
    let cost = size().cost_model();
    let cfg = RunConfig { frames: 18, dt, warmup: 3, space, balance, ..Default::default() };
    let seq = run_sequential(scene, &cfg, &cost, 1.0);
    let mut sim = EventSim::new(scene.clone(), cfg, myrinet_gcc(procs, 1), cost);
    let par = sim.run();
    seq.steady_time() / par.steady_time()
}

#[test]
fn snow_is_slb_starves_odd_process_counts() {
    // Table 1, IS-SLB column: odd P < 1.0, even P ≈ 1.5-1.8, flat in P.
    let scene = snow_scene(size());
    let odd = speedup(&scene, 0.15, 5, SpaceMode::Infinite, BalanceMode::Static);
    let even = speedup(&scene, 0.15, 6, SpaceMode::Infinite, BalanceMode::Static);
    let even8 = speedup(&scene, 0.15, 8, SpaceMode::Infinite, BalanceMode::Static);
    assert!(odd < 1.0, "odd IS-SLB must lose to sequential: {odd}");
    assert!(even > 1.2, "even IS-SLB uses two central domains: {even}");
    assert!((even - even8).abs() < 0.3, "IS-SLB is flat in P: {even} vs {even8}");
}

#[test]
fn snow_fs_slb_scales_and_dlb_costs_nothing_extra() {
    // Table 1: FS-SLB grows with P; FS-DLB tracks it closely (uniform
    // load: nothing to balance, only the synchronization differs).
    let scene = snow_scene(size());
    let s4 = speedup(&scene, 0.15, 4, SpaceMode::Finite, BalanceMode::Static);
    let s8 = speedup(&scene, 0.15, 8, SpaceMode::Finite, BalanceMode::Static);
    assert!(s8 > s4 * 1.3, "FS-SLB must scale: {s4} -> {s8}");
    let d8 = speedup(&scene, 0.15, 8, SpaceMode::Finite, BalanceMode::dynamic());
    assert!((s8 - d8).abs() / s8 < 0.1, "snow FS-DLB ≈ FS-SLB: {s8} vs {d8}");
}

#[test]
fn snow_is_dlb_recovers_most_of_the_loss() {
    // Table 1: IS-DLB ≫ IS-SLB (paper: 3.37 vs 1.74 at 8P).
    let scene = snow_scene(size());
    let slb = speedup(&scene, 0.15, 8, SpaceMode::Infinite, BalanceMode::Static);
    let dlb = speedup(&scene, 0.15, 8, SpaceMode::Infinite, BalanceMode::dynamic());
    assert!(dlb > slb * 1.5, "IS-DLB must recover: {slb} -> {dlb}");
}

#[test]
fn fountain_dlb_beats_slb_everywhere() {
    // Table 3's headline: irregular load makes DLB necessary even on a
    // homogeneous cluster.
    let scene = fountain_scene(size());
    for procs in [4usize, 8] {
        let slb =
            speedup(&scene, fountain::FOUNTAIN_DT, procs, SpaceMode::Finite, BalanceMode::Static);
        let dlb = speedup(
            &scene,
            fountain::FOUNTAIN_DT,
            procs,
            SpaceMode::Finite,
            BalanceMode::dynamic(),
        );
        assert!(dlb > slb * 1.4, "fountain DLB must clearly win at {procs}P: {slb} vs {dlb}");
    }
}

#[test]
fn fountain_slb_is_much_worse_than_snow_slb() {
    // §5.3's comparison: uniform snow tolerates static balancing, the
    // fountain does not.
    let snow = snow_scene(size());
    let fountain_sc = fountain_scene(size());
    let s = speedup(&snow, 0.15, 8, SpaceMode::Finite, BalanceMode::Static);
    let f = speedup(&fountain_sc, fountain::FOUNTAIN_DT, 8, SpaceMode::Finite, BalanceMode::Static);
    assert!(s > f * 1.8, "snow {s} must dwarf fountain {f} under SLB");
}

#[test]
fn myrinet_beats_fast_ethernet() {
    // §5.3: gains need high-speed networks; same cluster, two fabrics.
    let scene = snow_scene(size());
    let cost = size().cost_model();
    let cfg = RunConfig { frames: 14, dt: 0.15, warmup: 3, ..Default::default() };
    let seq = run_sequential(&scene, &cfg, &cost, 1.0);
    let speedup_on = |net: NetworkModel| {
        let cluster = ClusterSpec::homogeneous(net, Compiler::Gcc, e800(), 8, 2);
        let mut sim = EventSim::new(scene.clone(), cfg.clone(), cluster, cost.clone());
        seq.steady_time() / sim.run().steady_time()
    };
    let myr = speedup_on(NetworkModel::myrinet());
    let fe = speedup_on(NetworkModel::fast_ethernet());
    let hub = speedup_on(NetworkModel::fast_ethernet_hub());
    assert!(myr > fe * 1.5, "Myrinet {myr} must beat Fast-Ethernet {fe}");
    // A shared medium serialises what the switch carries in parallel.
    assert!(hub <= fe, "hub Fast-Ethernet {hub} cannot beat switched {fe}");
}

#[test]
fn heterogeneous_dlb_beats_heterogeneous_slb() {
    // Table 2's premise: on a heterogeneous cluster even a uniform
    // workload needs DLB, because equal domains mean unequal times.
    let scene = snow_scene(size());
    let cost = size().cost_model();
    let cfg = RunConfig { frames: 20, dt: 0.15, warmup: 4, ..Default::default() };
    let cluster = ClusterSpec::new(NetworkModel::myrinet(), Compiler::Gcc)
        .add_nodes(e800(), 2, 1)
        .add_nodes(e60(), 2, 1);
    let seq = run_sequential(&scene, &cfg, &cost, 1.0);
    let slb = {
        let c = RunConfig { balance: BalanceMode::Static, ..cfg.clone() };
        let mut sim = EventSim::new(scene.clone(), c, cluster.clone(), cost.clone());
        seq.steady_time() / sim.run().steady_time()
    };
    let dlb = {
        let c = RunConfig { balance: BalanceMode::dynamic(), ..cfg };
        let mut sim = EventSim::new(scene.clone(), c, cluster, cost);
        seq.steady_time() / sim.run().steady_time()
    };
    assert!(dlb > slb * 1.15, "hetero DLB must beat SLB: {slb} vs {dlb}");
}
