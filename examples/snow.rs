//! The paper's snow experiment (§5.1), reproduced end to end.
//!
//! Runs the four configurations of Table 1 (IS/FS × SLB/DLB) on a
//! simulated 8×E800 Myrinet cluster at reduced scale and prints the
//! speed-up matrix, demonstrating the central claims: infinite space
//! starves static balancing, dynamic balancing recovers it, and with a
//! restrictable space static balancing is slightly cheaper.
//!
//! Run with: `cargo run --release --example snow`

use particle_cluster_anim::prelude::*;

fn main() {
    let size = WorkloadSize { systems: 8, particles_per_system: 5_000, scale: 80.0 };
    let cost = size.cost_model();
    let scene = snow_scene(size);
    let base_cfg = RunConfig { frames: 25, dt: 0.15, warmup: 5, ..Default::default() };

    let seq = run_sequential(&scene, &base_cfg, &cost, 1.0);
    let baseline = seq.steady_time();
    println!(
        "sequential on E800+GCC: {:.1} virtual s steady state ({} alive)",
        baseline,
        seq.frames.last().unwrap().alive
    );
    println!("\n{:<10}{:>10}{:>14}{:>14}", "config", "speed-up", "imbalance", "migr KB/frame");

    for (label, space, balance) in [
        ("IS-SLB", SpaceMode::Infinite, BalanceMode::Static),
        ("FS-SLB", SpaceMode::Finite, BalanceMode::Static),
        ("IS-DLB", SpaceMode::Infinite, BalanceMode::dynamic()),
        ("FS-DLB", SpaceMode::Finite, BalanceMode::dynamic()),
    ] {
        let cfg = RunConfig { space, balance, ..base_cfg.clone() };
        let mut sim = EventSim::new(scene.clone(), cfg, myrinet_gcc(8, 1), cost.clone());
        let rep = sim.run();
        println!(
            "{label:<10}{:>10.2}{:>14.3}{:>14.0}",
            baseline / rep.steady_time(),
            rep.mean_imbalance(),
            rep.mean_migration_kb()
        );
    }
    println!("\n(paper Table 1, 8*B/8P row: IS-SLB 1.74, FS-SLB 4.14, IS-DLB 3.37, FS-DLB 4.14)");
}
