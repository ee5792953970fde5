//! Quickstart: simulate a small snow scene three ways.
//!
//! 1. sequentially (the baseline the paper compares against),
//! 2. on real host threads (the SPMD executor),
//! 3. on a simulated 8-node Myrinet cluster (the virtual-time executor
//!    that reproduces the paper's numbers),
//!
//! and print what each one measured.
//!
//! Run with: `cargo run --release --example quickstart`

use particle_cluster_anim::prelude::*;

fn main() {
    // A paper-shaped workload at 1/200 scale so this runs in a second.
    let size = WorkloadSize { systems: 4, particles_per_system: 4_000, scale: 1.0 };
    let scene = snow_scene(size);
    let cfg = RunConfig {
        frames: 20,
        dt: 0.15,
        seed: 7,
        balance: BalanceMode::dynamic(),
        ..Default::default()
    };

    // 1. Sequential baseline on an E800 under GCC (relative speed 1.0).
    let cost = CostModel::default();
    let seq = run_sequential(&scene, &cfg, &cost, 1.0);
    println!(
        "sequential: {:.2} virtual s, {} particles alive at the end",
        seq.total_time,
        seq.frames.last().unwrap().alive
    );

    // 2. Real host threads: same protocol, wall-clock timing.
    let thr = run_threaded(&scene, &cfg, 4, None).expect("threaded run failed");
    println!(
        "threaded ({} calculators): {:.0} ms wall, {} alive, {} particles migrated/frame",
        thr.calculators,
        thr.total_time * 1e3,
        thr.frames.last().unwrap().alive,
        thr.mean_migrated().round()
    );

    // 3. The virtual cluster: 8 E800 nodes on Myrinet, as in Table 1.
    let cluster = myrinet_gcc(8, 1);
    let mut sim = EventSim::new(scene, cfg, cluster, cost);
    let par = sim.run();
    println!(
        "virtual 8-node cluster: {:.2} virtual s -> speed-up {:.2} vs sequential",
        par.total_time,
        par.speedup_vs(seq.total_time)
    );
    println!(
        "  mean imbalance {:.3}, {:.0} KB migrated/frame, {} messages total",
        par.mean_imbalance(),
        par.mean_migration_kb(),
        par.traffic.messages
    );
}
