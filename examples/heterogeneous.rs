//! Heterogeneous cluster balancing: watching particles flow toward the
//! fast machines.
//!
//! Builds the paper's best Table-2 mix — two E800s (four calculators) plus
//! two Itanium zx2000s — and shows the per-calculator particle counts the
//! dynamic balancer converges to, which should be proportional to each
//! machine's processing power exactly as §3.2.5 prescribes.
//!
//! Run with: `cargo run --release --example heterogeneous`

use particle_cluster_anim::prelude::*;

fn main() {
    let size = WorkloadSize { systems: 4, particles_per_system: 6_000, scale: 50.0 };
    let cost = size.cost_model();
    let scene = snow_scene(size);
    let cfg = RunConfig { frames: 40, dt: 0.15, warmup: 10, ..Default::default() };

    // 2*B (4 P.) + 2*C (2 P.) on Fast-Ethernet with ICC: the paper's best
    // heterogeneous result (speed-up 3.15).
    let cluster = ClusterSpec::new(NetworkModel::fast_ethernet(), Compiler::Icc)
        .add_nodes(e800(), 2, 2)
        .add_nodes(zx2000(), 2, 1);
    let placement = cluster.placement();
    println!("cluster: {}", cluster.describe());
    for (i, r) in placement.ranks.iter().enumerate() {
        println!("  calculator {i}: node {} at relative speed {:.2}", r.node, r.speed);
    }

    let seq = run_sequential(&scene, &cfg, &cost, zx2000().speed(Compiler::Icc));
    let baseline = seq.steady_time();

    for (label, balance) in [("SLB", BalanceMode::Static), ("DLB", BalanceMode::dynamic())] {
        let run_cfg = RunConfig { balance, ..cfg.clone() };
        let mut sim = EventSim::new(scene.clone(), run_cfg, cluster.clone(), cost.clone());
        let rep = sim.run();
        println!(
            "\n{label}: speed-up {:.2} vs sequential Itanium+ICC, mean imbalance {:.3}",
            baseline / rep.steady_time(),
            rep.mean_imbalance()
        );
    }

    // The power-proportional targets §3.2.5 implies for one system:
    let total: f64 = placement.ranks.iter().map(|r| r.speed).sum();
    println!("\npower-proportional share the balancer steers toward:");
    for (i, r) in placement.ranks.iter().enumerate() {
        println!("  calculator {i}: {:.1}% of each system", 100.0 * r.speed / total);
    }
    println!("\n(paper: this mix reached speed-up 3.15, the best of Table 2)");
}
