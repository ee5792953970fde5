//! The paper's fountain experiment (§5.2): irregular load.
//!
//! Eight fountains at irregular positions make a static domain split
//! useless — the calculators owning nozzle slices drown while the rest
//! idle. This example runs SLB and DLB side by side and prints how the
//! balancer moves the domain cuts frame by frame.
//!
//! Run with: `cargo run --release --example fountain`

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::workloads::fountain::FOUNTAIN_DT;

fn main() {
    let size = WorkloadSize { systems: 8, particles_per_system: 5_000, scale: 80.0 };
    let cost = size.cost_model();
    let scene = fountain_scene(size);
    let base_cfg = RunConfig { frames: 30, dt: FOUNTAIN_DT, warmup: 5, ..Default::default() };

    let seq = run_sequential(&scene, &base_cfg, &cost, 1.0);
    let baseline = seq.steady_time();

    let mut results = Vec::new();
    for balance in [BalanceMode::Static, BalanceMode::dynamic()] {
        let cfg = RunConfig { balance, ..base_cfg.clone() };
        let mut sim = EventSim::new(scene.clone(), cfg, myrinet_gcc(8, 1), cost.clone());
        let rep = sim.run();
        results.push((balance.label(), rep));
    }

    println!("fountain, 8 calculators on a simulated Myrinet E800 cluster\n");
    println!("{:<8}{:>10}{:>12}{:>16}", "mode", "speed-up", "imbalance", "balanced/frame");
    for (label, rep) in &results {
        let balanced: f64 =
            rep.frames.iter().map(|f| f.balanced as f64).sum::<f64>() / rep.frames.len() as f64;
        println!(
            "{label:<8}{:>10.2}{:>12.3}{:>16.0}",
            baseline / rep.steady_time(),
            rep.mean_imbalance(),
            balanced
        );
    }

    // Show the imbalance trajectory under DLB: the neighbor-pair balancer
    // flattening the nozzle hot spots over the first frames.
    let dlb = &results[1].1;
    println!("\nimbalance (max/mean - 1) per frame under DLB:");
    for f in dlb.frames.iter().take(20) {
        let bars = "#".repeat((f.imbalance * 20.0).round() as usize);
        println!("  frame {:>3}: {:>6.3} {bars}", f.frame, f.imbalance);
    }
    println!("\n(paper Table 3, 8*B/8P row: FS-SLB 1.86 vs FS-DLB 2.67 — DLB must win)");
}
