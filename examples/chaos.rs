//! Degraded-mode demonstration: snow survives a calculator crash.
//!
//! Runs the paper's snow workload on a 6-calculator Myrinet cluster,
//! injects a crash of calculator 2 at frame 20, and shows the hardened
//! protocol absorbing it: peers time out instead of hanging, the manager
//! declares the rank dead after three silent rounds, its domain slice is
//! reassigned through the §3.2.5 balancer machinery, and every remaining
//! frame still renders. The run is then replayed with the same seed and
//! plan to show the failure itself is deterministic.
//!
//! Run with: `cargo run --release --example chaos`

use particle_cluster_anim::chaos::Scenario;
use particle_cluster_anim::prelude::*;

fn main() {
    let size = WorkloadSize { systems: 4, particles_per_system: 2_000, scale: 40.0 };
    let cost = size.cost_model();
    let cluster = myrinet_gcc(6, 1);
    let cfg = RunConfig { frames: 40, dt: 0.15, ..Default::default() };
    let scenario = Scenario::CrashCalculator { rank: 2, frame: 20 };
    let plan = scenario.plan(cfg.seed, 6, &cluster.net);

    let run = || {
        let mut sim = EventSim::new(snow_scene(size), cfg.clone(), cluster.clone(), cost.clone())
            .with_faults(plan.clone());
        sim.try_run().expect("degraded run must still complete")
    };

    let report = run();
    println!("snow on 6 calculators, calculator 2 crashes at frame 20\n");
    println!("{:>6} {:>10} {:>9} {:>10}  note", "frame", "alive", "timeouts", "imbalance");
    for f in &report.frames {
        let note = match report.dead_ranks.iter().find(|&&(_, df)| df == f.frame) {
            Some(&(rank, _)) => format!("rank {rank} declared dead, domain reassigned"),
            None if f.timeouts > 0 => "peers waiting on the silent rank".into(),
            None => String::new(),
        };
        println!("{:>6} {:>10} {:>9} {:>10.3}  {note}", f.frame, f.alive, f.timeouts, f.imbalance);
    }

    let (rank, frame) = report.dead_ranks[0];
    println!(
        "\ncalculator {rank} declared dead at frame {frame}; {} virtual particles lost; \
         {}/{} frames rendered",
        report.lost_particles,
        report.frames.len(),
        cfg.frames
    );

    let replay = run();
    assert_eq!(report.fingerprint(), replay.fingerprint());
    println!(
        "replay with same seed + plan: fingerprint {:016x} — byte-identical",
        replay.fingerprint()
    );
}
