//! Where does a frame's time go? Run the snow and fountain workloads on
//! the same simulated cluster with per-phase instrumentation and print
//! each run's breakdown: the snow experiment is compute-bound, while the
//! fountain's concentrated emitter makes exchange + ship dominate — the
//! communication profile behind its lower Table-3 speed-ups.
//!
//! Instrumentation is quiet: the recorder only reads the virtual clocks,
//! so these runs are byte-identical to untraced ones.
//!
//! A third section asks the same of the real threads: the fountain on two
//! calculator threads, wall clock, with the per-rank rows that show whether
//! one rank waits in the exchange for the other, and the per-frame
//! imbalance that shows why (a system held by one rank reads 1.0). Its
//! header puts frame 0's wall time beside the run's: frame 0 routes the
//! pre-population through the manager and rebalances it.
//!
//! A fourth section puts a sink behind the threads — the snow on two
//! calculators, every frame rasterized at 640 × 480 — and prints the image
//! generator's `render` row beside the calculators' `ship` row, with the
//! process's peak resident set before and after. A calculator's wait for
//! `FrameDone` is charged to `ship`, so calculators held back by a slower
//! image generator show up there; unbounded, the same lag would show up in
//! the peak instead (9.6 MB of splat records per frame in flight).
//!
//! Run with: `cargo run --release --example phase_breakdown`

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::runtime::LoadMetric;

fn main() {
    let size = WorkloadSize { systems: 4, particles_per_system: 4_000, scale: 1.0 };
    for workload in [Workload::Snow, Workload::Fountain] {
        let cfg = RunConfig {
            frames: 20,
            dt: workload.dt(),
            seed: 7,
            balance: BalanceMode::dynamic(),
            ..Default::default()
        };
        let mut sim =
            EventSim::new(workload.scene(size), cfg, myrinet_gcc(8, 2), CostModel::default())
                .with_phases();
        let report = sim.run();
        println!("== {}: {:.2} virtual s total ==", workload.name(), report.total_time);
        println!("{}", report.phase_table().expect("traced run has a phase table"));
        let trace = report.phases.as_ref().unwrap();
        let totals = trace.phase_totals();
        let grand: f64 = totals.iter().sum();
        let comm = totals[Phase::Exchange.index()] + totals[Phase::Ship.index()];
        println!("communication share: {:.1}%\n", comm / grand * 100.0);
    }

    // Wall clock, so the seconds differ from run to run; the counters, the
    // imbalance column and the balanced/migrated counts do not
    // (`CountProportional` makes the balancer's input deterministic).
    let size = WorkloadSize { systems: 4, particles_per_system: 50_000, scale: 1.0 };
    let cfg = RunConfig {
        frames: 20,
        dt: Workload::Fountain.dt(),
        seed: 1,
        load_metric: LoadMetric::CountProportional,
        ..Default::default()
    };
    let report = run_threaded_traced(&fountain_scene(size), &cfg, 2, None, true)
        .expect("the threaded run completes");
    // Frame 0 routes the whole pre-population through the manager and then
    // rebalances it: its own time shows what that serial chain costs.
    let frame0 = report.frames.first().map_or(0.0, |f| f.frame_time);
    println!(
        "== fountain on 2 calculator threads: {:.3} wall s total, frame 0 {:.3} s ==",
        report.total_time, frame0
    );
    println!("{}", report.phase_table().expect("traced run has a phase table"));
    println!("frame  imbalance  balanced  migrated   (imbalance: worst system, max/mean - 1)");
    for f in &report.frames {
        println!("{:>5}  {:>9.3}  {:>8}  {:>8}", f.frame, f.imbalance, f.balanced, f.migrated);
    }

    let cfg = RunConfig { dt: Workload::Snow.dt(), ..cfg };
    let view = Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0));
    let sink = RenderSink::headless(Camera::ortho(view, 640, 480));
    let before = peak_rss_mb();
    let report = run_threaded_traced(&snow_scene(size), &cfg, 2, Some(sink), true)
        .expect("the rendered run completes");
    println!("\n== snow on 2 calculator threads, rasterized: {:.3} wall s ==", report.total_time);
    println!("{}", report.phase_table().expect("traced run has a phase table"));
    match (before, peak_rss_mb()) {
        (Some(before), Some(after)) => {
            println!("peak resident set: {before:.1} MB before, {after:.1} MB after")
        }
        _ => println!("peak resident set: not available (no /proc/self/status)"),
    }
}

/// `VmHWM` of this process in MB, where the host has a `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
