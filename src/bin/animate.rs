//! `animate` — run a workload on any executor from the command line.
//!
//! ```text
//! animate <workload> [options]
//!
//! workloads: snow | fountain | fireworks | smoke
//! options:
//!   --executor  virtual|threaded|sequential   (default: threaded)
//!   --procs N        calculators              (default: 4)
//!   --frames N                                (default: 30)
//!   --particles N    per system               (default: 10000)
//!   --systems N                               (default: 4)
//!   --balance  slb|dlb|dec                    (default: dlb)
//!   --space    fs|is                          (default: fs)
//!   --render DIR     write PPM frames (threaded executor only)
//!   --streaks        render orientation streaks instead of dots
//!                    (needs --render)
//! ```
//!
//! `virtual` is the virtual-time cluster simulator (`EventSim`): modeled
//! seconds on a Myrinet cluster of `--procs` calculators, no rasterizer.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use particle_cluster_anim::math::Histogram;
use particle_cluster_anim::prelude::*;

struct Args {
    workload: String,
    executor: String,
    procs: usize,
    frames: u64,
    particles: usize,
    systems: usize,
    balance: BalanceMode,
    space: SpaceMode,
    render: Option<PathBuf>,
    streaks: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: animate <snow|fountain|fireworks|smoke> [--executor virtual|threaded|sequential] \
         [--procs N] [--frames N] [--particles N] [--systems N] [--balance slb|dlb|dec] \
         [--space fs|is] [--render DIR] [--streaks]"
    );
    std::process::exit(2)
}

fn parse() -> Args {
    let mut a = Args {
        workload: String::new(),
        executor: "threaded".into(),
        procs: 4,
        frames: 30,
        particles: 10_000,
        systems: 4,
        balance: BalanceMode::dynamic(),
        space: SpaceMode::Finite,
        render: None,
        streaks: false,
    };
    let mut it = std::env::args().skip(1);
    a.workload = it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--executor" => a.executor = val(),
            "--procs" => a.procs = val().parse().unwrap_or_else(|_| usage()),
            "--frames" => a.frames = val().parse().unwrap_or_else(|_| usage()),
            "--particles" => a.particles = val().parse().unwrap_or_else(|_| usage()),
            "--systems" => a.systems = val().parse().unwrap_or_else(|_| usage()),
            "--balance" => {
                a.balance = match val().as_str() {
                    "slb" => BalanceMode::Static,
                    "dlb" => BalanceMode::dynamic(),
                    "dec" => BalanceMode::decentralized(),
                    _ => usage(),
                }
            }
            "--space" => {
                a.space = match val().as_str() {
                    "fs" => SpaceMode::Finite,
                    "is" => SpaceMode::Infinite,
                    _ => usage(),
                }
            }
            "--render" => a.render = Some(PathBuf::from(val())),
            "--streaks" => a.streaks = true,
            _ => usage(),
        }
    }
    // Only the threaded executor runs an image generator that rasterizes.
    if a.executor != "threaded" && (a.render.is_some() || a.streaks) {
        eprintln!("--render/--streaks need --executor threaded (the only one that rasterizes)");
        usage();
    }
    if a.streaks && a.render.is_none() {
        eprintln!("--streaks needs --render DIR (nothing is rasterized without it)");
        usage();
    }
    if a.procs == 0 {
        eprintln!("--procs must be at least 1");
        usage();
    }
    a
}

fn main() {
    let args = parse();
    let size =
        WorkloadSize { systems: args.systems, particles_per_system: args.particles, scale: 1.0 };
    let paper = |w: Workload, view_top| (w.scene(size), w.dt(), view_top);
    let (scene, dt, view_top) = match args.workload.as_str() {
        "snow" => paper(Workload::Snow, 36.0),
        "fountain" => paper(Workload::Fountain, 14.0),
        "fireworks" => (fireworks_scene(args.systems.max(1), args.particles), 0.05, 30.0),
        "smoke" => (smoke_scene(args.systems.max(1), args.particles), 0.1, 20.0),
        _ => usage(),
    };
    let cfg = RunConfig {
        frames: args.frames,
        dt,
        balance: args.balance,
        space: args.space,
        ..Default::default()
    };

    let report = match args.executor.as_str() {
        "sequential" => run_sequential(&scene, &cfg, &CostModel::default(), 1.0),
        "virtual" => {
            let cluster = myrinet_gcc(args.procs, 1);
            EventSim::new(scene.clone(), cfg.clone(), cluster, CostModel::default()).run()
        }
        "threaded" => {
            let sink = args.render.as_ref().map(|dir| {
                let camera = Camera::ortho(
                    Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, view_top, 42.0)),
                    640,
                    480,
                );
                let mut s = RenderSink::headless(camera);
                s.out_dir = Some(dir.clone());
                s.prefix = args.workload.clone();
                if args.streaks {
                    s.streaks = NonZeroUsize::new(4).map(|steps| (1.2, steps));
                }
                s
            });
            run_threaded(&scene, &cfg, args.procs, sink).unwrap_or_else(|e| {
                eprintln!("animate: {e}");
                std::process::exit(1)
            })
        }
        _ => usage(),
    };

    // Summary.
    println!(
        "{} on {} ({}): {:.3}s total, {} frames",
        args.workload,
        args.executor,
        report.cluster,
        report.total_time,
        report.frames.len()
    );
    println!(
        "alive (last frame): {}   migrated/frame: {:.0}   migration KB/frame: {:.1}",
        report.frames.last().map(|f| f.alive).unwrap_or(0),
        report.mean_migrated(),
        report.mean_migration_kb()
    );
    let mut times = Histogram::new(
        0.0,
        report.frames.iter().map(|f| f.frame_time).fold(0.0, f64::max).max(1e-9) * 1.01,
        24,
    );
    for f in &report.frames {
        times.push(f.frame_time);
    }
    println!(
        "frame times: p50 {:.4}s p95 {:.4}s  {}",
        times.quantile(0.5),
        times.quantile(0.95),
        times.sparkline()
    );
    let mut imb = Histogram::new(0.0, 2.0, 20);
    for f in &report.frames {
        imb.push(f.imbalance);
    }
    println!("imbalance (max/mean-1): mean {:.3}  {}", report.mean_imbalance(), imb.sparkline());
    if let Some(dir) = args.render {
        println!("frames written to {}", dir.display());
    }
}
