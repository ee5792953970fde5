//! `bench animate`: one workload on one executor, and a four-line summary.
//!
//! `virtual` is the virtual-time cluster simulator (`EventSim`): modeled
//! seconds on a Myrinet cluster of `--procs` calculators. `threaded` runs
//! the paper's processes on host threads, and only it rasterizes: with
//! `--render DIR` its image generator writes one PPM per frame. Its seconds
//! are host wall time, a run summary and not an artifact — `perf/` is the
//! wall-clock instrument.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use cluster_sim::CostModel;
use psa_desim::EventSim;
use psa_math::{stats, Aabb, Vec3};
use psa_render::Camera;
use psa_runtime::threaded::RenderSink;
use psa_runtime::{run_sequential, run_threaded, BalanceMode, RunConfig, SpaceMode};
use psa_workloads::{fireworks_scene, myrinet_gcc, smoke_scene, Workload, WorkloadSize};

use crate::cli::{Args, Stop};

/// Run `a`'s workload and print its summary; `--render`/`--streaks` outside
/// the threaded executor, and `--streaks` without `--render`, are usage
/// errors.
pub(crate) fn animate(a: &Args) -> Result<(), Stop> {
    let (executor, render) = (a.text("--executor"), a.text("--render"));
    let streaks = a.text("--streaks") == "on";
    if executor != "threaded" && (!render.is_empty() || streaks) {
        let why = "--render and --streaks need --executor threaded, the only one that rasterizes";
        return Err(Stop::Usage(why.into()));
    }
    if streaks && render.is_empty() {
        let why = "--streaks needs --render DIR: nothing is rasterized without it";
        return Err(Stop::Usage(why.into()));
    }
    let workload = a.choice.as_deref().expect("the table requires a workload");
    let (systems, particles) = (a.size("--systems"), a.size("--particles"));
    let size = WorkloadSize { systems, particles_per_system: particles, scale: 1.0 };
    let paper = |w: Workload, view_top| (w.scene(size), w.dt(), view_top);
    let (scene, dt, view_top) = match workload {
        "snow" => paper(Workload::Snow, 36.0),
        "fountain" => paper(Workload::Fountain, 14.0),
        "fireworks" => (fireworks_scene(systems, particles), 0.05, 30.0),
        _ => (smoke_scene(systems, particles), 0.1, 20.0),
    };
    let balance = match a.text("--balance") {
        "slb" => BalanceMode::Static,
        "dec" => BalanceMode::decentralized(),
        _ => BalanceMode::dynamic(),
    };
    let space = if a.text("--space") == "is" { SpaceMode::Infinite } else { SpaceMode::Finite };
    let cfg = RunConfig { frames: a.int("--frames"), dt, balance, space, ..Default::default() };

    let procs = a.size("--procs");
    let failed = |e: psa_runtime::ProtocolError| Stop::Failed(e.to_string());
    let report = match executor {
        "sequential" => run_sequential(&scene, &cfg, &CostModel::default(), 1.0),
        "virtual" => {
            let mut sim = EventSim::new(scene, cfg, myrinet_gcc(procs, 1), CostModel::default());
            sim.try_run().map_err(failed)?
        }
        _ => {
            let sink = (!render.is_empty()).then(|| {
                let space =
                    Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, view_top, 42.0));
                let mut s = RenderSink::headless(Camera::ortho(space, 640, 480));
                s.out_dir = Some(PathBuf::from(render));
                s.prefix = workload.to_string();
                if streaks {
                    s.streaks = NonZeroUsize::new(4).map(|steps| (1.2, steps));
                }
                s
            });
            run_threaded(&scene, &cfg, procs, sink).map_err(failed)?
        }
    };

    let frames = &report.frames;
    println!(
        "{workload} on {executor} ({}): {:.3}s total, {} frames",
        report.cluster,
        report.total_time,
        frames.len()
    );
    println!(
        "alive (last frame): {}   migrated/frame: {:.0}   migration KB/frame: {:.1}",
        frames.last().map_or(0, |f| f.alive),
        report.mean_migrated(),
        report.mean_migration_kb()
    );
    let times: Vec<f64> = frames.iter().map(|f| f.frame_time).collect();
    let (p50, p95) = (stats::quantile(&times, 0.5), stats::quantile(&times, 0.95));
    println!("frame times: p50 {p50:.4}s p95 {p95:.4}s");
    println!("imbalance (max/mean-1): mean {:.3}", report.mean_imbalance());
    if !render.is_empty() {
        println!("frames written to {render}");
    }
    Ok(())
}
