//! `sessions` — drive a multi-tenant session pool from the command line.
//!
//! ```text
//! sessions [--sessions N] [--workers W] [--tenants T] [--scene NAME]
//!          [--frames F] [--slice K] [--seed S] [--max-in-flight M]
//!          [--per-tenant C] [--particles P] [--checkpoint I] [--instrument]
//! ```
//!
//! Admits `N` seeded animation sessions (tenants assigned round-robin),
//! multiplexes them over `W` worker lanes with cooperative frame-slicing,
//! and prints a throughput/latency table plus per-tenant rows. All time is
//! pool-virtual — the run is deterministic and byte-reproducible; there is
//! no wall clock anywhere in this crate.

use psa_sessions::{
    AdmissionConfig, AdmissionError, PoolConfig, SessionManager, SessionSpec, TenantId,
};
use psa_workloads::{myrinet_gcc, paper_run_config, Workload, WorkloadSize};

struct Args {
    sessions: usize,
    workers: usize,
    tenants: u32,
    scene: String,
    frames: u64,
    slice: u64,
    seed: u64,
    max_in_flight: usize,
    per_tenant: usize,
    particles: usize,
    checkpoint: u64,
    instrument: bool,
}

/// The parsed flags, or a one-line usage error that names the flag.
fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        sessions: 100,
        workers: 8,
        tenants: 4,
        scene: "snow".to_string(),
        frames: 12,
        slice: 2,
        seed: 0x5E55_0000,
        max_in_flight: 32,
        per_tenant: 8,
        particles: 400,
        checkpoint: 0,
        instrument: false,
    };
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = args.next().ok_or_else(|| format!("{name} needs a number"))?;
            v.parse().map_err(|_| format!("{name} needs a number, got `{v}`"))
        };
        match a.as_str() {
            "--sessions" => parsed.sessions = num("--sessions")? as usize,
            "--workers" => parsed.workers = num("--workers")? as usize,
            "--tenants" => parsed.tenants = num("--tenants")? as u32,
            "--frames" => parsed.frames = num("--frames")?,
            "--slice" => parsed.slice = num("--slice")?,
            "--seed" => parsed.seed = num("--seed")?,
            "--max-in-flight" => parsed.max_in_flight = num("--max-in-flight")? as usize,
            "--per-tenant" => parsed.per_tenant = num("--per-tenant")? as usize,
            "--particles" => parsed.particles = num("--particles")? as usize,
            "--checkpoint" => parsed.checkpoint = num("--checkpoint")?,
            "--scene" => parsed.scene = args.next().ok_or("--scene needs a name")?,
            "--instrument" => parsed.instrument = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    for (flag, value) in [
        ("--workers", parsed.workers),
        ("--tenants", parsed.tenants as usize),
        ("--slice", parsed.slice as usize),
        ("--max-in-flight", parsed.max_in_flight),
        ("--per-tenant", parsed.per_tenant),
    ] {
        if value == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("sessions: {e}");
        std::process::exit(2);
    });
    let size = WorkloadSize { systems: 2, particles_per_system: args.particles, scale: 1.0 };
    let Some(workload) = Workload::from_name(&args.scene) else {
        eprintln!("unknown scene {} (expected snow|fountain|vortex)", args.scene);
        std::process::exit(2);
    };
    let scene = workload.scene(size);
    let admission = AdmissionConfig {
        max_in_flight: args.max_in_flight,
        per_tenant_in_flight: args.per_tenant,
        ..AdmissionConfig::default()
    };
    let mut pool = SessionManager::new(PoolConfig {
        workers: args.workers,
        slice_frames: args.slice,
        admission,
        base_seed: args.seed,
        checkpoint_interval: args.checkpoint,
        instrument: args.instrument,
    });
    let mut queued = 0usize;
    let mut rejected = 0usize;
    for i in 0..args.sessions {
        let spec = SessionSpec {
            tenant: TenantId(i as u32 % args.tenants),
            scene: scene.clone(),
            cfg: paper_run_config(args.frames, 0.04),
            cluster: myrinet_gcc(2, 1),
            cost: size.cost_model(),
            arrival: 0.0,
        };
        match pool.admit(spec) {
            Ok(_) => {}
            Err(AdmissionError::Queued { .. }) => queued += 1,
            Err(AdmissionError::Rejected { .. }) => rejected += 1,
        }
    }
    let report = pool.run_to_completion();
    println!(
        "pool: {} workers, {} slots, slice {} frames, seed {:#x}",
        args.workers, args.max_in_flight, args.slice, args.seed
    );
    println!(
        "admitted {} sessions ({} queued at admission, {} rejected)",
        args.sessions, queued, rejected
    );
    println!(
        "completed {:4}  makespan {:>10.3}s  throughput {:>8.3} sessions/s",
        report.completed(),
        report.makespan,
        report.sessions_per_sec()
    );
    println!(
        "frame latency  p50 {:>8.4}s  p99 {:>8.4}s   mean queue wait {:>8.4}s",
        report.latency_percentile(0.50),
        report.latency_percentile(0.99),
        report.mean_queue_wait()
    );
    let stats = report.slot_stats;
    println!(
        "slots: {} recycles, high water {}/{} ({} dispatches, {} lanes lost)",
        stats.recycled, stats.high_water, stats.capacity, report.dispatches, report.lanes_lost
    );
    println!("{}", "-".repeat(66));
    for tenant in 0..args.tenants {
        let done: Vec<_> =
            report.outcomes.iter().filter(|o| o.tenant == TenantId(tenant)).collect();
        if done.is_empty() {
            continue;
        }
        let frames: u64 = done.iter().map(|o| o.counters.frames).sum();
        let wait: f64 = done.iter().map(|o| o.counters.queue_wait).sum::<f64>() / done.len() as f64;
        println!(
            "tenant {tenant:>3}: {:>4} sessions  {frames:>6} frames  mean wait {wait:>8.4}s",
            done.len()
        );
    }
    if args.instrument {
        println!("{}", "-".repeat(66));
        for o in report.outcomes.iter().take(5) {
            println!("{}", o.counters.format_row(&format!("session {}", o.id.0)));
        }
    }
}
