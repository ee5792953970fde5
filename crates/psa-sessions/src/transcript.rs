//! The session pool's printed transcript (`bench sessions`): a
//! throughput/latency table plus per-tenant rows, all in pool-virtual
//! time, so `tests/golden/sessions_default.txt` pins the default run.

use crate::{AdmissionError, PoolConfig, SessionManager, SessionSpec, TenantId};

/// Run `sessions` sessions shaped like `spec`, session `i` billed to
/// tenant `i % tenants`, on a pool built from `cfg`, and print the
/// transcript to stdout.
pub fn print_pool(cfg: PoolConfig, sessions: usize, tenants: u32, spec: &SessionSpec) {
    let (workers, slots, slice) = (cfg.workers, cfg.admission.max_in_flight, cfg.slice_frames);
    println!(
        "pool: {workers} workers, {slots} slots, slice {slice} frames, seed {:#x}",
        cfg.base_seed
    );
    let instrument = cfg.instrument;
    let mut pool = SessionManager::new(cfg);
    let mut queued = 0usize;
    let mut rejected = 0usize;
    for i in 0..sessions {
        let tenant = TenantId(i as u32 % tenants);
        match pool.admit(SessionSpec { tenant, ..spec.clone() }) {
            Ok(_) => {}
            Err(AdmissionError::Queued { .. }) => queued += 1,
            Err(AdmissionError::Rejected { .. }) => rejected += 1,
        }
    }
    println!("admitted {sessions} sessions ({queued} queued at admission, {rejected} rejected)");
    let report = pool.run_to_completion();
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
    for tenant in 0..tenants {
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
    if instrument {
        println!("{}", "-".repeat(66));
        for o in report.outcomes.iter().take(5) {
            println!("{}", o.counters.format_row(&format!("session {}", o.id.0)));
        }
    }
}
