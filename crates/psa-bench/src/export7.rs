//! Machine-readable session-pool export (`BENCH_7.json`).
//!
//! BENCH_1–6 measure one run at a time; BENCH_7 measures the *service*
//! built on top of them. A `psa_sessions::SessionManager` pool multiplexes
//! hundreds of concurrent seeded animation sessions over a fixed set of
//! worker lanes with cooperative frame-slicing, and the export records
//! what a capacity planner needs:
//!
//! * **Throughput** — completed sessions per pool-virtual second at
//!   session counts ∈ {100, 300, 1000} (the `bench 7` defaults), for
//!   snow (domain-stable, §5.1) and vortex (the imbalanced workload);
//! * **Latency** — p50/p99 frame latency as the viewer sees it (the first
//!   frame is measured from arrival, so admission-queue wait is in the
//!   tail) plus the mean queue wait itself;
//! * **Pool health** — dispatch counts, in-flight place recycles, and
//!   their high water, which is how `max_in_flight` gets sized;
//! * **Parity** — every cell re-runs one sampled session solo and checks
//!   the fingerprint matches the multiplexed run byte-for-byte; a cell
//!   that cannot prove parity does not validate.
//!
//! Like every other export, [`Export::checked_json`] rejects
//! NaN/degenerate metrics before anything is written.

use std::time::Instant;

use psa_sessions::{
    derive_session_seed, AdmissionConfig, PoolConfig, SessionId, SessionManager, SessionSpec,
    TenantId,
};
use psa_workloads::Workload;

use crate::json::Json;
use crate::{fields, json_fields, obj, Export};

/// Worker lanes every BENCH_7 pool runs with.
pub const BENCH7_WORKERS: usize = 8;

/// In-flight places (admission `max_in_flight`) every pool runs with.
pub const BENCH7_IN_FLIGHT: usize = 32;

/// Tenants sessions are spread over (round-robin).
pub const BENCH7_TENANTS: u32 = 8;

/// The workloads a BENCH_7 cell animates: snow (domain-stable) and vortex
/// (the imbalanced one).
pub const BENCH7_WORKLOADS: &[Workload] = &[Workload::Snow, Workload::Vortex];

/// One (sessions, workload) pool run.
#[derive(Clone, Debug)]
pub struct Bench7Cell {
    pub workload: &'static str,
    /// Sessions admitted.
    pub sessions: usize,
    /// Sessions that completed (must equal `sessions`).
    pub completed: usize,
    /// Pool-virtual makespan of the whole run.
    pub makespan: f64,
    /// Completed sessions per pool-virtual second.
    pub sessions_per_sec: f64,
    /// Median frame latency (pool-virtual seconds).
    pub p50_latency: f64,
    /// 99th-percentile frame latency; the queue-wait tail lives here.
    pub p99_latency: f64,
    /// Mean admission-queue wait across sessions.
    pub mean_queue_wait: f64,
    /// Frame-slice dispatches the scheduler issued.
    pub dispatches: u64,
    /// Completed in-flight place hold→release cycles.
    pub slot_recycles: u64,
    /// Most slots ever held at once (sizes `max_in_flight`).
    pub slot_high_water: usize,
    /// Did the sampled session's fingerprint match its solo run?
    pub parity_ok: bool,
    /// Host seconds the pool run took.
    pub wall_seconds: f64,
}

/// Everything `BENCH_7.json` carries.
pub struct Bench7Export {
    pub frames: u64,
    pub particles_per_system: usize,
    pub workers: usize,
    pub max_in_flight: usize,
    pub tenants: u32,
    pub session_counts: Vec<usize>,
    pub cells: Vec<Bench7Cell>,
}

fn run_cell(
    wl: Workload,
    sessions: usize,
    frames: u64,
    particles_per_system: usize,
    base_seed: u64,
) -> Bench7Cell {
    let spec = |i: u64| {
        let tenant = TenantId(i as u32 % BENCH7_TENANTS);
        SessionSpec::standard(tenant, wl, particles_per_system, frames)
    };
    let admission = AdmissionConfig {
        max_in_flight: BENCH7_IN_FLIGHT,
        per_tenant_in_flight: BENCH7_IN_FLIGHT,
        queue_capacity: usize::MAX,
        per_tenant_backlog: usize::MAX,
    };
    let mut pool = SessionManager::new(PoolConfig {
        workers: BENCH7_WORKERS,
        slice_frames: 2,
        admission,
        base_seed,
        checkpoint_interval: 0,
        instrument: false,
    });
    for i in 0..sessions {
        if let Err(e) = pool.admit(spec(i as u64)) {
            if matches!(e, psa_sessions::AdmissionError::Rejected { .. }) {
                panic!("BENCH_7 admission is unbounded, rejection is a bug: {e}");
            }
        }
    }
    let t0 = Instant::now();
    let report = pool.run_to_completion();
    let wall = t0.elapsed().as_secs_f64();

    // Parity spot check: the middle session, re-run solo with its derived
    // seed, must fingerprint identically to its multiplexed outcome.
    let probe = SessionId(sessions as u64 / 2);
    let parity_ok = report.outcome_for(probe).is_some_and(|outcome| {
        let seed = derive_session_seed(base_seed, probe);
        spec(probe.0).solo(seed).run().fingerprint() == outcome.fingerprint
    });

    Bench7Cell {
        workload: wl.name(),
        sessions,
        completed: report.completed(),
        makespan: report.makespan,
        sessions_per_sec: report.sessions_per_sec(),
        p50_latency: report.latency_percentile(0.50),
        p99_latency: report.latency_percentile(0.99),
        mean_queue_wait: report.mean_queue_wait(),
        dispatches: report.dispatches,
        slot_recycles: report.slot_stats.recycled,
        slot_high_water: report.slot_stats.high_water,
        parity_ok,
        wall_seconds: wall,
    }
}

/// Run the sweep and assemble the export. `session_counts` is the list of
/// pool sizes to cover (the unit tests pass a short one).
pub fn collect7(
    session_counts: &[usize],
    frames: u64,
    particles_per_system: usize,
    base_seed: u64,
) -> Bench7Export {
    let mut cells = Vec::new();
    for &wl in BENCH7_WORKLOADS {
        for &sessions in session_counts {
            cells.push(run_cell(wl, sessions, frames, particles_per_system, base_seed));
        }
    }
    Bench7Export {
        frames,
        particles_per_system,
        workers: BENCH7_WORKERS,
        max_in_flight: BENCH7_IN_FLIGHT,
        tenants: BENCH7_TENANTS,
        session_counts: session_counts.to_vec(),
        cells,
    }
}

impl Export for Bench7Export {
    /// Reject empty sweeps, incomplete pools, degenerate latency or
    /// throughput numbers (non-finite ones are the writer's rule), and any
    /// cell that failed its parity spot check.
    fn validate(&self) -> Result<(), String> {
        if self.session_counts.is_empty() {
            return Err("no session counts swept".into());
        }
        if self.workers == 0 || self.max_in_flight == 0 {
            return Err(format!(
                "degenerate pool ({} workers, {} slots)",
                self.workers, self.max_in_flight
            ));
        }
        // Every (workload, sessions) cell, once, in sweep order.
        let sweep = BENCH7_WORKLOADS
            .iter()
            .flat_map(|w| self.session_counts.iter().map(move |&n| (w.name(), n)));
        if !self.cells.iter().map(|c| (c.workload, c.sessions)).eq(sweep) {
            return Err(format!(
                "{} cells do not enumerate {{snow, vortex}} x session counts",
                self.cells.len()
            ));
        }
        for c in &self.cells {
            let cell = format!("cell {} x{}", c.workload, c.sessions);
            if c.completed != c.sessions {
                return Err(format!(
                    "{cell}: only {}/{} sessions completed",
                    c.completed, c.sessions
                ));
            }
            if c.sessions_per_sec <= 0.0 {
                return Err(format!("{cell}: throughput {} is degenerate", c.sessions_per_sec));
            }
            if c.p50_latency <= 0.0 || c.p99_latency < c.p50_latency {
                return Err(format!(
                    "{cell}: latency percentiles disordered (p50 {}, p99 {})",
                    c.p50_latency, c.p99_latency
                ));
            }
            if c.dispatches == 0 || c.slot_recycles != c.sessions as u64 {
                return Err(format!(
                    "{cell}: scheduler counters degenerate ({} dispatches, {} recycles)",
                    c.dispatches, c.slot_recycles
                ));
            }
            if c.slot_high_water > self.max_in_flight {
                return Err(format!(
                    "{cell}: slot high water {} exceeds the arena ({})",
                    c.slot_high_water, self.max_in_flight
                ));
            }
            if !c.parity_ok {
                return Err(format!("{cell}: sampled session failed solo-fingerprint parity"));
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj! {
            "bench": 7u64,
            "pool": fields!(self; workers, max_in_flight, tenants, frames, particles_per_system),
            "session_counts": &self.session_counts,
            "cells": &self.cells,
        }
    }
}

json_fields!(
    Bench7Cell; workload, sessions, completed, makespan, sessions_per_sec, p50_latency,
    p99_latency, mean_queue_wait, dispatches, slot_recycles, slot_high_water, parity_ok,
    wall_seconds
);

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench7Export {
        collect7(&[10, 25], 6, 150, 0xBE7C_0007)
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        let json = e.checked_json().expect("smoke export must validate and render");
        assert!(json.starts_with("{\n  \"bench\": 7,\n"), "{json}");
        assert_eq!(e.cells.len(), 4, "2 session counts x {{snow, vortex}}");
        for c in &e.cells {
            assert!(c.parity_ok, "{}: multiplexed == solo", c.workload);
            assert!(c.slot_high_water <= BENCH7_IN_FLIGHT);
        }
    }

    #[test]
    fn validate_rejects_regressions() {
        let mut e = smoke();
        e.cells[0].p99_latency = f64::NAN;
        assert!(e.checked_json().is_err(), "NaN must fail");
        let mut e2 = smoke();
        e2.cells[0].completed -= 1;
        assert!(e2.validate().is_err(), "an incomplete pool must fail");
        let mut e3 = smoke();
        e3.cells[0].parity_ok = false;
        assert!(e3.validate().is_err(), "a parity failure must fail");
        let mut e4 = smoke();
        e4.cells[0].p99_latency = e4.cells[0].p50_latency / 2.0;
        assert!(e4.validate().is_err(), "disordered percentiles must fail");
        let mut e5 = smoke();
        e5.cells[2].workload = "snow";
        assert!(e5.validate().is_err(), "a sweep without its vortex cells must fail");
        let mut e6 = smoke();
        e6.workers = 0;
        assert!(e6.validate().is_err(), "a pool without workers must fail");
    }

    #[test]
    fn contention_moves_the_tail() {
        // More sessions on the same pool must not shrink the p99 tail:
        // queue waits land in the first-frame latency.
        let e = smoke();
        let small = e.cells.iter().find(|c| c.sessions == 10).unwrap();
        let big = e.cells.iter().find(|c| c.sessions == 25).unwrap();
        assert!(
            big.p99_latency >= small.p99_latency,
            "p99 {} at 25 sessions vs {} at 10",
            big.p99_latency,
            small.p99_latency
        );
    }
}
