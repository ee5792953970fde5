//! Session-level chaos: losing a pool worker mid-run.
//!
//! The scenario matrix ([`crate::matrix`]) attacks the protocol *inside*
//! one run; this module attacks the layer above it — the multi-tenant
//! session pool (`psa-sessions`). The fault shape is a worker lane dying
//! mid-dispatch: the slice in flight is lost and the victim session is
//! re-queued on the surviving lanes, resuming from its last pool
//! checkpoint (from frame 0 when `checkpoint_interval` is 0).
//!
//! Gates, in order of importance:
//!
//! 1. **completion** — every admitted session still completes on the
//!    survivors (exactly one records a restart);
//! 2. **parity under fault** — every session's fingerprint, including the
//!    restarted one's, is byte-identical to a solo `EventSim` run of its
//!    derived seed (checkpoint/restore keeps the determinism contract);
//! 3. **bounded loss** — with checkpointing on, the victim discards fewer
//!    than `checkpoint_interval` completed frames;
//! 4. **replay** — the whole chaotic pool run replays byte-identically.

use psa_sessions::{
    derive_session_seed, AdmissionConfig, PoolConfig, PoolFault, PoolReport, SessionManager,
    SessionSpec, TenantId,
};
use psa_workloads::{myrinet_gcc, paper_run_config, snow_scene, WorkloadSize};

/// Configuration for the session-chaos gate.
#[derive(Clone, Copy, Debug)]
pub struct SessionChaosConfig {
    /// Sessions to admit.
    pub sessions: usize,
    /// Worker lanes (one dies; at least 2).
    pub workers: usize,
    /// Frames per session.
    pub frames: u64,
    /// Pool base seed.
    pub seed: u64,
    /// 1-based dispatch count the worker loss strikes at.
    pub lose_at_dispatch: u64,
    /// Pool checkpoint cadence in completed frames (0 = restart from 0).
    pub checkpoint_interval: u64,
}

impl Default for SessionChaosConfig {
    fn default() -> Self {
        SessionChaosConfig {
            sessions: 12,
            workers: 3,
            frames: 8,
            seed: 0xC4A0_5E55,
            lose_at_dispatch: 5,
            checkpoint_interval: 2,
        }
    }
}

/// What the session-chaos gate observed.
#[derive(Clone, Debug)]
pub struct SessionChaosOutcome {
    /// Sessions that completed despite the lane loss.
    pub completed: usize,
    /// Lanes the fault actually killed.
    pub lanes_lost: usize,
    /// Total restarts recorded across sessions.
    pub requeues: u64,
    /// Pool fingerprints, session-id order.
    pub fingerprints: Vec<u64>,
    /// Gate violations (empty = pass).
    pub failures: Vec<String>,
}

impl SessionChaosOutcome {
    /// Did every gate hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Session `i`'s spec: a small snow run on two calculators.
fn spec(cfg: &SessionChaosConfig, i: usize) -> SessionSpec {
    let size = WorkloadSize { systems: 2, particles_per_system: 300, scale: 1.0 };
    SessionSpec {
        tenant: TenantId(i as u32 % 3),
        scene: snow_scene(size),
        cfg: paper_run_config(cfg.frames, 0.04),
        cluster: myrinet_gcc(2, 1),
        cost: size.cost_model(),
        arrival: 0.0,
    }
}

fn pool_run(cfg: &SessionChaosConfig) -> PoolReport {
    let mut pool = SessionManager::new(PoolConfig {
        workers: cfg.workers,
        slice_frames: 2,
        admission: AdmissionConfig::unbounded(cfg.sessions.max(1)),
        base_seed: cfg.seed,
        checkpoint_interval: cfg.checkpoint_interval,
        instrument: false,
    })
    .with_fault(PoolFault::WorkerLoss { at_dispatch: cfg.lose_at_dispatch });
    for i in 0..cfg.sessions {
        if let Err(e) = pool.admit(spec(cfg, i)) {
            panic!("unbounded admission cannot refuse: {e}");
        }
    }
    pool.run_to_completion()
}

/// Run the session-chaos gate: one worker loss mid-run, then check
/// completion, per-session solo parity, and whole-pool replay.
pub fn run_session_chaos(cfg: &SessionChaosConfig) -> SessionChaosOutcome {
    let report = pool_run(cfg);
    let replay = pool_run(cfg);
    let mut failures = Vec::new();

    if report.completed() != cfg.sessions {
        failures.push(format!(
            "only {}/{} sessions completed after the worker loss",
            report.completed(),
            cfg.sessions
        ));
    }
    if report.lanes_lost != 1 {
        failures.push(format!("expected exactly 1 lane lost, saw {}", report.lanes_lost));
    }
    let requeues: u64 = report.outcomes.iter().map(|o| o.counters.requeues).sum();
    if requeues != 1 {
        failures.push(format!("expected exactly 1 session restart, saw {requeues}"));
    }
    if cfg.checkpoint_interval > 0 {
        for o in report.outcomes.iter().filter(|o| o.counters.requeues > 0) {
            if o.counters.lost_frames >= cfg.checkpoint_interval {
                failures.push(format!(
                    "session {} lost {} frames; checkpoints every {} bound the loss below that",
                    o.id.0, o.counters.lost_frames, cfg.checkpoint_interval
                ));
            }
        }
    }

    for outcome in &report.outcomes {
        let seed = derive_session_seed(cfg.seed, outcome.id);
        let solo = spec(cfg, outcome.id.0 as usize).solo(seed).run().fingerprint();
        if outcome.fingerprint != solo {
            failures.push(format!(
                "session {} fingerprint {:x} != solo {:x} (seed {:#x})",
                outcome.id.0, outcome.fingerprint, solo, outcome.seed
            ));
        }
    }

    let mut fingerprints: Vec<(u64, u64)> =
        report.outcomes.iter().map(|o| (o.id.0, o.fingerprint)).collect();
    fingerprints.sort_by_key(|(id, _)| *id);
    let mut replay_fps: Vec<(u64, u64)> =
        replay.outcomes.iter().map(|o| (o.id.0, o.fingerprint)).collect();
    replay_fps.sort_by_key(|(id, _)| *id);
    if fingerprints != replay_fps {
        failures.push("chaotic pool run did not replay byte-identically".to_string());
    }
    if (report.makespan - replay.makespan).abs() > 0.0 {
        failures
            .push(format!("replay makespan drifted: {} vs {}", report.makespan, replay.makespan));
    }

    SessionChaosOutcome {
        completed: report.completed(),
        lanes_lost: report.lanes_lost,
        requeues,
        fingerprints: fingerprints.into_iter().map(|(_, fp)| fp).collect(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_chaos_gate_passes() {
        let outcome = run_session_chaos(&SessionChaosConfig::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert_eq!(outcome.completed, 12);
        assert_eq!(outcome.lanes_lost, 1);
        assert_eq!(outcome.requeues, 1);
    }

    #[test]
    fn session_chaos_detects_nothing_on_single_lane_pools() {
        // With one lane the loss is dropped (the pool never kills its last
        // lane) — the gate must then fail on the lanes_lost expectation,
        // proving it actually checks something.
        let cfg = SessionChaosConfig { workers: 1, sessions: 4, ..SessionChaosConfig::default() };
        let outcome = run_session_chaos(&cfg);
        assert!(!outcome.passed());
        assert_eq!(outcome.lanes_lost, 0);
        assert_eq!(outcome.completed, 4, "sessions still complete");
    }
}
