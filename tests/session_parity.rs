//! Determinism under multiplexing — the `psa-sessions` contract (ISSUE 9).
//!
//! The session pool's whole promise is that multiplexing is *invisible* to
//! any single session: session `k` of a pool with base seed `B` produces
//! the byte-identical `RunReport` (same FNV fingerprint) as a solo
//! `EventSim` run configured with the derived seed
//! `Rng64::new(B).split(k)`. These tests pin that promise across worker
//! counts, slice lengths, mixed workloads, admission backpressure, and a
//! mid-run worker loss with session re-queue.

use std::collections::BTreeMap;

use psa_sessions::{
    derive_session_seed, AdmissionConfig, PoolConfig, PoolFault, PoolReport, SessionId,
    SessionManager, SessionSpec, TenantId,
};
use psa_workloads::Workload;

const BASE_SEED: u64 = 0x5E55_1005;

fn spec_for(i: usize) -> SessionSpec {
    // Mixed workloads and frame counts: parity must hold per session even
    // when neighbours run different scenes for different lengths.
    let (workload, frames) =
        if i.is_multiple_of(3) { (Workload::Fountain, 6) } else { (Workload::Snow, 9) };
    SessionSpec::standard(TenantId(i as u32 % 5), workload, 250, frames)
}

/// Fingerprint of a solo run of session `id` (same spec recipe).
fn solo_fingerprint(i: usize) -> u64 {
    spec_for(i).solo(derive_session_seed(BASE_SEED, SessionId(i as u64))).run().fingerprint()
}

fn run_pool(sessions: usize, workers: usize, slice_frames: u64, slots: usize) -> PoolReport {
    let mut pool = SessionManager::new(PoolConfig {
        workers,
        slice_frames,
        admission: AdmissionConfig::unbounded(slots),
        base_seed: BASE_SEED,
        checkpoint_interval: 0,
        instrument: false,
    });
    for i in 0..sessions {
        pool.admit(spec_for(i)).map_err(|e| e.to_string()).map(|_| ()).unwrap_or(());
    }
    pool.run_to_completion()
}

fn fingerprints(report: &PoolReport) -> BTreeMap<u64, u64> {
    report.outcomes.iter().map(|o| (o.id.0, o.fingerprint)).collect()
}

/// The headline pin: a 100-session multiplexed pool reproduces every solo
/// fingerprint exactly.
#[test]
fn hundred_session_pool_matches_solo_fingerprints() {
    let report = run_pool(100, 4, 2, 16);
    assert_eq!(report.completed(), 100);
    let fps = fingerprints(&report);
    for i in 0..100 {
        assert_eq!(
            fps.get(&(i as u64)).copied(),
            Some(solo_fingerprint(i)),
            "session {i} diverged from its solo run"
        );
    }
}

/// Worker count is a scheduling detail: 1, 2, and 4 lanes produce the
/// same per-session fingerprints (only pool latency may differ).
#[test]
fn fingerprints_invariant_across_worker_counts() {
    let sessions = 24;
    let one = fingerprints(&run_pool(sessions, 1, 2, 8));
    let two = fingerprints(&run_pool(sessions, 2, 2, 8));
    let four = fingerprints(&run_pool(sessions, 4, 2, 8));
    assert_eq!(one.len(), sessions);
    assert_eq!(one, two, "1 vs 2 workers changed a session's bytes");
    assert_eq!(one, four, "1 vs 4 workers changed a session's bytes");
}

/// Slice length is a scheduling detail too: yielding every frame versus
/// running runs to completion per dispatch changes nothing per session.
#[test]
fn fingerprints_invariant_across_slice_lengths() {
    let sessions = 18;
    let fine = fingerprints(&run_pool(sessions, 3, 1, 6));
    let coarse = fingerprints(&run_pool(sessions, 3, 64, 6));
    assert_eq!(fine, coarse, "slice length changed a session's bytes");
}

/// Admission backpressure (tiny slot arena, deep queue) delays sessions
/// but never alters them.
#[test]
fn fingerprints_survive_admission_backpressure() {
    let squeezed = run_pool(30, 4, 2, 2); // 2 slots for 30 sessions
    let roomy = run_pool(30, 4, 2, 30);
    assert_eq!(squeezed.completed(), 30);
    assert_eq!(fingerprints(&squeezed), fingerprints(&roomy));
    // The squeeze is real: queue waits must appear under contention.
    assert!(squeezed.mean_queue_wait() > roomy.mean_queue_wait());
}

/// A worker lane dying mid-run re-queues its session from frame 0 on the
/// survivors — and even the restarted session reproduces its solo bytes.
/// The restart's cost is no longer silent: the victim's counters carry the
/// discarded frames and the virtual seconds it pays again on replay.
#[test]
fn worker_loss_requeue_preserves_parity() {
    let sessions = 16;
    let mut pool = SessionManager::new(PoolConfig {
        workers: 4,
        slice_frames: 2,
        admission: AdmissionConfig::unbounded(8),
        base_seed: BASE_SEED,
        checkpoint_interval: 0,
        instrument: false,
    });
    for i in 0..sessions {
        // Sessions beyond the 8 slots queue — that's Err(Queued), not a drop.
        if let Err(e) = pool.admit(spec_for(i)) {
            assert!(
                matches!(e, psa_sessions::AdmissionError::Queued { .. }),
                "unbounded admission must never reject: {e}"
            );
        }
    }
    // Dispatches 1..=8 are the eight slot-holders' first slices; striking
    // at 13 hits a session mid-run, with completed frames to lose.
    let report = pool.with_fault(PoolFault::WorkerLoss { at_dispatch: 13 }).run_to_completion();
    assert_eq!(report.completed(), sessions);
    assert_eq!(report.lanes_lost, 1);
    let restarts: u64 = report.outcomes.iter().map(|o| o.counters.requeues).sum();
    assert_eq!(restarts, 1, "the lost slice must have re-queued one session");
    let victim = report
        .outcomes
        .iter()
        .find(|o| o.counters.requeues == 1)
        .expect("exactly one session restarted");
    assert!(
        victim.counters.lost_frames > 0,
        "restart-from-0 discards every completed frame — lost_frames must say so"
    );
    assert!(victim.counters.restart_lost_secs > 0.0, "the discarded frames cost real virtual time");
    let fps = fingerprints(&report);
    for i in 0..sessions {
        assert_eq!(
            fps.get(&(i as u64)).copied(),
            Some(solo_fingerprint(i)),
            "session {i} diverged after the worker loss"
        );
    }
}

/// The recovery tentpole at the pool layer: with `checkpoint_interval` set,
/// a worker loss resumes the victim from its last snapshot instead of
/// frame 0. Against the identical pool + fault with checkpoints off, the
/// victim loses strictly fewer frames and strictly less virtual time — and
/// parity still holds for every session, restored or not.
#[test]
fn worker_loss_resumes_from_last_checkpoint() {
    let sessions = 16;
    let run = |checkpoint_interval: u64| {
        let mut pool = SessionManager::new(PoolConfig {
            workers: 4,
            slice_frames: 3,
            admission: AdmissionConfig::unbounded(8),
            base_seed: BASE_SEED,
            checkpoint_interval,
            instrument: false,
        });
        for i in 0..sessions {
            if let Err(e) = pool.admit(spec_for(i)) {
                assert!(matches!(e, psa_sessions::AdmissionError::Queued { .. }), "{e}");
            }
        }
        pool.with_fault(PoolFault::WorkerLoss { at_dispatch: 11 }).run_to_completion()
    };
    let restart = run(0);
    let resumed = run(2);
    let victim_of = |r: &PoolReport| {
        r.outcomes
            .iter()
            .find(|o| o.counters.requeues == 1)
            .cloned()
            .expect("exactly one session restarted")
    };
    let (rv, cv) = (victim_of(&restart), victim_of(&resumed));
    // Checkpointing never changes scheduling, so the loss strikes the same
    // session in both pools, at the same point in its run.
    assert_eq!(rv.id, cv.id, "checkpointing must not change who the fault hits");
    assert!(rv.counters.lost_frames >= 2, "victim had completed at least one 3-frame slice");
    assert!(
        cv.counters.lost_frames < rv.counters.lost_frames,
        "resume-from-checkpoint ({}) must beat restart-from-0 ({})",
        cv.counters.lost_frames,
        rv.counters.lost_frames
    );
    assert!(
        cv.counters.lost_frames < 2,
        "interval 2 bounds the loss to under one interval, got {}",
        cv.counters.lost_frames
    );
    assert!(cv.counters.restart_lost_secs < rv.counters.restart_lost_secs);
    // Both victims still completed every frame of their spec...
    assert_eq!(rv.counters.frames, cv.counters.frames);
    // ...and every session in both pools reproduces its solo bytes.
    for (label, report) in [("restart", &restart), ("resumed", &resumed)] {
        assert_eq!(report.completed(), sessions, "{label}");
        let fps = fingerprints(report);
        for i in 0..sessions {
            assert_eq!(
                fps.get(&(i as u64)).copied(),
                Some(solo_fingerprint(i)),
                "{label}: session {i} diverged after the worker loss"
            );
        }
    }
}

/// The derived-seed recipe itself is pinned: the pool must run session k
/// under exactly `Rng64::new(base).split(k).next_u64()` — not base+k, not
/// a re-split — or solo reproduction instructions in the outcome would lie.
#[test]
fn outcomes_carry_the_derived_seed() {
    let report = run_pool(10, 2, 2, 4);
    for o in &report.outcomes {
        assert_eq!(o.seed, derive_session_seed(BASE_SEED, o.id));
        assert_eq!(o.fingerprint, o.report.fingerprint());
    }
}
