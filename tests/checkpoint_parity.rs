//! Checkpoint/restore parity gate.
//!
//! The recovery machinery in `psa_runtime::checkpoint` only earns its keep
//! if a rolled-back-and-replayed run is *indistinguishable* from a run the
//! crash never touched. These tests pin that contract at two layers:
//!
//! * end-to-end — a crashed calculator recovered from the last periodic
//!   snapshot finishes with a fingerprint byte-identical to the same-seed
//!   uninterrupted run (zero lost particles, no dead ranks), across both
//!   paper workloads, several balancing strategies, and crash frames that
//!   land both on and off the snapshot cadence;
//! * engine-level — `snapshot()` at a frame boundary, `restore()` into a
//!   *fresh* engine, and run-to-end reproduces the uninterrupted report
//!   exactly, with the snapshot surviving its byte codec bit-for-bit;
//! * restore is total — a snapshot that decodes but does not fit the
//!   engine is refused with a typed error and changes nothing.

use netsim::{FaultPlan, LinkFault};
use psa_desim::{EventFabric, EventSim};
use psa_runtime::{BalanceMode, Engine, EngineSnapshot, ProtocolError, RunConfig};
use psa_workloads::{fountain_scene, myrinet_gcc, snow_scene, WorkloadSize};

fn size() -> WorkloadSize {
    WorkloadSize { systems: 2, particles_per_system: 300, scale: 25.0 }
}

fn config(seed: u64) -> RunConfig {
    RunConfig { frames: 8, dt: 0.1, seed, warmup: 0, ..Default::default() }
}

/// A fountain engine on 4 calculators over `plan`, built from scratch the
/// way the session layer rebuilds one before `restore`.
fn fountain_engine(cfg: &RunConfig, plan: FaultPlan) -> Engine<EventFabric> {
    let sz = size();
    EventSim::new(fountain_scene(sz), cfg.clone(), myrinet_gcc(4, 1), sz.cost_model())
        .with_faults(plan)
        .into_engine()
        .expect("four calculators")
}

/// The recovery gate: with `checkpoint_interval` set, a
/// fail-stop crash rolls back to the last snapshot, replays, and finishes
/// with the *uninterrupted* run's fingerprint — `lost_particles == 0`, no
/// dead ranks, and a recovery event describing exactly what was replayed.
#[test]
fn recovered_crash_matches_uninterrupted_run() {
    let sz = size();
    let cluster = myrinet_gcc(4, 1);
    for balance in [BalanceMode::Static, BalanceMode::dynamic(), BalanceMode::decentralized()] {
        for (wl, scene) in [("snow", snow_scene(sz)), ("fountain", fountain_scene(sz))] {
            let cfg = RunConfig { balance, ..config(0xC4A5) };
            let bare =
                EventSim::new(scene.clone(), cfg.clone(), cluster.clone(), sz.cost_model()).run();
            // Crash frames straddle the interval-2 cadence: 3 and 7 need a
            // one-frame replay, 4 collides with the boundary snapshot taken
            // the same step (zero frames replayed).
            for crash_frame in [3u64, 4, 7] {
                let mut plan = FaultPlan::none(cfg.seed, 4 + 2);
                plan.rank_mut(1).crash_at = Some(crash_frame);
                let rcfg = RunConfig { checkpoint_interval: 2, ..cfg.clone() };
                let label = format!("{wl}/{}/crash@{crash_frame}", balance.label());
                let rec = EventSim::new(scene.clone(), rcfg, cluster.clone(), sz.cost_model())
                    .with_faults(plan)
                    .run();
                assert_eq!(
                    rec.fingerprint(),
                    bare.fingerprint(),
                    "{label}: recovered run diverged from the uninterrupted run"
                );
                assert_eq!(rec.lost_particles, 0, "{label}: recovery lost particles");
                assert!(rec.dead_ranks.is_empty(), "{label}: rank was declared dead anyway");
                assert_eq!(rec.recoveries.len(), 1, "{label}: expected exactly one recovery");
                let ev = rec.recoveries[0];
                assert_eq!(ev.rank, 1, "{label}");
                assert_eq!(ev.frame, crash_frame, "{label}");
                let expected_snapshot = (crash_frame / 2) * 2;
                assert_eq!(ev.snapshot_frame, expected_snapshot, "{label}");
                assert_eq!(ev.frames_replayed, crash_frame - expected_snapshot, "{label}");
                assert!(ev.particles_restored > 0, "{label}: snapshot held no particles");
            }
        }
    }
}

/// Without recovery the same plan degrades: the rank dies and particles are
/// confiscated. This is the "before" picture the tentpole fixes — kept as a
/// contrast pin so the recovered gate above cannot pass vacuously.
#[test]
fn unrecovered_crash_still_degrades() {
    let sz = size();
    let cluster = myrinet_gcc(4, 1);
    let cfg = config(0xC4A5);
    let mut plan = FaultPlan::none(cfg.seed, 4 + 2);
    plan.rank_mut(1).crash_at = Some(3);
    let r =
        EventSim::new(fountain_scene(sz), cfg, cluster, sz.cost_model()).with_faults(plan).run();
    assert!(!r.dead_ranks.is_empty(), "crash without recovery must kill the rank");
    assert!(r.lost_particles > 0, "degraded mode confiscates the dead rank's particles");
    assert!(r.recoveries.is_empty());
}

/// Engine-level pin, mirroring `event_parity.rs`'s style: snapshot at a
/// mid-run frame boundary, restore into a fresh engine, and the resumed
/// run's report fingerprints identically to the uninterrupted one. The
/// snapshot also survives encode → decode bit-exactly.
#[test]
fn mid_run_restore_resumes_byte_identically() {
    let cfg = config(0x0C4E);
    let make_engine = || fountain_engine(&cfg, FaultPlan::none(cfg.seed, 4 + 2));

    // Reference: straight through, capturing the frame-3 boundary.
    let mut a = make_engine();
    let mut frames_a = Vec::new();
    for _ in 0..3 {
        frames_a.push(a.step_frame().expect("healthy run").expect("frames remain"));
    }
    let snap = a.snapshot();
    assert_eq!(snap.next_frame, 3);
    while let Some(fr) = a.step_frame().expect("healthy run") {
        frames_a.push(fr);
    }
    let head: Vec<_> = frames_a[..3].to_vec();
    let ra = a.finish_report("checkpoint-parity".into(), frames_a);

    // Resumed: a fresh engine that never ran frames 0..3, restored from the
    // snapshot. Its first three frame reports are the reference's own (the
    // restored engine starts at frame 3 by construction).
    let mut b = make_engine();
    b.restore(&snap).expect("snapshot fits the engine it came from");
    let mut frames_b = head;
    while let Some(fr) = b.step_frame().expect("healthy run") {
        frames_b.push(fr);
    }
    let rb = b.finish_report("checkpoint-parity".into(), frames_b);
    assert_eq!(
        ra.fingerprint(),
        rb.fingerprint(),
        "restored engine diverged from the uninterrupted run"
    );
    assert_eq!(ra.total_time, rb.total_time, "virtual makespans must match exactly");

    // Codec round-trip of a *live* mid-run snapshot (the unit tests cover
    // synthetic ones): every byte, including float bit patterns, survives.
    let decoded = EngineSnapshot::decode(&snap.encode()).expect("live snapshot decodes");
    assert_eq!(decoded.fingerprint(), snap.fingerprint());
    assert_eq!(decoded.encode(), snap.encode());
}

/// Restoring `edit`ed into a fresh engine: the edit is one field of a valid
/// frame-3 snapshot of a fountain whose links jitter (so the injector has
/// streams). The edited snapshot still decodes; restoring it must fail with
/// the checkpoint's typed error and leave the engine exactly as it was.
fn assert_refused_untouched(edit: impl FnOnce(&mut EngineSnapshot)) {
    let cfg = config(0x0BAD);
    let mut plan = FaultPlan::none(cfg.seed, 4 + 2);
    plan.set_all_links(LinkFault::jittery(0.5, 1e-3));
    let mut live = fountain_engine(&cfg, plan.clone());
    for _ in 0..3 {
        live.step_frame().expect("healthy run").expect("frames remain");
    }
    let mut snap = live.snapshot();
    assert!(!snap.fabric.injector_streams.is_empty(), "jittery links draw");
    edit(&mut snap);
    let snap = EngineSnapshot::decode(&snap.encode()).expect("the edited snapshot decodes");
    let mut fresh = fountain_engine(&cfg, plan);
    let before = fresh.snapshot().fingerprint();
    let err = fresh.restore(&snap).expect_err("a snapshot that does not fit must be refused");
    assert!(matches!(err, ProtocolError::Domain { role: "checkpoint", .. }), "{err}");
    assert_eq!(fresh.snapshot().fingerprint(), before, "a refused restore changed the engine");
}

#[test]
fn restore_refuses_a_missing_wire_clock() {
    assert_refused_untouched(|s| {
        s.fabric.wire.clocks.pop();
    });
}

#[test]
fn restore_refuses_an_extra_nic_cursor() {
    assert_refused_untouched(|s| s.fabric.wire.link_free.push(0.0));
}

/// The manager's per-calculator count of missed load reports.
#[test]
fn restore_refuses_a_missing_rank_counter() {
    assert_refused_untouched(|s| {
        s.missed.pop();
    });
}

#[test]
fn restore_refuses_injector_streams_that_are_not_whole_triples() {
    assert_refused_untouched(|s| {
        s.fabric.injector_streams.pop();
    });
}

#[test]
fn restore_refuses_a_store_of_zero_buckets() {
    assert_refused_untouched(|s| s.calcs[0].stores[0].buckets = 0);
}

#[test]
fn restore_refuses_a_store_of_2_pow_40_buckets() {
    assert_refused_untouched(|s| s.calcs[0].stores[0].buckets = 1 << 40);
}
