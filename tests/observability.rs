//! Golden determinism tests for the per-phase observability layer: an
//! instrumented run must be byte-identical to a bare run, because the
//! recorder only reads clocks — it never advances them, never draws RNG,
//! never sends a message.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::runtime::LoadMetric;
use particle_cluster_anim::trace::Counter;

fn virtual_run(scene_of: fn(WorkloadSize) -> Scene, dt: f32, traced: bool) -> RunReport {
    let size = WorkloadSize { systems: 3, particles_per_system: 1000, scale: 25.0 };
    let cfg = RunConfig { frames: 8, dt, seed: 7, ..Default::default() };
    let mut sim = EventSim::new(scene_of(size), cfg, myrinet_gcc(5, 1), size.cost_model());
    if traced {
        sim = sim.with_phases();
    }
    sim.run()
}

#[test]
fn instrumented_virtual_runs_fingerprint_like_bare_runs() {
    for (scene_of, dt) in
        [(snow_scene as fn(WorkloadSize) -> Scene, 0.15f32), (fountain_scene, 0.04)]
    {
        let bare = virtual_run(scene_of, dt, false);
        let traced = virtual_run(scene_of, dt, true);
        assert_eq!(
            bare.fingerprint(),
            traced.fingerprint(),
            "phase recording must not perturb the run"
        );
        assert!(bare.phases.is_none(), "bare runs carry no trace");
        let phases = traced.phases.as_ref().expect("traced runs carry the trace");
        assert_eq!(phases.frames.len(), 8, "every frame traced, warmup included");
        let totals = phases.phase_totals();
        assert!(totals.iter().all(|t| t.is_finite() && *t >= 0.0));
        assert!(totals.iter().sum::<f64>() > 0.0, "phases must have absorbed time");
        // The trace is derived measurement, not run output: two traced
        // runs of the same seed agree on it bit-for-bit too.
        let again = virtual_run(scene_of, dt, true);
        assert_eq!(again.phases.as_ref().unwrap(), phases);
    }
}

#[test]
fn instrumented_virtual_dlb_runs_stay_quiet_too() {
    // Balancing exercises the Balance phase and the order counters; the
    // fingerprint must still match a bare run exactly.
    let size = WorkloadSize { systems: 2, particles_per_system: 900, scale: 25.0 };
    let mk = |traced: bool| {
        // Infinite space packs everything into one slice at frame 0, so
        // the dynamic balancer is guaranteed to issue transfer orders.
        let cfg = RunConfig {
            frames: 10,
            dt: 0.15,
            seed: 3,
            space: SpaceMode::Infinite,
            balance: BalanceMode::dynamic(),
            ..Default::default()
        };
        let mut sim = EventSim::new(snow_scene(size), cfg, myrinet_gcc(4, 1), size.cost_model());
        if traced {
            sim = sim.with_phases();
        }
        sim.run()
    };
    let (bare, traced) = (mk(false), mk(true));
    assert_eq!(bare.fingerprint(), traced.fingerprint());
    let counters = traced.phases.as_ref().unwrap().counter_totals();
    assert!(counters.get(Counter::Messages) > 0, "a parallel run must have sent messages");
    assert!(
        counters.get(Counter::BalanceOrders) > 0,
        "DLB on an emitting workload must issue orders"
    );
}

/// Every counter is recorded where its event happens. Traced virtual runs
/// of both paper workloads, each with lossy links, with a crash, with a
/// crash recovered from interval-3 checkpoints, and with no fault: each
/// event such a run must produce shows in its counter, and a counter with a
/// second source — the frame reports, the recoveries, the fabric's traffic —
/// agrees with it.
#[test]
fn every_counter_is_recorded_where_its_event_happens() {
    use netsim::{FaultPlan, LinkFault};
    use particle_cluster_anim::runtime::report::FrameReport;
    use particle_cluster_anim::trace::FaultKind;

    let size = WorkloadSize { systems: 2, particles_per_system: 300, scale: 25.0 };
    let run = |scene_of: fn(WorkloadSize) -> Scene, dt: f32, fault: &str| {
        let checkpoint_interval = if fault == "crash+ckpt3" { 3 } else { 0 };
        let cfg = RunConfig {
            frames: 8,
            dt,
            seed: 11,
            warmup: 0,
            checkpoint_interval,
            ..Default::default()
        };
        let mut plan = FaultPlan::none(cfg.seed, 4 + 2);
        match fault {
            "lossy" => plan.set_all_links(LinkFault::lossy(0.05)),
            "crash" => plan.rank_mut(1).crash_at = Some(3),
            "crash+ckpt3" => plan.rank_mut(1).crash_at = Some(4),
            _ => {}
        }
        EventSim::new(scene_of(size), cfg, myrinet_gcc(4, 1), size.cost_model())
            .with_faults(plan)
            .with_phases()
            .run()
    };
    for (wl, scene_of, dt) in [
        ("snow", snow_scene as fn(WorkloadSize) -> Scene, 0.15f32),
        ("fountain", fountain_scene, 0.04),
    ] {
        for fault in ["none", "lossy", "crash", "crash+ckpt3"] {
            let label = format!("{wl}/{fault}");
            let r = run(scene_of, dt, fault);
            let trace = r.phases.as_ref().expect("traced run carries the trace");
            let c = trace.counter_totals();
            let sum = |f: fn(&FrameReport) -> u64| r.frames.iter().map(f).sum::<u64>();
            assert_eq!(c.get(Counter::Timeouts), sum(|f| f.timeouts), "{label}: timeouts");
            assert_eq!(c.get(Counter::Migrated), sum(|f| f.migrated), "{label}: migrated");
            assert_eq!(
                c.get(Counter::MigrationBytes),
                sum(|f| f.migration_bytes),
                "{label}: migration bytes"
            );
            assert_eq!(c.get(Counter::Restores), r.recoveries.len() as u64, "{label}: restores");
            assert_eq!(c.get(Counter::Messages), r.traffic.messages, "{label}: messages");
            let kinds: Vec<FaultKind> = trace.faults.iter().map(|e| e.kind).collect();
            match fault {
                "lossy" => {
                    assert!(c.get(Counter::SendRetries) > 0, "{label}: lossy links retry sends")
                }
                "crash" => {
                    assert!(
                        c.get(Counter::Timeouts) > 0,
                        "{label}: a crashed peer times receives out"
                    );
                    assert!(kinds.contains(&FaultKind::Crash), "{label}: {kinds:?}");
                    assert!(kinds.contains(&FaultKind::DeclaredDead), "{label}: {kinds:?}");
                }
                "crash+ckpt3" => {
                    assert!(c.get(Counter::Snapshots) > 0, "{label}: interval 3 snapshots");
                    assert!(c.get(Counter::Restores) > 0, "{label}: the crash is recovered");
                }
                _ if wl == "snow" => {
                    assert!(
                        c.get(Counter::BalanceSkips) > 0,
                        "{label}: a balanced snow skips rounds"
                    )
                }
                _ => {
                    assert!(
                        c.get(Counter::BalanceOrders) > 0,
                        "{label}: the fountain issues orders"
                    );
                    assert!(
                        c.get(Counter::Migrated) > 0,
                        "{label}: fountain particles cross domains"
                    );
                }
            }
        }
    }
}

/// The threaded executor runs on wall clocks, so fingerprints (which cover
/// `total_time`) are not comparable across runs. Per-frame particle-state
/// checksums are bit-exact under the deterministic load metric, and those
/// must not move when instrumentation is on.
#[test]
fn instrumented_threaded_runs_match_bare_checksums() {
    let size = WorkloadSize { systems: 2, particles_per_system: 600, scale: 25.0 };
    let mk = |traced: bool| {
        let scene = snow_scene(size);
        let cfg = RunConfig {
            frames: 6,
            dt: 0.15,
            seed: 23,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        };
        run_threaded_traced(&scene, &cfg, 3, None, traced).expect("threaded run failed")
    };
    let (bare, traced) = (mk(false), mk(true));
    assert!(bare.phases.is_none());
    let phases = traced.phases.as_ref().expect("traced threaded run carries the trace");
    assert_eq!(phases.frames.len(), 6);
    assert!(phases.phase_totals().iter().sum::<f64>() > 0.0);
    for (fa, fb) in bare.frames.iter().zip(traced.frames.iter()) {
        assert_eq!(fa.alive, fb.alive, "frame {} population drift", fa.frame);
        assert_eq!(fa.checksum, fb.checksum, "frame {} checksum drift", fa.frame);
    }
}

/// The threaded trace's payload-byte counter is fed by the endpoints'
/// `send_sized`. Under static balancing every message of a frame has a
/// known size, so what the calculators ship to the image generator can be
/// isolated exactly: with no sink it is one digest per (system,
/// calculator), whatever the population; with a sink the splat records
/// follow, one per particle, since the 64 × 48 camera frames every snow
/// particle and culls none.
#[test]
fn threaded_trace_counts_payload_bytes_and_a_sinkless_ship_is_digests_only() {
    use particle_cluster_anim::core::WIRE_BYTES;
    use particle_cluster_anim::net::WireSize;
    use particle_cluster_anim::render::Splat;
    use particle_cluster_anim::runtime::msg::{Msg, DIGEST_WIRE_BYTES};
    use particle_cluster_anim::runtime::LoadInfo;

    let size = WorkloadSize { systems: 2, particles_per_system: 600, scale: 25.0 };
    let (n, frames) = (2u64, 5u64);
    let scene = snow_scene(size);
    let cfg = RunConfig {
        frames,
        dt: 0.15,
        seed: 23,
        balance: BalanceMode::Static,
        ..Default::default()
    };
    let run = |sink: Option<RenderSink>| {
        run_threaded_traced(&scene, &cfg, n as usize, sink, true).expect("threaded run failed")
    };
    let view = Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0));
    let (bare, drawn) = (run(None), run(Some(RenderSink::headless(Camera::ortho(view, 64, 48)))));

    let system = scene.systems[0].spec.id;
    let load = Msg::Load { system, info: LoadInfo { count: 0, time: 0.0 }, migrated: 0 };
    let control = Msg::EndOfTransmission { system }.wire_bytes() + load.wire_bytes();
    let n_sys = scene.systems.len() as u64;
    let wire = WIRE_BYTES as u64;
    let phases = |r: &RunReport| r.phases.clone().expect("traced run carries the trace").frames;
    let mut shipped = 0;
    for ((fr, bare_trace), drawn_trace) in bare.frames.iter().zip(phases(&bare)).zip(phases(&drawn))
    {
        let created: u64 = scene
            .systems
            .iter()
            .map(|s| {
                let initial = s.spec.initial.as_ref().map_or(0, |i| i.0);
                (s.spec.emit_per_frame + if fr.frame == 0 { initial } else { 0 }) as u64
            })
            .sum();
        let moved = wire * (created + fr.migrated) + n_sys * n * control;
        let ship = bare_trace.counters.get(Counter::PayloadBytes) - moved;
        assert_eq!(ship, n_sys * n * DIGEST_WIRE_BYTES, "frame {}: ship is digests only", fr.frame);
        shipped += ship;
        assert_eq!(
            drawn_trace.counters.get(Counter::PayloadBytes)
                - bare_trace.counters.get(Counter::PayloadBytes),
            std::mem::size_of::<Splat>() as u64 * fr.alive,
            "frame {}: a sink adds exactly the records",
            fr.frame
        );
    }
    assert_eq!(shipped, frames * n_sys * n * DIGEST_WIRE_BYTES);
}

#[test]
fn phase_table_renders_from_a_traced_run() {
    let traced = virtual_run(snow_scene, 0.15, true);
    let table = traced.phase_table().expect("traced run renders a phase table");
    for phase in particle_cluster_anim::trace::PHASES {
        assert!(table.contains(phase.name()), "table missing phase {}", phase.name());
    }
    assert!(virtual_run(snow_scene, 0.15, false).phase_table().is_none());
}
