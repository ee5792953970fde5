//! The traced pass: per-layer metrics, the layers being the crates.
//!
//! Spans are recorded here, around calls into each crate's public
//! functions; the only instrumentation inside the program that this pass
//! reads is the phase table `run_threaded_traced(.., true)` already
//! returns. Two kinds of measurement:
//!
//! * **workload layers** run the workload's own problems through the
//!   program with tracing on and off and with the one knob each layer
//!   metric isolates turned (calculator count, rank count, balancing,
//!   checkpointing) — [`workload_layers`];
//! * **probes** time one public function of one crate on a fixed,
//!   seed-generated input, for a slice of the run each — [`probes`]. They
//!   do not depend on the workload; every traced run repeats them because
//!   the driver asks every run for every metric.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

use cluster_sim::{ClusterSpec, CostModel, NetworkModel};
use netsim::{FaultPlan, FaultPolicy, ThreadNet};
use psa_core::actions::{
    ActionList, BounceOff, DieOnContact, Gravity, KillBelow, KillOld, MoveParticles, OrbitPoint,
    RandomAccel,
};
use psa_core::invariants::StateHash;
use psa_core::kernel::{self, DEFAULT_CHUNK};
use psa_core::objects::ExternalObject;
use psa_core::{Particle, SubDomainStore, SystemId};
use psa_desim::{EventFabric, EventQueue};
use psa_math::{Axis, Interval, Rng64, Vec3};
use psa_render::{render_particles, render_streaks, Framebuffer, SplatConfig};
use psa_runtime::balance::{BalancerConfig, LoadInfo};
use psa_runtime::balancers::all_strategies;
use psa_runtime::msg::Msg;
use psa_runtime::protocol::{node_layout, Engine, Fabric};
use psa_runtime::trace::Trace;
use psa_runtime::{BalanceMode, EngineSnapshot, RunConfig, Scene};
use psa_trace::{ClockKind, Recorder, PHASES};
use psa_workloads::fountain::FOUNTAIN_DT;
use psa_workloads::snow::{FLUTTER, SNOW_DT, SNOW_LIFETIME_FRAMES};
use psa_workloads::vortex::VORTEX_STRENGTH;
use psa_workloads::{myrinet_gcc, paper_run_config, WorkloadSize};

use crate::pass::{pframes, pool_frames, Pass};
use crate::stats::percentile;
use crate::workloads::{
    camera, session_spec, SceneKind, Workload, CALCULATORS, FRAME, SMOKE_FRAME,
};

/// Share of a traced run the probes get; the rest is the workload layers.
const PROBE_SHARE: f64 = 0.4;
/// Probes in [`probes`] (each gets an equal slice of the share).
const PROBE_COUNT: f64 = 43.0;
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 200;
/// Sub-domain buckets per store, as `RunConfig::default().buckets`.
const BUCKETS: usize = 8;

pub fn run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Pass {
    let mut pass = Pass::default();
    let reps = ((seconds / 7.0).round() as usize).max(2);
    workload_layers(w, seed, reps, smoke, &mut pass);
    probes(&mut Probes {
        pass: &mut pass,
        slice: seconds * PROBE_SHARE / PROBE_COUNT,
        n: if smoke { 2_000 } else { 100_000 },
        seed,
        smoke,
    });
    pass
}

fn workload_layers(w: &Workload, seed: u64, reps: usize, smoke: bool, pass: &mut Pass) {
    let scene = w.threaded.scene();
    let cfg = w.threaded.run_cfg(seed);

    // psa-runtime, threaded: the same run with the phase recorders off and
    // on, alternating. Both go under one state label, so instrumentation
    // that changes a checksum fails the pass.
    let (mut plain, mut traced, mut frame_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut phases: [Vec<f64>; PHASES.len()] = Default::default();
    let mut counts = None;
    for _ in 0..reps {
        if let Some((t, r)) = pass.threaded("threaded", &scene, &cfg, CALCULATORS, w.sink(), false)
        {
            plain.push(t);
            let steady = r.frames.iter().filter(|f| f.frame >= cfg.frames / 4);
            frame_ms.extend(steady.map(|f| f.frame_time * 1e3));
            let balanced: u64 = r.frames.iter().map(|f| f.balanced).sum();
            counts = Some((r.mean_migrated(), balanced as f64 / cfg.frames as f64, r.mean_alive()));
        }
        if let Some((t, r)) = pass.threaded("threaded", &scene, &cfg, CALCULATORS, w.sink(), true) {
            traced.push(t);
            let totals = r.phases.map(|p| p.phase_totals()).unwrap_or_default();
            for (samples, total) in phases.iter_mut().zip(totals) {
                samples.push(total);
            }
        }
    }
    for (phase, samples) in PHASES.iter().zip(&phases) {
        pass.timing(&format!("runtime.phase.{}_s", phase.name()), samples, 1.0);
    }
    let (base, with) = (percentile(&plain, 25.0), percentile(&traced, 25.0));
    println!(
        "# runtime.trace.overhead_pct: traced {with:.4} s against a base of {base:.4} s untraced \
         (best-quartile wall of {reps} runs each)"
    );
    pass.value("runtime.trace.overhead_pct", 100.0 * (with - base) / base);
    pass.value("runtime.frame_ms_p95", percentile(&frame_ms, 95.0));
    let (migrated, balanced, alive) = counts.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    pass.value("runtime.migrated_per_frame", migrated);
    pass.value("runtime.balanced_per_frame", balanced);
    pass.value("runtime.alive_mean", alive);

    // psa-runtime, scaling row: the threaded problem's scene without a sink
    // through the sequential loop and 1, 2 and 4 calculators. On a 2-core
    // host c4 oversubscribes the cores: reported, never gated.
    let mut rates: [Vec<f64>; 4] = Default::default();
    for _ in 0..reps {
        let (t, r) = pass.sequential("scaling.seq", &scene, &cfg);
        rates[0].push(pframes(&r) as f64 / t);
        for (i, calculators) in [1usize, 2, 4].into_iter().enumerate() {
            let label = format!("scaling.c{calculators}");
            if let Some((t, r)) = pass.threaded(&label, &scene, &cfg, calculators, None, false) {
                rates[i + 1].push(pframes(&r) as f64 / t);
            }
        }
    }
    for (label, samples) in ["seq", "c1", "c2", "c4"].iter().zip(&rates) {
        pass.timing(&format!("runtime.scaling.{label}.pframes_per_s"), samples, 1.0);
    }

    // psa-desim: the event-driven problem as the workload poses it, then at
    // 64 ranks (per-rank against per-event cost) and with static balancing
    // (what the balance phase costs).
    let per_frame = 1e3 / w.desim.frames as f64;
    let expect = w.desim.sim_reported_frames();
    let mut sim = w.desim.sim(seed, w.sim_ranks, BalanceMode::dynamic());
    let mut wide = w.desim.sim(seed, if smoke { 8 } else { 64 }, BalanceMode::dynamic());
    let mut slb = w.desim.sim(seed, w.sim_ranks, BalanceMode::Static);
    let (mut event_rate, mut wide_ms, mut slb_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = None;
    for _ in 0..reps {
        if let Some((t, _, s)) = pass.desim("desim", &mut sim, expect) {
            event_rate.push(s.events as f64 / t);
            stats = Some(s);
        }
        if let Some((t, _, _)) = pass.desim("desim.r64", &mut wide, expect) {
            wide_ms.push(t * per_frame);
        }
        if let Some((t, _, _)) = pass.desim("desim.slb", &mut slb, expect) {
            slb_ms.push(t * per_frame);
        }
    }
    let stats = stats.unwrap_or_default();
    pass.value("desim.events", stats.events as f64);
    pass.value("desim.sends", stats.sends as f64);
    pass.value("desim.max_heap_depth", stats.max_heap_depth as f64);
    pass.timing("desim.events_per_s", &event_rate, 1.0);
    pass.timing("desim.r64.sim_frame_ms", &wide_ms, 1.0);
    pass.timing("desim.slb.sim_frame_ms", &slb_ms, 1.0);

    // psa-sessions: the pool as the workload poses it, then checkpointing
    // every 4 frames. Snapshots must not change any session's result, so
    // both pools share one state label.
    let (mut admit_us, mut frame_rate, mut ckpt_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool_counts = (0.0, 0.0, 0.0);
    for _ in 0..reps {
        let (admit, wall, report) = pass.pool("pool", w, seed, 0);
        admit_us.push(admit * 1e6 / w.sessions as f64);
        frame_rate.push(pool_frames(&report) as f64 / wall);
        let slots = report.slot_stats;
        pool_counts = (report.dispatches as f64, slots.recycled as f64, slots.high_water as f64);
        let (_, wall, report) = pass.pool("pool", w, seed, 4);
        ckpt_rate.push(report.completed() as f64 / wall);
    }
    pass.timing("sessions.admit_us", &admit_us, 1.0);
    pass.timing("sessions.frames_per_s", &frame_rate, 1.0);
    pass.value("sessions.dispatches", pool_counts.0);
    pass.value("sessions.slot_recycles", pool_counts.1);
    pass.value("sessions.slot_high_water", pool_counts.2);
    pass.timing("sessions.ckpt4.sessions_per_s", &ckpt_rate, 1.0);
}

/// Time `run` on fresh state from `setup` for about `budget` seconds (one
/// discarded warm-up call, then at least [`MIN_SAMPLES`] timed ones);
/// returns seconds per call. Building the state and dropping what `run`
/// returns are outside the stopwatch.
fn timed<S, R>(budget: f64, mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> R) -> Vec<f64> {
    black_box(run(setup()));
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES
        || (samples.len() < MAX_SAMPLES && started.elapsed().as_secs_f64() < budget)
    {
        let state = setup();
        let t0 = Instant::now();
        let out = black_box(run(state));
        samples.push(t0.elapsed().as_secs_f64());
        drop(out);
    }
    samples
}

struct Probes<'a> {
    pass: &'a mut Pass,
    /// Seconds each probe may take.
    slice: f64,
    /// Particles in the probes' stores.
    n: usize,
    seed: u64,
    smoke: bool,
}

impl Probes<'_> {
    /// Seconds per call × `scale` under `name`.
    fn probe<S, R>(
        &mut self,
        name: &str,
        scale: f64,
        setup: impl FnMut() -> S,
        run: impl FnMut(S) -> R,
    ) {
        let samples = timed(self.slice, setup, run);
        self.pass.timing(name, &samples, scale);
    }
}

fn probes(p: &mut Probes<'_>) {
    core_probes(p);
    netsim_probes(p);
    render_probes(p);
    desim_probes(p);
    trace_probes(p);
    engine_probes(p);
    balancer_probes(p);
    checkpoint_probes(p);
}

/// The initial population of a one-system scene of `n` particles.
fn population(kind: SceneKind, n: usize, seed: u64) -> (Scene, Vec<Particle>) {
    let scene = kind.scene(WorkloadSize { systems: 1, particles_per_system: n, scale: 1.0 });
    let particles = scene.systems[0].spec.emit_initial(&mut Rng64::new(seed));
    (scene, particles)
}

fn store_of(space: Interval, particles: &[Particle]) -> SubDomainStore {
    let mut store = SubDomainStore::new(space, Axis::X, BUCKETS);
    store.extend(particles.iter().copied());
    store
}

fn core_probes(p: &mut Probes<'_>) {
    let (n, seed) = (p.n, p.seed);
    let per_particle = 1e9 / n as f64;
    let (snow, base) = population(SceneKind::Snow, n, seed);
    let spec = &snow.systems[0].spec;
    let space = spec.space;
    let lifetime = SNOW_LIFETIME_FRAMES as f32 * SNOW_DT;

    // One action at a time over the snow population (uniform in the space,
    // ages uniform over the lifetime): the kill actions remove about half
    // and a twentieth of it, the contact actions touch almost none.
    let sphere = ExternalObject::Sphere { center: Vec3::new(6.0, 8.0, 0.0), radius: 3.0 };
    let actions = [
        ("gravity", ActionList::new().then(Gravity::earth())),
        ("random_accel", ActionList::new().then(RandomAccel::new(FLUTTER))),
        ("bounce_off", ActionList::new().then(BounceOff::new(sphere, 0.15, 0.6))),
        ("die_on_contact", ActionList::new().then(DieOnContact::new(ExternalObject::ground(0.0)))),
        (
            "orbit_point",
            ActionList::new().then(OrbitPoint::new(Vec3::new(0.0, 6.0, 0.0), VORTEX_STRENGTH)),
        ),
        ("kill_old", ActionList::new().then(KillOld::new(lifetime / 2.0))),
        ("kill_below", ActionList::new().then(KillBelow::ground(2.0))),
        ("move", ActionList::new().then(MoveParticles)),
    ];
    for (name, list) in &actions {
        p.probe(
            &format!("core.action.{name}.ns_per_particle"),
            per_particle,
            || store_of(space, &base),
            |mut store| {
                kernel::run_actions(list, SNOW_DT, 1, Rng64::new(seed), &mut store, 0, 1);
                store
            },
        );
    }

    // Each scene's own action list over its own population, serial path;
    // then the fountain's through the chunked kernel on two workers.
    let kernels = [
        ("snow", SceneKind::Snow, 0, 1),
        ("fountain", SceneKind::Fountain, 0, 1),
        ("vortex", SceneKind::Vortex, 0, 1),
        ("fountain.w2", SceneKind::Fountain, DEFAULT_CHUNK, 2),
    ];
    for (name, kind, chunk, workers) in kernels {
        let (scene, particles) = population(kind, n, seed);
        let system = &scene.systems[0];
        p.probe(
            &format!("core.kernel.{name}.ns_per_particle"),
            per_particle,
            || store_of(system.spec.space, &particles),
            |mut store| {
                let rng = Rng64::new(seed);
                kernel::run_actions(&system.actions, kind.dt(), 1, rng, &mut store, chunk, workers);
                store
            },
        );
    }

    p.probe(
        "core.emit.ns_per_particle",
        per_particle,
        || Rng64::new(seed),
        |mut rng| (0..n).map(|_| spec.emit_one(&mut rng)).collect::<Vec<Particle>>(),
    );
    p.probe(
        "core.store.extend.ns_per_particle",
        per_particle,
        || base.clone(),
        |newborn| {
            let mut store = SubDomainStore::new(space, Axis::X, BUCKETS);
            store.extend(newborn);
            store
        },
    );
    // A slice 2 % narrower than the population: 2 % of it are leavers.
    let margin = 0.01 * space.width();
    let narrow = Interval { lo: space.lo + margin, hi: space.hi - margin };
    p.probe(
        "core.store.collect_leavers.ns_per_particle",
        per_particle,
        || store_of(narrow, &base),
        |mut store| {
            let leavers = store.collect_leavers();
            (store, leavers)
        },
    );
    p.probe(
        "core.store.donate_low.ns_per_particle",
        per_particle,
        || store_of(space, &base),
        |mut store| {
            let given = store.donate_low(n / 20);
            (store, given)
        },
    );
    p.probe(
        "core.store.donate_high.ns_per_particle",
        per_particle,
        || store_of(space, &base),
        |mut store| {
            let given = store.donate_high(n / 20);
            (store, given)
        },
    );
    let shrunk = Interval { lo: space.lo, hi: space.hi - 0.1 * space.width() };
    p.probe(
        "core.store.reshape.ns_per_particle",
        per_particle,
        || store_of(space, &base),
        |mut store| {
            let leavers = store.reshape(shrunk);
            (store, leavers)
        },
    );
    p.probe(
        "core.statehash.ns_per_particle",
        per_particle,
        || (),
        |()| {
            let mut hash = StateHash::new();
            hash.extend(&base);
            hash.finish()
        },
    );
}

fn netsim_probes(p: &mut Probes<'_>) {
    const STOP: u64 = u64::MAX;
    let pair = || {
        let mut endpoints = ThreadNet::build::<Msg>(2).into_iter();
        let first = endpoints.next().expect("two endpoints were built");
        (first, endpoints.next().expect("two endpoints were built"))
    };

    p.probe("netsim.thread.build_us", 1e6, || (), |()| ThreadNet::build::<Msg>(4));

    let sends = if p.smoke { 100 } else { 1_000 };
    p.probe("netsim.thread.send_recv_ns", 1e9 / sends as f64, pair, |(a, b)| {
        for frame in 0..sends {
            a.send(1, Msg::FrameDone { frame }).expect("peer endpoint is alive");
            black_box(b.recv(0).expect("a message was just sent"));
        }
    });

    // Two threads, one token going back and forth: the wake-up latency
    // every protocol step of the threaded executor pays.
    let (here, there) = pair();
    let echo = thread::spawn(move || {
        while let Ok(Msg::FrameDone { frame }) = there.recv(0) {
            if frame == STOP || there.send(0, Msg::FrameDone { frame }).is_err() {
                break;
            }
        }
    });
    p.probe(
        "netsim.thread.pingpong_us",
        1e6 / sends as f64,
        || (),
        |()| {
            for frame in 0..sends {
                here.send(1, Msg::FrameDone { frame }).expect("echo thread is alive");
                black_box(here.recv(1).expect("echo thread answers"));
            }
        },
    );
    here.send(1, Msg::FrameDone { frame: STOP }).expect("echo thread is alive");
    echo.join().expect("echo thread exits cleanly");

    // A calculator's hand-off of a large batch: stage it the way the
    // protocol does (`drain(..).collect()`), send it to another thread,
    // which drops it and acknowledges.
    let batch = p.n / 2;
    let (_, particles) = population(SceneKind::Snow, batch, p.seed);
    let (here, there) = pair();
    let consumer = thread::spawn(move || {
        while let Ok(Msg::Particles { batch, .. }) = there.recv(0) {
            drop(batch);
            if there.send(0, Msg::FrameDone { frame: 0 }).is_err() {
                break;
            }
        }
    });
    p.probe(
        "netsim.thread.batch_handoff.ns_per_particle",
        1e9 / batch as f64,
        || particles.clone(),
        |mut staged| {
            // The copy `drain(..).collect()` makes is the cost under measurement.
            #[allow(clippy::drain_collect)]
            let batch: Vec<Particle> = staged.drain(..).collect();
            let msg = Msg::Particles { system: SystemId(0), batch, scale: 1.0 };
            here.send(1, msg).expect("consumer thread is alive");
            black_box(here.recv(1).expect("consumer acknowledges"));
        },
    );
    here.send(1, Msg::FrameDone { frame: STOP }).expect("consumer thread is alive");
    consumer.join().expect("consumer thread exits cleanly");
}

fn render_probes(p: &mut Probes<'_>) {
    let per_particle = 1e9 / p.n as f64;
    // The snow population through snow_render's camera.
    let (_, particles) = population(SceneKind::Snow, p.n, p.seed);
    let (width, height) = if p.smoke { SMOKE_FRAME } else { FRAME };
    let camera = camera((width, height));
    let background = Vec3::new(0.02, 0.02, 0.05);
    let splat = SplatConfig::default();
    let cleared = || {
        let mut fb = Framebuffer::new(width, height);
        fb.clear(background);
        fb
    };
    p.probe("render.splat.ns_per_particle", per_particle, cleared, |mut fb| {
        black_box(render_particles(&mut fb, &camera, &particles, &splat));
        fb
    });
    p.probe("render.streaks.ns_per_particle", per_particle, cleared, |mut fb| {
        black_box(render_streaks(&mut fb, &camera, &particles, &splat, 0.4, 3));
        fb
    });
    p.probe("render.clear_us", 1e6, cleared, |mut fb| {
        fb.clear(background);
        fb
    });
    p.probe("render.to_rgb8_us", 1e6, cleared, |fb| fb.to_rgb8());
}

fn desim_probes(p: &mut Probes<'_>) {
    let events: u64 = if p.smoke { 10_000 } else { 1_000_000 };
    let seed = p.seed;
    p.probe("desim.queue.push_pop_ns", 1e9 / events as f64, EventQueue::<u64>::new, |mut queue| {
        let mut rng = Rng64::new(seed);
        for item in 0..events {
            queue.push(f64::from(rng.unit()), item);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
        queue
    });

    let messages = if p.smoke { 100 } else { 10_000 };
    p.probe(
        "desim.fabric.send_recv_ns",
        1e9 / messages as f64,
        || EventFabric::new(NetworkModel::myrinet(), vec![0, 1], 2, FaultPlan::none(seed, 2)),
        |mut fabric| {
            for frame in 0..messages {
                let sent = Fabric::send(&mut fabric, 0, 1, Msg::FrameDone { frame });
                assert!(sent.is_ok(), "a healthy fabric accepts every send");
                black_box(Fabric::recv(&mut fabric, 1, 0).expect("the message was just sent"));
            }
            fabric
        },
    );
}

fn trace_probes(p: &mut Probes<'_>) {
    let calls = if p.smoke { 1_000 } else { 100_000 };
    let record = |mut recorder: Recorder| {
        for i in 0..calls {
            recorder.phase((i % 64) as u64, i % 4, PHASES[i % PHASES.len()], 1e-6);
        }
        recorder
    };
    let per_call = 1e9 / calls as f64;
    p.probe("trace.recorder.phase_ns", per_call, || Recorder::enabled(4, ClockKind::Wall), record);
    p.probe("trace.recorder.disabled_ns", per_call, Recorder::disabled, record);
}

/// What `EventSim::try_run` does before the first frame: fault plan,
/// event fabric, `Engine::new`.
fn engine(
    scene: Scene,
    cfg: RunConfig,
    cluster: &ClusterSpec,
    cost: CostModel,
) -> Engine<EventFabric> {
    let placement = cluster.placement();
    let (node_of, node_count) = node_layout(&placement);
    let plan = FaultPlan::none(cfg.seed, placement.calculators() + 2);
    let fabric = EventFabric::new(cluster.net.clone(), node_of, node_count, plan);
    let policy = FaultPolicy::default();
    Engine::new(scene, cfg, &placement, cost, fabric, policy, Trace::disabled(), false)
}

fn engine_probes(p: &mut Probes<'_>) {
    // A pool session's engine: what the pool pays per session.
    let session = session_spec(0);
    let session_cfg = RunConfig { seed: p.seed, ..session.cfg.clone() };
    let session_engine = |(scene, cfg)| engine(scene, cfg, &session.cluster, session.cost.clone());
    let session_inputs = || (session.scene.clone(), session_cfg.clone());
    p.probe("runtime.engine.new_us.r2", 1e6, session_inputs, session_engine);
    let frames = session_cfg.frames;
    p.probe(
        "runtime.engine.step_frame_us.r2",
        1e6 / frames as f64,
        || session_engine(session_inputs()),
        |mut engine| {
            while let Ok(Some(frame)) = engine.step_frame() {
                black_box(frame);
            }
            engine
        },
    );

    // desim_1024's engine: what one large run pays once.
    let big = Workload::named("desim_1024", p.smoke).expect("desim_1024 is a workload");
    let cluster = myrinet_gcc(big.sim_ranks, 1);
    let seed = p.seed;
    p.probe(
        "runtime.engine.new_ms.r1024",
        1e3,
        || (big.desim.scene(), big.desim.sim_cfg(seed, BalanceMode::dynamic())),
        |(scene, cfg)| engine(scene, cfg, &cluster, big.desim.size.cost_model()),
    );
}

fn balancer_probes(p: &mut Probes<'_>) {
    let cfg = BalancerConfig::default();
    for (tag, ranks, rounds) in [("r8", 8usize, 1_000u64), ("r1024", 1024, 10)] {
        // Uneven loads with a heavy left end, as the vortex scene produces.
        let mut rng = Rng64::new(p.seed);
        let loads: Vec<LoadInfo> = (0..ranks)
            .map(|r| {
                let count = 200 + rng.below(400) + if r < ranks / 4 { 1_500 } else { 0 };
                LoadInfo { count, time: count as f64 * 1e-6 }
            })
            .collect();
        let powers = vec![1.0; ranks];
        let present: Vec<usize> = (0..ranks).collect();
        for strategy in all_strategies() {
            p.probe(
                &format!("runtime.balancer.{}.decide_us.{tag}", strategy.name()),
                1e6 / rounds as f64,
                || (),
                |()| {
                    for round in 0..rounds {
                        black_box(strategy.decide(&loads, &powers, &present, round, &cfg));
                    }
                },
            );
        }
    }
}

fn checkpoint_probes(p: &mut Probes<'_>) {
    // An 8-rank engine on a 4-system fountain, five frames in.
    let size = WorkloadSize { systems: 4, particles_per_system: p.n / 4, scale: 1.0 };
    let cfg = RunConfig { seed: p.seed, ..paper_run_config(10, FOUNTAIN_DT) };
    let scene = SceneKind::Fountain.scene(size);
    let mut engine = engine(scene, cfg, &myrinet_gcc(8, 1), size.cost_model());
    for _ in 0..5 {
        engine.step_frame().expect("a healthy engine steps");
    }
    let snapshot = engine.snapshot();
    let bytes = snapshot.encode();
    p.pass.check(
        EngineSnapshot::decode(&bytes).is_ok_and(|s| s.fingerprint() == snapshot.fingerprint()),
        || "checkpoint: decode(encode(snapshot)) differs from the snapshot".to_owned(),
    );
    p.pass.attempted += 1;
    p.pass.value("runtime.checkpoint.bytes", bytes.len() as f64);

    let slice = p.slice / 4.0;
    let mb = bytes.len() as f64 / 1e6;
    let rate = |seconds: Vec<f64>| seconds.into_iter().map(|s| mb / s).collect::<Vec<f64>>();
    let taken = timed(slice, || (), |()| engine.snapshot());
    p.pass.timing("runtime.checkpoint.snapshot_ms", &taken, 1e3);
    let encoded = timed(slice, || (), |()| snapshot.encode());
    p.pass.timing("runtime.checkpoint.encode_mb_s", &rate(encoded), 1.0);
    let decoded = timed(slice, || (), |()| EngineSnapshot::decode(&bytes));
    p.pass.timing("runtime.checkpoint.decode_mb_s", &rate(decoded), 1.0);
    let restored = timed(slice, || (), |()| engine.restore(&snapshot));
    p.pass.timing("runtime.checkpoint.restore_ms", &restored, 1e3);
}
