//! SPMD executor over real host threads.
//!
//! Runs the identical frame protocol as the virtual executor (`psa-desim`'s
//! `EventSim`) but with every role on its own OS thread, one mpsc channel
//! per (sender, receiver) pair, wall-clock timing, and a real image
//! generator that rasterizes frames (optionally to PPM files). This is the
//! executable demonstration that the model parallelizes — the virtual
//! executor is the instrument that reproduces the paper's cluster numbers.
//!
//! The role bodies themselves — `calculator_main`, `manager_main`,
//! `image_generator_main` in `protocol/spmd.rs` — live in the shared
//! protocol module and drive the same role cores as the virtual engine, so
//! all executors evolve one protocol implementation. This file owns only
//! what is thread-specific: spawning, joining, error aggregation, and the
//! render sink.
//!
//! The sink also decides what a calculator ships: every frame it sends the
//! image generator a digest (count + composable checksum) of each system,
//! and the splat records its particles draw through the sink's camera only
//! when a sink will draw them — so a run without one moves nothing but
//! digests to the image generator, and `FrameReport::{alive, checksum}`
//! are the same either way.
//!
//! Protocol failures are values, not panics: every role returns
//! [`ProtocolError`] and [`run_threaded`] surfaces the most specific error
//! after joining all threads. Every frame, each role also checks what it
//! owns: a calculator particle conservation across the exchange and finite
//! positions, the manager the domain partition after every rebalance, and
//! both the Figure-2 order of their recorded protocol trace.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use netsim::ThreadNet;
use psa_core::DomainMap;
use psa_core::Particle;
use psa_math::Axis;
use psa_render::{push_splats, Camera, Splat, SplatConfig};
use psa_trace::{Recorder, TraceReport};

use crate::config::RunConfig;
use crate::msg::ProtocolError;
use crate::protocol::space_for;
use crate::protocol::spmd::{calculator_main, image_generator_main, manager_main};
use crate::report::RunReport;
use crate::scene::Scene;

/// Where and how the image generator should rasterize.
#[derive(Clone, Debug)]
pub struct RenderSink {
    pub camera: Camera,
    pub splat: SplatConfig,
    /// Directory for PPM frames; `None` renders in memory only (frames are
    /// still rasterized so the work is real).
    pub out_dir: Option<PathBuf>,
    pub prefix: String,
    /// Background color.
    pub background: psa_math::Vec3,
    /// Render orientation-aligned streaks of `(length, steps)` instead of
    /// dots (uses the paper's mandatory orientation property).
    ///
    /// ```
    /// use std::num::NonZeroUsize;
    /// use psa_math::Aabb;
    /// use psa_render::Camera;
    /// use psa_runtime::threaded::RenderSink;
    ///
    /// let mut sink = RenderSink::headless(Camera::ortho(Aabb::centered_cube(10.0), 32, 24));
    /// sink.streaks = NonZeroUsize::new(4).map(|steps| (1.2, steps));
    /// ```
    ///
    /// A streak of no steps would draw nothing, and cannot be written:
    ///
    /// ```compile_fail,E0308
    /// # use psa_math::Aabb;
    /// # use psa_render::Camera;
    /// # use psa_runtime::threaded::RenderSink;
    /// let mut sink = RenderSink::headless(Camera::ortho(Aabb::centered_cube(10.0), 32, 24));
    /// sink.streaks = Some((1.2, 0));
    /// ```
    pub streaks: Option<(f32, NonZeroUsize)>,
}

impl RenderSink {
    /// In-memory rendering with an orthographic camera over the space.
    pub fn headless(camera: Camera) -> Self {
        RenderSink {
            camera,
            splat: SplatConfig::default(),
            out_dir: None,
            prefix: "frame".into(),
            background: psa_math::Vec3::new(0.02, 0.02, 0.05),
            streaks: None,
        }
    }

    /// Splats a particle draws: its streak's steps, or one dot.
    pub(crate) fn steps(&self) -> usize {
        self.streaks.map_or(1, |(_, steps)| steps.get())
    }

    /// Append the splat records `particles` draw to `out`, in order;
    /// returns how many splats were culled.
    pub(crate) fn push_splats(&self, out: &mut Vec<Splat>, particles: &[Particle]) -> usize {
        particles.iter().map(|p| push_splats(out, &self.camera, &self.splat, self.streaks, p)).sum()
    }
}

/// Run the scene on `n` calculator threads (+ manager + image generator).
/// Returns the wall-clock report; `sink` controls real rasterization (and
/// with it whether splat records, or only digests, reach the image
/// generator; the calculators project through the sink's camera, splat
/// settings and streaks).
///
/// The calculators always exchange in the dense pattern and every system
/// runs its full protocol in turn; checkpointing and recovery, which this
/// executor cannot honour, are rejected with
/// [`ProtocolError::Unsupported`] before any thread starts, a
/// configuration [`RunConfig::check`] or a scene [`Scene::check`] refuses
/// with its error, and a sink whose viewport has no pixels with
/// [`ProtocolError::Render`] at frame 0.
///
/// # Panics
/// Panics if `n == 0` — a run with no calculators is a caller bug. All
/// runtime failures (dead peers, out-of-order messages, invariant
/// violations, render I/O) come back as [`ProtocolError`].
pub fn run_threaded(
    scene: &Scene,
    cfg: &RunConfig,
    n: usize,
    sink: Option<RenderSink>,
) -> Result<RunReport, ProtocolError> {
    run_threaded_traced(scene, cfg, n, sink, false)
}

/// [`run_threaded`] with optional per-phase instrumentation: when
/// `instrument` is true every role carries a wall-clock [`Recorder`] and
/// the merged trace lands in `RunReport::phases`. Instrumentation only
/// *reads* the endpoint epoch clock — it sends no messages and touches no
/// protocol state, so the run's output (frame reports, checksums) is
/// unchanged. Timings use the wall clock and are NOT reproducible across
/// runs; compare frame checksums, not phase times.
pub fn run_threaded_traced(
    scene: &Scene,
    cfg: &RunConfig,
    n: usize,
    sink: Option<RenderSink>,
    instrument: bool,
) -> Result<RunReport, ProtocolError> {
    assert!(n >= 1);
    if cfg.checkpoint_interval > 0 {
        return Err(ProtocolError::Unsupported { executor: "threaded", option: "checkpoint" });
    }
    cfg.check()?;
    scene.check()?;
    if let Some((w, h)) =
        sink.as_ref().map(|s| s.camera.viewport()).filter(|&(w, h)| w == 0 || h == 0)
    {
        let detail = format!("the sink's {w} x {h} viewport has no pixels to draw");
        return Err(ProtocolError::Render { frame: 0, detail });
    }
    // The threaded executor runs every balancing strategy manager-mediated
    // over the Figure-2 per-system schedule: decentralized strategies make
    // the same per-round decisions, but their transfers still travel the
    // Orders/NewCut/Domains round-trip (gossip topology is a
    // virtual-executor timing study; here time is real wall clock anyway).
    // The start pair of a round is its index modulo the pairs that exist,
    // so at n = 2 every system's one pair is evaluated every round.
    let n_sys = scene.systems.len();
    let endpoints = ThreadNet::build::<crate::msg::Msg>(n + 2);
    #[expect(
        clippy::disallowed_methods,
        reason = "this executor reports real elapsed time; the virtual executor owns virtual time"
    )]
    let started = std::time::Instant::now();

    let initial_domains: Vec<DomainMap> =
        (0..n_sys).map(|s| DomainMap::split_even(space_for(scene, cfg, s), Axis::X, n)).collect();
    let replicas: Vec<Arc<DomainMap>> = initial_domains.iter().cloned().map(Arc::new).collect();

    let mut handles = Vec::new();
    let mut eps = endpoints.into_iter();

    // ---- Calculator threads --------------------------------------------
    for c in 0..n {
        let ep = eps.next().expect("fabric built with n+2 endpoints");
        let scene = scene.clone();
        let cfg = cfg.clone();
        let domains0 = replicas.clone();
        let sink = sink.clone();
        #[expect(clippy::disallowed_methods, reason = "the role threads are this executor")]
        handles.push(thread::spawn(move || {
            calculator_main(ep, c, n, &scene, &cfg, domains0, sink.as_ref(), instrument)
        }));
    }

    // ---- Manager thread -------------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "the role threads are this executor")]
    let mgr_handle = {
        let ep = eps.next().expect("fabric built with n+2 endpoints");
        let scene = scene.clone();
        let cfg = cfg.clone();
        thread::spawn(move || manager_main(ep, n, &scene, &cfg, initial_domains, instrument))
    };

    // ---- Image generator thread ------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "the role threads are this executor")]
    let ig_handle = {
        let ep = eps.next().expect("fabric built with n+2 endpoints");
        let scene = scene.clone();
        let cfg = cfg.clone();
        thread::spawn(move || image_generator_main(ep, n, &scene, &cfg, sink, instrument))
    };

    // Join every role. If one role fails mid-protocol its endpoints drop
    // and the peers unblock with Transport errors; prefer the most specific
    // (non-transport) error when reporting.
    let calc_results: Vec<Result<Recorder, ProtocolError>> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or(Err(ProtocolError::WorkerPanic { role: "calculator" })))
        .collect();
    let mgr_result =
        mgr_handle.join().unwrap_or(Err(ProtocolError::WorkerPanic { role: "manager" }));
    let ig_result =
        ig_handle.join().unwrap_or(Err(ProtocolError::WorkerPanic { role: "image generator" }));

    let mut first_transport: Option<ProtocolError> = None;
    let mut first_specific: Option<ProtocolError> = None;
    let mut note = |e: ProtocolError| match e {
        ProtocolError::Transport(_) => {
            first_transport.get_or_insert(e);
        }
        other => {
            first_specific.get_or_insert(other);
        }
    };
    let mut recorders: Vec<Recorder> = Vec::with_capacity(n + 2);
    for r in calc_results {
        match r {
            Ok(rec) => recorders.push(rec),
            Err(e) => note(e),
        }
    }
    let mgr_frames = match mgr_result {
        Ok((frames, rec)) => {
            recorders.push(rec);
            Some(frames)
        }
        Err(e) => {
            note(e);
            None
        }
    };
    let ig_frames = match ig_result {
        Ok((v, rec)) => {
            recorders.push(rec);
            Some(v)
        }
        Err(e) => {
            note(e);
            None
        }
    };
    if let Some(e) = first_specific.or(first_transport) {
        return Err(e);
    }
    let mut frames = mgr_frames.expect("no error recorded implies manager succeeded");
    let rendered = ig_frames.expect("no error recorded implies image generator succeeded");
    // Merge IG-side alive counts + checksums into the manager's reports.
    for (fr, (alive, checksum)) in frames.iter_mut().zip(rendered) {
        fr.alive = alive;
        fr.checksum = checksum;
    }

    // Merge per-role traces (each role only wrote its own rank's rows).
    let parts: Vec<TraceReport> = recorders.into_iter().filter_map(Recorder::finish).collect();
    let phases = TraceReport::merge(&parts);

    let total = started.elapsed().as_secs_f64();
    Ok(RunReport {
        label: format!("THR-{}", cfg.label()),
        cluster: format!("{n} host threads"),
        calculators: n,
        total_time: total,
        frames: frames.into_iter().filter(|f| f.frame >= cfg.warmup).collect(),
        traffic: Default::default(),
        dead_ranks: Vec::new(),
        lost_particles: 0,
        phases,
        recoveries: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BalanceMode, LoadMetric};
    use crate::msg::Msg;
    use crate::protocol::spmd::{recv_within, RENDER_WINDOW};
    use crate::scene::SystemSetup;
    use netsim::ThreadEndpoint;
    use psa_core::actions::{ActionList, Gravity, KillOld, MoveParticles, RandomAccel};
    use psa_core::invariants::StateHash;
    use psa_core::Particle;
    use psa_core::SystemSpec;
    use std::time::Duration;

    fn scene() -> Scene {
        let mut spec = SystemSpec::test_spec(0);
        spec.emit_per_frame = 200;
        spec.max_age = 1.0;
        let mut s = Scene::new();
        s.add_system(SystemSetup::new(
            spec,
            ActionList::new()
                .then(Gravity::earth())
                .then(RandomAccel::new(2.0))
                .then(KillOld::new(1.0))
                .then(MoveParticles),
        ));
        s
    }

    #[test]
    fn threaded_run_completes_and_counts() {
        let cfg = RunConfig { frames: 6, dt: 0.1, ..Default::default() };
        let r = run_threaded(&scene(), &cfg, 3, None).expect("clean run");
        assert_eq!(r.calculators, 3);
        assert_eq!(r.frames.len(), 6);
        assert!(r.total_time > 0.0);
        // population grows 200/frame until age-out
        let alive = r.frames.last().unwrap().alive;
        assert!((1000..=1400).contains(&alive), "alive {alive}");
    }

    #[test]
    fn threaded_static_vs_dynamic_both_work() {
        for balance in [BalanceMode::Static, BalanceMode::dynamic()] {
            let cfg = RunConfig { frames: 4, dt: 0.1, balance, ..Default::default() };
            let r = run_threaded(&scene(), &cfg, 2, None).expect("clean run");
            assert_eq!(r.frames.len(), 4);
        }
    }

    #[test]
    fn threaded_single_calculator_degenerates_gracefully() {
        let cfg = RunConfig { frames: 3, dt: 0.1, ..Default::default() };
        let r = run_threaded(&scene(), &cfg, 1, None).expect("clean run");
        assert_eq!(r.frames.len(), 3);
        assert_eq!(r.frames.last().unwrap().migrated, 0);
    }

    #[test]
    fn checksums_are_computed_per_frame() {
        let cfg = RunConfig { frames: 4, dt: 0.1, ..Default::default() };
        let r = run_threaded(&scene(), &cfg, 2, None).expect("clean run");
        // Populated frames hash to something; frames differ.
        assert!(r.frames.iter().all(|f| f.checksum != 0));
        assert_ne!(r.frames[0].checksum, r.frames[3].checksum);
    }

    #[test]
    fn silent_peer_surfaces_as_typed_timeout_with_context() {
        let mut eps = ThreadNet::build::<Msg>(2).into_iter();
        let e0 = eps.next().expect("two endpoints");
        let _e1 = eps.next().expect("two endpoints");
        let err = recv_within(&e0, 1, Duration::from_millis(5), "calculator", 0, 7)
            .expect_err("nobody ever sends");
        assert_eq!(err, ProtocolError::Timeout { role: "calculator", rank: 0, frame: 7, peer: 1 });
        assert!(err.to_string().contains("timed out waiting for rank 1"));
    }

    /// Queue one calculator's (rank 0) side of each of `frames` frames on
    /// the image generator's link — a digest of `batch`, announcing `alive`
    /// particles, and the records the calculator's helper makes of `batch`
    /// through `sink`, plus `extra_culled` — and run the image generator
    /// (rank 2; the manager, 1, says nothing to it) over them. The channels
    /// are unbounded, so the calculator's side can be queued before the
    /// image generator runs; a real calculator stops a window of frames
    /// ahead (see `a_calculator_ships_a_window_of_frames_and_then_waits`).
    fn image_generator_fed(
        frames: u64,
        batch: &[Particle],
        alive: usize,
        extra_culled: usize,
        sink: RenderSink,
    ) -> (Result<(Vec<(u64, u64)>, Recorder), ProtocolError>, ThreadEndpoint<Msg>) {
        let mut eps = ThreadNet::build::<Msg>(3).into_iter();
        let calc = eps.next().expect("three endpoints");
        let ig = eps.nth(1).expect("three endpoints");
        let (scene, cfg) = (scene(), RunConfig { frames, ..Default::default() });
        let system = scene.systems[0].spec.id;
        for _ in 0..frames {
            let mut hash = StateHash::new();
            hash.extend(batch);
            let mut splats = Vec::new();
            let culled = sink.push_splats(&mut splats, batch) + extra_culled;
            calc.send(2, Msg::FrameDigest { system, alive, hash }).expect("peer alive");
            calc.send(2, Msg::RenderSplats { system, splats, culled }).expect("peer alive");
        }
        (image_generator_main(ig, 1, &scene, &cfg, Some(sink), false), calc)
    }

    #[test]
    fn a_render_batch_that_disagrees_with_its_digest_is_a_typed_error() {
        // Three particles at the centre draw three records as dots, nine
        // as streaks of three; a digest of four wants four and twelve, and
        // two culled besides the nine do not make twelve. Behind a digest
        // of three, the nine add up.
        let batch = [Particle::default(); 3];
        let streaks = RenderSink {
            streaks: NonZeroUsize::new(3).map(|steps| (0.5, steps)),
            ..RenderSink::headless(tiny_camera())
        };
        for (sink, steps, records, culled) in
            [(RenderSink::headless(tiny_camera()), 1, 3, 0), (streaks.clone(), 3, 9, 2)]
        {
            let (got, _calc) = image_generator_fed(1, &batch, 4, culled, sink);
            let err = got.expect_err("three particles behind a digest of four");
            assert_eq!(
                err,
                ProtocolError::DigestMismatch {
                    rank: 0,
                    frame: 0,
                    alive: 4,
                    steps,
                    records,
                    culled
                }
            );
            let text = format!(
                "shipped {records} records and {culled} culled after a digest of 4 particles at \
                 {steps} splats each"
            );
            assert!(err.to_string().contains(&text), "{err}");
        }
        let (got, _calc) = image_generator_fed(1, &batch, 3, 0, streaks);
        got.expect("nine records behind a digest of three streaks of three");
    }

    fn tiny_camera() -> Camera {
        Camera::ortho(psa_math::Aabb::centered_cube(10.0), 32, 24)
    }

    /// The image generator draws exactly the frame `render_particles` and
    /// `render_streaks` draw from the particles its records were made of:
    /// a seeded batch with splats partly and wholly off the 32 × 24
    /// screen and non-finite fields, blended and additive, compared as the
    /// PPM files both write.
    #[test]
    fn the_image_generator_draws_what_render_particles_draws() {
        use psa_math::{Rng64, Scalar, Vec3};
        use psa_render::image::{frame_filename, write_ppm};
        use psa_render::{render_objects, render_particles, render_streaks, Framebuffer};

        let mut rng = Rng64::new(0x1A6E);
        let batch: Vec<Particle> = (0..300)
            .map(|i| {
                let mut p = Particle::at(rng.in_box(Vec3::splat(-16.0), Vec3::splat(16.0)))
                    .with_size(rng.range(0.05, 2.0))
                    .with_color(Vec3::new(rng.unit(), rng.unit(), rng.unit()));
                p.alpha = rng.unit();
                p.orientation = rng.on_unit_sphere();
                match i % 41 {
                    0 => p.position.x = Scalar::NAN,
                    1 => p.alpha = Scalar::INFINITY,
                    2 => p.color.z = Scalar::NEG_INFINITY,
                    _ => {}
                }
                p
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("psa_ig_pixels_{}", std::process::id()));
        for additive in [false, true] {
            for streaks in [None, NonZeroUsize::new(3).map(|steps| (2.5, steps))] {
                let case = format!("additive {additive} streaks {streaks:?}");
                let mut sink = RenderSink::headless(tiny_camera());
                sink.splat.additive = additive;
                sink.streaks = streaks;
                sink.out_dir = Some(dir.clone());
                let (ppm, want_ppm) = (dir.join(frame_filename("frame", 0)), dir.join("want.ppm"));
                let (camera, splat, background) =
                    (sink.camera.clone(), sink.splat, sink.background);
                let (got, _calc) = image_generator_fed(1, &batch, batch.len(), 0, sink);
                got.expect("clean run");
                let (w, h) = camera.viewport();
                let mut want = Framebuffer::new(w, h);
                want.clear(background);
                render_objects(&mut want, &camera, &scene().objects);
                let drawn = match streaks {
                    Some((len, steps)) => {
                        render_streaks(&mut want, &camera, &batch, &splat, len, steps.get())
                    }
                    None => render_particles(&mut want, &camera, &batch, &splat),
                };
                assert!(0 < drawn && drawn < batch.len(), "{case}: some drawn, some culled");
                write_ppm(&want, &want_ppm).expect("scratch file");
                let read = |path: &std::path::Path| std::fs::read(path).expect("frame written");
                assert!(read(&ppm) == read(&want_ppm), "{case}: pixels differ");
            }
        }
        std::fs::remove_dir_all(&dir).expect("scratch dir");
    }

    #[test]
    fn a_rendered_run_completes_with_the_sinkless_checksums_around_the_window() {
        // Frames below, at, one past and well past the render window: no
        // token is ever awaited, none again, one per calculator, many.
        for frames in [1, W, W + 1, 9] {
            let cfg = RunConfig {
                frames,
                dt: 0.1,
                load_metric: LoadMetric::CountProportional,
                ..Default::default()
            };
            for n in [1usize, 2, 3] {
                let per_frame = |sink: Option<RenderSink>| -> Vec<(u64, u64)> {
                    let r = run_threaded(&scene(), &cfg, n, sink).expect("clean run");
                    assert_eq!(r.frames.len() as u64, frames);
                    r.frames.iter().map(|f| (f.alive, f.checksum)).collect()
                };
                let bare = per_frame(None);
                for streaks in [None, NonZeroUsize::new(3).map(|steps| (0.4, steps))] {
                    let sink = RenderSink { streaks, ..RenderSink::headless(tiny_camera()) };
                    assert_eq!(per_frame(Some(sink)), bare, "frames {frames} n {n} {streaks:?}");
                }
            }
        }
    }

    /// A rendering calculator (rank 0) on its own thread, the test holding
    /// the manager's (1) and the image generator's (2) endpoints. The
    /// manager's side of all `frames` is queued up front; `BalanceMode::
    /// Static` and one calculator leave Particles + EndOfTransmission in and
    /// Load out as the whole exchange with it.
    fn lone_rendering_calculator(
        frames: u64,
    ) -> (
        thread::JoinHandle<Result<Recorder, ProtocolError>>,
        ThreadEndpoint<Msg>,
        ThreadEndpoint<Msg>,
    ) {
        let mut eps = ThreadNet::build::<Msg>(3).into_iter();
        let calc = eps.next().expect("three endpoints");
        let (mgr, ig) =
            (eps.next().expect("three endpoints"), eps.next().expect("three endpoints"));
        let scene = scene();
        let cfg = RunConfig { frames, dt: 0.1, balance: BalanceMode::Static, ..Default::default() };
        let system = scene.systems[0].spec.id;
        for _ in 0..frames {
            let batch = vec![Particle::at(psa_math::Vec3::ZERO); 5];
            mgr.send(0, Msg::Particles { system, batch, scale: 1.0 }).expect("peer alive");
            mgr.send(0, Msg::EndOfTransmission { system }).expect("peer alive");
        }
        let domains = vec![Arc::new(DomainMap::split_even(space_for(&scene, &cfg, 0), Axis::X, 1))];
        let sink = RenderSink::headless(tiny_camera());
        #[expect(
            clippy::disallowed_methods,
            reason = "the calculator under test runs on its own thread"
        )]
        let handle = thread::spawn(move || {
            calculator_main(calc, 0, 1, &scene, &cfg, domains, Some(&sink), false)
        });
        (handle, mgr, ig)
    }

    const SOON: Duration = Duration::from_secs(10);
    /// The window `W` the tests below are written around, and `W + 1`
    /// frames: the shortest run in which a calculator waits for a token.
    const W: u64 = RENDER_WINDOW;
    const FRAMES: u64 = W + 1;

    /// Take frames `0..W` off the image generator's endpoint, see the Load
    /// of frame `W` reach the manager — the calculator is past everything
    /// of that frame but the shipping — and see that nothing of it was
    /// shipped: `W` frames of render batches are the most ever in flight.
    fn drain_the_window(mgr: &ThreadEndpoint<Msg>, ig: &ThreadEndpoint<Msg>) {
        for frame in 0..W {
            let got = recv_within(ig, 0, SOON, "test", 2, frame).expect("digest");
            assert_eq!(got.kind(), "FrameDigest", "frame {frame}");
            let got = recv_within(ig, 0, SOON, "test", 2, frame).expect("batch");
            assert_eq!(got.kind(), "RenderSplats", "frame {frame}");
        }
        for frame in 0..FRAMES {
            let got = recv_within(mgr, 0, SOON, "test", 1, frame).expect("load report");
            assert_eq!(got.kind(), "Load", "frame {frame}");
        }
        let quiet = recv_within(ig, 0, Duration::from_millis(50), "test", 2, W);
        assert_eq!(
            quiet,
            Err(ProtocolError::Timeout { role: "test", rank: 2, frame: W, peer: 0 }),
            "frame {W} must wait for FrameDone of frame 0"
        );
    }

    #[test]
    fn a_calculator_ships_a_window_of_frames_and_then_waits() {
        let (calc, mgr, ig) = lone_rendering_calculator(FRAMES);
        drain_the_window(&mgr, &ig);
        ig.send(0, Msg::FrameDone { frame: 0 }).expect("peer alive");
        let got = recv_within(&ig, 0, SOON, "test", 2, W).expect("digest of the held frame");
        assert_eq!(got.kind(), "FrameDigest");
        let got = recv_within(&ig, 0, SOON, "test", 2, W).expect("batch of the held frame");
        assert_eq!(got.kind(), "RenderSplats");
        calc.join().expect("no panic").expect("clean run");
    }

    #[test]
    fn a_calculator_told_something_else_than_frame_done_fails_typed() {
        let (calc, mgr, ig) = lone_rendering_calculator(FRAMES);
        drain_the_window(&mgr, &ig);
        let system = scene().systems[0].spec.id;
        ig.send(0, Msg::EndOfTransmission { system }).expect("peer alive");
        assert_eq!(
            calc.join().expect("no panic").expect_err("not the token"),
            ProtocolError::UnexpectedMessage {
                role: "calculator",
                rank: 0,
                frame: W,
                expected: "FrameDone",
                got: "EndOfTransmission",
            }
        );
    }

    #[test]
    fn a_calculator_waiting_on_a_dead_image_generator_is_released() {
        // The wait is a `recv_within` on the image generator's link like
        // every other receive: silence ends in `Timeout { peer: 2, .. }`
        // after RECV_TIMEOUT (pinned on `recv_within` itself above, not by
        // sitting out 30 s here), a dropped endpoint at once.
        let (calc, mgr, ig) = lone_rendering_calculator(FRAMES);
        drain_the_window(&mgr, &ig);
        drop(ig);
        let err = calc.join().expect("no panic").expect_err("nobody will ever send the token");
        assert!(matches!(err, ProtocolError::Transport(_)), "{err:?}");
    }

    #[test]
    fn the_image_generator_sends_exactly_the_tokens_somebody_waits_for() {
        // One calculator's frames queued up front; tokens must come back
        // for the frames a calculator of that run waits on — none of a run
        // as long as the window, frame 0 alone of one a frame longer.
        for (frames, want) in [(W, vec![]), (W + 1, vec![0]), (W + 3, vec![0, 1, 2])] {
            let batch = [Particle::default(); 3];
            let sink = RenderSink::headless(tiny_camera());
            let (run, calc) = image_generator_fed(frames, &batch, 3, 0, sink);
            run.expect("clean run");
            let mut got = Vec::new();
            while let Ok(Msg::FrameDone { frame }) = recv_within(&calc, 2, SOON, "test", 0, 0) {
                got.push(frame);
            }
            assert_eq!(got, want, "frames {frames}");
        }
    }

    #[test]
    fn options_the_threads_cannot_honour_are_rejected_up_front() {
        let cfg = RunConfig { frames: 2, dt: 0.1, checkpoint_interval: 1, ..Default::default() };
        let option = "checkpoint";
        let err = run_threaded_traced(&scene(), &cfg, 2, None, true).expect_err(option);
        assert_eq!(err, ProtocolError::Unsupported { executor: "threaded", option });
        assert!(err.to_string().contains("threaded") && err.to_string().contains(option));
    }

    #[test]
    fn a_sink_without_pixels_is_refused_before_any_thread_starts() {
        let cfg = RunConfig { frames: 2, dt: 0.1, ..Default::default() };
        let view = psa_math::Aabb::centered_cube(10.0);
        for (w, h) in [(0, 0), (1, 0), (0, 5)] {
            let sink = RenderSink::headless(Camera::ortho(view, w, h));
            let err = run_threaded(&scene(), &cfg, 2, Some(sink)).expect_err("no pixels");
            assert!(matches!(err, ProtocolError::Render { frame: 0, .. }), "{w} x {h}: {err:?}");
            assert!(err.to_string().contains(&format!("{w} x {h}")), "{err}");
        }
        let sink = RenderSink::headless(Camera::ortho(view, 1, 1));
        run_threaded(&scene(), &cfg, 2, Some(sink)).expect("one pixel draws");
    }

    #[test]
    fn deterministic_load_metric_makes_dlb_reproducible() {
        let cfg = RunConfig {
            frames: 5,
            dt: 0.1,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        };
        let a = run_threaded(&scene(), &cfg, 3, None).expect("clean run");
        let b = run_threaded(&scene(), &cfg, 3, None).expect("clean run");
        let ka: Vec<u64> = a.frames.iter().map(|f| f.checksum).collect();
        let kb: Vec<u64> = b.frames.iter().map(|f| f.checksum).collect();
        assert_eq!(ka, kb);
    }
}
