//! The four workloads and the problems each one poses to the program.
//!
//! The driver asks every run for every end-to-end metric, so every workload
//! takes all four paths through the program — the threaded executor, the
//! sequential loop, the event-driven executor and the session pool. The
//! paths a workload exists to stress run its **headline** problem, sized to
//! dominate the run; every other path runs the **side batch**, which is the
//! same in every workload and as small as a steady sample allows
//! (`README.md` has the measurements behind its sizes).
//!
//! The program under test receives only what is built here (scene, config,
//! cluster, sink); the seed enters through `RunConfig::seed` and
//! `PoolConfig::base_seed` and nowhere else.

use psa_desim::EventSim;
use psa_math::{Aabb, Vec3};
use psa_render::Camera;
use psa_runtime::threaded::RenderSink;
use psa_runtime::{BalanceMode, LoadMetric, RunConfig, Scene};
use psa_sessions::{
    AdmissionConfig, AdmissionError, PoolConfig, SessionId, SessionManager, SessionSpec, TenantId,
};
use psa_workloads::fountain::FOUNTAIN_DT;
use psa_workloads::snow::SNOW_DT;
use psa_workloads::vortex::VORTEX_DT;
use psa_workloads::{
    fountain_scene, myrinet_gcc, paper_run_config, snow_scene, vortex_scene, WorkloadSize,
};

/// Calculator threads of every threaded run. A constant, not `nproc`: the
/// per-frame checksums depend on the rank count, and they must be
/// comparable across hosts. Sized for a 2-core host (2 calculators +
/// manager + image generator); `nproc` is recorded with every result.
pub const CALCULATORS: usize = 2;

/// Every pool session: `2 × 300` particles, `paper_run_config(10, 0.04)`,
/// on a 2-node Myrinet cluster.
pub const SESSION_SIZE: WorkloadSize =
    WorkloadSize { systems: 2, particles_per_system: 300, scale: 1.0 };
pub const SESSION_FRAMES: u64 = 10;
pub const SESSION_DT: f32 = 0.04;
const POOL_LANES: usize = 8;
const POOL_SLICE_FRAMES: u64 = 2;
const POOL_MAX_IN_FLIGHT: usize = 32;
const POOL_TENANTS: u32 = 8;

pub const FRAME: (usize, usize) = (640, 480);
pub const SMOKE_FRAME: (usize, usize) = (64, 48);

/// `snow_render`'s camera: the whole snow volume, orthographic.
pub fn camera((width, height): (usize, usize)) -> Camera {
    let view = Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0));
    Camera::ortho(view, width, height)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SceneKind {
    Snow,
    Fountain,
    Vortex,
}

impl SceneKind {
    pub fn scene(self, size: WorkloadSize) -> Scene {
        match self {
            SceneKind::Snow => snow_scene(size),
            SceneKind::Fountain => fountain_scene(size),
            SceneKind::Vortex => vortex_scene(size),
        }
    }

    pub fn dt(self) -> f32 {
        match self {
            SceneKind::Snow => SNOW_DT,
            SceneKind::Fountain => FOUNTAIN_DT,
            SceneKind::Vortex => VORTEX_DT,
        }
    }
}

/// What one executor is given: a scene animated for some frames. `runs`
/// back-to-back runs of it are one timed sample — 1 for a headline problem;
/// more for the side batch, whose single runs last a millisecond or less. A
/// constant, so the work in a round (and `attempted`) never depends on a
/// timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Problem {
    pub kind: SceneKind,
    pub size: WorkloadSize,
    pub frames: u64,
    pub runs: usize,
}

impl Problem {
    pub fn scene(&self) -> Scene {
        self.kind.scene(self.size)
    }

    /// Threaded and sequential runs: default DLB, and the count-proportional
    /// load signal — with the wall-clock signal balancing decisions follow
    /// scheduler noise and no two runs produce the same checksums.
    pub fn run_cfg(&self, seed: u64) -> RunConfig {
        RunConfig {
            frames: self.frames,
            dt: self.kind.dt(),
            seed,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        }
    }

    pub fn sim_cfg(&self, seed: u64, balance: BalanceMode) -> RunConfig {
        RunConfig { seed, balance, ..paper_run_config(self.frames, self.kind.dt()) }
    }

    /// The event-driven executor on `ranks` calculators (one per Myrinet
    /// node). `ExchangeMode::Auto` resolves to sparse from 64 ranks up.
    pub fn sim(&self, seed: u64, ranks: usize, balance: BalanceMode) -> EventSim {
        let cfg = self.sim_cfg(seed, balance);
        EventSim::new(self.scene(), cfg, myrinet_gcc(ranks, 1), self.size.cost_model())
    }

    /// Frames an event-driven run reports (warm-up frames are filtered).
    pub fn sim_reported_frames(&self) -> u64 {
        let cfg = self.sim_cfg(0, BalanceMode::Static);
        cfg.frames - cfg.warmup
    }
}

/// The side batch. The single-threaded paths run one pool session's snow
/// scene bare, often enough to fill a sample; the threaded executor needs a
/// scene on which computing, not starting and waking four threads, is the
/// frame (below it the sample follows the host's wake-up latency: see the
/// README's sizing table); the pool runs a twentieth of `pool_sessions`.
const SIDE_THREADED: Problem = Problem {
    kind: SceneKind::Snow,
    size: WorkloadSize { systems: 4, particles_per_system: 10_000, scale: 1.0 },
    frames: 10,
    runs: 4,
};
const SIDE_SEQUENTIAL: Problem =
    Problem { kind: SceneKind::Snow, size: SESSION_SIZE, frames: SESSION_FRAMES, runs: 64 };
const SIDE_DESIM: Problem =
    Problem { kind: SceneKind::Snow, size: SESSION_SIZE, frames: SESSION_FRAMES, runs: 16 };
const SIDE_RANKS: usize = 2;
const SIDE_SESSIONS: usize = 100;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub threaded: Problem,
    /// Pixels the image generator rasterises (`RenderSink::headless`);
    /// `None` = no sink.
    pub frame: Option<(usize, usize)>,
    pub sequential: Problem,
    pub desim: Problem,
    /// Calculators of the event-driven problem.
    pub sim_ranks: usize,
    /// Sessions admitted to the pool.
    pub sessions: usize,
}

impl Workload {
    /// The four workloads; `smoke` shrinks every size to a toy so the whole
    /// benchmark runs in seconds (numbers then mean nothing — the mode
    /// exists to test the harness).
    pub fn all(smoke: bool) -> [Workload; 4] {
        let sized = |p: Problem| {
            if !smoke {
                return p;
            }
            let particles_per_system = (p.size.particles_per_system / 100).max(200);
            let size = WorkloadSize { particles_per_system, ..p.size };
            Problem { size, frames: p.frames.min(6), runs: p.runs.min(2), ..p }
        };
        let side = Workload {
            name: "",
            threaded: sized(SIDE_THREADED),
            frame: None,
            sequential: sized(SIDE_SEQUENTIAL),
            desim: sized(SIDE_DESIM),
            sim_ranks: SIDE_RANKS,
            sessions: if smoke { 12 } else { SIDE_SESSIONS },
        };
        let animation = |kind| {
            sized(Problem {
                kind,
                size: WorkloadSize { systems: 4, particles_per_system: 50_000, scale: 1.0 },
                frames: 20,
                runs: 1,
            })
        };
        let fountain = animation(SceneKind::Fountain);
        let vortex = Problem {
            kind: SceneKind::Vortex,
            size: WorkloadSize {
                systems: if smoke { 4 } else { 32 },
                particles_per_system: 200,
                scale: 50.0,
            },
            frames: 10,
            runs: 1,
        };
        [
            Workload {
                name: "snow_render",
                threaded: animation(SceneKind::Snow),
                frame: Some(if smoke { SMOKE_FRAME } else { FRAME }),
                ..side
            },
            Workload { name: "fountain_compute", threaded: fountain, sequential: fountain, ..side },
            Workload {
                name: "desim_1024",
                desim: vortex,
                sim_ranks: if smoke { 32 } else { 1024 },
                ..side
            },
            Workload { name: "pool_sessions", sessions: if smoke { 40 } else { 2000 }, ..side },
        ]
    }

    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        Workload::all(smoke).into_iter().find(|w| w.name == name)
    }

    pub fn sink(&self) -> Option<RenderSink> {
        self.frame.map(|frame| RenderSink::headless(camera(frame)))
    }

    /// A pool with every session admitted, and the ids in admission order.
    pub fn pool(&self, seed: u64, checkpoint_interval: u64) -> (SessionManager, Vec<SessionId>) {
        let mut pool = SessionManager::new(PoolConfig {
            workers: POOL_LANES,
            slice_frames: POOL_SLICE_FRAMES,
            admission: AdmissionConfig::unbounded(POOL_MAX_IN_FLIGHT),
            base_seed: seed,
            checkpoint_interval,
            instrument: false,
        });
        let ids = (0..self.sessions)
            .map(|i| match pool.admit(session_spec(i)) {
                Ok(id)
                | Err(AdmissionError::Queued { id, .. })
                | Err(AdmissionError::Rejected { id, .. }) => id,
            })
            .collect();
        (pool, ids)
    }
}

/// Session `i` of any pool: scenes alternate snow / vortex.
pub fn session_spec(i: usize) -> SessionSpec {
    let kind = if i % 2 == 0 { SceneKind::Snow } else { SceneKind::Vortex };
    SessionSpec {
        tenant: TenantId(i as u32 % POOL_TENANTS),
        scene: kind.scene(SESSION_SIZE),
        cfg: paper_run_config(SESSION_FRAMES, SESSION_DT),
        cluster: myrinet_gcc(2, 1),
        cost: SESSION_SIZE.cost_model(),
        arrival: 0.0,
    }
}
