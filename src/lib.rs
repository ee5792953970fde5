//! particle-cluster-anim — parallel stochastic particle-system animation
//! for heterogeneous clusters.
//!
//! A full reproduction of *Oliva & De Rose, "Modeling Particle Systems
//! Animations for Heterogeneous Clusters", IPDPS 2005*: the
//! manager/calculator/image-generator process model, per-system spatial
//! domain decomposition, the centralized neighbor-pair dynamic load
//! balancer, a McAllister-style particle API on top, and the virtual
//! heterogeneous-cluster substrate that regenerates every table of the
//! paper's evaluation.
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`math`] — vectors, intervals, deterministic RNG streams;
//! * [`core`] — particles, systems, domains, actions, external objects;
//! * [`cluster`] — node catalog, network models, the cost model;
//! * [`net`] — virtual and threaded message fabrics;
//! * [`runtime`] — the paper's model: roles, frame protocol, SLB/DLB,
//!   executors;
//! * [`render`] — the image generator's software rasterizer;
//! * [`api`] — the immediate-mode McAllister-style API;
//! * [`workloads`] — the paper's snow/fountain experiments and extras;
//! * [`chaos`] — seeded fault plans and the chaos scenario matrix;
//! * [`trace`] — the per-phase observability layer (quiet recorders,
//!   frame/phase timings, counters, JSON export).
//!
//! ## Quickstart
//!
//! ```
//! use particle_cluster_anim::prelude::*;
//!
//! // The paper's snow experiment, scaled down, on four host threads.
//! let size = WorkloadSize { systems: 2, particles_per_system: 2_000, scale: 1.0 };
//! let scene = snow_scene(size);
//! let cfg = RunConfig { frames: 10, dt: 0.15, ..Default::default() };
//! let report = run_threaded(&scene, &cfg, 4, None).expect("threaded run failed");
//! assert_eq!(report.frames.len(), 10);
//! ```

pub use cluster_sim as cluster;
pub use netsim as net;
pub use psa_api as api;
pub use psa_chaos as chaos;
pub use psa_core as core;
pub use psa_math as math;
pub use psa_render as render;
pub use psa_runtime as runtime;
pub use psa_trace as trace;
pub use psa_workloads as workloads;

/// The items most programs need.
pub mod prelude {
    pub use cluster_sim::{e60, e800, zx2000, ClusterSpec, Compiler, CostModel, NetworkModel};
    pub use psa_api::{Context, PDomain};
    pub use psa_core::actions::*;
    pub use psa_core::objects::ExternalObject;
    pub use psa_core::{DomainMap, Particle, ParticleStore, SubDomainStore, SystemId, SystemSpec};
    pub use psa_desim::EventSim;
    pub use psa_math::{Aabb, Axis, Interval, Rng64, Vec3};
    pub use psa_render::{
        render_objects, render_particles, render_streaks, Camera, Framebuffer, SplatConfig,
    };
    pub use psa_runtime::threaded::RenderSink;
    pub use psa_runtime::{
        run_sequential, run_threaded, run_threaded_traced, BalanceMode, BalancerConfig, RunConfig,
        RunReport, Scene, SpaceMode, SystemSetup,
    };
    pub use psa_trace::{Phase, TraceReport, PHASES};
    pub use psa_workloads::{
        fireworks_scene, fountain_scene, myrinet_gcc, smoke_scene, snow_scene, Workload,
        WorkloadSize,
    };
}
