//! Workload generators.
//!
//! The paper validates its model with two experiments (§5), both with
//! eight particle systems of 400,000 particles each:
//!
//! * **snow** — new particles each frame, random acceleration, collision,
//!   elimination of old particles, movement; mostly vertical motion, so
//!   particles tend to stay in their domain (§5.1);
//! * **fountain** — gravity + acceleration, collision, elimination,
//!   movement; both horizontal and vertical motion, so particles change
//!   domains constantly (§5.2).
//!
//! This crate builds those scenes (full-size or scaled for benches) plus
//! two extra effects (fireworks, smoke) used by the examples, and exposes
//! the paper's cluster configurations.

pub mod clusters;
pub mod fireworks;
pub mod fountain;
pub mod smoke;
pub mod snow;
pub mod vortex;

pub use clusters::{fe_icc, myrinet_gcc, table1_rows, table2_rows};
pub use fireworks::fireworks_scene;
pub use fountain::fountain_scene;
pub use smoke::smoke_scene;
pub use snow::snow_scene;
pub use vortex::vortex_scene;

use cluster_sim::CostModel;
use psa_runtime::{RunConfig, Scene};

/// The named workloads every harness sweeps: the paper's two experiments
/// plus vortex, the deliberately imbalanced one. This is the only
/// name → scene → time-step mapping; consumers (chaos matrix, bench
/// exports, `bench sessions --scene`, `animate`) pick their own subset of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §5.1 — mostly vertical motion, little migration.
    Snow,
    /// §5.2 — constant domain crossings, heavy migration.
    Fountain,
    /// Orbiting hotspot: per-rank load stays uneven without a balancer.
    Vortex,
}

impl Workload {
    /// Every workload, in sweep order.
    pub const ALL: &'static [Workload] = &[Workload::Snow, Workload::Fountain, Workload::Vortex];

    /// The name used on command lines and in every export.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Snow => "snow",
            Workload::Fountain => "fountain",
            Workload::Vortex => "vortex",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// Build the workload's scene at the given size.
    pub fn scene(self, size: WorkloadSize) -> Scene {
        match self {
            Workload::Snow => snow_scene(size),
            Workload::Fountain => fountain_scene(size),
            Workload::Vortex => vortex_scene(size),
        }
    }

    /// The workload's own frame time step.
    pub fn dt(self) -> f32 {
        match self {
            Workload::Snow => snow::SNOW_DT,
            Workload::Fountain => fountain::FOUNTAIN_DT,
            Workload::Vortex => vortex::VORTEX_DT,
        }
    }
}

/// Parameters shared by the paper workload builders.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSize {
    /// Number of particle systems (paper: 8).
    pub systems: usize,
    /// Steady-state particles per system actually simulated.
    pub particles_per_system: usize,
    /// Virtual-to-real multiplier: cost/bytes are charged as if
    /// `particles_per_system × scale` particles existed.
    pub scale: f64,
}

impl WorkloadSize {
    /// The paper's full size: 8 × 400,000, simulated one-to-one.
    pub fn paper_full() -> Self {
        WorkloadSize { systems: 8, particles_per_system: 400_000, scale: 1.0 }
    }

    /// Paper-equivalent virtual size with `scale`× fewer real particles —
    /// the default for the reproduction harness (scale 10 ⇒ 40k real
    /// particles stand in for 400k; virtual times and bytes are identical).
    pub fn paper_scaled(scale: f64) -> Self {
        assert!(scale >= 1.0);
        WorkloadSize {
            systems: 8,
            particles_per_system: (400_000.0 / scale).round() as usize,
            scale,
        }
    }

    /// A tiny size for unit tests.
    pub fn test() -> Self {
        WorkloadSize { systems: 2, particles_per_system: 600, scale: 1.0 }
    }

    /// The matching cost model.
    pub fn cost_model(&self) -> CostModel {
        CostModel::scaled(self.scale)
    }

    /// Virtual particles per system this size stands for.
    pub fn virtual_per_system(&self) -> f64 {
        self.particles_per_system as f64 * self.scale
    }
}

/// Run configuration shared by the paper experiments: enough frames to see
/// balancing converge, with a few warm-up frames excluded from statistics.
pub fn paper_run_config(frames: u64, dt: f32) -> RunConfig {
    RunConfig {
        frames,
        dt,
        seed: 0x1905_2005, // IPDPS 2005
        warmup: (frames / 5).min(5),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        let full = WorkloadSize::paper_full();
        assert_eq!(full.systems, 8);
        assert_eq!(full.particles_per_system, 400_000);
        let scaled = WorkloadSize::paper_scaled(10.0);
        assert_eq!(scaled.particles_per_system, 40_000);
        assert_eq!(scaled.virtual_per_system(), 400_000.0);
        assert_eq!(scaled.cost_model().scale, 10.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for &w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.scene(WorkloadSize::test()).systems.len(), 2);
        }
        assert_eq!(Workload::from_name("smoke"), None);
    }

    #[test]
    fn run_config_has_warmup() {
        let c = paper_run_config(30, 0.1);
        assert_eq!(c.frames, 30);
        assert!(c.warmup > 0 && c.warmup <= 5);
    }
}
