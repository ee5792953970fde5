//! The deterministic virtual-time executor.
//!
//! [`EventSim`] runs the paper's full frame protocol (Figure 2) over a
//! simulated heterogeneous cluster: real particles move through real data
//! structures, while per-rank virtual clocks and the [`EventFabric`]
//! account for what the compute and communication would cost on the
//! modeled hardware. The result is bit-deterministic, so every table in
//! EXPERIMENTS.md regenerates identically from the seed. The protocol
//! itself lives in [`psa_runtime::protocol`]: `EventSim` is the thin shell
//! that builds the fabric from the cluster's network model and hands it to
//! the shared [`Engine`]. [`EventSim::into_engine`] is the one recipe for a
//! virtual engine: [`EventSim::try_run`] runs the engine it builds, and the
//! session pool steps one per session, slice by slice.
//!
//! Rank layout: `0..n` are calculators (one per domain slice, in slice
//! order), `n` is the manager, `n + 1` the image generator. The manager and
//! image generator live on the front-end node (node 0).
//!
//! ## Fault model
//!
//! The fabric executes a seeded [`FaultPlan`] (see `netsim::fault`): every
//! perturbation — link delay, transient send failure, calculator slowdown,
//! stall, fail-stop crash — is charged as *virtual time*, so a faulty run
//! replays bit-identically from `(seed, plan)`. A quiet plan (the default)
//! draws no entropy and adds `0.0` everywhere. How the protocol degrades
//! (retry backoff, bounded receives, death declaration after
//! [`FaultPolicy::dead_after`] missed load reports, slice collapse) is
//! DESIGN.md §"Fault model".
//!
//! ## Scale
//!
//! Per-link state is sparse, so sweeps run 1,024 calculators × 100+
//! particle systems in seconds (the BENCH_5 scaling tables). For
//! 1,000+-rank runs use [`ExchangeMode::Sparse`](psa_runtime::ExchangeMode)
//! (what `Auto` resolves to there): the dense Figure-2 exchange is n²
//! messages per system per frame and dominates everything past a few
//! hundred ranks. Sparse runs are internally consistent but not
//! fingerprint-comparable with dense runs (empty messages carry virtual
//! cost).

use cluster_sim::{ClusterSpec, CostModel};
use netsim::{FaultPlan, FaultPolicy};
use psa_runtime::config::RunConfig;
use psa_runtime::msg::ProtocolError;
use psa_runtime::protocol::{node_layout, Engine};
use psa_runtime::report::RunReport;
use psa_runtime::scene::Scene;
use psa_runtime::trace::Trace;

use crate::fabric::{EventFabric, SimStats};

/// The virtual-time executor.
pub struct EventSim {
    scene: Scene,
    cfg: RunConfig,
    cluster: ClusterSpec,
    cost: CostModel,
    trace: Trace,
    plan: Option<FaultPlan>,
    instrument: bool,
    last_stats: SimStats,
}

impl EventSim {
    pub fn new(scene: Scene, cfg: RunConfig, cluster: ClusterSpec, cost: CostModel) -> Self {
        EventSim {
            scene,
            cfg,
            cluster,
            cost,
            trace: Trace::disabled(),
            plan: None,
            instrument: false,
            last_stats: SimStats::default(),
        }
    }

    /// Record protocol events (used by conformance tests; off by default).
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// Record the per-phase observability trace (off by default). The
    /// recorder only *reads* virtual clocks, so an instrumented run's
    /// `RunReport::fingerprint()` is byte-identical to a bare run's — the
    /// trace lands in `RunReport::phases`.
    pub fn with_phases(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Inject the given fault plan (must cover `calculators + 2` ranks).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Fabric counters of the most recent run (all zero before the first
    /// run): messages delivered, sends, clock fast-forwards, bounded waits,
    /// in-flight high-water mark.
    pub fn sim_stats(&self) -> SimStats {
        self.last_stats
    }

    /// The engine this run steps, frame by frame: the fabric is built from
    /// the cluster's network model and the fault plan (quiet unless
    /// [`with_faults`](Self::with_faults) set one), under the default
    /// [`FaultPolicy`], with the configured trace and phase recorder.
    /// Scene, configuration and cost move into the engine uncopied. A
    /// cluster with no calculators is refused with
    /// [`ProtocolError::Unsupported`] before anything is built.
    pub fn into_engine(self) -> Result<Engine<EventFabric>, ProtocolError> {
        if self.cluster.total_procs() == 0 {
            let option = "a cluster with no calculators";
            return Err(ProtocolError::Unsupported { executor: "virtual", option });
        }
        let placement = self.cluster.placement();
        let n = placement.calculators();
        let plan = self.plan.unwrap_or_else(|| FaultPlan::none(self.cfg.seed, n + 2));
        assert_eq!(
            plan.ranks(),
            n + 2,
            "fault plan must cover calculators + manager + image generator"
        );
        let (node_of, node_count) = node_layout(&placement);
        let fabric = EventFabric::new(self.cluster.net, node_of, node_count, plan);
        Ok(Engine::new(
            self.scene,
            self.cfg,
            &placement,
            self.cost,
            fabric,
            FaultPolicy::default(),
            self.trace,
            self.instrument,
        ))
    }

    /// Run the animation; returns the report (virtual makespan included),
    /// or the protocol error that ended the run early — or, before frame
    /// 0, the one [`into_engine`](Self::into_engine) refuses the cluster
    /// with or [`RunConfig::check`] the configuration with
    /// (`Engine::step_frame` asks it). The simulator keeps its inputs, so
    /// it may run again; each run records into a fresh trace of the kind
    /// asked for, which [`trace`](Self::trace) then holds.
    pub fn try_run(&mut self) -> Result<RunReport, ProtocolError> {
        let run = EventSim {
            scene: self.scene.clone(),
            cfg: self.cfg.clone(),
            cluster: self.cluster.clone(),
            cost: self.cost.clone(),
            trace: if self.trace.is_enabled() { Trace::enabled() } else { Trace::disabled() },
            plan: self.plan.clone(),
            instrument: self.instrument,
            last_stats: SimStats::default(),
        };
        let mut engine = run.into_engine()?;
        let (outcome, trace) = engine.run(self.cluster.describe());
        self.last_stats = engine.fabric().sim_stats();
        self.trace = trace;
        outcome
    }

    /// Run the animation, panicking on a protocol failure (healthy runs
    /// and survivable fault plans never fail).
    pub fn run(&mut self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("event-driven protocol run failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{Compiler, NetworkModel};

    #[test]
    fn a_cluster_without_calculators_is_refused_typed() {
        let cluster = ClusterSpec::new(NetworkModel::myrinet(), Compiler::Gcc);
        let cfg = RunConfig { frames: 2, ..RunConfig::default() };
        let mut sim = EventSim::new(Scene::new(), cfg, cluster, CostModel::default());
        let err = sim.try_run().expect_err("no calculator to run on");
        let option = "a cluster with no calculators";
        assert_eq!(err, ProtocolError::Unsupported { executor: "virtual", option });
    }
}
