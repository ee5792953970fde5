//! Machine-readable event-driven scaling export (`BENCH_5.json`).
//!
//! The paper stops at 8 nodes; BENCH_5 is the extrapolation its model
//! invites. The sweep drives `psa_desim::EventSim` — the same executor,
//! golden-pinned at paper scale, that regenerates tables 1–3 — across rank
//! counts far beyond the paper's:
//!
//! * **Speed-up curves** — virtual makespan and speed-up versus the
//!   sequential baseline at ranks ∈ {8, 32, 128, 512, 1024}, for snow,
//!   fountain, and the deliberately imbalanced vortex workload, under both
//!   SLB (static even split) and DLB (manager-driven rebalancing).
//!
//! The DLB cells are pinned to [`BalancerConfig::paper`] — the fixed
//! `min_transfer = 32`, no-short-circuit §3.2.5 walk — on purpose: BENCH_5
//! is the experiment that *measured* the dead zone past 32 ranks (zero
//! orders, ~2× balance-phase overhead, DLB/SLB inversion), and the sweep
//! keeps reproducing that defect so `BENCH_6.json` can show the balancer
//! suite fixing it against an unchanged baseline.
//! * **Balancer behaviour** — rounds in which the balancer actually moved
//!   particles, total particles moved, and the mean imbalance the run
//!   settled at; vortex is built so these columns separate SLB from DLB.
//! * **Topology** — flat crossbar versus fat-tree makespans at the largest
//!   swept rank count, holding everything else fixed.
//!
//! Every cell also records the *wall* seconds the event loop took — the
//! executor's own scaling claim (1,024 calculators × 100+ systems in
//! seconds) is part of the export. Sweeps use sparse exchange: dense
//! Figure-2 exchange is `ranks²` messages per system per frame and is
//! exactly what a 1,000-rank run cannot afford; sparse changes virtual
//! timing but never simulated state (the parity suite pins this).
//!
//! Like `BENCH_3`, [`Export::checked_json`] rejects NaN/empty metrics
//! before anything is written.

use cluster_sim::{e800, Compiler, Topology};
use psa_desim::EventSim;
use psa_runtime::{
    run_sequential, BalanceMode, BalancerConfig, ExchangeMode, RunConfig, RunReport,
};
use psa_workloads::{myrinet_gcc, paper_run_config, Workload, WorkloadSize};

use crate::export::timed;
use crate::json::Json;
use crate::{json_fields, obj, Export};

/// Fat-tree radix used for the topology comparison points.
pub const BENCH5_FAT_TREE_RADIX: usize = 4;

/// The workloads BENCH_5 (and BENCH_6) sweep: the paper's two plus vortex,
/// the inhomogeneous one built to make the DLB columns move.
pub const BENCH5_WORKLOADS: &[Workload] = Workload::ALL;

/// The `"workload"` header of the rank sweeps (BENCH_5, BENCH_6).
pub(crate) fn workload_json(size: WorkloadSize, frames: u64) -> Json {
    obj! {
        "systems": size.systems,
        "particles_per_system": size.particles_per_system,
        "scale": size.scale,
        "frames": frames,
    }
}

/// Are these the names of [`BENCH5_WORKLOADS`], once each, in sweep order?
pub(crate) fn covers_workloads<'a>(names: impl Iterator<Item = &'a str>) -> bool {
    names.eq(BENCH5_WORKLOADS.iter().map(|w| w.name()))
}

/// One (ranks, balance-mode) point of an experiment's curve.
#[derive(Clone, Debug)]
pub struct Bench5Cell {
    pub ranks: usize,
    /// `"SLB"` or `"DLB"` (paper column names).
    pub balance: &'static str,
    /// Virtual makespan of the run.
    pub makespan: f64,
    /// Steady-state virtual time (speed-ups are computed on this).
    pub steady_time: f64,
    /// Speed-up versus the sequential baseline's steady time.
    pub speedup: f64,
    /// Frames in which the balancer moved at least one particle.
    pub balance_rounds: u64,
    /// Particles the balancer moved over the whole run.
    pub balanced_particles: u64,
    /// Mean `max/mean − 1` imbalance across frames.
    pub mean_imbalance: f64,
    /// Fabric messages the run exchanged.
    pub messages: u64,
    /// Events the discrete-event loop processed.
    pub events: u64,
    /// Host seconds the event loop took (the scale claim, measured).
    pub wall_seconds: f64,
}

/// One workload's scaling curve.
#[derive(Clone, Debug)]
pub struct Bench5Experiment {
    pub workload: &'static str,
    /// Sequential baseline steady time on the paper's Myrinet/GCC machine.
    pub baseline_time: f64,
    pub cells: Vec<Bench5Cell>,
}

/// Flat-versus-fat-tree makespan at one rank count (DLB, same seed).
#[derive(Clone, Debug)]
pub struct TopologyPoint {
    pub workload: &'static str,
    pub ranks: usize,
    pub radix: usize,
    pub flat_makespan: f64,
    pub fat_tree_makespan: f64,
}

/// Everything `BENCH_5.json` carries.
pub struct Bench5Export {
    pub frames: u64,
    pub size: WorkloadSize,
    pub ranks: Vec<usize>,
    pub experiments: Vec<Bench5Experiment>,
    pub topology: Vec<TopologyPoint>,
}

/// The run configuration of every rank-sweep cell: sparse exchange (dense is
/// `ranks²` messages per system per frame).
pub(crate) fn sweep_config(wl: Workload, frames: u64, balance: BalanceMode) -> RunConfig {
    let mut cfg = paper_run_config(frames, wl.dt());
    cfg.balance = balance;
    cfg.exchange = ExchangeMode::Sparse;
    cfg
}

fn run_cell(
    wl: Workload,
    size: WorkloadSize,
    frames: u64,
    ranks: usize,
    balance: BalanceMode,
    topology: Topology,
) -> (RunReport, u64, f64) {
    let mut cluster = myrinet_gcc(ranks, 1);
    cluster.net = cluster.net.clone().with_topology(topology);
    let cfg = sweep_config(wl, frames, balance);
    let mut sim = EventSim::new(wl.scene(size), cfg, cluster, size.cost_model());
    let (report, wall) = timed(|| sim.run());
    (report, sim.sim_stats().events, wall)
}

/// Run the sweep and assemble the export. `ranks` is the list of rank
/// counts to cover (the unit tests pass a short one).
pub fn collect5(ranks: &[usize], frames: u64, size: WorkloadSize) -> Bench5Export {
    let seq_speed = e800().speed(Compiler::Gcc);
    let mut experiments = Vec::new();
    let mut topology = Vec::new();
    let top_ranks = ranks.iter().copied().max().unwrap_or(0);
    for &wl in BENCH5_WORKLOADS {
        let scene = wl.scene(size);
        let seq_cfg = sweep_config(wl, frames, BalanceMode::Static);
        let baseline =
            run_sequential(&scene, &seq_cfg, &size.cost_model(), seq_speed).steady_time();
        let mut cells = Vec::new();
        for &r in ranks {
            for (label, balance) in [
                ("SLB", BalanceMode::Static),
                ("DLB", BalanceMode::Dynamic(BalancerConfig::paper())),
            ] {
                let (report, events, wall) = run_cell(wl, size, frames, r, balance, Topology::Flat);
                cells.push(Bench5Cell {
                    ranks: r,
                    balance: label,
                    makespan: report.total_time,
                    steady_time: report.steady_time(),
                    speedup: report.speedup_vs(baseline),
                    balance_rounds: report.frames.iter().filter(|f| f.balanced > 0).count() as u64,
                    balanced_particles: report.frames.iter().map(|f| f.balanced).sum(),
                    mean_imbalance: report.mean_imbalance(),
                    messages: report.traffic.messages,
                    events,
                    wall_seconds: wall,
                });
            }
        }
        experiments.push(Bench5Experiment { workload: wl.name(), baseline_time: baseline, cells });
        if top_ranks > 0 {
            let paper = || BalanceMode::Dynamic(BalancerConfig::paper());
            let (flat, _, _) = run_cell(wl, size, frames, top_ranks, paper(), Topology::Flat);
            let (fat, _, _) = run_cell(
                wl,
                size,
                frames,
                top_ranks,
                paper(),
                Topology::FatTree { radix: BENCH5_FAT_TREE_RADIX },
            );
            topology.push(TopologyPoint {
                workload: wl.name(),
                ranks: top_ranks,
                radix: BENCH5_FAT_TREE_RADIX,
                flat_makespan: flat.total_time,
                fat_tree_makespan: fat.total_time,
            });
        }
    }
    Bench5Export { frames, size, ranks: ranks.to_vec(), experiments, topology }
}

impl Export for Bench5Export {
    /// Reject empty or degenerate sweeps (non-finite metrics are the
    /// writer's rule); require that the balancer demonstrably ran
    /// somewhere (a sweep whose DLB columns are all zero measured nothing
    /// worth publishing).
    fn validate(&self) -> Result<(), String> {
        if self.ranks.is_empty() {
            return Err("no rank counts swept".into());
        }
        if !covers_workloads(self.experiments.iter().map(|e| e.workload)) {
            return Err("experiments are not snow, fountain, vortex".into());
        }
        let mut dlb_rounds = 0u64;
        for e in &self.experiments {
            let tag = format!("experiment {}", e.workload);
            if !e.baseline_time.is_finite() || e.baseline_time <= 0.0 {
                return Err(format!("{tag}: baseline_time is {}", e.baseline_time));
            }
            if e.cells.len() != self.ranks.len() * 2 {
                return Err(format!(
                    "{tag}: {} cells for {} rank counts",
                    e.cells.len(),
                    self.ranks.len()
                ));
            }
            for c in &e.cells {
                let cell = format!("{tag} {}r {}", c.ranks, c.balance);
                if c.makespan <= 0.0 || c.speedup <= 0.0 {
                    return Err(format!(
                        "{cell}: degenerate run (makespan {}, speedup {})",
                        c.makespan, c.speedup
                    ));
                }
                if c.events == 0 || c.messages == 0 {
                    return Err(format!("{cell}: the event loop did not run"));
                }
                match c.balance {
                    "SLB" => {}
                    "DLB" => dlb_rounds += c.balance_rounds,
                    other => return Err(format!("{cell}: balance label `{other}`")),
                }
            }
        }
        if dlb_rounds == 0 {
            return Err("no DLB cell recorded a single balancer round".into());
        }
        if self.topology.is_empty() {
            return Err("no topology comparison points".into());
        }
        for t in &self.topology {
            if t.flat_makespan <= 0.0 || t.fat_tree_makespan <= 0.0 {
                return Err(format!(
                    "topology {}@{}r: makespans {} / {}",
                    t.workload, t.ranks, t.flat_makespan, t.fat_tree_makespan
                ));
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj! {
            "bench": 5u64,
            "workload": workload_json(self.size, self.frames),
            "ranks": &self.ranks,
            "experiments": &self.experiments,
            "topology": &self.topology,
        }
    }
}

json_fields!(
    Bench5Cell; ranks, balance, makespan, steady_time, speedup, balance_rounds,
    balanced_particles, mean_imbalance, messages, events, wall_seconds
);
json_fields!(Bench5Experiment; workload, baseline_time, cells);
json_fields!(TopologyPoint; workload, ranks, radix, flat_makespan, fat_tree_makespan);

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench5Export {
        collect5(&[4, 8], 6, WorkloadSize { systems: 4, particles_per_system: 150, scale: 50.0 })
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        let json = e.checked_json().expect("smoke export must validate and render");
        assert!(json.starts_with("{\n  \"bench\": 5,\n"), "{json}");
        assert_eq!(e.experiments.len(), 3, "snow + fountain + vortex");
        for exp in &e.experiments {
            assert_eq!(exp.cells.len(), 4, "{}: 2 ranks x 2 balance modes", exp.workload);
        }
        assert_eq!(e.topology.len(), 3, "one topology point per workload");
    }

    #[test]
    fn validate_rejects_regressions() {
        let mut e = smoke();
        e.experiments[0].cells[0].makespan = f64::NAN;
        assert!(e.checked_json().is_err(), "NaN must fail");
        let mut e2 = smoke();
        e2.experiments.pop();
        assert!(e2.validate().is_err(), "missing experiment must fail");
        let mut e2b = smoke();
        e2b.experiments[2].workload = "snow";
        assert!(e2b.validate().is_err(), "a workload swept twice in place of another must fail");
        let mut e2c = smoke();
        e2c.experiments[0].cells[1].balance = "dlb";
        assert!(e2c.validate().is_err(), "an unknown balance label must fail");
        let mut e3 = smoke();
        for exp in &mut e3.experiments {
            for c in &mut exp.cells {
                c.balance_rounds = 0;
            }
        }
        assert!(e3.validate().is_err(), "a sweep where DLB never balances must fail");
        let mut e4 = smoke();
        e4.topology.clear();
        assert!(e4.validate().is_err(), "missing topology section must fail");
    }
}
