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
//! Like `BENCH_3`/`BENCH_4`, the JSON is hand-rolled and
//! [`Bench5Export::validate`] rejects NaN/empty metrics before anything is
//! written.

use std::time::Instant;

use cluster_sim::{e800, Compiler, Topology};
use psa_desim::EventSim;
use psa_runtime::{
    run_sequential, BalanceMode, BalancerConfig, ExchangeMode, RunConfig, RunReport, Scene,
};
use psa_workloads::{
    fountain_scene, myrinet_gcc, paper_run_config, snow_scene, vortex_scene, WorkloadSize,
};

/// Rank counts of the full sweep (the CI smoke tier trims this to 8/64).
pub const BENCH5_RANKS: &[usize] = &[8, 32, 128, 512, 1024];

/// Fat-tree radix used for the topology comparison points.
pub const BENCH5_FAT_TREE_RADIX: usize = 4;

/// Which workload a BENCH_5 experiment runs. Snow and fountain are the
/// paper's; vortex is the inhomogeneous workload built to make the DLB
/// columns move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench5Workload {
    Snow,
    Fountain,
    Vortex,
}

impl Bench5Workload {
    pub const ALL: &'static [Bench5Workload] =
        &[Bench5Workload::Snow, Bench5Workload::Fountain, Bench5Workload::Vortex];

    pub fn name(&self) -> &'static str {
        match self {
            Bench5Workload::Snow => "snow",
            Bench5Workload::Fountain => "fountain",
            Bench5Workload::Vortex => "vortex",
        }
    }

    pub fn scene(&self, size: WorkloadSize) -> Scene {
        match self {
            Bench5Workload::Snow => snow_scene(size),
            Bench5Workload::Fountain => fountain_scene(size),
            Bench5Workload::Vortex => vortex_scene(size),
        }
    }

    pub fn dt(&self) -> f32 {
        match self {
            Bench5Workload::Snow => psa_workloads::snow::SNOW_DT,
            Bench5Workload::Fountain => psa_workloads::fountain::FOUNTAIN_DT,
            Bench5Workload::Vortex => psa_workloads::vortex::VORTEX_DT,
        }
    }
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
    pub systems: usize,
    pub particles_per_system: usize,
    pub scale: f64,
    pub ranks: Vec<usize>,
    pub experiments: Vec<Bench5Experiment>,
    pub topology: Vec<TopologyPoint>,
}

fn sweep_config(wl: Bench5Workload, frames: u64, balance: BalanceMode) -> RunConfig {
    let mut cfg = paper_run_config(frames, wl.dt());
    cfg.balance = balance;
    cfg.exchange = ExchangeMode::Sparse;
    cfg
}

fn run_cell(
    wl: Bench5Workload,
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
    let t0 = Instant::now();
    let report = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    (report, sim.sim_stats().events, wall)
}

/// Run the sweep and assemble the export. `ranks` is the list of rank
/// counts to cover (the smoke tier passes a short one).
pub fn collect5(
    ranks: &[usize],
    frames: u64,
    systems: usize,
    particles_per_system: usize,
    scale: f64,
) -> Bench5Export {
    let size = WorkloadSize { systems, particles_per_system, scale };
    let seq_speed = e800().speed(Compiler::Gcc);
    let mut experiments = Vec::new();
    let mut topology = Vec::new();
    let top_ranks = ranks.iter().copied().max().unwrap_or(0);
    for &wl in Bench5Workload::ALL {
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
    Bench5Export {
        frames,
        systems,
        particles_per_system,
        scale,
        ranks: ranks.to_vec(),
        experiments,
        topology,
    }
}

impl Bench5Export {
    /// Reject empty sweeps and non-finite metrics; require that the
    /// balancer demonstrably ran somewhere (a sweep whose DLB columns are
    /// all zero measured nothing worth publishing).
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks.is_empty() {
            return Err("no rank counts swept".into());
        }
        if self.experiments.len() != Bench5Workload::ALL.len() {
            return Err(format!("expected 3 experiments, got {}", self.experiments.len()));
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
                for (name, v) in [
                    ("makespan", c.makespan),
                    ("steady_time", c.steady_time),
                    ("speedup", c.speedup),
                    ("mean_imbalance", c.mean_imbalance),
                    ("wall_seconds", c.wall_seconds),
                ] {
                    if !v.is_finite() {
                        return Err(format!("{cell}: {name} is {v}"));
                    }
                }
                if c.makespan <= 0.0 || c.speedup <= 0.0 {
                    return Err(format!(
                        "{cell}: degenerate run (makespan {}, speedup {})",
                        c.makespan, c.speedup
                    ));
                }
                if c.events == 0 || c.messages == 0 {
                    return Err(format!("{cell}: the event loop did not run"));
                }
                if c.balance == "DLB" {
                    dlb_rounds += c.balance_rounds;
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
            if !t.flat_makespan.is_finite()
                || !t.fat_tree_makespan.is_finite()
                || t.flat_makespan <= 0.0
                || t.fat_tree_makespan <= 0.0
            {
                return Err(format!(
                    "topology {}@{}r: makespans {} / {}",
                    t.workload, t.ranks, t.flat_makespan, t.fat_tree_makespan
                ));
            }
        }
        Ok(())
    }

    /// Serialize to the `BENCH_5.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": 5,\n");
        s.push_str(&format!(
            "  \"workload\": {{\"systems\": {}, \"particles_per_system\": {}, \"scale\": {}, \"frames\": {}}},\n",
            self.systems,
            self.particles_per_system,
            json_f64(self.scale),
            self.frames
        ));
        s.push_str("  \"ranks\": [");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&r.to_string());
        }
        s.push_str("],\n");
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"workload\": \"{}\",\n", e.workload));
            s.push_str(&format!("      \"baseline_time\": {},\n", json_f64(e.baseline_time)));
            s.push_str("      \"cells\": [\n");
            for (j, c) in e.cells.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"ranks\": {}, \"balance\": \"{}\", \"makespan\": {}, \"steady_time\": {}, \"speedup\": {}, \"balance_rounds\": {}, \"balanced_particles\": {}, \"mean_imbalance\": {}, \"messages\": {}, \"events\": {}, \"wall_seconds\": {}}}{}\n",
                    c.ranks,
                    c.balance,
                    json_f64(c.makespan),
                    json_f64(c.steady_time),
                    json_f64(c.speedup),
                    c.balance_rounds,
                    c.balanced_particles,
                    json_f64(c.mean_imbalance),
                    c.messages,
                    c.events,
                    json_f64(c.wall_seconds),
                    if j + 1 < e.cells.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.experiments.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"topology\": [\n");
        for (i, t) in self.topology.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workload\": \"{}\", \"ranks\": {}, \"radix\": {}, \"flat_makespan\": {}, \"fat_tree_makespan\": {}}}{}\n",
                t.workload,
                t.ranks,
                t.radix,
                json_f64(t.flat_makespan),
                json_f64(t.fat_tree_makespan),
                if i + 1 < self.topology.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// JSON-safe float (validation upstream keeps non-finite values out of
/// written files).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench5Export {
        collect5(&[4, 8], 6, 4, 150, 50.0)
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        e.validate().expect("smoke export must validate");
        assert_eq!(e.experiments.len(), 3, "snow + fountain + vortex");
        for exp in &e.experiments {
            assert_eq!(exp.cells.len(), 4, "{}: 2 ranks x 2 balance modes", exp.workload);
        }
        assert_eq!(e.topology.len(), 3, "one topology point per workload");
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let j = smoke().to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"bench\": 5",
            "\"experiments\"",
            "\"cells\"",
            "\"topology\"",
            "\"vortex\"",
            "\"balance\": \"DLB\"",
            "\"wall_seconds\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn validate_rejects_regressions() {
        let mut e = smoke();
        e.experiments[0].cells[0].makespan = f64::NAN;
        assert!(e.validate().is_err(), "NaN must fail");
        let mut e2 = smoke();
        e2.experiments.pop();
        assert!(e2.validate().is_err(), "missing experiment must fail");
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
