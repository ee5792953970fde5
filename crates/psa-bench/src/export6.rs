//! Machine-readable balancer-suite export (`BENCH_6.json`).
//!
//! BENCH_5 measured the defect: past ~32 ranks the paper-faithful §3.2.5
//! balancer's fixed `min_transfer = 32` suppresses every order while the
//! balance phase keeps charging its round-trip — "DLB" costs ~2× SLB and
//! does nothing. BENCH_6 is the experiment for the fix: the full
//! (workload × scenario × strategy) matrix at the same rank counts,
//! covering every strategy in the pluggable balancer suite —
//!
//! * **SLB** — static even split (the control every cell is read against),
//! * **DLB-paper** — the paper walk, pinned to [`BalancerConfig::paper`]
//!   so the dead zone stays measurable,
//! * **DLB-adapt** — the same walk with the adaptive minimum transfer
//!   (the suite's default),
//! * **DEC** — the decentralized half-excess gossip walk,
//! * **DIF** — decentralized damped-gradient diffusion,
//! * **SFC** — hierarchical space-filling-curve group balancing,
//!
//! under a healthy fabric (`baseline`) and under severely degraded
//! manager links (`degraded-mgr`), where the decentralized strategies'
//! lack of a per-frame manager round-trip in the balance phase is the
//! point being measured.
//!
//! The default workload shape is the dead-zone cell found while fixing
//! the defect: a **single** vortex system (per-system hotspots cannot
//! decorrelate across systems, so per-rank compute stays imbalanced),
//! ~700 real particles (thin enough that every neighbor-pair excess sits
//! below the paper's fixed 32), scale 500 (virtual population is real),
//! and 60 frames (the neighbor-only walks need time to flatten an
//! orbiting cluster). [`Export::validate`] gates the acceptance
//! criteria on the result whenever the sweep reaches 128 ranks; a sweep
//! that stays below (the unit tests') is checked for structure only.

use psa_chaos::Scenario;
use psa_desim::EventSim;
use psa_runtime::{BalanceMode, BalancerConfig};
use psa_workloads::{myrinet_gcc, paper_run_config, WorkloadSize};

use crate::export::timed;
use crate::export5::{covers_workloads, sweep_config, workload_json, BENCH5_WORKLOADS};
use crate::json::Json;
use crate::{json_fields, obj, Export};

/// The rank count from which the dead-zone acceptance gates apply.
pub const BENCH6_DEAD_ZONE_RANKS: usize = 128;

/// Strategy column labels, in sweep order.
pub const BENCH6_STRATEGIES: &[&str] = &["SLB", "DLB-paper", "DLB-adapt", "DEC", "DIF", "SFC"];

/// Scenario column labels, in sweep order.
pub const BENCH6_SCENARIOS: &[&str] = &["baseline", "degraded-mgr"];

fn strategy_mode(label: &str) -> BalanceMode {
    match label {
        "SLB" => BalanceMode::Static,
        "DLB-paper" => BalanceMode::Dynamic(BalancerConfig::paper()),
        "DLB-adapt" => BalanceMode::dynamic(),
        "DEC" => BalanceMode::decentralized(),
        "DIF" => BalanceMode::diffusive(),
        "SFC" => BalanceMode::hierarchical(),
        other => unreachable!("unknown strategy label {other}"),
    }
}

fn scenario_shape(label: &str) -> Scenario {
    match label {
        "baseline" => Scenario::Baseline,
        // Severe: a failing NIC / broken autonegotiation on the manager's
        // switch port, not mild congestion — mild degradation vanishes
        // under makespans dominated by compute, severe degradation is
        // what separates manager-mediated strategies from gossip.
        "degraded-mgr" => Scenario::DegradedManager { bw_scale: 64.0, lat_scale: 512.0 },
        other => unreachable!("unknown scenario label {other}"),
    }
}

/// One (ranks, scenario, strategy) point.
#[derive(Clone, Debug)]
pub struct Bench6Cell {
    pub ranks: usize,
    pub scenario: &'static str,
    pub strategy: &'static str,
    /// Virtual makespan of the run.
    pub makespan: f64,
    /// Steady-state virtual time.
    pub steady_time: f64,
    /// Frames in which the balancer moved at least one particle.
    pub balance_rounds: u64,
    /// Particles the balancer moved over the whole run.
    pub orders: u64,
    /// Mean `max/mean − 1` imbalance across frames.
    pub mean_imbalance: f64,
    /// Imbalance of the final frame (what the run converged to).
    pub final_imbalance: f64,
    /// Fabric messages the run exchanged.
    pub messages: u64,
    /// Events the discrete-event loop processed.
    pub events: u64,
    /// Host seconds the event loop took.
    pub wall_seconds: f64,
}

/// One workload's matrix.
#[derive(Clone, Debug)]
pub struct Bench6Experiment {
    pub workload: &'static str,
    pub cells: Vec<Bench6Cell>,
}

/// Everything `BENCH_6.json` carries.
pub struct Bench6Export {
    pub frames: u64,
    pub size: WorkloadSize,
    pub ranks: Vec<usize>,
    pub experiments: Vec<Bench6Experiment>,
}

/// Run the matrix and assemble the export.
pub fn collect6(ranks: &[usize], frames: u64, size: WorkloadSize) -> Bench6Export {
    let mut experiments = Vec::new();
    for &wl in BENCH5_WORKLOADS {
        let mut cells = Vec::new();
        for &r in ranks {
            let cluster = myrinet_gcc(r, 1);
            for &scenario in BENCH6_SCENARIOS {
                let plan = scenario_shape(scenario).plan(
                    paper_run_config(frames, wl.dt()).seed,
                    r,
                    &cluster.net,
                );
                for &strategy in BENCH6_STRATEGIES {
                    let cfg = sweep_config(wl, frames, strategy_mode(strategy));
                    let mut sim =
                        EventSim::new(wl.scene(size), cfg, cluster.clone(), size.cost_model())
                            .with_faults(plan.clone());
                    let (report, wall) = timed(|| sim.run());
                    cells.push(Bench6Cell {
                        ranks: r,
                        scenario,
                        strategy,
                        makespan: report.total_time,
                        steady_time: report.steady_time(),
                        balance_rounds: report.frames.iter().filter(|f| f.balanced > 0).count()
                            as u64,
                        orders: report.frames.iter().map(|f| f.balanced).sum(),
                        mean_imbalance: report.mean_imbalance(),
                        final_imbalance: report
                            .frames
                            .last()
                            .map(|f| f.imbalance)
                            .unwrap_or(f64::NAN),
                        messages: report.traffic.messages,
                        events: sim.sim_stats().events,
                        wall_seconds: wall,
                    });
                }
            }
        }
        experiments.push(Bench6Experiment { workload: wl.name(), cells });
    }
    Bench6Export { frames, size, ranks: ranks.to_vec(), experiments }
}

impl Bench6Export {
    fn cell(&self, workload: &str, ranks: usize, scenario: &str, strategy: &str) -> &Bench6Cell {
        self.experiments
            .iter()
            .find(|e| e.workload == workload)
            .and_then(|e| {
                e.cells
                    .iter()
                    .find(|c| c.ranks == ranks && c.scenario == scenario && c.strategy == strategy)
            })
            .unwrap_or_else(|| panic!("missing cell {workload}/{ranks}r/{scenario}/{strategy}"))
    }
}

impl Export for Bench6Export {
    /// Structural validation plus the acceptance gates of the balancer
    /// suite whenever the sweep reaches [`BENCH6_DEAD_ZONE_RANKS`]:
    ///
    /// 1. the paper config is **dead and inverted** on vortex at every
    ///    swept dead-zone rank count (zero orders, makespan above SLB),
    /// 2. every other dynamic strategy stays **live** there,
    /// 3. at ≥ 1 dead-zone rank count a strategy of the new suite
    ///    (DLB-adapt, DIF, or SFC) **beats the SLB makespan** the paper
    ///    config inverted against,
    /// 4. at ≥ 1 dead-zone rank count a decentralized strategy (DEC or
    ///    DIF) beats the centralized DLB-adapt under degraded manager
    ///    links.
    fn validate(&self) -> Result<(), String> {
        if self.ranks.is_empty() {
            return Err("no rank counts swept".into());
        }
        if !covers_workloads(self.experiments.iter().map(|e| e.workload)) {
            return Err("experiments are not snow, fountain, vortex".into());
        }
        for e in &self.experiments {
            let tag = format!("experiment {}", e.workload);
            // Every (ranks, scenario, strategy) cell, once, in sweep order —
            // which also makes the gate lookups below total.
            let sweep = self.ranks.iter().flat_map(|&r| {
                BENCH6_SCENARIOS
                    .iter()
                    .flat_map(move |&sc| BENCH6_STRATEGIES.iter().map(move |&st| (r, sc, st)))
            });
            if !e.cells.iter().map(|c| (c.ranks, c.scenario, c.strategy)).eq(sweep) {
                return Err(format!(
                    "{tag}: {} cells do not enumerate ranks x scenarios x strategies",
                    e.cells.len()
                ));
            }
            for c in &e.cells {
                let cell = format!("{tag} {}r {} {}", c.ranks, c.scenario, c.strategy);
                if c.makespan <= 0.0 {
                    return Err(format!("{cell}: degenerate makespan {}", c.makespan));
                }
                if c.events == 0 || c.messages == 0 {
                    return Err(format!("{cell}: the event loop did not run"));
                }
                if c.strategy == "SLB" && c.orders != 0 {
                    return Err(format!("{cell}: SLB moved {} particles", c.orders));
                }
            }
        }

        let dead_ranks: Vec<usize> =
            self.ranks.iter().copied().filter(|&r| r >= BENCH6_DEAD_ZONE_RANKS).collect();
        if dead_ranks.is_empty() {
            return Ok(()); // a sweep below the dead zone: structure only
        }

        // Gate 1 + 2: dead zone reproduced, suite live.
        for &r in &dead_ranks {
            let slb = self.cell("vortex", r, "baseline", "SLB");
            let paper = self.cell("vortex", r, "baseline", "DLB-paper");
            if paper.orders != 0 {
                return Err(format!(
                    "vortex {r}r baseline: paper config issued {} orders — not a dead zone",
                    paper.orders
                ));
            }
            if paper.makespan <= slb.makespan {
                return Err(format!(
                    "vortex {r}r baseline: paper DLB {} did not invert against SLB {}",
                    paper.makespan, slb.makespan
                ));
            }
            for strategy in ["DLB-adapt", "DEC", "DIF", "SFC"] {
                let c = self.cell("vortex", r, "baseline", strategy);
                if c.orders == 0 {
                    return Err(format!(
                        "vortex {r}r baseline: {strategy} issued no orders in the dead zone"
                    ));
                }
            }
        }

        // Gate 3: somewhere in the dead zone the fix actually wins.
        let fixed = dead_ranks.iter().any(|&r| {
            let slb = self.cell("vortex", r, "baseline", "SLB");
            ["DLB-adapt", "DIF", "SFC"]
                .iter()
                .any(|s| self.cell("vortex", r, "baseline", s).makespan < slb.makespan)
        });
        if !fixed {
            return Err("no new strategy beat the SLB makespan at any dead-zone rank count".into());
        }

        // Gate 4: decentralization pays under manager-adjacent faults.
        let decentralized_wins = dead_ranks.iter().any(|&r| {
            let central = self.cell("vortex", r, "degraded-mgr", "DLB-adapt");
            ["DEC", "DIF"]
                .iter()
                .any(|s| self.cell("vortex", r, "degraded-mgr", s).makespan < central.makespan)
        });
        if !decentralized_wins {
            return Err("no decentralized strategy beat centralized DLB under degraded \
                        manager links at any dead-zone rank count"
                .into());
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj! {
            "bench": 6u64,
            "workload": workload_json(self.size, self.frames),
            "ranks": &self.ranks,
            "scenarios": BENCH6_SCENARIOS.to_vec(),
            "strategies": BENCH6_STRATEGIES.to_vec(),
            "experiments": &self.experiments,
        }
    }
}

json_fields!(
    Bench6Cell; ranks, scenario, strategy, makespan, steady_time, balance_rounds, orders,
    mean_imbalance, final_imbalance, messages, events, wall_seconds
);
json_fields!(Bench6Experiment; workload, cells);

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench6Export {
        collect6(&[4, 8], 6, WorkloadSize { systems: 1, particles_per_system: 200, scale: 50.0 })
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        let json = e.checked_json().expect("smoke export must validate and render");
        assert!(json.starts_with("{\n  \"bench\": 6,\n"), "{json}");
        assert_eq!(e.experiments.len(), 3, "snow + fountain + vortex");
        for exp in &e.experiments {
            assert_eq!(
                exp.cells.len(),
                2 * BENCH6_SCENARIOS.len() * BENCH6_STRATEGIES.len(),
                "{}: 2 ranks x scenarios x strategies",
                exp.workload
            );
        }
    }

    /// A hand-built export exercising the dead-zone gates that the smoke
    /// tier's rank counts cannot reach.
    fn synthetic() -> Bench6Export {
        let mut experiments = Vec::new();
        for wl in ["snow", "fountain", "vortex"] {
            let mut cells = Vec::new();
            for &r in &[8usize, 128] {
                for &scenario in BENCH6_SCENARIOS {
                    for &strategy in BENCH6_STRATEGIES {
                        // Shape matching the measured 128r cell: paper dead
                        // and inverted, adaptive winning, decentralized
                        // winning under the degraded manager.
                        let (makespan, orders) = match (strategy, scenario) {
                            ("SLB", _) => (7.35, 0),
                            ("DLB-paper", _) if r >= 128 => (7.42, 0),
                            ("DLB-adapt", "degraded-mgr") => (10.3, 1_000),
                            ("DEC", "degraded-mgr") => (9.5, 1_000),
                            _ => (6.9, 1_000),
                        };
                        cells.push(Bench6Cell {
                            ranks: r,
                            scenario,
                            strategy,
                            makespan,
                            steady_time: makespan * 0.8,
                            balance_rounds: if orders > 0 { 5 } else { 0 },
                            orders,
                            mean_imbalance: 10.0,
                            final_imbalance: 6.0,
                            messages: 100,
                            events: 1_000,
                            wall_seconds: 0.1,
                        });
                    }
                }
            }
            experiments.push(Bench6Experiment { workload: wl, cells });
        }
        Bench6Export {
            frames: 60,
            size: WorkloadSize { systems: 1, particles_per_system: 700, scale: 500.0 },
            ranks: vec![8, 128],
            experiments,
        }
    }

    #[test]
    fn synthetic_dead_zone_export_validates() {
        synthetic().validate().expect("synthetic dead-zone export must validate");
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
        e2b.experiments[1].cells.swap(0, 1);
        assert!(e2b.validate().is_err(), "cells out of sweep order must fail");
        let mut e2c = smoke();
        e2c.experiments[1].cells[3].strategy = "SLB";
        assert!(e2c.validate().is_err(), "a strategy missing from the matrix must fail");

        // A paper config that came alive in the dead zone is not the
        // defect BENCH_6 exists to document.
        let mut e3 = synthetic();
        for exp in &mut e3.experiments {
            for c in &mut exp.cells {
                if c.strategy == "DLB-paper" && c.ranks >= 128 {
                    c.orders = 7;
                }
            }
        }
        assert!(e3.validate().is_err(), "live paper config must fail the dead-zone gate");

        // Nobody beating SLB means the fix regressed.
        let mut e4 = synthetic();
        for exp in &mut e4.experiments {
            for c in &mut exp.cells {
                if c.ranks >= 128 && c.scenario == "baseline" && c.strategy != "SLB" {
                    c.makespan = 99.0;
                }
            }
        }
        assert!(e4.validate().is_err(), "no winner in the dead zone must fail");

        // Decentralized losing under the degraded manager fails gate 4.
        let mut e5 = synthetic();
        for exp in &mut e5.experiments {
            for c in &mut exp.cells {
                if c.scenario == "degraded-mgr" && (c.strategy == "DEC" || c.strategy == "DIF") {
                    c.makespan = 99.0;
                }
            }
        }
        assert!(e5.validate().is_err(), "centralized winning the chaos cell must fail");
    }
}
