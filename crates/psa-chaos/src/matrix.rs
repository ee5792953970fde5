//! The chaos scenario matrix: run workloads under fault plans, check the
//! hardening held, and gate on replay determinism.
//!
//! Every case runs the virtual executor **twice** with the same seed and
//! plan; the run is only accepted if both run reports fingerprint
//! byte-identical. Faulty runs must stay as replayable as healthy ones —
//! that is the whole point of drawing fault randomness from seeded streams
//! (the FoundationDB lesson: a failure you cannot replay is a failure you
//! cannot debug).

use netsim::FaultPolicy;
use psa_desim::EventSim;
use psa_runtime::RunConfig;
use psa_workloads::{myrinet_gcc, Workload, WorkloadSize};

use crate::scenario::Scenario;

/// The workloads the chaos matrix and the recovery gate animate (the
/// paper's two experiments).
pub const CHAOS_WORKLOADS: &[Workload] = &[Workload::Snow, Workload::Fountain];

/// Matrix-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct MatrixConfig {
    /// Seed for both the workload RNG streams and the fault plans.
    pub seed: u64,
    /// Frames per case (warm-up is zero: every frame is checked).
    pub frames: u64,
    /// Calculator count (cluster is `calculators` Myrinet nodes, 1 proc each).
    pub calculators: usize,
    /// Particles per system (scaled ×25 in the cost model, paper-style).
    pub particles: usize,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig { seed: 0x1905_2005, frames: 12, calculators: 4, particles: 900 }
    }
}

/// What happened in one (workload, scenario) cell.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    pub workload: &'static str,
    pub scenario: String,
    /// Fingerprint of the first run (== the replay's when `passed`).
    pub fingerprint: u64,
    pub frames_rendered: usize,
    /// `(rank, frame)` death declarations, in order.
    pub dead: Vec<(usize, u64)>,
    pub lost_particles: u64,
    /// Deadline-expired receives summed over the run.
    pub timeouts: u64,
    pub total_time: f64,
    /// Check failures; empty means the cell passed.
    pub failures: Vec<String>,
}

impl CaseOutcome {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl MatrixConfig {
    /// The `RunConfig` every cell runs under (shared with the recovery
    /// gate, which layers a checkpoint policy on top).
    pub fn run_config(&self) -> RunConfig {
        RunConfig { frames: self.frames, dt: 0.1, seed: self.seed, warmup: 0, ..Default::default() }
    }

    /// The workload size every cell animates (×25 cost scale, paper-style).
    pub fn workload_size(&self) -> WorkloadSize {
        WorkloadSize { systems: 2, particles_per_system: self.particles, scale: 25.0 }
    }

    /// The fewest frames in which every kill the `scenarios`' plans carry
    /// is declared before the run ends. A rank that crashes at frame `f`
    /// misses one load gather per system from then on, and the manager
    /// declares it after [`FaultPolicy::dead_after`] misses, so the
    /// declaration lands in frame `f + ceil(dead_after / systems) - 1`. A
    /// shorter run fails the kill cells for its length, not for the
    /// protocol. 1 when no plan crashes a rank.
    pub fn min_frames(&self, scenarios: &[Scenario]) -> u64 {
        let net = myrinet_gcc(self.calculators, 1).net;
        let systems = self.workload_size().systems as u64;
        let to_declare = u64::from(FaultPolicy::default().dead_after).div_ceil(systems);
        let crashes = scenarios.iter().flat_map(|s| {
            let plan = s.plan(self.seed, self.calculators, &net);
            (0..plan.ranks()).filter_map(move |r| plan.rank(r).crash_at)
        });
        crashes.map(|frame| frame + to_declare).max().unwrap_or(1)
    }
}

/// Run one cell: simulate, check the hardening invariants, replay, compare.
pub fn run_case(workload: Workload, scenario: Scenario, mc: &MatrixConfig) -> CaseOutcome {
    let sz = mc.workload_size();
    let cluster = myrinet_gcc(mc.calculators, 1);
    let plan = scenario.plan(mc.seed, mc.calculators, &cluster.net);
    let mut failures = Vec::new();

    let run = |trace: bool| {
        let mut sim =
            EventSim::new(workload.scene(sz), mc.run_config(), cluster.clone(), sz.cost_model())
                .with_faults(plan.clone());
        if trace {
            // The first run carries both the protocol trace and the
            // per-phase recorder; the replay runs bare. The fingerprint
            // comparison below therefore also proves instrumentation is
            // quiet under every fault plan in the matrix.
            sim = sim.with_trace().with_phases();
        }
        sim.try_run()
    };

    let report = match run(true) {
        Ok(r) => r,
        Err(e) => {
            return CaseOutcome {
                workload: workload.name(),
                scenario: scenario.label(),
                fingerprint: 0,
                frames_rendered: 0,
                dead: Vec::new(),
                lost_particles: 0,
                timeouts: 0,
                total_time: 0.0,
                failures: vec![format!("run failed: {e}")],
            }
        }
    };

    // Every frame must have rendered, crash or no crash: degraded mode
    // means the show goes on with the survivors.
    if report.frames.len() != mc.frames as usize {
        failures.push(format!("only {}/{} frames rendered", report.frames.len(), mc.frames));
    }
    // Kill scenarios must actually have killed someone and the manager
    // must have noticed (declaration precedes the last frame).
    if scenario.kills() {
        if report.dead_ranks.is_empty() {
            failures.push("crash scenario ended with no dead ranks".into());
        }
        for &(rank, frame) in &report.dead_ranks {
            if frame >= mc.frames {
                failures.push(format!("rank {rank} declared dead after the run ({frame})"));
            }
        }
    } else if !report.dead_ranks.is_empty() {
        failures.push(format!("unexpected deaths: {:?}", report.dead_ranks));
    }

    // Quiet plans must be byte-identical to an entirely uninstrumented
    // run: the fault layer may not perturb healthy executions.
    if plan.is_quiet() {
        let mut bare =
            EventSim::new(workload.scene(sz), mc.run_config(), cluster.clone(), sz.cost_model());
        match bare.try_run() {
            Ok(b) if b.fingerprint() != report.fingerprint() => {
                failures.push("quiet plan perturbed the run".into());
            }
            Ok(_) => {}
            Err(e) => failures.push(format!("bare replay failed: {e}")),
        }
    }

    // The replay gate: same seed + same plan ⇒ byte-identical report.
    match run(false) {
        Ok(replay) if replay.fingerprint() != report.fingerprint() => {
            failures.push("replay fingerprint diverged".into());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("replay failed: {e}")),
    }

    CaseOutcome {
        workload: workload.name(),
        scenario: scenario.label(),
        fingerprint: report.fingerprint(),
        frames_rendered: report.frames.len(),
        dead: report.dead_ranks.clone(),
        lost_particles: report.lost_particles,
        timeouts: report.frames.iter().map(|f| f.timeouts).sum(),
        total_time: report.total_time,
        failures,
    }
}

/// Run the whole matrix: every scenario × both workloads.
pub fn run_matrix(scenarios: &[Scenario], mc: &MatrixConfig) -> Vec<CaseOutcome> {
    let mut out = Vec::new();
    for &w in CHAOS_WORKLOADS {
        for s in scenarios {
            out.push(run_case(w, *s, mc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cell_passes() {
        let mc = MatrixConfig { frames: 6, particles: 400, ..Default::default() };
        let c = run_case(Workload::Snow, Scenario::Baseline, &mc);
        assert!(c.passed(), "{:?}", c.failures);
        assert_eq!(c.frames_rendered, 6);
        assert!(c.dead.is_empty());
        assert_eq!(c.lost_particles, 0);
    }

    #[test]
    fn min_frames_follows_the_latest_crash() {
        let mc = MatrixConfig::default();
        assert_eq!(mc.min_frames(&[Scenario::Baseline]), 1);
        // crash-c1@f6: misses in frame 6 (two systems) and 7 (the third).
        assert_eq!(mc.min_frames(&crate::smoke_set()), 8);
        let crash = |frame| Scenario::CrashCalculator { rank: 1, frame };
        assert_eq!(mc.min_frames(&[crash(3), crash(9), crash(5)]), 11);
    }

    #[test]
    fn crash_cell_degrades_and_passes() {
        let mc = MatrixConfig { frames: 10, particles: 400, ..Default::default() };
        let c = run_case(Workload::Snow, Scenario::CrashCalculator { rank: 1, frame: 3 }, &mc);
        assert!(c.passed(), "{:?}", c.failures);
        assert_eq!(c.frames_rendered, 10, "post-crash frames must still render");
        assert_eq!(c.dead.len(), 1);
        assert_eq!(c.dead[0].0, 1);
        assert!(c.timeouts > 0, "silent peer should have cost bounded waits");
    }

    /// The replay gate compares a phase-instrumented first run against a
    /// bare replay, so passing cells prove the recorder stays quiet even
    /// while faults are firing (retries, stalls, dead-rank bookkeeping).
    #[test]
    fn traced_faulty_cells_replay_byte_identical() {
        let mc = MatrixConfig { frames: 8, particles: 400, ..Default::default() };
        for scenario in [
            Scenario::StallCalculator { rank: 0, frame: 2, secs: 0.5 },
            Scenario::LossyLinks { prob: 0.05 },
        ] {
            let c = run_case(Workload::Fountain, scenario, &mc);
            assert!(c.passed(), "{}: {:?}", c.scenario, c.failures);
        }
    }
}
