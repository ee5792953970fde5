//! The recovered-cell gate: crash cells with checkpointing turned on.
//!
//! The [`crate::matrix`] cells run crashes in *degraded* mode — the rank
//! dies, the manager confiscates its particles, and the gate accepts the
//! loss as long as the show goes on. This module runs the same kill
//! scenarios with [`RunConfig::checkpoint_interval`] set and holds them to the
//! far stricter recovered-mode contract:
//!
//! 1. **nobody dies** — the crashed calculator is rolled back to the last
//!    engine snapshot and replayed, so `dead_ranks` stays empty and
//!    `lost_particles == 0`;
//! 2. **the crash is invisible** — the recovered run's fingerprint is
//!    byte-identical to the same plan with the crash *stripped* (for
//!    crash-only scenarios that is the bare uninterrupted run);
//! 3. **recovery is accounted** — at least one
//!    [`RecoveryEvent`](psa_runtime::RecoveryEvent) with a
//!    consistent rollback window (`snapshot_frame + frames_replayed ==
//!    frame`) and a non-empty restored population;
//! 4. **replay** — the recovered run itself replays byte-identically, like
//!    every other chaos cell.

use netsim::FaultPlan;
use psa_desim::EventSim;
use psa_runtime::RunConfig;
use psa_workloads::{myrinet_gcc, Workload};

use crate::matrix::{MatrixConfig, CHAOS_WORKLOADS};
use crate::scenario::Scenario;

/// Knobs for the recovery gate.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// The shared matrix knobs (seed, frames, calculators, particles).
    pub mc: MatrixConfig,
    /// Snapshot cadence in frames (must be ≥ 1; the gate checkpoints).
    pub interval: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { mc: MatrixConfig::default(), interval: 3 }
    }
}

/// What one recovered (workload, scenario) cell observed.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    pub workload: &'static str,
    pub scenario: String,
    /// Fingerprint of the recovered run (== the crash-free reference's
    /// when the cell passed).
    pub fingerprint: u64,
    /// Recovery events the engine performed.
    pub recoveries: usize,
    /// Frames replayed across all recoveries.
    pub frames_replayed: u64,
    /// Particles restored from snapshots across all recoveries.
    pub particles_restored: u64,
    /// Gate violations (empty = pass).
    pub failures: Vec<String>,
}

impl RecoveryOutcome {
    /// Did every gate hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The same plan with every `crash_at` removed: what the run would have
/// been had the crash never been injected. For crash-only scenarios this
/// is the quiet plan; for mixes it keeps the slowdowns and link faults so
/// the comparison isolates exactly the crash.
fn strip_crashes(plan: &FaultPlan) -> FaultPlan {
    let mut stripped = plan.clone();
    for r in 0..stripped.ranks() {
        stripped.rank_mut(r).crash_at = None;
    }
    stripped
}

/// Run one recovered cell: crash plan + checkpointing versus the
/// crash-stripped reference, plus the replay gate.
pub fn run_recovery_case(
    workload: Workload,
    scenario: Scenario,
    rc: &RecoveryConfig,
) -> RecoveryOutcome {
    assert!(rc.interval >= 1, "the recovery gate checkpoints by definition");
    let mc = &rc.mc;
    let sz = mc.workload_size();
    let cluster = myrinet_gcc(mc.calculators, 1);
    let plan = scenario.plan(mc.seed, mc.calculators, &cluster.net);
    let mut failures = Vec::new();

    let cfg = RunConfig { checkpoint_interval: rc.interval, ..mc.run_config() };
    let run = |cfg: RunConfig, plan: FaultPlan| {
        EventSim::new(workload.scene(sz), cfg, cluster.clone(), sz.cost_model())
            .with_faults(plan)
            .try_run()
    };

    let report = match run(cfg.clone(), plan.clone()) {
        Ok(r) => r,
        Err(e) => {
            return RecoveryOutcome {
                workload: workload.name(),
                scenario: scenario.label(),
                fingerprint: 0,
                recoveries: 0,
                frames_replayed: 0,
                particles_restored: 0,
                failures: vec![format!("recovered run failed: {e}")],
            }
        }
    };

    if report.frames.len() != mc.frames as usize {
        failures.push(format!("only {}/{} frames rendered", report.frames.len(), mc.frames));
    }
    if !report.dead_ranks.is_empty() {
        failures.push(format!(
            "recovered mode must keep everyone alive, but saw deaths: {:?}",
            report.dead_ranks
        ));
    }
    if report.lost_particles != 0 {
        failures.push(format!("recovery lost {} particles (want 0)", report.lost_particles));
    }
    if scenario.kills() && report.recoveries.is_empty() {
        failures.push("kill scenario recorded no recovery events".into());
    }
    for ev in &report.recoveries {
        if ev.snapshot_frame + ev.frames_replayed != ev.frame {
            failures.push(format!(
                "recovery at frame {} has inconsistent window: snapshot {} + replayed {}",
                ev.frame, ev.snapshot_frame, ev.frames_replayed
            ));
        }
        if ev.particles_restored == 0 {
            failures.push(format!("recovery at frame {} restored an empty store", ev.frame));
        }
    }

    // The crash must be invisible: same plan minus the crash, no
    // checkpointing, must produce the identical report.
    match run(mc.run_config(), strip_crashes(&plan)) {
        Ok(reference) if reference.fingerprint() != report.fingerprint() => {
            failures.push("recovered run diverged from the crash-free reference".into());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("crash-free reference failed: {e}")),
    }

    // And the recovered run is as replayable as any chaos cell.
    match run(cfg, plan) {
        Ok(replay) if replay.fingerprint() != report.fingerprint() => {
            failures.push("recovered replay fingerprint diverged".into());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("recovered replay failed: {e}")),
    }

    RecoveryOutcome {
        workload: workload.name(),
        scenario: scenario.label(),
        fingerprint: report.fingerprint(),
        recoveries: report.recoveries.len(),
        frames_replayed: report.recoveries.iter().map(|e| e.frames_replayed).sum(),
        particles_restored: report.recoveries.iter().map(|e| e.particles_restored).sum(),
        failures,
    }
}

/// Run the recovery gate over every kill scenario in `scenarios` × both
/// workloads (non-kill scenarios are skipped — they have nothing to
/// recover from).
pub fn run_recovery_matrix(scenarios: &[Scenario], rc: &RecoveryConfig) -> Vec<RecoveryOutcome> {
    let mut out = Vec::new();
    for &w in CHAOS_WORKLOADS {
        for s in scenarios.iter().filter(|s| s.kills()) {
            out.push(run_recovery_case(w, *s, rc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovered_crash_cell_passes_all_gates() {
        let rc = RecoveryConfig {
            mc: MatrixConfig { frames: 10, particles: 400, ..Default::default() },
            interval: 3,
        };
        let c =
            run_recovery_case(Workload::Snow, Scenario::CrashCalculator { rank: 1, frame: 5 }, &rc);
        assert!(c.passed(), "{:?}", c.failures);
        assert_eq!(c.recoveries, 1);
        // Crash at 5, snapshots at 3 (and 6, 9): replay window is 5 - 3.
        assert_eq!(c.frames_replayed, 2);
        assert!(c.particles_restored > 0);
    }

    #[test]
    fn recovery_matrix_covers_every_kill_scenario() {
        let rc = RecoveryConfig {
            mc: MatrixConfig { frames: 10, particles: 400, ..Default::default() },
            interval: 3,
        };
        let outcomes = run_recovery_matrix(&crate::full_set(), &rc);
        let kills = crate::full_set().iter().filter(|s| s.kills()).count();
        assert_eq!(outcomes.len(), 2 * kills, "both workloads × every kill scenario");
        for c in &outcomes {
            assert!(c.passed(), "{}/{}: {:?}", c.workload, c.scenario, c.failures);
            assert!(c.recoveries >= 1, "{}/{} recovered nobody", c.workload, c.scenario);
        }
    }

    #[test]
    fn crash_stripping_leaves_other_faults_alone() {
        let net = cluster_sim::NetworkModel::myrinet();
        let plan = Scenario::RandomMix { with_crash: true }.plan(0xBEEF, 4, &net);
        let stripped = strip_crashes(&plan);
        for r in 0..stripped.ranks() {
            assert_eq!(stripped.rank(r).crash_at, None);
        }
        assert!(!stripped.is_quiet(), "the mix's slowdown/jitter must survive stripping");
    }
}
