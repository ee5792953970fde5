//! The chaos run's printed transcript (`bench chaos`). Everything it prints
//! is virtual time, so `tests/golden/chaos_{smoke,full_1905}.txt` pin it
//! byte for byte: a failed cell and a moved fingerprint both show as a diff.

use std::fmt::Display;

use crate::{
    run_matrix, run_recovery_matrix, run_session_chaos, MatrixConfig, RecoveryConfig, Scenario,
    SessionChaosConfig,
};

/// Run `scenarios` (the set named `set`) under `mc`, then the recovered
/// cells and the session gate, print the transcript to stdout, and return
/// how many checks failed (0 when every cell passed).
pub fn print_chaos(set: &str, scenarios: &[Scenario], mc: MatrixConfig) -> usize {
    println!(
        "chaos matrix `{set}`: {} scenario(s) × 2 workloads, seed {:#x}, {} frames, {} calculators",
        scenarios.len(),
        mc.seed,
        mc.frames,
        mc.calculators
    );
    println!(
        "{:<10} {:<18} {:>6} {:>8} {:>6} {:>9} {:>18}  result",
        "workload", "scenario", "frames", "timeouts", "dead", "lost", "fingerprint"
    );
    let mut failed = 0usize;
    // One cell: workload, scenario, four counts, fingerprint, verdict, and
    // a `!!` line per failed check.
    let mut row = |cells: [&dyn Display; 6], fingerprint: u64, failures: &[String]| {
        let [workload, scenario, a, b, c, d] = cells;
        let result = if failures.is_empty() { "ok" } else { "FAIL" };
        println!("{workload:<10} {scenario:<18} {a:>6} {b:>8} {c:>6} {d:>9} {fingerprint:>18x}  {result}");
        for f in failures {
            failed += 1;
            println!("    !! {f}");
        }
    };
    let outcomes = run_matrix(scenarios, &mc);
    for c in &outcomes {
        let cells: [&dyn Display; 6] = [
            &c.workload,
            &c.scenario,
            &c.frames_rendered,
            &c.timeouts,
            &c.dead.len(),
            &c.lost_particles,
        ];
        row(cells, c.fingerprint, &c.failures);
    }
    // Recovered-mode gate: the kill cells again, this time with engine
    // checkpointing on — nobody may die, nothing may be lost, and the
    // recovered run must fingerprint identically to the crash-free
    // reference.
    let recovered = run_recovery_matrix(scenarios, &RecoveryConfig { mc, ..Default::default() });
    for c in &recovered {
        let scenario = format!("{}+ckpt", c.scenario);
        let cells: [&dyn Display; 6] =
            [&c.workload, &scenario, &c.recoveries, &c.frames_replayed, &0, &c.particles_restored];
        row(cells, c.fingerprint, &c.failures);
    }
    // Pool-level gate: a session-pool worker dies mid-run; every session
    // must still complete with solo-parity fingerprints and replay exactly.
    let pool =
        run_session_chaos(&SessionChaosConfig { seed: mc.seed ^ 0x5E55, ..Default::default() });
    let cells: [&dyn Display; 6] =
        [&"sessions", &"worker-loss", &pool.completed, &"-", &pool.lanes_lost, &pool.requeues];
    row(cells, pool.fingerprints.first().copied().unwrap_or(0), &pool.failures);

    if failed == 0 {
        println!(
            "chaos: all {} cells passed (replay byte-identical, recovery and session pool included)",
            outcomes.len() + recovered.len() + 1
        );
    } else {
        println!("chaos: {failed} failure(s)");
    }
    failed
}
