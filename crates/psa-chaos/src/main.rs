//! `chaos` — run the fault-injection scenario matrix from the command line.
//!
//! ```text
//! cargo run --release -p psa-chaos --features strict-invariants --bin chaos
//! cargo run -p psa-chaos --bin chaos -- --matrix full --seed 42 --frames 20
//! ```
//!
//! Exit code 0 when every cell passes (all frames rendered, protocol order
//! held, crashes declared and absorbed, replay byte-identical), 1 when any
//! cell fails, 2 on usage errors — a `--frames` too short for the set's
//! kill scenarios to be declared is one.

use std::process::ExitCode;
use std::str::FromStr;

use psa_chaos::{
    full_set, run_matrix, run_recovery_matrix, run_session_chaos, smoke_set, MatrixConfig,
    RecoveryConfig, Scenario, SessionChaosConfig,
};

const USAGE: &str = "usage: chaos [--matrix smoke|full] [--seed N] [--frames N] [--calculators N]";

/// The matrix set, its scenarios and its configuration, or a usage error
/// that names the flag.
fn parse_args() -> Result<(String, Vec<Scenario>, MatrixConfig), String> {
    let mut mc = MatrixConfig::default();
    let mut set = "smoke".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--matrix" => match take("--matrix")? {
                v if v == "smoke" || v == "full" => set = v,
                v => return Err(format!("unknown matrix `{v}` (want smoke|full)")),
            },
            "--seed" => mc.seed = number("--seed", take("--seed")?)?,
            "--frames" => mc.frames = number("--frames", take("--frames")?)?,
            "--calculators" => match number("--calculators", take("--calculators")?)? {
                v if v >= 2 => mc.calculators = v,
                v => return Err(format!("--calculators must be at least 2, got {v}")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let scenarios = if set == "full" { full_set() } else { smoke_set() };
    let min = mc.min_frames(&scenarios);
    if mc.frames < min {
        return Err(format!(
            "--frames {} is too short: the `{set}` kill scenarios need at least {min}",
            mc.frames
        ));
    }
    Ok((set, scenarios, mc))
}

fn number<T: FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} needs a number, got `{v}`"))
}

fn main() -> ExitCode {
    let (set, scenarios, mc) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "chaos matrix `{set}`: {} scenario(s) × 2 workloads, seed {:#x}, {} frames, {} calculators",
        scenarios.len(),
        mc.seed,
        mc.frames,
        mc.calculators
    );
    let outcomes = run_matrix(&scenarios, &mc);

    println!(
        "{:<10} {:<18} {:>6} {:>8} {:>6} {:>9} {:>18}  result",
        "workload", "scenario", "frames", "timeouts", "dead", "lost", "fingerprint"
    );
    let mut failed = 0usize;
    for c in &outcomes {
        println!(
            "{:<10} {:<18} {:>6} {:>8} {:>6} {:>9} {:>18x}  {}",
            c.workload,
            c.scenario,
            c.frames_rendered,
            c.timeouts,
            c.dead.len(),
            c.lost_particles,
            c.fingerprint,
            if c.passed() { "ok" } else { "FAIL" }
        );
        for f in &c.failures {
            failed += 1;
            println!("    !! {f}");
        }
    }
    // Recovered-mode gate: the kill cells again, this time with engine
    // checkpointing on — nobody may die, nothing may be lost, and the
    // recovered run must fingerprint identically to the crash-free
    // reference.
    let rc = RecoveryConfig { mc, ..RecoveryConfig::default() };
    let recovered = run_recovery_matrix(&scenarios, &rc);
    for c in &recovered {
        println!(
            "{:<10} {:<18} {:>6} {:>8} {:>6} {:>9} {:>18x}  {}",
            c.workload,
            format!("{}+ckpt", c.scenario),
            c.recoveries,
            c.frames_replayed,
            0,
            c.particles_restored,
            c.fingerprint,
            if c.passed() { "ok" } else { "FAIL" }
        );
        for f in &c.failures {
            failed += 1;
            println!("    !! {f}");
        }
    }
    // Pool-level gate: a session-pool worker dies mid-run; every session
    // must still complete with solo-parity fingerprints and replay exactly.
    let sc = SessionChaosConfig { seed: mc.seed ^ 0x5E55, ..SessionChaosConfig::default() };
    let session_outcome = run_session_chaos(&sc);
    println!(
        "sessions   worker-loss        {:>6} {:>8} {:>6} {:>9} {:>18x}  {}",
        session_outcome.completed,
        "-",
        session_outcome.lanes_lost,
        session_outcome.requeues,
        session_outcome.fingerprints.first().copied().unwrap_or(0),
        if session_outcome.passed() { "ok" } else { "FAIL" }
    );
    for f in &session_outcome.failures {
        failed += 1;
        println!("    !! {f}");
    }

    if failed == 0 {
        println!(
            "chaos: all {} cells passed (replay byte-identical, recovery and session pool included)",
            outcomes.len() + recovered.len() + 1
        );
        ExitCode::SUCCESS
    } else {
        println!("chaos: {failed} failure(s)");
        ExitCode::from(1)
    }
}
