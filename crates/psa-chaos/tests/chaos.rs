//! Properties of the fault-injection subsystem.
//!
//! Two property-style sweeps (seed-reproducible plans; the balancer never
//! overdrawing a donor under crash-induced reassignment) plus end-to-end
//! replay gates for the crash and lossy scenarios.

use cluster_sim::NetworkModel;
use psa_chaos::{full_set, run_case, MatrixConfig, Scenario, Workload};
use psa_math::Rng64;
use psa_runtime::balance::{evaluate, evaluate_decentralized, BalancerConfig, LoadInfo};
use psa_runtime::balancers::NeighborPair;
use psa_runtime::Balancer;

/// Property: for any seed, building a scenario's plan twice yields the
/// same plan, byte for byte — fault randomness is a pure function of the
/// seed, never of ambient entropy.
#[test]
fn fault_plans_are_seed_reproducible() {
    let net = NetworkModel::myrinet();
    for seed in 0..256u64 {
        for s in full_set() {
            for calcs in [2usize, 4, 7] {
                let a = s.plan(seed, calcs, &net);
                let b = s.plan(seed, calcs, &net);
                assert_eq!(a, b, "{} seed {seed} calcs {calcs}", s.label());
                assert_eq!(a.ranks(), calcs + 2);
            }
        }
    }
}

/// Property: under crash-induced domain reassignment the balancer operates
/// on the *present* (alive) calculators only, and no order it emits ever
/// moves more particles than the donor owns. Sweeps random load vectors
/// and random dead-sets.
#[test]
fn present_orders_never_overdraw_a_donor() {
    let mut rng = Rng64::new(0xBA1A_0CE5);
    let cfg = BalancerConfig::default();
    for case in 0..500 {
        let n = 3 + rng.below(8); // 3..=10 calculators
                                  // Kill up to n-2 of them, leaving at least two present.
        let mut present: Vec<usize> = (0..n).collect();
        let deaths = rng.below(n - 1);
        for _ in 0..deaths {
            if present.len() <= 2 {
                break;
            }
            let victim = rng.below(present.len());
            present.remove(victim);
        }
        let loads: Vec<LoadInfo> = present
            .iter()
            .map(|_| {
                let count = rng.below(5_000);
                LoadInfo { count, time: count as f64 * (0.5 + f64::from(rng.unit())) * 1e-6 }
            })
            .collect();
        let powers: Vec<f64> = present.iter().map(|_| 0.5 + f64::from(rng.unit())).collect();
        let round = rng.below(2) as u64;
        let transfers = NeighborPair.decide(&loads, &powers, &present, round, &cfg);
        for t in &transfers {
            let donor_pos = present
                .iter()
                .position(|&c| c == t.donor)
                .unwrap_or_else(|| panic!("case {case}: donor {} not present", t.donor));
            assert!(
                t.amount <= loads[donor_pos].count,
                "case {case}: donor {} ordered to move {} of {} particles",
                t.donor,
                t.amount,
                loads[donor_pos].count
            );
            assert!(present.contains(&t.receiver), "case {case}: receiver {} is dead", t.receiver);
        }
    }
}

/// Property: malformed balance reports — length-mismatched load/power/
/// present vectors, as a faulty or half-crashed manager would assemble
/// them — yield an empty round from every balancer entry point instead of
/// a panic. A wedged balancer must degrade to "no orders this frame", not
/// take the manager down with it.
#[test]
fn malformed_report_lengths_yield_empty_rounds() {
    let mut rng = Rng64::new(0x0BAD_512E);
    let cfg = BalancerConfig::default();
    for case in 0..500 {
        let n = 2 + rng.below(7); // 2..=8 calculators
        let loads: Vec<LoadInfo> = (0..n)
            .map(|_| {
                let count = rng.below(2_000);
                LoadInfo { count, time: count as f64 * f64::from(rng.unit()) * 1e-6 }
            })
            .collect();
        // A power vector that is too short, too long, or empty — never n.
        let mut m = rng.below(n + 3);
        if m == n {
            m += 1;
        }
        let powers: Vec<f64> = (0..m).map(|_| 0.5 + f64::from(rng.unit())).collect();
        let start = rng.below(2);
        assert!(
            evaluate(&loads, &powers, start, &cfg).is_empty(),
            "case {case}: centralized round must be empty for {n} loads / {m} powers"
        );
        assert!(
            evaluate_decentralized(&loads, &powers, &cfg).is_empty(),
            "case {case}: decentralized round must be empty for {n} loads / {m} powers"
        );
        // present.len() matches neither loads nor powers.
        let present: Vec<usize> = (0..n + 1).collect();
        assert!(
            NeighborPair.decide(&loads, &powers, &present, start as u64, &cfg).is_empty(),
            "case {case}: present round must be empty for mismatched membership"
        );
    }
}

/// A crash run completes degraded (all frames rendered, dead rank
/// declared) and replays byte-identically — the matrix cell asserts both.
#[test]
fn crash_scenario_completes_and_replays() {
    let mc = MatrixConfig { frames: 10, particles: 500, ..Default::default() };
    let c = run_case(Workload::Fountain, Scenario::CrashCalculator { rank: 2, frame: 4 }, &mc);
    assert!(c.passed(), "{:?}", c.failures);
    assert_eq!(c.frames_rendered, 10);
    assert_eq!(c.dead, vec![(2, c.dead[0].1)]);
    assert!(c.dead[0].1 >= 4, "death cannot be declared before the crash");
}

/// Lossy links exercise the retry path on every frame yet stay perfectly
/// replayable, because drop decisions come from per-link seeded streams.
#[test]
fn lossy_scenario_is_deterministic() {
    let mc = MatrixConfig { frames: 8, particles: 400, ..Default::default() };
    let c = run_case(Workload::Snow, Scenario::LossyLinks { prob: 0.08 }, &mc);
    assert!(c.passed(), "{:?}", c.failures);
    assert!(c.dead.is_empty(), "loss alone must never kill a rank");
}

/// The stall scenario pauses a calculator mid-run without killing it: the
/// frame time absorbs the stall, nobody is declared dead.
#[test]
fn stall_slows_but_does_not_kill() {
    let mc = MatrixConfig { frames: 8, particles: 400, ..Default::default() };
    let healthy = run_case(Workload::Snow, Scenario::Baseline, &mc);
    let stalled =
        run_case(Workload::Snow, Scenario::StallCalculator { rank: 1, frame: 3, secs: 0.5 }, &mc);
    assert!(stalled.passed(), "{:?}", stalled.failures);
    assert!(stalled.dead.is_empty());
    assert!(
        stalled.total_time > healthy.total_time + 0.4,
        "stall of 0.5s must show up in the makespan ({} vs {})",
        stalled.total_time,
        healthy.total_time
    );
}
