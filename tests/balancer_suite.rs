//! End-to-end pins for the pluggable balancer suite — the fixes for the
//! BENCH_5 dead zone (ISSUE 8).
//!
//! BENCH_5 measured the defect this suite exists to fix: past ~32 ranks
//! the paper's fixed minimum-transfer rule suppresses every order, yet the
//! balance phase keeps charging its evaluation/order/broadcast round-trip
//! each frame, so "DLB" costs ~2× SLB while doing nothing. These tests pin
//! the two recovery paths (adaptive minimum transfer; balance-phase
//! short-circuit) and the at-scale behavior of the new strategies on the
//! inhomogeneous vortex workload the sweep uses.

use cluster_sim::CostModel;
use psa_desim::EventSim;
use psa_runtime::{
    run_sequential, run_threaded, BalanceMode, BalancerConfig, ExchangeMode, LoadMetric,
    ProtocolError, RunConfig, RunReport, Scene,
};
use psa_sessions::{PoolConfig, SessionManager, SessionSpec, TenantId};
use psa_workloads::{fountain_scene, myrinet_gcc, paper_run_config, vortex_scene, WorkloadSize};

fn size() -> WorkloadSize {
    WorkloadSize { systems: 8, particles_per_system: 200, scale: 25.0 }
}

fn run_event(ranks: usize, balance: BalanceMode) -> RunReport {
    let sz = size();
    let mut cfg = paper_run_config(10, psa_workloads::vortex::VORTEX_DT);
    cfg.balance = balance;
    cfg.exchange = ExchangeMode::Sparse;
    EventSim::new(vortex_scene(sz), cfg, myrinet_gcc(ranks, 1), sz.cost_model()).run()
}

fn orders_of(r: &RunReport) -> u64 {
    r.frames.iter().map(|f| f.balanced).sum()
}

/// The BENCH_5 defect, and its first fix: at 128 ranks the paper's fixed
/// `min_transfer = 32` suppresses every order while still paying the
/// balance round-trip (makespan above SLB); the short-circuit hysteresis
/// stops paying for the dead phase and recovers toward the SLB makespan.
#[test]
fn dead_balancer_short_circuit_recovers_toward_slb() {
    let ranks = 128;
    let slb = run_event(ranks, BalanceMode::Static);

    // Paper-faithful: fixed 32, no short-circuit. Dead and expensive.
    let dead = run_event(ranks, BalanceMode::Dynamic(BalancerConfig::paper()));
    assert_eq!(orders_of(&dead), 0, "128r vortex must sit in the paper config's dead zone");
    assert!(
        dead.total_time > slb.total_time,
        "the dead zone must reproduce the BENCH_5 inversion: DLB {} !> SLB {}",
        dead.total_time,
        slb.total_time
    );

    // Same dead strategy, but with the zero-order hysteresis enabled: the
    // phase short-circuits to a barrier and the overhead collapses.
    let short = run_event(
        ranks,
        BalanceMode::Dynamic(BalancerConfig {
            idle_after: 3,
            reprobe_period: 8,
            ..BalancerConfig::paper()
        }),
    );
    assert_eq!(orders_of(&short), 0, "hysteresis must not change what the balancer decides");
    assert!(
        short.total_time < dead.total_time,
        "short-circuit must cost less than the dead balance phase: {} !< {}",
        short.total_time,
        dead.total_time
    );
    let overhead = short.total_time / slb.total_time;
    assert!(
        overhead < 1.30,
        "short-circuited dead DLB must recover toward SLB makespan: {overhead:.3}× SLB"
    );
    // The load-report phase still runs (reports are what the re-probe
    // decides from), so "recovered" means at least half of the dead-phase
    // overhead above SLB is gone, not all of it.
    let dead_overhead = dead.total_time / slb.total_time;
    assert!(
        dead_overhead - overhead > 0.5 * (dead_overhead - 1.0),
        "hysteresis must recover most of the dead-phase cost: {overhead:.3}× vs {dead_overhead:.3}×"
    );
}

/// The root fix and the new strategies: at a dead-zone rank count on the
/// inhomogeneous vortex workload, the adaptive-minimum neighbor-pair walk
/// and both new strategies issue real orders, and at least one of them
/// beats the SLB makespan the paper config inverted against (the
/// acceptance criterion BENCH_6 gates across the full matrix).
///
/// The cell is a single 700-particle vortex at scale 500 over 60 frames:
/// one system means per-system hotspots cannot decorrelate across systems
/// (with many systems the aggregate per-rank compute self-averages and
/// there is nothing left to balance), ~5.5 real particles per rank keeps
/// every neighbor-pair excess below the paper's fixed 32 (dead), and 60
/// frames give the neighbor-only walks time to flatten the orbiting
/// cluster. Past ~512 ranks the serial pipeline stages (creation at the
/// manager, ship/render at the IG, both ∝ total particles) become the
/// critical path and no balancer can beat static — there the short-circuit
/// above is the right recovery, not more balancing.
#[test]
fn new_balancers_stay_live_and_beat_slb_at_128_ranks() {
    let ranks = 128;
    let sz = WorkloadSize { systems: 1, particles_per_system: 700, scale: 500.0 };
    let run = |balance: BalanceMode| {
        let mut cfg = paper_run_config(60, psa_workloads::vortex::VORTEX_DT);
        cfg.balance = balance;
        cfg.exchange = ExchangeMode::Sparse;
        EventSim::new(vortex_scene(sz), cfg, myrinet_gcc(ranks, 1), sz.cost_model()).run()
    };
    let slb = run(BalanceMode::Static);

    // The defect is present in this cell: paper-faithful DLB issues no
    // orders yet still loses to SLB.
    let paper = run(BalanceMode::Dynamic(BalancerConfig::paper()));
    assert_eq!(orders_of(&paper), 0, "the cell must sit in the paper config's dead zone");
    assert!(
        paper.total_time > slb.total_time,
        "paper DLB must invert against SLB here: {} !> {}",
        paper.total_time,
        slb.total_time
    );

    let mut winners = Vec::new();
    for balance in [
        BalanceMode::dynamic(),      // adaptive min_transfer (the default)
        BalanceMode::diffusive(),    // decentralized damped diffusion
        BalanceMode::hierarchical(), // SFC group balancing
    ] {
        let r = run(balance);
        assert!(
            orders_of(&r) > 0,
            "{} must stay live at {ranks} ranks where the paper config died",
            balance.label()
        );
        assert!(
            r.mean_imbalance() < slb.mean_imbalance(),
            "{} must actually flatten the vortex cluster: {} !< {}",
            balance.label(),
            r.mean_imbalance(),
            slb.mean_imbalance()
        );
        if r.total_time < slb.total_time {
            winners.push(balance.label());
        }
    }
    assert!(
        !winners.is_empty(),
        "at {ranks} ranks on vortex at least one live balancer must beat SLB ({})",
        slb.total_time
    );
}

/// Two calculators have one neighbor pair, and every system must get it
/// evaluated. The manager's round counter is shared by all systems, so with
/// four systems each one meets the same start parity every frame; when a
/// start of 1 named a pair that does not exist, systems 1 and 3 were never
/// balanced — one of them sat entirely on one rank and this report read
/// `imbalance = 1.0` for the whole run while the other rank waited in the
/// exchange (EXPERIMENTS.md, PR 21).
#[test]
fn two_threaded_calculators_level_every_fountain_system() {
    let size = WorkloadSize { systems: 4, particles_per_system: 4_000, scale: 1.0 };
    let scene = fountain_scene(size);
    let cfg = RunConfig {
        frames: 12,
        dt: psa_workloads::fountain::FOUNTAIN_DT,
        load_metric: LoadMetric::CountProportional,
        ..Default::default()
    };
    let thr = run_threaded(&scene, &cfg, 2, None).expect("clean run");
    for f in &thr.frames[1..] {
        assert!(f.imbalance < 0.2, "frame {}: worst system imbalance {}", f.frame, f.imbalance);
    }
    assert!(thr.frames.iter().map(|f| f.balanced).sum::<u64>() > 0);
    // Balancing moves particles between ranks, not in or out of the scene.
    let seq = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
    let (t, s) = (thr.frames[11].alive as f64, seq.frames[11].alive as f64);
    assert!((t - s).abs() <= 1e-3 * s, "threaded {t} vs sequential {s} alive");
}

/// Auto-selected sparse exchange is byte-identical to explicitly-configured
/// sparse at scale, and at paper scale Auto keeps Figure 2's dense pattern,
/// whose empty messages cost virtual time that sparse runs do not pay.
#[test]
fn auto_exchange_fingerprints_match_explicit_modes() {
    let sz = size();
    let run = |ranks: usize, exchange: ExchangeMode| {
        let mut cfg = paper_run_config(6, psa_workloads::vortex::VORTEX_DT);
        cfg.exchange = exchange;
        EventSim::new(vortex_scene(sz), cfg, myrinet_gcc(ranks, 1), sz.cost_model()).run()
    };
    // At/above the threshold Auto must resolve to sparse.
    let threshold = ExchangeMode::AUTO_SPARSE_THRESHOLD;
    let auto = run(threshold, ExchangeMode::Auto);
    let sparse = run(threshold, ExchangeMode::Sparse);
    assert_eq!(
        auto.fingerprint(),
        sparse.fingerprint(),
        "auto-selected sparse must fingerprint identically to explicit sparse"
    );
    // Below it Auto must resolve to dense — paper-scale runs keep exactly
    // the Figure-2 dense exchange pattern (and its virtual timing).
    assert_ne!(
        run(8, ExchangeMode::Auto).fingerprint(),
        run(8, ExchangeMode::Sparse).fingerprint(),
        "below the threshold Auto must not exchange sparsely"
    );
}

/// A NaN or infinite time step sends every particle to a non-finite
/// position, and what became of that depended on the rank count: one
/// calculator ran it `Ok`, three ended on the manager refusing a NaN
/// donation cut. Every parallel executor, the session pool included, now
/// refuses it with one typed error before frame 0, at any rank count; zero
/// and negative steps still run.
#[test]
fn a_non_finite_time_step_is_refused_before_frame_zero_at_every_rank_count() {
    let sz = WorkloadSize { systems: 2, particles_per_system: 300, scale: 25.0 };
    let scene = psa_workloads::snow_scene(sz);
    for dt in [f32::NAN, f32::INFINITY, 0.0, -0.1] {
        let cfg = RunConfig {
            frames: 6,
            dt,
            load_metric: LoadMetric::CountProportional,
            ..Default::default()
        };
        for n in [1, 3] {
            let mut sim =
                EventSim::new(scene.clone(), cfg.clone(), myrinet_gcc(n, 1), sz.cost_model());
            for (executor, got) in [
                ("EventSim", sim.try_run()),
                ("run_threaded", run_threaded(&scene, &cfg, n, None)),
                ("session pool", pooled(&scene, &cfg, n, sz.cost_model())),
            ] {
                let case = format!("{executor}, {n} calculators, dt {dt}");
                match got {
                    Err(ProtocolError::NonFiniteDt { dt: refused }) if !dt.is_finite() => {
                        assert_eq!(refused.to_bits(), dt.to_bits(), "{case}");
                    }
                    Ok(report) if dt.is_finite() => assert_eq!(report.frames.len(), 6, "{case}"),
                    other => panic!("{case}: got {other:?}"),
                }
            }
        }
    }
}

/// One session's run on a session pool: its report, or the error it failed
/// with.
fn pooled(
    scene: &Scene,
    cfg: &RunConfig,
    n: usize,
    cost: CostModel,
) -> Result<RunReport, ProtocolError> {
    let mut pool = SessionManager::new(PoolConfig::default());
    let spec = SessionSpec {
        tenant: TenantId(0),
        scene: scene.clone(),
        cfg: cfg.clone(),
        cluster: myrinet_gcc(n, 1),
        cost,
        arrival: 0.0,
    };
    assert!(pool.admit(spec).is_ok(), "an empty pool starts its first session");
    let mut r = pool.run_to_completion();
    let end = match (r.failed.pop(), r.outcomes.pop()) {
        (Some((_, e)), None) => Err(e),
        (None, Some(outcome)) => Ok(outcome.report),
        other => panic!("one session ended twice or never: {other:?}"),
    };
    assert!(r.failed.is_empty() && r.outcomes.is_empty());
    end
}
