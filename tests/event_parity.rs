//! Golden parity gate for the virtual-time executor.
//!
//! `EventSim` replaced a queue-stepped virtual executor that drove the
//! *same* shared protocol engine over a `ranks²`-queue fabric. Before that
//! executor was deleted, the two sweeps below were run through it and
//! their per-cell results — run fingerprint plus a fold of the per-frame
//! checksums, or the protocol error — were frozen in
//! `tests/golden/event_parity.txt`. `EventSim` matched every row then and
//! must keep matching: all chaos scenarios, both paper workloads, 4/8/16
//! calculators, both topologies, every balance mode. Tables 1–3, the chaos
//! matrix and the BENCH_3/5/6/8 numbers all come out of this executor, so a
//! row that moves means the paper reproduction moved. (The engine reports
//! checksum 0 for every virtual frame today, so the fold column is one
//! constant; it is recorded because the retired cross-executor sweep
//! compared it, and it starts to bite the day the engine hashes state.)
//! A third sweep, `sparse/`, was frozen from `EventSim` itself: sparse
//! exchange at 64 and 128 calculators, each fingerprint beside the
//! fabric's five `SimStats` counters.
//!
//! Re-baselining (only for a change that *means* to alter virtual timing or
//! particle state): a failing sweep prints its full actual table; replace
//! that sweep's rows in the golden file with it and say why in the PR.

use cluster_sim::Topology;
use psa_chaos::{full_set, MatrixConfig};
use psa_desim::EventSim;
use psa_runtime::msg::ProtocolError;
use psa_runtime::{BalanceMode, ExchangeMode, RunConfig, RunReport};
use psa_workloads::{fountain_scene, myrinet_gcc, snow_scene, Workload, WorkloadSize};

const GOLDEN: &str = include_str!("golden/event_parity.txt");

fn size() -> WorkloadSize {
    WorkloadSize { systems: 2, particles_per_system: 300, scale: 25.0 }
}

fn config(seed: u64) -> RunConfig {
    RunConfig { frames: 6, dt: 0.1, seed, warmup: 0, ..Default::default() }
}

/// One golden row: `<cell> <fingerprint> <frame-checksum fold>`, or
/// `<cell> error <message>` for a run the protocol ended early.
fn row(cell: String, outcome: Result<RunReport, ProtocolError>) -> String {
    match outcome {
        Ok(r) => {
            let fold = r.frames.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, f| {
                (h ^ f.checksum).wrapping_mul(0x0000_0100_0000_01b3)
            });
            format!("{cell} {:016x} {fold:016x}", r.fingerprint())
        }
        Err(e) => format!("{cell} error {e}"),
    }
}

/// Compare one sweep's rows with the golden rows carrying its prefix.
fn assert_matches_golden(sweep: &str, actual: &[String]) {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(sweep)).collect();
    if golden != actual[..] {
        let first = golden
            .iter()
            .zip(actual)
            .find(|(g, a)| *g != a)
            .map(|(g, a)| format!("first difference:\n  golden {g}\n  actual {a}"))
            .unwrap_or_else(|| format!("row count {} != golden {}", actual.len(), golden.len()));
        panic!(
            "`{sweep}` rows diverged from tests/golden/event_parity.txt\n{first}\n\
             full actual table (paste over the `{sweep}` rows to re-baseline):\n{}",
            actual.join("\n")
        );
    }
}

/// The full chaos scenario matrix at 4, 8, and 16 calculators, for both
/// paper workloads.
#[test]
fn event_sim_matches_golden_across_scenario_matrix() {
    let mc = MatrixConfig::default();
    let sz = size();
    let mut rows = Vec::new();
    for calculators in [4usize, 8, 16] {
        let cluster = myrinet_gcc(calculators, 1);
        for scenario in full_set() {
            let plan = scenario.plan(mc.seed, calculators, &cluster.net);
            for (wl, scene) in [("snow", snow_scene(sz)), ("fountain", fountain_scene(sz))] {
                let outcome =
                    EventSim::new(scene, config(mc.seed), cluster.clone(), sz.cost_model())
                        .with_faults(plan.clone())
                        .try_run();
                rows.push(row(format!("matrix/{calculators}c/{}/{wl}", scenario.label()), outcome));
            }
        }
    }
    assert_eq!(rows.len(), 3 * full_set().len() * 2, "matrix coverage shrank");
    assert_matches_golden("matrix/", &rows);
}

/// Every balance mode on both topologies, not only the
/// default FS-DLB path — the BENCH_5 sweep exercises SLB and DLB columns.
#[test]
fn event_sim_matches_golden_across_modes_and_topologies() {
    let sz = size();
    let mut rows = Vec::new();
    for (topo, topology) in
        [("flat", Topology::Flat), ("fat-tree2", Topology::FatTree { radix: 2 })]
    {
        let mut cluster = myrinet_gcc(4, 1);
        cluster.net = cluster.net.clone().with_topology(topology);
        for balance in [
            BalanceMode::Static,
            BalanceMode::dynamic(),
            BalanceMode::decentralized(),
            BalanceMode::diffusive(),
            BalanceMode::hierarchical(),
        ] {
            let cfg = RunConfig { balance, ..config(0x5EED) };
            let outcome =
                EventSim::new(fountain_scene(sz), cfg, cluster.clone(), sz.cost_model()).try_run();
            // The cell keeps the name it had when two frame schedules were swept.
            rows.push(row(format!("modes/{topo}/{}/PerSystem", balance.label()), outcome));
        }
    }
    assert_eq!(rows.len(), 2 * 5, "mode coverage shrank");
    assert_matches_golden("modes/", &rows);
}

/// The at-scale path: sparse exchange on 64 and 128 calculators, where
/// every receive is found among many senders' traffic into one rank. Each
/// row pins the run fingerprint and all five fabric counters, so a change
/// to how the fabric files or finds a message shows here, not only in the
/// regenerated BENCH_5/6 artifacts.
#[test]
fn event_sim_matches_golden_on_the_sparse_path_at_scale() {
    let sz = WorkloadSize { systems: 2, particles_per_system: 600, scale: 25.0 };
    let mut rows = Vec::new();
    for wl in [Workload::Vortex, Workload::Fountain] {
        for calculators in [64usize, 128] {
            let cluster = myrinet_gcc(calculators, 1);
            for balance in
                [BalanceMode::dynamic(), BalanceMode::decentralized(), BalanceMode::Static]
            {
                let cfg = RunConfig {
                    frames: 4,
                    dt: wl.dt(),
                    balance,
                    exchange: ExchangeMode::Sparse,
                    ..config(0x5EED)
                };
                let mut sim = EventSim::new(wl.scene(sz), cfg, cluster.clone(), sz.cost_model());
                let outcome = sim.try_run();
                let s = sim.sim_stats();
                let cell = format!("sparse/{}/{calculators}c/{}", wl.name(), balance.label());
                rows.push(match outcome {
                    Ok(r) => format!(
                        "{cell} {:016x} {} {} {} {} {}",
                        r.fingerprint(),
                        s.events,
                        s.sends,
                        s.fast_forwards,
                        s.blocked_recvs,
                        s.max_heap_depth
                    ),
                    Err(e) => format!("{cell} error {e}"),
                });
            }
        }
    }
    assert_eq!(rows.len(), 2 * 2 * 3, "sparse coverage shrank");
    assert_matches_golden("sparse/", &rows);
}

/// Same-seed virtual runs are byte-identical — determinism of the engine
/// and its fabric (fixed rank order, per-link FIFO, stats quietness).
#[test]
fn same_seed_event_runs_are_byte_identical() {
    let sz = size();
    let cluster = myrinet_gcc(8, 1);
    let run = || {
        let mut sim =
            EventSim::new(fountain_scene(sz), config(0xD15C), cluster.clone(), sz.cost_model());
        let r = sim.run();
        (r, sim.sim_stats())
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(
        a.frames.iter().map(|f| f.checksum).collect::<Vec<_>>(),
        b.frames.iter().map(|f| f.checksum).collect::<Vec<_>>(),
    );
    assert_eq!(sa, sb, "fabric stats must replay identically");
    assert!(sa.events > 0 && sa.sends > 0, "messages actually crossed the fabric: {sa:?}");
    assert!(sa.max_heap_depth > 0);
}

/// Sparse exchange is the at-scale mode: not fingerprint-comparable with
/// dense (empty messages carry virtual cost), but it must be exactly as
/// deterministic, render every frame, and conserve particles.
#[test]
fn sparse_exchange_is_deterministic_and_complete() {
    let sz = size();
    let cluster = myrinet_gcc(8, 1);
    let cfg = RunConfig { exchange: ExchangeMode::Sparse, ..config(0x5EED) };
    let run =
        || EventSim::new(fountain_scene(sz), cfg.clone(), cluster.clone(), sz.cost_model()).run();
    let a = run();
    let b = run();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.frames.len(), cfg.frames as usize);
    assert_eq!(a.lost_particles, 0);
    // Sparse must move strictly fewer messages than dense on a migrating
    // workload (that is its entire reason to exist).
    let dense =
        EventSim::new(fountain_scene(sz), config(0x5EED), cluster.clone(), sz.cost_model()).run();
    assert!(
        a.traffic.messages < dense.traffic.messages,
        "sparse {} !< dense {}",
        a.traffic.messages,
        dense.traffic.messages
    );
    // And the simulated physics is unchanged: identical frame checksums.
    assert_eq!(
        a.frames.iter().map(|f| f.checksum).collect::<Vec<_>>(),
        dense.frames.iter().map(|f| f.checksum).collect::<Vec<_>>(),
        "exchange mode may change timing, never state"
    );
}
