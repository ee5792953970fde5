//! End-to-end table regeneration as benches.
//!
//! Each target runs a reduced-scale instance of a paper artifact through
//! the full virtual executor, so `cargo bench` exercises the exact code
//! paths `bench tables` uses for EXPERIMENTS.md — plus the network ablation
//! (Myrinet vs switched FE vs hub FE) over an identical run.

use cluster_sim::{e800, ClusterSpec, Compiler, NetworkModel};
use psa_bench::micro::Group;
use psa_desim::EventSim;
use psa_runtime::{BalanceMode, RunConfig, SpaceMode};
use psa_workloads::{fountain_scene, myrinet_gcc, paper_run_config, snow_scene, WorkloadSize};

fn size() -> WorkloadSize {
    WorkloadSize { systems: 8, particles_per_system: 2_000, scale: 200.0 }
}

fn run(scene: psa_runtime::Scene, cfg: RunConfig, cluster: ClusterSpec) -> f64 {
    let mut sim = EventSim::new(scene, cfg, cluster, size().cost_model());
    sim.run().steady_time()
}

fn bench_table1_cell() {
    // One Table-1 cell per config column (8*B/8P row).
    let g = Group::new("table1_8B8P");
    for (label, space, dynamic) in [
        ("IS-SLB", SpaceMode::Infinite, false),
        ("FS-SLB", SpaceMode::Finite, false),
        ("FS-DLB", SpaceMode::Finite, true),
    ] {
        g.bench(label, || {
            let mut cfg = paper_run_config(8, psa_workloads::snow::SNOW_DT);
            cfg.space = space;
            cfg.balance = if dynamic { BalanceMode::dynamic() } else { BalanceMode::Static };
            run(snow_scene(size()), cfg, myrinet_gcc(8, 1))
        });
    }
}

fn bench_table3_cell() {
    let g = Group::new("table3_8B8P");
    for (label, dynamic) in [("FS-SLB", false), ("FS-DLB", true)] {
        g.bench(label, || {
            let mut cfg = paper_run_config(8, psa_workloads::fountain::FOUNTAIN_DT);
            cfg.balance = if dynamic { BalanceMode::dynamic() } else { BalanceMode::Static };
            run(fountain_scene(size()), cfg, myrinet_gcc(8, 1))
        });
    }
}

fn bench_network_ablation() {
    // Identical snow run over three fabrics; the reported virtual steady
    // times are the ablation result (printed per-iteration time is host
    // cost; the interesting artifact is deterministic anyway).
    let g = Group::new("network_ablation");
    for (label, net) in [
        ("myrinet", NetworkModel::myrinet()),
        ("fe_switched", NetworkModel::fast_ethernet()),
        ("fe_hub", NetworkModel::fast_ethernet_hub()),
    ] {
        let cluster = ClusterSpec::homogeneous(net, Compiler::Gcc, e800(), 8, 2);
        g.bench(label, || {
            let cfg = paper_run_config(6, psa_workloads::snow::SNOW_DT);
            run(snow_scene(size()), cfg, cluster.clone())
        });
    }
}

fn bench_schedule_ablation() {
    // §3.3: per-system (Figure 2 verbatim) vs phase-batched combination of
    // the eight fountain systems.
    use psa_runtime::SystemSchedule;
    let g = Group::new("schedule_ablation");
    for (label, schedule) in
        [("per_system", SystemSchedule::PerSystem), ("batched", SystemSchedule::Batched)]
    {
        g.bench(label, || {
            let mut cfg = paper_run_config(6, psa_workloads::fountain::FOUNTAIN_DT);
            cfg.schedule = schedule;
            cfg.balance = BalanceMode::Static;
            run(fountain_scene(size()), cfg, myrinet_gcc(8, 1))
        });
    }
}

fn bench_balancer_ablation() {
    // Centralized (§3.2.5) vs decentralized (§6 future work) balancing on
    // the irregular fountain load.
    let g = Group::new("balancer_ablation");
    for (label, balance) in [
        ("centralized", BalanceMode::dynamic()),
        ("decentralized", BalanceMode::decentralized()),
        ("static", BalanceMode::Static),
    ] {
        g.bench(label, || {
            let mut cfg = paper_run_config(6, psa_workloads::fountain::FOUNTAIN_DT);
            cfg.balance = balance;
            run(fountain_scene(size()), cfg, myrinet_gcc(8, 1))
        });
    }
}

fn main() {
    bench_table1_cell();
    bench_table3_cell();
    bench_network_ablation();
    bench_schedule_ablation();
    bench_balancer_ablation();
}
