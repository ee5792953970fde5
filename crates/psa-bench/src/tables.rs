//! Regeneration of every table and in-text number of the paper.

use psa_runtime::{BalanceMode, BalancerConfig, SpaceMode};
use psa_workloads::{myrinet_gcc, table1_rows, table2_rows, Workload, WorkloadSize};

use crate::paper;
use crate::runner::Runner;

/// One reproduced table row: measured speed-ups next to the paper's.
#[derive(Clone, Debug)]
pub struct TableRow {
    pub label: String,
    /// Measured speed-ups, one per column.
    pub ours: Vec<f64>,
    /// Paper speed-ups, one per column.
    pub paper: Vec<f64>,
}

/// The four configuration columns of Tables 1 and 3.
pub const CONFIG_COLUMNS: [(&str, SpaceMode, bool); 4] = [
    ("IS-SLB", SpaceMode::Infinite, false),
    ("FS-SLB", SpaceMode::Finite, false),
    ("IS-DLB", SpaceMode::Infinite, true),
    ("FS-DLB", SpaceMode::Finite, true),
];

/// The DLB every paper table and in-text number runs: the paper's own
/// balancer ([`BalancerConfig::paper`] — fixed 32-particle minimum transfer,
/// no balance short-circuit), not the adaptive default that later work made
/// `BalanceMode::dynamic()`. Pinned so `bench tables` keeps reproducing the
/// committed `repro_output.txt` whatever the runtime default becomes.
pub fn paper_dlb() -> BalanceMode {
    BalanceMode::Dynamic(BalancerConfig::paper())
}

fn balance_of(dynamic: bool) -> BalanceMode {
    if dynamic {
        paper_dlb()
    } else {
        BalanceMode::Static
    }
}

fn myrinet_table(
    exp: Workload,
    paper_vals: &[[f64; 4]; 6],
    size: WorkloadSize,
    frames: u64,
) -> Vec<TableRow> {
    let mut runner = Runner::new(size, frames);
    let base = runner.baseline_gcc(exp);
    table1_rows()
        .into_iter()
        .zip(paper_vals.iter())
        .map(|((label, nodes, ppn), paper_row)| {
            let ours: Vec<f64> = CONFIG_COLUMNS
                .iter()
                .map(|(_, space, dynamic)| {
                    runner
                        .run(exp, myrinet_gcc(nodes, ppn), *space, balance_of(*dynamic), base)
                        .speedup
                })
                .collect();
            TableRow { label: label.to_string(), ours, paper: paper_row.to_vec() }
        })
        .collect()
}

/// Table 1: snow on Myrinet + GCC across the IS/FS × SLB/DLB matrix.
pub fn table1(size: WorkloadSize, frames: u64) -> Vec<TableRow> {
    myrinet_table(Workload::Snow, &paper::TABLE1, size, frames)
}

/// Table 3: fountain on Myrinet + GCC, same matrix.
pub fn table3(size: WorkloadSize, frames: u64) -> Vec<TableRow> {
    myrinet_table(Workload::Fountain, &paper::TABLE3, size, frames)
}

/// Table 2: snow on the heterogeneous Fast-Ethernet + ICC mixes, FS-DLB,
/// against the Itanium ICC sequential baseline.
pub fn table2(size: WorkloadSize, frames: u64) -> Vec<TableRow> {
    let mut runner = Runner::new(size, frames);
    let base = runner.baseline_icc(Workload::Snow);
    table2_rows()
        .into_iter()
        .zip(paper::TABLE2.iter())
        .map(|((label, cluster), &paper_v)| {
            let out = runner.run(Workload::Snow, cluster, SpaceMode::Finite, paper_dlb(), base);
            TableRow { label: label.to_string(), ours: vec![out.speedup], paper: vec![paper_v] }
        })
        .collect()
}

/// The in-text §5.1/§5.2 numbers: migration volumes and the named runs.
#[derive(Clone, Debug)]
pub struct TextNumbers {
    /// (per-process particles/frame, total KB/frame) for snow at 16 procs.
    pub snow_exchange: (f64, f64),
    /// Same for fountain.
    pub fountain_exchange: (f64, f64),
    /// Snow FE+ICC 16P: (FS-DLB, FS-SLB).
    pub snow_fe: (f64, f64),
    /// Snow 4*B+4*A Myrinet: (8P, 16P).
    pub snow_mixed: (f64, f64),
    /// Fountain 8*B+8*A (16 nodes, 16 P.), Myrinet.
    pub fountain_16_nodes: f64,
    /// Fountain best Fast-Ethernet (2*B(4P)+2*C(2P), FS-DLB).
    pub fountain_fe_best: f64,
}

/// Regenerate the in-text numbers.
pub fn text_numbers(size: WorkloadSize, frames: u64) -> TextNumbers {
    use cluster_sim::ClusterSpec;
    use cluster_sim::{e60, e800, zx2000, Compiler, NetworkModel};

    let mut runner = Runner::new(size, frames);

    // Exchange volumes measured on the 8*B/16P Myrinet FS-SLB runs (static
    // domains — with DLB active the cuts crowd into dense regions and
    // boundary-crossing rates rise above what the paper reports).
    let base_gcc_snow = runner.baseline_gcc(Workload::Snow);
    let snow16 = runner.run(
        Workload::Snow,
        myrinet_gcc(8, 2),
        SpaceMode::Finite,
        BalanceMode::Static,
        base_gcc_snow,
    );
    let procs = 16.0;
    let snow_exchange = (snow16.report.mean_migrated() / procs, snow16.report.mean_migration_kb());

    let base_gcc_fountain = runner.baseline_gcc(Workload::Fountain);
    let fountain16 = runner.run(
        Workload::Fountain,
        myrinet_gcc(8, 2),
        SpaceMode::Finite,
        BalanceMode::Static,
        base_gcc_fountain,
    );
    let fountain_exchange =
        (fountain16.report.mean_migrated() / procs, fountain16.report.mean_migration_kb());

    // Snow on Fast-Ethernet + ICC, 8 E800 / 16 P.
    let fe_cluster =
        || ClusterSpec::homogeneous(NetworkModel::fast_ethernet(), Compiler::Icc, e800(), 8, 2);
    let base_icc_snow = runner.baseline_icc(Workload::Snow);
    let snow_fe_dlb = runner
        .run(Workload::Snow, fe_cluster(), SpaceMode::Finite, paper_dlb(), base_icc_snow)
        .speedup;
    let snow_fe_slb = runner
        .run(Workload::Snow, fe_cluster(), SpaceMode::Finite, BalanceMode::Static, base_icc_snow)
        .speedup;

    // Snow mixed 4*B + 4*A on Myrinet + GCC (8 and 16 processes).
    let mixed = |ppn: usize| {
        ClusterSpec::new(NetworkModel::myrinet(), Compiler::Gcc)
            .add_nodes(e800(), 4, ppn)
            .add_nodes(e60(), 4, ppn)
    };
    let snow_mixed_8 =
        runner.run(Workload::Snow, mixed(1), SpaceMode::Finite, paper_dlb(), base_gcc_snow).speedup;
    let snow_mixed_16 =
        runner.run(Workload::Snow, mixed(2), SpaceMode::Finite, paper_dlb(), base_gcc_snow).speedup;

    // Fountain on 16 nodes (8*B + 8*A), Myrinet + GCC.
    let sixteen_nodes = ClusterSpec::new(NetworkModel::myrinet(), Compiler::Gcc)
        .add_nodes(e800(), 8, 1)
        .add_nodes(e60(), 8, 1);
    let fountain_16 = runner
        .run(Workload::Fountain, sixteen_nodes, SpaceMode::Finite, paper_dlb(), base_gcc_fountain)
        .speedup;

    // Fountain best FE: 2*B (4P) + 2*C (2P), FS-DLB vs Itanium ICC.
    let base_icc_fountain = runner.baseline_icc(Workload::Fountain);
    let fe_best_cluster = ClusterSpec::new(NetworkModel::fast_ethernet(), Compiler::Icc)
        .add_nodes(e800(), 2, 2)
        .add_nodes(zx2000(), 2, 1);
    let fountain_fe = runner
        .run(Workload::Fountain, fe_best_cluster, SpaceMode::Finite, paper_dlb(), base_icc_fountain)
        .speedup;

    TextNumbers {
        snow_exchange,
        fountain_exchange,
        snow_fe: (snow_fe_dlb, snow_fe_slb),
        snow_mixed: (snow_mixed_8, snow_mixed_16),
        fountain_16_nodes: fountain_16,
        fountain_fe_best: fountain_fe,
    }
}

/// §5.3's time reductions, derived from the best measured speed-ups.
pub struct Reductions {
    /// (ours %, paper %) — snow over Myrinet.
    pub snow_myrinet: (f64, f64),
    /// snow over Fast-Ethernet.
    pub snow_fe: (f64, f64),
    /// fountain over Myrinet.
    pub fountain_myrinet: (f64, f64),
}

/// Compute the §5.3 reductions from fresh best-config runs.
pub fn reductions(size: WorkloadSize, frames: u64) -> Reductions {
    let t1 = table1(size, frames);
    let t3 = table3(size, frames);
    let best = |rows: &[TableRow]| -> f64 {
        rows.iter().flat_map(|r| r.ours.iter().copied()).fold(0.0, f64::max)
    };
    let tn = text_numbers(size, frames);
    Reductions {
        snow_myrinet: (paper::reduction_pct(best(&t1)), paper::REDUCTION_SNOW_MYRINET),
        snow_fe: (paper::reduction_pct(tn.snow_fe.0.max(tn.snow_fe.1)), paper::REDUCTION_SNOW_FE),
        fountain_myrinet: (paper::reduction_pct(best(&t3)), paper::REDUCTION_FOUNTAIN_MYRINET),
    }
}

/// Render rows as an aligned text table.
pub fn format_table(title: &str, columns: &[&str], rows: &[TableRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!("{:<34}", "Nodes vs. Processes"));
    for c in columns {
        s.push_str(&format!("{c:>9}{:>9}", format!("(paper)")));
    }
    s.push('\n');
    for r in rows {
        s.push_str(&format!("{:<34}", r.label));
        for (o, p) in r.ours.iter().zip(r.paper.iter()) {
            s.push_str(&format!("{o:>9.2}{p:>9.2}"));
        }
        s.push('\n');
    }
    s
}

/// The sections of the reproduction transcript, in the order `bench tables
/// all` prints them (`repro_output.txt` is exactly that).
pub const SECTIONS: &[&str] =
    &["table1", "table2", "table3", "text-snow", "text-fountain", "reductions"];

/// Run and print one of [`SECTIONS`] next to the paper's published values.
pub fn print_section(section: &str, size: WorkloadSize, frames: u64) {
    let columns = CONFIG_COLUMNS.map(|(c, _, _)| c);
    let table = |title: &str, columns: &[&str], rows: Vec<TableRow>| {
        println!("{}", format_table(title, columns, &rows));
    };
    let exchange = |ours: (f64, f64), paper_per_proc: f64, paper_kb: f64| {
        println!(
            "exchange: {:.0} particles/process/frame (paper ≈ {paper_per_proc:.0}); {:.0} KB/frame total (paper ≈ {paper_kb:.0})",
            ours.0, ours.1
        );
    };
    match section {
        "table1" => table(
            "## Table 1 — Snow, Myrinet + GNU/GCC (speed-up vs sequential E800+GCC)",
            &columns,
            table1(size, frames),
        ),
        "table2" => table(
            "## Table 2 — Snow, Fast-Ethernet + ICC, FS-DLB (speed-up vs sequential Itanium+ICC)",
            &["Speed-Up"],
            table2(size, frames),
        ),
        "table3" => table(
            "## Table 3 — Fountain, Myrinet + GNU/GCC (speed-up vs sequential E800+GCC)",
            &columns,
            table3(size, frames),
        ),
        "text-snow" => {
            let tn = text_numbers(size, frames);
            println!("## §5.1 in-text numbers — snow");
            exchange(
                tn.snow_exchange,
                paper::SNOW_EXCHANGE_PER_PROC,
                paper::SNOW_EXCHANGE_TOTAL_KB,
            );
            println!(
                "FE+ICC 8*B/16P: FS-DLB {:.2} (paper {:.2}), FS-SLB {:.2} (paper {:.2})",
                tn.snow_fe.0,
                paper::SNOW_FE_DLB,
                tn.snow_fe.1,
                paper::SNOW_FE_SLB_FS
            );
            println!(
                "4*B + 4*A Myrinet: 8P {:.2} (paper {:.2}), 16P {:.2} (paper {:.2})\n",
                tn.snow_mixed.0,
                paper::SNOW_MIXED_8P,
                tn.snow_mixed.1,
                paper::SNOW_MIXED_16P
            );
        }
        "text-fountain" => {
            let tn = text_numbers(size, frames);
            println!("## §5.2 in-text numbers — fountain");
            exchange(
                tn.fountain_exchange,
                paper::FOUNTAIN_EXCHANGE_PER_PROC,
                paper::FOUNTAIN_EXCHANGE_TOTAL_KB,
            );
            println!(
                "16 nodes (8*B + 8*A) Myrinet: {:.2} (paper {:.2})",
                tn.fountain_16_nodes,
                paper::FOUNTAIN_16_NODES
            );
            println!(
                "best Fast-Ethernet (2*B(4P)+2*C(2P)): {:.2} (paper {:.2})\n",
                tn.fountain_fe_best,
                paper::FOUNTAIN_FE_BEST
            );
        }
        "reductions" => {
            let r = reductions(size, frames);
            println!("## §5.3 time reductions");
            println!(
                "snow over Myrinet:       {:.0}% (paper {:.0}%)",
                r.snow_myrinet.0, r.snow_myrinet.1
            );
            println!("snow over Fast-Ethernet: {:.0}% (paper {:.0}%)", r.snow_fe.0, r.snow_fe.1);
            println!(
                "fountain over Myrinet:   {:.0}% (paper {:.0}%)\n",
                r.fountain_myrinet.0, r.fountain_myrinet.1
            );
        }
        other => unreachable!("`{other}` is not one of SECTIONS; the command line checks that"),
    }
}
