//! Machine-readable benchmark export (`BENCH_3.json`).
//!
//! Collects every table of the paper plus two traced runs per workload
//! (FS-SLB to match the §5.1/§5.2 exchange-volume measurements, FS-DLB for
//! the headline configuration), each carrying its full per-frame per-phase
//! breakdown from `psa-trace`. [`Export::checked_json`] rejects NaN or
//! empty metrics before anything is written, so a CI artifact either
//! contains real numbers or the job fails.

use psa_runtime::{BalanceMode, SpaceMode};
use psa_trace::TraceReport;
use psa_workloads::{myrinet_gcc, Workload, WorkloadSize};

use crate::json::Json;
use crate::runner::Runner;
use crate::tables::{self, TableRow, CONFIG_COLUMNS};
use crate::{fields, json_fields, obj, Export};

/// Runs `f` and returns its result with the host seconds it took: the
/// `wall_seconds` the BENCH exports record beside their virtual-time
/// numbers, and the one field their regeneration check strips.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(clippy::disallowed_methods, reason = "wall_seconds is host time by definition")]
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One instrumented run: a headline speed-up plus the phase trace behind it.
pub struct TracedRun {
    pub experiment: &'static str,
    /// Space/balance column label (`FS-SLB`, `FS-DLB`, ...).
    pub config: &'static str,
    /// Human cluster description, paper notation.
    pub cluster: String,
    pub processes: usize,
    pub speedup: f64,
    /// Mean particles shipped per process per steady frame (paper scale).
    pub migrated_per_proc_frame: f64,
    /// Mean migrated payload per steady frame, KB (paper scale).
    pub migration_kb_per_frame: f64,
    pub phases: TraceReport,
}

/// Everything `BENCH_3.json` carries.
pub struct BenchExport {
    pub scale: f64,
    pub size: WorkloadSize,
    pub frames: u64,
    pub table1: Vec<TableRow>,
    pub table2: Vec<TableRow>,
    pub table3: Vec<TableRow>,
    pub traced: Vec<TracedRun>,
}

/// Run the full matrix once and assemble the export.
pub fn collect(scale: f64, frames: u64) -> BenchExport {
    let size = WorkloadSize::paper_scaled(scale);
    let table1 = tables::table1(size, frames);
    let table2 = tables::table2(size, frames);
    let table3 = tables::table3(size, frames);

    let mut runner = Runner::new(size, frames);
    let mut traced = Vec::new();
    for exp in [Workload::Snow, Workload::Fountain] {
        let base = runner.baseline_gcc(exp);
        // FS-SLB on 8*B/16P is where the paper measures exchange volumes;
        // FS-DLB on the same machines is the headline configuration.
        for (config, balance) in [("FS-SLB", BalanceMode::Static), ("FS-DLB", tables::paper_dlb())]
        {
            let out = runner.run_traced(exp, myrinet_gcc(8, 2), SpaceMode::Finite, balance, base);
            let procs = 16usize;
            traced.push(TracedRun {
                experiment: exp.name(),
                config,
                cluster: "8*B, 16 P., Myrinet+GCC".to_string(),
                processes: procs,
                speedup: out.speedup,
                migrated_per_proc_frame: out.report.mean_migrated() / procs as f64,
                migration_kb_per_frame: out.report.mean_migration_kb(),
                phases: out.report.phases.expect("traced run must carry a phase trace"),
            });
        }
    }
    BenchExport { scale, size, frames, table1, table2, table3, traced }
}

impl Export for BenchExport {
    /// Reject empty tables, empty or all-zero traces and negative metrics
    /// (non-finite ones are the writer's rule, see [`Export::checked_json`]).
    fn validate(&self) -> Result<(), String> {
        for (name, rows) in
            [("table1", &self.table1), ("table2", &self.table2), ("table3", &self.table3)]
        {
            if rows.is_empty() {
                return Err(format!("{name} has no rows"));
            }
            for row in rows {
                if row.ours.is_empty() {
                    return Err(format!("{name} row '{}' has no measurements", row.label));
                }
            }
        }
        if self.traced.is_empty() {
            return Err("no traced runs collected".into());
        }
        for t in &self.traced {
            let tag = format!("traced {} {}", t.experiment, t.config);
            if t.phases.frames.is_empty() {
                return Err(format!("{tag}: phase trace has no frames"));
            }
            if t.phases.phase_totals().iter().sum::<f64>() <= 0.0 {
                return Err(format!("{tag}: phase totals sum to zero"));
            }
            for (label, v) in [
                ("speedup", t.speedup),
                ("migrated_per_proc_frame", t.migrated_per_proc_frame),
                ("migration_kb_per_frame", t.migration_kb_per_frame),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{tag}: {label} is {v}"));
                }
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj! {
            "bench": 3u64,
            "workload": obj! {
                "scale": self.scale,
                "systems": self.size.systems,
                "particles_per_system": self.size.particles_per_system,
                "frames": self.frames,
            },
            "columns": CONFIG_COLUMNS.map(|(name, _, _)| name).to_vec(),
            "tables": fields!(self; table1, table2, table3),
            "traced_runs": self.traced.iter().map(Json::from).collect::<Vec<_>>(),
        }
    }
}

json_fields!(TableRow; label, ours, paper);

impl From<&TracedRun> for Json {
    fn from(t: &TracedRun) -> Json {
        obj! {
            "experiment": t.experiment,
            "config": t.config,
            "cluster": &t.cluster,
            "processes": t.processes,
            "speedup": t.speedup,
            "exchange": fields!(t; migrated_per_proc_frame, migration_kb_per_frame),
            "phases": Json::Raw(t.phases.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> BenchExport {
        // Tiny but real: exercises the full collect path at smoke size.
        collect(100.0, 6)
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        e.checked_json().expect("smoke export must validate and render");
        assert_eq!(e.traced.len(), 4, "snow+fountain x SLB/DLB");
        assert!(e.traced.iter().all(|t| !t.phases.frames.is_empty()));
    }

    #[test]
    fn validate_rejects_nan_and_empty() {
        let mut e = smoke();
        e.table1[0].ours[0] = f64::NAN;
        assert!(e.checked_json().is_err());
        let mut e2 = smoke();
        e2.traced.clear();
        assert!(e2.validate().is_err());
        let mut e3 = smoke();
        e3.traced[0].phases.frames.clear();
        assert!(e3.validate().is_err());
    }
}
