//! Machine-readable benchmark export (`BENCH_3.json`).
//!
//! Collects every table of the paper plus two traced runs per workload
//! (FS-SLB to match the §5.1/§5.2 exchange-volume measurements, FS-DLB for
//! the headline configuration), each carrying its full per-frame per-phase
//! breakdown from `psa-trace`. The JSON is hand-rolled — the workspace is
//! offline and deliberately serde-free — and [`BenchExport::validate`]
//! rejects NaN or empty metrics before anything is written, so a CI
//! artifact either contains real numbers or the job fails.

use psa_runtime::{BalanceMode, SpaceMode};
use psa_trace::TraceReport;
use psa_workloads::{myrinet_gcc, WorkloadSize};

use crate::runner::{Experiment, Runner};
use crate::tables::{self, TableRow, CONFIG_COLUMNS};

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
    for exp in [Experiment::Snow, Experiment::Fountain] {
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

impl BenchExport {
    /// Reject empty tables, empty traces, and any non-finite metric. The
    /// `bench` binary runs this before writing, so a committed or uploaded
    /// `BENCH_3.json` can be trusted not to hide a NaN behind a `null`.
    pub fn validate(&self) -> Result<(), String> {
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
                for (i, v) in row.ours.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(format!("{name} row '{}' col {i} is {v}", row.label));
                    }
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
            let totals = t.phases.phase_totals();
            if totals.iter().any(|v| !v.is_finite()) {
                return Err(format!("{tag}: non-finite phase total"));
            }
            if totals.iter().sum::<f64>() <= 0.0 {
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

    /// Serialize to the `BENCH_3.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": 3,\n");
        s.push_str(&format!(
            "  \"workload\": {{\"scale\": {}, \"systems\": {}, \"particles_per_system\": {}, \"frames\": {}}},\n",
            json_f64(self.scale),
            self.size.systems,
            self.size.particles_per_system,
            self.frames
        ));
        s.push_str("  \"columns\": [");
        for (i, (c, _, _)) in CONFIG_COLUMNS.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{c}\""));
        }
        s.push_str("],\n");
        s.push_str("  \"tables\": {\n");
        for (i, (name, rows)) in
            [("table1", &self.table1), ("table2", &self.table2), ("table3", &self.table3)]
                .iter()
                .enumerate()
        {
            s.push_str(&format!("    \"{name}\": [\n"));
            for (j, row) in rows.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"label\": \"{}\", \"ours\": [{}], \"paper\": [{}]}}{}\n",
                    row.label.replace('"', "'"),
                    join_f64(&row.ours),
                    join_f64(&row.paper),
                    if j + 1 < rows.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!("    ]{}\n", if i < 2 { "," } else { "" }));
        }
        s.push_str("  },\n");
        s.push_str("  \"traced_runs\": [\n");
        for (i, t) in self.traced.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"experiment\": \"{}\",\n", t.experiment));
            s.push_str(&format!("      \"config\": \"{}\",\n", t.config));
            s.push_str(&format!("      \"cluster\": \"{}\",\n", t.cluster));
            s.push_str(&format!("      \"processes\": {},\n", t.processes));
            s.push_str(&format!("      \"speedup\": {},\n", json_f64(t.speedup)));
            s.push_str(&format!(
                "      \"exchange\": {{\"migrated_per_proc_frame\": {}, \"migration_kb_per_frame\": {}}},\n",
                json_f64(t.migrated_per_proc_frame),
                json_f64(t.migration_kb_per_frame)
            ));
            // TraceReport::to_json is already valid JSON; reindent for
            // readability of the composite file.
            let phases = t.phases.to_json().replace('\n', "\n      ");
            s.push_str(&format!("      \"phases\": {phases}\n"));
            s.push_str(&format!("    }}{}\n", if i + 1 < self.traced.len() { "," } else { "" }));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// JSON-safe float: finite prints round-trip, non-finite becomes `null`
/// (validation upstream ensures the latter never reaches a written file).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn join_f64(vs: &[f64]) -> String {
    vs.iter().map(|v| json_f64(*v)).collect::<Vec<_>>().join(", ")
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
        e.validate().expect("smoke export must validate");
        assert_eq!(e.traced.len(), 4, "snow+fountain x SLB/DLB");
        assert!(e.traced.iter().all(|t| !t.phases.frames.is_empty()));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let e = smoke();
        let j = e.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"bench\": 3",
            "\"table1\"",
            "\"table2\"",
            "\"table3\"",
            "\"traced_runs\"",
            "\"phases\"",
            "\"exchange\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn validate_rejects_nan_and_empty() {
        let mut e = smoke();
        e.table1[0].ours[0] = f64::NAN;
        assert!(e.validate().is_err());
        let mut e2 = smoke();
        e2.traced.clear();
        assert!(e2.validate().is_err());
        let mut e3 = smoke();
        e3.traced[0].phases.frames.clear();
        assert!(e3.validate().is_err());
    }
}
