//! Machine-readable parallel-kernel export (`BENCH_4.json`).
//!
//! Quantifies the intra-rank chunked kernel (`psa_core::kernel`) on the
//! paper workloads:
//!
//! * **Worker-count invariance** — the same seed and chunk size must yield
//!   byte-identical [`RunReport::fingerprint`]s at 1, 2, 4 and 8 workers.
//!   This is the kernel's determinism contract, checked on real traced
//!   virtual runs of snow and fountain.
//! * **Compute-phase scaling** — per-frame chunk counts are measured by the
//!   trace recorder (`compute_chunks`), and the compute-phase time at `w`
//!   workers is projected with the busiest-worker chunk-schedule bound
//!   [`kernel::parallel_scale`]: `t_w = Σ_frames t_f · ⌈chunks_f/w⌉ /
//!   chunks_f`. The projection is deterministic (virtual-time philosophy:
//!   CI machines with one core report the same numbers as a 32-core box);
//!   real `thread::scope` workers exist for multicore hosts but are never
//!   what the gate measures.
//! * **Frame hot-path allocations** — the `bench4` binary counts heap
//!   allocations per frame of exchange staging before (fresh vectors +
//!   `collect_leavers`) and after (`collect_leavers_into` + reused
//!   buffers) the allocation-free rework, via a counting global allocator.
//!
//! Like `BENCH_3`, the JSON is hand-rolled and [`Bench4Export::validate`]
//! rejects NaN/empty metrics before anything is written.

use psa_core::kernel;
use psa_desim::EventSim;
use psa_runtime::{ParallelConfig, RunReport};
use psa_trace::Phase;
use psa_workloads::{myrinet_gcc, paper_run_config, WorkloadSize};

use crate::runner::Experiment;

/// Chunk size every BENCH_4 run uses (the kernel default).
pub const BENCH4_CHUNK: usize = kernel::DEFAULT_CHUNK;

/// Worker counts the scaling sweep covers.
pub const BENCH4_WORKERS: &[usize] = &[1, 2, 4, 8];

/// One point of the compute-phase scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct WorkerScale {
    pub workers: usize,
    /// Projected compute-phase seconds (busiest-worker bound over the
    /// measured per-frame chunk counts).
    pub compute_time: f64,
    /// `compute_time(1) / compute_time(workers)`.
    pub speedup: f64,
    /// Fingerprint of the traced run executed at this worker count.
    pub fingerprint: u64,
}

/// One experiment's kernel measurements.
#[derive(Clone, Debug)]
pub struct Bench4Experiment {
    pub experiment: &'static str,
    pub chunk: usize,
    /// Kernel chunks processed over the whole run (all frames, all ranks).
    pub total_chunks: u64,
    /// All worker counts produced the same run fingerprint.
    pub fingerprint_invariant: bool,
    pub scaling: Vec<WorkerScale>,
}

/// Heap allocations per frame of exchange staging, measured by `bench4`'s
/// counting allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocationCounts {
    /// Seed-style staging: fresh `Vec`s every frame.
    pub naive_per_frame: u64,
    /// Reworked staging: `collect_leavers_into` + reused buffers.
    pub hot_path_per_frame: u64,
}

/// Everything `BENCH_4.json` carries.
pub struct Bench4Export {
    pub scale: f64,
    pub frames: u64,
    pub experiments: Vec<Bench4Experiment>,
    pub allocations: AllocationCounts,
}

/// One traced virtual run at the given worker count.
fn traced_run(exp: Experiment, size: WorkloadSize, frames: u64, workers: usize) -> RunReport {
    let scene = exp.scene(size);
    let mut cfg = paper_run_config(frames, exp.dt());
    cfg.parallel = ParallelConfig { workers, chunk: BENCH4_CHUNK };
    EventSim::new(scene, cfg, myrinet_gcc(8, 2), size.cost_model()).with_phases().run()
}

/// Projected compute-phase time at `workers` from the 1-worker trace:
/// each frame's compute seconds shrink by the busiest-worker bound for
/// that frame's measured chunk count.
fn projected_compute_time(report: &RunReport, workers: usize) -> f64 {
    let phases = report.phases.as_ref().expect("traced run carries phases");
    phases
        .frames
        .iter()
        .map(|f| {
            let t = f.phase_totals()[Phase::Compute.index()];
            t * kernel::parallel_scale(f.counters.compute_chunks, workers)
        })
        .sum()
}

/// Run the sweep and assemble the export. `allocations` comes from the
/// caller (the `bench4` binary hosts the counting allocator).
pub fn collect4(scale: f64, frames: u64, allocations: AllocationCounts) -> Bench4Export {
    let size = WorkloadSize::paper_scaled(scale);
    let mut experiments = Vec::new();
    for exp in [Experiment::Snow, Experiment::Fountain] {
        let reports: Vec<RunReport> =
            BENCH4_WORKERS.iter().map(|&w| traced_run(exp, size, frames, w)).collect();
        let fp0 = reports[0].fingerprint();
        let fingerprint_invariant = reports.iter().all(|r| r.fingerprint() == fp0);
        let base = &reports[0];
        let total_chunks = base
            .phases
            .as_ref()
            .expect("traced run carries phases")
            .counter_totals()
            .compute_chunks;
        let t1 = projected_compute_time(base, 1);
        let scaling = BENCH4_WORKERS
            .iter()
            .zip(&reports)
            .map(|(&w, r)| {
                let tw = projected_compute_time(base, w);
                WorkerScale {
                    workers: w,
                    compute_time: tw,
                    speedup: if tw > 0.0 { t1 / tw } else { 0.0 },
                    fingerprint: r.fingerprint(),
                }
            })
            .collect();
        experiments.push(Bench4Experiment {
            experiment: exp.name(),
            chunk: BENCH4_CHUNK,
            total_chunks,
            fingerprint_invariant,
            scaling,
        });
    }
    Bench4Export { scale, frames, experiments, allocations }
}

impl Bench4Export {
    /// Reject empty sweeps, non-finite metrics, broken invariance, and a
    /// hot path that fails to beat the naive staging.
    pub fn validate(&self) -> Result<(), String> {
        if self.experiments.is_empty() {
            return Err("no experiments collected".into());
        }
        for e in &self.experiments {
            let tag = format!("experiment {}", e.experiment);
            if !e.fingerprint_invariant {
                return Err(format!("{tag}: fingerprints differ across worker counts"));
            }
            if e.total_chunks == 0 {
                return Err(format!("{tag}: no kernel chunks recorded"));
            }
            if e.scaling.len() != BENCH4_WORKERS.len() {
                return Err(format!("{tag}: incomplete scaling sweep"));
            }
            for s in &e.scaling {
                if !s.compute_time.is_finite() || s.compute_time <= 0.0 {
                    return Err(format!(
                        "{tag}: compute_time({}) is {}",
                        s.workers, s.compute_time
                    ));
                }
                if !s.speedup.is_finite() || s.speedup < 1.0 - 1e-9 {
                    return Err(format!("{tag}: speedup({}) is {}", s.workers, s.speedup));
                }
            }
        }
        let a = &self.allocations;
        if a.naive_per_frame == 0 {
            return Err("allocation micro-bench recorded no naive allocations".into());
        }
        if a.hot_path_per_frame >= a.naive_per_frame {
            return Err(format!(
                "hot path must allocate less than naive staging: {} >= {}",
                a.hot_path_per_frame, a.naive_per_frame
            ));
        }
        Ok(())
    }

    /// Serialize to the `BENCH_4.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": 4,\n");
        s.push_str(&format!(
            "  \"workload\": {{\"scale\": {}, \"frames\": {}}},\n",
            json_f64(self.scale),
            self.frames
        ));
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"experiment\": \"{}\",\n", e.experiment));
            s.push_str(&format!("      \"chunk\": {},\n", e.chunk));
            s.push_str(&format!("      \"total_chunks\": {},\n", e.total_chunks));
            s.push_str(&format!("      \"fingerprint_invariant\": {},\n", e.fingerprint_invariant));
            s.push_str("      \"scaling\": [\n");
            for (j, w) in e.scaling.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"workers\": {}, \"compute_time\": {}, \"speedup\": {}, \"fingerprint\": {}}}{}\n",
                    w.workers,
                    json_f64(w.compute_time),
                    json_f64(w.speedup),
                    w.fingerprint,
                    if j + 1 < e.scaling.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.experiments.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"allocations\": {{\"naive_per_frame\": {}, \"hot_path_per_frame\": {}}}\n",
            self.allocations.naive_per_frame, self.allocations.hot_path_per_frame
        ));
        s.push_str("}\n");
        s
    }
}

/// JSON-safe float (validation upstream keeps non-finite values out of
/// written files).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench4Export {
        collect4(50.0, 8, AllocationCounts { naive_per_frame: 10, hot_path_per_frame: 2 })
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        e.validate().expect("smoke export must validate");
        assert_eq!(e.experiments.len(), 2, "snow + fountain");
        for exp in &e.experiments {
            assert!(exp.fingerprint_invariant, "{}: fingerprints must match", exp.experiment);
            let s4 = exp.scaling.iter().find(|s| s.workers == 4).expect("4-worker point");
            assert!(
                s4.speedup > 1.5,
                "{}: 4-worker compute speedup {} <= 1.5",
                exp.experiment,
                s4.speedup
            );
        }
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let j = smoke().to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"bench\": 4",
            "\"experiments\"",
            "\"scaling\"",
            "\"allocations\"",
            "\"fingerprint_invariant\": true",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn validate_rejects_regressions() {
        let mut e = smoke();
        e.allocations.hot_path_per_frame = e.allocations.naive_per_frame;
        assert!(e.validate().is_err(), "hot path not better than naive must fail");
        let mut e2 = smoke();
        e2.experiments[0].fingerprint_invariant = false;
        assert!(e2.validate().is_err(), "broken invariance must fail");
        let mut e3 = smoke();
        e3.experiments[0].scaling[1].compute_time = f64::NAN;
        assert!(e3.validate().is_err(), "NaN must fail");
    }
}
