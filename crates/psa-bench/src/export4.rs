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
//! * **Frame hot-path allocations** — [`measure_allocations`] counts heap
//!   allocations per frame of exchange staging before (fresh vectors +
//!   `collect_leavers`) and after (`collect_leavers_into` + reused
//!   buffers) the allocation-free rework, through the counting global
//!   allocator the `bench` binary installs.
//!
//! Like `BENCH_3`, [`Export::checked_json`] rejects NaN/empty metrics
//! before anything is written.

use std::sync::atomic::{AtomicU64, Ordering};

use psa_core::{kernel, Particle, SubDomainStore};
use psa_desim::EventSim;
use psa_math::{Axis, Interval, Rng64, Vec3};
use psa_runtime::{ParallelConfig, RunReport};
use psa_trace::Phase;
use psa_workloads::{myrinet_gcc, paper_run_config, Workload, WorkloadSize};

use crate::json::Json;
use crate::{fields, json_fields, obj, Export};

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

/// Heap allocations per frame of exchange staging, measured by
/// [`measure_allocations`].
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

/// Heap allocations of the process so far. The `bench` binary's counting
/// `#[global_allocator]` increments it; under any other allocator (the unit
/// tests) it stays 0 and [`measure_allocations`] measures nothing.
pub static HEAP_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn allocs() -> u64 {
    HEAP_ALLOCATIONS.load(Ordering::Relaxed)
}

const STAGE_PARTICLES: usize = 4_000;
const STAGE_DESTS: usize = 8;
const STAGE_FRAMES: u64 = 32;

/// A store over [0, 10) with particles spread across it; `drift` moves a
/// band of them out of the slice each "frame" so the staging loop has real
/// leavers to route.
fn staging_store() -> SubDomainStore {
    let slice = Interval::new(0.0, 10.0);
    let mut store = SubDomainStore::new(slice, Axis::X, STAGE_DESTS);
    let mut rng = Rng64::new(0xBE4C);
    for _ in 0..STAGE_PARTICLES {
        store.insert(Particle::at(Vec3::new(rng.range(0.0, 10.0), 0.0, 0.0)));
    }
    store
}

fn drift(store: &mut SubDomainStore, frame: u64) {
    // Alternate direction so the population never leaks away.
    let dx = if frame.is_multiple_of(2) { 0.6 } else { -0.6 };
    store.for_each_mut(|p| p.position.x += dx);
}

fn dest_of(p: &Particle) -> usize {
    ((p.position.x.abs() as usize) + 1) % STAGE_DESTS
}

/// Seed-form staging: every frame allocates its leaver vector and a fresh
/// per-destination spine.
fn run_naive(store: &mut SubDomainStore) -> u64 {
    let before = allocs();
    for frame in 0..STAGE_FRAMES {
        drift(store, frame);
        let leavers = store.collect_leavers();
        let mut per_dest: Vec<Vec<Particle>> = vec![Vec::new(); STAGE_DESTS];
        for p in leavers {
            per_dest[dest_of(&p)].push(p);
        }
        for batch in per_dest {
            store.extend(batch);
        }
    }
    (allocs() - before) / STAGE_FRAMES
}

/// Reworked staging: `collect_leavers_into` plus buffers reused across
/// frames — the steady state allocates nothing.
fn run_hot_path(store: &mut SubDomainStore) -> u64 {
    let mut leavers: Vec<Particle> = Vec::new();
    let mut per_dest: Vec<Vec<Particle>> = (0..STAGE_DESTS).map(|_| Vec::new()).collect();
    let mut stage = |store: &mut SubDomainStore, frame: u64| {
        drift(store, frame);
        store.collect_leavers_into(&mut leavers);
        for p in leavers.drain(..) {
            per_dest[dest_of(&p)].push(p);
        }
        for batch in per_dest.iter_mut() {
            store.extend(batch.drain(..));
        }
    };
    // Warm the buffers so the measured frames see the steady state.
    stage(store, 0);
    let before = allocs();
    for frame in 1..=STAGE_FRAMES {
        stage(store, frame);
    }
    (allocs() - before) / STAGE_FRAMES
}

/// Drive the same exchange-staging loop once in its seed form and once in
/// its reworked form, counting each one's [`HEAP_ALLOCATIONS`] per frame.
pub fn measure_allocations() -> AllocationCounts {
    AllocationCounts {
        naive_per_frame: run_naive(&mut staging_store()),
        hot_path_per_frame: run_hot_path(&mut staging_store()),
    }
}

/// One traced virtual run at the given worker count.
fn traced_run(exp: Workload, size: WorkloadSize, frames: u64, workers: usize) -> RunReport {
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

/// Run the sweep and assemble the export. `allocations` comes from
/// [`measure_allocations`] (tests pass fixed counts).
pub fn collect4(scale: f64, frames: u64, allocations: AllocationCounts) -> Bench4Export {
    let size = WorkloadSize::paper_scaled(scale);
    let mut experiments = Vec::new();
    for exp in [Workload::Snow, Workload::Fountain] {
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

impl Export for Bench4Export {
    /// Reject empty sweeps, non-finite metrics, broken invariance (the
    /// flag *and* the fingerprints the scaling rows carry), a 4-worker
    /// compute speed-up at or below 1.5, and a hot path that fails to beat
    /// the naive staging.
    fn validate(&self) -> Result<(), String> {
        if self.experiments.is_empty() {
            return Err("no experiments collected".into());
        }
        for e in &self.experiments {
            let tag = format!("experiment {}", e.experiment);
            let fp0 = e.scaling.first().map(|s| s.fingerprint);
            if !e.fingerprint_invariant || e.scaling.iter().any(|s| Some(s.fingerprint) != fp0) {
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
            // The chunked kernel has to pay: four workers on the measured
            // chunk counts must project past 1.5x.
            let s4 = e.scaling.iter().find(|s| s.workers == 4).map_or(0.0, |s| s.speedup);
            if s4 <= 1.5 {
                return Err(format!("{tag}: 4-worker compute speedup {s4} <= 1.5"));
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

    fn to_json(&self) -> Json {
        obj! {
            "bench": 4u64,
            "workload": fields!(self; scale, frames),
            "experiments": &self.experiments,
            "allocations": fields!(self.allocations; naive_per_frame, hot_path_per_frame),
        }
    }
}

json_fields!(WorkerScale; workers, compute_time, speedup, fingerprint);
json_fields!(Bench4Experiment; experiment, chunk, total_chunks, fingerprint_invariant, scaling);

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Bench4Export {
        collect4(50.0, 8, AllocationCounts { naive_per_frame: 10, hot_path_per_frame: 2 })
    }

    #[test]
    fn collect_produces_valid_export() {
        let e = smoke();
        let json = e.checked_json().expect("smoke export must validate and render");
        assert!(json.starts_with("{\n  \"bench\": 4,\n"), "{json}");
        assert_eq!(e.experiments.len(), 2, "snow + fountain");
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
        let mut e4 = smoke();
        e4.experiments[1].scaling[3].fingerprint ^= 1;
        assert!(e4.validate().is_err(), "a scaling row with its own fingerprint must fail");
        let mut e5 = smoke();
        e5.experiments[0].scaling[2].speedup = 1.5;
        assert!(e5.validate().is_err(), "a 4-worker speed-up of 1.5 or less must fail");
    }
}
