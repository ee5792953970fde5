//! Worker-count invariance of the chunked compute kernel, end to end.
//!
//! `psa_core::kernel` promises byte-identical simulation state for any
//! worker count at a fixed chunk size. The kernel's own unit tests check
//! one store; these tests check the promise through both executors on the
//! paper workloads — chunk layout, chunk-keyed RNG streams, exchange,
//! balancing, everything between the seed and the report.

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::runtime::LoadMetric;

const CHUNKS: [usize; 3] = [64, 1024, 100_000];
const WORKERS: [usize; 4] = [1, 2, 4, 8];

const WORKLOADS: [Workload; 2] = [Workload::Snow, Workload::Fountain];

/// Virtual executor: the run fingerprint (every frame's particle checksum,
/// times, traffic) is a function of (seed, chunk) only — never of the
/// worker count.
#[test]
fn virtual_fingerprint_is_worker_count_invariant() {
    let size = WorkloadSize { systems: 2, particles_per_system: 900, scale: 25.0 };
    for exp in WORKLOADS {
        for &chunk in &CHUNKS {
            let run = |workers: usize| {
                let cfg = RunConfig {
                    frames: 6,
                    dt: exp.dt(),
                    seed: 42,
                    parallel: ParallelConfig { workers, chunk },
                    ..Default::default()
                };
                let mut sim =
                    EventSim::new(exp.scene(size), cfg, myrinet_gcc(4, 1), size.cost_model());
                sim.run()
            };
            let want = run(1).fingerprint();
            for &w in &WORKERS[1..] {
                assert_eq!(
                    run(w).fingerprint(),
                    want,
                    "{}: chunk {chunk}, {w} workers drifted from the 1-worker run",
                    exp.name()
                );
            }
        }
    }
}

/// Threaded executor (real OS threads): per-frame particle-state checksums
/// are identical for every worker count at a fixed chunk size.
#[test]
fn threaded_checksums_are_worker_count_invariant() {
    let size = WorkloadSize { systems: 2, particles_per_system: 500, scale: 25.0 };
    for exp in WORKLOADS {
        for &chunk in &CHUNKS {
            let run = |workers: usize| {
                let cfg = RunConfig {
                    frames: 5,
                    dt: exp.dt(),
                    seed: 7,
                    load_metric: LoadMetric::CountProportional,
                    parallel: ParallelConfig { workers, chunk },
                    ..Default::default()
                };
                let report =
                    run_threaded(&exp.scene(size), &cfg, 3, None).expect("threaded run failed");
                report.frames.iter().map(|f| (f.frame, f.alive, f.checksum)).collect::<Vec<_>>()
            };
            let want = run(1);
            for &w in &WORKERS[1..] {
                assert_eq!(
                    run(w),
                    want,
                    "{}: chunk {chunk}, {w} workers drifted from the 1-worker run",
                    exp.name()
                );
            }
        }
    }
}

/// The default configuration (`workers: 1, chunk: 0`) is the legacy serial
/// path: explicitly asking for one worker on the chunked path must still
/// match it only when the chunk layout matches, while `chunk: 0` with extra
/// workers silently upgrades to the default chunk — both documented
/// behaviors are pinned here.
#[test]
fn chunk_zero_with_workers_uses_the_default_chunk() {
    let size = WorkloadSize { systems: 2, particles_per_system: 600, scale: 25.0 };
    let run = |parallel: ParallelConfig| {
        let cfg = RunConfig { frames: 5, dt: 0.15, seed: 9, parallel, ..Default::default() };
        let mut sim = EventSim::new(snow_scene(size), cfg, myrinet_gcc(4, 1), size.cost_model());
        sim.run().fingerprint()
    };
    let upgraded = run(ParallelConfig { workers: 4, chunk: 0 });
    let explicit = run(ParallelConfig { workers: 4, chunk: 1024 });
    assert_eq!(upgraded, explicit, "chunk 0 + workers must mean DEFAULT_CHUNK");
    let serial = run(ParallelConfig::default());
    let chunked_1 = run(ParallelConfig { workers: 1, chunk: 1024 });
    assert_eq!(run(ParallelConfig::default()), serial, "serial path must be reproducible");
    // The chunked path re-keys RNG streams per chunk, so it is a different
    // (equally deterministic) trajectory than the legacy serial path.
    assert_ne!(serial, chunked_1, "chunked RNG streams are keyed differently from the serial path");
}
