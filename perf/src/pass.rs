//! One pass of one workload: the metrics it measured, the operations it
//! attempted, and the correctness gates every timed call goes through.
//!
//! An *op* is one executor run or one pool session. Every helper here times
//! exactly the call into the program (set-up is outside the stopwatch),
//! counts the op, and checks the output; a failed check fails an op, and a
//! pass with a failed op is not `correct`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cluster_sim::CostModel;
use psa_desim::{EventSim, SimStats};
use psa_runtime::threaded::RenderSink;
use psa_runtime::{run_sequential, run_threaded_traced, RunConfig, RunReport, Scene};
use psa_sessions::{derive_session_seed, PoolReport};

use crate::workloads::{session_spec, Workload};

/// Order-sensitive FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Σ `FrameReport.alive` over the report's frames: the particle·frames a
/// run animated.
pub fn pframes(report: &RunReport) -> u64 {
    report.frames.iter().map(|f| f.alive).sum()
}

#[derive(Debug, Default)]
pub struct Pass {
    /// Every metric's samples, in the metric's unit: one per round or
    /// repetition of a timing, a single one for a count or a size.
    pub metrics: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Simulated state per configuration label, as a hash. Repetitions of
    /// one configuration must agree; together they are the state digest.
    pub states: BTreeMap<String, u64>,
    /// Untraced pass only: `peak_rss_mb` is the peak of a round (the kernel
    /// let the pass reset `VmHWM`), not the peak since the process started.
    pub peak_rss_per_round: bool,
}

impl Pass {
    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record the simulated state one run of `config` produced. Every
    /// repetition of a configuration must produce the same state — timing
    /// may vary, results may not.
    pub fn state(&mut self, config: &str, hash: u64) {
        match self.states.get(config) {
            None => {
                self.states.insert(config.to_owned(), hash);
            }
            Some(&first) if first != hash => self.fail(format!(
                "{config}: repetition produced state {hash:#018x}, the first produced {first:#018x}"
            )),
            Some(_) => {}
        }
    }

    /// One hash over every configuration's state: equal digests on two
    /// builds mean a change altered speed only.
    pub fn digest(&self) -> u64 {
        fnv(self.states.iter().flat_map(|(k, &v)| [fnv(k.bytes().map(u64::from)), v]))
    }

    /// A measurement with run-to-run spread: `samples`, each multiplied by
    /// `scale` (unit conversion). Reported as `stats::Summary` has it.
    pub fn timing(&mut self, name: &str, samples: &[f64], scale: f64) {
        self.metrics.push((name.to_owned(), samples.iter().map(|s| s * scale).collect()));
    }

    /// A number that repeats exactly (a count, a size) or is read once.
    pub fn value(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), vec![value]));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One `run_threaded_traced` call: wall seconds around the call (thread
    /// spawn and join included — users pay them) and the report.
    pub fn threaded(
        &mut self,
        config: &str,
        scene: &Scene,
        cfg: &RunConfig,
        calculators: usize,
        sink: Option<RenderSink>,
        instrument: bool,
    ) -> Option<(f64, RunReport)> {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = black_box(run_threaded_traced(scene, cfg, calculators, sink, instrument));
        let wall = t0.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{config}: threaded run failed: {e}"));
                return None;
            }
        };
        self.check(report.frames.len() as u64 == cfg.frames, || {
            format!("{config}: {} frames reported, {} configured", report.frames.len(), cfg.frames)
        });
        self.check(instrument == report.phases.is_some(), || {
            format!("{config}: phase table presence does not match instrument={instrument}")
        });
        self.state(config, fnv(report.frames.iter().flat_map(|f| [f.checksum, f.alive])));
        Some((wall, report))
    }

    /// One `run_sequential` call — the plain single-threaded baseline.
    pub fn sequential(&mut self, config: &str, scene: &Scene, cfg: &RunConfig) -> (f64, RunReport) {
        self.attempted += 1;
        let cost = CostModel::default();
        let t0 = Instant::now();
        let report = black_box(run_sequential(scene, cfg, &cost, 1.0));
        let wall = t0.elapsed().as_secs_f64();
        self.check(report.frames.len() as u64 == cfg.frames, || {
            format!("{config}: {} frames reported, {} configured", report.frames.len(), cfg.frames)
        });
        self.state(config, fnv(report.frames.iter().map(|f| f.alive)));
        (wall, report)
    }

    /// One `EventSim::try_run` call, expecting `frames` reported frames.
    pub fn desim(
        &mut self,
        config: &str,
        sim: &mut EventSim,
        frames: u64,
    ) -> Option<(f64, RunReport, SimStats)> {
        self.attempted += 1;
        let t0 = Instant::now();
        let result = black_box(sim.try_run());
        let wall = t0.elapsed().as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{config}: event-driven run failed: {e}"));
                return None;
            }
        };
        let stats = sim.sim_stats();
        self.check(report.frames.len() as u64 == frames, || {
            format!("{config}: {} frames reported, {frames} expected", report.frames.len())
        });
        self.check(report.dead_ranks.is_empty() && report.lost_particles == 0, || {
            format!(
                "{config}: {} dead ranks, {} particles lost on a healthy cluster",
                report.dead_ranks.len(),
                report.lost_particles
            )
        });
        self.state(
            config,
            fnv([
                report.fingerprint(),
                stats.events,
                stats.sends,
                stats.fast_forwards,
                stats.blocked_recvs,
                stats.max_heap_depth as u64,
            ]),
        );
        Some((wall, report, stats))
    }

    /// One pool: admit every session (timed as `admit` seconds), then
    /// `run_to_completion` (timed as wall seconds). Every session is an op.
    pub fn pool(
        &mut self,
        config: &str,
        w: &Workload,
        seed: u64,
        checkpoint_interval: u64,
    ) -> (f64, f64, PoolReport) {
        let t0 = Instant::now();
        let (pool, ids) = w.pool(seed, checkpoint_interval);
        let admit = t0.elapsed().as_secs_f64();
        self.attempted += ids.len() as u64;
        let t0 = Instant::now();
        let report = black_box(pool.run_to_completion());
        let wall = t0.elapsed().as_secs_f64();

        let unfinished = ids.len().saturating_sub(report.completed());
        if unfinished > 0 || !report.failed.is_empty() || !report.rejected.is_empty() {
            self.failed += unfinished.max(1) as u64 - 1;
            self.fail(format!(
                "{config}: {} of {} sessions completed, {} failed, {} rejected",
                report.completed(),
                ids.len(),
                report.failed.len(),
                report.rejected.len()
            ));
        }
        // Completion order is scheduling, not state: hash by session id.
        let mut prints: Vec<(u64, u64)> =
            report.outcomes.iter().map(|o| (o.id.0, o.fingerprint)).collect();
        prints.sort_unstable();
        let first_seen = !self.states.contains_key(config);
        self.state(config, fnv(prints.iter().flat_map(|&(id, fp)| [id, fp])));

        // Multiplexing must not change a session's result: the middle
        // session equals a solo event-driven run under its derived seed.
        if first_seen && !ids.is_empty() {
            let index = ids.len() / 2;
            let id = ids[index];
            let spec = session_spec(index);
            let cfg = RunConfig { seed: derive_session_seed(seed, id), ..spec.cfg };
            let solo = EventSim::new(spec.scene, cfg, spec.cluster, spec.cost).try_run();
            let pooled = report.outcome_for(id).map(|o| o.fingerprint);
            self.check(
                solo.is_ok() && solo.as_ref().ok().map(RunReport::fingerprint) == pooled,
                || format!("{config}: session {} differs from its solo run", id.0),
            );
        }
        (admit, wall, report)
    }
}

/// Frames a finished pool stepped (scheduler counters; replayed frames
/// count once).
pub fn pool_frames(report: &PoolReport) -> u64 {
    report.outcomes.iter().map(|o| o.counters.frames).sum()
}
